"""Scenario documents: the single external input format.

A scenario is a JSON object fixing everything a run depends on: the
horizon, the construction flavor, the three enumerations (B arrivals, C,
D), the functional tables, the p policy, and the change-bound defaults.
Loading validates the whole document and reports every violation at once,
each with the path of the offending field, so a fuzz-produced or
hand-written document never fails halfway into a run.

The D coordinate may be reactive: {"policy": "anti-delta"} enumerates x
into D at the first odd stage after some local value 0 was defined at x,
which is the standard way to force diagonalization pressure.  B and C
must be plain schedules so runs stay oblivious.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .model import ConflictError, EnumerationSchedule, FunctionalTable, Axiom, validate_consistency

CONSTRUCTIONS = ("sacks", "robinson")
TOP_KEYS = {
    "horizon",
    "construction",
    "b",
    "c",
    "d",
    "functionals",
    "p_policy",
    "q_default",
    "q_overrides",
    "seed",
}


class ScenarioError(ValueError):
    """A scenario document is invalid; problems lists every violation."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid scenario: " + "; ".join(self.problems))


@dataclass(frozen=True)
class Scenario:
    horizon: int
    construction: str
    b_schedule: EnumerationSchedule
    c_schedule: EnumerationSchedule
    d_schedule: EnumerationSchedule
    d_policy: str | None
    d_policy_limit: int
    functionals: dict[tuple[int, int], FunctionalTable]
    p_policy_kind: str
    p_policy_params: dict
    q_default: int
    q_overrides: dict[int, int]
    seed: int


_INDEX_RE = re.compile(r"0|[1-9][0-9]*")


def _is_int(value) -> bool:
    """A JSON integer: booleans and floats are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_index(key) -> int | None:
    """The index a canonical ASCII decimal key names; None for any other key."""
    return int(key) if isinstance(key, str) and _INDEX_RE.fullmatch(key) else None


def _unknown_keys(obj: dict, known, path: str, problems: list[str]) -> None:
    for key in sorted(set(obj) - set(known)):
        problems.append("%s: unknown key" % ("%s.%s" % (path, key) if path else key))


def load_scenario(doc: dict) -> Scenario:
    """Validate a scenario document and build the run inputs."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise ScenarioError(["document must be a JSON object"])
    _unknown_keys(doc, TOP_KEYS, "", problems)

    horizon = doc.get("horizon")
    if not _is_int(horizon) or horizon < 2:
        problems.append("horizon: must be an integer >= 2")
        horizon = 2

    construction = doc.get("construction")
    if construction not in CONSTRUCTIONS:
        problems.append("construction: must be one of %s" % (CONSTRUCTIONS,))
        construction = "sacks"
    binary = construction == "robinson"

    b_sched = _load_schedule(doc.get("b", []), "b", "B", horizon, problems, b_convention=True)
    c_sched = _load_schedule(doc.get("c", []), "c", "C", horizon, problems)

    d_raw = doc.get("d", [])
    d_policy = None
    d_limit = -1
    if isinstance(d_raw, dict):
        d_sched = EnumerationSchedule.build("D", [])
        policy = d_raw.get("policy")
        if policy != "anti-delta":
            problems.append("d.policy: unknown policy %r" % (policy,))
        else:
            d_policy = policy
        params = d_raw.get("params", {})
        if not isinstance(params, dict) or set(params) - {"limit"}:
            problems.append("d.params: only the key 'limit' is understood")
        else:
            limit = params.get("limit", -1)
            if not _is_int(limit) or limit < -1:
                problems.append("d.params.limit: must be an integer >= -1")
            else:
                d_limit = limit
        _unknown_keys(d_raw, ("policy", "params"), "d", problems)
    else:
        d_sched = _load_schedule(d_raw, "d", "D", horizon, problems)

    functionals = _load_functionals(doc.get("functionals", []), binary, horizon, problems)

    p_raw = doc.get("p_policy", {"type": "truthful_delay", "d": 1})
    p_kind, p_params = _load_p_policy(p_raw, horizon, problems)

    q_default = doc.get("q_default", 2 * horizon + 4)
    if not _is_int(q_default) or q_default < 1:
        problems.append("q_default: must be a positive integer")
        q_default = 1

    q_overrides: dict[int, int] = {}
    q_raw = doc.get("q_overrides", {})
    if not isinstance(q_raw, dict):
        problems.append("q_overrides: must be an object keyed by index")
    else:
        for key, value in sorted(q_raw.items()):
            j = _parse_index(key)
            if j is None or not _is_int(value) or value < 1:
                problems.append("q_overrides.%s: must map an index to a positive integer" % key)
            else:
                q_overrides[j] = value

    seed = doc.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        problems.append("seed: must be a natural")
        seed = 0

    if problems:
        raise ScenarioError(problems)
    return Scenario(
        horizon=horizon,
        construction=construction,
        b_schedule=b_sched,
        c_schedule=c_sched,
        d_schedule=d_sched,
        d_policy=d_policy,
        d_policy_limit=d_limit,
        functionals=functionals,
        p_policy_kind=p_kind,
        p_policy_params=p_params,
        q_default=q_default,
        q_overrides=q_overrides,
        seed=seed,
    )


def load_scenario_file(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:
        raise ScenarioError(["%s: %s" % (path, err)]) from err
    return load_scenario(doc)


def _load_schedule(raw, key, role, horizon, problems, b_convention=False):
    entries = []
    if not isinstance(raw, list):
        problems.append("%s: must be an array of [stage, element] pairs" % key)
        raw = []
    stages_seen: dict[int, int] = {}
    for idx, row in enumerate(raw):
        path = "%s[%d]" % (key, idx)
        if (
            not isinstance(row, (list, tuple))
            or len(row) != 2
            or not all(_is_int(v) for v in row)
        ):
            problems.append("%s: must be a [stage, element] pair of integers" % path)
            continue
        stage, element = row
        if stage < 0 or stage > horizon:
            problems.append("%s: stage %d outside 0..%d" % (path, stage, horizon))
            continue
        if element < 0 or element >= horizon:
            problems.append("%s: element %d outside 0..%d" % (path, element, horizon - 1))
            continue
        if b_convention:
            if stage % 2 == 0:
                problems.append("%s: B may only enumerate at odd stages" % path)
                continue
            if stages_seen.get(stage, 0) >= 1:
                problems.append("%s: B may enumerate at most one element per stage" % path)
                continue
            stages_seen[stage] = 1
        entries.append((stage, element))
    try:
        return EnumerationSchedule.build(role, entries)
    except ValueError as err:
        problems.append("%s: %s" % (key, err))
        return EnumerationSchedule.build(role, [])


def _load_functionals(raw, binary, horizon, problems):
    tables: dict[tuple[int, int], FunctionalTable] = {}
    if not isinstance(raw, list):
        problems.append("functionals: must be an array")
        return tables
    for idx, entry in enumerate(raw):
        path = "functionals[%d]" % idx
        if not isinstance(entry, dict):
            problems.append("%s: must be an object" % path)
            continue
        _unknown_keys(entry, ("side", "e", "axioms"), path, problems)
        side = entry.get("side")
        e = entry.get("e")
        if not _is_int(side) or side not in (0, 1):
            problems.append("%s.side: must be 0 or 1" % path)
            continue
        if not _is_int(e) or e < 0:
            problems.append("%s.e: must be a natural" % path)
            continue
        if (side, e) in tables:
            problems.append("%s: duplicate functional (side %d, e %d)" % (path, side, e))
            continue
        rows = []
        ok = True
        axioms_raw = entry.get("axioms", [])
        if not isinstance(axioms_raw, list):
            problems.append("%s.axioms: must be an array" % path)
            continue
        for a_idx, ax_raw in enumerate(axioms_raw):
            a_path = "%s.axioms[%d]" % (path, a_idx)
            if not isinstance(ax_raw, dict):
                problems.append("%s: must be an object" % a_path)
                ok = False
                continue
            _unknown_keys(ax_raw, ("theta", "sigma", "x", "k", "stage"), a_path, problems)
            stage = ax_raw.get("stage", 0)
            if not _is_int(stage) or not 0 <= stage <= horizon:
                problems.append("%s.stage: must lie in 0..%d" % (a_path, horizon))
                ok = False
                continue
            x, k = ax_raw.get("x", 0), ax_raw.get("k", 0)
            bad = [name for name, v in (("x", x), ("k", k)) if not _is_int(v)]
            for name in bad:
                problems.append("%s.%s: must be an integer" % (a_path, name))
            if bad:
                ok = False
                continue
            try:
                ax = Axiom(theta=ax_raw.get("theta", ""), x=x, k=k, sigma=ax_raw.get("sigma"))
                ax.validate(binary)
            except (TypeError, ValueError) as err:
                problems.append("%s: %s" % (a_path, err))
                ok = False
                continue
            rows.append((stage, ax))
        if not ok:
            continue
        table = FunctionalTable(side, e, rows, binary)
        try:
            validate_consistency(table)
        except ConflictError as err:
            problems.append("%s: %s" % (path, err))
            continue
        tables[(side, e)] = table
    return tables


def _load_p_policy(raw, horizon, problems):
    if not isinstance(raw, dict):
        problems.append("p_policy: must be an object")
        return "truthful_delay", {"d": 1}
    kind = raw.get("type")
    if kind == "truthful_delay":
        _unknown_keys(raw, ("type", "d"), "p_policy", problems)
        delay = raw.get("d", 1)
        if not _is_int(delay) or delay < 1:
            problems.append("p_policy.d: must be a positive integer")
            delay = 1
        return "truthful_delay", {"d": delay}
    if kind == "table":
        _unknown_keys(raw, ("type", "values"), "p_policy", problems)
        values = raw.get("values", {})
        out: dict[int, list[int]] = {}
        if not isinstance(values, dict):
            problems.append("p_policy.values: must be an object keyed by index")
        else:
            for key, row in sorted(values.items()):
                path = "p_policy.values.%s" % key
                j = _parse_index(key)
                if j is None:
                    problems.append("%s: keys must be indices in canonical decimal" % path)
                    continue
                if not isinstance(row, list) or not all(_is_int(v) and v in (0, 1) for v in row):
                    problems.append("%s: must be an array of bits" % path)
                    continue
                if row and row[0] != 0:
                    problems.append("%s: p must answer 0 at stage 0" % path)
                    continue
                out[j] = list(row)
        return "table", {"values": out}
    problems.append("p_policy.type: must be truthful_delay or table")
    return "truthful_delay", {"d": 1}
