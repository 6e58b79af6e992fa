import functools
import hashlib
import importlib.util
import json
import random
import sys
import time
from pathlib import Path

import pytest

from splitsim.cli import _describe
from splitsim.engine import Run
from splitsim.fuzz import generate
from splitsim.harness import build_strategy, run
from splitsim.model import block_label
from splitsim.robinson import RobinsonStrategy
from splitsim.sacks import SacksStrategy
from splitsim.scenario import load_scenario
from splitsim.trace import TraceEvent, parse, render
from splitsim.verify import passed, verify

GOLDEN_DIR = Path(__file__).parent / "golden"
BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


@functools.cache
def bench_module(name):
    """A module of the benchmark (bench/ is no package), loaded from its file once."""
    spec = importlib.util.spec_from_file_location("bench_" + name, BENCH_DIR / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def count_calls(monkeypatch, owner, name, before=None, after=None):
    """Record every call of owner.name while monkeypatch holds.

    Returns a list that gains one entry per call: the call's positional
    arguments, or what before(*args) reads just before the call (for a
    quantity the call changes), or what after(result, *args) reads just
    after it.  The tests count work through this one helper.
    """
    real = getattr(owner, name)
    entries = []

    def recorder(*args, **kwargs):
        if before is not None:
            entries.append(before(*args))
        result = real(*args, **kwargs)
        if before is None:
            entries.append(args if after is None else after(result, *args))
        return result

    monkeypatch.setattr(owner, name, recorder)
    return entries


class WakeEveryOwner(Run):
    """Reference dispatch without wake rules: every owner starts awake and
    none ever sleeps, so every owner is awake at every stage, for any
    input, whatever its reach."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.awake.update(scenario.functionals)

    def sleep(self, owner, reach):
        pass


def execute(scenario, run_cls=Run, build=build_strategy):
    """A run of scenario built by hand as harness.run builds it, with the
    run class and the construction builder (run -> construction) given:
    (run, construction, events)."""
    r = run_cls(scenario)
    construction = build(r)
    return r, construction, r.execute(construction)


def visits_against_reference(doc):
    """(events, visits, reference visits) of a run of doc, whose trace
    must equal, byte for byte, the one of a WakeEveryOwner run; a visit
    is one call of run_requirement, as (stage, owner label)."""
    sc = load_scenario(doc)
    strategy = SacksStrategy if sc.construction == "sacks" else RobinsonStrategy
    with pytest.MonkeyPatch.context() as mp:
        visits = count_calls(
            mp, strategy, "run_requirement",
            before=lambda _, side, e, i, s: (s, block_label(side, e)),
        )
        events = execute(sc)[2]
        mine = visits[:]
        visits.clear()
        expected = execute(sc, WakeEveryOwner)[2]
    assert render(events) == render(expected), doc
    return events, mine, visits


ACCEPTANCE_LINES = []


def record_line(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def dense_sacks_doc(horizon):
    """The dense-stress shape: horizon/4 table owners with four theta=""
    axioms each, a B arrival at every odd stage, and anti-delta with an
    unlimited budget.  Most owners diverge at input 0 and never act, so
    a dispatch that visits every owning block on every even stage does
    almost nothing but visit; one owner diagonalizes, so later arrivals
    are deflected and blocks reassigned."""
    rng = random.Random(horizon)
    odd = range(1, horizon + 1, 2)
    b = [[s, x] for s, x in zip(odd, rng.sample(range(horizon), len(odd)))]
    functionals = []
    for n in range(horizon // 4):
        axioms = [
            {"theta": "", "x": x, "k": 1, "stage": rng.randint(0, horizon)}
            for x in rng.sample(range(1, 9), 4)
        ]
        functionals.append({"side": n % 2, "e": n // 2, "axioms": axioms})
    functionals[-2]["axioms"][0] = {"theta": "", "x": 0, "k": 0, "stage": horizon // 3}
    return {
        "construction": "sacks",
        "horizon": horizon,
        "b": b,
        "d": {"policy": "anti-delta", "params": {"limit": -1}},
        "functionals": functionals,
    }


def quiet_tail_docs(horizon):
    """Runs whose every event falls in their first 12 stages, at any horizon."""
    axiom = {"theta": "", "x": 0, "k": 0, "stage": 0}
    sacks = {
        "construction": "sacks",
        "horizon": horizon,
        "b": [[3, 0]],
        "d": [],
        "functionals": [
            {"side": 0, "e": 0, "axioms": [axiom]},
            {"side": 1, "e": 0, "axioms": [axiom]},
        ],
    }
    robinson = {
        "construction": "robinson",
        "horizon": horizon,
        "b": [[5, 0]],
        "c": [[8, 1]],
        "d": [[9, 1]],
        "functionals": [
            {"side": 1, "e": 0, "axioms": [dict(axiom, sigma="")]},
            {"side": 0, "e": 1, "axioms": [dict(axiom, theta="00", sigma="00")]},
        ],
    }
    return [sacks, robinson]


@pytest.fixture
def record():
    return record_line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# Shared designated material for the negative controls: small runs that
# legitimately exercise the state each corruption needs to forge.

INJURY_DOC = {
    "construction": "robinson",
    "horizon": 10,
    "b": [[5, 0]],
    "c": [],
    "d": [],
    "functionals": [
        {"side": 1, "e": 0, "axioms": [{"theta": "", "sigma": "", "x": 0, "k": 0, "stage": 0}]},
        {"side": 0, "e": 1, "axioms": [{"theta": "", "sigma": "", "x": 0, "k": 0, "stage": 0}]},
    ],
    "p_policy": {"type": "truthful_delay", "d": 1},
}

CERTIFY_DOC = {
    "construction": "robinson",
    "horizon": 8,
    "b": [],
    "c": [[4, 0]],
    "d": [],
    "functionals": [
        {"side": 0, "e": 0, "axioms": [{"theta": "0", "sigma": "0", "x": 0, "k": 0, "stage": 0}]}
    ],
    "p_policy": {"type": "truthful_delay", "d": 1},
}

# Heavy C churn with a tiny change budget: the only honest way to stay
# inside the budget is to enumerate nothing, which is what happens.
CHURN_DOC = {
    "construction": "robinson",
    "horizon": 12,
    "b": [],
    "c": [[1, 0], [2, 1], [3, 2], [4, 3], [5, 4]],
    "d": [],
    "functionals": [],
    "p_policy": {"type": "truthful_delay", "d": 1},
    "q_default": 2,
}

_GOLDEN_FILES = {
    "deflection": "deflection-update-scenario.json",
    "forced": "forced-diagonalization-scenario.json",
}

_INLINE_DOCS = {"injury": INJURY_DOC, "certify": CERTIFY_DOC, "churn": CHURN_DOC}


def _material(name):
    if name in _GOLDEN_FILES:
        doc = json.loads((GOLDEN_DIR / _GOLDEN_FILES[name]).read_text())
    else:
        doc = _INLINE_DOCS[name]
    sc = load_scenario(doc)
    events, final = run(sc)
    return sc, events, final


@pytest.fixture(scope="session")
def control_materials():
    return {name: _material(name) for name in ("deflection", "forced", "injury", "certify", "churn")}


# The negative controls: each check's corruption is forged on this material.
CONTROLS = {
    "V1": "deflection",
    "V2": "forced",
    "V3": "deflection",
    "V4": "deflection",
    "V5": "forced",
    "V6": "injury",
    "V7": "injury",
    "V8": "churn",
    "V9": "certify",
    "V10": "churn",
    "V11": "deflection",
}


def malformed_refusals():
    """A robinson run, and its trace with j or entry of the first refusal garbled."""
    doc = generate(2026, 6, "robinson", 256)
    events, _ = run(load_scenario(doc))
    at = next(i for i, ev in enumerate(events) if ev.kind == "refuse-certify")
    forged = {}
    for key in ("j", "entry"):
        payload = dict(events[at].payload, **{key: "x"})
        line = TraceEvent(events[at].stage, events[at].kind, payload)
        forged[key] = events[:at] + [line] + events[at + 1:]
    return doc, forged


# The acceptance corpus: deterministic (seed 2026, 500 scenarios per
# construction, horizons up to 1024), generated, run and verified once
# per session in one timed pass.

CORPUS_SEED = 2026
CORPUS_PER_CONSTRUCTION = 500
CORPUS_MAX_HORIZON = 1024
CORPUS_BUDGET_SECONDS = 60.0


def _partition_ok(scenario, final) -> bool:
    b_map = {x: s for s, x in scenario.b_schedule.entries}
    a0 = {x: s for s, x in final["a0"]}
    a1 = {x: s for s, x in final["a1"]}
    if set(a0) & set(a1):
        return False
    merged = dict(a0)
    merged.update(a1)
    return merged == b_map


def corpus_doc(corpus, construction, index):
    """The document of the corpus fixture at (construction, index)."""
    at = ("sacks", "robinson").index(construction) * CORPUS_PER_CONSTRUCTION + index
    row = corpus["rows"][at]
    assert (row["construction"], row["index"]) == (construction, index)
    return row["doc"]


@pytest.fixture(scope="session")
def corpus():
    """Per-run summaries of the corpus, each with its document, the pass's
    wall time, and sha256 digests over every rendered trace, every report
    as sorted-key JSON and every explain line, in corpus order."""
    t0 = time.perf_counter()
    rows = []
    trace_hash = hashlib.sha256()
    report_hash = hashlib.sha256()
    explain_hash = hashlib.sha256()
    for construction in ("sacks", "robinson"):
        for index in range(CORPUS_PER_CONSTRUCTION):
            doc = generate(CORPUS_SEED, index, construction, CORPUS_MAX_HORIZON)
            scenario = load_scenario(doc)
            events, final = run(scenario)
            report = verify(scenario, events, final)
            text = render(events)
            # The grammar is checked only where text enters, so every
            # engine-written event must survive the trip through text.
            assert parse(text) == events, (construction, index)
            trace_hash.update(text.encode())
            report_hash.update(json.dumps(report, sort_keys=True).encode())
            for ev in events:
                explain_hash.update((_describe(ev) + "\n").encode())
            explain_hash.update(b"%d of %d event(s) shown\n" % (len(events), len(events)))
            kinds = {}
            for ev in events:
                kinds[ev.kind] = kinds.get(ev.kind, 0) + 1
            rows.append(
                {
                    "construction": construction,
                    "index": index,
                    "doc": doc,
                    "horizon": scenario.horizon,
                    "statuses": {
                        name: entry["status"]
                        for name, entry in report["checks"].items()
                    },
                    "settled": report["flags"]["status"] == "settled",
                    "ok": passed(report),
                    "partition_ok": _partition_ok(scenario, final),
                    "injuries": kinds.get("injury", 0),
                    "certs": kinds.get("certify", 0),
                    "refusals": kinds.get("refuse-certify", 0),
                    "diags": kinds.get("diagonalize", 0),
                    "definitions": sum(
                        1
                        for ev in events
                        if ev.kind == "define-local" and "theta" in ev.payload
                    ),
                    "w_sets": report["diagnostics"]["guessing_sets"],
                }
            )
    elapsed = time.perf_counter() - t0
    return {
        "rows": rows,
        "elapsed": elapsed,
        "trace_sha256": trace_hash.hexdigest(),
        "report_sha256": report_hash.hexdigest(),
        "explain_sha256": explain_hash.hexdigest(),
    }
