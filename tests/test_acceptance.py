"""Acceptance suite: one test and one printed verdict line per criterion.

The fuzz corpus is deterministic (seed 2026, 500 scenarios per
construction, horizons up to 1024) and is built once per session; every
criterion over it consumes per-run summaries.  Each test records a
[PASS]/[FAIL] line that the terminal summary prints even on plain
pytest invocations.
"""

import hashlib
import json
import random
import time

import pytest

from splitsim.corrupt import corrupt
from splitsim.fuzz import generate
from splitsim.harness import run
from splitsim.model import Cones, applicable_axiom
from splitsim.omegace import ApproxTable, limit_eval, restrict
from splitsim.scenario import load_scenario
from splitsim.trace import parse, render
from splitsim.verify import CHECKS, passed, verify

from conftest import GOLDEN_DIR

CORPUS_SEED = 2026
CORPUS_PER_CONSTRUCTION = 500
CORPUS_MAX_HORIZON = 1024
CORPUS_BUDGET_SECONDS = 60.0

# sha256 over the corpus in order: every rendered trace, and every report
# as sorted-key JSON.  Any change to what a run emits or to what the
# verifier concludes moves one of them.
CORPUS_TRACE_SHA256 = "b03738ea97bf52e59cafb0f59aa0200c4518130abec05773a449637e372a5440"
CORPUS_REPORT_SHA256 = "27b5cdfd4df02d9e4f3ddaaca61614776cdc77bf5a43cffefd0a8773fa437afd"


def _partition_ok(scenario, final) -> bool:
    b_map = {x: s for s, x in scenario.b_schedule.entries}
    a0 = {x: s for s, x in final["a0"]}
    a1 = {x: s for s, x in final["a1"]}
    if set(a0) & set(a1):
        return False
    merged = dict(a0)
    merged.update(a1)
    return merged == b_map


@pytest.fixture(scope="session")
def corpus():
    t0 = time.perf_counter()
    rows = []
    trace_hash = hashlib.sha256()
    report_hash = hashlib.sha256()
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
            kinds = {}
            for ev in events:
                kinds[ev.kind] = kinds.get(ev.kind, 0) + 1
            rows.append(
                {
                    "construction": construction,
                    "index": index,
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
    }


def _bad(rows, check):
    return [
        "%s[%d]" % (r["construction"], r["index"])
        for r in rows
        if r["statuses"][check] == "fail"
    ]


def test_v1_partition(corpus, record):
    rows = corpus["rows"]
    bad_check = _bad(rows, "V1")
    bad_direct = [
        "%s[%d]" % (r["construction"], r["index"]) for r in rows if not r["partition_ok"]
    ]
    in_budget = corpus["elapsed"] < CORPUS_BUDGET_SECONDS
    ok = not bad_check and not bad_direct and in_budget
    record(
        "[%s] V1 partition: %d/%d fuzzed runs split the arrivals exactly, %.1f s (budget %.0f s)"
        % (
            "PASS" if ok else "FAIL",
            len(rows) - len(set(bad_check) | set(bad_direct)),
            len(rows),
            corpus["elapsed"],
            CORPUS_BUDGET_SECONDS,
        )
    )
    assert not bad_check, bad_check[:5]
    assert not bad_direct, bad_direct[:5]
    assert in_budget, corpus["elapsed"]


def _corpus_check(corpus, record, check, title):
    rows = corpus["rows"]
    bad = _bad(rows, check)
    record(
        "[%s] %s %s: clean on %d/%d fuzzed runs"
        % ("PASS" if not bad else "FAIL", check, title, len(rows) - len(bad), len(rows))
    )
    assert not bad, bad[:5]


def test_v2_monotone_enumerations(corpus, record):
    _corpus_check(corpus, record, "V2", "monotone-enumerations")


def test_v3_assignment_monotone(corpus, record):
    _corpus_check(corpus, record, "V3", "assignment-monotone")


def test_v4_restraint_integrity(corpus, record):
    _corpus_check(corpus, record, "V4", "restraint-integrity")


def test_v5_diagonalization_persistence(record):
    doc = json.loads((GOLDEN_DIR / "forced-diagonalization-scenario.json").read_text())
    scenario = load_scenario(doc)
    events, final = run(scenario)
    trace_ok = (
        render(events)
        == (GOLDEN_DIR / "forced-diagonalization-expected.trace").read_text()
    )
    diags = [ev for ev in events if ev.kind == "diagonalize"]
    table = scenario.functionals[(0, 0)]
    horizon = scenario.horizon
    a0_final = Cones({x: t for t, x in final["a0"]})
    d_final = {x for _, x in final["d"]}
    flips_hold = []
    for ev in diags:
        x = int(ev.payload["x"])
        ax = applicable_axiom(table, horizon, a0_final, None, x)
        flips_hold.append(
            ax is not None and ax.k != (1 if x in d_final else 0)
        )
    report = verify(scenario, events, final)
    check_ok = report["checks"]["V5"]["status"] == "pass"
    ok = trace_ok and len(diags) >= 1 and all(flips_hold) and flips_hold and check_ok
    record(
        "[%s] V5 diagonalization-persistence: forced run diagonalizes %d input(s); "
        "the watched functional still outputs the abandoned bit at the horizon; trace %s"
        % ("PASS" if ok else "FAIL", len(diags), "bit-exact" if trace_ok else "DIVERGES")
    )
    assert trace_ok
    assert len(diags) >= 1
    assert flips_hold and all(flips_hold)
    assert check_ok


def test_v6_injury_discipline(corpus, record):
    rows = [r for r in corpus["rows"] if r["construction"] == "robinson"]
    settled = [r for r in rows if r["settled"]]
    bad = _bad(settled, "V6")
    witnesses = sum(r["injuries"] for r in settled)
    runs_with_injuries = sum(1 for r in settled if r["injuries"])
    ok = not bad and runs_with_injuries > 0
    record(
        "[%s] V6 injury-discipline: %d injuries across %d settled runs, every one "
        "attributed to a same-stage initialization"
        % ("PASS" if ok else "FAIL", witnesses, len(settled))
    )
    assert not bad, bad[:5]
    assert runs_with_injuries > 0, "corpus exercised no injuries"


def test_v7_certification_soundness(corpus, record):
    rows = [r for r in corpus["rows"] if r["construction"] == "robinson"]
    bad = _bad(rows, "V7")
    with_scans = sum(1 for r in rows if r["certs"] or r["refusals"])
    ok = not bad and with_scans > 0
    record(
        "[%s] V7 certification-soundness: %d runs with certification scans, "
        "every window and resolution recomputed clean"
        % ("PASS" if ok else "FAIL", with_scans)
    )
    assert not bad, bad[:5]
    assert with_scans > 0


def test_v8_p_contract(corpus, record):
    rows = [r for r in corpus["rows"] if r["construction"] == "robinson"]
    bad = _bad(rows, "V8")
    with_sets = sum(1 for r in rows if r["w_sets"])
    ok = not bad and with_sets > 0
    record(
        "[%s] V8 p-contract: %d runs with guessing sets, p rows start at 0 and "
        "stay inside their change budgets"
        % ("PASS" if ok else "FAIL", with_sets)
    )
    assert not bad, bad[:5]
    assert with_sets > 0


def test_v9_local_global_coherence(corpus, record):
    rows = [r for r in corpus["rows"] if r["construction"] == "robinson"]
    bad = _bad(rows, "V9")
    exercised = sum(
        1
        for r in rows
        if r["settled"] and r["definitions"] and r["statuses"]["V9"] == "pass"
    )
    ok = not bad and exercised > 0
    record(
        "[%s] V9 local-global-coherence: %d settled runs with oracle-relative "
        "definitions, local values match the watched functionals"
        % ("PASS" if ok else "FAIL", exercised)
    )
    assert not bad, bad[:5]
    assert exercised > 0


def test_v10_change_coding_equivalence(record):
    rng = random.Random(20261014)
    tables = 0
    calls = 0
    mismatches = []
    for case in range(1000):
        roll = rng.random()
        if roll < 0.60:
            horizon = rng.randint(4, 32)
        elif roll < 0.90:
            horizon = rng.randint(33, 96)
        else:
            horizon = rng.randint(97, 256)
        rows = {}
        bounds = {}
        for x in rng.sample(range(10), rng.randint(0, 8)):
            bound = rng.randint(1, 8)
            flips = rng.randint(0, bound - 1)
            stamps = sorted(rng.sample(range(horizon), min(flips, horizon)))
            row = [0] * (horizon + 1)
            bit = 0
            j = 0
            for s in range(1, horizon + 1):
                while j < len(stamps) and stamps[j] < s:
                    bit ^= 1
                    j += 1
                row[s] = bit
            rows[x] = tuple(row)
            bounds[x] = bound
        tab = ApproxTable(horizon, rows, bounds, default_bound=rng.randint(1, 8))
        tables += 1
        for n in range(horizon + 1):
            want = {x for x in range(n) if limit_eval(tab, x) == 1}
            if restrict(tab, n) != want:
                mismatches.append((case, n))
            calls += 1
    ok = not mismatches
    record(
        "[%s] V10 change-coding-equivalence: %d random tables, %d restrictions "
        "decoded back to their limit sets"
        % ("PASS" if ok else "FAIL", tables, calls)
    )
    assert not mismatches, mismatches[:5]


def test_v11_assignment_update_rule(record):
    doc = json.loads((GOLDEN_DIR / "deflection-update-scenario.json").read_text())
    scenario = load_scenario(doc)
    events, final = run(scenario)
    trace_ok = (
        render(events) == (GOLDEN_DIR / "deflection-update-expected.trace").read_text()
    )
    stage5 = [
        ev for ev in events if ev.kind == "assignment-update" and ev.stage == 5
    ]
    update_ok = len(stage5) == 1 and stage5[0].payload == {
        "i": "1",
        "side": "P",
        "tail": "3",
    }
    # After the stage-5 update onto block 1 with tail 3: indices up to the
    # stage sit on the block and the values beyond it climb by one each.
    lambda_ok = final["assignment_p"] == [0, 1, 1, 1, 1, 1, 2, 3, 4]
    report = verify(scenario, events, final)
    check_ok = report["checks"]["V11"]["status"] == "pass"
    ok = trace_ok and update_ok and lambda_ok and check_ok
    record(
        "[%s] V11 assignment-update-rule: stage-5 update pulls indices to block 1 "
        "with tail 3 and unit slope beyond the stage; trace %s"
        % ("PASS" if ok else "FAIL", "bit-exact" if trace_ok else "DIVERGES")
    )
    assert trace_ok
    assert update_ok, stage5
    assert lambda_ok, final["assignment_p"]
    assert check_ok


def test_behaviour_digests(corpus, record):
    trace_ok = corpus["trace_sha256"] == CORPUS_TRACE_SHA256
    report_ok = corpus["report_sha256"] == CORPUS_REPORT_SHA256
    record(
        "[%s] behaviour digests: corpus traces %s, verifier reports %s"
        % (
            "PASS" if trace_ok and report_ok else "FAIL",
            "match" if trace_ok else "DIVERGE",
            "match" if report_ok else "DIVERGE",
        )
    )
    assert corpus["trace_sha256"] == CORPUS_TRACE_SHA256
    assert corpus["report_sha256"] == CORPUS_REPORT_SHA256


def test_determinism_replay(corpus, record):
    picks = []
    rows = corpus["rows"]
    picks.append(max(rows, key=lambda r: r["horizon"]))
    picks.append(max(rows, key=lambda r: r["injuries"]))
    picks.append(max(rows, key=lambda r: r["diags"]))
    picks.extend(rows[:2])
    picks.extend(rows[-2:])
    mismatches = []
    for row in picks:
        doc = generate(
            CORPUS_SEED, row["index"], row["construction"], CORPUS_MAX_HORIZON
        )
        round_tripped = json.loads(json.dumps(doc, sort_keys=True))
        first_events, first_final = run(load_scenario(doc))
        second_events, second_final = run(load_scenario(round_tripped))
        if render(first_events) != render(second_events) or first_final != second_final:
            mismatches.append("%s[%d]" % (row["construction"], row["index"]))
    ok = not mismatches
    record(
        "[%s] determinism: %d corpus documents replayed bit-identically through a "
        "JSON round trip" % ("PASS" if ok else "FAIL", len(picks))
    )
    assert not mismatches, mismatches


def test_negative_controls(control_materials, record):
    designated = {
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
    missed = []
    for check, _ in CHECKS:
        scenario, events, _final = control_materials[designated[check]]
        forged = corrupt(check, scenario, events)
        report = verify(scenario, forged)
        if report["checks"][check]["status"] != "fail":
            missed.append(check)
    ok = not missed
    record(
        "[%s] negative-controls: %d/11 corrupted traces caught by their targeted check"
        % ("PASS" if ok else "FAIL", 11 - len(missed))
    )
    assert not missed, missed
