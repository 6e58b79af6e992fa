import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from splitsim import model, omegace
from splitsim import verify as verify_mod
from splitsim.corrupt import CorruptionError, corrupt
from splitsim.fuzz import generate
from splitsim.harness import run
from splitsim.model import PriorityAssignment
from splitsim.scenario import load_scenario
from splitsim.trace import KINDS, TraceEvent, TraceParseError, parse, render
from splitsim.verify import CHECKS, passed, verify

from conftest import (
    CERTIFY_DOC,
    CONTROLS,
    GOLDEN_DIR,
    bench_module,
    corpus_doc,
    count_calls,
    malformed_refusals,
    material_doc,
    quiet_tail_docs,
)
from limit_reference import limit_eval
from p_reference import p_row, windows


def test_check_catalogue():
    assert [name for name, _ in CHECKS] == ["V%d" % i for i in range(1, 12)]
    assert len({title for _, title in CHECKS}) == 11


def test_engine_flags_agree_with_the_verdict(corpus):
    """The engine's unsettled flag and pending-scan count equal the
    verifier's re-derived status and count, run by run, over the corpus
    and the churn recipe.  Both branches of the verdict occur: runs
    unsettled by a pending scan and runs unsettled only because p
    disagrees with a set's cone truth at the horizon."""
    runs = [(row["final_flags"], row["settled"], row["pending_scans"]) for row in corpus["rows"]]
    churn = bench_module("workloads").oracle_churn_doc
    for seed in range(8):
        for h in range(36, 44):
            sc = load_scenario(churn(seed, h))
            events, final = run(sc)
            report = verify(sc, events, final)
            runs.append(
                (
                    (final["unsettled"], final["pending_scans"]),
                    report["flags"]["status"] == "settled",
                    report["diagnostics"]["pending_scans"],
                )
            )
    for (unsettled, pending), settled, replayed in runs:
        assert unsettled == (not settled)
        assert pending == replayed
    unsettled_by = {pending > 0 for (unsettled, pending), _, _ in runs if unsettled}
    assert unsettled_by == {True, False}


def test_honest_materials_pass(control_materials):
    for name, (sc, events, final) in control_materials.items():
        report = verify(sc, events, final)
        assert passed(report), (name, report["checks"])
        failing = [k for k, v in report["checks"].items() if v["status"] == "fail"]
        assert failing == [], name


def test_sacks_report_shape(control_materials):
    sc, events, final = control_materials["deflection"]
    report = verify(sc, events, final)
    checks = report["checks"]
    assert checks["V1"]["status"] == "pass"
    assert checks["V6"]["status"] == "skipped"
    assert checks["V7"]["status"] == "skipped"
    assert checks["V8"]["status"] == "skipped"
    assert checks["V10"]["status"] == "skipped"
    assert checks["V9"]["status"] == "skipped"
    assert report["flags"]["status"] == "settled"
    assert report["diagnostics"]["events"] == len(events)
    assert report["diagnostics"]["reported_flags"]["pending_scans"] == final["pending_scans"]


def test_robinson_report_shape(control_materials):
    sc, events, final = control_materials["injury"]
    report = verify(sc, events, final)
    checks = report["checks"]
    assert checks["V6"]["status"] == "pass"
    assert checks["V7"]["status"] == "pass"
    assert checks["V5"]["status"] == "skipped"  # no diagonalization happened
    assert report["flags"]["status"] == "settled"
    assert report["diagnostics"]["guessing_sets"] == 3
    assert report["diagnostics"]["injuries_per_block"] != {}


def test_unsettled_run_skips_coherence():
    doc = dict(CERTIFY_DOC, c=[], p_policy={"type": "truthful_delay", "d": 10})
    sc = load_scenario(doc)
    events, final = run(sc)
    report = verify(sc, events, final)
    assert report["flags"]["status"] == "unsettled"
    assert report["checks"]["V9"]["status"] == "skipped"
    assert report["checks"]["V9"]["reason"] == "run is unsettled"
    assert passed(report)


@pytest.mark.parametrize("check", [name for name, _ in CHECKS])
def test_negative_controls(check, control_materials):
    sc, events, _ = control_materials[CONTROLS[check]]
    forged = corrupt(check, sc, events)
    report = verify(sc, forged)
    assert report["checks"][check]["status"] == "fail", report["checks"][check]
    assert report["checks"][check]["failures"] >= 1
    assert report["checks"][check]["witnesses"]
    assert not passed(report)


def test_out_of_order_trace_fails_v2(control_materials):
    sc, events, _ = control_materials["deflection"]
    forged = list(events) + [events[0]]
    report = verify(sc, forged)
    assert report["checks"]["V2"]["status"] == "fail"


def test_corruptions_refuse_without_material(control_materials):
    with pytest.raises(CorruptionError):
        corrupt("V8", *control_materials["deflection"][:2])  # sacks has no p contract
    with pytest.raises(CorruptionError):
        corrupt("V8", *control_materials["certify"][:2])  # budget 20 beats 2 flips
    with pytest.raises(CorruptionError):
        corrupt("V5", *control_materials["certify"][:2])  # no diagonalization
    with pytest.raises(CorruptionError):
        corrupt("V99", *control_materials["deflection"][:2])


# Scan lines of every result: a memo refusal after a plain one (the cone
# exit beats a delay of 5), and pending scans (p too late for the horizon).
_REFUSAL_DOC = dict(CERTIFY_DOC, c=[[6, 0]], p_policy={"type": "truthful_delay", "d": 5})
_PENDING_DOC = dict(CERTIFY_DOC, c=[], p_policy={"type": "truthful_delay", "d": 10})


def _scan_forgeries(events):
    """(forged line, events) for each entry +-1, resolved +-1 and j moved to
    another issued index, on every certify and refuse-certify line."""
    issued = sorted({ev.payload["j"] for ev in events if ev.payload.get("set") == "W"})
    for at, ev in enumerate(events):
        if ev.kind not in ("certify", "refuse-certify"):
            continue
        pay = ev.payload
        changes = [("entry", str(int(pay["entry"]) + d)) for d in (1, -1)]
        if "resolved" in pay:
            changes += [("resolved", str(int(pay["resolved"]) + d)) for d in (1, -1)]
        changes += [("j", j) for j in issued if j != pay["j"]]
        for key, value in changes:
            line = TraceEvent(ev.stage, ev.kind, dict(pay, **{key: value}))
            yield line, events[:at] + [line] + events[at + 1:]


def test_forged_scan_fields_fail_v7(control_materials):
    materials = [m[:2] for m in control_materials.values() if m[0].construction == "robinson"]
    for doc in (_REFUSAL_DOC, _PENDING_DOC):
        sc = load_scenario(doc)
        materials.append((sc, run(sc)[0]))
    forged = {}
    for sc, events in materials:
        for line, mutated in _scan_forgeries(events):
            v7 = verify(sc, mutated)["checks"]["V7"]
            assert v7["status"] == "fail", line.to_line()
            assert line.to_line() in [w["line"] for w in v7["witnesses"]]
            key = line.payload.get("result", "certify") + " memo" * ("memo" in line.payload)
            forged[key] = forged.get(key, 0) + 1
    assert set(forged) == {"certify", "refused", "refused memo", "pending"}, forged


def test_forged_scan_witnesses(control_materials):
    sc, events, _ = control_materials["certify"]
    at, line = next((i, ev) for i, ev in enumerate(events) if ev.kind == "certify")
    forged, _ = _forge(events, "certify", line.stage, resolved="4")
    v7 = verify(sc, forged)["checks"]["V7"]
    assert v7["witnesses"][0]["note"] == "scan gives certify at 3, line claims certify at 4"
    # A refusal line may not claim the certification the scan gives.
    refusal = TraceEvent(line.stage, "refuse-certify", dict(line.payload, result="certify"))
    v7 = verify(sc, events[:at] + [refusal] + events[at + 1:])["checks"]["V7"]
    assert v7["witnesses"][0]["note"] == "unknown refusal result 'certify'"


def test_w_enumeration_in_a_sacks_trace_fails_v2(control_materials):
    sc, events, _ = control_materials["deflection"]
    forged = events + [TraceEvent(sc.horizon, "enumerate", {"j": "0", "set": "W", "sigma": ""})]
    report = verify(sc, forged)
    assert report["checks"]["V2"]["status"] == "fail"
    assert report["checks"]["V8"]["status"] == "pass"


def test_honest_fuzz_sweep_passes():
    for construction in ("sacks", "robinson"):
        for index in range(12):
            doc = generate(404, index, construction)
            sc = load_scenario(doc)
            events, final = run(sc)
            report = verify(sc, events, final)
            assert passed(report), (construction, index, report["checks"])


def test_malformed_refusal_fails_v7():
    doc, forged = malformed_refusals()
    sc = load_scenario(doc)
    for key, events in forged.items():
        report = verify(sc, events)
        v7 = report["checks"]["V7"]
        assert v7["status"] == "fail", key
        assert v7["witnesses"][0]["note"] == "malformed refusal record", key


def _forge(events, kind, stage, **changes):
    """events with the first kind line of the stage given new payload values."""
    at = next(i for i, ev in enumerate(events) if ev.kind == kind and ev.stage == stage)
    line = TraceEvent(stage, kind, dict(events[at].payload, **changes))
    return events[:at] + [line] + events[at + 1:], line


@pytest.mark.parametrize(
    "material, kind, stage, block",
    [("deflection", "initialize", 2, "Z:0"), ("forced", "restraint-set", 0, "garbage")],
)
def test_forged_block_label_fails_v2(control_materials, material, kind, stage, block):
    sc, events, _ = control_materials[material]
    forged, line = _forge(events, kind, stage, block=block)
    v2 = verify(sc, forged)["checks"]["V2"]
    assert v2["status"] == "fail"
    assert line.to_line() in [w.get("line") for w in v2["witnesses"]]


def test_restraint_value_is_its_stage(control_materials):
    sc, events, _ = control_materials["forced"]
    forged, line = _forge(events, "restraint-set", 0, value="3")
    v4 = verify(sc, forged)["checks"]["V4"]
    assert v4["status"] == "fail"
    assert {"note": "restraint value 3, expected the stage 0", "line": line.to_line()} in [
        {k: w.get(k) for k in ("note", "line")} for w in v4["witnesses"]
    ]


def test_restraint_needs_a_same_stage_act(control_materials):
    sc, events, _ = control_materials["forced"]
    forged, line = _forge(events, "act", 0, block="P:1")
    v4 = verify(sc, forged)["checks"]["V4"]
    assert v4["status"] == "fail"
    assert [w["note"] for w in v4["witnesses"]] == [
        "restraint set with no act of P:0 this stage",
        "act leaves the restraint of P:1 at -1, not the stage",
    ]


@pytest.mark.parametrize(
    "material, nth, held", [("forced", 0, -1), ("certify", 0, -1), ("generated", 1, 14)]
)
def test_restraining_act_needs_its_restraint(control_materials, material, nth, held):
    """An act that restrains (expansionary or certified) leaves its
    block's restraint at its stage, so without the stage's restraint-set
    line its act fails V4, with the restraint its block holds instead,
    and nothing else fails.  In fuzz.generate(11, 56, "sacks", 64) Q:0
    restrains at stages 14 and 30, so without the second line it still
    holds 14."""
    if material == "generated":
        sc = load_scenario(generate(11, 56, "sacks", 64))
        events, _ = run(sc)
    else:
        sc, events, _ = control_materials[material]
    at = [i for i, ev in enumerate(events) if ev.kind == "restraint-set"][nth]
    s, block = events[at].stage, events[at].payload["block"]
    act = next(ev for ev in events if ev.kind == "act" and ev.stage == s)
    assert act.payload["via"] != "diagonalize"
    checks = verify(sc, events[:at] + events[at + 1:])["checks"]
    assert [name for name, c in checks.items() if c["status"] == "fail"] == ["V4"]
    assert checks["V4"]["witnesses"] == [{
        "stage": s,
        "note": "act leaves the restraint of %s at %d, not the stage" % (block, held),
        "line": act.to_line(),
    }]


def _rescan(events, stage, **changes):
    """events with the stage's scan line given new payload values; None drops a field."""
    at = next(i for i, ev in enumerate(events) if ev.stage == stage and "entry" in ev.payload)
    payload = {k: v for k, v in dict(events[at].payload, **changes).items() if v is not None}
    line = TraceEvent(stage, events[at].kind, payload)
    return events[:at] + [line] + events[at + 1:], line


@pytest.mark.parametrize(
    "stage, changes, note",
    [
        (4, {"memo": None}, "memo flag absent, expected 1"),
        (2, {"memo": "1"}, "memo flag 1, expected absent"),
        (4, {"j": "1"}, "scan names W_1, its input holds W_0"),
    ],
)
def test_scan_index_and_memo_are_replayed(stage, changes, note):
    """The refusal run refuses sigma "0" of P:0 input 0 at stage 2 and
    again, memo=1, at stage 4, both over W_0."""
    sc = load_scenario(_REFUSAL_DOC)
    events, _ = run(sc)
    forged, line = _rescan(events, stage, **changes)
    v7 = verify(sc, forged)["checks"]["V7"]
    assert v7["status"] == "fail"
    assert v7["witnesses"][0] == {"stage": stage, "note": note, "line": line.to_line()}


def test_scan_needs_c_inside_a_cone_of_its_set():
    """The engine enumerates sigma into W_j unless C already lies in a
    cone of W_j's strings, so C lies in one at every scan of W_j.  The
    refusal run's W_0 string "0" flipped to "1" leaves every other rule
    passing: both scans over W_0 fail V7, and so does the changed W line,
    which enumerates a sigma no scan of its stage names."""
    sc = load_scenario(_REFUSAL_DOC)
    events, _ = run(sc)
    at = next(i for i, ev in enumerate(events) if ev.kind == "enumerate")
    assert events[at].payload == {"j": "0", "set": "W", "sigma": "0"}
    line = TraceEvent(events[at].stage, "enumerate", dict(events[at].payload, sigma="1"))
    checks = verify(sc, events[:at] + [line] + events[at + 1:])["checks"]
    assert [name for name, c in checks.items() if c["status"] == "fail"] == ["V7"]
    assert checks["V7"]["witnesses"] == [
        {"stage": ev.stage, "note": "C lies in no cone of W_0 at entry", "line": ev.to_line()}
        for ev in events
        if ev.kind == "refuse-certify"
    ] + [{
        "stage": line.stage,
        "note": "W_0 enumeration of sigma=1 matches no scan line of its stage",
        "line": line.to_line(),
    }]


def test_injuries_match_the_dropped_indices(control_materials):
    """V6 matches each injury line one for one against the inputs whose
    guessing index a same-stage initialization cancelled."""
    sc, events, _ = control_materials["injury"]
    at, line = next((i, ev) for i, ev in enumerate(events) if ev.kind == "injury")
    req, x = line.payload["req"], line.payload["x"]
    dropped = "%s input %s lost its guessing index with no injury" % (req, x)
    moved = TraceEvent(line.stage, "injury", dict(line.payload, x=str(int(x) + 1)))
    for forged, notes in [
        (events[:at] + events[at + 1:], [dropped]),
        (events[:at] + [moved] + events[at + 1:],
         ["injury to an input that lost no guessing index this stage", dropped]),
        (events[:at] + [line, line] + events[at + 1:],
         ["injury to an input that lost no guessing index this stage"]),
    ]:
        v6 = verify(sc, forged)["checks"]["V6"]
        assert v6["status"] == "fail"
        assert [w["note"] for w in v6["witnesses"]] == notes


def test_act_naming_no_requirement_fails_v2():
    sc = load_scenario(json.loads((GOLDEN_DIR / "deflection-update-scenario.json").read_text()))
    events = parse((GOLDEN_DIR / "deflection-update-expected.trace").read_text())
    forged, line = _forge(events, "act", 2, req="garbage")
    v2 = verify(sc, forged)["checks"]["V2"]
    assert v2["status"] == "fail"
    assert {"note": "act names no requirement", "line": line.to_line()} in [
        {k: w.get(k) for k in ("note", "line")} for w in v2["witnesses"]
    ]


def test_negative_tail_fails_v11_and_is_clamped(control_materials, monkeypatch):
    sc, events, _ = control_materials["deflection"]
    forged, line = _forge(events, "assignment-update", 2, tail="-1000000")
    lengths = count_calls(
        monkeypatch, PriorityAssignment, "update", after=lambda _, assign, *args: len(assign.prefix)
    )
    v11 = verify(sc, forged)["checks"]["V11"]
    assert v11["status"] == "fail"
    assert any(
        "negative" in w["note"] and w.get("line") == line.to_line() for w in v11["witnesses"]
    )
    assert lengths and max(lengths) <= sc.horizon + 1


@pytest.mark.parametrize("golden", ["deflection-update", "forced-diagonalization"])
def test_non_canonical_payload_integer_fails_v2(golden):
    sc = load_scenario(json.loads((GOLDEN_DIR / ("%s-scenario.json" % golden)).read_text()))
    text = (GOLDEN_DIR / ("%s-expected.trace" % golden)).read_text()
    assert passed(verify(sc, parse(text)))
    forged = parse(text.replace("\tx=0\n", "\tx=+0\n", 1))
    line = next(ev.to_line() for ev in forged if ev.payload.get("x") == "+0")
    v2 = verify(sc, forged)["checks"]["V2"]
    assert v2["status"] == "fail"
    assert line in [w.get("line") for w in v2["witnesses"]]


def test_non_canonical_record_integer_fails_v7(control_materials):
    sc, events, _ = control_materials["certify"]
    forged, _ = _forge(events, "certify", 2, entry="02")
    v7 = verify(sc, forged)["checks"]["V7"]
    assert v7["status"] == "fail"
    assert v7["witnesses"][0]["note"] == "malformed certification record"
    doc, _ = malformed_refusals()
    honest, _ = run(load_scenario(doc))
    refusal = next(ev for ev in honest if ev.kind == "refuse-certify")
    forged, _ = _forge(honest, "refuse-certify", refusal.stage, j="+" + refusal.payload["j"])
    v7 = verify(load_scenario(doc), forged)["checks"]["V7"]
    assert v7["status"] == "fail"
    assert v7["witnesses"][0]["note"] == "malformed refusal record"


def test_negative_w_index_fails_v2():
    doc = generate(2026, 6, "robinson", 256)
    sc = load_scenario(doc)
    events, _ = run(sc)
    first_w = next(ev for ev in events if ev.kind == "enumerate" and ev.payload["set"] == "W")
    forged, line = _forge(events, "enumerate", first_w.stage, j="-1")
    assert line.payload["set"] == "W"
    report = verify(sc, forged)
    v2 = report["checks"]["V2"]
    assert v2["status"] == "fail"
    assert line.to_line() in [w.get("line") for w in v2["witnesses"]]
    assert report["checks"]["V10"]["status"] == "pass"


def test_v8_v10_read_p_off_its_spans(control_materials, monkeypatch):
    """V8 and V10 read p off its spans: verify codes no change set and
    decodes none, on the honest runs and on the V8 forgery alike, and the
    package has no p row to build (only the tests' reference has).  A
    deterministic count of calls, not a timing gate."""
    assert not hasattr(model, "p_row")
    calls = [
        count_calls(monkeypatch, owner, name)
        for owner, name in ((omegace, "build_change_set"), (verify_mod, "restrict"))
    ]
    sc, events, final = control_materials["injury"]
    report = verify(sc, events, final)
    assert passed(report)
    assert report["diagnostics"]["guessing_sets"] == 3

    sc, events, final = control_materials["churn"]
    assert passed(verify(sc, events, final))
    v10 = verify(sc, corrupt("V8", sc, events))["checks"]["V10"]
    assert v10["status"] == "fail"
    assert v10["witnesses"] == [{
        "stage": 12,
        "note": "p rows are no bounded approximation: argument 0 changes its mind 5 times, bound is 3",
    }]
    assert calls == [[], []]


class _OpensAtZero:
    """A p policy that breaks the contract: p answers 1 at stage 0 alone."""

    def spans(self, j, guessing_set, horizon):
        return [(0, 0)]


def test_v8_v10_start_witnesses(control_materials):
    """V8's start rule and V10's start witness, which no loadable scenario
    reaches (the loader and TablePolicy reject a row that starts at 1, and
    a truthful span opens at stage d >= 1), fire on a policy that
    answers 1 at stage 0: V8 once per guessing set, V10 once, for the
    first set in enumeration order, with one flip each, inside budget."""
    sc, events, _ = control_materials["injury"]
    sc = dataclasses.replace(sc, p_policy=_OpensAtZero())
    enumerated = [int(ev.payload["j"]) for ev in events if ev.payload.get("set") == "W"]
    assert len(set(enumerated)) == 3
    checks = verify(sc, events)["checks"]
    assert checks["V8"]["witnesses"] == [
        {"stage": 0, "note": "p(%d, 0) is 1, not 0" % j} for j in sorted(set(enumerated))
    ]
    assert checks["V10"]["witnesses"] == [{
        "stage": sc.horizon,
        "note": "p rows are no bounded approximation: "
        "approximations must start at 0 (argument %d)" % enumerated[0],
    }]


def _coded_verdict(doc, sc, events):
    """V10's verdict as omegace reaches it from the p rows, built by the
    per-string reference from the document's p_policy and the strings of
    the replay's guessing sets: they form an ApproxTable with bounds
    q + 1, and restrict decodes their limit."""
    h = sc.horizon
    rows = {}
    if sc.construction == "robinson":
        c_cones = model.Cones(sc.c_schedule.entry_stage())
        for j, wset in verify_mod._replay(sc, events).w_sets.items():
            strings = [(u, sigma) for sigma, u in wset.strings.items()]
            rows[j] = tuple(p_row(windows(doc, c_cones, j, strings), h))
    bounds = {j: sc.q_overrides.get(j, sc.q_default) + 1 for j in rows}
    try:
        tab = omegace.ApproxTable(h, rows, bounds)
    except ValueError:
        return False
    top = min(h, max(rows) + 2 if rows else 1)
    return omegace.restrict(tab, top) == {x for x in range(top) if limit_eval(tab, x)}


def _low_budget_docs(rng, doc):
    """doc under tight change budgets, and under random table policies."""
    for q in (1, 2, 3):
        yield dict(doc, q_default=q)
    yield dict(doc, q_default=3, q_overrides={"0": 1, "2": 2})
    for density in (0.02, 0.1, 0.5):
        values = {
            str(j): [0] + [int(rng.random() < density) for _ in range(rng.randrange(doc["horizon"]))]
            for j in range(4)
        }
        yield dict(doc, p_policy={"type": "table", "values": values}, q_default=rng.randint(1, 3))


def test_v10_is_v8s_verdict_by_the_lemma(control_materials):
    """The lemma of verify._check_v8_v10, checked against omegace: over
    honest runs, low-budget and table-policy variants of them, and the
    negative controls, V10 and V8 pass exactly when the coded p rows
    decode back to their limit."""
    rng = random.Random(18)
    traces = []
    for i in range(100):
        doc = generate(2026, i, "robinson", 256)
        for variant in [doc, *_low_budget_docs(rng, doc)]:
            sc = load_scenario(variant)
            traces.append((variant, sc, run(sc)[0]))
    for check, material in CONTROLS.items():
        sc, events, _ = control_materials[material]
        traces.append((material_doc(material), sc, corrupt(check, sc, events)))
    verdicts = set()
    for doc, sc, events in traces:
        want = _coded_verdict(doc, sc, events)
        checks = verify(sc, events)["checks"]
        assert (checks["V10"]["status"] != "fail") == want
        assert (checks["V8"]["status"] != "fail") == want
        verdicts.add(want)
    assert verdicts == {True, False}


def test_replay_settles_only_busy_stages(corpus, monkeypatch):
    """The replay closes a stage only where it has a line other than a
    side=none update, or at the last stage replayed: a deterministic
    count of _close_stage calls, not a timing gate.  A quiet stage, whose
    one line is its side=none update, costs no close."""
    closed = count_calls(monkeypatch, verify_mod, "_close_stage", after=lambda _, ctx, pend, s: s)
    sc = load_scenario(corpus_doc(corpus, "robinson", 478))
    events, final = run(sc)
    assert passed(verify(sc, events, final))
    busy = {ev.stage for ev in events if ev.payload != {"side": "none"}}
    assert closed and set(closed) <= busy | {events[-1].stage}, (closed, busy)
    assert len(closed) == len(set(closed)) < (sc.horizon + 1) / 10



@pytest.mark.parametrize("which", [0, 1], ids=["sacks", "robinson"])
def test_quiet_stages_cost_no_close(which, monkeypatch):
    """A longer horizon adds only quiet stages, so no close: the runs of
    one scenario whose events all fall in its first 12 stages make one
    count of _close_stage calls at H, 2H and 4H."""
    closed = count_calls(monkeypatch, verify_mod, "_close_stage")
    counts = []
    for horizon in (500, 1000, 2000):
        sc = load_scenario(quiet_tail_docs(horizon)[which])
        events, final = run(sc)
        assert passed(verify(sc, events, final))
        counts.append(len(closed))
        closed.clear()
    assert counts[0] > 0 and counts == counts[:1] * 3, counts

@pytest.mark.parametrize("doc", quiet_tail_docs(40), ids=lambda doc: doc["construction"])
def test_missing_stages_fail_v11_once_each(doc):
    """Deleting the lines of k consecutive quiet stages fails V11 exactly
    once at each, in stage order, in mid-trace and at the tail up to the
    horizon.  Every stage after 12 is quiet here: its one line is its
    side=none update."""
    sc = load_scenario(doc)
    events, _ = run(sc)
    k = 4
    mid = next(i for i, ev in enumerate(events) if ev.stage == 20)
    assert all(ev.payload == {"side": "none"} for ev in events[mid:])
    assert len(events) - mid == sc.horizon - 20 + 1
    for forged, stages in [
        (events[:mid] + events[mid + k:], [20, 21, 22, 23]),
        (events[:-k], list(range(sc.horizon - k + 1, sc.horizon + 1))),
    ]:
        v11 = verify(sc, forged)["checks"]["V11"]
        assert v11["failures"] == k
        assert v11["witnesses"] == [
            {"stage": t, "note": "stage has 0 assignment updates instead of one"} for t in stages
        ]


def test_none_update_before_an_initialization_fails_v11(control_materials):
    """A stage's update replaced by a side=none update ahead of the
    stage's initialize line: the whole stage is settled at its close,
    so the initialization after the update still counts."""
    sc, events, _ = control_materials["deflection"]
    at = next(i for i, ev in enumerate(events) if ev.kind == "initialize")
    end = next(i for i in range(at, len(events)) if events[i].kind == "assignment-update")
    stage = events[at].stage
    none = TraceEvent(stage, "assignment-update", {"side": "none"})
    forged = events[:at] + [none] + events[at:end] + events[end + 1:]
    v11 = verify(sc, forged)["checks"]["V11"]
    assert v11["status"] == "fail"
    assert {"stage": stage, "note": "update claims no initialization despite one"} in v11["witnesses"]


def test_lone_targeted_update_fails_v11(control_materials):
    """A stage whose one line is a targeted update is no quiet stage: it
    is closed, and the update names no initialization."""
    sc, events, _ = control_materials["deflection"]
    stages = [ev.stage for ev in events]
    at = next(
        i for i, ev in enumerate(events[:-1]) if stages.count(ev.stage) == 1 and ev.stage > 0
    )
    assert events[at].payload == {"side": "none"}
    line = TraceEvent(events[at].stage, "assignment-update", {"i": "0", "side": "P", "tail": "0"})
    v11 = verify(sc, events[:at] + [line] + events[at + 1:])["checks"]["V11"]
    assert v11["status"] == "fail"
    assert {
        "stage": line.stage, "note": "update without any initialization this stage", "line": line.to_line()
    } in v11["witnesses"]


def test_restraint_and_its_act_pass_v4_in_either_order(control_materials):
    """The act that backs a restraint may come anywhere in its stage: the
    engine writes the restraint first, and a restraint moved after its
    act passes V4 as well."""
    sc, events, _ = control_materials["forced"]
    at = next(i for i, ev in enumerate(events) if ev.kind == "restraint-set")
    act = next(i for i, ev in enumerate(events) if ev.kind == "act")
    assert events[act].stage == events[at].stage and at < act
    for forged in (events, events[:at] + events[at + 1:act + 1] + [events[at]] + events[act + 1:]):
        assert verify(sc, forged)["checks"]["V4"]["status"] == "pass"


def test_lines_swapped_across_stages_fail_v2(control_materials):
    """A line swapped with one of a later stage puts a stage out of order,
    whatever the two lines are, so the trace fails."""
    for sc, events, _ in control_materials.values():
        for at in range(0, len(events) - 1, 3):
            later = next((j for j in range(at, len(events)) if events[j].stage > events[at].stage), None)
            if later is None:
                continue
            forged = list(events)
            forged[at], forged[later] = forged[later], forged[at]
            report = verify(sc, forged)
            assert report["checks"]["V2"]["status"] == "fail", (at, later)
            assert not passed(report)


_TOTALITY_RUNS = [
    (load_scenario(doc), render(run(load_scenario(doc))[0]).splitlines())
    for doc in (generate(2026, i, c, 64) for i in range(4) for c in ("sacks", "robinson"))
]
_PAYLOAD_KEYS = (
    "block cause element ell entry i initiator j k memo req resolved result set side"
    " sigma tail theta threatened to value via x"
).split()
_payload_values = st.one_of(
    st.integers(-3, 70).map(str),
    st.sampled_from(["P:0", "Q:1", "P:", "Z:0", "-", "A0", "A1", "D", "W", "none", "0101", ""]),
    st.text(max_size=6),
)


@settings(deadline=None)
@given(
    st.integers(0, len(_TOTALITY_RUNS) - 1),
    st.integers(0, 10**6),
    st.booleans(),
    st.integers(-2, 70),
    st.sampled_from(KINDS),
    st.dictionaries(st.one_of(st.sampled_from(_PAYLOAD_KEYS), st.text(max_size=4)), _payload_values),
)
def test_verify_is_total(which, at, insert, stage, kind, payload):
    """Every trace parse accepts gets a report: one line of a fuzz trace
    replaced, or one inserted, with any kind and any payload."""
    sc, lines = _TOTALITY_RUNS[which]
    at %= len(lines) + 1
    line = TraceEvent(stage, kind, payload).to_line()
    mutated = lines[:at] + [line] + lines[at + (0 if insert else 1):]
    try:
        events = parse("\n".join(mutated) + "\n")
    except TraceParseError:
        return
    assert set(verify(sc, events)["checks"]) == {name for name, _ in CHECKS}


# A plain run with a three-input expansionary step: P:0 defines k=0,1,0
# over its half's string 01 at stage 2, D takes 0 and 2 at stage 3, and
# P:0 diagonalizes at input 0, the first value D has left, at stage 4.
_STEP_DOC = {
    "construction": "sacks",
    "horizon": 8,
    "b": [[1, 1]],
    "d": [[1, 1], [3, 0], [3, 2]],
    "functionals": [{"side": 0, "e": 0, "axioms": [
        {"theta": "", "x": x, "k": k, "stage": 2} for x, k in enumerate((0, 1, 0))
    ]}],
}
# A refusal at stage 4 of an axiom whose use is 3.
_DEFERRED_DOC = dict(
    CERTIFY_DOC,
    c=[[6, 0]],
    functionals=[{"side": 0, "e": 0, "axioms": [
        {"theta": "000", "sigma": "000", "x": 0, "k": 0, "stage": 0}
    ]}],
    p_policy={"type": "truthful_delay", "d": 5},
)


def _step_witness(sc, forged, line, check, note):
    """The witness the step check gives the forged line: the recomputed
    line or exit beside it."""
    failing = verify(sc, forged)["checks"][check]
    assert failing["status"] == "fail"
    assert {"stage": line.stage, "note": note, "line": line.to_line()} in failing["witnesses"], (
        failing["witnesses"]
    )


@pytest.mark.parametrize(
    "kind, stage, changes, note",
    [
        ("define-local", 2, {"x": "3"}, "step exits expansionary: define-local k=0 req=P:0 sigma=01 x=0"),
        ("define-local", 2, {"k": "1"}, "step exits expansionary: define-local k=0 req=P:0 sigma=01 x=0"),
        ("define-local", 2, {"sigma": "11"}, "step exits expansionary: define-local k=0 req=P:0 sigma=01 x=0"),
        ("diagonalize", 4, {"x": "2"}, "step exits diagonalize: diagonalize req=P:0 x=0"),
        ("act", 2, {"via": "diagonalize"}, "step exits expansionary: act block=P:0 req=P:0 via=expansionary"),
        ("act", 2, {"block": "P:1"}, "step exits expansionary: act block=P:0 req=P:0 via=expansionary"),
    ],
)
def test_forged_sacks_step_lines_fail_v5(kind, stage, changes, note):
    sc = load_scenario(_STEP_DOC)
    events, _ = run(sc)
    assert passed(verify(sc, events))
    forged, line = _forge(events, kind, stage, **changes)
    _step_witness(sc, forged, line, "V5", note)


def test_expansionary_without_a_new_high_fails_v5(control_materials):
    """Q:0 expands to agreement 1 at stage 2; at stage 4 its agreement is
    still 1, so a second expansionary step there is no new high."""
    sc, events, _ = control_materials["deflection"]
    at = next(i for i, ev in enumerate(events) if ev.stage == 4)
    line = TraceEvent(4, "expansionary", {"block": "Q:0", "ell": "1", "req": "Q:0"})
    act = TraceEvent(4, "act", {"block": "Q:0", "req": "Q:0", "via": "expansionary"})
    forged = events[:at] + [line, act] + events[at:]
    _step_witness(sc, forged, line, "V5", "step exits none at agreement 1, writing 0 line(s)")


@pytest.mark.parametrize(
    "kind, changes, note",
    [
        ("define-local", {"theta": "1"}, "certified input 0: define-local k=0 req=P:0 sigma=0 theta=0 x=0"),
        ("define-local", {"x": "1"}, "certified input 0: define-local k=0 req=P:0 sigma=0 theta=0 x=0"),
        ("act", {"block": "P:1"}, "certified input 0: act block=P:0 req=P:0 via=certified"),
        ("certify", {"theta": "1"}, "step at input 0 selects k=0 sigma=0 theta=0"),
    ],
)
def test_forged_robinson_step_lines_fail_v7(control_materials, kind, changes, note):
    sc, events, _ = control_materials["certify"]
    forged, line = _forge(events, kind, 2, **changes)
    _step_witness(sc, forged, line, "V7", note)


def test_refusal_inside_the_deferral_fails_v7():
    """A scan at a stage s <= use is no step: the input waits for the
    stage to pass the use.  The refusal of stage 4 moved to stage 2 fails
    the step check; it also scans W_0 before the stage-4 enumeration of
    its string, so C lies in no cone of W_0 at its entry, and leaves that
    enumeration with no scan of its stage.  The scan-line rules witness
    first, then the W lines, then the step check."""
    sc = load_scenario(_DEFERRED_DOC)
    events, _ = run(sc)
    assert passed(verify(sc, events))
    at = next(i for i, ev in enumerate(events) if ev.kind == "refuse-certify")
    assert events[at].stage == 4
    line = TraceEvent(2, "refuse-certify", dict(events[at].payload, entry="2"))
    two = next(i for i, ev in enumerate(events) if ev.stage == 2)
    forged = events[:two] + [line] + events[two:at] + events[at + 1:]
    v7 = verify(sc, forged)["checks"]["V7"]
    w_line = next(ev for ev in events if ev.kind == "enumerate" and ev.payload.get("set") == "W")
    assert w_line.stage == 4
    assert v7["witnesses"] == [
        {"stage": 2, "note": "C lies in no cone of W_0 at entry", "line": line.to_line()},
        {
            "stage": 4,
            "note": "W_0 enumeration of sigma=000 matches no scan line of its stage",
            "line": w_line.to_line(),
        },
        {
            "stage": 2,
            "note": "step at input 0 exits nocomp (selects k=0 at use 3), with no scan",
            "line": line.to_line(),
        },
    ]


def test_scan_without_its_input_fails_v2(control_materials):
    """A scan line without x is malformed, and its requirement's later
    cancellation still gets a report: no index is held for an input the
    line does not name."""
    sc, events, _ = control_materials["injury"]
    injured = {ev.payload["req"] for ev in events if ev.kind == "injury"}
    at = next(
        i for i, ev in enumerate(events)
        if ev.kind in ("certify", "refuse-certify") and ev.payload["req"] in injured
    )
    line = TraceEvent(events[at].stage, events[at].kind, {
        k: v for k, v in events[at].payload.items() if k != "x"
    })
    report = verify(sc, events[:at + 1] + [line] + events[at + 1:])
    assert {"stage": line.stage, "note": "malformed %s payload" % line.kind, "line": line.to_line()} in (
        report["checks"]["V2"]["witnesses"]
    )
