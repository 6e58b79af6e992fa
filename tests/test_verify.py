import json

import pytest
from hypothesis import given, settings, strategies as st

from splitsim import omegace
from splitsim import verify as verify_mod
from splitsim.corrupt import CorruptionError, corrupt
from splitsim.fuzz import generate
from splitsim.harness import run
from splitsim.model import PriorityAssignment
from splitsim.scenario import load_scenario
from splitsim.trace import KINDS, TraceEvent, TraceParseError, parse, render
from splitsim.verify import CHECKS, passed, verify

from conftest import CERTIFY_DOC, GOLDEN_DIR, malformed_refusals

def test_check_catalogue():
    assert [name for name, _ in CHECKS] == ["V%d" % i for i in range(1, 12)]
    assert len({title for _, title in CHECKS}) == 11


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


_CONTROLS = {
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


@pytest.mark.parametrize("check", [name for name, _ in CHECKS])
def test_negative_controls(check, control_materials):
    sc, events, _ = control_materials[_CONTROLS[check]]
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
    lengths = []
    update = PriorityAssignment.update

    def recording_update(self, s, i, m):
        update(self, s, i, m)
        lengths.append(len(self.prefix))

    monkeypatch.setattr(PriorityAssignment, "update", recording_update)
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


def test_v10_builds_the_change_set_once(control_materials, monkeypatch):
    """V10 decodes once, at the top of the p rows, not once per prefix:
    a deterministic count of build_change_set calls, not a timing gate."""
    sc, events, final = control_materials["injury"]
    calls = 0
    build = omegace.build_change_set

    def counting_build(tab):
        nonlocal calls
        calls += 1
        return build(tab)

    monkeypatch.setattr(omegace, "build_change_set", counting_build)
    report = verify(sc, events, final)
    assert passed(report)
    assert report["diagnostics"]["guessing_sets"] == 3
    assert calls == 1

    sc, events, _ = control_materials["churn"]
    v10 = verify(sc, corrupt("V8", sc, events))["checks"]["V10"]
    assert v10["status"] == "fail"
    assert "no bounded approximation" in v10["witnesses"][0]["note"]


def test_replay_settles_only_busy_stages(monkeypatch):
    """The end-of-stage checks run only where a stage left work pending:
    a deterministic count of _close_stage calls, not a timing gate.
    Only a route (a deflection or an arrival under restraint) or an
    injury leaves work pending, so quiet heartbeat stages cost nothing."""
    sc = load_scenario(generate(2026, 478, "robinson", 1024))
    events, final = run(sc)
    closed = []
    close = verify_mod._close_stage

    def counting_close(ctx, pend, s):
        closed.append(s)
        return close(ctx, pend, s)

    monkeypatch.setattr(verify_mod, "_close_stage", counting_close)
    assert passed(verify(sc, events, final))
    busy = {ev.stage for ev in events if ev.kind in ("route", "injury")}
    assert closed and set(closed) <= busy, (closed, busy)
    assert len(closed) == len(set(closed)) < (sc.horizon + 1) / 10


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
