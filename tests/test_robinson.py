import pytest
from hypothesis import given, strategies as st

from splitsim.fuzz import generate
from splitsim.harness import run
from splitsim.model import (
    Axiom,
    Cones,
    TablePolicy,
    TruthfulDelayPolicy,
    build_policy,
    changes,
    cone_truth,
    first_hit,
    p_row,
)
from splitsim.robinson import RobinsonStrategy
from splitsim.scenario import load_scenario
from splitsim.verify import passed, verify

from conftest import bench_module, execute, visits_against_reference

oracle_churn_doc = bench_module("workloads").oracle_churn_doc


def test_lifetime_frozen_cases():
    # (missing 1-positions, birth, death)
    assert Cones({}).lifetime("") == (0, 0, None)
    assert Cones({0: 3}).lifetime("1") == (0, 3, None)
    assert Cones({}).lifetime("1") == (1, 0, None)
    assert Cones({0: 3}).lifetime("0") == (0, 0, 3)
    assert Cones({0: 1, 1: 4}).lifetime("10") == (0, 1, 4)
    assert Cones({0: 2, 1: 5}).lifetime("11") == (0, 5, None)
    assert Cones({0: 2, 1: 5}).lifetime("00") == (0, 0, 2)


def _assert_first_hit_is_first_one(windows, horizon):
    # first_hit is the first 1 of the row at or after the scan start.
    row = p_row(windows, horizon)
    for s in range(horizon + 1):
        want = next((t for t in range(s, horizon + 1) if row[t]), None)
        assert first_hit(windows, s, horizon) == want


def test_truthful_delay_policy():
    with pytest.raises(ValueError):
        TruthfulDelayPolicy(0, Cones())
    pol = TruthfulDelayPolicy(2, Cones({0: 3}))
    alive = pol.windows(0, [(1, "1")])  # joins the cone at stage 3, never leaves
    assert p_row(alive, 6) == [0, 0, 0, 0, 0, 1, 1]
    assert first_hit(alive, 0, 8) == 5
    assert first_hit(alive, 6, 8) == 6
    assert first_hit(alive, 0, 4) is None
    dying = pol.windows(0, [(0, "0")])  # dies when 0 enters C at stage 3
    assert p_row(dying, 6) == [0, 0, 1, 1, 1, 0, 0]
    assert first_hit(dying, 0, 8) == 2
    assert first_hit(dying, 5, 8) is None
    unborn = pol.windows(0, [(0, "01")])  # 1 never enters C, so C never enters the cone
    assert p_row(unborn, 6) == [0] * 7
    assert first_hit(unborn, 0, 8) is None
    late = pol.windows(0, [(4, "")])  # enumerated after C entered the cone: opens at 4 + d
    assert p_row(late, 6) == [0, 0, 0, 0, 0, 0, 1]
    for windows in (alive, dying, unborn, late, alive + dying):
        _assert_first_hit_is_first_one(windows, 8)


def test_table_policy():
    pol = TablePolicy({"0": [0, 1, 0]})
    row0 = pol.windows(0, [])
    assert p_row(row0, 3) == [0, 1, 0, 0]
    assert p_row(row0, 1) == [0, 1]
    assert p_row(pol.windows(7, []), 1) == [0, 0]
    assert first_hit(row0, 0, 8) == 1
    assert first_hit(row0, 2, 8) is None
    assert first_hit(row0, 0, 0) is None
    _assert_first_hit_is_first_one(row0, 8)
    with pytest.raises(ValueError):
        TablePolicy({0: [1, 0]})
    with pytest.raises(ValueError):
        TablePolicy({0: [0, 2]})


_strings = st.lists(st.tuples(st.integers(0, 12), st.text(alphabet="01", max_size=5)), max_size=4)


@given(
    st.dictionaries(st.integers(0, 5), st.integers(0, 12), max_size=6),
    st.integers(1, 4),
    _strings,
    st.integers(0, 14),
)
def test_truthful_first_hit_at_the_horizon_is_the_row_end(c_entry, delay, strings, h):
    c_cones = Cones(c_entry)
    windows = TruthfulDelayPolicy(delay, c_cones).windows(0, strings)
    row = p_row(windows, h)
    assert (first_hit(windows, h, h) is not None) == (row[h] == 1)
    # The row is the cone truth, d stages late.
    assert row == [int(t >= delay and cone_truth(strings, c_cones, t - delay)) for t in range(h + 1)]
    _assert_first_hit_is_first_one(windows, h)


@given(
    st.lists(st.integers(0, 1), max_size=12),
    st.integers(0, 2),
    st.integers(0, 14),
)
def test_table_first_hit_at_the_horizon_is_the_row_end(tail, j, h):
    given_row = [0] + tail if j == 0 else []
    windows = TablePolicy({0: [0] + tail}).windows(j, [])
    row = p_row(windows, h)
    assert (first_hit(windows, h, h) is not None) == (row[h] == 1)
    # Missing entries are 0.
    assert row == (given_row + [0] * (h + 1))[: h + 1]
    _assert_first_hit_is_first_one(windows, h)


def _doc(horizon, c, delay, functionals, b=()):
    return {
        "construction": "robinson",
        "horizon": horizon,
        "b": [list(r) for r in b],
        "c": [list(r) for r in c],
        "d": [],
        "functionals": functionals,
        "p_policy": {"type": "truthful_delay", "d": delay},
    }


_BASE_AXIOM = {"theta": "0", "sigma": "0", "x": 0, "k": 0, "stage": 0}


def test_certification_race_won_by_policy_hit():
    # sigma=0 dies when C enumerates 0 at stage 4; with delay 1 the policy
    # answers 1 at stage 3 first, so the scan certifies.
    doc = _doc(8, [[4, 0]], 1, [{"side": 0, "e": 0, "axioms": [_BASE_AXIOM]}])
    sc = load_scenario(doc)
    r, strategy, events = execute(sc)
    state = r.final_state(strategy)
    certs = [ev for ev in events if ev.kind == "certify"]
    assert len(certs) == 1
    assert certs[0].stage == 2
    assert certs[0].payload == {
        "entry": "2",
        "j": "0",
        "k": "0",
        "req": "P:0",
        "resolved": "3",
        "sigma": "0",
        "theta": "0",
        "x": "0",
    }
    enums = [ev for ev in events if ev.kind == "enumerate" and ev.payload["set"] == "W"]
    assert [(ev.stage, ev.payload["j"], ev.payload["sigma"]) for ev in enums] == [(2, "0", "0")]
    # p holds only while C stays out of the cone, one stage late.
    strings = [(2, "0")]
    row = p_row(build_policy(sc, Cones(sc.c_schedule.entry_stage())).windows(0, strings), 8)
    assert changes(row) == 2
    assert row[8] == 0 == cone_truth(strings, strategy.c_cones, 8)
    assert not state["unsettled"]
    assert verify(sc, events)["checks"]["V8"]["status"] == "pass"
    # The local definition died with its sigma cone.
    defines = [ev.payload for ev in events if ev.kind == "define-local"]
    assert defines == [{"k": "0", "req": "P:0", "sigma": "0", "theta": "0", "x": "0"}]
    assert [ev.stage for ev in events if ev.kind == "define-local"] == [2]
    assert strategy.locals[(0, 0)][0] == (0, 4)
    assert strategy.live_value(0, 0, 0, 3) == 0
    assert strategy.live_value(0, 0, 0, 8) is None


def test_refusal_and_memo():
    # C enumerates 0 at stage 6; with delay 5 the cone exit comes first,
    # so the scan refuses and the stage-4 retry answers from the memo.
    doc = _doc(8, [[6, 0]], 5, [{"side": 0, "e": 0, "axioms": [_BASE_AXIOM]}])
    events, state = run(load_scenario(doc))
    assert not [ev for ev in events if ev.kind == "certify"]
    refusals = [ev for ev in events if ev.kind == "refuse-certify"]
    assert [(ev.stage, ev.payload["result"]) for ev in refusals] == [
        (2, "refused"),
        (4, "refused"),
    ]
    assert refusals[0].payload["resolved"] == "6"
    assert "memo" not in refusals[0].payload
    assert refusals[1].payload["memo"] == "1"
    assert refusals[1].payload["resolved"] == "6"
    # Only one W enumeration: the cone still held at the retry.
    enums = [ev for ev in events if ev.kind == "enumerate" and ev.payload["set"] == "W"]
    assert len(enums) == 1
    assert not [ev for ev in events if ev.kind == "define-local"]
    # p answers 1 after the horizon-clipped delay, too late to be seen
    # settled: the final p value disagrees with the cone truth.
    assert state["unsettled"]
    assert state["pending_scans"] == 0


def test_pending_scan_marks_run_unsettled():
    doc = _doc(8, [], 10, [{"side": 0, "e": 0, "axioms": [_BASE_AXIOM]}])
    events, state = run(load_scenario(doc))
    refusals = [ev for ev in events if ev.kind == "refuse-certify"]
    assert refusals and all(ev.payload["result"] == "pending" for ev in refusals)
    assert all("resolved" not in ev.payload for ev in refusals)
    assert state["pending_scans"] == len(refusals) == 4
    assert state["unsettled"]


def test_initialization_injury_is_attributed():
    # Q:0 certifies and restrains at stage 2, P:1 at stage 4.  The B
    # arrival at stage 5 threatens Q:0, deflects to A0, and initializes
    # P:1, whose certified input is reported as an initialization injury.
    doc = _doc(
        10,
        [],
        1,
        [
            {"side": 1, "e": 0, "axioms": [{"theta": "", "sigma": "", "x": 0, "k": 0, "stage": 0}]},
            {"side": 0, "e": 1, "axioms": [{"theta": "", "sigma": "", "x": 0, "k": 0, "stage": 0}]},
        ],
        b=[[5, 0]],
    )
    events, state = run(load_scenario(doc))
    injuries = [ev for ev in events if ev.kind == "injury"]
    assert len(injuries) == 1
    assert injuries[0].stage == 5
    assert injuries[0].payload == {"cause": "initialized", "req": "P:1", "x": "0"}
    same_stage_inits = [
        ev for ev in events if ev.kind == "initialize" and ev.stage == 5
    ]
    assert {ev.payload["block"] for ev in same_stage_inits} == {"P:1", "Q:1"}
    # The requirement recovers with a fresh index afterwards.
    certs = [ev for ev in events if ev.kind == "certify"]
    assert [(ev.stage, ev.payload["req"], ev.payload["x"], ev.payload["j"]) for ev in certs] == [
        (2, "Q:0", "0", "0"),
        (4, "P:1", "0", "1"),
        (6, "P:1", "0", "2"),
    ]
    assert not state["unsettled"]
    assert verify(load_scenario(doc), events)["checks"]["V8"]["status"] == "pass"


def test_cancelled_input_scans_a_fresh_index():
    """A cancellation drops an input's index and refusals together.  P:1
    refuses sigma "0" over W_1 at stage 4 and again, memo=1, at stage 6;
    the stage-7 arrival under Q:0's restraint initializes P:1 and injures
    the input, whose next scan names the fresh W_2 and is no memo refusal,
    though C leaves the same cone at the same stage."""
    doc = _doc(
        14,
        [[12, 0]],
        11,
        [
            {"side": 1, "e": 0, "axioms": [{"theta": "", "sigma": "", "x": 0, "k": 0, "stage": 0}]},
            {"side": 0, "e": 1, "axioms": [_BASE_AXIOM]},
        ],
        b=[[7, 1]],
    )
    sc = load_scenario(doc)
    events, final = run(sc)
    scans = [
        (ev.stage, ev.payload["j"], ev.payload.get("memo"))
        for ev in events
        if ev.kind == "refuse-certify" and ev.payload["req"] == "P:1"
    ]
    assert scans == [(4, "1", None), (6, "1", "1"), (8, "2", None), (10, "2", "1")]
    injuries = [(ev.stage, ev.payload) for ev in events if ev.kind == "injury"]
    assert injuries == [(7, {"cause": "initialized", "req": "P:1", "x": "0"})]
    enums = [(ev.stage, ev.payload["j"]) for ev in events if ev.payload.get("set") == "W"]
    assert enums == [(2, "0"), (4, "1"), (8, "2")]
    assert passed(verify(sc, events, final))


class LemmaCheckingStrategy(RobinsonStrategy):
    """Records every certified axiom and, at every refresh pass, checks
    that no recorded theta has left its A half unless its owner was
    cancelled at that stage (the lemma in the robinson docstring)."""

    def __init__(self, run):
        super().__init__(run)
        self.held: list[tuple[int, int, Axiom]] = []

    def certify(self, side, e, x, axiom, s):
        ok = super().certify(side, e, x, axiom, s)
        if ok:
            self.held.append((side, e, axiom))
        return ok

    def refresh_pass(self, s, cancelled):
        for side, e, axiom in self.held:
            if (side, e) not in cancelled:
                assert self.run.a_cones[side].holds(axiom.theta, s), (s, side, e, axiom)
        self.held = [h for h in self.held if h[:2] not in cancelled]
        super().refresh_pass(s, cancelled)


def run_checked(doc):
    sc = load_scenario(doc)
    r, strategy, events = execute(sc, build=LemmaCheckingStrategy)
    report = verify(sc, events, r.final_state(strategy))
    assert passed(report), report["checks"]
    return strategy, events


def _lemma_doc(functionals, b):
    return _doc(10, [], 1, functionals, b=b)


def test_arrival_below_a_theta_on_its_side_is_deflected():
    # P:0 certifies theta "00" at stage 4 (restraint 4); the arrival 0 at
    # stage 5 threatens only P:0, so it goes to A1 and P:0's theta stands.
    axiom = {"theta": "00", "sigma": "00", "x": 0, "k": 0, "stage": 0}
    doc = _lemma_doc([{"side": 0, "e": 0, "axioms": [axiom]}], [[5, 0]])
    strategy, events = run_checked(doc)
    assert [(ev.stage, ev.payload["to"]) for ev in events if ev.kind == "route"] == [(5, "A1")]
    assert not [ev for ev in events if ev.kind == "injury"]
    assert [ev.stage for ev in events if ev.kind == "certify"] == [4]
    assert len(strategy.held) == 1
    assert strategy.live_value(0, 0, 0, 10) == 0


def test_arrival_below_a_theta_under_a_stronger_block_injures_it():
    # Q:0 restrains at stage 2 and P:1 certifies theta "0" at stage 4.  The
    # arrival 0 at stage 5 threatens both; the stronger Q:0 sends it into
    # A0, breaking P:1's theta, and initializes P:1 in the same stage.
    doc = _lemma_doc(
        [
            {"side": 1, "e": 0, "axioms": [{"theta": "", "sigma": "", "x": 0, "k": 0, "stage": 0}]},
            {"side": 0, "e": 1, "axioms": [{"theta": "0", "sigma": "0", "x": 0, "k": 0, "stage": 0}]},
        ],
        [[5, 0]],
    )
    strategy, events = run_checked(doc)
    assert [(ev.stage, ev.payload["to"]) for ev in events if ev.kind == "route"] == [(5, "A0")]
    injuries = [(ev.stage, ev.payload) for ev in events if ev.kind == "injury"]
    assert injuries == [(5, {"cause": "initialized", "req": "P:1", "x": "0"})]
    assert (5, "P:1") in [(ev.stage, ev.payload["block"]) for ev in events if ev.kind == "initialize"]
    assert strategy.held == [(1, 0, strategy.tables[(1, 0)].axioms[0][1])]


def test_no_certified_theta_breaks_while_its_owner_stands():
    """Initialization is the only injury: the lemma holds on fuzz runs and
    on the benchmark's churn shape, whose C arrivals kill every definition."""
    docs = [generate(11, i, "robinson", 512) for i in range(200)]
    assert sum(doc["b"] != [] for doc in docs) > 100
    docs += [oracle_churn_doc(seed, h) for seed in (2026, 7) for h in range(36, 60)]
    certified = injured = 0
    for doc in docs:
        events = run_checked(doc)[1]
        certified += sum(ev.kind == "certify" for ev in events)
        injured += any(ev.kind == "injury" for ev in events)
    assert certified > 0 and injured > 0


def test_wake_rules_match_visiting_every_owner():
    """Letting an owner sleep after a quiet nocomp must not change a byte."""
    docs = [generate(11, i, "robinson", 512) for i in range(200)]
    # C entries, scheduled D entries and arrivals all occur.
    assert sum(doc["c"] != [] for doc in docs) > 50
    assert sum(doc["d"] != [] for doc in docs) > 50
    assert sum(doc["b"] != [] for doc in docs) > 100
    docs += [oracle_churn_doc(2026, h) for h in range(36, 44)]
    visits = reference_visits = 0
    for doc in docs:
        _, mine, reference = visits_against_reference(doc)
        assert set(mine) <= set(reference)
        visits += len(mine)
        reference_visits += len(reference)
    assert visits < reference_visits / 2, (visits, reference_visits)


def test_deferred_action_wakes_at_use_plus_one():
    # The only axiom has use 4, so its certification waits for a stage
    # past 4.  P:0 sleeps after the deferral at stage 2, is woken at
    # stage 5 (odd), and acts at stage 6; at stage 8 it is defined at
    # input 0 and diverges at 1, so it sleeps for good.
    axiom = {"theta": "0000", "sigma": "0000", "x": 0, "k": 0, "stage": 0}
    doc = _doc(12, [], 1, [{"side": 0, "e": 0, "axioms": [axiom]}])
    events, visits, _ = visits_against_reference(doc)
    assert visits == [(0, "P:0"), (2, "P:0"), (6, "P:0"), (8, "P:0")]
    assert [(ev.stage, ev.payload["via"]) for ev in events if ev.kind == "act"] == [(6, "certified")]


def test_refusal_repeats_every_stage_until_its_cone_dies():
    # C leaves sigma "0"'s cone at stage 8, before p's late answer, so each
    # scan is refused (the retries from the memo) and P:0 stays awake; at
    # stage 8 the axiom no longer applies, and P:0 sleeps.
    doc = _doc(14, [[8, 0]], 9, [{"side": 0, "e": 0, "axioms": [_BASE_AXIOM]}])
    events, visits, _ = visits_against_reference(doc)
    scans = [
        (ev.stage, ev.payload["resolved"], ev.payload.get("memo"))
        for ev in events if ev.kind == "refuse-certify"
    ]
    assert scans == [(2, "8", None), (4, "8", "1"), (6, "8", "1")]
    assert [s for s, _ in visits] == [0, 2, 4, 6, 8]


def test_local_definition_dying_at_a_c_entry_wakes_its_owner():
    # P:0 defines input 0 under sigma "0" at stage 2 and sleeps at stage
    # 4.  C enumerates 0 at stage 6, which kills that definition and opens
    # the cone of sigma "1": the C entry wakes P:0, which certifies and
    # defines input 0 afresh at once.
    alternative = {"theta": "0", "sigma": "1", "x": 0, "k": 0, "stage": 0}
    doc = _doc(12, [[6, 0]], 1, [{"side": 0, "e": 0, "axioms": [_BASE_AXIOM, alternative]}])
    events, visits, _ = visits_against_reference(doc)
    defines = [(ev.stage, ev.payload["sigma"]) for ev in events if ev.kind == "define-local"]
    assert defines == [(2, "0"), (6, "1")]
    assert [s for s, _ in visits] == [0, 2, 4, 6, 8]


def test_arrival_below_the_use_wakes_its_owner():
    # P:0's only axiom reads a 1 at A0's position 0, so P:0 diverges and
    # sleeps at stage 2.  The stage-3 arrival of 0 lands in A0 and wakes
    # it; P:0 certifies at stage 4.
    axiom = dict(_BASE_AXIOM, theta="1")
    doc = _doc(8, [], 1, [{"side": 0, "e": 0, "axioms": [axiom]}], b=[[3, 0]])
    events, visits, _ = visits_against_reference(doc)
    assert [s for s, _ in visits] == [0, 2, 4, 6]
    assert [ev.stage for ev in events if ev.kind == "certify"] == [4]


def test_changes_above_the_reach_do_not_wake_and_a_d_entry_at_it_does():
    # At stage 4 P:0 finds input 0 defined and input 1 without agreement
    # (its axiom says 1, D says 0), so it sleeps with reach 1.  The axiom
    # at input 2 appears at stage 6 and its deferral ends at stage 8,
    # both above the reach, so neither wakes P:0.  D enumerates 1 at
    # stage 9, at the reach: P:0 wakes and certifies inputs 1 and 2 at
    # stage 10, and sleeps at stage 12 on input 3.
    def axiom(oracle, x, k, stage):
        return {"theta": oracle, "sigma": oracle, "x": x, "k": k, "stage": stage}

    axioms = [axiom("", 0, 0, 0), axiom("", 1, 1, 0), axiom("0000000", 2, 0, 6)]
    doc = dict(_doc(12, [], 1, [{"side": 0, "e": 0, "axioms": axioms}]), d=[[9, 1]])
    events, visits, _ = visits_against_reference(doc)
    assert [s for s, _ in visits] == [0, 2, 4, 10, 12]
    certified = [(ev.stage, ev.payload["x"]) for ev in events if ev.kind == "certify"]
    assert certified == [(2, "0"), (10, "1"), (10, "2")]
