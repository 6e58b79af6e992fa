import pytest
from hypothesis import given, strategies as st

from splitsim.engine import Run
from splitsim.fuzz import generate
from splitsim.harness import build_strategy, run
from splitsim.model import (
    Axiom,
    Cones,
    TablePolicy,
    TruthfulDelayPolicy,
    build_policy,
    changes,
    cone_truth,
)
from splitsim.robinson import RobinsonStrategy
from splitsim.scenario import load_scenario
from splitsim.verify import passed, verify

from conftest import bench_module

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


def test_truthful_delay_policy():
    with pytest.raises(ValueError):
        TruthfulDelayPolicy(0, Cones())
    pol = TruthfulDelayPolicy(2, Cones({0: 3}))
    alive = [(1, "1")]  # joins the cone at stage 3, never leaves
    assert pol.row(0, alive, 6) == [0, 0, 0, 0, 0, 1, 1]
    assert pol.first_hit(0, alive, 0, 8) == 5
    assert pol.first_hit(0, alive, 6, 8) == 6
    assert pol.first_hit(0, alive, 0, 4) is None
    dying = [(0, "0")]  # dies when 0 enters C at stage 3
    assert pol.row(0, dying, 6) == [0, 0, 1, 1, 1, 0, 0]
    assert pol.first_hit(0, dying, 0, 8) == 2
    assert pol.first_hit(0, dying, 5, 8) is None
    unborn = [(0, "01")]  # 1 never enters C, so C never enters the cone
    assert pol.row(0, unborn, 6) == [0] * 7
    assert pol.first_hit(0, unborn, 0, 8) is None
    late = [(4, "")]  # enumerated after C entered the cone: the window opens at 4 + d
    assert pol.row(0, late, 6) == [0, 0, 0, 0, 0, 0, 1]
    # first_hit is the first 1 of the row at or after the scan start.
    for strings in (alive, dying, unborn, late, alive + dying):
        row = pol.row(0, strings, 8)
        for s in range(9):
            want = next((t for t in range(s, 9) if row[t]), None)
            assert pol.first_hit(0, strings, s, 8) == want


def test_table_policy():
    pol = TablePolicy({"0": [0, 1, 0]})
    assert pol.row(0, [], 3) == [0, 1, 0, 0]
    assert pol.row(0, [], 1) == [0, 1]
    assert pol.row(7, [], 1) == [0, 0]
    assert pol.first_hit(0, [], 0, 8) == 1
    assert pol.first_hit(0, [], 2, 8) is None
    assert pol.first_hit(0, [], 0, 0) is None
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
    pol = TruthfulDelayPolicy(delay, Cones(c_entry))
    assert (pol.first_hit(0, strings, h, h) is not None) == (pol.row(0, strings, h)[h] == 1)


@given(
    st.lists(st.integers(0, 1), max_size=12),
    st.integers(0, 2),
    st.integers(0, 14),
)
def test_table_first_hit_at_the_horizon_is_the_row_end(tail, j, h):
    pol = TablePolicy({0: [0] + tail})
    assert (pol.first_hit(j, [], h, h) is not None) == (pol.row(j, [], h)[h] == 1)


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
    strategy = build_strategy(sc)
    r = Run(sc, strategy)
    events = r.execute()
    state = r.final_state()
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
    p_row = build_policy(sc, Cones(sc.c_schedule.entry_stage())).row(0, strings, 8)
    assert changes(p_row) == 2
    assert p_row[8] == 0 == cone_truth(strings, r.c_cones, 8)
    assert not state["unsettled"]
    assert verify(sc, events)["checks"]["V8"]["status"] == "pass"
    # The local definition died with its sigma cone.
    defines = [ev.payload for ev in events if ev.kind == "define-local"]
    assert defines == [{"k": "0", "req": "P:0", "sigma": "0", "theta": "0", "x": "0"}]
    assert [ev.stage for ev in events if ev.kind == "define-local"] == [2]
    st = strategy.inputs[(0, 0, 0)]
    assert st.local == (0, 4)
    assert st.live_value(3) == 0
    assert st.live_value(8) is None


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


class LemmaCheckingStrategy(RobinsonStrategy):
    """Records every certified axiom and, at the end of every stage, checks
    that no recorded theta has left its A half unless its owner was
    cancelled at that stage (the lemma in the robinson docstring)."""

    def __init__(self, tables):
        super().__init__(tables)
        self.held: list[tuple[int, int, Axiom]] = []
        self.cancelled: set[tuple[int, int]] = set()
        self.certified = 0

    def certify(self, side, e, x, axiom, s):
        ok = super().certify(side, e, x, axiom, s)
        if ok:
            self.held.append((side, e, axiom))
            self.certified += 1
        return ok

    def cancel_requirement(self, side, e, s):
        self.cancelled.add((side, e))
        super().cancel_requirement(side, e, s)

    def refresh_pass(self, s):
        for side, e, axiom in self.held:
            if (side, e) not in self.cancelled:
                assert self.run.a_cones[side].holds(axiom.theta, s), (s, side, e, axiom)
        self.held = [h for h in self.held if h[:2] not in self.cancelled]
        self.cancelled.clear()
        super().refresh_pass(s)


def run_checked(doc):
    sc = load_scenario(doc)
    strategy = LemmaCheckingStrategy(sc.functionals)
    r = Run(sc, strategy)
    events = r.execute()
    report = verify(sc, events, r.final_state())
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
    assert strategy.certified == 1 and len(strategy.held) == 1
    assert strategy.inputs[(0, 0, 0)].live_value(10) == 0


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
        strategy, events = run_checked(doc)
        certified += strategy.certified
        injured += any(ev.kind == "injury" for ev in events)
    assert certified > 0 and injured > 0
