import json
from pathlib import Path

from splitsim.fuzz import generate
from splitsim.harness import run
from splitsim.model import (
    SIDE_LABEL,
    Axiom,
    Cones,
    FunctionalTable,
    PriorityAssignment,
    SacksStep,
    agreement_length,
    parse_label,
    sacks_step,
)
from splitsim.scenario import load_scenario
from splitsim.trace import parse_int, render

from conftest import WakeEveryOwner, count_calls, dense_sacks_doc, execute, visits_against_reference

GOLDEN = Path(__file__).parent / "golden"


def _unary(axioms):
    return FunctionalTable(0, 0, axioms, binary=False)


def test_agreement_length_hand_cases():
    # One axiom per input, all answering 0 over the empty cone.
    table = _unary([(0, Axiom("", 0, 0)), (0, Axiom("", 1, 0)), (0, Axiom("", 2, 0))])
    assert agreement_length(table, Cones(), {}, 0) == 2
    # D holds 1 from stage 3 on: agreement stops below it.
    assert agreement_length(table, Cones(), {1: 3}, 3) == 0
    assert agreement_length(table, Cones(), {1: 4}, 3) == 2
    # Divergence at 0 means no agreement at all.
    assert agreement_length(_unary([]), Cones(), {}, 5) == -1
    # Cone mismatch blocks the axiom until the member arrives.
    gated = _unary([(0, Axiom("1", 0, 0))])
    assert agreement_length(gated, Cones(), {}, 2) == -1
    assert agreement_length(gated, Cones({0: 1}), {}, 2) == 0
    assert agreement_length(gated, Cones({0: 3}), {}, 2) == -1  # enters after the stage
    # Appear stage gates too.
    late = _unary([(4, Axiom("", 0, 0))])
    assert agreement_length(late, Cones(), {}, 3) == -1
    assert agreement_length(late, Cones(), {}, 4) == 0


def test_expansionary_baseline():
    """The kernel step is expansionary iff the agreement length reaches a
    new high over the requirement's prefix of values.  With no values the
    baseline is -1, so a stage with no agreement at all is never
    expansionary.  An expansionary step defines D's bits from the prefix
    on, with the half's string at the stage."""

    def step(agreeing, values):
        table = _unary([(0, Axiom("", x, 0)) for x in range(agreeing)])
        return sacks_step(table, Cones({1: 1, 4: 1}), {}, values, False, 2)

    assert step(1, []) == SacksStep("expansionary", 0, (0,), "01")
    assert step(0, []) == SacksStep("none", -1)
    assert step(4, [0, 0, 0]) == SacksStep("expansionary", 3, (0,), "01")
    assert step(3, [0, 0, 0]) == SacksStep("none", 2)


def test_sacks_step_diagonalizes_where_d_left_first():
    table = _unary([(0, Axiom("", x, 0)) for x in range(3)])
    # D took 1 at stage 3 and 2 at stage 5: at stage 4 only input 1 has moved.
    d = {1: 3, 2: 5}
    assert sacks_step(table, Cones(), d, [0, 0, 0], False, 4) == SacksStep("diagonalize", 1)
    assert sacks_step(table, Cones(), d, [0, 0, 0], False, 6) == SacksStep("diagonalize", 1)
    assert sacks_step(table, Cones(), d, [0, 0, 0], True, 6) == SacksStep("diagonalized")
    # Values D agrees with, and an agreement that reaches past them.
    table = _unary([(0, Axiom("", 0, 0)), (0, Axiom("", 1, 1)), (0, Axiom("", 2, 0))])
    assert sacks_step(table, Cones(), d, [0], False, 4) == SacksStep("expansionary", 2, (1, 0), "0000")


def test_forced_diagonalization_run():
    doc = json.loads((GOLDEN / "forced-diagonalization-scenario.json").read_text())
    events, state = run(load_scenario(doc))
    expected = (GOLDEN / "forced-diagonalization-expected.trace").read_text()
    assert render(events) == expected
    diag = [ev for ev in events if ev.kind == "diagonalize"]
    assert len(diag) == 1
    assert diag[0].stage == 2
    assert diag[0].payload == {"req": "P:0", "x": "0"}
    # The local value 0 survives to the end while D enumerated 0 at stage 1:
    # it is defined once and P:0 is never initialized.
    defines = [ev for ev in events if ev.kind == "define-local"]
    assert [(ev.stage, ev.payload["x"], ev.payload["k"]) for ev in defines] == [(0, "0", "0")]
    inits = [ev.payload["block"] for ev in events if ev.kind == "initialize"]
    assert "P:0" not in inits
    assert state["d"] == [(1, 0)]


def test_one_shot_definitions_and_reset():
    # Q:0 defines x=0 at stage 2.  The stage-3 arrival of 0 threatens P:0
    # (restraint 0 from stage 0), is deflected to A1, and Q:0 is
    # initialized by the route; it then redefines x=0 at stage 4 against
    # the bigger half-snapshot.
    doc = {
        "construction": "sacks",
        "horizon": 6,
        "b": [[3, 0]],
        "d": [],
        "functionals": [
            {"side": 0, "e": 0, "axioms": [{"theta": "", "x": 0, "k": 0, "stage": 0}]},
            {"side": 1, "e": 0, "axioms": [{"theta": "", "x": 0, "k": 0, "stage": 0}]},
        ],
    }
    events, state = run(load_scenario(doc))
    defines = [(ev.stage, ev.payload["req"], ev.payload["sigma"]) for ev in events if ev.kind == "define-local"]
    assert defines == [(0, "P:0", ""), (2, "Q:0", "00"), (4, "Q:0", "1000")]
    routes = [ev for ev in events if ev.kind == "route"]
    assert routes == [route for route in routes if route.stage == 3]
    assert routes[0].payload == {"threatened": "P:0", "to": "A1", "x": "0"}
    wiped = [ev for ev in events if ev.kind == "initialize" and ev.stage == 3]
    assert {ev.payload["block"] for ev in wiped} == {"Q:0", "P:1"}
    assert all(ev.payload["cause"] == "route" for ev in wiped)
    assert state["a1"] == [(3, 0)]
    # The stage-4 value 0 at x=0 stands: Q:0 is not initialized after it.
    last = [ev for ev in events if ev.kind == "define-local"][-1]
    assert (last.stage, last.payload["x"], last.payload["k"]) == (4, "0", "0")
    inits = [ev.stage for ev in events if ev.kind == "initialize" and ev.payload["block"] == "Q:0"]
    assert max(inits) == 3


def test_local_values_are_a_prefix(corpus):
    """Each requirement's define-local inputs since its last cancellation
    read 0, 1, 2, ... in trace order, which is what lets SacksRequirement
    keep its values as one list.  An initialize line cancels the owners
    on its block, read off the assignments the update lines replay."""
    docs = [row["doc"] for row in corpus["rows"] if row["construction"] == "sacks"]
    redefined = 0
    for doc in docs + [dense_sacks_doc(208)]:
        events, _ = run(load_scenario(doc))
        assignments = (PriorityAssignment([]), PriorityAssignment([]))
        defined = {}  # owner -> inputs defined since its last cancellation
        for ev in events:
            p = ev.payload
            if ev.kind == "define-local":
                owner = parse_label(p["req"])
                x = parse_int(p["x"])
                assert x == defined.get(owner, 0), (doc, ev)
                defined[owner] = x + 1
            elif ev.kind == "initialize":
                side, i = parse_label(p["block"])
                for owner in [o for o in defined if o[0] == side]:
                    if assignments[side].value(owner[1]) == i:
                        redefined += 1
                        del defined[owner]
            elif ev.kind == "assignment-update" and p["side"] != "none":
                assign = assignments[SIDE_LABEL.index(p["side"])]
                assign.update(ev.stage, parse_int(p["i"]), parse_int(p["tail"]))
    assert redefined > 100, redefined


def test_wake_rules_match_visiting_every_owner():
    """Skipping the owners whose inputs did not change must not change a byte."""
    docs = [generate(11, i, "sacks", 512) for i in range(200)]
    # Both kinds of D entry occur: scheduled lists and anti-delta policies.
    assert {type(doc["d"]) for doc in docs if doc["d"]} == {list, dict}
    for doc in docs + [dense_sacks_doc(208)]:
        sc = load_scenario(doc)
        reference = execute(sc, WakeEveryOwner)[2]
        assert render(run(sc)[0]) == render(reference), doc


def _axiom(x, k, stage):
    return {"theta": "", "x": x, "k": k, "stage": stage}


def _sacks_doc(horizon, d, functionals, b=()):
    return {
        "construction": "sacks",
        "horizon": horizon,
        "b": list(b),
        "d": d,
        "functionals": functionals,
    }


def test_axiom_above_the_reach_does_not_wake_and_one_at_it_does():
    # P:0 agrees with D up to input 0 at stage 0 and acts: it holds one
    # value, so its reach is 1.  The axiom at input 2 (stage 4) lies above it and
    # wakes nothing; the one at input 1 (stage 8) lies at it, and P:0
    # wakes and agrees up to input 2.
    axioms = [_axiom(0, 0, 0), _axiom(2, 0, 4), _axiom(1, 0, 8)]
    events, visits, _ = visits_against_reference(
        _sacks_doc(10, [], [{"side": 0, "e": 0, "axioms": axioms}])
    )
    assert visits == [(0, "P:0"), (8, "P:0")]
    assert [(ev.stage, ev.payload["ell"]) for ev in events if ev.kind == "expansionary"] == [
        (0, "0"), (8, "2")
    ]


def test_d_entry_above_the_reach_does_not_wake():
    # Scheduled: with reach 1 after stage 0, P:0 sleeps through D's entry
    # of 2 at stage 3 and wakes for the entry of 1 at stage 7.
    scheduled = _sacks_doc(10, [[3, 2], [7, 1]], [{"side": 0, "e": 0, "axioms": [_axiom(0, 0, 0)]}])
    assert visits_against_reference(scheduled)[1] == [(0, "P:0"), (8, "P:0")]
    # By the policy: P:1 defines input 1 as 0 at stage 4, so anti-delta
    # enumerates 1 at stage 5.  Q:0 never agrees with D (reach 0) and
    # P:0 has diagonalized (reach -1), so only P:1 wakes, and it
    # diagonalizes at stage 6.
    policy = _sacks_doc(10, {"policy": "anti-delta"}, [
        {"side": 0, "e": 0, "axioms": [_axiom(0, 0, 0)]},
        {"side": 1, "e": 0, "axioms": [_axiom(0, 0, 0)]},
        {"side": 0, "e": 1, "axioms": [_axiom(0, 1, 0), _axiom(1, 0, 0)]},
    ])
    events, visits, _ = visits_against_reference(policy)
    assert visits == [(0, "P:0"), (2, "P:0"), (4, "Q:0"), (4, "P:1"), (6, "P:1")]
    assert [(ev.stage, ev.payload["element"]) for ev in events if ev.payload.get("set") == "D"] == [
        (1, "0"), (5, "1")
    ]
    assert [(ev.stage, ev.payload["req"]) for ev in events if ev.kind == "diagonalize"] == [
        (2, "P:0"), (6, "P:1")
    ]


def test_diagonalized_owner_sleeps_until_its_block_is_initialized():
    # Q:0 defines inputs 0 and 1 at stage 2 and diagonalizes at stage 6,
    # after D's entry of 1 at stage 5.  From then on its reach is -1:
    # neither its axiom at input 0 (stage 8) nor D's entry of 2 (stage
    # 9) wakes it.  The stage-11 arrival of 0 threatens P:0, is deflected
    # into A1 and initializes Q:0's block, which wakes and resets Q:0.
    doc = _sacks_doc(12, [[5, 1], [9, 2]], [
        {"side": 0, "e": 0, "axioms": [_axiom(0, 0, 0)]},
        {"side": 1, "e": 0, "axioms": [_axiom(0, 0, 0), _axiom(1, 0, 0), _axiom(0, 0, 8)]},
    ], b=[[11, 0]])
    events, visits, _ = visits_against_reference(doc)
    assert visits == [(0, "P:0"), (2, "Q:0"), (6, "P:0"), (6, "Q:0"), (12, "Q:0")]
    assert [ev.stage for ev in events if ev.kind == "diagonalize"] == [6]
    inits = [(ev.stage, ev.payload["block"]) for ev in events if ev.kind == "initialize"]
    assert (11, "Q:0") in inits


def test_arrival_at_the_last_use_position_wakes():
    # Q:0 reads A1 at position 0 (use 1) and does nothing at stage 2.  P:1
    # acts at stage 2, so the stage-3 arrival of 0 is deflected into A1;
    # only blocks from Q:1 on are initialized, so Q:0 stays uncancelled
    # and must wake for the arrival at the last position of its use.
    doc = {
        "construction": "sacks",
        "horizon": 4,
        "b": [[3, 0]],
        "d": [],
        "functionals": [
            {"side": 0, "e": 1, "axioms": [{"theta": "", "x": 0, "k": 0, "stage": 0}]},
            {"side": 1, "e": 0, "axioms": [{"theta": "1", "x": 0, "k": 0, "stage": 0}]},
        ],
    }
    sc = load_scenario(doc)
    events, _ = run(sc)
    assert render(events) == render(execute(sc, WakeEveryOwner)[2])
    acts = [(ev.stage, ev.payload["req"]) for ev in events if ev.kind == "act"]
    assert acts == [(2, "P:1"), (4, "Q:0")]
    inits = {ev.payload["block"] for ev in events if ev.kind == "initialize"}
    assert "Q:0" not in inits


def test_due_orders_read_the_owner_index(monkeypatch):
    """Due blocks are BlockState.orders_of over the awake owners, read off
    the assignments' prefixes without a value call, and part two reads
    the assignment only for its stop order, two value calls, when some
    owner is due: a deterministic count of value calls, not a timing
    gate.  Mapping every awake owner through value per even stage made
    1,628 calls on this run, and computing the stop order and passing the
    owner blocks on every even stage 964; what is left is the stop
    order on the stages with a due owner and one read per assignment
    update: 222 while an axiom or a D entry at any input woke an owner,
    108 since only those at inputs up to its reach do.  Starting every
    owner asleep added the existence catch-up of each initialization,
    two calls for the last even stage's stop order (130), and skipping
    it once every owner's block exists leaves 82."""
    sc = load_scenario(dense_sacks_doc(208))
    calls = count_calls(monkeypatch, PriorityAssignment, "value")
    events, _ = run(sc)
    assert len(events) == 450
    assert len(calls) <= 82, len(calls)
