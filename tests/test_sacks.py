import json
from pathlib import Path

from splitsim.engine import Run
from splitsim.fuzz import generate
from splitsim.harness import run
from splitsim.model import Axiom, Cones, FunctionalTable, PriorityAssignment, agreement_length
from splitsim.sacks import SacksStrategy, is_expansionary
from splitsim.scenario import load_scenario
from splitsim.trace import render

from conftest import dense_sacks_doc

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
    assert is_expansionary(0, -1)
    assert not is_expansionary(-1, -1)
    assert is_expansionary(3, 2)
    assert not is_expansionary(2, 2)


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


class WakeEveryOwner(SacksStrategy):
    """Reference dispatch without wake rules: every owner is due at every stage."""

    def due_orders(self, s):
        self.awake.update(self.owners)
        return super().due_orders(s)


def test_wake_rules_match_visiting_every_owner():
    """Skipping the owners whose inputs did not change must not change a byte."""
    docs = [generate(11, i, "sacks", 512) for i in range(200)]
    # Both kinds of D entry occur: scheduled lists and anti-delta policies.
    assert {type(doc["d"]) for doc in docs if doc["d"]} == {list, dict}
    for doc in docs + [dense_sacks_doc(208)]:
        sc = load_scenario(doc)
        reference = Run(sc, WakeEveryOwner(sc.functionals)).execute()
        assert render(run(sc)[0]) == render(reference), doc


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
    assert render(events) == render(Run(sc, WakeEveryOwner(sc.functionals)).execute())
    acts = [(ev.stage, ev.payload["req"]) for ev in events if ev.kind == "act"]
    assert acts == [(2, "P:1"), (4, "Q:0")]
    inits = {ev.payload["block"] for ev in events if ev.kind == "initialize"}
    assert "Q:0" not in inits


def test_due_orders_read_the_owner_index(monkeypatch):
    """Due blocks come from Run.order_of_owner, rebuilt only when an
    assignment updates, not from PriorityAssignment.value per awake owner
    per even stage: a deterministic count of value calls, not a timing
    gate.  Mapping every awake owner made 1,628 calls on this run; what
    is left (964) is the stop order, two per even stage, and one per owner
    of the updated side at each membership index rebuild."""
    sc = load_scenario(dense_sacks_doc(208))
    calls = 0
    value = PriorityAssignment.value

    def counting_value(self, e):
        nonlocal calls
        calls += 1
        return value(self, e)

    monkeypatch.setattr(PriorityAssignment, "value", counting_value)
    events, _ = run(sc)
    assert len(events) == 450
    assert calls <= 1000, calls
