import pytest
from hypothesis import given, strategies as st

from splitsim.engine import ConstructionInvariantError, Run
from splitsim.fuzz import generate
from splitsim.harness import build_strategy, run
from bisect import bisect_right

from splitsim.model import (
    BlockState,
    PriorityAssignment,
    block_label,
    order_block,
    priority_order,
    threatens,
)
from splitsim.sacks import SacksStrategy
from splitsim.scenario import load_scenario

from conftest import bench_module, dense_sacks_doc

oracle_churn_doc = bench_module("workloads").oracle_churn_doc


def test_priority_order_interleaving():
    assert [priority_order(s, i) for i in range(3) for s in (0, 1)] == [0, 1, 2, 3, 4, 5]
    assert order_block(0) == (0, 0)
    assert order_block(1) == (1, 0)
    assert order_block(5) == (1, 2)
    for order in range(20):
        assert priority_order(*order_block(order)) == order
    with pytest.raises(ValueError):
        priority_order(2, 0)
    with pytest.raises(ValueError):
        priority_order(0, -1)


def test_block_labels():
    assert block_label(0, 3) == "P:3"
    assert block_label(1, 0) == "Q:0"


def test_threatens():
    assert threatens(0, 0)
    assert threatens(3, 5)
    assert not threatens(6, 5)
    assert not threatens(0, -1)  # no restraint held


def test_assignment_starts_as_identity():
    assign = PriorityAssignment([])
    assert [assign.value(e) for e in range(5)] == [0, 1, 2, 3, 4]
    assert assign.snapshot_values(4) == [0, 1, 2, 3, 4]
    assert assign.snapshot_values(-1) == []
    assert assign.tail(3) == 3
    with pytest.raises(ValueError):
        assign.value(-1)


def test_assignment_update_golden():
    # At stage 5, block 1 is initialized with tail 1: indices 2..5 are
    # pulled onto block 1 and everything past the stage keeps unit slope.
    assign = PriorityAssignment([])
    m = assign.tail(1)
    assert m == 1
    assign.update(5, 1, m)
    assert assign.snapshot_values(8) == [0, 1, 1, 1, 1, 1, 2, 3, 4]
    assert assign.tail(1) == 5
    # A later update of block 1 at stage 6 stretches the plateau.
    assign.update(6, 1, assign.tail(1))
    assert assign.snapshot_values(8) == [0, 1, 1, 1, 1, 1, 1, 2, 3]


def test_assignment_update_guards():
    # The assignment itself applies any claim without raising, as the
    # verifier's replay needs; a tail beyond the stage pulls nothing.
    assign = PriorityAssignment([])
    assign.update(2, 4, 4)
    assert assign.snapshot_values(6) == [0, 1, 2, 3, 4, 5, 6]
    assign.update(5, 1, 1)
    assert assign.tail(0) == 0
    assert assign.tail(2) == 6  # unit-slope extension past the plateau
    # Legal updates never leave gaps; an empty preimage only shows on a
    # hand-corrupted representation.
    assign.prefix = [0, 2]
    assert assign.tail(1) is None
    # The engine guards its own updates at the end of each stage.
    sc = load_scenario(_doc(8))
    cases = (
        ([0], None, 4, 2, "exceeds stage"),
        ([0, 1, 1, 1, 1, 1], 6, 3, 7, "not on the target block"),
        ([0, 2], None, 1, 4, "empty preimage"),
    )
    for prefix, forced_tail, i, s, message in cases:
        r = Run(sc, build_strategy(sc))
        r.assignments[0].prefix = prefix
        if forced_tail is not None:
            r.assignments[0].tail = lambda i, m=forced_tail: m
        r._init_target = (priority_order(0, i), 0, i)
        with pytest.raises(ConstructionInvariantError, match=message):
            r._part_three(s)


@given(st.lists(st.integers(0, 6), min_size=0, max_size=8))
def test_assignment_updates_never_increase(blocks):
    """Pointwise monotonicity: every legal update only pulls values down."""
    assign = PriorityAssignment([])
    s = 0
    for i in blocks:
        s += 1
        m = assign.tail(i)
        if m is None or m > s:
            continue
        before = assign.snapshot_values(20)
        assign.update(s, i, m)
        after = assign.snapshot_values(20)
        assert after == [assign.value(e) for e in range(21)]
        assert all(b <= a for b, a in zip(after, before))
        # Representation invariants: nondecreasing, unit steps, starts at 0.
        assert after[0] == 0
        assert all(0 <= y - x <= 1 for x, y in zip(after, after[1:]))


def _doc(horizon, construction="sacks", **extra):
    doc = {
        "construction": construction,
        "horizon": horizon,
        "b": [],
        "d": [],
        "functionals": [],
    }
    doc.update(extra)
    return doc


def test_empty_scenario_runs_quietly():
    events, state = run(load_scenario(_doc(6)))
    kinds = [ev.kind for ev in events]
    assert kinds == ["assignment-update"] * 7
    assert all(ev.payload == {"side": "none"} for ev in events)
    assert state["a0"] == [] and state["a1"] == []
    assert state["assignment_p"] == list(range(7))


def test_single_arrival_routes_to_a0():
    events, state = run(load_scenario(_doc(8, b=[[1, 5]])))
    routes = [ev for ev in events if ev.kind == "route"]
    assert len(routes) == 1
    assert routes[0].payload == {"threatened": "-", "to": "A0", "x": "5"}
    assert state["a0"] == [(1, 5)]


def test_block_dispatch_reads_the_membership_index(monkeypatch):
    """Block dispatch must not scan the owners: a deterministic count of
    PriorityAssignment.value calls per trace event, not a timing gate.
    A scan per visited block costs hundreds of calls per event here."""
    sc = load_scenario(dense_sacks_doc(208))
    calls = 0
    value = PriorityAssignment.value

    def counting_value(self, e):
        nonlocal calls
        calls += 1
        return value(self, e)

    monkeypatch.setattr(PriorityAssignment, "value", counting_value)
    events, _ = run(sc)
    kinds = {ev.kind for ev in events}
    assert {"diagonalize", "initialize", "assignment-update"} <= kinds
    assert any(ev.kind == "assignment-update" and ev.payload["side"] != "none" for ev in events)
    assert calls <= 10 * len(events), (calls, len(events))


def test_block_state_work_is_bounded_per_event(monkeypatch):
    """Routing, initialization and updates cost their output, not every
    block: a deterministic count of block-state work per trace event, not
    a timing gate.  Work is stack pops, victims visited (the existing
    blocks an initialization hands back, and the restraints it clears)
    and owners re-indexed (those an update moves inside either prefix).
    Before the kernel's block state, this run's routes scanned every
    existing block (81,068 visits), its initializations sorted every
    existing block (19,344) and its updates re-indexed every owner
    (29,432): 129,844 in all over 1,765 events, about 74 per event.
    With the block state it is 196: no stack pops (the run sets one
    restraint, and a route is a bisection of the stack), 93 victims (one
    per initialize line) and 103 owners re-indexed."""
    sc = load_scenario(dense_sacks_doc(832))
    work = {"pops": 0, "victims": 0, "reindexed": 0}
    pop, initialize, existing_from = BlockState._pop, BlockState.initialize, BlockState.existing_from
    update = PriorityAssignment.update

    def counting_pop(self, order):
        before = len(self._stack_orders)
        pop(self, order)
        work["pops"] += before - len(self._stack_orders)

    def counting_initialize(self, side, i):
        before = len(self._live)
        initialize(self, side, i)
        work["victims"] += before - len(self._live)

    def counting_existing_from(self, order):
        victims = existing_from(self, order)
        work["victims"] += len(victims)
        return victims

    def counting_update(self, s, i, m):
        old_len = len(self.prefix)
        update(self, s, i, m)
        lo, hi = min(m, old_len - 1), max(old_len, len(self.prefix)) - 1
        work["reindexed"] += bisect_right(self.owners, hi) - bisect_right(self.owners, lo)

    monkeypatch.setattr(BlockState, "_pop", counting_pop)
    monkeypatch.setattr(BlockState, "initialize", counting_initialize)
    monkeypatch.setattr(BlockState, "existing_from", counting_existing_from)
    monkeypatch.setattr(PriorityAssignment, "update", counting_update)
    events, _ = run(sc)
    assert len(events) == 1765
    assert {"route", "initialize", "restraint-set"} <= {ev.kind for ev in events}
    assert sum(work.values()) <= len(events), work


def test_sacks_dispatch_visits_only_awake_owners(monkeypatch):
    """Part two runs a Sacks owner only after one of its inputs changed:
    a deterministic count of requirement visits per trace event, not a
    timing gate.  Visiting every owner up to the stop order on every even
    stage costs about 11 visits per event here."""
    sc = load_scenario(dense_sacks_doc(208))
    visits = 0
    run_requirement = SacksStrategy.run_requirement

    def counting_run_requirement(self, req, i, s):
        nonlocal visits
        visits += 1
        return run_requirement(self, req, i, s)

    monkeypatch.setattr(SacksStrategy, "run_requirement", counting_run_requirement)
    events, _ = run(sc)
    assert any(ev.kind == "diagonalize" for ev in events)
    assert visits <= 2 * len(events), (visits, len(events))


class PassCheckingRun(Run):
    """Checks the lemma in the engine docstring: after every part two and
    every update, each sleeping owner sits on an existing block, and after
    a part two each owner block up to the stop order, or up to the acting
    block, exists.  Between those points owners only wake and blocks only
    come into existence, so the lemma holds at every stage, quiet ones
    (where part two is not called) included."""

    def _check_sleepers(self):
        for side, e in self.strategy.owners:
            if (side, e) not in self.awake:
                assert (side, self.assignments[side].value(e)) in self.blocks.restraint, (side, e)

    def _part_two(self, s):
        stop = min(2 * self.assignments[0].value(s), 2 * self.assignments[1].value(s) + 1)
        super()._part_two(s)
        self._check_sleepers()
        passed = stop if self._init_target is None else self._init_target[0] - 1
        for side, assign in enumerate(self.assignments):
            for e in assign.owners:
                i = assign.value(e)
                if priority_order(side, i) <= passed:
                    assert (side, i) in self.blocks.restraint, (s, side, e, i)

    def _part_three(self, s):
        super()._part_three(s)
        self._check_sleepers()


def test_part_two_passes_only_existing_blocks_without_running_them():
    docs = [generate(11, i, c, 256) for c in ("sacks", "robinson") for i in range(100)]
    docs += [dense_sacks_doc(208), oracle_churn_doc(2026, 40)]
    initialized = 0
    for doc in docs:
        sc = load_scenario(doc)
        events = PassCheckingRun(sc, build_strategy(sc)).execute()
        initialized += any(ev.kind == "initialize" for ev in events)
    assert initialized > 50


def _quiet_tail_docs(horizon):
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


def test_quiet_stages_cost_no_block_work(monkeypatch):
    """A stage where nothing is due maps no owner to its block and reads
    no assignment: a deterministic count of BlockState.orders_of and
    PriorityAssignment.value calls, which must not grow with the quiet
    stages a longer horizon adds."""
    calls = {"orders_of": 0, "value": 0}
    orders_of, value = BlockState.orders_of, PriorityAssignment.value

    def counting_orders_of(self, owners):
        calls["orders_of"] += 1
        return orders_of(self, owners)

    def counting_value(self, e):
        calls["value"] += 1
        return value(self, e)

    monkeypatch.setattr(BlockState, "orders_of", counting_orders_of)
    monkeypatch.setattr(PriorityAssignment, "value", counting_value)
    for short, long in zip(_quiet_tail_docs(12), _quiet_tail_docs(2000)):
        before = dict(calls)
        events, _ = run(load_scenario(short))
        work = {k: calls[k] - before[k] for k in calls}
        busy = {ev.stage for ev in events if ev.payload != {"side": "none"}}
        assert max(busy) <= 12 and work["value"] > 0, (busy, work)
        before = dict(calls)
        long_events, _ = run(load_scenario(long))
        assert len(long_events) == len(events) + 2000 - 12
        assert {k: calls[k] - before[k] for k in calls} == work
