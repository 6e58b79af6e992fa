from itertools import groupby

import pytest
from hypothesis import given, strategies as st

from splitsim.engine import ConstructionInvariantError, Run
from splitsim.fuzz import generate
from splitsim.harness import run
from splitsim.model import (
    SIDE_LABEL,
    BlockState,
    PriorityAssignment,
    block_label,
    order_block,
    parse_label,
    priority_order,
    threatens,
)
from splitsim.sacks import SacksStrategy
from splitsim.scenario import load_scenario
from splitsim.trace import parse, render

from conftest import bench_module, count_calls, dense_sacks_doc, execute, quiet_tail_docs

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
        r = Run(sc)
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
    """Block dispatch must not scan the owners: a block's members are a
    slice of the sorted owners, found by bisection of the monotone
    assignment.  A deterministic count of PriorityAssignment.value calls
    per trace event, not a timing gate; a scan per visited block costs
    hundreds of calls per event here."""
    sc = load_scenario(dense_sacks_doc(208))
    calls = count_calls(monkeypatch, PriorityAssignment, "value")
    events, _ = run(sc)
    kinds = {ev.kind for ev in events}
    assert {"diagonalize", "initialize", "assignment-update"} <= kinds
    assert any(ev.kind == "assignment-update" and ev.payload["side"] != "none" for ev in events)
    assert len(calls) <= 10 * len(events), (len(calls), len(events))


def owner_state(strategy, owner):
    """The strategy state a run of owner reads its reach from."""
    if isinstance(strategy, SacksStrategy):
        req = strategy.requirements[owner]
        return list(req.values), req.diagonalized
    # GuessingIndices has no per-owner view, so copy the owner's entries.
    held = strategy.inputs._by_req.get(owner, {})
    guesses = {x: (j, frozenset(refused)) for x, (j, refused) in held.items()}
    return dict(strategy.locals.get(owner, {})), guesses


class PassCheckingRun(Run):
    """Checks the existence rule in the engine docstring, applied lazily,
    against an eager record of it.  The record maps every owner through
    its assignment after every even stage, before any update, and adds
    the block of each one whose order is at most that stage's bound (the
    stop order, or the acting block's order); it also holds every block
    initialized or restrained.  At each initialization the engine's
    existing blocks must equal the record, and its initialize lines must
    name the record's blocks from the floor on, in order.  After every
    part two and every update, each sleeping owner that has run sits on
    a block of the record.

    It also checks the premise the recorded reach rests on: a sleeping
    owner's strategy state is the one it fell asleep with, and a Sacks
    owner's recorded reach is the one its state gives.  Every owner
    starts asleep with reach 0, so one that never ran holds its start
    snapshot: the construction's initial state.  Only part two and the
    refresh pass change strategy state, so these checks cover every
    change.  held_state counts the sleepers checked that held a local
    value or definition, and existence_checks the initializations
    checked.  The run holds no construction, so the one it checks is the
    one execute is handed."""

    def __init__(self, scenario):
        self.record = set()
        self.recorded_to = -1  # the last stage whose rule the record holds
        self.ran = set()
        self.asleep_with = {}
        self.held_state = 0
        self.existence_checks = 0
        self.construction = None
        super().__init__(scenario)

    def execute(self, construction):
        self.construction = construction
        for owner in self.scenario.functionals:
            self.asleep_with[owner] = owner_state(construction, owner)
        return super().execute(construction)

    def sleep(self, owner, reach):
        super().sleep(owner, reach)
        self.ran.add(owner)
        self.asleep_with[owner] = owner_state(self.construction, owner)

    def _record_owner_blocks(self, bound):
        for side, assign in enumerate(self.assignments):
            for e in assign.owners:
                order = priority_order(side, assign.value(e))
                if order <= bound:
                    self.record.add(order)

    def _record_through(self, t):
        """Apply the rule at every even stage the record has not, up to t."""
        for u in range(self.recorded_to + 1, t + 1):
            if u % 2 == 0:
                self._record_owner_blocks(self._stop_order(u))
        self.recorded_to = max(self.recorded_to, t)

    def _check_sleepers(self):
        for owner in self.scenario.functionals:
            if owner in self.awake:
                continue
            side, e = owner
            if owner in self.ran:
                assert priority_order(side, self.assignments[side].value(e)) in self.record, owner
            state = owner_state(self.construction, owner)
            assert state == self.asleep_with[owner], (owner, state, self.asleep_with[owner])
            self.held_state += bool(state[0])
            if isinstance(self.construction, SacksStrategy):
                values, diagonalized = state
                assert self.reach[owner] == (-1 if diagonalized else len(values)), owner

    def set_restraint(self, side, i, s):
        self.record.add(priority_order(side, i))
        super().set_restraint(side, i, s)

    def initialize_block(self, side, i, s, cause):
        floor = priority_order(side, i)
        self._record_through(s - 1)
        if cause == "act":
            self._record_owner_blocks(floor - 1)
            self.recorded_to = s
        self.record.add(floor)
        first = len(self.events)
        super().initialize_block(side, i, s, cause)
        existing = sorted(self.record)
        assert self.blocks.orders == existing, s
        victims = [block_label(*order_block(o)) for o in existing if o >= floor]
        assert [ev.payload["block"] for ev in self.events[first:]] == victims, s
        self.existence_checks += 1

    def _part_two(self, s, construction):
        self._record_through(s - 1)
        super()._part_two(s, construction)
        self._record_through(s)
        self._check_sleepers()

    def _part_three(self, s):
        self._record_through(s)
        super()._part_three(s)
        self._check_sleepers()


def test_part_two_passes_only_existing_blocks_without_running_them():
    docs = [generate(11, i, c, 256) for c in ("sacks", "robinson") for i in range(100)]
    docs += [dense_sacks_doc(208), oracle_churn_doc(2026, 40)]
    initialized = 0
    held_state = {"sacks": 0, "robinson": 0}
    for doc in docs:
        r, _, events = execute(load_scenario(doc), PassCheckingRun)
        initialized += any(ev.kind == "initialize" for ev in events)
        updates = [ev for ev in events if ev.kind == "assignment-update"]
        assert r.existence_checks == sum(ev.payload["side"] != "none" for ev in updates)
        held_state[doc["construction"]] += r.held_state
    assert initialized > 50
    assert min(held_state.values()) > 0, held_state


def existence_misses(doc):
    """Replays block existence from doc's rendered and parsed trace with
    the kernel rule and returns (stages checked, misses).  Restraints
    come from restraint-set lines and initialized blocks from initialize
    lines; after an even stage's part two the rule advances to the
    acting block's order (its act lines) or else to the stop order,
    read off the replayed assignments, which assignment-update lines
    update and clamp.  At each stage with initialize lines, those lines
    must be existing_from(floor) of their initiator, in order, each
    naming it; a miss is (stage, lines, expected)."""
    sc = load_scenario(doc)
    blocks = BlockState(sc.functionals)
    assigns = blocks.assignments
    checked, misses = 0, []
    for s, lines in groupby(parse(render(run(sc)[0])), key=lambda ev: ev.stage):
        lines = list(lines)
        if s % 2 == 0:
            acts = [parse_label(ev.payload["block"]) for ev in lines if ev.kind == "act"]
            stop = min(2 * assigns[0].value(s), 2 * assigns[1].value(s) + 1)
            bound = max(priority_order(*blk) for blk in acts) if acts else stop
        inits = []
        for ev in lines:
            pay = ev.payload
            if ev.kind == "restraint-set":
                blocks.set_restraint(*parse_label(pay["block"]), int(pay["value"]))
            elif ev.kind == "initialize":
                inits.append((pay["block"], pay["initiator"]))
            elif ev.kind == "assignment-update":
                if s % 2 == 0:
                    blocks.advance(bound)
                if inits:
                    initiator = inits[0][1]
                    blocks.initialize(*parse_label(initiator))
                    floor = priority_order(*parse_label(initiator))
                    expected = [
                        (block_label(*order_block(o)), initiator)
                        for o in blocks.existing_from(floor)
                    ]
                    checked += 1
                    if inits != expected:
                        misses.append((s, inits, expected))
                if pay["side"] != "none":
                    side = SIDE_LABEL.index(pay["side"])
                    assigns[side].update(s, int(pay["i"]), int(pay["tail"]))
                    blocks.clamp(side, s)
    return checked, misses


def test_the_trace_decides_block_existence(corpus):
    """Existence is read off the trace alone: the stage, the act lines,
    the restraint-set lines and the assignment-update lines.  Over the
    corpus, two dense horizons and four churn horizons, every stage's
    initialize lines are the existing blocks from their initiator's
    order on, replayed with the rule."""
    docs = [row["doc"] for row in corpus["rows"]]
    docs += [dense_sacks_doc(208), dense_sacks_doc(416)]
    docs += [oracle_churn_doc(2026, h) for h in range(40, 44)]
    checked = 0
    for doc in docs:
        stages, misses = existence_misses(doc)
        assert misses == [], misses[:3]
        checked += stages
    assert checked > 1000, checked


def test_quiet_stages_cost_no_block_work(monkeypatch):
    """A stage where nothing is due maps no owner to its block and reads
    no assignment: a deterministic count of BlockState.orders_of and
    PriorityAssignment.value calls, which must not grow with the quiet
    stages a longer horizon adds."""
    calls = {
        "orders_of": count_calls(monkeypatch, BlockState, "orders_of"),
        "value": count_calls(monkeypatch, PriorityAssignment, "value"),
    }
    for short, long in zip(quiet_tail_docs(12), quiet_tail_docs(2000)):
        for entries in calls.values():
            entries.clear()
        events, _ = run(load_scenario(short))
        work = {k: len(entries) for k, entries in calls.items()}
        busy = {ev.stage for ev in events if ev.payload != {"side": "none"}}
        assert max(busy) <= 12 and work["value"] > 0, (busy, work)
        for entries in calls.values():
            entries.clear()
        long_events, _ = run(load_scenario(long))
        assert len(long_events) == len(events) + 2000 - 12
        assert {k: len(entries) for k, entries in calls.items()} == work
