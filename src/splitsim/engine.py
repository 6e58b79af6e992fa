"""Priority-block engine: the stage loop shared by both constructions.

A run splits the arrivals of one enumeration B into two halves A0 and A1
under the control of priority blocks.  Side-0 blocks group the
requirements that restrain A0, side-1 blocks the ones that restrain A1,
and the two families interleave in priority order

    order(side, i) = 2 * i + side

so block (0, 0) is strongest, then (1, 0), then (0, 1), and so on.

Each stage has up to three parts.  Odd stages route the stage's B-arrival
(if any): the arrival is deflected away from the strongest block whose
restraint it would violate, and the next-weaker block on the receiving
side is initialized, together with everything below it.  Even stages let
blocks act in priority order, stopping at the first block that contains
the stage-indexed requirement of either family, or early as soon as some
requirement in a block acts.  Every stage ends by updating the dynamic
assignment of requirements to blocks, driven by the strongest block
initialized during the stage; requirement indices above the tail of that
block are pulled down onto it, and the indices beyond the current stage
keep unit spacing, so assignments only ever decrease pointwise.

Ownership points one way.  A Run is built from its scenario alone and
reads the table owners off scenario.functionals.  The construction (a
strategy) is built over the run and holds it, along with every piece of
state only it reads; the run holds no construction and is handed it by
execute and final_state.

Block dispatch (part two) runs only the blocks that hold awake owners,
in priority order, up to the stop order or the first block that acts,
and in them only the awake owners.  Requirements that own no functional
table can never act, define nothing and hold no state, so only table
owners are tracked.  The wake record (model.WakeRecord, Run.wakes)
states when an owner is awake; the run calls it at each event, and a
strategy puts an owner to sleep on it with the reach its run computed.
Every change of a stage lands before part two runs (scheduled wakes at
the stage's start, the policy and arrivals at odd stages), so a run
never misses one made at its own stage.

Part two reads the due orders, the blocks of the awake owners, off the
assignments each time it runs.  Only an initialization cancels
requirements or moves the assignment.  The engine collects the owners
an initialization cancels and hands them to the construction once, at
the end of the stage, ascending by (side, e): its refresh_pass(s,
cancelled) resets them.  No requirement runs between a cancellation and
the end of its stage (part one runs none, and part two stops at its
first initialization), so the reset may wait.  The refresh pass and the
update run only at a stage with an initialization.  Every trace line,
the engine's and the strategies', is appended to Run.events as it is
made.  A stage where nothing is due costs its one trace line: the loop
skips the D policy and routing when they have nothing to do, part two
returns at once, and the quiet update line is one bare tuple.__new__
TraceEvent over one shared read-only payload.

Block state is one model.BlockState (Run.blocks), the same type the
verifier replays.  Its restraint map is the record: it sends each block
that exists, keyed by its address (side, i), to its restraint, -1 for
none.  Routing is the state's bisection of its restraint stack, the
victims of an initialization are a slice of its sorted existing blocks,
and block membership and each owner's block are read off its
assignments: a block's owners by bisection of the monotone map.
A block comes into existence when it is first initialized, first
restrained, or by the state's rule: after part two at an even stage,
every owner block of order at most the stop order, or at most the
acting block's order if a block acts, exists.  Part two adds no block.
Only initialize_block reads existence (existing_from(floor)), so the
engine applies the rule just before that read.  The assignment changes
only at an update, and between updates the stop order never decreases,
so what is owed is every owner block up to the stop order of the last
even stage since the last update, and, when an act causes the
initialization, up to the acting block; part three clamps the rule
after its update.  So a quiet stage still costs its one line.  Every
owner asleep after a run sits on a block that exists once the rule has
caught up: it ran in a block the rule holds, and an update moves only
owners weaker than the stage's initialized block, of which those on
existing blocks were cancelled by that initialization and so woken.
"""

from __future__ import annotations

from collections import OrderedDict
from types import MappingProxyType

from .model import (
    SIDE_LABEL,
    BlockState,
    Cones,
    PriorityAssignment,  # annotation only; bench/spans.py wraps engine.PriorityAssignment.update
    WakeRecord,
    block_label,
    order_block,
    priority_order,
)
from .trace import TraceEvent, event


# The payload every quiet update line shares.
_QUIET = MappingProxyType({"side": "none"})


class ConstructionInvariantError(RuntimeError):
    """An internal invariant of the construction failed during a run."""


class Run:
    """One deterministic execution of a scenario over its horizon."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.horizon = scenario.horizon
        tables = scenario.functionals
        self.b_by_stage = {s: x for s, x in scenario.b_schedule.entries}
        self.d_entry = scenario.d_schedule.entry_stage()
        self.a_cones = (Cones(), Cones())
        self.blocks = BlockState(tables)
        self.assignments: tuple[PriorityAssignment, ...] = self.blocks.assignments
        self.events: list[TraceEvent] = []
        self._init_target: tuple[int, int, int] | None = None
        self._cancelled: set[tuple[int, int]] = set()  # owners cancelled this stage
        # Anti-delta's queue of D enumerations, oldest first.
        self._pending_d: OrderedDict[int, None] = OrderedDict()
        self._d_budget = scenario.d_limit  # enumerations left; -1 for no limit
        self.wakes = WakeRecord(scenario)
        self._updated = -1  # the stage of the last assignment update

    # -- plumbing ---------------------------------------------------------

    def define_local(self, s: int, x: int, k: int, **payload) -> None:
        """Record a strategy's local value k at input x.

        The anti-delta policy queues x for D whenever the value is 0,
        while its budget is not spent: a spent budget never drains the
        queue.  Arrivals beyond the horizon could never be scheduled, so
        the policy leaves such definitions alone.
        """
        self.events.append(event(s, "define-local", k=k, x=x, **payload))
        if k == 0 and self._d_budget != 0 and x < self.horizon and x not in self.d_entry:
            self._pending_d[x] = None

    def set_restraint(self, side: int, i: int, s: int) -> None:
        if self.blocks.set_restraint(side, i, s):
            self.events.append(event(s, "restraint-set", block=block_label(side, i), value=s))

    # -- stage parts ------------------------------------------------------

    def execute(self, construction) -> list[TraceEvent]:
        events, b_by_stage, wakes = self.events, self.b_by_stage, self.wakes
        schedule, awake = wakes.schedule, wakes.awake
        for s in range(self.horizon + 1):
            if s in schedule:
                wakes.stage(s)
            if s % 2 == 1:
                if self._pending_d and self._d_budget != 0:
                    self._policy_enumerations(s)
                if s in b_by_stage:
                    self._part_one(s, b_by_stage[s])
            elif awake:
                self._part_two(s, construction)
            # Only an initialization cancels, so only then is there
            # anything to refresh or update.
            if self._init_target is None:
                events.append(tuple.__new__(TraceEvent, (s, "assignment-update", _QUIET)))
            else:
                cancelled, self._cancelled = sorted(self._cancelled), set()
                construction.refresh_pass(s, cancelled)
                self._part_three(s)
        return events

    def _policy_enumerations(self, s: int) -> None:
        least = self.horizon
        while self._pending_d and self._d_budget != 0:
            x, _ = self._pending_d.popitem(last=False)
            self.d_entry[x] = s
            least = min(least, x)
            if self._d_budget > 0:
                self._d_budget -= 1
            self.events.append(event(s, "enumerate", element=x, set="D"))
        self.wakes.d_entry(least)

    def _part_one(self, s: int, x: int) -> None:
        threatened, half, init = self.blocks.route(x)
        label = "-" if threatened is None else block_label(*threatened)
        self.events.append(event(s, "route", threatened=label, to="A%d" % half, x=x))
        self._enumerate_half(half, x, s)
        if init is not None:
            self.initialize_block(*init, s, cause="route")

    def _enumerate_half(self, side: int, x: int, s: int) -> None:
        if x in self.a_cones[0].entry or x in self.a_cones[1].entry:
            raise ConstructionInvariantError("element %d routed twice" % x)
        self.a_cones[side].arrive(x, s)
        self.events.append(event(s, "enumerate", element=x, set="A%d" % side))
        self.wakes.arrival(side, x)

    def _stop_order(self, s: int) -> int:
        """The order of the block holding the stage-indexed requirement of either family."""
        return min(2 * self.assignments[0].value(s), 2 * self.assignments[1].value(s) + 1)

    def _part_two(self, s: int, construction) -> None:
        stop_order = self._stop_order(s)
        for order in self.blocks.orders_of(self.wakes.awake):
            if order > stop_order:
                return
            side, i = order_block(order)
            if construction.run_block(side, i, s):
                self.initialize_block(*order_block(order + 1), s, cause="act")
                return

    def block_members(self, side: int, i: int) -> tuple[int, ...]:
        """Table-owning requirement indices currently assigned to block (side, i)."""
        return self.assignments[side].members(i)

    def initialize_block(self, side: int, i: int, s: int, cause: str) -> None:
        """Initialize block (side, i) and everything of lower priority."""
        floor = priority_order(side, i)
        # Existence catches up (module docstring): the last even stage
        # since the last update passed up to its stop order, and an act
        # passed up to its own block.  Once every owner's block exists
        # there is nothing left to add.
        if not self.blocks.caught_up():
            bound = floor - 1 if cause == "act" else -1
            last_even = s - 2 + s % 2
            if last_even > self._updated:
                bound = max(bound, self._stop_order(last_even))
            self.blocks.advance(bound)
        if self._init_target is None or floor < self._init_target[0]:
            self._init_target = (floor, side, i)
        initiator = block_label(side, i)
        self.blocks.initialize(side, i)
        for order in self.blocks.existing_from(floor):
            blk = order_block(order)
            cancelled = [(blk[0], e) for e in self.block_members(*blk)]
            self._cancelled.update(cancelled)
            self.wakes.cancel(cancelled)
            self.events.append(
                event(s, "initialize", block=block_label(*blk), cause=cause, initiator=initiator)
            )

    def _part_three(self, s: int) -> None:
        _, side, i = self._init_target
        self._init_target = None
        assign = self.assignments[side]
        m = assign.tail(i)
        if m is None:
            raise ConstructionInvariantError("block %d has an empty preimage" % i)
        if m > s:
            raise ConstructionInvariantError(
                "tail %d of freshly initialized block exceeds stage %d" % (m, s)
            )
        if assign.value(m) != i:
            raise ConstructionInvariantError("update tail is not on the target block")
        assign.update(s, i, m)
        self.blocks.clamp(side, s)
        self._updated = s
        self.events.append(event(s, "assignment-update", i=i, side=SIDE_LABEL[side], tail=m))

    # -- results ----------------------------------------------------------

    def final_state(self, construction) -> dict:
        pending_scans, unsettled = construction.final_state()
        return {
            "a0": sorted((s, x) for x, s in self.a_cones[0].entry.items()),
            "a1": sorted((s, x) for x, s in self.a_cones[1].entry.items()),
            "d": sorted((s, x) for x, s in self.d_entry.items()),
            "assignment_p": self.assignments[0].snapshot_values(self.horizon),
            "assignment_q": self.assignments[1].snapshot_values(self.horizon),
            "pending_scans": pending_scans,
            "unsettled": unsettled,
        }
