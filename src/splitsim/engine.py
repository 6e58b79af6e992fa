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

Block dispatch (part two) runs only the blocks the strategy reports as
due, in priority order, up to the stop order or the first block that
acts.  A block that is not due would do nothing if it ran: the Sacks
strategy reports the blocks of the owners that have not run since their
inputs last changed (its wake rules), the Robinson strategy every owner
block.
Requirements that own no functional table can never act, define nothing
and hold no state, so only blocks holding table owners are ever due.
Run.owner_orders lists those blocks in priority order, and
Run.order_of_owner sends each owner (side, e) to its block's priority
order; both are read off each assignment's membership index
(PriorityAssignment.blocks) and rebuilt only when part three updates an
assignment.

Block state is the one map model.route reads: Run.restraint sends each
block that exists, keyed by its address (side, i), to its restraint, -1
for none.  A block comes into existence when it is first initialized, or
when part two first passes it: every owner block up to the stop order,
or up to the acting block, exists after part two, due or not.  It never
leaves the map.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict

from .model import (
    SIDE_LABEL,
    Cones,
    PriorityAssignment,
    block_label,
    order_block,
    priority_order,
    route,
)
from .trace import TraceEvent, event


class ConstructionInvariantError(RuntimeError):
    """An internal invariant of the construction failed during a run."""


class Run:
    """One deterministic execution of a scenario over its horizon."""

    def __init__(self, scenario, strategy):
        self.scenario = scenario
        self.horizon = scenario.horizon
        self.strategy = strategy
        self.b_by_stage = {s: x for s, x in scenario.b_schedule.entries}
        self.c_cones = Cones(scenario.c_schedule.entry_stage())
        self.d_entry = dict(scenario.d_schedule.entry_stage())
        self.a_cones = (Cones(), Cones())
        self.restraint: dict[tuple[int, int], int] = {}
        self.assignments = tuple(
            PriorityAssignment(e for owner_side, e in strategy.owners if owner_side == side)
            for side in (0, 1)
        )
        self._index_owner_blocks()
        self.events: list[TraceEvent] = []
        self.pending_scans = 0
        self.unsettled = False
        self._init_target: tuple[int, int, int] | None = None
        # Anti-delta's queue of D enumerations, oldest first.
        self._pending_d: OrderedDict[int, None] = OrderedDict()
        self._d_budget = scenario.d_policy_limit if scenario.d_policy else 0
        strategy.bind(self)

    # -- plumbing ---------------------------------------------------------

    def emit(self, ev: TraceEvent) -> None:
        self.events.append(ev)

    def define_local(self, s: int, x: int, k: int, **payload) -> None:
        """Record a strategy's local value k at input x.

        The anti-delta policy queues x for D whenever the value is 0.
        Arrivals beyond the horizon could never be scheduled, so the
        policy leaves such definitions alone.
        """
        self.emit(event(s, "define-local", k=k, x=x, **payload))
        if (
            k == 0
            and self.scenario.d_policy == "anti-delta"
            and x < self.horizon
            and x not in self.d_entry
        ):
            self._pending_d[x] = None

    def set_restraint(self, side: int, i: int, s: int) -> None:
        if self.restraint[(side, i)] == s:
            return
        self.restraint[(side, i)] = s
        self.emit(event(s, "restraint-set", block=block_label(side, i), value=s))

    # -- stage parts ------------------------------------------------------

    def execute(self) -> list[TraceEvent]:
        for s in range(self.horizon + 1):
            if s % 2 == 1:
                self._policy_enumerations(s)
                self._part_one(s)
            else:
                self._part_two(s)
            self.strategy.refresh_pass(s)
            self._part_three(s)
        return self.events

    def _policy_enumerations(self, s: int) -> None:
        while self._pending_d and self._d_budget != 0:
            x, _ = self._pending_d.popitem(last=False)
            self.d_entry[x] = s
            if self._d_budget > 0:
                self._d_budget -= 1
            self.emit(event(s, "enumerate", element=x, set="D"))

    def _part_one(self, s: int) -> None:
        x = self.b_by_stage.get(s)
        if x is None:
            return
        threatened, half, init = route(x, self.restraint)
        label = "-" if threatened is None else block_label(*threatened)
        self.emit(event(s, "route", threatened=label, to="A%d" % half, x=x))
        self._enumerate_half(half, x, s)
        if init is not None:
            self.initialize_block(*init, s, cause="route")

    def _enumerate_half(self, side: int, x: int, s: int) -> None:
        if x in self.a_cones[0].entry or x in self.a_cones[1].entry:
            raise ConstructionInvariantError("element %d routed twice" % x)
        self.a_cones[side].arrive(x, s)
        self.emit(event(s, "enumerate", element=x, set="A%d" % side))

    def _index_owner_blocks(self) -> None:
        self.order_of_owner = {
            (side, e): priority_order(side, i)
            for side in (0, 1)
            for i, members in self.assignments[side].blocks.items()
            for e in members
        }
        self.owner_orders = sorted(set(self.order_of_owner.values()))
        # owner_orders[:_passed] are known to exist in restraint.
        self._passed = 0

    def _pass_blocks(self, upto: int) -> None:
        """Bring every owner block of priority order at most upto into existence."""
        end = bisect_right(self.owner_orders, upto)
        for order in self.owner_orders[self._passed:end]:
            self.restraint.setdefault(order_block(order), -1)
        self._passed = max(self._passed, end)

    def _part_two(self, s: int) -> None:
        stop_order = min(
            2 * self.assignments[0].value(s),
            2 * self.assignments[1].value(s) + 1,
        )
        for order in self.strategy.due_orders(s):
            if order > stop_order:
                break
            self._pass_blocks(order)
            if self.strategy.run_block(*order_block(order), s):
                self.initialize_block(*order_block(order + 1), s, cause="act")
                return
        self._pass_blocks(stop_order)

    def block_members(self, side: int, i: int) -> tuple[int, ...]:
        """Table-owning requirement indices currently assigned to block (side, i)."""
        return self.assignments[side].members(i)

    def initialize_block(self, side: int, i: int, s: int, cause: str) -> None:
        """Initialize block (side, i) and everything of lower priority."""
        self.restraint.setdefault((side, i), -1)
        floor = priority_order(side, i)
        if self._init_target is None or floor < self._init_target[0]:
            self._init_target = (floor, side, i)
        initiator = block_label(side, i)
        orders = (priority_order(*blk) for blk in self.restraint)
        for order in sorted(o for o in orders if o >= floor):
            blk = order_block(order)
            self.restraint[blk] = -1
            for e in self.block_members(*blk):
                self.strategy.cancel_requirement(blk[0], e, s)
            self.emit(
                event(s, "initialize", block=block_label(*blk), cause=cause, initiator=initiator)
            )

    def _part_three(self, s: int) -> None:
        if self._init_target is None:
            self.emit(event(s, "assignment-update", side="none"))
            return
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
        self._index_owner_blocks()
        self.emit(event(s, "assignment-update", i=i, side=SIDE_LABEL[side], tail=m))

    # -- results ----------------------------------------------------------

    def final_state(self) -> dict:
        # The strategy may discover late disagreement between p and the
        # cone truth and flip unsettled, so let it look first.
        self.strategy.final_state()
        return {
            "a0": sorted((s, x) for x, s in self.a_cones[0].entry.items()),
            "a1": sorted((s, x) for x, s in self.a_cones[1].entry.items()),
            "d": sorted((s, x) for x, s in self.d_entry.items()),
            "assignment_p": self.assignments[0].snapshot_values(self.horizon),
            "assignment_q": self.assignments[1].snapshot_values(self.horizon),
            "pending_scans": self.pending_scans,
            "unsettled": self.unsettled,
        }
