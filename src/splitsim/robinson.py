"""Oracle-splitting strategies: certification before every definition.

The refinement works against binary functionals over a half of the split
joined with a third enumeration C, and builds local functionals relative
to C.  A computation may only be copied into a local functional after it
is certified: its C-side string sigma is enumerated into the guessing set
of a per-input index j (unless C already lies in one of the set's cones),
and the stage scans forward for the first moment that either C leaves the
cone of sigma (refusal) or the external approximation p answers 1 for j
(certification).  The scan happens inside the stage against the
pre-specified C schedule and p policy, both oblivious to the run, so a
run remains a pure function of its scenario.

Each input keeps one record (InputState): its guessing index, its
refusal memos and its local definition (k, death).  death is the stage
at which C leaves sigma's cone (None: never), read off its lifetime in
Run.c_cones, so the definition is live at stage s iff death is None or
s < death, and it dies with its requirement on initialization.  A
refusal memo suppresses re-certification of a string whose future cone
exit is already known.

Injury has one cause, initialization.  When a requirement is cancelled,
every input of it that holds a guessing index is injured: its index,
memos and definition are dropped and a fresh index is issued on next
use; the old guessing set stays behind for the verifier.  A certified
theta never has to be re-tested against its half:

  * certify succeeds for input x of owner (side, e) in block (side, i)
    only at a stage s > use, and the same pass sets restraint(side, i)
    to s;
  * that restraint is cleared only by an initialization of (side, i),
    which cancels e (e cannot leave block i without one: part three
    pulls indices down only onto a freshly initialized block of the
    same side, and that initialization reached (side, i) too);
  * while the restraint stands, a B arrival x' < use threatens
    (side, i).  If the strongest threatened block is on side, x' is
    deflected into the other half.  Otherwise a stronger block on the
    other side is threatened; x' lands in this half and initializes a
    block whose order is at most order(side, i), which cancels e at the
    same stage, and refresh_pass sees the cancellation first.

So a certified theta leaves its half only at a stage where its owner is
cancelled, and refresh_pass injures exactly the cancelled owners' inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import ConstructionInvariantError
from .model import (
    Axiom,
    FunctionalTable,
    applicable_axiom,
    block_label,
    build_policy,
    cone_truth,
    member,
)
from .trace import event


@dataclass
class InputState:
    """Certification and local definition of one (requirement, input) pair."""

    epoch: int = 0
    j: int | None = None
    refusal_memo: dict[str, int] = field(default_factory=dict)
    local: tuple[int, int | None] | None = None  # (k, death)

    def live_value(self, s: int) -> int | None:
        """The local value defined at this input if it is live at stage s."""
        if self.local is None:
            return None
        k, death = self.local
        return k if death is None or s < death else None

    def refresh(self) -> None:
        self.epoch += 1
        self.j = None
        self.local = None
        self.refusal_memo.clear()


class GuessingRegistry:
    """Issues fresh guessing-set indices and stores their enumerations."""

    def __init__(self):
        self.sets: dict[int, list[tuple[int, str]]] = {}
        self.owner_epoch: dict[int, int] = {}

    def issue(self, epoch: int) -> int:
        j = len(self.sets)
        self.sets[j] = []
        self.owner_epoch[j] = epoch
        return j


class RobinsonStrategy:
    """Per-run state and block dispatch for the oracle construction."""

    def __init__(self, tables: dict[tuple[int, int], FunctionalTable]):
        self.tables = tables
        self.owners: list[tuple[int, int]] = sorted(tables)
        self.policy = None
        self.registry = GuessingRegistry()
        self.inputs: dict[tuple[int, int, int], InputState] = {}
        self._refresh_flags: set[tuple[int, int]] = set()
        self.run = None

    def bind(self, run) -> None:
        self.run = run
        self.policy = build_policy(run.scenario, run.c_cones)

    def input_state(self, side: int, e: int, x: int) -> InputState:
        key = (side, e, x)
        st = self.inputs.get(key)
        if st is None:
            st = self.inputs[key] = InputState()
        return st

    # -- certification --------------------------------------------------------

    def certify(self, side: int, e: int, x: int, axiom: Axiom, s: int) -> bool:
        """Run the certification procedure; True iff the axiom is certified.

        A certified axiom becomes the input's local definition (k, death).
        False covers both refusal and a scan still pending at the horizon;
        a pending scan flags the whole run as unsettled.
        """
        run = self.run
        label = block_label(side, e)
        st = self.input_state(side, e, x)
        if st.j is None:
            st.j = self.registry.issue(st.epoch)
        if self.registry.owner_epoch[st.j] != st.epoch:
            raise ConstructionInvariantError(
                "stale guessing set for %s input %d" % (label, x)
            )
        j = st.j
        strings = self.registry.sets[j]
        if not cone_truth(strings, run.c_cones, s):
            strings.append((s, axiom.sigma))
            run.emit(event(s, "enumerate", j=j, set="W", sigma=axiom.sigma))

        def emit_scan(kind, **extra):
            run.emit(
                event(
                    s, kind, entry=s, j=j, k=axiom.k, req=label,
                    sigma=axiom.sigma, theta=axiom.theta, x=x, **extra,
                )
            )

        memo = st.refusal_memo.get(axiom.sigma)
        if memo is not None and s <= memo:
            emit_scan("refuse-certify", memo=1, resolved=memo, result="refused")
            return False
        _, _, death = run.c_cones.lifetime(axiom.sigma)
        t_exit = death if death is not None and death <= run.horizon else None
        t_hit = self.policy.first_hit(j, strings, s, run.horizon)
        if t_exit is None and t_hit is None:
            run.pending_scans += 1
            run.unsettled = True
            emit_scan("refuse-certify", result="pending")
            return False
        if t_exit is not None and (t_hit is None or t_exit <= t_hit):
            st.refusal_memo[axiom.sigma] = t_exit
            emit_scan("refuse-certify", resolved=t_exit, result="refused")
            return False
        st.local = (axiom.k, death)
        emit_scan("certify", resolved=t_hit)
        return True

    # -- requirement strategies ------------------------------------------------

    def due_orders(self, s: int) -> list[int]:
        """Every owner block is due: Robinson has no wake rules yet."""
        return self.run.owner_orders

    def run_block(self, side: int, i: int, s: int) -> bool:
        acted = False
        for e in self.run.block_members(side, i):
            acted |= self.run_requirement(side, e, i, s)
        return acted

    def run_requirement(self, side: int, e: int, i: int, s: int) -> bool:
        """One pass of requirement (side, e) inside its block (side, i)."""
        acted = False
        x = 0
        while x < s:
            result = self.run_input_strategy(side, e, x, i, s)
            if result not in ("defined", "acted"):
                break
            acted |= result == "acted"
            x += 1
        return acted

    def run_input_strategy(self, side: int, e: int, x: int, i: int, s: int) -> str:
        """One pass of the per-input strategy; returns its exit.

        "nocomp": the watched functional diverges or disagrees with D
        (includes a deferred action whose stage has not yet passed the
        use); "defined": a live local value already covers x; "refused":
        the certification scan refused or is pending; "acted": a fresh
        value was defined under a new restraint.
        """
        run = self.run
        table = self.tables[(side, e)]
        got = applicable_axiom(table, s, run.a_cones[side], run.c_cones, x)
        d_now = member(run.d_entry, x, s)
        if got is None or got.k != d_now:
            return "nocomp"
        st = self.inputs.get((side, e, x))
        live = None if st is None else st.live_value(s)
        if live is not None:
            if live != d_now:
                raise ConstructionInvariantError(
                    "live definition at %s input %d contradicts D"
                    % (block_label(side, e), x)
                )
            return "defined"
        if s <= got.use:
            return "nocomp"
        if not self.certify(side, e, x, got, s):
            return "refused"
        run.define_local(s, x, got.k, req=block_label(side, e), sigma=got.sigma, theta=got.theta)
        run.set_restraint(side, i, s)
        run.emit(
            event(s, "act", block=block_label(side, i), req=block_label(side, e), via="certified")
        )
        return "acted"

    # -- refresh ---------------------------------------------------------------

    def cancel_requirement(self, side: int, e: int, s: int) -> None:
        self._refresh_flags.add((side, e))

    def refresh_pass(self, s: int) -> None:
        """Settle the inputs of the requirements cancelled at stage s.

        An input holding a guessing index is injured, the others are
        refreshed.  Cancellation is the only cause of injury (see the
        module docstring), so a stage without one does nothing.  Local
        definitions of a cancelled requirement die here rather than at
        the cancellation, safely: no requirement runs between a
        cancellation and the end of its stage.
        """
        flags = self._refresh_flags
        if not flags:
            return
        for (side, e, x), st in sorted(self.inputs.items()):
            if (side, e) not in flags:
                continue
            if st.j is not None:
                self.run.emit(
                    event(s, "injury", cause="initialized", req=block_label(side, e), x=x)
                )
            st.refresh()
        flags.clear()

    # -- results -----------------------------------------------------------------

    def final_state(self) -> None:
        """Flag the run unsettled if some p still disagrees with the cone truth."""
        run = self.run
        h = run.horizon
        for j, strings in self.registry.sets.items():
            p_h = self.policy.first_hit(j, strings, h, h) is not None
            if p_h != cone_truth(strings, run.c_cones, h):
                run.unsettled = True
