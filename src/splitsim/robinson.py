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

Indices are never reused.  Whenever a certified computation loses its
half-side oracle string, or the owning requirement is initialized, the
input's certified set is cleared, its refusal memos are dropped, and a
fresh index is issued on next use; the old guessing set stays behind for
the verifier.  A refusal memo suppresses re-certification of a string
whose future cone exit is already known.

Certified definitions carry the axiom (theta, sigma, x, k): theta keeps
the half-side string protected by the block restraint, sigma makes the
local value C-relative, so the definition dies by itself once C leaves
sigma's cone, and dies with its requirement on initialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import ConstructionInvariantError
from .model import (
    Axiom,
    FunctionalTable,
    applicable_axiom,
    block_label,
    cone_holds,
    cone_truth,
    member,
    string_lifetime,
)
from .trace import event


@dataclass
class OracleAxiom:
    """One live-or-dead local definition relative to C."""

    sigma: str
    x: int
    k: int
    live: bool = True


@dataclass
class InputState:
    """Certification bookkeeping for one (requirement, input) pair."""

    epoch: int = 0
    j: int | None = None
    certified: list[Axiom] = field(default_factory=list)
    refusal_memo: dict[str, int] = field(default_factory=dict)

    def refresh(self) -> None:
        self.epoch += 1
        self.j = None
        self.certified.clear()
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

    def __init__(self, tables: dict[tuple[int, int], FunctionalTable], policy):
        self.tables = tables
        self.owners: list[tuple[int, int]] = sorted(tables)
        self.policy = policy
        self.registry = GuessingRegistry()
        self.inputs: dict[tuple[int, int, int], InputState] = {}
        self.local_axioms: dict[tuple[int, int], list[OracleAxiom]] = {
            key: [] for key in self.owners
        }
        self._refresh_flags: set[tuple[int, int]] = set()
        self.run = None

    def bind(self, run) -> None:
        self.run = run

    # -- local functionals --------------------------------------------------

    def live_axiom(self, side: int, e: int, x: int, s: int) -> OracleAxiom | None:
        """The current C-valid definition at x, expiring dead ones lazily."""
        c_entry = self.run.c_entry
        found = None
        for ax in self.local_axioms[(side, e)]:
            if ax.x != x or not ax.live:
                continue
            if not cone_holds(ax.sigma, c_entry, s):
                ax.live = False
                continue
            if found is not None:
                raise ConstructionInvariantError(
                    "two live definitions at input %d of %s" % (x, block_label(side, e))
                )
            found = ax
        return found

    def input_state(self, side: int, e: int, x: int) -> InputState:
        key = (side, e, x)
        st = self.inputs.get(key)
        if st is None:
            st = self.inputs[key] = InputState()
        return st

    # -- certification --------------------------------------------------------

    def certify(self, side: int, e: int, x: int, axiom: Axiom, s: int) -> bool:
        """Run the certification procedure; True iff the axiom is certified.

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
        if not cone_truth(strings, run.c_entry, s):
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
        _, death = string_lifetime(axiom.sigma, run.c_entry)
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
        st.certified.append(axiom)
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
        got = applicable_axiom(table, s, run.a_entry[side], run.c_entry, x)
        d_now = member(run.d_entry, x, s)
        if got is None or got.k != d_now:
            return "nocomp"
        live = self.live_axiom(side, e, x, s)
        if live is not None:
            if live.k != d_now:
                raise ConstructionInvariantError(
                    "live definition at %s input %d contradicts D"
                    % (block_label(side, e), x)
                )
            return "defined"
        if s <= got.use:
            return "nocomp"
        if not self.certify(side, e, x, got, s):
            return "refused"
        self.local_axioms[(side, e)].append(OracleAxiom(got.sigma, x, got.k))
        run.emit(
            event(
                s,
                "define-local",
                k=got.k,
                req=block_label(side, e),
                sigma=got.sigma,
                theta=got.theta,
                x=x,
            )
        )
        run.set_restraint(side, i, s)
        run.emit(
            event(s, "act", block=block_label(side, i), req=block_label(side, e), via="certified")
        )
        return "acted"

    # -- refresh ---------------------------------------------------------------

    def cancel_requirement(self, side: int, e: int, s: int) -> None:
        self._refresh_flags.add((side, e))
        for ax in self.local_axioms[(side, e)]:
            ax.live = False

    def refresh_pass(self, s: int) -> None:
        """Injure the inputs whose certification no longer stands at stage s.

        A stage with no cancellation and no B arrival is quiet: a
        certified theta held when it was certified, and the A halves
        change only at arrival stages, so no theta can first break at s.
        """
        if self._refresh_flags or s in self.run.b_by_stage:
            self._rescan(s)

    def _rescan(self, s: int) -> None:
        run = self.run
        hits: list[tuple[int, int, int, str]] = []
        for (side, e, x), st in sorted(self.inputs.items()):
            if (side, e) in self._refresh_flags:
                if st.j is not None or st.certified:
                    hits.append((side, e, x, "initialized"))
                else:
                    st.refresh()
                continue
            a_entry = run.a_entry[side]
            broken = any(not cone_holds(ax.theta, a_entry, s) for ax in st.certified)
            if broken:
                hits.append((side, e, x, "a0-change" if side == 0 else "a1-change"))
        for side, e, x, cause in hits:
            self.inputs[(side, e, x)].refresh()
            run.emit(event(s, "injury", cause=cause, req=block_label(side, e), x=x))
        self._refresh_flags.clear()

    # -- results -----------------------------------------------------------------

    def final_state(self) -> None:
        """Flag the run unsettled if some p still disagrees with the cone truth."""
        run = self.run
        h = run.horizon
        for j, strings in self.registry.sets.items():
            if self.policy.row(j, strings, h)[h] != cone_truth(strings, run.c_entry, h):
                run.unsettled = True
