"""Oracle-splitting strategies: certification before every definition.

The refinement works against binary functionals over a half of the split
joined with a third enumeration C, and builds local functionals relative
to C.  A computation may only be copied into a local functional after it
is certified: its C-side string sigma is enumerated into the guessing set
of a per-input index j (unless C already lies in one of the set's cones),
and the kernel's scan (model.scan) races the first moment C leaves the
cone of sigma (refusal) against the first stage the external
approximation p answers 1 for j (certification), read off the spans
for W_j of the scenario's p policy, which the loader built.  The scan
happens inside the stage against the pre-specified C schedule and p
policy, both oblivious to the run, so a run remains a pure function of
its scenario.

The kernel's GuessingIndices (RobinsonStrategy.inputs) holds each
input's one record, keyed by owner (side, e) and input x: its guessing
index, the sigmas whose scan was refused under it, and its local
definition (k, death).  Each guessing set W_j is one kernel record,
model.GuessingSet (RobinsonStrategy.sets), over the strategy's c_cones:
its strings, each with the stage of its first enumeration, and the
stages at which C lies in one of their cones, which certify asks before
it enumerates and the policy's spans are read off.  death is the stage
at which C leaves sigma's cone (None: never), read off its lifetime in
the strategy's own c_cones, and the kernel's live decides whether the
definition still counts at a stage.  A sigma refused before is refused
again at its death (the cone exit still beats every p hit), and that
line is marked memo=1.

Injury has one cause, initialization.  When a requirement is cancelled,
every input of it that holds a guessing index is injured: the
cancellation drops its record, index, refusals and definition together,
and a fresh index is issued on next use; the old guessing set stays
behind for the verifier.  A certified theta never has to be re-tested
against its half:

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
    same stage.

So a certified theta leaves its half only at a stage where its owner is
cancelled.  The engine hands each stage's cancelled owners to
refresh_pass at the end of the stage, and it injures exactly their
inputs.

The per-input decision up to certification is model.robinson_step,
which the verifier also runs on every scan line; the strategy keeps the
state, certifies on its scan exit and writes the lines.  It selects
through each owner's selection record (model.selection) over its own
c_cones, and appends each line it writes to the run's events.  A run is
unsettled when a scan is pending at the horizon or p has not settled on
some guessing set (the kernel's p_settled, the verifier's rule too);
final_state reads both off its state, so the strategy keeps no flag.

Dispatch is event-driven (model.WakeRecord).  A run of an owner reads
the axioms of its table that have appeared, its own half and C below
its table's largest use (C also decides when a local definition dies:
its sigma is no longer than the use), D, its local definitions, and the
stage only through the deferral s <= use.  The run stops at the first
input that is neither defined already nor acted on.  So an owner whose
run stopped on exit nocomp at input x0 and emitted nothing found inputs
0..x0-1 defined and x0 without a usable computation, and it visits no
input above x0 until one of inputs 0..x0 changes status.  Only such a
quiet nocomp run puts its owner to sleep, with reach x0; the record's
rules for a binary table wake it on what else the run reads, the end
of a deferral at use + 1 and a C entry below the largest use.  A run
that refused or left a scan pending re-emits its scan at every stage,
one that acted may act again, and one that reached the x < s bound has
more inputs at the next stage, so each of these leaves its owner awake.
"""

from __future__ import annotations

from .engine import ConstructionInvariantError
from .model import (
    Axiom,
    Cones,
    GuessingIndices,
    GuessingSet,
    block_label,
    p_settled,
    robinson_step,
    scan,
    selection,
)
from .trace import event


class RobinsonStrategy:
    """Per-run state and block dispatch for the oracle construction, over its run."""

    def __init__(self, run):
        scenario = run.scenario
        self.run = run
        self.tables = scenario.functionals
        self.c_cones = Cones(scenario.c_schedule.entry_stage())
        # Each owner's selection record, over the strategy's own c_cones.
        self.selections = {
            key: selection(table, self.c_cones) for key, table in self.tables.items()
        }
        self.policy = scenario.p_policy  # the loader's; it holds no run state
        self.inputs = GuessingIndices()  # keyed by owner (side, e) and input x
        self.sets: dict[int, GuessingSet] = {}  # j -> W_j
        self.pending_scans = 0

    # -- certification --------------------------------------------------------

    def certify(self, side: int, e: int, x: int, axiom: Axiom, s: int) -> bool:
        """Run the certification procedure; True iff the axiom is certified.

        A certified axiom becomes the input's local definition (k, death).
        False covers both refusal and a scan still pending at the horizon;
        a pending scan leaves the whole run unsettled (final_state).
        """
        run = self.run
        label = block_label(side, e)
        j = self.inputs.held((side, e), x)
        wset = self.sets.get(j)
        if wset is None:
            wset = self.sets[j] = GuessingSet(self.c_cones)
        if not wset.holds(s):
            wset.add(s, axiom.sigma)
            run.events.append(event(s, "enumerate", j=j, set="W", sigma=axiom.sigma))

        def emit_scan(kind, **extra):
            run.events.append(
                event(
                    s, kind, entry=s, j=j, k=axiom.k, req=label,
                    sigma=axiom.sigma, theta=axiom.theta, x=x, **extra,
                )
            )

        spans = self.policy.spans(j, wset, run.horizon)
        result, t = scan(spans, self.c_cones, axiom.sigma, s, run.horizon)
        if result == "certify":
            self.inputs.define((side, e), x, axiom.k, self.c_cones.lifetime(axiom.sigma)[2])
            emit_scan("certify", resolved=t)
            return True
        if result == "pending":
            self.pending_scans += 1
            emit_scan("refuse-certify", result="pending")
        else:
            memo = {"memo": 1} if self.inputs.refuse((side, e), x, axiom.sigma) else {}
            emit_scan("refuse-certify", resolved=t, result="refused", **memo)
        return False

    # -- requirement strategies ------------------------------------------------

    def run_block(self, side: int, i: int, s: int) -> bool:
        acted = False
        awake = self.run.wakes.awake
        for e in self.run.block_members(side, i):
            if (side, e) in awake:
                acted |= self.run_requirement(side, e, i, s)
        return acted

    def run_requirement(self, side: int, e: int, i: int, s: int) -> bool:
        """One pass of requirement (side, e) inside its block (side, i).

        The owner sleeps, with reach x, when the pass stops on nocomp at
        x without acting, which also means it emitted nothing.
        """
        acted = False
        result = None
        x = 0
        while x < s:
            result = self.run_input_strategy(side, e, x, i, s)
            if result not in ("defined", "acted"):
                break
            acted |= result == "acted"
            x += 1
        if result == "nocomp" and not acted:
            self.run.wakes.sleep((side, e), x)
        return acted

    def run_input_strategy(self, side: int, e: int, x: int, i: int, s: int) -> str:
        """One pass of the per-input strategy; returns its exit.

        model.robinson_step decides "nocomp" (the watched functional
        diverges or disagrees with D, or its use has not yet passed) and
        "defined" (a live local value already covers x); on its "scan"
        the certification gives "refused" (the scan refused or is
        pending) or "acted" (a fresh value was defined under a new
        restraint).
        """
        run = self.run
        live = self.inputs.live((side, e), x, s)
        exit, got = robinson_step(
            self.selections[(side, e)], run.a_cones[side], run.d_entry, live, x, s
        )
        if exit == "defined" and live != got.k:
            raise ConstructionInvariantError(
                "live definition at %s input %d contradicts D" % (block_label(side, e), x)
            )
        if exit != "scan":
            return exit
        if not self.certify(side, e, x, got, s):
            return "refused"
        run.define_local(s, x, got.k, req=block_label(side, e), sigma=got.sigma, theta=got.theta)
        run.set_restraint(side, i, s)
        run.events.append(
            event(s, "act", block=block_label(side, i), req=block_label(side, e), via="certified")
        )
        return "acted"

    # -- refresh ---------------------------------------------------------------

    def refresh_pass(self, s: int, cancelled: list[tuple[int, int]]) -> None:
        """Settle the inputs of the requirements cancelled at stage s.

        The engine hands over the cancelled owners once, at the end of
        the stage, ascending by (side, e).  An input is injured when its
        cancellation drops its record, and its local definition with it.
        Cancellation is the only cause of injury (see the module
        docstring).  The records of a cancelled requirement are dropped
        here rather than at the cancellation, safely: no requirement runs
        between a cancellation and the end of its stage.
        """
        for side, e in cancelled:
            for x in self.inputs.cancel((side, e)):
                self.run.events.append(
                    event(s, "injury", cause="initialized", req=block_label(side, e), x=x)
                )

    # -- results -----------------------------------------------------------------

    def final_state(self) -> tuple[int, bool]:
        """(pending scans, unsettled): the run is unsettled when a scan is
        pending or p has not settled on some guessing set (model.p_settled)."""
        h = self.run.horizon
        for j, wset in self.sets.items():
            if not p_settled(self.policy.spans(j, wset, h), wset, h):
                return self.pending_scans, True
        return self.pending_scans, self.pending_scans > 0
