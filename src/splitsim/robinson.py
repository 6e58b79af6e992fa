"""Oracle-splitting strategies: certification before every definition.

The refinement works against binary functionals over a half of the split
joined with a third enumeration C, and builds local functionals relative
to C.  A computation may only be copied into a local functional after it
is certified: its C-side string sigma is enumerated into the guessing set
of a per-input index j (unless C already lies in one of the set's cones),
and the kernel's scan (model.scan) races the first moment C leaves the
cone of sigma (refusal) against the first stage the external
approximation p answers 1 for j (certification), read off the policy's
windows for j.  The scan happens inside the stage against the
pre-specified C schedule and p policy, both oblivious to the run, so a
run remains a pure function of its scenario.

The kernel's GuessingIndices (RobinsonStrategy.inputs) holds each
input's guessing index and the sigmas whose scan was refused under it,
keyed by owner (side, e) and input x; the strings enumerated into each
guessing set W_j are in sets.  An input's local definition is (k, death)
in its owner's locals map.  death is the stage at which C leaves sigma's
cone (None: never), read off its lifetime in the strategy's own c_cones,
so the definition is live at stage s iff death is None or s < death
(live_value), and it dies with its requirement on initialization.  A
sigma refused before is refused again at its death (the cone exit still
beats every p hit), and that line is marked memo=1.

Injury has one cause, initialization.  When a requirement is cancelled,
every input of it that holds a guessing index is injured: the
cancellation drops its index and refusals together, its definition goes
with them, and a fresh index is issued on next use; the old guessing
set stays behind for the verifier.  A certified theta never has to be
re-tested against its half:

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

Dispatch is event-driven (engine module docstring).  A run of an owner
reads the axioms of its table that have appeared, its own half and C
below its table's largest use (C also decides when a local definition
dies: its sigma is no longer than the use), D, its local definitions,
and the stage only through the deferral s <= use.  The run stops at the
first input that is neither defined already nor acted on.  So an owner
whose run stopped on exit nocomp at input x0 and emitted nothing found
inputs 0..x0-1 defined and x0 without a usable computation, and it
visits no input above x0 until one of inputs 0..x0 changes status.
Only such a quiet nocomp run puts its owner to sleep, with reach x0.
Besides the engine's rules, the constructor schedules the two wakes of
its own through Run.schedule_wakes: the stage use + 1 of an axiom at an
input <= x0 (the deferral ends), and a C entry below its table's
largest use.  A run that refused or left a scan pending re-emits its
scan at every stage, one that acted may act again, and one that reached
the x < s bound has more inputs at the next stage, so each of these
leaves its owner awake.
"""

from __future__ import annotations

from .engine import ConstructionInvariantError
from .model import (
    Axiom,
    Cones,
    GuessingIndices,
    applicable_axiom,
    block_label,
    build_policy,
    cone_truth,
    first_hit,
    member,
    scan,
)
from .trace import event


class RobinsonStrategy:
    """Per-run state and block dispatch for the oracle construction, over its run."""

    def __init__(self, run):
        scenario = run.scenario
        self.run = run
        self.tables = scenario.functionals
        self.c_cones = Cones(scenario.c_schedule.entry_stage())
        self.policy = build_policy(scenario, self.c_cones)
        self.inputs = GuessingIndices()  # keyed by owner (side, e) and input x
        self.sets: dict[int, list[tuple[int, str]]] = {}  # j -> (stage, sigma) of W_j
        # (side, e) -> x -> (k, death) of the input's local definition
        self.locals: dict[tuple[int, int], dict[int, tuple[int, int | None]]] = {}
        self.pending_scans = 0
        self.unsettled = False
        c_entries = scenario.c_schedule.entries
        for key, table in self.tables.items():
            run.schedule_wakes((ax.use + 1, key, ax.x) for _, ax in table.axioms)
            run.schedule_wakes((t, key, None) for t, c in c_entries if c < table.largest_use)

    def live_value(self, side: int, e: int, x: int, s: int) -> int | None:
        """The local value defined at input x of (side, e) if it is live at stage s."""
        local = self.locals.get((side, e), {}).get(x)
        if local is None:
            return None
        k, death = local
        return k if death is None or s < death else None

    # -- certification --------------------------------------------------------

    def certify(self, side: int, e: int, x: int, axiom: Axiom, s: int) -> bool:
        """Run the certification procedure; True iff the axiom is certified.

        A certified axiom becomes the input's local definition (k, death).
        False covers both refusal and a scan still pending at the horizon;
        a pending scan flags the whole run as unsettled.
        """
        run = self.run
        label = block_label(side, e)
        j = self.inputs.held((side, e), x)
        strings = self.sets.setdefault(j, [])
        if not cone_truth(strings, self.c_cones, s):
            strings.append((s, axiom.sigma))
            run.emit(event(s, "enumerate", j=j, set="W", sigma=axiom.sigma))

        def emit_scan(kind, **extra):
            run.emit(
                event(
                    s, kind, entry=s, j=j, k=axiom.k, req=label,
                    sigma=axiom.sigma, theta=axiom.theta, x=x, **extra,
                )
            )

        result, t = scan(self.policy.windows(j, strings), self.c_cones, axiom.sigma, s, run.horizon)
        if result == "certify":
            death = self.c_cones.lifetime(axiom.sigma)[2]
            self.locals.setdefault((side, e), {})[x] = (axiom.k, death)
            emit_scan("certify", resolved=t)
            return True
        if result == "pending":
            self.pending_scans += 1
            self.unsettled = True
            emit_scan("refuse-certify", result="pending")
        else:
            memo = {"memo": 1} if self.inputs.refuse((side, e), x, axiom.sigma) else {}
            emit_scan("refuse-certify", resolved=t, result="refused", **memo)
        return False

    # -- requirement strategies ------------------------------------------------

    def run_block(self, side: int, i: int, s: int) -> bool:
        acted = False
        awake = self.run.awake
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
            self.run.sleep((side, e), x)
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
        got = applicable_axiom(table, s, run.a_cones[side], self.c_cones, x)
        d_now = member(run.d_entry, x, s)
        if got is None or got.k != d_now:
            return "nocomp"
        live = self.live_value(side, e, x, s)
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

    def refresh_pass(self, s: int, cancelled: list[tuple[int, int]]) -> None:
        """Settle the inputs of the requirements cancelled at stage s.

        The engine hands over the cancelled owners once, at the end of
        the stage, ascending by (side, e).  An input is injured when its
        cancellation drops its guessing index.  Cancellation is the only
        cause of injury (see the module docstring).  Local definitions of
        a cancelled requirement die here rather than at the cancellation,
        safely: no requirement runs between a cancellation and the end
        of its stage.
        """
        for side, e in cancelled:
            self.locals.pop((side, e), None)
            for x in self.inputs.cancel((side, e)):
                self.run.emit(
                    event(s, "injury", cause="initialized", req=block_label(side, e), x=x)
                )

    # -- results -----------------------------------------------------------------

    def final_state(self) -> tuple[int, bool]:
        """(pending scans, unsettled), flagging the run unsettled if some
        p still disagrees with the cone truth at the horizon."""
        h = self.run.horizon
        for j, strings in self.sets.items():
            p_h = first_hit(self.policy.windows(j, strings), h, h) is not None
            if p_h != cone_truth(strings, self.c_cones, h):
                self.unsettled = True
        return self.pending_scans, self.unsettled
