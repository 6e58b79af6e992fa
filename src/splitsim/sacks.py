"""Plain splitting strategies: expansionary stages and diagonalization.

Each table-owning requirement watches its functional over one half of the
split against the target enumeration D.  At an eligible even stage the
requirement stops on the first of four exits, which the kernel's step
function model.sacks_step decides over the owner's selection record
(model.selection; the verifier calls it too, on every step a trace
records); the strategy keeps the requirement's state and writes the
step's lines:

  1. it has already diagonalized (and was not initialized since);
  2. some previously defined local value now disagrees with D, in which
     case it diagonalizes there and acts;
  3. the stage is expansionary (the agreement length strictly exceeds
     every length recorded since the last initialization), in which case
     it copies D onto all not-yet-defined inputs up to the agreement
     length, each with the half's string at the stage
     (model.half_string), raises the block restraint to the current
     stage, and acts;
  4. otherwise it does nothing.

Local values are one-shot: a defined input is never redefined without an
intervening initialization.  Each define-local line carries the
half-snapshot sigma the definition saw, so a later disagreement
certifies that the watched functional computes a value D has since
abandoned.

An expansionary exit defines every input up to its agreement length,
which only grows between resets, so a requirement's values are the
prefix 0..n-1 for n = len(values), and the largest agreement length
recorded since its last initialization is n - 1.

The strategy is built over its run (SacksStrategy(run)) and holds it;
the run holds no construction.  Dispatch is event-driven
(model.WakeRecord): an owner sleeps after every run, with its reach.  A
requirement reads only its local values, D, its own half below its
table's largest use, and the axioms of its table that have appeared.
Its next run acts only if D moved under one of its values (exit 2) or
the agreement length reaches n (exit 3), which inputs 0..n decide.  So
whether its next run does anything rests on inputs <= n: that is its
reach, and it is -1 once it has diagonalized (exit 1 reads no input).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import block_label, sacks_step, selection
from .trace import event


@dataclass
class SacksRequirement:
    side: int
    e: int
    values: list[int] = field(default_factory=list)  # the value at each input 0..n-1
    diagonalized: bool = False

    @property
    def label(self) -> str:
        return block_label(self.side, self.e)

    def reset(self) -> None:
        self.values.clear()
        self.diagonalized = False


class SacksStrategy:
    """Per-run state and block dispatch for the plain construction."""

    def __init__(self, run):
        self.run = run
        self.tables = run.scenario.functionals
        self.selections = {key: selection(table, None) for key, table in self.tables.items()}
        self.requirements: dict[tuple[int, int], SacksRequirement] = {
            key: SacksRequirement(*key) for key in self.tables
        }

    def run_block(self, side: int, i: int, s: int) -> bool:
        acted = False
        run, wakes = self.run, self.run.wakes
        for e in run.block_members(side, i):
            key = (side, e)
            if key in wakes.awake:
                acted |= self.run_requirement(side, e, i, s)
                req = self.requirements[key]
                wakes.sleep(key, -1 if req.diagonalized else len(req.values))
        return acted

    def run_requirement(self, side: int, e: int, i: int, s: int) -> bool:
        """One pass of requirement (side, e) inside its block (side, i):
        model.sacks_step decides, and this keeps the values and writes the lines."""
        req = self.requirements[(side, e)]
        run = self.run
        step = sacks_step(
            self.selections[(side, e)], run.a_cones[side], run.d_entry, req.values,
            req.diagonalized, s,
        )
        if step.exit == "diagonalize":
            req.diagonalized = True
            run.events.append(event(s, "diagonalize", req=req.label, x=step.x))
        elif step.exit == "expansionary":
            run.events.append(
                event(s, "expansionary", block=block_label(side, i), ell=step.x, req=req.label)
            )
            for k in step.values:
                run.define_local(s, len(req.values), k, req=req.label, sigma=step.sigma)
                req.values.append(k)
            run.set_restraint(side, i, s)
        else:
            return False
        run.events.append(event(s, "act", block=block_label(side, i), req=req.label, via=step.exit))
        return True

    def refresh_pass(self, s: int, cancelled: list[tuple[int, int]]) -> None:
        """Reset the requirements cancelled at stage s, which the engine
        hands over at the end of the stage; none of them runs before."""
        for key in cancelled:
            self.requirements[key].reset()

    def final_state(self) -> tuple[int, bool]:
        """(pending scans, unsettled): a plain run scans nothing and is always settled."""
        return 0, False
