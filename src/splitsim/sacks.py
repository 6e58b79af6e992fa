"""Plain splitting strategies: expansionary stages and diagonalization.

Each table-owning requirement watches its functional over one half of the
split against the target enumeration D.  At an eligible even stage the
requirement stops on the first of four exits:

  1. it has already diagonalized (and was not initialized since);
  2. some previously defined local value now disagrees with D, in which
     case it diagonalizes there and acts;
  3. the stage is expansionary (the agreement length strictly exceeds
     every length recorded since the last initialization), in which case
     it copies D onto all not-yet-defined inputs up to the agreement
     length, raises the block restraint to the current stage, and acts;
  4. otherwise it does nothing.

Local values are one-shot: a defined input is never redefined without an
intervening initialization.  Each define-local line carries the
half-snapshot sigma the definition saw, so a later disagreement
certifies that the watched functional computes a value D has since
abandoned.

Dispatch is event-driven (engine module docstring): an owner sleeps
after every run, with its reach.  A requirement reads only its local
values, its record max_ell, D, its own half below its table's largest
use, and the axioms of its table that have appeared.  Its values lie at
inputs <= max_ell, and its next run acts only if D moved under one of
them (exit 2) or the agreement length exceeds max_ell (exit 3), which is
decided on inputs 0..max_ell+1 alone.  So whether its next run does
anything rests on inputs <= max_ell + 1: that is its reach, and it is
-1 once it has diagonalized (exit 1 reads no input).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import FunctionalTable, agreement_length, block_label, member
from .trace import event


@dataclass
class SacksRequirement:
    side: int
    e: int
    values: dict[int, int] = field(default_factory=dict)
    diagonalized: bool = False
    max_ell: int = -1

    @property
    def label(self) -> str:
        return block_label(self.side, self.e)

    def reset(self) -> None:
        self.values.clear()
        self.diagonalized = False
        self.max_ell = -1


def is_expansionary(ell: int, max_recorded: int) -> bool:
    """A stage is expansionary iff the agreement length reaches a new high.

    The baseline after (re)initialization is -1, so a stage with no
    agreement at all is never expansionary.
    """
    return ell > max_recorded


class SacksStrategy:
    """Per-run state and block dispatch for the plain construction."""

    def __init__(self, tables: dict[tuple[int, int], FunctionalTable]):
        self.tables = tables
        self.owners: list[tuple[int, int]] = sorted(tables)
        self.requirements: dict[tuple[int, int], SacksRequirement] = {
            key: SacksRequirement(*key) for key in self.owners
        }
        self.run = None

    def bind(self, run) -> None:
        self.run = run

    def run_block(self, side: int, i: int, s: int) -> bool:
        acted = False
        run = self.run
        for e in run.block_members(side, i):
            key = (side, e)
            if key in run.awake:
                acted |= self.run_requirement(side, e, i, s)
                req = self.requirements[key]
                run.sleep(key, -1 if req.diagonalized else req.max_ell + 1)
        return acted

    def run_requirement(self, side: int, e: int, i: int, s: int) -> bool:
        """One pass of requirement (side, e) inside its block (side, i)."""
        req = self.requirements[(side, e)]
        if req.diagonalized:
            return False
        run = self.run
        for x in sorted(req.values):
            if req.values[x] != member(run.d_entry, x, s):
                req.diagonalized = True
                run.emit(event(s, "diagonalize", req=req.label, x=x))
                run.emit(
                    event(s, "act", block=block_label(side, i), req=req.label, via="diagonalize")
                )
                return True
        a_cones = run.a_cones[side]
        ell = agreement_length(self.tables[(side, e)], a_cones, run.d_entry, s)
        if not is_expansionary(ell, req.max_ell):
            return False
        req.max_ell = ell
        label = block_label(side, i)
        run.emit(event(s, "expansionary", block=label, ell=ell, req=req.label))
        sigma = "".join("1" if n in a_cones.entry else "0" for n in range(s))
        for x in range(ell + 1):
            if x in req.values:
                continue
            k = member(run.d_entry, x, s)
            req.values[x] = k
            run.define_local(s, x, k, req=req.label, sigma=sigma)
        run.set_restraint(side, i, s)
        run.emit(event(s, "act", block=label, req=req.label, via="expansionary"))
        return True

    def refresh_pass(self, s: int, cancelled: list[tuple[int, int]]) -> None:
        """Reset the requirements cancelled at stage s, which the engine
        hands over at the end of the stage; none of them runs before."""
        for key in cancelled:
            self.requirements[key].reset()

    def final_state(self) -> None:
        pass
