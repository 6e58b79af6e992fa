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
        for e in self.run.block_members(side, i):
            acted |= self.run_requirement(self.requirements[(side, e)], i, s)
        return acted

    def run_requirement(self, req: SacksRequirement, i: int, s: int) -> bool:
        """One pass of req's strategy inside its block i (on req's side)."""
        if req.diagonalized:
            return False
        run = self.run
        for x in sorted(req.values):
            if req.values[x] != member(run.d_entry, x, s):
                req.diagonalized = True
                run.emit(event(s, "diagonalize", req=req.label, x=x))
                run.emit(
                    event(s, "act", block=block_label(req.side, i), req=req.label, via="diagonalize")
                )
                return True
        a_entry = run.a_entry[req.side]
        ell = agreement_length(self.tables[(req.side, req.e)], a_entry, run.d_entry, s)
        if not is_expansionary(ell, req.max_ell):
            return False
        req.max_ell = ell
        label = block_label(req.side, i)
        run.emit(event(s, "expansionary", block=label, ell=ell, req=req.label))
        sigma = "".join("1" if n in a_entry else "0" for n in range(s))
        for x in range(ell + 1):
            if x in req.values:
                continue
            k = member(run.d_entry, x, s)
            req.values[x] = k
            run.emit(event(s, "define-local", k=k, req=req.label, sigma=sigma, x=x))
        run.set_restraint(req.side, i, s)
        run.emit(event(s, "act", block=label, req=req.label, via="expansionary"))
        return True

    def cancel_requirement(self, side: int, e: int, s: int) -> None:
        self.requirements[(side, e)].reset()

    def refresh_pass(self, s: int) -> None:
        pass

    def final_state(self) -> None:
        pass
