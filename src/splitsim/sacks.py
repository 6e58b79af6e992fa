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

Dispatch is event-driven.  A requirement reads only its local values,
its record max_ell, D, its own half below its table's largest use, and
the axioms of its table that have appeared.  So an owner that ran at
stage t (and did nothing, or acted) does nothing at a later stage s
unless one of these happens in (t, s]; the owner then wakes:

  (a) an axiom of its table appears;
  (b) any D entry lands, scheduled or by the policy;
  (c) an arrival on its side lands below its table's largest use;
  (d) it is cancelled by an initialization of its block.

Every owner starts awake, and running an owner puts it to sleep.  A
diagonalized owner stays asleep until it is reset, which is (d).  Part
two runs only the blocks that hold awake owners, and in them only the
awake owners.
"""

from __future__ import annotations

from bisect import bisect_right
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
        # Wake rule (a): the owners whose table gains an axiom, by stage.
        self._appear: dict[int, set[tuple[int, int]]] = {}
        for key, table in tables.items():
            for appear, _ in table.axioms:
                self._appear.setdefault(appear, set()).add(key)
        # Wake rule (c): per side, the owners in ascending order of their
        # table's largest use, beside those uses for bisection.
        self._uses = ([], [])
        self._by_use = ([], [])
        tops = (
            (max((ax.use for _, ax in table.axioms), default=0), key)
            for key, table in tables.items()
        )
        for use, key in sorted(tops):
            self._uses[key[0]].append(use)
            self._by_use[key[0]].append(key)
        self.awake: set[tuple[int, int]] = set(self.owners)
        self.run = None

    def bind(self, run) -> None:
        self.run = run
        # Wake rule (b): scheduled D entries land at known stages; policy
        # entries are the only ones added later, so d_entry grows by them.
        self._d_stages = set(run.d_entry.values())
        self._d_seen = len(run.d_entry)
        self._woken = 0

    def _wake(self, s: int) -> None:
        """Wake the owners whose inputs changed at a stage in (_woken, s]."""
        run = self.run
        awake = self.awake
        d_landed = len(run.d_entry) != self._d_seen
        self._d_seen = len(run.d_entry)
        for t in range(self._woken + 1, s + 1):
            awake.update(self._appear.get(t, ()))
            d_landed |= t in self._d_stages
            x = run.b_by_stage.get(t)
            if x is not None:
                # The stage's B arrival went into one half: wake the
                # owners on that side whose largest use exceeds x.
                side = 0 if x in run.a_cones[0].entry else 1
                awake.update(self._by_use[side][bisect_right(self._uses[side], x):])
        self._woken = s
        if d_landed:
            awake.update(self.owners)

    def due_orders(self, s: int) -> list[int]:
        """Priority orders of the blocks that hold awake owners, ascending."""
        self._wake(s)
        return self.run.blocks.orders_of(self.awake)

    def run_block(self, side: int, i: int, s: int) -> bool:
        acted = False
        for e in self.run.block_members(side, i):
            key = (side, e)
            if key in self.awake:
                self.awake.discard(key)
                acted |= self.run_requirement(self.requirements[key], i, s)
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
        a_cones = run.a_cones[req.side]
        ell = agreement_length(self.tables[(req.side, req.e)], a_cones, run.d_entry, s)
        if not is_expansionary(ell, req.max_ell):
            return False
        req.max_ell = ell
        label = block_label(req.side, i)
        run.emit(event(s, "expansionary", block=label, ell=ell, req=req.label))
        sigma = "".join("1" if n in a_cones.entry else "0" for n in range(s))
        for x in range(ell + 1):
            if x in req.values:
                continue
            k = member(run.d_entry, x, s)
            req.values[x] = k
            run.define_local(s, x, k, req=req.label, sigma=sigma)
        run.set_restraint(req.side, i, s)
        run.emit(event(s, "act", block=label, req=req.label, via="expansionary"))
        return True

    def cancel_requirement(self, side: int, e: int, s: int) -> None:
        self.requirements[(side, e)].reset()
        self.awake.add((side, e))

    def refresh_pass(self, s: int) -> None:
        pass

    def final_state(self) -> None:
        pass
