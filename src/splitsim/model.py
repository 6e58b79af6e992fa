"""Foundational data model for stage-indexed enumerations.

Together with omegace and trace this module is the trusted kernel:
every decision that both the construction (engine and strategies) and
the verifier take is defined here once, and the verifier imports
nothing else from the package.  The ingredients are:

* Cantor pairing on naturals,
* finite oracle strings over {0, 1},
* monotone enumeration schedules (stage-stamped element arrivals), the
  one membership test (member) over them, and the one cone oracle
  (Cones): over a c.e. set the cone of a string holds on exactly one
  stage interval [birth, death), its lifetime, which Cones walks once
  per string and keeps current as arrivals come in,
* Turing functionals given as finite axiom tables with explicit use,
  the one rule for when two axioms conflict (conflicting), and the
  axiom a table selects at a stage,
* the semantics of the external approximation p (its policies and rows,
  the mind-change count of a row, and the cone truth p approximates),
* block and requirement labels and their one parser,
* the interleaved priority order of blocks, the routing of an arrival
  away from the strongest threatened block, and the dynamic assignment
  of requirements to blocks together with block membership.

A functional converges on an input exactly when some axiom whose oracle
string(s) are initial segments of the current oracle set(s) has appeared
by the current stage.  Ties between applicable axioms are broken by the
lexicographically least (use, value) pair, so evaluation is a pure
function of (table, stage, oracles, input).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass


class ConflictError(ValueError):
    """A functional table contains contradictory axioms.

    Two axioms conflict when their oracle strings are pairwise compatible
    (one an initial segment of the other, coordinate by coordinate), they
    answer the same input, and they disagree on the output bit.
    """

    def __init__(self, pairs: list[tuple["Axiom", "Axiom"]]):
        self.pairs = list(pairs)
        super().__init__("%d conflicting axiom pair(s)" % len(self.pairs))


def pair(a: int, b: int) -> int:
    """Cantor pairing code of (a, b)."""
    if a < 0 or b < 0:
        raise ValueError("pair is defined on naturals")
    return (a + b) * (a + b + 1) // 2 + b


def unpair(n: int) -> tuple[int, int]:
    """Inverse of pair: the unique (a, b) with pair(a, b) == n."""
    if n < 0:
        raise ValueError("unpair is defined on naturals")
    w = (math.isqrt(8 * n + 1) - 1) // 2
    b = n - w * (w + 1) // 2
    return (w - b, b)


def check_bits(s: str) -> str:
    """Validate that s is a finite string over {0, 1}; returns s."""
    if not isinstance(s, str) or any(c not in "01" for c in s):
        raise ValueError("oracle strings must consist of 0/1 characters: %r" % (s,))
    return s


@dataclass(frozen=True)
class EnumerationSchedule:
    """A monotone enumeration: elements stamped with their entry stage.

    Entries are kept sorted by (stage, element).  An element appears at
    most once; once enumerated it never leaves, so the set at stage s is
    every element whose stamp is <= s.
    """

    role: str
    entries: tuple[tuple[int, int], ...]

    @staticmethod
    def build(role: str, entries) -> "EnumerationSchedule":
        rows = sorted((int(s), int(x)) for s, x in entries)
        seen: set[int] = set()
        for s, x in rows:
            if s < 0 or x < 0:
                raise ValueError("%s schedule entries must be naturals" % role)
            if x in seen:
                raise ValueError("%s schedule enumerates element %d twice" % (role, x))
            seen.add(x)
        return EnumerationSchedule(role, tuple(rows))

    def entry_stage(self) -> dict[int, int]:
        """Element -> stage-of-entry map."""
        return {x: s for s, x in self.entries}


def member(entry: dict[int, int], x: int, s: int) -> int:
    """1 iff x is in the set at stage s, else 0.

    The set is given by its element->entry-stage map; x is a member at
    stage s when its entry stage is <= s.
    """
    st = entry.get(x)
    return 1 if st is not None and st <= s else 0


class Cones:
    """Cone truth over one c.e. set whose arrivals come in stage order.

    entry maps each element seen so far to its entry stage.  The first
    question about a string walks it once over entry and keeps its state
    [missing 1-positions, birth, death, sigma].  A live cone registers
    its absent positions, and arrive(x, s) updates only the states
    registered at x; a present 0-position kills a cone for good, so a
    dead one registers nothing.  holds is exact at the current stage
    while arrivals are fed, and over a final map at every past stage.
    """

    def __init__(self, entry: dict[int, int] | None = None):
        self.entry = {} if entry is None else entry
        self._state: dict[str, list] = {}
        self._watch: dict[int, list[list]] = {}

    def _walk(self, sigma: str) -> list:
        entry = self.entry
        missing = birth = 0
        death = None
        absent = []
        for i, c in enumerate(sigma):
            t = entry.get(i)
            if t is None:
                absent.append(i)
                missing += c == "1"
            elif c == "1":
                birth = max(birth, t)
            elif death is None or t < death:
                death = t
        state = self._state[sigma] = [missing, birth, death, sigma]
        if death is None:
            for i in absent:
                self._watch.setdefault(i, []).append(state)
        return state

    def arrive(self, x: int, s: int) -> None:
        """Enumerate x at stage s, no earlier than any arrival before it."""
        self.entry[x] = s
        for state in self._watch.pop(x, ()):
            if state[3][x] == "1":
                state[0] -= 1
                state[1] = max(state[1], s)
            elif state[2] is None:
                state[2] = s

    def lifetime(self, sigma: str) -> tuple[int, int, int | None]:
        """(missing, birth, death): the set is in sigma's cone at stage t iff
        missing is 0 and birth <= t < death (death None: it never leaves)."""
        state = self._state.get(sigma)
        if state is None:
            state = self._walk(sigma)
        return state[0], state[1], state[2]

    def holds(self, sigma: str, t: int) -> bool:
        """True iff sigma is an initial segment of the set at stage t.

        Position i of sigma must be 1 exactly when i is a member; a 0 bit
        over a present element is as disqualifying as a missing 1 bit.
        """
        state = self._state.get(sigma)
        if state is None:
            state = self._walk(sigma)
        return state[0] == 0 and state[1] <= t and (state[2] is None or t < state[2])


@dataclass(frozen=True)
class Axiom:
    """One oracle axiom: output k on input x over cones theta (and sigma).

    Unary axioms carry only theta.  Binary axioms carry a second string
    sigma of the same length, so a single use bounds both oracles.
    """

    theta: str
    x: int
    k: int
    sigma: str | None = None

    @property
    def use(self) -> int:
        return len(self.theta)

    def validate(self, binary: bool) -> None:
        check_bits(self.theta)
        if self.x < 0:
            raise ValueError("axiom input must be a natural")
        if self.k not in (0, 1):
            raise ValueError("axiom output must be a bit")
        if binary:
            if self.sigma is None:
                raise ValueError("binary axiom lacks its second oracle string")
            check_bits(self.sigma)
            if len(self.sigma) != len(self.theta):
                raise ValueError("binary axiom oracle strings must share one use")
        elif self.sigma is not None:
            raise ValueError("unary axiom carries an unexpected second oracle string")


class FunctionalTable:
    """A Turing functional as a finite, stage-stamped axiom table.

    Axioms become visible at their appear stage and never retract.  The
    table is indexed by input for evaluation; per input, axioms are kept
    in (use, k) order so the first applicable one is the selected one.
    """

    def __init__(self, side: int, e: int, axioms, binary: bool):
        if side not in (0, 1):
            raise ValueError("functional side must be 0 or 1")
        if e < 0:
            raise ValueError("functional index must be a natural")
        self.side = side
        self.e = e
        self.binary = binary
        rows = []
        for appear, ax in axioms:
            if appear < 0:
                raise ValueError("appear stage must be a natural")
            ax.validate(binary)
            rows.append((int(appear), ax))
        rows.sort(key=lambda r: (r[1].x, r[1].use, r[1].k, r[0]))
        self.axioms: tuple[tuple[int, Axiom], ...] = tuple(rows)
        self._by_x: dict[int, list[tuple[int, Axiom]]] = {}
        for appear, ax in self.axioms:
            self._by_x.setdefault(ax.x, []).append((appear, ax))

    def axioms_for(self, x: int) -> list[tuple[int, Axiom]]:
        return self._by_x.get(x, [])


def _segments(a: str, b: str) -> bool:
    return a == b[: len(a)] or b == a[: len(b)]


def conflicting(a: Axiom, b: Axiom) -> bool:
    """True iff a and b answer one input with different bits over compatible oracles.

    Both axioms are unary, or both binary; see ConflictError.
    """
    return (
        a.x == b.x
        and a.k != b.k
        and _segments(a.theta, b.theta)
        and (a.sigma is None or _segments(a.sigma, b.sigma))
    )


def consistency_conflicts(table: FunctionalTable) -> list[tuple[Axiom, Axiom]]:
    """All pairs of axioms that answer one input incompatibly."""
    bad = []
    for rows in table._by_x.values():
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                a, b = rows[i][1], rows[j][1]
                if conflicting(a, b):
                    bad.append((a, b))
    return bad


def validate_consistency(table: FunctionalTable) -> None:
    """Raise ConflictError unless the table is consistent."""
    bad = consistency_conflicts(table)
    if bad:
        raise ConflictError(bad)


def applicable_axiom(
    table: FunctionalTable, s: int, a_cones: Cones, c_cones: Cones | None, x: int
) -> Axiom | None:
    """The axiom the functional selects on input x at stage s, or None.

    Applicable means: appeared by stage s, theta an initial segment of
    the first oracle, and (for binary tables) sigma an initial segment
    of the second, each oracle's cone read at stage s.  Among applicable
    axioms the (use, k)-least is selected; rows are presorted, so it is
    the first one found.
    """
    if table.binary and c_cones is None:
        raise ValueError("binary functional evaluated without its second oracle")
    if not table.binary and c_cones is not None:
        raise ValueError("unary functional evaluated with a second oracle")
    a_holds = a_cones.holds
    for appear, ax in table.axioms_for(x):
        if appear > s or not a_holds(ax.theta, s):
            continue
        if c_cones is not None and not c_cones.holds(ax.sigma, s):
            continue
        return ax
    return None


def agreement_length(
    table: FunctionalTable, a_cones: Cones, d_entry: dict[int, int], s: int
) -> int:
    """Largest y with the unary functional agreeing with D on every x <= y; -1 if none.

    Convergence and agreement are both read at stage s.  The scan stops
    at the first divergence or disagreement, and the table is finite, so
    it always terminates.
    """
    y = -1
    x = 0
    while True:
        got = applicable_axiom(table, s, a_cones, None, x)
        if got is None:
            return y
        if got.k != member(d_entry, x, s):
            return y
        y = x
        x += 1


# -- the external approximation p -------------------------------------------


def changes(row) -> int:
    """How often a stage-indexed bit row changes its mind."""
    return sum(1 for a, b in zip(row, row[1:]) if a != b)


def cone_truth(strings: list[tuple[int, str]], c_cones: Cones, at: int) -> int:
    """1 iff C at stage at lies in the cone of a string enumerated by then.

    strings are the (enumeration stage, sigma) pairs of one guessing set;
    this is the limit the truthful p answers for that set.
    """
    return int(any(u <= at and c_cones.holds(sigma, at) for u, sigma in strings))


class TruthfulDelayPolicy:
    """p answers the cone question about W_j truthfully, d stages late.

    p(j, t) is 0 for t < d and otherwise 1 exactly when C at stage t - d
    lay in the cone of some string enumerated into W_j by stage t - d.
    """

    def __init__(self, delay: int, c_cones: Cones):
        if delay < 1:
            raise ValueError("truthful delay must be at least 1")
        self.delay = delay
        self.c_cones = c_cones

    def live_window(self, enum_stage: int, sigma: str) -> tuple[int, int | None]:
        """Stages [lo, hi] at which one string of W_j makes p answer 1.

        hi None means the window never closes.  The window is empty when
        C leaves the cone before p could report it (lo > hi); when C never
        enters the cone, lo lies beyond any horizon.
        """
        missing, birth, death = self.c_cones.lifetime(sigma)
        if missing:
            return 1 << 62, None
        lo = max(enum_stage, birth) + self.delay
        return lo, None if death is None else death - 1 + self.delay

    def row(self, j: int, strings: list[tuple[int, str]], horizon: int) -> list[int]:
        """p(j, t) for t in 0..horizon."""
        row = [0] * (horizon + 1)
        for enum_stage, sigma in strings:
            lo, hi = self.live_window(enum_stage, sigma)
            top = horizon if hi is None else min(horizon, hi)
            for t in range(lo, top + 1):
                row[t] = 1
        return row

    def first_hit(self, j: int, strings: list[tuple[int, str]], s: int, horizon: int) -> int | None:
        """The first t in s..horizon with p(j, t) = 1, or None."""
        best = None
        for enum_stage, sigma in strings:
            lo, hi = self.live_window(enum_stage, sigma)
            t = max(s, lo)
            if hi is not None and t > hi:
                continue
            if best is None or t < best:
                best = t
        if best is None or best > horizon:
            return None
        return best


class TablePolicy:
    """p read off an explicit per-index table; missing entries are 0."""

    def __init__(self, values: dict[int, list[int]]):
        self.values = {int(j): list(row) for j, row in values.items()}
        for j, row in self.values.items():
            if any(v not in (0, 1) for v in row):
                raise ValueError("p table rows must consist of bits")
            if row and row[0] != 0:
                raise ValueError("p must answer 0 at stage 0 (index %d)" % j)

    def row(self, j: int, strings, horizon: int) -> list[int]:
        """p(j, t) for t in 0..horizon."""
        given = self.values.get(j, [])[: horizon + 1]
        return given + [0] * (horizon + 1 - len(given))

    def first_hit(self, j: int, strings, s: int, horizon: int) -> int | None:
        """The first t in s..horizon with p(j, t) = 1, or None."""
        given = self.values.get(j, [])
        for t in range(s, min(len(given), horizon + 1)):
            if given[t] == 1:
                return t
        return None


def build_policy(scenario, c_cones: Cones):
    """The external approximation p for a robinson scenario; c_cones is over its C."""
    if scenario.p_policy_kind == "table":
        return TablePolicy(scenario.p_policy_params["values"])
    return TruthfulDelayPolicy(scenario.p_policy_params["d"], c_cones)


# -- priority blocks and the dynamic assignment --------------------------------

SIDE_LABEL = ("P", "Q")


def priority_order(side: int, i: int) -> int:
    """Position of block (side, i) in the interleaved priority order."""
    if side not in (0, 1) or i < 0:
        raise ValueError("block address out of range")
    return 2 * i + side


def order_block(order: int) -> tuple[int, int]:
    """Inverse of priority_order."""
    return (order % 2, order // 2)


def block_label(side: int, i: int) -> str:
    """The label of block (side, i), which is also that of requirement (side, i)."""
    return "%s:%d" % (SIDE_LABEL[side], i)


_LABEL_RE = re.compile(r"([PQ]):(0|[1-9][0-9]*)")


def parse_label(text: str) -> tuple[int, int] | None:
    """The (side, n) a block_label string names; None for any other string."""
    m = _LABEL_RE.fullmatch(text)
    if m is None:
        return None
    return SIDE_LABEL.index(m.group(1)), int(m.group(2))


def threatens(x: int, restraint: int) -> bool:
    """An arrival threatens a block iff it is at or below the restraint.

    restraint -1 means the block holds none.
    """
    return 0 <= x <= restraint


def route(x: int, restraints: dict[tuple[int, int], int]):
    """Where an arrival goes: (threatened block, half, block to initialize).

    restraints maps blocks (side, i) to their restraints.  The arrival is
    deflected away from the strongest block it threatens, into the other
    half, and the next-weaker block in priority order is initialized;
    with no threatened block it goes to A0 and nothing is initialized
    (both blocks are then None).
    """
    threatened = [blk for blk, r in restraints.items() if threatens(x, r)]
    if not threatened:
        return None, 0, None
    side, i = min(threatened, key=lambda blk: priority_order(*blk))
    return (side, i), 1 - side, order_block(priority_order(side, i) + 1)


class PriorityAssignment:
    """One side's dynamic requirement-to-block assignment.

    The map is nondecreasing in the requirement index, starts at 0, and
    never steps by more than one, so it is stored as an explicit prefix
    plus a unit-slope extension: value(e) for e beyond the prefix is the
    last prefix value plus the distance.  The initial assignment is the
    identity.  Neither tail nor update raises on a bad argument, so a
    replay of untrusted update claims can apply them and report what is
    wrong; the engine checks its own invariants before it updates.
    blocks indexes membership: it maps each block holding some of the
    side's owners (the indices that own a table) to those owners, in
    order, and update rebuilds it from value, so the two always agree.
    """

    def __init__(self, owners):
        self.owners = sorted(owners)
        self.prefix: list[int] = [0]
        self._index()

    def value(self, e: int) -> int:
        prefix = self.prefix
        last = len(prefix) - 1
        if e <= last:
            if e < 0:
                raise ValueError("requirement index must be a natural")
            return prefix[e]
        return prefix[last] + (e - last)

    def _index(self) -> None:
        self.blocks: dict[int, list[int]] = {}
        for e in self.owners:
            self.blocks.setdefault(self.value(e), []).append(e)

    def members(self, i: int) -> tuple[int, ...]:
        """The owners currently assigned to block i, in ascending order."""
        return tuple(self.blocks.get(i, ()))

    def tail(self, i: int) -> int | None:
        """Largest requirement index currently assigned to block i; None if there is none."""
        last = len(self.prefix) - 1
        top = self.prefix[last]
        if i >= top:
            return last + (i - top)
        e = bisect_right(self.prefix, i) - 1
        if e < 0 or self.prefix[e] != i:
            return None
        return e

    def update(self, s: int, i: int, m: int) -> None:
        """Pull indices m+1..s onto block i; keep unit spacing beyond s.

        m is meant to be the tail of block i, at most s.  Indices at or
        below m keep their block; everything strictly above s lands on
        i + distance-from-s.
        """
        new = self.snapshot_values(m)
        new.extend([i] * (s - m))
        self.prefix = new
        self._index()

    def snapshot_values(self, upto: int) -> list[int]:
        """[value(0), ..., value(upto)]."""
        prefix = self.prefix
        if upto < len(prefix):
            return prefix[: max(upto + 1, 0)]
        last = len(prefix) - 1
        top = prefix[last]
        return prefix + list(range(top + 1, top + 1 + upto - last))
