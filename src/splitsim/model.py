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
  selection record (selection), one lookup per table over a fixed C
  (none for a unary table): each axiom's C side holds on one stage
  interval, its window ([appear, inf) for a unary axiom), so the axiom
  a table selects at a stage asks A's cone only inside it,
* the requirement steps: what one run of a plain requirement does
  (sacks_step: diagonalize, expansionary with the inputs it defines and
  the half's string, or nothing) and the oracle construction's
  per-input step up to its certification (robinson_step: nocomp,
  defined or scan), which the strategies run and the verifier replays,
* the guessing sets (GuessingSet), one record per set W_j: its strings,
  each with the stage of its first enumeration, and the cone truth p
  approximates, the stages at which C lies in one of their cones, kept
  as merged intervals from each string's lifetime and added to once per
  enumeration,
* the semantics of the external approximation p: each policy gives its
  spans for a guessing set, the sorted, disjoint, maximal intervals of
  stages on which p(j, .) answers 1 (truthful delay: the set's truth
  shifted d late; a table: the runs of 1s of its row), one policy per
  scenario, which the loader builds (Scenario.p_policy) and which holds
  no state after construction, so the strategy and the verifier share
  it without sharing any run state; scan, the one
  certification race between p, read off those spans, and C leaving
  sigma's cone; p_settled, whether p answers the set's cone truth at
  the horizon; the mind-change count of a row and of a set's spans,
* the guessing indices (GuessingIndices) that the oracle construction
  drives and the verifier replays, one record per input: which index
  it scans under, which of its refusals repeat one (the memo), its
  local definition and whether that is live at a stage (live), and
  which inputs a cancellation of their requirement injures,
* block and requirement labels and their one parser,
* the interleaved priority order of blocks and the one block-state
  machine (BlockState) that the engine drives and the verifier
  replays: the restraint record, the stack of blocks an arrival can be
  routed against (route), the existing blocks whose suffix an
  initialization clears, and the dynamic assignment of requirements to
  blocks, a monotone map whose block preimages are read by bisection,
* the wake record (WakeRecord): the owners part two runs, their reaches
  and the wake rules, stated once, built from the scenario alone.

A functional converges on an input exactly when some axiom whose oracle
string(s) are initial segments of the current oracle set(s) has appeared
by the current stage.  Ties between applicable axioms are broken by the
lexicographically least (use, value) pair, so evaluation is a pure
function of (table, stage, oracles, input).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple


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
    if not isinstance(s, str) or s.strip("01"):
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
        rows = sorted(entries)
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

    def window(self, sigma: str) -> tuple[float, float]:
        """The stages [lo, hi) on which the set lies in sigma's cone, from its
        lifetime: hi is inf when it never leaves, lo is inf when a 1 is
        missing, and lo >= hi when it never holds.  Exact over a final map."""
        state = self._state.get(sigma)
        if state is None:
            state = self._walk(sigma)
        if state[0]:
            return math.inf, math.inf
        return state[1], math.inf if state[2] is None else state[2]

    def holds(self, sigma: str, t: int) -> bool:
        """True iff sigma is an initial segment of the set at stage t.

        Position i of sigma must be 1 exactly when i is a member; a 0 bit
        over a present element is as disqualifying as a missing 1 bit.
        """
        state = self._state.get(sigma)
        if state is None:
            state = self._walk(sigma)
        return state[0] == 0 and state[1] <= t and (state[2] is None or t < state[2])


class Axiom(NamedTuple):
    """One oracle axiom: output k on input x over cones theta (and sigma).

    Unary axioms carry only theta.  Binary axioms carry a second string
    sigma of the same length, so a single use bounds both oracles.  An
    axiom is an immutable record compared and hashed by value; a tuple,
    because the scenario loader builds one per axiom of a document.
    """

    theta: str
    x: int
    k: int
    sigma: str | None = None

    @property
    def use(self) -> int:
        return len(self.theta)

    def validate(self, binary: bool) -> None:
        theta, x, k, sigma = self
        check_bits(theta)
        if x < 0:
            raise ValueError("axiom input must be a natural")
        if k not in (0, 1):
            raise ValueError("axiom output must be a bit")
        if binary:
            if sigma is None:
                raise ValueError("binary axiom lacks its second oracle string")
            check_bits(sigma)
            if len(sigma) != len(theta):
                raise ValueError("binary axiom oracle strings must share one use")
        elif sigma is not None:
            raise ValueError("unary axiom carries an unexpected second oracle string")


class FunctionalTable:
    """A Turing functional as a finite, stage-stamped axiom table.

    Axioms become visible at their appear stage and never retract.  The
    table is indexed by input for evaluation; per input, axioms are kept
    in (use, k, appear) order, ties in the order given, so the first
    applicable one is the selected one.  Its axioms arrive validated
    (Axiom.validate against binary): the scenario loader validates each
    one to report its problem by path.
    """

    def __init__(self, side: int, e: int, axioms, binary: bool):
        if side not in (0, 1):
            raise ValueError("functional side must be 0 or 1")
        if e < 0:
            raise ValueError("functional index must be a natural")
        self.side = side
        self.e = e
        self.binary = binary
        # Sorted by (x, use, k, appear), then the position given, so the
        # sort never compares two axioms and ties keep their order.
        keyed = []
        for appear, ax in axioms:
            if appear < 0:
                raise ValueError("appear stage must be a natural")
            keyed.append((ax.x, len(ax.theta), ax.k, appear, len(keyed), ax))
        keyed.sort()
        rows: list[tuple[int, Axiom]] = []
        by_x: dict[int, list[tuple[int, Axiom]]] = {}
        # Every oracle position any axiom reads lies below largest_use.
        largest_use = 0
        for x, use, _, appear, _, ax in keyed:
            row = (appear, ax)
            rows.append(row)
            by_x.setdefault(x, []).append(row)
            if use > largest_use:
                largest_use = use
        self.axioms: tuple[tuple[int, Axiom], ...] = tuple(rows)
        self._by_x = by_x
        self.largest_use = largest_use


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


def selection(table: FunctionalTable, c_cones: Cones | None):
    """The selection record of one table: its function at(s, a_cones, x),
    the axiom the table selects on input x at stage s, or None.

    C is fixed: c_cones is over C's final map, or None for a unary table.
    So an axiom's C side holds on one stage interval, its window,
    [max(appear, sigma birth), sigma death), empty when C never lies in
    sigma's cone from its appear stage on; a unary axiom's is [appear,
    inf).  The record keeps a table's rows for an input, (lo, hi, theta,
    axiom) in the table's (use, k) order with the empty windows left out
    and hi None for inf, and fills them only as far as a question reads:
    at gives the first axiom whose window covers s and whose theta holds
    in a_cones at s, so A's cone is asked only inside the window, and no
    axiom after it is filled.  That is exact while a_cones is fed up to
    stage s, and over a final map at every stage.
    """
    if table.binary and c_cones is None:
        raise ValueError("binary functional evaluated without its second oracle")
    if not table.binary and c_cones is not None:
        raise ValueError("unary functional evaluated with a second oracle")
    by_x = table._by_x
    filled: dict[int, tuple] = {}  # x -> (its rows so far, its axioms not yet filled)

    def at(s: int, a_cones: Cones, x: int) -> Axiom | None:
        holds = a_cones.holds
        state = filled.get(x)
        if state is None:
            state = filled[x] = ([], iter(by_x.get(x, ())))
        rows, rest = state
        for lo, hi, theta, ax in rows:
            if lo <= s and (hi is None or s < hi) and holds(theta, s):
                return ax
        for appear, ax in rest:
            theta, _, _, sigma = ax
            lo, hi = appear, None
            if c_cones is not None:
                lo, hi = c_cones.window(sigma)
                if lo < appear:
                    lo = appear
                if lo >= hi:
                    continue
                hi = None if hi == math.inf else hi
            rows.append((lo, hi, theta, ax))
            if lo <= s and (hi is None or s < hi) and holds(theta, s):
                return ax
        return None

    return at


def agreement_length(select, a_cones: Cones, d_entry: dict[int, int], s: int) -> int:
    """Largest y with the unary functional agreeing with D on every x <= y; -1 if none.

    Convergence and agreement are both read at stage s.  The scan stops
    at the first divergence or disagreement, and the table is finite, so
    it always terminates.
    """
    y = -1
    x = 0
    while True:
        got = select(s, a_cones, x)
        if got is None:
            return y
        if got.k != member(d_entry, x, s):
            return y
        y = x
        x += 1


# -- requirement steps --------------------------------------------------------
#
# One run of a requirement decides what it does from a few finite facts:
# its table, its half, D, its own local values and the stage.  Each
# construction's decision is written once here; its strategy keeps the
# state and writes the lines, and the verifier recomputes the step of
# every line a requirement wrote from its replayed state.


def half_string(entry: dict[int, int], s: int) -> str:
    """The characteristic string of a half at stage s, of length s.

    Position n is 1 iff n entered by stage s; the members are marked
    rather than every position tested.
    """
    bits = bytearray(b"0") * s
    for x, t in entry.items():
        if 0 <= x < s and t <= s:
            bits[x] = 49  # "1"
    return bits.decode()


class SacksStep(NamedTuple):
    """What one run of a plain requirement does at stage s.

    exit is "diagonalized" (it diagonalized since its last
    initialization and does nothing), "diagonalize" (x is the first
    input whose defined value D has left), "expansionary" (x is the
    agreement length, a new high; values are D's bits at stage s on the
    inputs len(prefix)..x it defines, each with sigma, the half's string
    at s) or "none" (x is the agreement length, no new high).
    """

    exit: str
    x: int = -1
    values: tuple[int, ...] = ()
    sigma: str = ""


def sacks_step(
    select,
    a_cones: Cones,
    d_entry: dict[int, int],
    values: list[int],
    diagonalized: bool,
    s: int,
) -> SacksStep:
    """The step of a plain requirement whose local values are the prefix
    values; select is its table's selection record."""
    if diagonalized:
        return SacksStep("diagonalized")
    for x, k in enumerate(values):
        if k != member(d_entry, x, s):
            return SacksStep("diagonalize", x)
    ell = agreement_length(select, a_cones, d_entry, s)
    if ell < len(values):
        return SacksStep("none", ell)
    defined = tuple(member(d_entry, x, s) for x in range(len(values), ell + 1))
    return SacksStep("expansionary", ell, defined, half_string(a_cones.entry, s))


def robinson_step(
    select,
    a_cones: Cones,
    d_entry: dict[int, int],
    live: int | None,
    x: int,
    s: int,
) -> tuple[str, Axiom | None]:
    """The oracle construction's per-input step at input x, up to its
    certification: (exit, the axiom select, its table's selection record,
    gives at s, or None).

    live is the input's live local value, None if it holds none.  exit is
    "nocomp" (no selected axiom, one that disagrees with D, or one whose
    use the stage has not yet passed), "defined" (a live value already
    covers x) or "scan" (the selected axiom is to be certified).
    """
    got = select(s, a_cones, x)
    if got is None or got.k != member(d_entry, x, s):
        return "nocomp", got
    if live is not None:
        return "defined", got
    if s <= got.use:
        return "nocomp", got
    return "scan", got


# -- the external approximation p -------------------------------------------


def changes(row) -> int:
    """How often a stage-indexed bit row changes its mind."""
    return sum(1 for a, b in zip(row, row[1:]) if a != b)


class GuessingSet:
    """One guessing set W_j: its strings and the cone truth p approximates.

    strings maps each sigma to the stage of its first enumeration, in
    the order add first recorded them.  truth lists the stages at which C
    lies in the cone of a string enumerated by then, as sorted, disjoint,
    non-adjacent [lo, hi) intervals (hi inf: C never leaves).  Every
    enumeration contributes its string's window over C from its stage
    on, so c_cones must be over C's final map, where every window is
    exact.
    """

    def __init__(self, c_cones: Cones):
        self.c_cones = c_cones
        self.strings: dict[str, int] = {}
        self.truth: list[tuple[int, float]] = []

    def add(self, u: int, sigma: str) -> None:
        """Record sigma's enumeration at stage u, merging its interval into truth."""
        self.strings.setdefault(sigma, u)
        lo, hi = self.c_cones.window(sigma)
        lo = max(u, lo)
        if lo >= hi:
            return
        truth = self.truth
        i = bisect_left(truth, lo, key=itemgetter(1))  # the first interval reaching lo
        k = bisect_right(truth, (hi, math.inf))  # past the last starting by hi
        if i < k:
            lo, hi = min(lo, truth[i][0]), max(hi, truth[k - 1][1])
        truth[i:k] = [(lo, hi)]

    def holds(self, t: int) -> bool:
        """True iff C at stage t lies in the cone of a string enumerated by t."""
        k = bisect_right(self.truth, (t, math.inf))
        return k > 0 and t < self.truth[k - 1][1]


class TruthfulDelayPolicy:
    """p answers the cone question about W_j truthfully, d stages late.

    p(j, t) is 0 for t < d and otherwise 1 exactly when C at stage t - d
    lay in the cone of some string enumerated into W_j by stage t - d.
    """

    def __init__(self, delay: int):
        if delay < 1:
            raise ValueError("truthful delay must be at least 1")
        self.delay = delay

    def spans(self, j: int, guessing_set: GuessingSet, horizon: int) -> list[tuple[int, int]]:
        """The set's truth intervals shifted d late, clipped to the horizon."""
        d = self.delay
        return [
            (lo + d, min(hi - 1 + d, horizon)) for lo, hi in guessing_set.truth if lo + d <= horizon
        ]


class TablePolicy:
    """p read off a per-index table, kept as each row's runs of 1s; missing entries are 0."""

    def __init__(self, values: dict[int, list[int]]):
        self._spans: dict[int, list[tuple[int, int]]] = {}
        for j, row in values.items():
            if any(v not in (0, 1) for v in row):
                raise ValueError("p table rows must consist of bits")
            if row and row[0] != 0:
                raise ValueError("p must answer 0 at stage 0 (index %d)" % j)
            spans = self._spans[int(j)] = []
            for t, v in enumerate(row):
                if v and spans and spans[-1][1] == t - 1:
                    spans[-1] = (spans[-1][0], t)
                elif v:
                    spans.append((t, t))

    def spans(self, j: int, guessing_set, horizon: int) -> list[tuple[int, int]]:
        """Row j's runs of 1s, clipped to the horizon."""
        return [(lo, min(hi, horizon)) for lo, hi in self._spans.get(j, ()) if lo <= horizon]


def p_changes(spans, horizon: int) -> int:
    """How often p changes its mind in 0..horizon over its spans: at
    both ends of every span, less a start at stage 0 and an end at the
    horizon."""
    if not spans:
        return 0
    return 2 * len(spans) - (spans[0][0] == 0) - (spans[-1][1] == horizon)


def p_settled(spans, guessing_set, horizon: int) -> bool:
    """True iff p has settled on the guessing set by the horizon: its
    answer there, 1 iff its last span reaches the horizon, is the set's
    cone truth there."""
    return (bool(spans) and spans[-1][1] == horizon) == guessing_set.holds(horizon)


def scan(spans, c_cones: Cones, sigma: str, entry: int, horizon: int):
    """The certification scan from stage entry: the race between p and C.

    spans are p's for the guessing index, as its policy gives them, and C
    lies in sigma's cone at entry.  The scan certifies at the first p hit,
    is refused at the stage C leaves the cone if that comes no later, and
    is pending when neither happens by the horizon: ("certify", t),
    ("refused", t) or ("pending", None).
    """
    _, _, death = c_cones.lifetime(sigma)
    t_hit = next((max(entry, lo) for lo, hi in spans if hi >= entry), None)
    if death is not None and death <= horizon and (t_hit is None or death <= t_hit):
        return "refused", death
    if t_hit is None:
        return "pending", None
    return "certify", t_hit


class GuessingIndices:
    """Each input's one record: its guessing index, the sigmas it has
    refused and its local definition.

    An input is keyed by (req, x), of any hashable types.  Its record is
    issued with its index and dropped with it, so neither a refusal nor
    a definition can outlive the index it was made under.  Indices are
    issued 0, 1, 2, ... in order of first use, and a cancelled input is
    issued a fresh one on its next scan.  A definition (k, death) is
    live at stage s iff death is None or s < death (live), the one
    liveness rule of the oracle construction's local values.
    """

    def __init__(self):
        self.issued = 0
        self._by_req: dict = {}

    def __len__(self) -> int:
        """The number of inputs holding an index."""
        return sum(map(len, self._by_req.values()))

    def _entry(self, req, x) -> list:
        inputs = self._by_req.setdefault(req, {})
        entry = inputs.get(x)
        if entry is None:
            entry = inputs[x] = [self.issued, set(), None]
            self.issued += 1
        return entry

    def held(self, req, x) -> int:
        """The index input x of req holds, issuing the next one if it holds none."""
        return self._entry(req, x)[0]

    def refuse(self, req, x, sigma) -> bool:
        """Record a refusal of sigma; True iff the input refused it since its index was issued."""
        refusals = self._entry(req, x)[1]
        if sigma in refusals:
            return True
        refusals.add(sigma)
        return False

    def define(self, req, x, k: int, death: int | None) -> None:
        """Record the local definition (k, death) under the index the input
        holds; an input that holds none is issued none and defines nothing."""
        entry = self._by_req.get(req, {}).get(x)
        if entry is not None:
            entry[2] = (k, death)

    def live(self, req, x, s: int) -> int | None:
        """The input's local value if its definition is live at stage s, else None."""
        entry = self._by_req.get(req, {}).get(x)
        if entry is None or entry[2] is None:
            return None
        k, death = entry[2]
        return k if death is None or s < death else None

    def cancel(self, req) -> list:
        """Drop the records of req; the inputs that held an index, ascending."""
        return sorted(self._by_req.pop(req, ()))


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


class PriorityAssignment:
    """One side's dynamic requirement-to-block assignment.

    The map is nondecreasing in the requirement index, starts at 0, and
    never steps by more than one, so it is stored as an explicit prefix
    plus a unit-slope extension: value(e) for e beyond the prefix is the
    last prefix value plus the distance.  The initial assignment is the
    identity.  update keeps the map valid under any claim, so a replay
    of untrusted update claims can apply them and report what is wrong;
    the engine checks its own invariants before it updates.

    owners are the side's indices that own a table, in ascending order.
    The map is monotone, so a block's preimage is one run of indices,
    read off the prefix by bisection (or, past it, the one index
    last + (i - top)), and its owners are a slice of owners.
    """

    def __init__(self, owners):
        self.owners = sorted(owners)
        self.prefix: list[int] = [0]

    def value(self, e: int) -> int:
        prefix = self.prefix
        last = len(prefix) - 1
        if e <= last:
            if e < 0:
                raise ValueError("requirement index must be a natural")
            return prefix[e]
        return prefix[last] + (e - last)

    def _preimage(self, i: int) -> tuple[int, int]:
        """The indices [lo, hi) currently assigned to block i."""
        prefix = self.prefix
        last = len(prefix) - 1
        if i > prefix[last]:
            e = last + (i - prefix[last])
            return e, e + 1
        return bisect_left(prefix, i), bisect_right(prefix, i)

    def members(self, i: int) -> tuple[int, ...]:
        """The owners currently assigned to block i, in ascending order."""
        lo, hi = self._preimage(i)
        owners = self.owners
        return tuple(owners[bisect_left(owners, lo): bisect_left(owners, hi)])

    def tail(self, i: int) -> int | None:
        """Largest requirement index currently assigned to block i; None if there is none."""
        lo, hi = self._preimage(i)
        return hi - 1 if lo < hi else None

    def update(self, s: int, i: int, m: int) -> None:
        """Pull indices m+1..s onto block i; keep unit spacing beyond s.

        m is meant to be the tail of block i, and 0 <= m <= s.  Indices
        at or below m keep their block; everything strictly above s lands
        on i + distance-from-s.  Below s the target i is clamped into
        value(m) or one above it, so any such claim leaves the map valid.
        """
        prefix = self.prefix
        last = len(prefix) - 1
        if m < s:
            base = prefix[m] if m <= last else prefix[last] + (m - last)
            i = min(max(i, base), base + 1)
        # The prefix becomes [value(0), ..., value(m)] + [i] * (s - m), in place.
        if m <= last:
            del prefix[m + 1:]
        else:
            prefix.extend(range(prefix[last] + 1, prefix[last] + 1 + m - last))
        prefix.extend([i] * (s - m))

    def first_rise(self, s: int, i: int, m: int) -> tuple[int, int, int] | None:
        """The first index the claim update(s, i, m) raises, as (e, was, now); None if none.

        The claim is judged as written, before update clamps its target.
        For 0 <= m <= s over a valid map (nondecreasing from 0, steps of
        0 or 1), where value(e) - e is nonincreasing.  Indices up to m
        keep their values and those in (m, s] take i; value(m+1) is the
        least old value among them, so a rise there shows at m + 1.  Past
        s the new map has value(e) - e constant, so the first index whose
        old value(e) - e falls below that constant is found by bisection.
        """
        if m < s:
            was = self.value(m + 1)
            if was < i:
                return m + 1, was, i
            base = i - s
        else:
            base = self.value(s) - s
        prefix = self.prefix
        last = len(prefix) - 1
        e = bisect_right(
            range(last + 1), -base, min(s + 1, last + 1), key=lambda e: e - prefix[e]
        )
        if e > last and prefix[last] - last >= base:
            return None
        e = max(e, s + 1)
        return e, self.value(e), base + e

    def snapshot_values(self, upto: int) -> list[int]:
        """[value(0), ..., value(upto)]."""
        prefix = self.prefix
        if upto < len(prefix):
            return prefix[: max(upto + 1, 0)]
        last = len(prefix) - 1
        top = prefix[last]
        return prefix + list(range(top + 1, top + 1 + upto - last))


class BlockState:
    """The block facts the construction and the verifier share.

    restraint is the record: it maps each block that exists, keyed by
    its address (side, i), to its restraint, -1 for none.  Restraints
    are stages, each set no lower than any set before it, and an
    initialization clears a block together with every weaker one.  So
    the blocks an arrival can be routed against form a stack of
    (order, restraint) pairs increasing in both, each restraint above
    that of every stronger block: set_restraint pops the orders at or
    above its block's and pushes the pair unless the top already holds
    as high a restraint, initialize pops the orders at or above its
    floor, and route is one bisection for the first restraint at or
    above the arrival.  orders lists the existing blocks in priority
    order, so the victims of an initialization are a slice of it, and
    _live lists the blocks holding a restraint, so clearing them costs
    what setting them did.  The two assignments carry block membership,
    which each reads off its map by bisection.

    One rule besides initialization and restraint brings blocks into
    existence: after part two at an even stage, every owner block of
    order at most its bound (the stop order, or the acting block's order)
    exists.  Its state is one cursor per side into that side's sorted
    owners, those before it sitting on existing blocks.  advance(bound)
    moves the cursors past the owners whose block order is at most
    bound, adding their blocks.  After an update at stage s, clamp(side,
    s) pulls the cursor back to the owners at or below s: those past s
    move onto unit-spaced blocks that may not exist.  In a run no bound
    reaches an owner past s, so there the clamp only guards; an advance
    to any bound, as a replay of untrusted act lines makes, needs it.
    """

    def __init__(self, owners):
        self.assignments = tuple(
            PriorityAssignment(e for owner_side, e in owners if owner_side == side)
            for side in (0, 1)
        )
        self.restraint: dict[tuple[int, int], int] = {}
        self.orders: list[int] = []
        self._live: list[int] = []
        self._stack_orders: list[int] = []
        self._stack_restraints: list[int] = []
        self._cursor = [0, 0]

    def add(self, side: int, i: int) -> None:
        """Bring block (side, i) into existence if it is not yet, with no restraint."""
        if (side, i) not in self.restraint:
            self.restraint[(side, i)] = -1
            insort(self.orders, priority_order(side, i))

    def _pop(self, order: int) -> None:
        k = bisect_left(self._stack_orders, order)
        del self._stack_orders[k:]
        del self._stack_restraints[k:]

    def set_restraint(self, side: int, i: int, s: int) -> bool:
        """Set the restraint of block (side, i) to stage s; False if it already holds s."""
        old = self.restraint.get((side, i))
        if old == s:
            return False
        order = priority_order(side, i)
        if old is None:
            insort(self.orders, order)
        if old is None or old < 0:
            insort(self._live, order)
        self.restraint[(side, i)] = s
        self._pop(order)
        if not self._stack_restraints or self._stack_restraints[-1] < s:
            self._stack_orders.append(order)
            self._stack_restraints.append(s)
        return True

    def initialize(self, side: int, i: int) -> None:
        """Initialize block (side, i), bringing it into existence, and every weaker block."""
        self.add(side, i)
        floor = priority_order(side, i)
        self._pop(floor)
        live = self._live
        k = bisect_left(live, floor)
        for order in live[k:]:
            self.restraint[order_block(order)] = -1
        del live[k:]

    def advance(self, bound: int) -> None:
        """Bring into existence the block of every owner whose block order is at most bound."""
        for side, assign in enumerate(self.assignments):
            owners, prefix, k = assign.owners, assign.prefix, self._cursor[side]
            last = len(prefix) - 1
            while k < len(owners):
                e = owners[k]
                i = prefix[e] if e <= last else prefix[last] + e - last
                if 2 * i + side > bound:
                    break
                self.add(side, i)
                k += 1
            self._cursor[side] = k

    def caught_up(self) -> bool:
        """True iff both cursors stand past every owner, so no advance adds a block."""
        return all(k == len(a.owners) for k, a in zip(self._cursor, self.assignments))

    def clamp(self, side: int, s: int) -> None:
        """After an update of side's assignment at stage s: only the owners
        at or below s are known to sit on existing blocks."""
        self._cursor[side] = min(self._cursor[side], bisect_right(self.assignments[side].owners, s))

    def existing_from(self, order: int) -> list[int]:
        """The orders of the existing blocks at order or weaker, ascending."""
        return self.orders[bisect_left(self.orders, order):]

    def route(self, x: int):
        """Where an arrival goes: (threatened block, half, block to initialize).

        The arrival is deflected away from the strongest block it
        threatens, into the other half, and the next-weaker block in
        priority order is initialized; with no threatened block it goes
        to A0 and nothing is initialized (both blocks are then None).
        """
        k = bisect_left(self._stack_restraints, x)
        if x < 0 or k == len(self._stack_restraints):
            return None, 0, None
        order = self._stack_orders[k]
        side, i = order_block(order)
        return (side, i), 1 - side, order_block(order + 1)

    def threatened(self, x: int) -> list[int]:
        """The orders of every block the arrival x threatens, ascending.

        The strongest is the one route finds on the stack; a weaker one
        holding a restraint off the stack lies above it in _live.
        """
        k = bisect_left(self._stack_restraints, x)
        if x < 0 or k == len(self._stack_restraints):
            return []
        live, restraint = self._live, self.restraint
        return [
            order for order in live[bisect_left(live, self._stack_orders[k]):]
            if threatens(x, restraint[order_block(order)])
        ]

    def orders_of(self, owners) -> list[int]:
        """The distinct priority orders of the blocks holding these (side, e) owners, ascending.

        Each owner's block is read off its side's prefix, or the
        unit-slope extension past it, as value does.
        """
        ends = [(a.prefix, len(a.prefix) - 1) for a in self.assignments]
        return sorted({
            2 * (prefix[e] if e <= last else prefix[last] + e - last) + side
            for side, e in owners
            for prefix, last in (ends[side],)
        })


# -- the wake record -----------------------------------------------------------


class WakeRecord:
    """Which table owners part two runs, built from the scenario alone.

    awake is the set of owners part two runs, and reach maps each owner
    to the largest input on which whether its next run does anything
    rests.  A strategy puts an owner to sleep (sleep) after a run that
    shows its next run would do nothing before a rule below fires, with
    the reach that run computed.  Every owner starts asleep with reach 0:
    it holds no local value or definition, so whether its first run does
    anything rests on input 0 alone.  A sleeping owner wakes when

      (a) an axiom of its table appears at an input at most its reach;
      (b) such an axiom of a binary table ends its deferral, at use + 1;
      (c) C enters below the largest use of its binary table;
      (d) D enters, scheduled or by the policy, at an input at most its
          reach;
      (e) an arrival on its side lands below its table's largest use;
      (f) an initialization of its block cancels it.

    The recorded reach holds while the owner sleeps: only a run, or the
    reset after a cancellation, which wakes it, changes the state it was
    computed from.  schedule maps a stage to its wakes under (a)-(d), as
    (owner, input): owner None is every owner, input None any input.
    The engine calls one method per event.
    """

    def __init__(self, scenario):
        tables = scenario.functionals
        self.awake: set[tuple[int, int]] = set()
        self.reach: dict[tuple[int, int], int] = dict.fromkeys(tables, 0)
        schedule = self.schedule = {}
        for key, table in tables.items():
            for appear, ax in table.axioms:
                schedule.setdefault(appear, []).append((key, ax.x))
                if table.binary:
                    schedule.setdefault(ax.use + 1, []).append((key, ax.x))
            if table.binary:
                for t, c in scenario.c_schedule.entries:
                    if c < table.largest_use:
                        schedule.setdefault(t, []).append((key, None))
        for t, x in scenario.d_schedule.entries:
            schedule.setdefault(t, []).append((None, x))
        # Rule (e): per side, the owners by their table's largest use, beside those uses.
        self._uses = ([], [])
        self._by_use = ([], [])
        for use, key in sorted((table.largest_use, key) for key, table in tables.items()):
            self._uses[key[0]].append(use)
            self._by_use[key[0]].append(key)

    def stage(self, s):
        """Rules (a)-(d) as scheduled at stage s."""
        awake, reach = self.awake, self.reach
        for owner, x in self.schedule.get(s, ()):
            if owner is None:
                self.d_entry(x)
            elif owner not in awake and (x is None or reach[owner] >= x):
                awake.add(owner)

    def d_entry(self, x):
        """Rule (d): D enters at input x."""
        awake = self.awake
        awake.update([o for o, r in self.reach.items() if r >= x and o not in awake])

    def arrival(self, side, x):
        """Rule (e): x arrives in the half of side."""
        self.awake.update(self._by_use[side][bisect_right(self._uses[side], x):])

    def cancel(self, owners):
        """Rule (f): an initialization cancels these owners."""
        self.awake.update(owners)

    def sleep(self, owner, reach):
        """Skip owner in part two until a rule fires for it at this reach."""
        self.awake.discard(owner)
        self.reach[owner] = reach
