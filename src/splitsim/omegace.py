"""Bounded mind-change approximations and their change-set coding.

An ApproxTable is a finite, horizon-bounded picture of a limit-computable
0/1 function: for each argument x a stage-indexed bit sequence that starts
at 0 and flips fewer than b(x) times.  The change set encodes each flip as
a Cantor pair code: the i-th flip of argument x, observed between stages u
and u+1, enumerates pair(x, i-1) at stage u.

restrict reads the limit of the approximation back out of the change set
alone, in one pass over its codes: x is in the limit set exactly when its
code count below the merged bound is odd.  The acceptance suite checks
this equivalence with direct limit evaluation on randomized tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import EnumerationSchedule, changes, pair, unpair


@dataclass(frozen=True)
class ApproxTable:
    """A stage-indexed approximation f(x, s) with change bounds b(x).

    Rows are bit tuples of length horizon + 1 (stages 0..horizon); an
    absent row means the approximation is constantly 0 at that argument.
    """

    horizon: int
    rows: dict[int, tuple[int, ...]]
    bounds: dict[int, int]
    default_bound: int = 1

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("approximation horizon must be a natural")
        if self.default_bound < 1:
            raise ValueError("change bounds must be positive")
        for x, bound in self.bounds.items():
            if bound < 1:
                raise ValueError("change bound at %d must be positive" % x)
        for x, row in self.rows.items():
            if x < 0:
                raise ValueError("arguments must be naturals")
            if len(row) != self.horizon + 1:
                raise ValueError("row at %d must cover stages 0..%d" % (x, self.horizon))
            if any(v not in (0, 1) for v in row):
                raise ValueError("row at %d must consist of bits" % x)
            if row[0] != 0:
                raise ValueError("approximations must start at 0 (argument %d)" % x)
            if changes(row) >= self.bound_for(x):
                raise ValueError(
                    "argument %d changes its mind %d times, bound is %d"
                    % (x, changes(row), self.bound_for(x))
                )

    def bound_for(self, x: int) -> int:
        return self.bounds.get(x, self.default_bound)

    def value(self, x: int, s: int) -> int:
        row = self.rows.get(x)
        return 0 if row is None else row[s]


def limit_eval(tab: ApproxTable, x: int) -> int:
    """The approximation's value at the horizon."""
    return tab.value(x, tab.horizon)


def build_change_set(tab: ApproxTable) -> EnumerationSchedule:
    """Code every mind change of the table into one enumeration.

    The i-th change of argument x (i counted from 1), happening between
    stages u and u+1, contributes element pair(x, i - 1) at stage u.
    """
    entries = []
    for x in sorted(tab.rows):
        row = tab.rows[x]
        i = 0
        for u in range(tab.horizon):
            if row[u + 1] != row[u]:
                entries.append((u, pair(x, i)))
                i += 1
    return EnumerationSchedule.build("C", entries)


def restrict(tab: ApproxTable, n: int) -> set[int]:
    """Decode the limit set below n from the change set alone.

    Merges the change bounds below n into d, then reads the elements of
    the change set once (every code is enumerated before the horizon):
    each code unpairs to (x, i), and when x < n and i < d it toggles x's
    parity.  x is in the result iff it was toggled an odd number of
    times, i.e. iff the number of codes pair(x, i) with i < d is odd;
    pair is a bijection, so this is the same count as probing every
    pair(x, i), in O(codes) instead of O(n * d).
    """
    if n < 0 or n > tab.horizon:
        raise ValueError("restriction length must lie within the horizon")
    if n == 0:
        return set()
    d = max(tab.bound_for(x) for x in range(n))
    out = set()
    for code in build_change_set(tab).entry_stage():
        x, i = unpair(code)
        if x < n and i < d:
            out ^= {x}
    return out
