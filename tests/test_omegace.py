import pytest
from hypothesis import given, strategies as st

from splitsim.model import pair
from splitsim.omegace import (
    ApproxTable,
    build_change_set,
    restrict,
)

from limit_reference import limit_eval


def test_table_validation():
    ApproxTable(2, {0: (0, 1, 1)}, {}, default_bound=2)
    with pytest.raises(ValueError):
        ApproxTable(-1, {}, {})
    with pytest.raises(ValueError):
        ApproxTable(2, {}, {}, default_bound=0)
    with pytest.raises(ValueError):
        ApproxTable(2, {}, {0: 0})
    with pytest.raises(ValueError):
        ApproxTable(2, {-1: (0, 0, 0)}, {})
    with pytest.raises(ValueError):
        ApproxTable(2, {0: (0, 0)}, {})  # wrong row length
    with pytest.raises(ValueError):
        ApproxTable(2, {0: (0, 2, 0)}, {})
    with pytest.raises(ValueError):
        ApproxTable(2, {0: (1, 1, 1)}, {})  # must start at 0
    with pytest.raises(ValueError):
        ApproxTable(2, {0: (0, 1, 0)}, {})  # 2 changes >= default bound 1


def test_change_set_frozen_example():
    # Hand-coded: row 0 flips after stages 0, 2, 4; row 1 flips after stage 1.
    tab = ApproxTable(
        5,
        {0: (0, 1, 1, 0, 0, 1), 1: (0, 0, 1, 1, 1, 1)},
        {},
        default_bound=4,
    )
    sched = build_change_set(tab)
    assert sched.entries == (
        (0, pair(0, 0)),
        (1, pair(1, 0)),
        (2, pair(0, 1)),
        (4, pair(0, 2)),
    )
    assert sched.entries == ((0, 0), (1, 1), (2, 2), (4, 5))
    assert limit_eval(tab, 0) == 1
    assert limit_eval(tab, 1) == 1
    assert limit_eval(tab, 7) == 0
    # Both arguments end at 1: odd change counts below the merged bound.
    assert restrict(tab, 2) == {0, 1}
    assert restrict(tab, 1) == {0}
    assert restrict(tab, 0) == set()


def test_restrict_range_checks():
    tab = ApproxTable(3, {}, {})
    with pytest.raises(ValueError):
        restrict(tab, -1)
    with pytest.raises(ValueError):
        restrict(tab, 5)
    assert restrict(tab, 3) == set()


def test_value_defaults_to_zero():
    tab = ApproxTable(4, {2: (0, 1, 1, 1, 1)}, {}, default_bound=2)
    assert tab.value(2, 0) == 0
    assert tab.value(2, 4) == 1
    assert tab.value(9, 4) == 0
    assert tab.bound_for(2) == 2
    assert ApproxTable(1, {}, {3: 5}).bound_for(3) == 5


@st.composite
def _tables(draw):
    horizon = draw(st.integers(1, 24))
    rows = {}
    bounds = {}
    for x in draw(st.sets(st.integers(0, 6), max_size=5)):
        flips = draw(st.integers(0, 5))
        stamps = sorted(draw(st.sets(st.integers(0, horizon - 1), max_size=flips)))
        row = [0] * (horizon + 1)
        bit = 0
        j = 0
        for s in range(1, horizon + 1):
            while j < len(stamps) and stamps[j] < s:
                bit ^= 1
                j += 1
            row[s] = bit
        rows[x] = tuple(row)
        bounds[x] = len(stamps) + 1 + draw(st.integers(0, 3))
    return ApproxTable(horizon, rows, bounds, default_bound=draw(st.integers(1, 4)))


@given(_tables(), st.integers(0, 24))
def test_restrict_matches_limit_set(tab, n):
    """Decoding the change set reproduces direct limit evaluation."""
    if n > tab.horizon:
        n = tab.horizon
    assert restrict(tab, n) == {x for x in range(n) if limit_eval(tab, x) == 1}


@given(_tables())
def test_change_set_is_a_valid_schedule(tab):
    sched = build_change_set(tab)
    stamps = [s for s, _ in sched.entries]
    assert stamps == sorted(stamps)
    assert all(0 <= s < tab.horizon for s in stamps)
    codes = [x for _, x in sched.entries]
    assert len(codes) == len(set(codes))
