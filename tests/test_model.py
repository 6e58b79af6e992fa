import pytest
from hypothesis import given, strategies as st

from splitsim.model import (
    Axiom,
    ConflictError,
    Cones,
    EnumerationSchedule,
    FunctionalTable,
    PriorityAssignment,
    applicable_axiom,
    block_label,
    changes,
    check_bits,
    cone_truth,
    consistency_conflicts,
    pair,
    parse_label,
    route,
    unpair,
    validate_consistency,
)

# Frozen pairing values, recomputed by hand from (a+b)(a+b+1)/2 + b.
PAIR_CASES = [
    ((0, 0), 0),
    ((1, 0), 1),
    ((0, 1), 2),
    ((2, 0), 3),
    ((1, 1), 4),
    ((0, 2), 5),
    ((2, 1), 7),
    ((1, 2), 8),
    ((3, 2), 17),
]


@pytest.mark.parametrize("ab,code", PAIR_CASES)
def test_pair_frozen_values(ab, code):
    assert pair(*ab) == code
    assert unpair(code) == ab


def test_pair_rejects_negatives():
    with pytest.raises(ValueError):
        pair(-1, 0)
    with pytest.raises(ValueError):
        unpair(-3)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_pair_round_trip(a, b):
    assert unpair(pair(a, b)) == (a, b)


@given(st.integers(0, 10**9))
def test_unpair_round_trip(n):
    a, b = unpair(n)
    assert pair(a, b) == n


def test_check_bits():
    assert check_bits("0101") == "0101"
    assert check_bits("") == ""
    with pytest.raises(ValueError):
        check_bits("012")
    with pytest.raises(ValueError):
        check_bits(None)


def test_schedule_build_rejects_duplicates_and_negatives():
    with pytest.raises(ValueError):
        EnumerationSchedule.build("B", [(1, 3), (5, 3)])
    with pytest.raises(ValueError):
        EnumerationSchedule.build("B", [(-1, 3)])
    with pytest.raises(ValueError):
        EnumerationSchedule.build("B", [(1, -3)])


def test_schedule_members_and_entry():
    sched = EnumerationSchedule.build("C", [(4, 2), (1, 0)])
    assert sched.entries == ((1, 0), (4, 2))
    entry = sched.entry_stage()
    assert entry == {0: 1, 2: 4}
    # The set at stage s, read through the cone oracle as its
    # characteristic string up to the largest element.
    cones = Cones(entry)
    assert cones.holds("000", 0)
    assert cones.holds("100", 1)
    assert cones.holds("101", 4)
    assert cones.holds("100", 3)


@given(
    st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=12),
    st.integers(0, 30),
    st.integers(0, 30),
)
def test_schedule_snapshots_monotone(rows, s, t):
    entries = []
    seen = set()
    for u, x in rows:
        if x not in seen:
            seen.add(x)
            entries.append((u, x))
    entry = EnumerationSchedule.build("B", entries).entry_stage()
    lo, hi = min(s, t), max(s, t)

    def chars(u):
        return "".join("1" if entry.get(i, 99) <= u else "0" for i in range(31))

    cones = Cones(entry)
    assert cones.holds(chars(lo), lo)
    assert cones.holds(chars(hi), hi)
    assert all(a <= b for a, b in zip(chars(lo), chars(hi)))


def test_cone_membership():
    present = Cones({0: 5, 2: 5})
    assert present.holds("", 5)
    assert present.holds("101", 5)
    assert not Cones({}).holds("1", 0)
    assert not present.holds("100", 5)  # bit 2 claims absence
    assert not present.holds("11", 5)
    entry = Cones({0: 1, 2: 4})
    assert entry.holds("101", 4)
    assert not entry.holds("101", 3)
    assert entry.holds("1", 1)
    assert not entry.holds("01", 2)


def test_axiom_validation():
    Axiom("01", 2, 1).validate(binary=False)
    Axiom("01", 2, 1, "10").validate(binary=True)
    with pytest.raises(ValueError):
        Axiom("01", 2, 1, "10").validate(binary=False)
    with pytest.raises(ValueError):
        Axiom("01", 2, 1).validate(binary=True)
    with pytest.raises(ValueError):
        Axiom("01", 2, 1, "100").validate(binary=True)
    with pytest.raises(ValueError):
        Axiom("01", 2, 2).validate(binary=False)
    with pytest.raises(ValueError):
        Axiom("01", -1, 0).validate(binary=False)


def _table(axioms, binary=False, side=0, e=0):
    return FunctionalTable(side, e, axioms, binary)


def test_evaluate_cone_and_appear_gating():
    table = _table(
        [
            (0, Axiom("0", 0, 0)),
            (0, Axiom("1", 0, 1)),
            (2, Axiom("", 1, 1)),
        ]
    )
    ax = applicable_axiom(table, 0, Cones(), None, 0)
    assert (ax.k, ax.use) == (0, 1)
    ax = applicable_axiom(table, 0, Cones({0: 0}), None, 0)
    assert (ax.k, ax.use) == (1, 1)
    # An element entering after the stage is not yet in the oracle.
    ax = applicable_axiom(table, 0, Cones({0: 1}), None, 0)
    assert (ax.k, ax.use) == (0, 1)
    # Appear stage gates the x=1 axiom.
    assert applicable_axiom(table, 1, Cones(), None, 1) is None
    assert applicable_axiom(table, 2, Cones(), None, 1).k == 1
    assert applicable_axiom(table, 2, Cones(), None, 5) is None


def test_evaluate_arity_checks():
    unary = _table([(0, Axiom("", 0, 0))])
    binary = _table([(0, Axiom("", 0, 0, ""))], binary=True)
    with pytest.raises(ValueError):
        applicable_axiom(unary, 0, Cones(), Cones(), 0)
    with pytest.raises(ValueError):
        applicable_axiom(binary, 0, Cones(), None, 0)
    assert applicable_axiom(binary, 0, Cones(), Cones(), 0).k == 0
    # The second oracle gates binary axioms through sigma.
    gated = _table([(0, Axiom("1", 0, 1, "1"))], binary=True)
    assert applicable_axiom(gated, 3, Cones({0: 2}), Cones(), 0) is None
    assert applicable_axiom(gated, 3, Cones(), Cones({0: 3}), 0) is None
    assert applicable_axiom(gated, 3, Cones({0: 2}), Cones({0: 3}), 0).k == 1


def test_consistency_conflicts():
    with pytest.raises(ConflictError):
        validate_consistency(_table([(0, Axiom("", 0, 0)), (3, Axiom("1", 0, 1))]))
    ok = _table([(0, Axiom("0", 0, 0)), (0, Axiom("1", 0, 1))])
    assert consistency_conflicts(ok) == []
    # Binary tables may disagree when the second strings are incompatible.
    ok2 = _table(
        [(0, Axiom("0", 0, 0, "0")), (0, Axiom("0", 0, 1, "1"))], binary=True
    )
    assert consistency_conflicts(ok2) == []
    with pytest.raises(ConflictError):
        validate_consistency(
            _table([(0, Axiom("0", 0, 0, "1")), (0, Axiom("01", 0, 1, "10"))], binary=True)
        )


def test_table_rejects_bad_shape():
    with pytest.raises(ValueError):
        _table([], side=2)
    with pytest.raises(ValueError):
        FunctionalTable(0, -1, [], False)
    with pytest.raises(ValueError):
        _table([(-1, Axiom("", 0, 0))])


@st.composite
def _axiom_pools(draw):
    n = draw(st.integers(1, 8))
    rows = []
    for _ in range(n):
        theta = "".join(draw(st.sampled_from("01")) for _ in range(draw(st.integers(0, 4))))
        rows.append((draw(st.integers(0, 6)), Axiom(theta, draw(st.integers(0, 2)), draw(st.integers(0, 1)))))
    return rows


@given(_axiom_pools(), st.sets(st.integers(0, 4)), st.integers(0, 8))
def test_consistent_tables_answer_uniquely(rows, members, s):
    """Any two axioms applicable at one oracle agree once the table is consistent."""
    table = _table(rows)
    if consistency_conflicts(table):
        return
    cones = Cones(dict.fromkeys(members, s))
    for x in range(3):
        answers = {
            ax.k
            for appear, ax in table.axioms_for(x)
            if appear <= s and cones.holds(ax.theta, s)
        }
        assert len(answers) <= 1
        got = applicable_axiom(table, s, cones, None, x)
        if answers:
            assert got is not None and got.k in answers
        else:
            assert got is None


def test_parse_label():
    assert parse_label("P:3") == (0, 3)
    assert parse_label("Q:0") == (1, 0)
    assert parse_label("R:1") is None
    assert parse_label("P:") is None
    for side in (0, 1):
        for n in (0, 1, 9, 10, 12345):
            assert parse_label(block_label(side, n)) == (side, n)
    for text in ("Z:0", "P:x", "P:03", "P:-1", "P:\u0663", "P:+1", "P: 1", "P:1\n", "", "garbage"):
        assert parse_label(text) is None, text


def test_route():
    # No restraint is threatened: A0, nothing initialized.
    assert route(4, {}) == (None, 0, None)
    assert route(4, {(0, 0): 3, (1, 0): -1}) == (None, 0, None)
    # The strongest threatened block decides; the next-weaker block is initialized.
    assert route(2, {(0, 1): 5, (1, 0): 2}) == ((1, 0), 0, (0, 1))
    assert route(2, {(0, 1): 5, (1, 1): 2}) == ((0, 1), 1, (1, 1))
    assert route(0, {(0, 0): 0}) == ((0, 0), 1, (1, 0))


def test_members():
    assert PriorityAssignment([5, 0, 2]).members(2) == (2,)
    first, second = PriorityAssignment([0, 1, 3, 4]), PriorityAssignment([0, 1, 3, 5])
    for assign in (first, second):
        assign.update(3, 1, 1)  # indices 2..3 join block 1, 4 moves to block 2
        assert [assign.value(e) for e in range(6)] == [0, 1, 1, 1, 2, 3]
    assert first.members(1) == (1, 3)
    assert second.members(2) == ()


@given(
    st.sets(st.integers(0, 30), max_size=12),
    st.lists(
        st.tuples(st.integers(0, 20), st.integers(-3, 10), st.integers(0, 25)), max_size=8
    ),
)
def test_members_index_matches_scan(owners, steps):
    """The membership index equals a scan of value over the owners after
    every update, forged ones included: negative blocks, tails off the
    target block, tails past the prefix or past the stage."""
    assign = PriorityAssignment(owners)

    def index_matches_scan():
        image = {assign.value(e) for e in owners}
        for j in image | set(range(-4, 12)):
            assert assign.members(j) == tuple(e for e in sorted(owners) if assign.value(e) == j)

    index_matches_scan()
    for s, i, m in steps:
        assign.update(s, i, m)
        index_matches_scan()


def test_changes_and_cone_truth():
    assert changes([]) == 0
    assert changes([0, 0, 1, 1, 0, 1]) == 3
    c_cones = Cones({0: 2, 1: 5})
    strings = [(1, "1"), (4, "10")]
    assert cone_truth(strings, c_cones, 1) == 0  # C has not entered "1" yet
    assert cone_truth(strings, c_cones, 3) == 1
    assert cone_truth(strings, c_cones, 5) == 1  # "10" died at 5, "1" still holds
    assert cone_truth([(4, "10")], c_cones, 3) == 0  # not enumerated by stage 3
    assert cone_truth([(4, "10")], c_cones, 4) == 1
    assert cone_truth([(4, "10")], c_cones, 5) == 0
