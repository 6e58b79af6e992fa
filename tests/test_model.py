import math

import pytest
from hypothesis import example, given, strategies as st

from splitsim.model import (
    Axiom,
    BlockState,
    ConflictError,
    Cones,
    EnumerationSchedule,
    FunctionalTable,
    GuessingIndices,
    GuessingSet,
    PriorityAssignment,
    TablePolicy,
    TruthfulDelayPolicy,
    block_label,
    changes,
    check_bits,
    consistency_conflicts,
    order_block,
    p_changes,
    p_spans,
    pair,
    parse_label,
    priority_order,
    scan,
    selection,
    threatens,
    unpair,
    validate_consistency,
)

from p_reference import cone_truth, p_row, scan as reference_scan, table_windows, truthful_windows

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


@given(st.one_of(st.text(), st.text("01"), st.text("01 \n\t2\u0661"), st.none(), st.integers()))
def test_check_bits_is_the_per_character_rule(s):
    """check_bits accepts exactly the strings all of whose characters are 0 or 1."""
    per_character = isinstance(s, str) and all(c in "01" for c in s)
    try:
        accepted = check_bits(s) is s
    except ValueError:
        accepted = False
    assert accepted == per_character


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
    at = selection(table, None)
    ax = at(0, Cones(), 0)
    assert (ax.k, ax.use) == (0, 1)
    ax = at(0, Cones({0: 0}), 0)
    assert (ax.k, ax.use) == (1, 1)
    # An element entering after the stage is not yet in the oracle.
    ax = at(0, Cones({0: 1}), 0)
    assert (ax.k, ax.use) == (0, 1)
    # Appear stage gates the x=1 axiom.
    assert at(1, Cones(), 1) is None
    assert at(2, Cones(), 1).k == 1
    assert at(2, Cones(), 5) is None


def test_evaluate_arity_checks():
    unary = _table([(0, Axiom("", 0, 0))])
    binary = _table([(0, Axiom("", 0, 0, ""))], binary=True)
    with pytest.raises(ValueError):
        selection(unary, Cones())
    with pytest.raises(ValueError):
        selection(binary, None)
    assert selection(binary, Cones())(0, Cones(), 0).k == 0
    # The second oracle gates binary axioms through sigma.
    gated = _table([(0, Axiom("1", 0, 1, "1"))], binary=True)
    assert selection(gated, Cones())(3, Cones({0: 2}), 0) is None
    assert selection(gated, Cones({0: 3}))(3, Cones(), 0) is None
    assert selection(gated, Cones({0: 3}))(3, Cones({0: 2}), 0).k == 1


def test_selection_windows():
    """A binary axiom's C side holds on [max(appear, sigma birth), sigma
    death), read off the record's C cones: C gets 0 at 2 and 1 at 4."""
    table = _table(
        [
            (0, Axiom("0", 0, 1, "1")),   # born at 2, never dies
            (3, Axiom("0", 0, 0, "0")),   # dies at 2, before it appears
            (0, Axiom("00", 1, 0, "00")),  # dies at 2
            (1, Axiom("00", 1, 1, "10")),  # born at 2, dies at 4
            (0, Axiom("000", 1, 1, "001")),  # never born
        ],
        binary=True,
    )
    c_cones = Cones({0: 2, 1: 4})
    assert c_cones.window("1") == (2, math.inf)
    assert c_cones.window("10") == (2, 4)
    assert c_cones.window("001") == (math.inf, math.inf)
    at = selection(table, c_cones)
    assert [at(s, Cones(), 0) for s in range(6)] == [None] * 2 + [table.axioms_for(0)[1][1]] * 4
    assert [getattr(at(s, Cones(), 1), "sigma", None) for s in range(6)] == (
        ["00", "00", "10", "10", None, None]
    )


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
        got = selection(table, None)(s, cones, x)
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


def _restrained(restraints):
    """A BlockState holding these {(side, i): restraint} records, set in
    increasing restraint order (as stages set them); -1 only exists."""
    blocks = BlockState([])
    for blk, r in sorted(restraints.items(), key=lambda item: item[1]):
        if r < 0:
            blocks.add(*blk)
        else:
            blocks.set_restraint(*blk, r)
    return blocks


def test_route():
    # No restraint is threatened: A0, nothing initialized.
    assert _restrained({}).route(4) == (None, 0, None)
    assert _restrained({(0, 0): 3, (1, 0): -1}).route(4) == (None, 0, None)
    # The strongest threatened block decides; the next-weaker block is initialized.
    assert _restrained({(0, 1): 5, (1, 0): 2}).route(2) == ((1, 0), 0, (0, 1))
    assert _restrained({(0, 1): 5, (1, 1): 2}).route(2) == ((0, 1), 1, (1, 1))
    assert _restrained({(0, 0): 0}).route(0) == ((0, 0), 1, (1, 0))


def test_members():
    assert PriorityAssignment([5, 0, 2]).members(2) == (2,)
    first, second = PriorityAssignment([0, 1, 3, 4]), PriorityAssignment([0, 1, 3, 5])
    for assign in (first, second):
        assign.update(3, 1, 1)  # indices 2..3 join block 1, 4 moves to block 2
        assert [assign.value(e) for e in range(6)] == [0, 1, 1, 1, 2, 3]
    assert first.members(1) == (1, 3)
    assert second.members(2) == ()


def _scan_route(x, restraint):
    """Routing as a scan of the record: the strongest block x threatens."""
    threatened = [blk for blk, r in restraint.items() if threatens(x, r)]
    if not threatened:
        return None, 0, None
    side, i = min(threatened, key=lambda blk: priority_order(*blk))
    return (side, i), 1 - side, order_block(priority_order(side, i) + 1)


_BLOCK_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("restraint"), st.integers(0, 1), st.integers(0, 4), st.integers(0, 3)),
        st.tuples(st.just("initialize"), st.integers(0, 1), st.integers(0, 4)),
        st.tuples(st.just("add"), st.integers(0, 1), st.integers(0, 4)),
        st.tuples(
            st.just("update"), st.integers(0, 1),
            st.integers(0, 12), st.integers(-3, 8), st.integers(0, 14),
        ),
    ),
    max_size=24,
)


@given(st.sets(st.tuples(st.integers(0, 1), st.integers(0, 14)), max_size=20), _BLOCK_STEPS)
# A restraint the stack must drop when its own block is initialized.
@example(set(), [("restraint", 0, 1, 1), ("initialize", 0, 1)])
# A tail past the prefix: owner 1 keeps its block, now inside the prefix.
@example({(0, 1)}, [("update", 0, 5, 1, 3)])
# An update inside a plateau keeps the owners at or below the tail.
@example({(0, 2), (0, 3)}, [("update", 0, 5, 1, 1), ("update", 0, 6, 1, 2)])
# A lower stage shortens the prefix: owner 3 falls past it again.
@example({(0, 3)}, [("update", 0, 5, 1, 1), ("update", 0, 2, 0, 2)])
def test_members_index_matches_scan(owners, steps):
    """BlockState against brute force after every step.  route is the scan
    of the record it replaced, threatened a sorted scan, the victims of an
    initialization the sorted existing blocks at or below its floor, and
    members, tail and the owners' block orders a scan of value.
    Restraints come from a clock that never goes down, as in the engine
    and the replay; updates take the verifier's forged shapes too
    (negative blocks, targets off value(m), tails past the prefix), whose
    targets the kernel clamps, so the map stays valid.  A tail past the
    stage is clamped to it first, as the verifier does."""
    blocks = BlockState(owners)
    clock = 0

    def matches_scans():
        record = blocks.restraint
        assert blocks.orders == sorted(priority_order(*blk) for blk in record)
        for x in range(-1, clock + 2):
            assert blocks.route(x) == _scan_route(x, record)
            assert blocks.threatened(x) == sorted(
                priority_order(*blk) for blk, r in record.items() if threatens(x, r)
            )
        for side, assign in enumerate(blocks.assignments):
            values = assign.snapshot_values(len(assign.prefix) + 16)
            assert values[0] == 0 and all(0 <= b - a <= 1 for a, b in zip(values, values[1:]))
            mine = sorted(e for owner_side, e in owners if owner_side == side)
            image = {assign.value(e) for e in mine}
            for j in image | set(range(-4, 12)):
                want = tuple(e for e in mine if assign.value(e) == j)
                assert assign.members(j) == want
                preimage = [e for e, v in enumerate(values) if v == j]
                assert assign.tail(j) == (preimage[-1] if preimage else None)
        assert blocks.orders_of(owners) == sorted(
            {2 * blocks.assignments[side].value(e) + side for side, e in owners}
        )

    matches_scans()
    for kind, side, *args in steps:
        if kind == "restraint":
            clock += args[1]
            blocks.set_restraint(side, args[0], clock)
        elif kind == "initialize":
            floor = priority_order(side, args[0])
            blocks.initialize(side, args[0])
            weaker = [o for o in sorted(priority_order(*blk) for blk in blocks.restraint) if o >= floor]
            assert blocks.existing_from(floor) == weaker
            assert all(blocks.restraint[order_block(o)] == -1 for o in weaker)
        elif kind == "add":
            blocks.add(side, args[0])
        else:
            s, i, m = args
            blocks.assignments[side].update(s, i, min(m, s))
        matches_scans()


_EXISTENCE_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.integers(-1, 30)),
        st.tuples(st.just("update"), st.integers(0, 1), st.integers(0, 12), st.integers(0, 6)),
    ),
    max_size=16,
)


@given(st.sets(st.tuples(st.integers(0, 1), st.integers(0, 14)), max_size=20), _EXISTENCE_STEPS)
# Owner 3 passes the cursor, then an update at stage 2 moves it onto a
# block that does not exist: only the clamp lets advance add it.
@example({(0, 3)}, [("advance", 30), ("update", 0, 2, 1), ("advance", 30)])
def test_existence_rule_matches_an_eager_record(owners, steps):
    """The cursors of advance and clamp against the rule applied eagerly:
    every advance adds the block of each owner, mapped through its
    assignment then, whose order is at most the bound, whatever the
    bound; an update at stage s is targeted (its block is initialized,
    its tail is the block's tail) and is followed by clamp(side, s).
    After every step the existing blocks are the record."""
    blocks = BlockState(owners)
    record = set()
    for kind, *args in steps:
        if kind == "advance":
            blocks.advance(args[0])
            record |= {o for o in blocks.orders_of(owners) if o <= args[0]}
        else:
            side, s, i = args
            m = blocks.assignments[side].tail(i)
            if m is None or m > s:
                continue
            blocks.initialize(side, i)
            record.add(priority_order(side, i))
            blocks.assignments[side].update(s, i, m)
            blocks.clamp(side, s)
        assert blocks.orders == sorted(record)


@given(
    st.lists(st.integers(0, 6), max_size=8),
    st.integers(0, 24), st.integers(-2, 10), st.integers(0, 24),
)
def test_first_rise_matches_a_scan(blocks, s, i, m):
    """On a valid map, first_rise finds the first index an update would
    raise, as a scan of both maps up to the longer prefix does; and
    where the claim needs no clamp, update writes that claimed map."""
    assign = PriorityAssignment([])
    t = 0
    for b in blocks:  # legal updates keep the map valid
        t += 1
        tail = assign.tail(b)
        if tail is not None and tail <= t:
            assign.update(t, b, tail)
    m = min(m, s)
    before = assign.snapshot_values(max(len(assign.prefix) - 1, s))
    # The map the claim writes, unclamped: value(0..m), then i up to s,
    # then unit slope.
    claimed = before[: m + 1] + [i] * (s - m)
    claimed += range(claimed[-1] + 1, claimed[-1] + 1 + len(before) - len(claimed))
    want = None
    for e, (was, now) in enumerate(zip(before, claimed)):
        if now > was:
            want = (e, was, now)
            break
    assert assign.first_rise(s, i, m) == want
    if m == s or i in (before[m], before[m] + 1):
        assign.update(s, i, m)
        assert assign.snapshot_values(len(before) - 1) == claimed


_REQS = st.sampled_from([(0, 0), (1, 0), "P:1"])  # any hashable key, as in the replay
_GUESS_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("held"), _REQS, st.integers(0, 3)),
        st.tuples(st.just("refuse"), _REQS, st.integers(0, 3), st.sampled_from(["", "0", "1"])),
        st.tuples(st.just("cancel"), _REQS),
        st.tuples(
            st.just("define"), _REQS, st.integers(0, 3), st.integers(0, 1),
            st.one_of(st.none(), st.integers(0, 6)),
        ),
        st.tuples(st.just("live"), _REQS, st.integers(0, 3), st.integers(0, 6)),
    ),
    max_size=40,
)


@given(_GUESS_STEPS)
@example([("refuse", "P:1", 0, "0"), ("refuse", "P:1", 0, "0"), ("cancel", "P:1"),
          ("refuse", "P:1", 0, "0"), ("held", "P:1", 0)])
@example([("define", (0, 0), 1, 1, None), ("live", (0, 0), 1, 0), ("held", (0, 0), 1),
          ("define", (0, 0), 1, 1, 3), ("live", (0, 0), 1, 2), ("live", (0, 0), 1, 3),
          ("define", (0, 0), 1, 0, None), ("live", (0, 0), 1, 6), ("cancel", (0, 0)),
          ("live", (0, 0), 1, 0), ("held", (0, 0), 1), ("live", (0, 0), 1, 0)])
def test_guessing_indices_match_a_history_scan(steps):
    """GuessingIndices against a scan of every call made so far: an input
    holds the index issued to it since its requirement's last
    cancellation (a fresh one, numbered by all issues before it, if there
    is none), a refusal repeats one of the same input and sigma since that
    cancellation, and a cancellation returns the inputs issued to since
    the one before it.  A definition counts only when its input holds an
    index (define issues none), and live gives the value of the input's
    last definition since that cancellation at the stages before its
    death, None at every other."""
    guesses = GuessingIndices()
    # ("issue", req, x, j), ("refuse", req, x, sigma), ("define", req, x, k,
    # death) or ("cancel", req)
    history = []

    def since(req):
        tail = []
        for rec in history:
            if rec[1] == req:
                tail = [] if rec[0] == "cancel" else tail + [rec]
        return tail

    def want_held(req, x):
        for rec in since(req):
            if rec[0] == "issue" and rec[2] == x:
                return rec[3]
        j = sum(rec[0] == "issue" for rec in history)
        history.append(("issue", req, x, j))
        return j

    for kind, req, *args in steps:
        if kind == "held":
            assert guesses.held(req, *args) == want_held(req, *args)
        elif kind == "refuse":
            x, sigma = args
            want_held(req, x)
            memo = ("refuse", req, x, sigma) in since(req)
            history.append(("refuse", req, x, sigma))
            assert guesses.refuse(req, x, sigma) == memo
        elif kind == "define":
            x = args[0]
            if any(rec[0] == "issue" and rec[2] == x for rec in since(req)):
                history.append(("define", req, *args))
            guesses.define(req, *args)
        elif kind == "live":
            x, s = args
            want = None
            for rec in since(req):
                if rec[0] == "define" and rec[2] == x:
                    want = rec[3] if rec[4] is None or s < rec[4] else None
            assert guesses.live(req, x, s) == want
        else:
            held = sorted({rec[2] for rec in since(req) if rec[0] == "issue"})
            history.append(("cancel", req))
            assert guesses.cancel(req) == held
        assert len(guesses) == sum(
            rec[0] == "issue" for req in {rec[1] for rec in history} for rec in since(req)
        )
        assert guesses.issued == sum(rec[0] == "issue" for rec in history)


_stage = st.integers(0, 14)
_windows = st.lists(
    st.one_of(
        st.tuples(_stage, st.none()),  # open: runs to the horizon
        st.tuples(_stage, _stage),  # lo > hi is an empty window
        _stage.map(lambda t: (t, t)),  # a table policy's one window per 1
    ),
    max_size=8,
)


@example([(1, 1), (2, 2), (2, 2), (4, 4), (6, None), (9, 3), (20, None), (0, 0)], 12)
@example([(0, None)], 0)
@given(_windows, st.integers(0, 12))
def test_p_spans_reproduce_the_row(windows, horizon):
    """p_spans against the reference p_row: the spans are exactly the row's
    1s, and give its start bit, last bit and mind changes."""
    spans = p_spans(windows, horizon)
    row = p_row(windows, horizon)
    assert all(0 <= lo <= hi <= horizon for lo, hi in spans)
    assert all(a[1] + 1 < b[0] for a, b in zip(spans, spans[1:]))  # sorted, disjoint, maximal
    assert [int(any(lo <= t <= hi for lo, hi in spans)) for t in range(horizon + 1)] == row
    start = bool(spans) and spans[0][0] == 0
    last = bool(spans) and spans[-1][1] == horizon
    assert (start, last) == (row[0] == 1, row[horizon] == 1)
    assert p_changes(spans, horizon) == changes(row)


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
    wset = GuessingSet(c_cones)
    wset.add(4, "10")
    assert wset.truth == [(4, 5)]
    assert [wset.holds(t) for t in (3, 4, 5)] == [False, True, False]
    wset.add(1, "1")  # lives from 2 on and swallows [4, 5)
    assert wset.strings == [(4, "10"), (1, "1")]
    assert [wset.holds(t) for t in (1, 3, 5)] == [False, True, True]


@given(
    st.dictionaries(st.integers(0, 5), st.integers(0, 12), max_size=6),
    st.lists(st.tuples(st.integers(0, 12), st.text(alphabet="01", max_size=5)), max_size=6),
    st.integers(0, 14),
    st.integers(1, 4),
    st.lists(st.integers(0, 1), max_size=14),
)
def test_guessing_set_matches_the_per_string_reference(c_entry, strings, h, delay, tail):
    """The record against its per-string references, over a random C
    schedule and sequence of enumerations: holds is the cone truth at
    every stage after every add, its truth intervals are sorted, disjoint
    and non-adjacent, each policy's spans are p_spans of the reference
    windows, and the scan over them is the reference scan."""
    c_cones = Cones(c_entry)
    wset = GuessingSet(c_cones)
    for n, (u, sigma) in enumerate(strings):
        wset.add(u, sigma)
        done = strings[: n + 1]
        assert wset.strings == done
        for t in range(h + 2):
            assert wset.holds(t) == bool(cone_truth(done, c_cones, t)), (t, done)
    assert all(lo < hi for lo, hi in wset.truth)
    assert all(a[1] < b[0] for a, b in zip(wset.truth, wset.truth[1:]))
    values = {0: [0] + tail}
    policies = (
        (TruthfulDelayPolicy(delay), truthful_windows(delay, c_cones, strings)),
        (TablePolicy(values), table_windows(values, 0)),
    )
    for policy, windows in policies:
        spans = policy.spans(0, wset, h)
        assert spans == p_spans(windows, h)
        for sigma in {""} | {sigma for _, sigma in strings}:
            for entry in range(h + 1):
                want = reference_scan(windows, c_cones, sigma, entry, h)
                assert scan(spans, c_cones, sigma, entry, h) == want
