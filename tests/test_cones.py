"""The cone oracle against brute force: its answers, the selections built
on it, and how often it walks a string."""

import json
from collections import Counter

from hypothesis import example, given, strategies as st

from splitsim import robinson, sacks, verify as verify_module
from splitsim.fuzz import generate
from splitsim.harness import run
from splitsim.model import Axiom, Cones, FunctionalTable, selection
from splitsim.scenario import load_scenario
from splitsim.trace import render
from splitsim.verify import verify

from conftest import bench_module, count_calls
from selection_reference import applicable_axiom, cone_holds

workloads = bench_module("workloads")


_bits = st.text(alphabet="01", max_size=9)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("arrive"), st.integers(0, 7), st.integers(0, 2)),
        st.tuples(st.just("ask"), _bits),
    ),
    max_size=40,
)


@given(_steps)
def test_cones_match_brute_force(steps):
    """holds is exact at the current stage while arrivals are fed, and
    over the final map at every past stage, fed or built afresh."""
    cones = Cones()
    entry = {}
    now = 0
    asked = {""}
    for step in steps:
        if step[0] == "arrive":
            _, x, gap = step
            now += gap
            if x not in entry:
                entry[x] = now
                cones.arrive(x, now)
        else:
            sigma = step[1]
            asked.add(sigma)
            assert cones.holds(sigma, now) == cone_holds(sigma, entry, now), (sigma, entry, now)
    # The edge cases: the empty string, strings longer than every element,
    # and a 0 bit over each present element.
    width = max(entry, default=0) + 3
    pool = asked | {"1" * width, "0" * width}
    pool |= {"1" * x + "0" for x in entry}
    fresh = Cones(dict(entry))
    for sigma in sorted(pool):
        for t in range(now + 2):
            want = cone_holds(sigma, entry, t)
            assert cones.holds(sigma, t) == want, (sigma, entry, t)
            assert fresh.holds(sigma, t) == want, (sigma, entry, t)


def _outputs(doc):
    sc = load_scenario(doc)
    events, final = run(sc)
    return render(events), json.dumps(verify(sc, events, final), sort_keys=True)


def test_selection_matches_a_walk_over_every_string(monkeypatch):
    """Traces and reports equal those of a selection that walks every
    theta and sigma on every call, for both constructions.  Both
    strategies and the verifier select through the kernel's selection
    records, so patching the selection they build reaches every caller."""
    docs = [generate(11, i, c, 512) for c in ("sacks", "robinson") for i in range(200)]
    docs += [workloads.oracle_churn_doc(seed, h) for seed in (2026, 7) for h in range(36, 60)]
    docs.append(workloads.dense_sacks_doc(2026, 208))
    fast = [_outputs(doc) for doc in docs]

    def walking_selection(table, c_cones):
        return lambda s, a_cones, x: applicable_axiom(table, s, a_cones, c_cones, x)

    for module in (sacks, robinson, verify_module):
        monkeypatch.setattr(module, "selection", walking_selection)
    for doc, want in zip(docs, fast):
        assert _outputs(doc) == want


H = 6
_short = st.text(alphabet="01", max_size=3)


@st.composite
def _selection_cases(draw):
    """A table, unary or binary, whose sigmas are short, so that they
    repeat; C's final map (None for a unary table), over positions some
    sigmas never see enter; and A's arrivals as (element, stage gap)
    pairs in stage order."""
    binary = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        theta = draw(_short)
        sigma = None
        if binary:
            sigma = draw(st.text(alphabet="01", min_size=len(theta), max_size=len(theta)))
        ax = Axiom(theta, draw(st.integers(0, 2)), draw(st.integers(0, 1)), sigma)
        rows.append((draw(st.integers(0, H + 1)), ax))
    table = FunctionalTable(0, 0, rows, binary)
    c_entry = draw(st.dictionaries(st.integers(0, 3), st.integers(0, H))) if binary else None
    arrivals = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=8))
    return table, c_entry, arrivals


def _case(rows, c_entry):
    """A hand case over inputs 0 and 1: A gets 3 at stage 1 and 2 at 3."""
    return FunctionalTable(0, 0, rows, c_entry is not None), c_entry, [(3, 1), (2, 2)]


@given(_selection_cases())
# C gets 0 at 3 and 1 at 2.  On input 0, sigma "00" dies at 2, "01" is
# born at 2 and dies at 3, "00" again appears at 4, after its death, and
# "10" is born only after its death: input 0 selects sigma "00" at
# stages 0 and 1, "01" at 2 and nothing from 3 on.  On input 1, sigma
# "0" holds two thetas and "001" is never born.
@example(_case(
    [(0, Axiom("00", 0, 0, "01")), (0, Axiom("00", 0, 1, "00")), (4, Axiom("00", 0, 1, "00")),
     (1, Axiom("00", 0, 1, "10")), (0, Axiom("0", 1, 0, "0")), (0, Axiom("1", 1, 1, "0")),
     (0, Axiom("000", 1, 1, "001"))],
    {0: 3, 1: 2},
))
# A unary table: "0001" holds in A on [1, 3) and "" appears at 2.
@example(_case([(2, Axiom("", 0, 1)), (0, Axiom("0001", 0, 0))], None))
def test_selection_record_matches_the_per_axiom_scan(case):
    """The record gives the reference's axiom with A fed online, at the
    current stage between arrivals, and with A as a final map at every
    stage 0..H+1 after every arrival.  One record answers throughout, so
    the rows it filled at earlier questions stay right for later A; a
    fresh record answers each final-map question too, so the rows filled
    at a first question are right at every stage."""
    table, c_entry, arrivals = case
    c_cones = None if c_entry is None else Cones(dict(c_entry))
    at = selection(table, c_cones)
    fed = Cones()
    entry = {}
    now = 0
    for x, gap in [(None, 0)] + arrivals:
        if x is not None:
            now += gap
            if x not in entry:
                entry[x] = now
                fed.arrive(x, now)
        final = Cones(dict(entry))
        for y in range(3):
            want = applicable_axiom(table, now, fed, c_cones, y)
            assert at(now, fed, y) == want, (y, now, entry)
            for s in range(H + 2):
                want = applicable_axiom(table, s, final, c_cones, y)
                assert at(s, final, y) == want, (y, s, entry)
                assert selection(table, c_cones)(s, final, y) == want, (y, s, entry)


def test_each_string_is_walked_once_per_oracle(monkeypatch):
    walks = count_calls(monkeypatch, Cones, "_walk")  # (oracle, sigma) per walk
    sc = load_scenario(workloads.oracle_churn_doc(2026, 160))
    events, final = run(sc)
    run_walks = len(walks)
    report = verify(sc, events, final)
    assert report["flags"]["status"] == "settled"
    assert run_walks > 0 and len(walks) > run_walks
    assert max(Counter(walks).values()) == 1
