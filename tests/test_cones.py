"""The cone oracle against brute force: its answers, the selections built
on it, and how often it walks a string."""

import json
from collections import Counter

from hypothesis import given, strategies as st

from splitsim import model, robinson, verify as verify_module
from splitsim.fuzz import generate
from splitsim.harness import run
from splitsim.model import Cones
from splitsim.scenario import load_scenario
from splitsim.trace import render
from splitsim.verify import verify

from conftest import bench_module

workloads = bench_module("workloads")


def cone_holds(sigma, entry, t):
    """Reference: position i of sigma is 1 exactly when i entered by stage t."""
    return all((entry.get(i, t + 1) <= t) == (c == "1") for i, c in enumerate(sigma))


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


def walking_applicable_axiom(table, s, a_cones, c_cones, x):
    """Reference selection: re-walks theta and sigma of every appeared axiom."""
    if table.binary != (c_cones is not None):
        raise ValueError("functional evaluated with the wrong number of oracles")
    for appear, ax in table.axioms_for(x):
        if appear > s or not cone_holds(ax.theta, a_cones.entry, s):
            continue
        if c_cones is not None and not cone_holds(ax.sigma, c_cones.entry, s):
            continue
        return ax
    return None


def _outputs(doc):
    sc = load_scenario(doc)
    events, final = run(sc)
    return render(events), json.dumps(verify(sc, events, final), sort_keys=True)


def test_selection_matches_a_walk_over_every_string(monkeypatch):
    """Traces and reports equal those of a selection that walks every
    theta and sigma on every call, for both constructions."""
    docs = [generate(11, i, c, 512) for c in ("sacks", "robinson") for i in range(200)]
    docs += [workloads.oracle_churn_doc(seed, h) for seed in (2026, 7) for h in range(36, 60)]
    docs.append(workloads.dense_sacks_doc(2026, 208))
    fast = [_outputs(doc) for doc in docs]
    for module in (model, robinson, verify_module):
        monkeypatch.setattr(module, "applicable_axiom", walking_applicable_axiom)
    for doc, want in zip(docs, fast):
        assert _outputs(doc) == want


def test_each_string_is_walked_once_per_oracle(monkeypatch):
    walks = Counter()
    walk = Cones._walk

    def counting_walk(self, sigma):
        walks[(self, sigma)] += 1
        return walk(self, sigma)

    monkeypatch.setattr(Cones, "_walk", counting_walk)
    sc = load_scenario(workloads.oracle_churn_doc(2026, 160))
    events, final = run(sc)
    run_walks = sum(walks.values())
    report = verify(sc, events, final)
    assert report["flags"]["status"] == "settled"
    assert run_walks > 0 and sum(walks.values()) > run_walks
    assert max(walks.values()) == 1
