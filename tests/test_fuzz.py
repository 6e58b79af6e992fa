import hashlib
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitsim.fuzz import _randint, generate
from splitsim.harness import run
from splitsim.scenario import load_scenario


def test_generation_is_deterministic():
    a = generate(9, 3, "sacks")
    b = generate(9, 3, "sacks")
    assert a == b
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert generate(9, 4, "sacks") != a
    assert generate(10, 3, "sacks") != a


@pytest.mark.parametrize("construction", ["sacks", "robinson"])
def test_documents_are_valid_and_bounded(construction):
    seen = set()
    for index in range(25):
        doc = generate(77, index, construction, max_horizon=128)
        assert doc["construction"] == construction
        assert 2 <= doc["horizon"] <= 128
        sc = load_scenario(doc)  # must not raise
        assert len(sc.functionals) <= 8
        assert all(len(t.axioms) <= 64 for t in sc.functionals.values())
        seen.add(json.dumps(doc, sort_keys=True))
    assert len(seen) == 25


def test_documents_run_clean():
    for construction in ("sacks", "robinson"):
        for index in range(8):
            doc = generate(31, index, construction, max_horizon=48)
            events, final = run(load_scenario(doc))
            assert events[-1].stage <= doc["horizon"]
            assert len(final["assignment_p"]) == doc["horizon"] + 1


def test_small_max_horizon_is_respected():
    for index in range(10):
        assert generate(1, index, "sacks", max_horizon=6)["horizon"] <= 6


# sha256 of json.dumps(generate(seed, i, c, H), sort_keys=True) concatenated
# over seeds 2026 and 7, H = 64 and 1024, both constructions and i < 500,
# in that nesting order.  The corpus digest hashes traces, so a document
# change that leaves every trace alone shows only here.  Recorded before
# generate drew through getrandbits.
DOCUMENTS_SHA256 = "5c3ade82cbecd2ecacafad8f6d21b59c933c3152d1d305e280502a6fdefae116"


def test_documents_are_pinned():
    digest = hashlib.sha256()
    for seed in (2026, 7):
        for max_horizon in (64, 1024):
            for construction in ("sacks", "robinson"):
                for index in range(500):
                    doc = generate(seed, index, construction, max_horizon)
                    digest.update(json.dumps(doc, sort_keys=True).encode())
    assert digest.hexdigest() == DOCUMENTS_SHA256


_EDGE_WIDTHS = sorted({2**j + d for j in range(13) for d in (-1, 0, 1)} & set(range(1, 5001)))


@given(
    st.integers(0, 2**32),
    st.integers(-100, 100),
    st.one_of(st.sampled_from(_EDGE_WIDTHS), st.integers(1, 5000)),
)
def test_randint_draws_as_random_does(seed, lo, width):
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert _randint(ours.getrandbits, lo, lo + width - 1) == theirs.randint(lo, lo + width - 1)
        assert ours.getstate() == theirs.getstate()
