import json

import pytest

from splitsim.fuzz import generate
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
