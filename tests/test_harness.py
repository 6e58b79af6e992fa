import json
from pathlib import Path

from splitsim.harness import build_strategy, run
from splitsim.model import Cones, TablePolicy, TruthfulDelayPolicy, build_policy
from splitsim.robinson import RobinsonStrategy
from splitsim.sacks import SacksStrategy
from splitsim.scenario import load_scenario
from splitsim.trace import render

GOLDEN = Path(__file__).parent / "golden"


def _load_golden(name):
    return json.loads((GOLDEN / name).read_text())


def test_policy_dispatch():
    sc = load_scenario(
        {
            "construction": "robinson",
            "horizon": 4,
            "functionals": [],
            "p_policy": {"type": "table", "values": {"0": [0, 1]}},
        }
    )
    assert isinstance(build_policy(sc, Cones()), TablePolicy)
    assert isinstance(build_strategy(sc), RobinsonStrategy)
    sc = load_scenario(
        {
            "construction": "robinson",
            "horizon": 4,
            "functionals": [],
            "p_policy": {"type": "truthful_delay", "d": 3},
        }
    )
    c_cones = Cones()
    pol = build_policy(sc, c_cones)
    assert isinstance(pol, TruthfulDelayPolicy)
    assert pol.delay == 3
    assert pol.c_cones is c_cones


def test_strategy_dispatch_sacks():
    sc = load_scenario({"construction": "sacks", "horizon": 4, "functionals": []})
    assert isinstance(build_strategy(sc), SacksStrategy)


def test_runs_are_reproducible():
    doc = _load_golden("deflection-update-scenario.json")
    sc = load_scenario(doc)
    first_events, first_state = run(sc)
    second_events, second_state = run(load_scenario(doc))
    assert render(first_events) == render(second_events)
    assert first_state == second_state
    assert set(first_state) == {
        "a0", "a1", "d", "assignment_p", "assignment_q", "pending_scans", "unsettled",
    }
    assert len(first_state["assignment_p"]) == doc["horizon"] + 1


def test_golden_traces_are_reproduced():
    for stem in ("deflection-update", "forced-diagonalization"):
        doc = _load_golden("%s-scenario.json" % stem)
        events, _ = run(load_scenario(doc))
        expected = (GOLDEN / ("%s-expected.trace" % stem)).read_text()
        assert render(events) == expected, stem
