import gc
import json
from pathlib import Path

import pytest

from splitsim.engine import ConstructionInvariantError, Run
from splitsim.fuzz import generate
from splitsim.harness import run
from splitsim.model import Cones, TablePolicy, TruthfulDelayPolicy, build_policy
from splitsim.robinson import RobinsonStrategy
from splitsim.sacks import SacksStrategy
from splitsim.scenario import load_scenario
from splitsim.trace import parse, render
from splitsim.verify import verify

from conftest import CORPUS_MAX_HORIZON, CORPUS_SEED, bench_module, dense_sacks_doc, execute

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
    _, strategy, _ = execute(sc)
    assert isinstance(strategy, RobinsonStrategy)
    assert isinstance(strategy.policy, TablePolicy)
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
    _, strategy, _ = execute(sc)
    assert strategy.policy.c_cones is strategy.c_cones


def test_strategy_dispatch_sacks():
    sc = load_scenario({"construction": "sacks", "horizon": 4, "functionals": []})
    r, strategy, _ = execute(sc)
    assert isinstance(strategy, SacksStrategy)
    assert r.final_state(strategy)["pending_scans"] == 0


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


def _freed(f, *args):
    """f(*args), after checking that it left no cyclic garbage behind."""
    out = f(*args)
    assert gc.collect() == 0, f.__name__
    return out


def test_runs_leave_no_cyclic_garbage(monkeypatch):
    """Every layer's garbage is freed by reference counting: with the
    cyclic collector off, a collection after each step finds nothing,
    also after a run built and executed by hand, as the reference
    runners build theirs, and after a run that raises."""
    makers = [(generate, CORPUS_SEED, i, c, CORPUS_MAX_HORIZON) for c in ("sacks", "robinson")
              for i in (0, 3, 478)]
    makers += [(dense_sacks_doc, 208), (bench_module("workloads").oracle_churn_doc, 2026, 40)]
    gc.collect()
    gc.disable()
    try:
        for make in makers:
            sc = _freed(load_scenario, _freed(*make))
            events, final = _freed(run, sc)
            _freed(verify, sc, events, final)
            _freed(verify, sc, _freed(parse, _freed(render, events)))

        for c in ("sacks", "robinson"):
            r, construction, events = execute(load_scenario(generate(CORPUS_SEED, 3, c, 64)))
            final = r.final_state(construction)
            del r, construction, events, final
            assert gc.collect() == 0, c

        def fail(self, s, construction):
            raise ConstructionInvariantError("forced at stage %d" % s)

        monkeypatch.setattr(Run, "_part_two", fail)
        with pytest.raises(ConstructionInvariantError):
            run(sc)
        assert gc.collect() == 0
    finally:
        gc.enable()
