import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from splitsim.fuzz import generate
from splitsim.harness import run
from splitsim.scenario import load_scenario
from splitsim.trace import TraceEvent

GOLDEN_DIR = Path(__file__).parent / "golden"
BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name):
    """A module of the benchmark (bench/ is no package), loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_" + name, BENCH_DIR / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module

ACCEPTANCE_LINES = []


def record_line(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def dense_sacks_doc(horizon):
    """The dense-stress shape: horizon/4 table owners with four theta=""
    axioms each, a B arrival at every odd stage, and anti-delta with an
    unlimited budget.  Most owners diverge at input 0 and never act, so
    a dispatch that visits every owning block on every even stage does
    almost nothing but visit; one owner diagonalizes, so later arrivals
    are deflected and blocks reassigned."""
    rng = random.Random(horizon)
    odd = range(1, horizon + 1, 2)
    b = [[s, x] for s, x in zip(odd, rng.sample(range(horizon), len(odd)))]
    functionals = []
    for n in range(horizon // 4):
        axioms = [
            {"theta": "", "x": x, "k": 1, "stage": rng.randint(0, horizon)}
            for x in rng.sample(range(1, 9), 4)
        ]
        functionals.append({"side": n % 2, "e": n // 2, "axioms": axioms})
    functionals[-2]["axioms"][0] = {"theta": "", "x": 0, "k": 0, "stage": horizon // 3}
    return {
        "construction": "sacks",
        "horizon": horizon,
        "b": b,
        "d": {"policy": "anti-delta", "params": {"limit": -1}},
        "functionals": functionals,
    }


@pytest.fixture
def record():
    return record_line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# Shared designated material for the negative controls: small runs that
# legitimately exercise the state each corruption needs to forge.

INJURY_DOC = {
    "construction": "robinson",
    "horizon": 10,
    "b": [[5, 0]],
    "c": [],
    "d": [],
    "functionals": [
        {"side": 1, "e": 0, "axioms": [{"theta": "", "sigma": "", "x": 0, "k": 0, "stage": 0}]},
        {"side": 0, "e": 1, "axioms": [{"theta": "", "sigma": "", "x": 0, "k": 0, "stage": 0}]},
    ],
    "p_policy": {"type": "truthful_delay", "d": 1},
}

CERTIFY_DOC = {
    "construction": "robinson",
    "horizon": 8,
    "b": [],
    "c": [[4, 0]],
    "d": [],
    "functionals": [
        {"side": 0, "e": 0, "axioms": [{"theta": "0", "sigma": "0", "x": 0, "k": 0, "stage": 0}]}
    ],
    "p_policy": {"type": "truthful_delay", "d": 1},
}

# Heavy C churn with a tiny change budget: the only honest way to stay
# inside the budget is to enumerate nothing, which is what happens.
CHURN_DOC = {
    "construction": "robinson",
    "horizon": 12,
    "b": [],
    "c": [[1, 0], [2, 1], [3, 2], [4, 3], [5, 4]],
    "d": [],
    "functionals": [],
    "p_policy": {"type": "truthful_delay", "d": 1},
    "q_default": 2,
}

_GOLDEN_FILES = {
    "deflection": "deflection-update-scenario.json",
    "forced": "forced-diagonalization-scenario.json",
}

_INLINE_DOCS = {"injury": INJURY_DOC, "certify": CERTIFY_DOC, "churn": CHURN_DOC}


def _material(name):
    if name in _GOLDEN_FILES:
        doc = json.loads((GOLDEN_DIR / _GOLDEN_FILES[name]).read_text())
    else:
        doc = _INLINE_DOCS[name]
    sc = load_scenario(doc)
    events, final = run(sc)
    return sc, events, final


@pytest.fixture(scope="session")
def control_materials():
    return {name: _material(name) for name in ("deflection", "forced", "injury", "certify", "churn")}


def malformed_refusals():
    """A robinson run, and its trace with j or entry of the first refusal garbled."""
    doc = generate(2026, 6, "robinson", 256)
    events, _ = run(load_scenario(doc))
    at = next(i for i, ev in enumerate(events) if ev.kind == "refuse-certify")
    forged = {}
    for key in ("j", "entry"):
        payload = dict(events[at].payload, **{key: "x"})
        line = TraceEvent(events[at].stage, events[at].kind, payload)
        forged[key] = events[:at] + [line] + events[at + 1:]
    return doc, forged
