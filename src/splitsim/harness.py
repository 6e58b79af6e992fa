"""Run orchestration: wire a scenario to its strategy and execute it.

The split between scenario (validated inputs), strategy (per-construction
behavior) and engine (the stage loop) meets here.  run is a pure function
of the scenario; two calls produce identical event lists.
"""

from __future__ import annotations

from .engine import Run
from .model import build_policy
from .robinson import RobinsonStrategy
from .sacks import SacksStrategy
from .scenario import Scenario


def build_strategy(scenario: Scenario):
    if scenario.construction == "sacks":
        return SacksStrategy(scenario.functionals)
    return RobinsonStrategy(
        scenario.functionals,
        build_policy(scenario),
        scenario.q_default,
        scenario.q_overrides,
    )


def run(scenario: Scenario):
    """Execute the scenario over its horizon.

    Returns (events, final_state).  Internal invariant violations raise
    ConstructionInvariantError; a valid scenario never triggers one.
    """
    r = Run(scenario, build_strategy(scenario))
    events = r.execute()
    return events, r.final_state()
