"""Run orchestration: wire a scenario to its strategy and execute it.

The split between scenario (validated inputs), strategy (per-construction
behavior) and engine (the stage loop) meets here.  run is a pure function
of the scenario; two calls produce identical event lists.
"""

from __future__ import annotations

from .engine import Run
from .robinson import RobinsonStrategy
from .sacks import SacksStrategy
from .scenario import Scenario


def build_strategy(scenario: Scenario):
    if scenario.construction == "sacks":
        return SacksStrategy(scenario.functionals)
    return RobinsonStrategy(scenario.functionals)


def run(scenario: Scenario):
    """Execute the scenario over its horizon.

    Returns (events, final).  The trace is the run's record; final holds
    only what the verifier and the tests read back:

      a0, a1, d       the halves and D as sorted (stage, element) pairs;
      assignment_p,   the two priority assignments at indices
      assignment_q    0..horizon;
      pending_scans   certification scans still open at the horizon;
      unsettled       a scan is pending or some p disagrees with the
                      cone truth at the horizon.

    Internal invariant violations raise ConstructionInvariantError; a
    valid scenario never triggers one.
    """
    r = Run(scenario, build_strategy(scenario))
    events = r.execute()
    return events, r.final_state()
