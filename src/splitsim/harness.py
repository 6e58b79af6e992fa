"""Run orchestration: build a run, its construction over it, and execute.

The split between scenario (validated inputs), engine (the stage loop)
and construction (per-construction strategy state) meets here.  The run
is built from the scenario and the construction from the run; the run
only borrows the construction, so no reference cycle forms.  run is a
pure function of the scenario; two calls produce identical event lists.
"""

from __future__ import annotations

from .engine import Run
from .robinson import RobinsonStrategy
from .sacks import SacksStrategy
from .scenario import Scenario


def build_strategy(r: Run):
    """The construction of r's scenario, built over r."""
    if r.scenario.construction == "sacks":
        return SacksStrategy(r)
    return RobinsonStrategy(r)


def run(scenario: Scenario):
    """Execute the scenario over its horizon.

    Returns (events, final).  The trace is the run's record; final holds
    only what the verifier and the tests read back:

      a0, a1, d       the halves and D as sorted (stage, element) pairs;
      assignment_p,   the two priority assignments at indices
      assignment_q    0..horizon;
      pending_scans   certification scans still open at the horizon;
      unsettled       a scan is pending or p has not settled on some
                      guessing set (model.p_settled, the verifier's
                      rule too).

    Internal invariant violations raise ConstructionInvariantError; a
    valid scenario never triggers one.
    """
    r = Run(scenario)
    construction = build_strategy(r)
    return r.execute(construction), r.final_state(construction)
