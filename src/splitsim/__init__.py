"""Deterministic simulator and verifier for finite-injury splitting runs.

The package splits into layers that only point downward.  The trusted
kernel is model (pairing, cones, schedules, functionals, the p policies,
the priority order and assignment), omegace (bounded approximations and
their change-set coding) and trace (the event grammar).  Above it sit
engine (the stage loop), sacks/robinson (the two strategy families,
each built over a run and holding its own state; the run holds none of
it), scenario/harness (input documents and orchestration), fuzz/corrupt
(random scenarios and forged defects) and cli (the splitsim command).
verify (trace checking) imports only the kernel, so it never trusts the
engine or the strategies.
"""

__version__ = "0.1.0"
