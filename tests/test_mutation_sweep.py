"""Single-field trace mutations: how many honest traces, changed in one
field, still pass every check.

This is mutation analysis aimed at the verifier (DeMillo, Lipton and
Sayward, "Hints on test data selection", 1978).  The recipes are fixed,
so the counts are deterministic.  Every payload field of every line
yields its mutants: an integer +1, -1 (kept >= 0) and +2; a block label
moved to index + 1 and to the other side; the first bit of a sigma or
theta flipped, "" -> "1".  Each run's mutants are shuffled with
random.Random(0); the first PER_RUN are each parsed back as a line
(every mutant parses), put in place of the honest line and verified;
verify must return a report for each, never raise.  A mutant that passes
every check is a survivor.  One-line deletions run over the same runs:
each run's line numbers are shuffled with random.Random(0) and the trace
without each of the first PER_RUN is verified.  Every ceiling only
ratchets down, and a field measured at 0 joins its ALWAYS_KILLED.

The sweep recipe is fuzz.generate(11, i, c, 64) for i < 150 and both
constructions, 20 per run.  Since the verifier replays every requirement
step with the kernel's step functions (945 before), asks every
restraining act for its block's restraint at the stage and every scan
for C inside a cone of its guessing set (467 before), and holds every W
enumeration to a scan of its sigma at its stage (459 before), 456 of
5,379 mutants survive: initialize.block 253, initialize.initiator 199
and enumerate.element 4, and no other field.  338 of 5,894 deletions
survive (548, 386, then 352 before).  By the deleted line's kind:
initialize 281 of 393, refuse-certify 47 of 62, enumerate 10 of 635,
and none of the 3,826 assignment-update, 647 route, 86 act, 77
define-local, 74 restraint-set, 47 expansionary, 34 certify, 11
diagonalize and 2 injury deletions.

The churn recipe is the benchmark's oracle_churn_doc(seed, H) for seeds
0..7 and H = 36..43, Robinson runs whose certifications C keeps
killing, 8 per run (its verifies cost most of the recipe's time, which
must stay under 5 s), so its mutants and deletions are the first 8 of
each run's in a twenty-per-run measure.  Before the step replay 152 of
512 mutants survived (initialize.initiator 32, act.req 32, act.block
24, initialize.block 16, define-local.x 16, certify.theta 16,
define-local.sigma 8, define-local.req 8) and 216 of 512 deletions
(act 120 of 120, define-local 56 of 56, certify 32 of 112,
restraint-set 8 of 8); after it, 48 mutants and 8 deletions
(restraint-set 8 of 8).  Now 48 mutants survive (initialize.initiator
32, initialize.block 16) and no deletion.
"""

import functools
import random
from collections import Counter

from splitsim.fuzz import generate
from splitsim.harness import run
from splitsim.model import block_label, parse_label
from splitsim.scenario import load_scenario
from splitsim.trace import parse_int, parse_line
from splitsim.verify import passed, verify

from conftest import bench_module

oracle_churn_doc = bench_module("workloads").oracle_churn_doc

SEED, RUNS, MAX_HORIZON, PER_RUN = 11, 150, 64, 20
# Some runs have fewer than PER_RUN mutants, so fewer are verified in all.
MUTANTS = 5379
SURVIVOR_CEILING = 456
DELETIONS = 5894
DELETION_SURVIVOR_CEILING = 338
# Fields the verifier re-derives in full: the step lines from the
# kernel's step functions, the scan fields from the kernel scan and the
# replayed index issuance, a W line's sigma from its stage's scans,
# restraints from the stage and the same-stage act, injuries from the
# indices the stage's cancellations drop, routes and updates from the
# replayed block state.
ALWAYS_KILLED = (
    "act.block",
    "act.req",
    "assignment-update.i",
    "assignment-update.tail",
    "certify.entry",
    "certify.j",
    "certify.k",
    "certify.req",
    "certify.resolved",
    "certify.sigma",
    "certify.theta",
    "certify.x",
    "define-local.k",
    "define-local.req",
    "define-local.sigma",
    "define-local.theta",
    "define-local.x",
    "diagonalize.req",
    "diagonalize.x",
    "enumerate.j",
    "enumerate.sigma",
    "expansionary.block",
    "expansionary.ell",
    "expansionary.req",
    "injury.req",
    "injury.x",
    "refuse-certify.entry",
    "refuse-certify.j",
    "refuse-certify.k",
    "refuse-certify.memo",
    "refuse-certify.req",
    "refuse-certify.resolved",
    "refuse-certify.sigma",
    "refuse-certify.theta",
    "refuse-certify.x",
    "restraint-set.block",
    "restraint-set.value",
    "route.threatened",
    "route.x",
)

# The churn recipe, with constants of its own.
CHURN_SEEDS, CHURN_HORIZONS, CHURN_PER_RUN = range(8), range(36, 44), 8
CHURN_MUTANTS = 512
CHURN_SURVIVOR_CEILING = 48
CHURN_DELETIONS = 512
CHURN_DELETION_SURVIVOR_CEILING = 0
CHURN_ALWAYS_KILLED = (
    "act.block",
    "act.req",
    "certify.entry",
    "certify.j",
    "certify.req",
    "certify.resolved",
    "certify.theta",
    "certify.x",
    "define-local.k",
    "define-local.req",
    "define-local.sigma",
    "define-local.x",
    "enumerate.j",
    "injury.x",
)


def _variants(key, value):
    if key in ("sigma", "theta"):
        yield "1" if value == "" else "10"[int(value[0])] + value[1:]
        return
    try:
        n = parse_int(value)
    except ValueError:
        label = parse_label(value)
        if label is not None:
            side, i = label
            yield block_label(side, i + 1)
            yield block_label(1 - side, i)
        return
    for step in (1, -1, 2):
        if n + step >= 0:
            yield str(n + step)


@functools.cache
def _runs(recipe):
    """(scenario, events) of each run of the recipe, "sweep" or "churn"."""
    if recipe == "sweep":
        docs = [generate(SEED, i, c, MAX_HORIZON) for c in ("sacks", "robinson") for i in range(RUNS)]
    else:
        docs = [oracle_churn_doc(seed, h) for seed in CHURN_SEEDS for h in CHURN_HORIZONS]
    return [(sc, run(sc)[0]) for sc in map(load_scenario, docs)]


def survivors(runs, per_run):
    """(mutants verified, Counter of surviving mutants by kind.field)."""
    verified = 0
    alive = Counter()
    for sc, events in runs:
        mutants = [
            (at, key, value)
            for at, ev in enumerate(events)
            for key in sorted(ev.payload)
            for value in _variants(key, ev.payload[key])
        ]
        random.Random(0).shuffle(mutants)
        for at, key, value in mutants[:per_run]:
            ev = events[at]
            line = parse_line(ev._replace(payload=dict(ev.payload, **{key: value})).to_line())
            verified += 1
            if passed(verify(sc, events[:at] + [line] + events[at + 1:])):
                alive["%s.%s" % (ev.kind, key)] += 1
    return verified, alive


def deletion_survivors(runs, per_run):
    """(deletions verified, Counter of surviving deletions by the deleted line's kind)."""
    verified = 0
    alive = Counter()
    for sc, events in runs:
        order = list(range(len(events)))
        random.Random(0).shuffle(order)
        for at in order[:per_run]:
            verified += 1
            if passed(verify(sc, events[:at] + events[at + 1:])):
                alive[events[at].kind] += 1
    return verified, alive


def test_single_field_mutations_are_caught():
    verified, alive = survivors(_runs("sweep"), PER_RUN)
    assert verified == MUTANTS
    assert sum(alive.values()) <= SURVIVOR_CEILING, sorted(alive.items())
    assert not [field for field in ALWAYS_KILLED if alive[field]], sorted(alive.items())


def test_one_line_deletions_are_counted():
    verified, alive = deletion_survivors(_runs("sweep"), PER_RUN)
    assert verified == DELETIONS
    assert sum(alive.values()) <= DELETION_SURVIVOR_CEILING, sorted(alive.items())


def test_churn_single_field_mutations_are_caught():
    verified, alive = survivors(_runs("churn"), CHURN_PER_RUN)
    assert verified == CHURN_MUTANTS
    assert sum(alive.values()) <= CHURN_SURVIVOR_CEILING, sorted(alive.items())
    assert not [field for field in CHURN_ALWAYS_KILLED if alive[field]], sorted(alive.items())


def test_churn_one_line_deletions_are_counted():
    verified, alive = deletion_survivors(_runs("churn"), CHURN_PER_RUN)
    assert verified == CHURN_DELETIONS
    assert sum(alive.values()) <= CHURN_DELETION_SURVIVOR_CEILING, sorted(alive.items())
