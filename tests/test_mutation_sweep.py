"""Single-field trace mutations: how many honest traces, changed in one
field, still pass every check.

This is mutation analysis aimed at the verifier (DeMillo, Lipton and
Sayward, "Hints on test data selection", 1978).  The recipe is fixed, so
the count is deterministic: fuzz.generate(11, i, c, 64) for i < 150 and
both constructions.  Every payload field of every line yields its
mutants: an integer +1, -1 (kept >= 0) and +2; a block label moved to
index + 1 and to the other side; the first bit of a sigma or theta
flipped, "" -> "1".  Each run's mutants are shuffled with
random.Random(0) and the first 20 are parsed back (every mutant parses)
and verified; verify must return a report for each, never raise.  A
mutant that passes every check is a survivor.  The ceiling only
ratchets down.
"""

import random
from collections import Counter

from splitsim.fuzz import generate
from splitsim.harness import run
from splitsim.model import block_label, parse_label
from splitsim.scenario import load_scenario
from splitsim.trace import parse, parse_int, render
from splitsim.verify import passed, verify

SEED, RUNS, MAX_HORIZON, PER_RUN = 11, 150, 64, 20
# Some runs have fewer than PER_RUN mutants, so fewer are verified in all.
MUTANTS = 5379
SURVIVOR_CEILING = 945
# Fields the verifier re-derives in full: the scan fields from the kernel
# scan and the replayed index issuance, restraints from the stage and the
# same-stage act, injuries from the indices the stage's cancellations drop.
ALWAYS_KILLED = (
    "certify.entry",
    "certify.j",
    "certify.resolved",
    "injury.req",
    "injury.x",
    "refuse-certify.entry",
    "refuse-certify.j",
    "refuse-certify.memo",
    "refuse-certify.resolved",
    "restraint-set.block",
    "restraint-set.value",
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


def survivors():
    """(mutants verified, Counter of surviving mutants by kind.field)."""
    verified = 0
    alive = Counter()
    for construction in ("sacks", "robinson"):
        for index in range(RUNS):
            sc = load_scenario(generate(SEED, index, construction, MAX_HORIZON))
            events, _ = run(sc)
            lines = render(events).splitlines()
            mutants = [
                (at, key, value)
                for at, ev in enumerate(events)
                for key in sorted(ev.payload)
                for value in _variants(key, ev.payload[key])
            ]
            random.Random(0).shuffle(mutants)
            for at, key, value in mutants[:PER_RUN]:
                ev = events[at]
                line = ev._replace(payload=dict(ev.payload, **{key: value})).to_line()
                mutated = parse("\n".join(lines[:at] + [line] + lines[at + 1:]))
                verified += 1
                if passed(verify(sc, mutated)):
                    alive["%s.%s" % (ev.kind, key)] += 1
    return verified, alive


def test_single_field_mutations_are_caught():
    verified, alive = survivors()
    assert verified == MUTANTS
    assert sum(alive.values()) <= SURVIVOR_CEILING, sorted(alive.items())
    assert not [field for field in ALWAYS_KILLED if alive[field]], sorted(alive.items())
