"""The benchmark's workloads: which scenario documents one pass runs.

A workload is a fixed list of operations.  Each operation yields one
scenario document, either by calling the program's own generator (the
``corpus`` workload, where ``splitsim fuzz`` pays for generation) or from
a document this file built during set-up (the two generated workloads,
where the program only ever receives the finished document).

Every generator is a pure function of the workload seed, so the same
seed always gives the same inputs.  Sizes are fixed per workload and do
not depend on the seed, which keeps the cost of a pass close to equal
across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 2026

CORPUS_PER_CONSTRUCTION = 500
CORPUS_MAX_HORIZON = 1024

# Horizons of the dense-sacks scenarios in one pass.  Cost grows about
# cubically in the horizon (H/4 owners scanned for each of up to H/8
# blocks on each of H/2 even stages).  At H=208 block dispatch is over
# half of harness.run, and eight scenarios keep a pass near half a
# second, so a run times every step of every scenario dozens of times
# (run.summarize keeps the fastest).  One horizon for all makes the
# median operation a median over scenarios of equal cost.
DENSE_HORIZONS = (208,) * 8

# Horizons of the oracle-churn scenarios in one pass.  The verifier's V10
# loop grows with guessing sets squared times the q budget (about 2H),
# and the guessing sets grow with the horizon; at H=36..43 verify is
# already most of a pass, and a pass stays near half a second.
CHURN_HORIZONS = tuple(range(36, 44))

# sha256 digests (trace text, run-path report JSON) of one pass at the
# default seed, taken at the commit that introduced the benchmark.  The
# corpus pair is the ROADMAP's behavioural anchor.
PINNED = {
    "corpus": (
        "b03738ea97bf52e59cafb0f59aa0200c4518130abec05773a449637e372a5440",
        "27b5cdfd4df02d9e4f3ddaaca61614776cdc77bf5a43cffefd0a8773fa437afd",
    ),
    "dense-sacks": (
        "75303eedf3a81e28278b670b7d569c0e66451128bf8c4706ad0f88ce7cd98e3d",
        "5bd94f344ef5bd0c06861f7311f9995c504d981c4b6c02a8ad700da6b6bb7f2a",
    ),
    "oracle-churn": (
        "4f5e685d368b94d92d6a9822492ef2ac6c908bdd632f8dc7174ef0872e0ece0d",
        "11ffedde885ca24548b7427e9018612ca9b9e740c1cfc9b1f3b120325aa8aef9",
    ),
}


@dataclass(frozen=True)
class Operation:
    """One scenario: either generator arguments or a finished document."""

    label: str
    generate: tuple | None = None
    doc: dict | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    ops: tuple[Operation, ...]
    digests: tuple[str, str] | None


def corpus_ops(seed: int, per_construction: int, max_horizon: int) -> tuple[Operation, ...]:
    """The acceptance corpus order: sacks 0..n-1, then robinson 0..n-1."""
    return tuple(
        Operation("%s[%d]" % (construction, index), generate=(seed, index, construction, max_horizon))
        for construction in ("sacks", "robinson")
        for index in range(per_construction)
    )


def dense_sacks_doc(seed: int, horizon: int) -> dict:
    """A Sacks scenario in the ROADMAP's dense-stress shape.

    About H/4 table owners with four theta="" axioms each, a B arrival at
    every odd stage, and anti-delta with an unlimited budget.  Axioms sit
    at inputs 1..8 with k=1, so nearly every requirement diverges at
    input 0 and never acts: part two visits every owning block on every
    even stage and the time goes to block dispatch.  The weakest side-0
    owner also holds an axiom at input 0 with k=0; it acts once and
    diagonalizes once, so routing deflects later arrivals and the blocks
    below it get initialized and reassigned, while the verifier stays
    lightly loaded.
    """
    rng = random.Random("dense-sacks:%d:%d" % (seed, horizon))
    odd = range(1, horizon + 1, 2)
    b = sorted([s, x] for s, x in zip(odd, rng.sample(range(horizon), len(odd))))
    owners = horizon // 4
    active = 2 * (owners // 2 - 1)
    functionals = []
    for n in range(owners):
        axioms = [
            {"theta": "", "x": x, "k": 1, "stage": rng.randint(0, horizon)}
            for x in rng.sample(range(1, 9), 4)
        ]
        if n == active:
            axioms[0] = {"theta": "", "x": 0, "k": 0, "stage": rng.randint(horizon // 4, horizon // 2)}
        functionals.append({"side": n % 2, "e": n // 2, "axioms": axioms})
    return {
        "horizon": horizon,
        "construction": "sacks",
        "b": b,
        "c": [],
        "d": {"policy": "anti-delta", "params": {"limit": -1}},
        "functionals": functionals,
        "seed": seed,
    }


def oracle_churn_doc(seed: int, horizon: int) -> dict:
    """A Robinson scenario whose certifications C keeps killing.

    Four requirements watch eight inputs each, D is empty and every
    theta is all zeros.  C enumerates H/8 elements below H/4 at evenly
    spaced stages; for every input there is a chain of axioms whose sigma cones
    each live exactly between two consecutive C arrivals.  Every sigma
    spans all H/4 places, so every use is H/4 whatever the seed.  Every
    arrival kills every live local definition, and each redefinition
    needs a fresh certification, which issues about one guessing set per
    certification.  The q budget is the default (2H + 4), so the
    verifier's V10 decoding dominates.  Four B arrivals above every use,
    at evenly spaced odd stages, keep routing alive without breaking a
    theta.  The seed picks which elements C enumerates; the stages and
    the B elements are fixed, because the amount of churn depends on them
    and a pass should cost the same at every seed.
    """
    rng = random.Random("oracle-churn:%d:%d" % (seed, horizon))
    below = horizon // 4
    arrivals = horizon // 8
    ys = rng.sample(range(below), arrivals)
    span = horizon * 3 // 4 - 2
    stages = [2 + k * span // arrivals for k in range(arrivals)]
    c = [[s, y] for s, y in zip(stages, ys)]
    b = [[1 + 2 * (k * horizon // 8), below + k * (horizon - below) // 4] for k in range(4)]
    chain = [
        "".join("1" if i in ys[:k] else "0" for i in range(below)) for k in range(arrivals + 1)
    ]
    functionals = [
        {
            "side": n % 2,
            "e": n // 2,
            "axioms": [
                {"theta": "0" * len(sigma), "sigma": sigma, "x": x, "k": 0, "stage": len(sigma)}
                for x in range(8)
                for sigma in chain
            ],
        }
        for n in range(4)
    ]
    return {
        "horizon": horizon,
        "construction": "robinson",
        "b": b,
        "c": c,
        "d": [],
        "functionals": functionals,
        "seed": seed,
    }


def doc_ops(name: str, make, seed: int, horizons) -> tuple[Operation, ...]:
    return tuple(
        Operation("%s[%d]H=%d" % (name, i, h), doc=make(seed * 1000 + i, h))
        for i, h in enumerate(horizons)
    )


NAMES = ("corpus", "dense-sacks", "oracle-churn")


def build(name: str, seed: int) -> Workload:
    """The named workload at full size; digests are pinned at the default seed."""
    if name == "corpus":
        ops = corpus_ops(seed, CORPUS_PER_CONSTRUCTION, CORPUS_MAX_HORIZON)
    elif name == "dense-sacks":
        ops = doc_ops(name, dense_sacks_doc, seed, DENSE_HORIZONS)
    elif name == "oracle-churn":
        ops = doc_ops(name, oracle_churn_doc, seed, CHURN_HORIZONS)
    else:
        raise ValueError("unknown workload %r" % (name,))
    digests = PINNED[name] if seed == DEFAULT_SEED else None
    return Workload(name, seed, ops, digests)
