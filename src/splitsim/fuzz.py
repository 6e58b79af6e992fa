"""Deterministic random scenario generation.

Documents are a pure function of (seed, index, construction), so a
failing index can always be regenerated from the summary line alone.
The generator leans small: most horizons sit in the low range where a
run takes under a millisecond, with a thin tail of large ones, and the
schedules are shaped so that restraints, deflections, certification
scans, and assignment updates all actually occur instead of producing
mostly-empty runs.

Every produced document passes scenario validation; the checks in
tests assert that over the whole stream.
"""

from __future__ import annotations

import random

from .model import Axiom, conflicting
from .scenario import CONSTRUCTIONS

_H_BUCKETS = ((8, 32, 0.55), (33, 96, 0.30), (97, 256, 0.12), (257, 1024, 0.03))


def _pick_horizon(rng: random.Random, max_horizon: int) -> int:
    buckets = [(lo, min(hi, max_horizon), w) for lo, hi, w in _H_BUCKETS if lo <= max_horizon]
    if not buckets:
        return rng.randint(2, max_horizon)
    total = sum(w for _, _, w in buckets)
    roll = rng.random() * total
    for lo, hi, w in buckets:
        roll -= w
        if roll <= 0:
            return rng.randint(lo, hi)
    return rng.randint(buckets[-1][0], buckets[-1][1])


def _bits(rng: random.Random, length: int, one_prob: float) -> str:
    return "".join("1" if rng.random() < one_prob else "0" for _ in range(length))


def _gen_axioms(rng, horizon, binary, c_support, k_pref):
    """One functional's axiom rows; conflicting candidates are dropped."""
    rows = []
    accepted = []
    for _ in range(rng.randint(1, 12)):
        x = rng.randint(0, min(8, horizon - 1))
        use = rng.randint(0, min(6, horizon))
        theta = _bits(rng, use, 0.3)
        pref = k_pref.setdefault(x, rng.randint(0, 1))
        k = pref if rng.random() < 0.7 else 1 - pref
        sigma = None
        if binary:
            sigma = "".join(
                "1" if i in c_support and rng.random() < 0.5 else
                "1" if rng.random() < 0.05 else "0"
                for i in range(use)
            )
        candidate = Axiom(theta, x, k, sigma)
        if any(conflicting(other, candidate) for other in accepted):
            continue
        accepted.append(candidate)
        row = {"theta": theta, "x": x, "k": k, "stage": rng.randint(use, horizon)}
        if binary:
            row["sigma"] = sigma
        rows.append(row)
    return rows


def generate(seed: int, index: int, construction: str, max_horizon: int = 64) -> dict:
    """The scenario document at this stream position."""
    if construction not in CONSTRUCTIONS:
        raise ValueError("unknown construction %r" % (construction,))
    if max_horizon < 2:
        raise ValueError("max_horizon must be at least 2")
    if seed < 0 or index < 0:
        raise ValueError("seed and index must be naturals")
    rng = random.Random("%d:%d:%s" % (seed, index, construction))
    horizon = _pick_horizon(rng, max_horizon)
    binary = construction == "robinson"

    odd_stages = list(range(1, horizon + 1, 2))
    b_pool = list(range(min(horizon, 32)))
    nb = rng.randint(0, min(12, horizon // 2, len(odd_stages), len(b_pool)))
    b = sorted(
        [s, x] for s, x in zip(rng.sample(odd_stages, nb), rng.sample(b_pool, nb))
    )

    c = []
    c_support: set[int] = set()
    if binary:
        c_pool = list(range(min(horizon, 10)))
        nc = rng.randint(0, min(12, len(c_pool)))
        chosen = rng.sample(c_pool, nc)
        c = sorted([rng.randint(0, horizon), x] for x in chosen)
        c_support = set(chosen)

    anti_prob = 0.5 if construction == "sacks" else 0.3
    if rng.random() < anti_prob:
        d = {"policy": "anti-delta", "params": {"limit": rng.choice((-1, -1, 1, 2))}}
        d_support: set[int] = set()
        k_bias = {x: 0 for x in range(9)}
    else:
        d_pool = list(range(min(horizon, 12)))
        nd = rng.randint(0, min(8, len(d_pool)))
        chosen = rng.sample(d_pool, nd)
        d = sorted([rng.randint(0, horizon), x] for x in chosen)
        d_support = set(chosen)
        k_bias = {x: (1 if x in d_support else 0) for x in range(9)}

    functionals = []
    per_side = [0, 0]
    max_per_input = 1
    for _ in range(rng.randint(1, 8)):
        side = rng.randint(0, 1)
        e = per_side[side]
        per_side[side] += 1
        axioms = _gen_axioms(rng, horizon, binary, c_support, dict(k_bias))
        counts: dict[int, int] = {}
        for row in axioms:
            counts[row["x"]] = counts.get(row["x"], 0) + 1
        if counts:
            max_per_input = max(max_per_input, max(counts.values()))
        functionals.append({"side": side, "e": e, "axioms": axioms})

    doc = {
        "horizon": horizon,
        "construction": construction,
        "b": b,
        "c": c,
        "d": d,
        "functionals": functionals,
        "seed": seed * 1000003 + index,
    }
    if binary:
        roll = rng.random()
        if roll < 0.85:
            doc["p_policy"] = {"type": "truthful_delay", "d": rng.randint(1, 3)}
        elif roll < 0.95:
            values = {}
            for j in range(rng.randint(1, 4)):
                width = rng.randint(2, min(horizon, 20))
                flip = rng.randint(1, width - 1)
                values[str(j)] = [0] * flip + [1] * (width - flip)
            doc["p_policy"] = {"type": "table", "values": values}
        else:
            doc["p_policy"] = {"type": "table", "values": {}}
        doc["q_default"] = 2 * max_per_input + 6
        if rng.random() < 0.1:
            doc["q_overrides"] = {"0": rng.randint(20, 40)}
    return doc

