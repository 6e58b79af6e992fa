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

The document is fixed draw for draw by the random.Random stream seeded
with "seed:index:construction", so a rewrite of this module must make
the same draws in the same order.  Integers are drawn by _randint,
which returns what randint returns and consumes the same getrandbits
calls; strings take one random() per character, and sample and choice
are the generator's own.  tests/test_fuzz.py pins both: the helper
against randint, and a digest of 4,000 documents.
"""

from __future__ import annotations

import random

from .model import Axiom, conflicting
from .scenario import CONSTRUCTIONS

_H_BUCKETS = ((8, 32, 0.55), (33, 96, 0.30), (97, 256, 0.12), (257, 1024, 0.03))


def _randint(getrandbits, lo: int, hi: int) -> int:
    """random.Random.randint(lo, hi) for lo <= hi, draw for draw.

    getrandbits is the generator's bound method.  CPython's randint takes
    k = n.bit_length() bits for the width n = hi - lo + 1 and draws again
    while the value is at least n; so does this, without randint's three
    call layers.
    """
    n = hi - lo + 1
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return lo + r


def _pick_horizon(rng: random.Random, max_horizon: int) -> int:
    bits = rng.getrandbits
    buckets = [(lo, min(hi, max_horizon), w) for lo, hi, w in _H_BUCKETS if lo <= max_horizon]
    if not buckets:
        return _randint(bits, 2, max_horizon)
    total = sum(w for _, _, w in buckets)
    roll = rng.random() * total
    for lo, hi, w in buckets:
        roll -= w
        if roll <= 0:
            return _randint(bits, lo, hi)
    return _randint(bits, buckets[-1][0], buckets[-1][1])


def _gen_axioms(rng, horizon, binary, c_support, k_pref):
    """One functional's axiom rows, and the most of them on one input.

    Conflicting candidates are dropped.  Only axioms on one input can
    conflict, so each candidate is checked against the accepted axioms
    on its own input.
    """
    bits, random_ = rng.getrandbits, rng.random
    rows = []
    accepted: dict[int, list[Axiom]] = {}
    x_top, use_top = min(8, horizon - 1), min(6, horizon)
    for _ in range(_randint(bits, 1, 12)):
        x = _randint(bits, 0, x_top)
        use = _randint(bits, 0, use_top)
        theta = "".join(["1" if random_() < 0.3 else "0" for _ in range(use)])
        # The draw is made even when x already has a preference.
        pref = k_pref.setdefault(x, _randint(bits, 0, 1))
        k = pref if random_() < 0.7 else 1 - pref
        sigma = None
        if binary:
            sigma = "".join([
                "1" if i in c_support and random_() < 0.5 else
                "1" if random_() < 0.05 else "0"
                for i in range(use)
            ])
        candidate = Axiom(theta, x, k, sigma)
        same_input = accepted.setdefault(x, [])
        if any(conflicting(other, candidate) for other in same_input):
            continue
        same_input.append(candidate)
        row = {"theta": theta, "x": x, "k": k, "stage": _randint(bits, use, horizon)}
        if binary:
            row["sigma"] = sigma
        rows.append(row)
    return rows, max(map(len, accepted.values()))


def generate(seed: int, index: int, construction: str, max_horizon: int = 64) -> dict:
    """The scenario document at this stream position."""
    if construction not in CONSTRUCTIONS:
        raise ValueError("unknown construction %r" % (construction,))
    if max_horizon < 2:
        raise ValueError("max_horizon must be at least 2")
    if seed < 0 or index < 0:
        raise ValueError("seed and index must be naturals")
    rng = random.Random("%d:%d:%s" % (seed, index, construction))
    bits = rng.getrandbits
    horizon = _pick_horizon(rng, max_horizon)
    binary = construction == "robinson"

    odd_stages = list(range(1, horizon + 1, 2))
    b_pool = list(range(min(horizon, 32)))
    nb = _randint(bits, 0, min(12, horizon // 2, len(odd_stages), len(b_pool)))
    b = sorted(
        [s, x] for s, x in zip(rng.sample(odd_stages, nb), rng.sample(b_pool, nb))
    )

    c = []
    c_support: set[int] = set()
    if binary:
        c_pool = list(range(min(horizon, 10)))
        nc = _randint(bits, 0, min(12, len(c_pool)))
        chosen = rng.sample(c_pool, nc)
        c = sorted([_randint(bits, 0, horizon), x] for x in chosen)
        c_support = set(chosen)

    anti_prob = 0.5 if construction == "sacks" else 0.3
    if rng.random() < anti_prob:
        d = {"policy": "anti-delta", "params": {"limit": rng.choice((-1, -1, 1, 2))}}
        d_support: set[int] = set()
        k_bias = {x: 0 for x in range(9)}
    else:
        d_pool = list(range(min(horizon, 12)))
        nd = _randint(bits, 0, min(8, len(d_pool)))
        chosen = rng.sample(d_pool, nd)
        d = sorted([_randint(bits, 0, horizon), x] for x in chosen)
        d_support = set(chosen)
        k_bias = {x: (1 if x in d_support else 0) for x in range(9)}

    functionals = []
    per_side = [0, 0]
    max_per_input = 1
    for _ in range(_randint(bits, 1, 8)):
        side = _randint(bits, 0, 1)
        e = per_side[side]
        per_side[side] += 1
        axioms, widest = _gen_axioms(rng, horizon, binary, c_support, dict(k_bias))
        max_per_input = max(max_per_input, widest)
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
            doc["p_policy"] = {"type": "truthful_delay", "d": _randint(bits, 1, 3)}
        elif roll < 0.95:
            values = {}
            for j in range(_randint(bits, 1, 4)):
                width = _randint(bits, 2, min(horizon, 20))
                flip = _randint(bits, 1, width - 1)
                values[str(j)] = [0] * flip + [1] * (width - flip)
            doc["p_policy"] = {"type": "table", "values": values}
        else:
            doc["p_policy"] = {"type": "table", "values": {}}
        doc["q_default"] = 2 * max_per_input + 6
        if rng.random() < 0.1:
            doc["q_overrides"] = {"0": _randint(bits, 20, 40)}
    return doc

