"""Per-string references for the guessing-set record and p.

The kernel answers a guessing set's cone truth and p's spans once per
set (model.GuessingSet and each policy's spans).  These references
answer the same questions the long way: the cone truth walks every
string of the set, each policy gives one window per string or per 1 of
its row, which p_spans merges into spans, p is a full row of bits over
0..horizon, and the first p hit is the first 1 of that row.  Only tests
import this module.
"""

from splitsim.model import Cones


def cone_truth(strings: list[tuple[int, str]], c_cones: Cones, at: int) -> int:
    """1 iff C at stage at lies in the cone of a string enumerated by then;
    strings are the (enumeration stage, sigma) pairs of one guessing set,
    every enumeration of it, where the record keeps each sigma's first."""
    return int(any(u <= at and c_cones.holds(sigma, at) for u, sigma in strings))


def truthful_windows(delay: int, c_cones: Cones, strings) -> list[tuple[int, int | None]]:
    """One window per string whose cone C enters, shifted d late: p answers 1
    on stages lo..hi (hi None: to the horizon).  A window is empty (lo > hi)
    when C leaves the cone before p could report it."""
    out = []
    for u, sigma in strings:
        missing, birth, death = c_cones.lifetime(sigma)
        if not missing:
            out.append((max(u, birth) + delay, None if death is None else death - 1 + delay))
    return out


def table_windows(values: dict, j: int) -> list[tuple[int, int]]:
    """One single-stage window per 1 in row j of a table policy's values."""
    return [(t, t) for t, v in enumerate(values.get(j, [])) if v]


def windows(doc: dict, c_cones: Cones, j: int, strings) -> list[tuple[int, int | None]]:
    """p's windows for W_j under a scenario document's p_policy, read off
    the document itself rather than the policy its loader builds."""
    policy = doc.get("p_policy", {"type": "truthful_delay", "d": 1})
    if policy["type"] == "table":
        return table_windows({int(key): row for key, row in policy["values"].items()}, j)
    return truthful_windows(policy.get("d", 1), c_cones, strings)


def p_spans(windows, horizon: int) -> list[tuple[int, int]]:
    """The stages in 0..horizon where p answers 1 over these windows, as
    sorted, disjoint, maximal intervals (lo, hi): hi None runs to the
    horizon, and overlapping or adjacent windows merge.  So p starts at 1
    iff spans[0][0] == 0 and ends at 1 iff spans[-1][1] == horizon."""
    spans = []
    for lo, hi in sorted((lo, horizon if hi is None else min(hi, horizon)) for lo, hi in windows):
        if spans and lo <= spans[-1][1] + 1:
            spans[-1] = (spans[-1][0], max(hi, spans[-1][1]))
        elif lo <= hi:
            spans.append((lo, hi))
    return spans


def p_row(windows, horizon: int) -> list[int]:
    """p(j, t) for t in 0..horizon."""
    row = [0] * (horizon + 1)
    for lo, hi in windows:
        top = horizon if hi is None else min(horizon, hi)
        row[lo: top + 1] = [1] * max(0, top + 1 - lo)
    return row


def first_hit(windows, s: int, horizon: int) -> int | None:
    """The first t in s..horizon at which p answers 1, or None."""
    row = p_row(windows, horizon)
    return next((t for t in range(s, horizon + 1) if row[t]), None)


def scan(windows, c_cones: Cones, sigma: str, entry: int, horizon: int):
    """The certification race from stage entry, as model.scan states it."""
    _, _, death = c_cones.lifetime(sigma)
    t_hit = first_hit(windows, entry, horizon)
    if death is not None and death <= horizon and (t_hit is None or death <= t_hit):
        return "refused", death
    if t_hit is None:
        return "pending", None
    return "certify", t_hit
