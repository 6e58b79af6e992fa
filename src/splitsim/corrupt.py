"""Targeted trace corruption: one forged defect per verifier check.

Each corruption takes an honest (scenario, events) pair and returns a new
event list on which the named check must fail; the originals are left
untouched.  Corruptions are allowed to trip neighboring checks as
collateral, but each is built so its own target cannot stay green.
CorruptionError signals that the given run simply lacks the material to
forge (no certification scan to displace, a change budget too large to
beat, and so on), so callers can pick a different run.
"""

from __future__ import annotations

from . import verify as _verify
from .model import Cones, applicable_axiom, build_policy, changes, parse_label
from .trace import TraceEvent, event


class CorruptionError(ValueError):
    """The run has no material for the requested corruption."""


def corrupt(check: str, scenario, events) -> list[TraceEvent]:
    """A copy of events forged so that the named check fails."""
    fn = _CORRUPTIONS.get(check)
    if fn is None:
        raise CorruptionError("no corruption is defined for %r" % (check,))
    return fn(scenario, list(events))


def _insert(events, additions):
    """Place each addition at the end of its stage's block of lines."""
    out = list(events)
    for ev in additions:
        idx = len(out)
        for pos, existing in enumerate(out):
            if existing.stage > ev.stage:
                idx = pos
                break
        out.insert(idx, ev)
    return out


def _replace(events, old, new):
    out = list(events)
    out[out.index(old)] = new
    return out


def _with_payload(ev: TraceEvent, **changes) -> TraceEvent:
    pay = dict(ev.payload)
    pay.update({k: str(v) for k, v in changes.items()})
    return TraceEvent(ev.stage, ev.kind, pay)


def _v1(scenario, events):
    """A second entry of one arrival, violating the partition."""
    for ev in events:
        if ev.kind == "enumerate" and ev.payload.get("set") in ("A0", "A1"):
            return _insert(events, [ev])
    return _insert(events, [event(1, "enumerate", element=0, set="A0")])


def _v2(scenario, events):
    """A repeated enumeration, or a line out of stage order."""
    for ev in events:
        if ev.kind == "enumerate" and ev.payload.get("set") in ("D", "W"):
            return _insert(events, [ev])
    return events + [events[0]]


def _v3(scenario, events):
    """An update that drags a requirement up to a weaker block."""
    forged = event(1, "assignment-update", i=6, side="P", tail=0)
    return _insert(events, [forged])


def _v4(scenario, events):
    """A restraint nobody honors: the next arrival walks right under it."""
    return _insert(
        events,
        [
            event(0, "restraint-set", block="P:0", value=5),
            event(1, "route", threatened="-", to="A0", x=0),
            event(1, "enumerate", element=0, set="A0"),
        ],
    )


def _v5(scenario, events):
    """Flip the stored bit behind a diagonalization that must persist."""
    ctx = _verify._replay(scenario, events)
    for diag in ctx.diags:
        side, e = diag["req"]
        if ctx.cancelled_after(side, e, diag["stage"]) is not None:
            continue
        table = scenario.functionals.get(diag["req"])
        if table is None:
            continue
        target = None
        for ev in events:
            if (
                ev.kind == "define-local"
                and "theta" not in ev.payload
                and parse_label(ev.payload.get("req", "")) == diag["req"]
                and int(ev.payload["x"]) == diag["x"]
            ):
                target = ev
        if target is None:
            continue
        ax = applicable_axiom(table, target.stage, ctx.a_cones[side], None, diag["x"])
        if ax is None or ax.use > target.stage + 1:
            # The verifier exempts definitions whose computation outruns
            # the recorded restraint, so this one is not forgeable.
            continue
        flipped = 1 - int(target.payload["k"])
        return _replace(events, target, _with_payload(target, k=flipped))
    raise CorruptionError("no persisting diagonalization to forge")


def _v6(scenario, events):
    """An injury report with a cause nothing in the stage explains."""
    last = events[-1].stage if events else 0
    return events + [event(last, "injury", cause="a0-change", req="P:0", x=0)]


def _v7(scenario, events):
    """Displace a certification, or invent one out of thin air."""
    for ev in events:
        if ev.kind == "certify":
            bumped = int(ev.payload["resolved"]) + 1
            return _replace(events, ev, _with_payload(ev, resolved=bumped))
    forged = event(
        0, "certify", entry=0, j=10**9, k=0, req="P:0", resolved=0, sigma="", theta="", x=0
    )
    return _insert(events, [forged])


def _v8(scenario, events):
    """Flood a fresh guessing set so p must change its mind too often.

    Strings are the characteristic vectors of C at every second distinct
    arrival stage, giving alternating live windows and two p flips per
    window; with enough C churn the flips overrun the change budget, which
    also breaks the coded approximation for the same index.
    """
    if scenario.construction != "robinson":
        raise CorruptionError("the change budget only constrains oracle runs")
    if scenario.p_policy_kind != "truthful_delay":
        raise CorruptionError("a table policy ignores forged enumerations")
    entry = scenario.c_schedule.entry_stage()
    if not entry:
        raise CorruptionError("an empty C schedule cannot move p at all")
    horizon = scenario.horizon
    width = max(entry) + 1
    stages = sorted(set(entry.values()))
    sigmas = [
        "".join("1" if entry.get(i, horizon + 1) <= t else "0" for i in range(width))
        for t in stages[::2]
    ]
    taken = set(scenario.q_overrides)
    for ev in events:
        if ev.kind == "enumerate" and ev.payload.get("set") == "W":
            taken.add(int(ev.payload["j"]))
    j = max(taken, default=-1) + 1
    row = build_policy(scenario, Cones(entry)).row(j, [(0, sig) for sig in sigmas], horizon)
    flips = changes(row)
    if flips <= scenario.q_default:
        raise CorruptionError(
            "C churns %d p-changes out of a budget of %d" % (flips, scenario.q_default)
        )
    forged = [event(0, "enumerate", j=j, set="W", sigma=sig) for sig in reversed(sigmas)]
    return _insert(events, forged)


def _v9(scenario, events):
    """Flip the bit of a live local definition away from its functional."""
    report = _verify.verify(scenario, events)
    if report["flags"]["status"] != "settled":
        raise CorruptionError("coherence is only checked on settled runs")
    for ev in events:
        if ev.kind == "define-local" and "theta" in ev.payload:
            flipped = 1 - int(ev.payload["k"])
            return _replace(events, ev, _with_payload(ev, k=flipped))
    raise CorruptionError("no certified definition to forge")


def _v11(scenario, events):
    """Misstate an update's tail, or sneak in a second update."""
    for ev in events:
        if ev.kind == "assignment-update" and ev.payload.get("side") != "none":
            bumped = int(ev.payload["tail"]) + 1
            return _replace(events, ev, _with_payload(ev, tail=bumped))
    return _insert(events, [event(1, "assignment-update", i=0, side="P", tail=0)])


_CORRUPTIONS = {
    "V1": _v1,
    "V2": _v2,
    "V3": _v3,
    "V4": _v4,
    "V5": _v5,
    "V6": _v6,
    "V7": _v7,
    "V8": _v8,
    "V9": _v9,
    "V10": _v8,
    "V11": _v11,
}
