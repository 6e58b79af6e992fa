"""Trace verification: recompute every run invariant from public data.

The verifier consumes a scenario plus the event list of a finished run
and replays everything it can recompute purely: routing decisions,
restraint windows, assignment updates, certification scans, and the
change-set coding of the p approximations.  Engine and strategy
internals are never consulted: the module imports only the trusted
kernel (model, omegace, trace), so a failure always indicts the trace,
not the bookkeeping that produced it.  The rules the engine follows
come from that kernel too: the label grammar (parse_label), routing
(route), block membership (PriorityAssignment.members, which reads the
index the replayed updates keep over the scenario's table owners), the
cone oracle (Cones: over C's schedule from set-up, over each half's
final map once the replay ends, so V5, V7 and V9 look their past-stage
cone questions up), the cone truth and the mind-change count of a p
row.  Payload integers are read with the trace grammar's parse_int, so
a non-canonical one is a malformed payload.  Block state is keyed by
(side, index), as in the engine; a restraint-set or initialize line
whose block label does not parse fails V2 on that line.

Checks:
  V1  partition                     A0 and A1 split B exactly, stage by stage.
  V2  monotone-enumerations         line grammar, stage order, c.e. discipline.
  V3  assignment-monotone           block assignments only ever move down.
  V4  restraint-integrity           routing and arrivals respect live restraints.
  V5  diagonalization-persistence   diagonalized disagreements survive to the horizon.
  V6  injury-discipline             injuries only under same-stage initialization.
  V7  certification-soundness       scans match the C schedule and the p policy.
  V8  p-contract                    p starts at 0, stays within its change budget.
  V9  local-global-coherence        live local values track the watched functional.
  V10 change-coding-equivalence     coded p rows decode back to their limits;
                                    fails only where a row breaks V8's start
                                    or budget rule (a negative index fails V2).
  V11 assignment-update-rule        every update names the true tail and initiator.

A report is a plain dict: {"checks", "flags", "diagnostics"}.  Failing
checks carry minimal witnesses (stage plus the offending trace lines).
"""

from __future__ import annotations

from .model import (
    SIDE_LABEL,
    Cones,
    PriorityAssignment,
    agreement_length,
    applicable_axiom,
    block_label,
    build_policy,
    changes,
    cone_truth,
    member,
    parse_label,
    priority_order,
    route,
    threatens,
)
from .omegace import ApproxTable, limit_eval, restrict
from .trace import TraceEvent, parse_int

CHECKS = (
    ("V1", "partition"),
    ("V2", "monotone-enumerations"),
    ("V3", "assignment-monotone"),
    ("V4", "restraint-integrity"),
    ("V5", "diagonalization-persistence"),
    ("V6", "injury-discipline"),
    ("V7", "certification-soundness"),
    ("V8", "p-contract"),
    ("V9", "local-global-coherence"),
    ("V10", "change-coding-equivalence"),
    ("V11", "assignment-update-rule"),
)

WITNESS_CAP = 5

class _Problems:
    """Per-check witness accumulator with a cap and a total count."""

    def __init__(self):
        self.by_check = {name: [] for name, _ in CHECKS}
        self.counts = {name: 0 for name, _ in CHECKS}

    def add(self, check: str, stage: int, text: str, ev: TraceEvent | None = None):
        self.counts[check] += 1
        if len(self.by_check[check]) < WITNESS_CAP:
            witness = {"stage": stage, "note": text}
            if ev is not None:
                witness["line"] = ev.to_line()
            self.by_check[check].append(witness)

    def failed(self, check: str) -> bool:
        return self.counts[check] > 0


class _StageState:
    """Buffers that reset at every stage boundary."""

    def __init__(self):
        self.routes = []          # (event, x, destination) awaiting enumeration
        self.expected_inits = []  # (target block, route event) from deflections
        self.violations = []      # (block, arrival event) to be forgiven
        self.injuries = []        # (event, containing block or None)

    def busy(self) -> bool:
        return bool(self.routes or self.expected_inits or self.violations or self.injuries)

    def clear(self):
        self.routes.clear()
        self.expected_inits.clear()
        self.violations.clear()
        self.injuries.clear()


class _Context:
    """Everything the post-replay checks need, gathered in one pass."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.horizon = scenario.horizon
        self.problems = _Problems()
        self.b_entry = dict(scenario.b_schedule.entry_stage())
        self.c_cones = Cones(scenario.c_schedule.entry_stage())
        self.d_entry = dict(scenario.d_schedule.entry_stage())
        self.a_entry = ({}, {})  # element -> entry stage, per half
        self.a_cones = None  # per half, over the final a_entry once the replay ends
        self.routed = {}
        self.restraint = {}       # (side, i) -> live restraint, -1 for none
        self.max_restraint = {}
        self.last_initialized = {}
        self.inits_by_stage = {}
        self.initiators_by_stage = {}
        self.updates_per_stage = {}
        self.none_update_stages = []
        self.assignments = tuple(
            PriorityAssignment(e for owner_side, e in scenario.functionals if owner_side == side)
            for side in (0, 1)
        )
        self.last_change = [-1, -1]
        self.w_sets = {}
        self.w_seen = set()
        self.cert_events = []
        self.refuse_events = []
        self.pending_count = 0
        self.defined_k = {}
        self.diags = []
        self.expansionary = []
        self.definitions = []
        self.cancels = {}
        self.injuries = []
        self.injuries_per_block = {}
        self.action_counts = {}

    def cancelled_after(self, side: int, e: int, stage: int):
        """First cancellation of the requirement strictly after stage."""
        for t in self.cancels.get((side, e), ()):
            if t > stage:
                return t
        return None


def _replay(scenario, events) -> _Context:
    ctx = _Context(scenario)
    prob = ctx.problems
    pend = _StageState()
    last_stage = 0

    for ev in events:
        s = ev.stage
        if s < last_stage:
            prob.add("V2", s, "stage goes backwards (after %d)" % last_stage, ev)
        if s < 0 or s > ctx.horizon:
            prob.add("V2", s, "stage outside 0..%d" % ctx.horizon, ev)
            continue
        if s > last_stage:
            if pend.busy():
                _close_stage(ctx, pend, last_stage)
            last_stage = s
        parity, handler = _HANDLERS.get(ev.kind, (None, None))
        if parity is not None and s % 2 != parity:
            prob.add("V2", s, "%s event at an %s stage" % (ev.kind, _PARITY_WORD[s % 2]), ev)
        if handler is None:
            continue
        try:
            handler(ctx, ev, s, pend)
        except (KeyError, ValueError):
            prob.add("V2", s, "malformed %s payload" % ev.kind, ev)
    if pend.busy():
        _close_stage(ctx, pend, last_stage)

    for x, t in sorted(ctx.b_entry.items()):
        if x not in ctx.routed:
            prob.add("V1", t, "arrival %d at stage %d was never routed" % (x, t))
    for s in range(ctx.horizon + 1):
        n = ctx.updates_per_stage.get(s, 0)
        if n != 1:
            prob.add("V11", s, "stage has %d assignment updates instead of one" % n)
    for s in ctx.none_update_stages:
        if ctx.inits_by_stage.get(s):
            prob.add("V11", s, "update claims no initialization despite one")
    ctx.a_cones = (Cones(ctx.a_entry[0]), Cones(ctx.a_entry[1]))
    return ctx


def _close_stage(ctx, pend, s):
    """Settle what stage s left pending; the replay calls it only when pend is busy."""
    prob = ctx.problems
    inits = ctx.inits_by_stage.get(s, set())
    for ev, x, to in pend.routes:
        prob.add("V4", s, "route of %d to %s without its enumeration" % (x, to), ev)
    for target, ev in pend.expected_inits:
        if target not in inits:
            prob.add(
                "V4", s, "deflection without initializing %s" % block_label(*target), ev
            )
    for blk, ev in pend.violations:
        if blk not in inits:
            prob.add(
                "V4", s,
                "arrival under the restraint of %s without initializing it"
                % block_label(*blk),
                ev,
            )
    for ev, blk in pend.injuries:
        if ev.payload.get("cause") != "initialized":
            prob.add("V6", s, "injury without initialization cause", ev)
        elif blk is None:
            prob.add("V6", s, "injury names no requirement", ev)
        elif blk not in inits:
            prob.add(
                "V6", s,
                "injury with no same-stage initialization of %s" % block_label(*blk), ev,
            )
    pend.clear()


# Replay handlers, one per event kind; _HANDLERS dispatches to them.  A
# handler may raise KeyError or ValueError on a malformed payload, which
# the replay reports as V2.


def _on_enumerate(ctx, ev, s, pend):
    prob = ctx.problems
    pay = ev.payload
    target = pay["set"]
    if target == "W":
        j = parse_int(pay["j"])
        sigma = pay["sigma"]
        if j < 0:
            prob.add("V2", s, "guessing-set index %d is not a natural" % j, ev)
            return
        if s % 2 == 1:
            prob.add("V2", s, "guessing-set enumeration at an odd stage", ev)
        if ctx.scenario.construction != "robinson":
            prob.add("V2", s, "guessing-set enumeration in a plain-construction trace", ev)
        if (j, sigma) in ctx.w_seen:
            prob.add("V2", s, "string enumerated twice into W_%d" % j, ev)
        ctx.w_seen.add((j, sigma))
        prior = ctx.w_sets.setdefault(j, [])
        if cone_truth(prior, ctx.c_cones, s):
            prob.add("V7", s, "enumeration into W_%d while C already lies in a cone" % j, ev)
        prior.append((s, sigma))
        return
    x = parse_int(pay["element"])
    if target == "D":
        if s % 2 == 0:
            prob.add("V2", s, "policy enumeration into D at an even stage", ev)
        if x in ctx.d_entry:
            prob.add("V2", s, "element %d enumerated into D twice" % x, ev)
        else:
            ctx.d_entry[x] = s
        return
    if target not in ("A0", "A1"):
        prob.add("V2", s, "unknown enumeration target %r" % (target,), ev)
        return
    side = int(target[1])
    if s % 2 == 0:
        prob.add("V2", s, "arrival routed at an even stage", ev)
    if x in ctx.routed:
        prob.add("V1", s, "element %d enters a half twice" % x, ev)
        return
    if ctx.b_entry.get(x) != s:
        prob.add("V1", s, "element %d is no stage-%d arrival of B" % (x, s), ev)
    matched = None
    for idx, (_, rx, rto) in enumerate(pend.routes):
        if rx == x and rto == target:
            matched = idx
            break
    if matched is None:
        prob.add("V4", s, "arrival enumerated without a matching route", ev)
    else:
        pend.routes.pop(matched)
    ctx.routed[x] = (side, s)
    ctx.a_entry[side][x] = s
    for blk, r in ctx.restraint.items():
        if blk[0] == side and threatens(x, r):
            pend.violations.append((blk, ev))


def _on_route(ctx, ev, s, pend):
    prob = ctx.problems
    pay = ev.payload
    x = parse_int(pay["x"])
    to = pay["to"]
    threatened, half, init = route(x, ctx.restraint)
    want_label = "-" if threatened is None else block_label(*threatened)
    if pay.get("threatened", "-") != want_label:
        prob.add("V4", s, "route names the wrong threatened block (%s)" % want_label, ev)
    if init is not None:
        pend.expected_inits.append((init, ev))
    want_to = "A%d" % half
    if to != want_to:
        prob.add("V4", s, "route sends the arrival to %s instead of %s" % (to, want_to), ev)
    pend.routes.append((ev, x, to))


def _on_restraint_set(ctx, ev, s, pend):
    pay = ev.payload
    blk = parse_label(pay["block"])
    value = parse_int(pay["value"])
    if blk is None:
        ctx.problems.add("V2", s, "restraint names no block", ev)
        return
    ctx.restraint[blk] = value
    ctx.max_restraint[blk] = max(ctx.max_restraint.get(blk, -1), value)


def _on_initialize(ctx, ev, s, pend):
    pay = ev.payload
    blk = parse_label(pay["block"])
    initiator = parse_label(pay.get("initiator", pay["block"]))
    if blk is None or initiator is None:
        ctx.problems.add("V2", s, "initialization names no block", ev)
        return
    side, i = blk
    ctx.restraint[blk] = -1
    ctx.last_initialized[blk] = s
    ctx.inits_by_stage.setdefault(s, set()).add(blk)
    ctx.initiators_by_stage.setdefault(s, set()).add(initiator)
    gone = {(side, e) for e in ctx.assignments[side].members(i)}
    for key in gone:
        ctx.cancels.setdefault(key, []).append(s)
    if gone:
        ctx.defined_k = {
            key: v for key, v in ctx.defined_k.items() if key[0] not in gone
        }


def _on_define_local(ctx, ev, s, pend):
    pay = ev.payload
    req = parse_label(pay["req"])
    if req is None:
        ctx.problems.add("V2", s, "definition names no requirement", ev)
        return
    x = parse_int(pay["x"])
    k = parse_int(pay["k"])
    if "theta" in pay:
        ctx.definitions.append(
            {"req": req, "x": x, "k": k, "theta": pay["theta"],
             "sigma": pay["sigma"], "stage": s, "ev": ev}
        )
    else:
        ctx.defined_k[(req, x)] = (k, s)


def _on_diagonalize(ctx, ev, s, pend):
    req = parse_label(ev.payload["req"])
    if req is None:
        ctx.problems.add("V2", s, "diagonalization names no requirement", ev)
        return
    ctx.diags.append({"req": req, "x": parse_int(ev.payload["x"]), "stage": s, "ev": ev})


def _on_expansionary(ctx, ev, s, pend):
    req = parse_label(ev.payload["req"])
    if req is None:
        ctx.problems.add("V2", s, "expansionary event names no requirement", ev)
        return
    ctx.expansionary.append(
        {"req": req, "ell": parse_int(ev.payload["ell"]), "stage": s, "ev": ev}
    )


def _on_act(ctx, ev, s, pend):
    req = parse_label(ev.payload["req"])
    if req is None:
        ctx.problems.add("V2", s, "act names no requirement", ev)
        return
    ctx.action_counts[req] = ctx.action_counts.get(req, 0) + 1


def _on_certify(ctx, ev, s, pend):
    ctx.cert_events.append(ev)


def _on_refuse_certify(ctx, ev, s, pend):
    ctx.refuse_events.append(ev)
    if ev.payload.get("result") == "pending":
        ctx.pending_count += 1


def _on_injury(ctx, ev, s, pend):
    req = parse_label(ev.payload.get("req", ""))
    blk = None
    if req is not None:
        blk = req[0], ctx.assignments[req[0]].value(req[1])
        ctx.injuries_per_block[blk] = ctx.injuries_per_block.get(blk, 0) + 1
    pend.injuries.append((ev, blk))
    ctx.injuries.append(ev)


def _on_assignment_update(ctx, ev, s, pend):
    ctx.updates_per_stage[s] = ctx.updates_per_stage.get(s, 0) + 1
    pay = ev.payload
    side_label = pay["side"]
    if side_label == "none":
        ctx.none_update_stages.append(s)
        return
    prob = ctx.problems
    side = SIDE_LABEL.index(side_label)
    i = parse_int(pay["i"])
    m = parse_int(pay["tail"])
    if not ctx.inits_by_stage.get(s):
        prob.add("V11", s, "update without any initialization this stage", ev)
    else:
        strongest = min(ctx.initiators_by_stage[s], key=lambda b: priority_order(*b))
        if strongest != (side, i):
            prob.add(
                "V11", s,
                "update target %s is not the strongest initiator %s"
                % (block_label(side, i), block_label(*strongest)),
                ev,
            )
    assign = ctx.assignments[side]
    want_m = assign.tail(i)
    if want_m is None:
        prob.add("V11", s, "update targets a block with an empty preimage", ev)
    elif want_m != m:
        prob.add("V11", s, "update tail %d differs from the true tail %d" % (m, want_m), ev)
    if m > s:
        prob.add("V11", s, "update tail %d exceeds the stage" % m, ev)
        m = s
    elif m < 0:
        prob.add("V11", s, "update tail %d is negative" % m, ev)
        m = 0
    # Past both prefixes both maps have unit slope, so a rise shows
    # up within the longer prefix; the new one ends at s.
    before = assign.snapshot_values(max(len(assign.prefix) - 1, s))
    assign.update(s, i, m)
    for e, (was, now) in enumerate(zip(before, assign.snapshot_values(len(before) - 1))):
        if now > was:
            prob.add(
                "V3", s, "assignment of index %d rose from %d to %d" % (e, was, now), ev
            )
            break
    ctx.last_change[side] = s


# Kind -> (stage parity it is legitimate at, or None for either; handler).
# Arrivals are routed at odd stages and strategies run at even stages.
_HANDLERS = {
    "enumerate": (None, _on_enumerate),
    "route": (1, _on_route),
    "initialize": (None, _on_initialize),
    "act": (0, _on_act),
    "expansionary": (0, _on_expansionary),
    "diagonalize": (0, _on_diagonalize),
    "certify": (0, _on_certify),
    "refuse-certify": (0, _on_refuse_certify),
    "define-local": (0, _on_define_local),
    "restraint-set": (0, _on_restraint_set),
    "assignment-update": (None, _on_assignment_update),
    "injury": (None, _on_injury),
}
_PARITY_WORD = ("even", "odd")


def _check_v5(ctx):
    prob = ctx.problems
    sc = ctx.scenario
    if sc.construction != "sacks":
        for d in ctx.diags:
            prob.add("V5", d["stage"], "diagonalization in an oracle-construction trace", d["ev"])
        return
    for rec in ctx.expansionary:
        table = sc.functionals.get(rec["req"])
        if table is None:
            prob.add("V5", rec["stage"], "expansionary event for an unknown functional", rec["ev"])
            continue
        a_cones = ctx.a_cones[rec["req"][0]]
        ell = agreement_length(table, a_cones, ctx.d_entry, rec["stage"])
        if ell != rec["ell"]:
            prob.add(
                "V5", rec["stage"],
                "recorded agreement %d, recomputed %d" % (rec["ell"], ell), rec["ev"],
            )
    for d in ctx.diags:
        side, e = d["req"]
        if ctx.cancelled_after(side, e, d["stage"]) is not None:
            continue
        got = ctx.defined_k.get((d["req"], d["x"]))
        if got is None:
            prob.add("V5", d["stage"], "diagonalization without a surviving definition", d["ev"])
            continue
        k, def_stage = got
        table = sc.functionals.get(d["req"])
        if table is None:
            prob.add("V5", d["stage"], "diagonalization by an unknown functional", d["ev"])
            continue
        ax_def = applicable_axiom(table, def_stage, ctx.a_cones[side], None, d["x"])
        if ax_def is None:
            prob.add("V5", def_stage, "no computation behind the defined value", d["ev"])
            continue
        if ax_def.use > def_stage + 1:
            # The recorded restraint cannot shield a use this long, so the
            # disagreement is not required to persist.
            continue
        h = ctx.horizon
        ax = applicable_axiom(table, h, ctx.a_cones[side], None, d["x"])
        if ax is None:
            prob.add("V5", h, "diagonalized computation lost by the horizon", d["ev"])
        elif ax.k != k:
            prob.add("V5", h, "computed value drifted from %d to %d" % (k, ax.k), d["ev"])
        elif ax.k == member(ctx.d_entry, d["x"], h):
            prob.add("V5", h, "diagonalized value rejoined D at input %d" % d["x"], d["ev"])


def _check_v7(ctx, p_rows):
    prob = ctx.problems
    if ctx.scenario.construction != "robinson":
        for ev in ctx.cert_events + ctx.refuse_events:
            prob.add("V7", ev.stage, "certification event in a plain-construction trace", ev)
        return
    h = ctx.horizon
    for ev in ctx.cert_events:
        pay = ev.payload
        try:
            j, sigma = parse_int(pay["j"]), pay["sigma"]
            entry, resolved = parse_int(pay["entry"]), parse_int(pay["resolved"])
        except (KeyError, ValueError):
            prob.add("V7", ev.stage, "malformed certification record", ev)
            continue
        if not 0 <= entry <= resolved <= h:
            prob.add("V7", ev.stage, "resolution outside the scan window", ev)
            continue
        missing, birth, death = ctx.c_cones.lifetime(sigma)
        if missing or birth > entry or (death is not None and death <= resolved):
            prob.add("V7", ev.stage, "C leaves the certified cone inside the window", ev)
        row = p_rows.get(j)
        if row is None or row[resolved] != 1:
            prob.add("V7", ev.stage, "p does not answer 1 at resolution", ev)
        elif any(row[u] for u in range(entry, resolved)):
            prob.add("V7", ev.stage, "p answered 1 before the recorded resolution", ev)
    for ev in ctx.refuse_events:
        pay = ev.payload
        sigma = pay.get("sigma", "")
        try:
            entry = parse_int(pay.get("entry", str(ev.stage)))
            j = parse_int(pay.get("j", "-1"))
        except ValueError:
            prob.add("V7", ev.stage, "malformed refusal record", ev)
            continue
        result = pay.get("result")
        row = p_rows.get(j)
        if result == "refused":
            try:
                resolved = parse_int(pay["resolved"])
            except (KeyError, ValueError):
                prob.add("V7", ev.stage, "refusal without a resolution stage", ev)
                continue
            if ctx.c_cones.holds(sigma, resolved):
                prob.add("V7", ev.stage, "refusal without a cone-exit witness", ev)
            if "memo" not in pay and row is not None:
                if any(row[u] for u in range(max(0, entry), min(resolved, h + 1))):
                    prob.add("V7", ev.stage, "refusal despite an earlier p hit", ev)
        elif result == "pending":
            missing, birth, death = ctx.c_cones.lifetime(sigma)
            if missing or birth > entry or (death is not None and death <= h):
                prob.add("V7", ev.stage, "pending scan despite a cone exit", ev)
            elif row is not None and any(row[u] for u in range(max(0, entry), h + 1)):
                prob.add("V7", ev.stage, "pending scan despite a p hit", ev)
        else:
            prob.add("V7", ev.stage, "unknown refusal result %r" % (result,), ev)


def _check_v8_v10(ctx, p_rows):
    """The p contract and the change-set coding of the p rows.

    V10 fails exactly when ApproxTable rejects the rows: a row breaks
    V8's start or budget rule, or a guessing-set index is not a natural
    (the enumerate handler already fails V2 on such a line and keeps it
    out of the rows).  Once the table is accepted, every row starts at 0
    and changes at most q < bound <= d times, restrict counts the codes
    pair(x, i) with i < d, and pair is injective, so the decode below
    any n equals the limit; one decode at n = top suffices, and the
    equivalence itself is omegace's property test.
    """
    prob = ctx.problems
    sc = ctx.scenario
    if sc.construction != "robinson":
        return True
    h = ctx.horizon
    settled = ctx.pending_count == 0
    for j, row in sorted(p_rows.items()):
        q = sc.q_overrides.get(j, sc.q_default)
        flips = changes(row)
        if row[0] != 0:
            prob.add("V8", 0, "p(%d, 0) is %d, not 0" % (j, row[0]))
        if flips > q:
            prob.add("V8", h, "p row %d changes its mind %d times, budget %d" % (j, flips, q))
        if row[h] != cone_truth(ctx.w_sets[j], ctx.c_cones, h):
            settled = False
    rows = {j: tuple(row) for j, row in p_rows.items()}
    bounds = {j: sc.q_overrides.get(j, sc.q_default) + 1 for j in p_rows}
    try:
        tab = ApproxTable(h, rows, bounds)
    except ValueError as err:
        prob.add("V10", h, "p rows are no bounded approximation: %s" % err)
        return settled
    top = min(h, (max(p_rows) + 2) if p_rows else 1)
    want = {x for x in range(top) if limit_eval(tab, x) == 1}
    got = restrict(tab, top)
    if got != want:
        prob.add(
            "V10", h, "restriction below %d decodes to %s, limit is %s"
            % (top, sorted(got), sorted(want))
        )
    return settled


def _check_v9(ctx, settled):
    prob = ctx.problems
    sc = ctx.scenario
    if sc.construction != "robinson" or not settled:
        return
    h = ctx.horizon
    c_stages = sorted(set(ctx.c_cones.entry.values()))
    for d in ctx.definitions:
        side, e = d["req"]
        table = sc.functionals.get(d["req"])
        if table is None:
            prob.add("V9", d["stage"], "definition by an unknown functional", d["ev"])
            continue
        end = ctx.cancelled_after(side, e, d["stage"])
        end = h + 1 if end is None else end
        marks = {d["stage"]}
        marks.update(t for t in ctx.a_entry[side].values() if d["stage"] < t < end)
        marks.update(t for t in c_stages if d["stage"] < t < end)
        for t in sorted(marks):
            if not ctx.c_cones.holds(d["sigma"], t):
                continue
            ax = applicable_axiom(table, t, ctx.a_cones[side], ctx.c_cones, d["x"])
            if ax is None:
                prob.add(
                    "V9", t,
                    "live local value at input %d with no global computation" % d["x"],
                    d["ev"],
                )
                break
            if ax.k != d["k"]:
                prob.add(
                    "V9", t,
                    "local value %d against global value %d at input %d"
                    % (d["k"], ax.k, d["x"]),
                    d["ev"],
                )
                break


def verify(scenario, events, final=None) -> dict:
    """Check a finished run; returns {"checks", "flags", "diagnostics"}."""
    ctx = _replay(scenario, events)
    policy = build_policy(scenario, ctx.c_cones) if scenario.construction == "robinson" else None
    p_rows = {j: policy.row(j, strings, ctx.horizon) for j, strings in ctx.w_sets.items()}
    _check_v5(ctx)
    _check_v7(ctx, p_rows)
    settled = _check_v8_v10(ctx, p_rows)
    _check_v9(ctx, settled)

    skipped = {}
    if scenario.construction == "robinson":
        if not ctx.diags:
            skipped["V5"] = "no diagonalization in this construction"
        if not settled:
            skipped["V9"] = "run is unsettled"
    else:
        if not ctx.injuries:
            skipped["V6"] = "no certified state to injure in this construction"
        if not ctx.cert_events and not ctx.refuse_events:
            skipped["V7"] = "no certification in this construction"
        if not ctx.w_sets:
            skipped["V8"] = "no guessing sets in this construction"
            skipped["V10"] = "no p rows in this construction"
        if not ctx.definitions:
            skipped["V9"] = "no oracle-relative definitions in this construction"

    checks = {}
    for name, title in CHECKS:
        if ctx.problems.failed(name):
            checks[name] = {
                "title": title,
                "status": "fail",
                "failures": ctx.problems.counts[name],
                "witnesses": ctx.problems.by_check[name],
            }
        elif name in skipped:
            checks[name] = {"title": title, "status": "skipped", "reason": skipped[name]}
        else:
            checks[name] = {"title": title, "status": "pass"}

    flags = {
        "status": "settled" if settled else "unsettled",
        "p_contract_violated": ctx.problems.failed("V8"),
    }
    diagnostics = {
        "max_restraint": _by_label(ctx.max_restraint),
        "last_initialized": _by_label(ctx.last_initialized),
        "injuries_per_block": _by_label(ctx.injuries_per_block),
        "action_counts": _by_label(ctx.action_counts),
        "assignment_p": ctx.assignments[0].snapshot_values(ctx.horizon),
        "assignment_q": ctx.assignments[1].snapshot_values(ctx.horizon),
        "last_assignment_change": {"P": ctx.last_change[0], "Q": ctx.last_change[1]},
        "pending_scans": ctx.pending_count,
        "guessing_sets": len(ctx.w_sets),
        "events": len(events),
    }
    if final is not None:
        diagnostics["reported_flags"] = {
            "unsettled": bool(final.get("unsettled")),
            "pending_scans": final.get("pending_scans"),
        }
    return {"checks": checks, "flags": flags, "diagnostics": diagnostics}


def _by_label(per_block: dict) -> dict:
    """A per-block map keyed by label strings, in label order."""
    return dict(sorted((block_label(*blk), v) for blk, v in per_block.items()))


def passed(report: dict) -> bool:
    """True iff no non-skipped check failed."""
    return all(c["status"] != "fail" for c in report["checks"].values())
