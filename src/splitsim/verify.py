"""Trace verification: recompute every run invariant from public data.

The verifier consumes a scenario plus the event list of a finished run
and replays everything it can recompute purely: routing decisions,
restraint windows, assignment updates, certification scans, and the p
contract, whose change-set coding follows from it by a lemma.  It never
consults engine or strategy internals, only the trusted kernel (model,
omegace, trace), so a failure always indicts the trace, not the
bookkeeping that produced it.  The kernel gives the engine's rules too:
the label grammar (parse_label), the block state (BlockState, replayed
from the restraint-set, initialize and assignment-update lines: routing
is its restraint stack, an initialization clears its block and every
weaker one, and block membership is read off its assignments by
bisection over the scenario's table owners), the cone oracle (Cones:
over C's schedule from set-up, over each half's final map once the
replay ends, so V5, V7 and V9 look their past-stage cone questions up),
the selection record (selection: one per table, over that C oracle for a
binary one, which the step replay, V5 and V9 select through; V9 asks it
only at the marks inside the window of the definition's sigma), the
guessing sets (GuessingSet: the replay adds each W enumeration line to
its set's record and asks it for the cone truth), p's spans per guessing
set (built once per verify, V7 scans them and V8 reads them), and the
certification scan (scan).  Payload integers are read with the trace
grammar's parse_int, so a non-canonical one is a malformed payload.
Block state is keyed by (side, index), as in the engine; a restraint-set
or initialize line whose block label does not parse fails V2 on that
line.

A restraint is the stage that sets it: a restraint-set line whose value
is not its stage, or with no same-stage act line naming its block,
fails V4, and the replay sets the stage (never below its clock), so the
restraints it replays only grow, as the block state needs.  Conversely
an act that restrains (any but a diagonalization) fails V4 unless its
block's replayed restraint is the stage when the stage closes.  An
assignment update fails V3 if it raises some index, which on a valid
map shows at the first index past the tail or where value(e) - e falls
below the new map's (PriorityAssignment.first_rise); the kernel's
update then keeps the map valid by applying a target of value(tail) or
one above it.  The kernel's GuessingIndices replays each input's one
record, keyed by the scan lines' req and x texts: index issuance,
refusals, local definitions and cancellations.  V7: a scan line must
name the index its input holds (a fresh one, the next issued, on its
first scan and on its first after a cancellation of its requirement),
and memo=1 marks exactly a refusal of a sigma the input had refused
since its index was issued.  V6: an initialize line cancels its block's
requirements, and the inputs whose index that drops must be, one for
one, the stage's injury lines, each with cause=initialized.

The replay keeps each requirement's state since its last cancellation,
read off its lines: a plain requirement's prefix of local values and
whether it diagonalized, and an oracle requirement's definitions, held
in its inputs' records, whose value is live while C stays in sigma's
cone (the kernel's live).  The lines one requirement writes at one
stage (expansionary, diagonalize, define-local, act; certify,
refuse-certify, define-local, act) form its step, recorded with the
state it starts from.  Once the replay ends, over the final
maps, the kernel's step functions recompute each step (model.sacks_step
for the plain construction, model.robinson_step per scan line for the
oracle one), and its lines must be exactly what the step gives: the
exit, the agreement length, each defined input with its k and sigma,
the selected axiom's k, theta and sigma, a certify line's define-local
repeating it, and each act's via and the requirement's replayed block.
The first line that differs fails V5 (plain) or V7 (oracle), with the
recomputed line or exit in its witness.  Which owner ought to run at a
stage is not replayed.

A stage of the replay is the run of lines between two stage boundaries,
the points where a line's stage rises above the last.  One _StageState
record holds everything a same-stage rule reads, and _close_stage
settles those rules when the replay leaves the stage: V4 (each route
has its enumeration, each deflection and each arrival under a live
restraint initializes its block, each restraint has an act of its
block and each restraining act its restraint), V6 (the injuries are
the dropped indices) and V11 (exactly one update; side=none only
without an initialization; a targeted update names the strongest
initiator of the stage's lines before it, since the engine updates
after its initializations).  A quiet stage, whose one line is its
side=none update, breaks none of them, so the replay does not close it
when the next stage follows at once; the last stage replayed, and a
stage before a gap, are always closed.  A stage the replay jumps over,
or one after the last line up to the horizon, has no lines and fails
V11 with 0 updates.  A line whose stage goes backwards fails V2 and is
settled with the stage being replayed, as the restraint replay uses
max(stage, clock).

Checks:
  V1  partition                     A0 and A1 split B exactly, stage by stage.
  V2  monotone-enumerations         line grammar, stage order, c.e. discipline.
  V3  assignment-monotone           block assignments only ever move down.
  V4  restraint-integrity           restraints are stages set by acts; routing
                                    and arrivals respect live restraints.
  V5  diagonalization-persistence   each plain step is model.sacks_step's; diagonalized
                                    disagreements survive to the horizon.
  V6  injury-discipline             injuries are the indices the stage's initializations drop.
  V7  certification-soundness       each scan line is model.scan from its stage; each
                                    oracle step is model.robinson_step's.
  V8  p-contract                    p starts at 0, stays within its change budget.
  V9  local-global-coherence        live local values track the watched functional.
  V10 change-coding-equivalence     coded p rows decode back to their limits:
                                    V8's verdict, by the lemma of _check_v8_v10.
  V11 assignment-update-rule        one update per stage, naming the true tail and
                                    the strongest initiator, or none without one.

A report is a plain dict: {"checks", "flags", "diagnostics"}.  Failing
checks carry minimal witnesses (stage plus the offending trace lines).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial

from .model import (
    SIDE_LABEL,
    BlockState,
    Cones,
    GuessingIndices,
    GuessingSet,
    block_label,
    build_policy,
    member,
    order_block,
    p_changes,
    parse_label,
    priority_order,
    robinson_step,
    sacks_step,
    scan,
    selection,
)
from .omegace import restrict  # unused here: bench/spans.py wraps verify.restrict
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
    """One stage of the replay: everything its same-stage rules read.

    The handlers fill it from the stage's lines, and _close_stage
    settles it when the replay leaves the stage.
    """

    def __init__(self):
        self.updates = 0          # assignment-update lines
        self.none_updates = 0     # of them, the side=none ones
        self.targets = []         # (update line, target, strongest initiator before it)
        self.inits = set()        # blocks initialized
        self.initiator = None     # the strongest initiator, as the engine keeps it
        self.acts = set()         # block labels of the act lines
        self.restraining = []     # act lines that restrain: all but diagonalizations
        self.restraints = []      # restraint-set lines
        self.restrained = {}      # block label -> block, of the restraint-set lines
        self.routes = []          # (event, x, destination) awaiting enumeration
        self.expected_inits = []  # (target block, route event) from deflections
        self.violations = []      # (block, arrival event) to be forgiven
        self.injuries = []        # injury events
        self.dropped = []         # (req, x) texts whose index an initialization cancelled


class _Step:
    """The lines one requirement wrote at one stage, each as (line, input,
    live value; both None but on a scan line), and the replayed state its
    step starts from: its prefix of values, whether it had diagonalized,
    and its block's index."""

    __slots__ = ("req", "stage", "values", "diagonalized", "block", "lines")

    def __init__(self, ctx, req, s):
        side, e = req
        self.req = req
        self.stage = s
        prefix = ctx.values.get(req)
        self.values = [] if prefix is None else [k for k, _ in prefix]
        self.diagonalized = req in ctx.diagonalized
        self.block = ctx.assignments[side].value(e)
        self.lines = []


class _Context:
    """Everything the post-replay checks need, gathered in one pass."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.horizon = scenario.horizon
        self.problems = _Problems()
        self.b_entry = scenario.b_schedule.entry_stage()
        self.c_cones = Cones(scenario.c_schedule.entry_stage())
        self.selections = {}  # owner -> its selection record, see selection_of
        self.d_entry = scenario.d_schedule.entry_stage()
        self.a_entry = ({}, {})  # element -> entry stage, per half
        self.a_cones = None  # per half, over the final a_entry once the replay ends
        self.clock = 0  # the latest stage replayed so far
        self.blocks = BlockState(scenario.functionals)
        self.assignments = self.blocks.assignments
        self.max_restraint = {}
        self.last_initialized = {}
        self.last_change = [-1, -1]
        self.w_sets = {}  # j -> GuessingSet W_j
        self.w_seen = {}  # (j, sigma) -> stage of its first enumeration
        self.scans = []  # (line, index its input holds, memo due), in trace order
        self.indices = GuessingIndices()  # keyed by the scan lines' req and x texts
        self.pending_count = 0
        # Per plain requirement since its last cancellation: its prefix
        # of (value, definition line) and whether it diagonalized.
        self.values = {}
        self.diagonalized = set()
        self.steps = {}  # (stage, req text) -> _Step (None: no label), in trace order
        self.selected = set()  # (requirement, x, stage, k) of definitions the steps justified
        self.diags = []
        self.definitions = []
        self.cancels = {}
        self.injuries = []
        self.injuries_per_block = {}
        self.action_counts = {}

    def selection_of(self, req):
        """The selection record of req's table over this context's C cones
        (none for a unary table), built at its first use: most owners of
        a trace never need one.  req must own a table."""
        select = self.selections.get(req)
        if select is None:
            table = self.scenario.functionals[req]
            select = selection(table, self.c_cones if table.binary else None)
            self.selections[req] = select
        return select

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
    lines = 0  # lines replayed at stage last_stage

    for ev in events:
        s = ev.stage
        if s < last_stage:
            prob.add("V2", s, "stage goes backwards (after %d)" % last_stage, ev)
        if s < 0 or s > ctx.horizon:
            prob.add("V2", s, "stage outside 0..%d" % ctx.horizon, ev)
            continue
        if s > last_stage:
            if lines == pend.none_updates == 1 and s == last_stage + 1:
                # A quiet stage, its one line the side=none update, breaks
                # no same-stage rule; only a gap after it needs the close.
                pend.updates = pend.none_updates = 0
            else:
                pend = _leave_stage(ctx, pend, last_stage, s)
            lines = 0
            last_stage = ctx.clock = s
        lines += 1
        parity, handler = _HANDLERS.get(ev.kind, (None, None))
        if parity is not None and s % 2 != parity:
            prob.add("V2", s, "%s event at an %s stage" % (ev.kind, _PARITY_WORD[s % 2]), ev)
        if handler is None:
            continue
        try:
            handler(ctx, ev, s, pend)
        except (KeyError, ValueError):
            prob.add("V2", s, "malformed %s payload" % ev.kind, ev)
    _leave_stage(ctx, pend, last_stage, ctx.horizon + 1)

    for x, t in sorted(ctx.b_entry.items()):
        if x not in ctx.a_entry[0] and x not in ctx.a_entry[1]:
            prob.add("V1", t, "arrival %d at stage %d was never routed" % (x, t))
    ctx.a_cones = (Cones(ctx.a_entry[0]), Cones(ctx.a_entry[1]))
    return ctx


def _leave_stage(ctx, pend, s, to) -> _StageState:
    """Close stage s and fail V11 at each stage strictly between s and
    `to`, which has no lines, so no update; returns the record of `to`."""
    _close_stage(ctx, pend, s)
    for t in range(s + 1, to):
        ctx.problems.add("V11", t, "stage has 0 assignment updates instead of one")
    return _StageState()


def _close_stage(ctx, pend, s):
    """Settle the same-stage rules of stage s: V4, V6 and V11."""
    prob = ctx.problems
    inits = pend.inits
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
    for ev in pend.restraints:
        if ev.payload["block"] not in pend.acts:
            prob.add(
                "V4", s, "restraint set with no act of %s this stage" % ev.payload["block"], ev
            )
    for ev in pend.restraining:
        label = ev.payload.get("block", "")
        held = ctx.blocks.restraint.get(pend.restrained.get(label) or parse_label(label), -1)
        if held != s:
            note = "act leaves the restraint of %s at %d, not the stage" % (label, held)
            prob.add("V4", s, note, ev)
    for ev in pend.injuries:
        key = ev.payload.get("req"), ev.payload.get("x")
        matched = key in pend.dropped
        if matched:
            pend.dropped.remove(key)
        if ev.payload.get("cause") != "initialized":
            prob.add("V6", s, "injury without initialization cause", ev)
        elif not matched:
            prob.add("V6", s, "injury to an input that lost no guessing index this stage", ev)
    for req, x in pend.dropped:
        prob.add("V6", s, "%s input %s lost its guessing index with no injury" % (req, x))
    if pend.updates != 1:
        prob.add("V11", s, "stage has %d assignment updates instead of one" % pend.updates)
    if pend.initiator is not None:
        for _ in range(pend.none_updates):
            prob.add("V11", s, "update claims no initialization despite one")
    for ev, target, strongest in pend.targets:
        if strongest is None:
            prob.add("V11", s, "update without any initialization this stage", ev)
        elif target != strongest:
            prob.add(
                "V11", s,
                "update target %s is not the strongest initiator %s"
                % (block_label(*target), block_label(*strongest)),
                ev,
            )


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
        ctx.w_seen.setdefault((j, sigma), s)
        wset = ctx.w_sets.get(j)
        if wset is None:
            wset = ctx.w_sets[j] = GuessingSet(ctx.c_cones)
        if wset.holds(s):
            prob.add("V7", s, "enumeration into W_%d while C already lies in a cone" % j, ev)
        wset.add(s, sigma)
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
    if x in ctx.a_entry[0] or x in ctx.a_entry[1]:
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
    ctx.a_entry[side][x] = s
    for order in ctx.blocks.threatened(x):
        if order % 2 == side:
            pend.violations.append((order_block(order), ev))


def _on_route(ctx, ev, s, pend):
    prob = ctx.problems
    pay = ev.payload
    x = parse_int(pay["x"])
    to = pay["to"]
    threatened, half, init = ctx.blocks.route(x)
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
    if value != s:
        ctx.problems.add("V4", s, "restraint value %d, expected the stage %d" % (value, s), ev)
    # The replay goes on with the stage, never below its clock, so the
    # restraints it sets only grow, as the block state requires.
    stage = max(s, ctx.clock)
    ctx.blocks.set_restraint(*blk, stage)
    ctx.max_restraint[blk] = max(ctx.max_restraint.get(blk, -1), stage)
    pend.restraints.append(ev)
    pend.restrained[pay["block"]] = blk


def _on_initialize(ctx, ev, s, pend):
    pay = ev.payload
    blk = parse_label(pay["block"])
    initiator = parse_label(pay.get("initiator", pay["block"]))
    if blk is None or initiator is None:
        ctx.problems.add("V2", s, "initialization names no block", ev)
        return
    side, i = blk
    ctx.blocks.initialize(side, i)
    ctx.last_initialized[blk] = s
    pend.inits.add(blk)
    if pend.initiator is None or priority_order(*initiator) < priority_order(*pend.initiator):
        pend.initiator = initiator
    for key in {(side, e) for e in ctx.assignments[side].members(i)}:
        ctx.cancels.setdefault(key, []).append(s)
        ctx.values.pop(key, None)
        ctx.diagonalized.discard(key)
        req = block_label(*key)
        pend.dropped.extend((req, x) for x in ctx.indices.cancel(req))


# What each step line is called in a witness.
_WHAT = {
    "act": "act",
    "certify": "certification",
    "define-local": "definition",
    "diagonalize": "diagonalization",
    "expansionary": "expansionary event",
    "refuse-certify": "refusal",
}


def _step(ctx, ev, s) -> _Step | None:
    """The step record of the line's requirement at stage s, opened at its
    first line there; None, failing V2, if the line names no requirement.
    Labels parse one to one, so the record is keyed by the label's text."""
    key = (s, ev.payload["req"])
    step = ctx.steps.get(key, ctx)
    if step is ctx:
        req = parse_label(key[1])
        step = ctx.steps[key] = None if req is None else _Step(ctx, req, s)
    if step is None:
        ctx.problems.add("V2", s, "%s names no requirement" % _WHAT[ev.kind], ev)
    return step


def _on_define_local(ctx, ev, s, pend):
    step = _step(ctx, ev, s)
    if step is None:
        return
    step.lines.append((ev, None, None))
    pay = ev.payload
    x = parse_int(pay["x"])
    k = parse_int(pay["k"])
    if ctx.scenario.construction == "robinson":
        ctx.definitions.append(
            {"req": step.req, "x": x, "k": k, "theta": pay["theta"],
             "sigma": pay["sigma"], "stage": s, "ev": ev}
        )
        ctx.indices.define(pay["req"], pay["x"], k, ctx.c_cones.lifetime(pay["sigma"])[2])
        return
    values = ctx.values.setdefault(step.req, [])
    if x == len(values):
        values.append((k, ev))


def _on_sacks_exit(ctx, ev, s, pend):
    """An expansionary or diagonalize line, which only the plain construction writes."""
    if ctx.scenario.construction != "sacks":
        ctx.problems.add("V5", s, "%s in an oracle-construction trace" % _WHAT[ev.kind], ev)
        return
    step = _step(ctx, ev, s)
    if step is None:
        return
    step.lines.append((ev, None, None))
    if ev.kind == "diagonalize":
        ctx.diagonalized.add(step.req)
        ctx.diags.append({"req": step.req, "x": parse_int(ev.payload["x"]), "stage": s, "ev": ev})


def _on_act(ctx, ev, s, pend):
    pay = ev.payload
    pend.acts.add(pay.get("block"))
    if pay.get("via") != "diagonalize":
        pend.restraining.append(ev)
    step = _step(ctx, ev, s)
    if step is None:
        return
    step.lines.append((ev, None, None))
    ctx.action_counts[step.req] = ctx.action_counts.get(step.req, 0) + 1


def _on_scan(ctx, ev, s, pend):
    """Replay the guessing index and the refusals of the line's input, and
    record the line with the input's live value under its step."""
    pay = ev.payload
    x = parse_int(pay["x"])
    req, text = pay.get("req"), pay["x"]
    j = ctx.indices.held(req, text)
    memo = False
    if ev.kind == "refuse-certify":
        result = pay.get("result")
        if result == "refused":
            memo = ctx.indices.refuse(req, text, pay.get("sigma"))
        elif result == "pending":
            ctx.pending_count += 1
    ctx.scans.append((ev, j, memo))
    if ctx.scenario.construction != "robinson":
        return
    step = _step(ctx, ev, s)
    if step is None:
        return
    step.lines.append((ev, x, ctx.indices.live(req, text, s)))


def _on_injury(ctx, ev, s, pend):
    req = parse_label(ev.payload.get("req", ""))
    if req is not None:
        blk = req[0], ctx.assignments[req[0]].value(req[1])
        ctx.injuries_per_block[blk] = ctx.injuries_per_block.get(blk, 0) + 1
    pend.injuries.append(ev)
    ctx.injuries.append(ev)


def _on_assignment_update(ctx, ev, s, pend):
    pend.updates += 1
    pay = ev.payload
    side_label = pay["side"]
    if side_label == "none":
        pend.none_updates += 1
        return
    prob = ctx.problems
    side = SIDE_LABEL.index(side_label)
    i = parse_int(pay["i"])
    m = parse_int(pay["tail"])
    pend.targets.append((ev, (side, i), pend.initiator))
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
    rise = assign.first_rise(s, i, m)
    if rise is not None:
        prob.add("V3", s, "assignment of index %d rose from %d to %d" % rise, ev)
    assign.update(s, i, m)
    ctx.last_change[side] = s


# Kind -> (stage parity it is legitimate at, or None for either; handler).
# Arrivals are routed at odd stages and strategies run at even stages.
_HANDLERS = {
    "enumerate": (None, _on_enumerate),
    "route": (1, _on_route),
    "initialize": (None, _on_initialize),
    "act": (0, _on_act),
    "expansionary": (0, _on_sacks_exit),
    "diagonalize": (0, _on_sacks_exit),
    "certify": (0, _on_scan),
    "refuse-certify": (0, _on_scan),
    "define-local": (0, _on_define_local),
    "restraint-set": (0, _on_restraint_set),
    "assignment-update": (None, _on_assignment_update),
    "injury": (None, _on_injury),
}
_PARITY_WORD = ("even", "odd")


def _persisting_diagonalizations(ctx, fail):
    """The Sacks diagonalizations that must persist to the horizon, as
    (diagonalization, selection record, defined value, definition line).

    One need not persist once its requirement is cancelled after it, nor
    when the computation behind its definition has a use beyond the
    definition stage + 1, which the recorded restraint cannot shield.
    fail(stage, note, line) hears of each one the trace cannot back: no
    surviving definition, no functional, or no computation behind it.
    """
    for d in ctx.diags:
        side, e = d["req"]
        if ctx.cancelled_after(side, e, d["stage"]) is not None:
            continue
        prefix = ctx.values.get(d["req"], ())
        got = prefix[d["x"]] if 0 <= d["x"] < len(prefix) else None
        if got is None:
            fail(d["stage"], "diagonalization without a surviving definition", d["ev"])
            continue
        k, definition = got
        if d["req"] not in ctx.scenario.functionals:
            fail(d["stage"], "diagonalization by an unknown functional", d["ev"])
            continue
        select = ctx.selection_of(d["req"])
        ax_def = select(definition.stage, ctx.a_cones[side], d["x"])
        if ax_def is None:
            fail(definition.stage, "no computation behind the defined value", d["ev"])
        elif ax_def.use <= definition.stage + 1:
            yield d, select, k, definition


def persisting_diagonalizations(scenario, events) -> list:
    """The diagonalizations of a trace that V5 holds to the horizon, as
    (diagonalization, selection record, defined value, definition line),
    from the replay verify makes; those the trace cannot back are left
    out."""
    return list(_persisting_diagonalizations(_replay(scenario, events), lambda *_: None))


def _text(kind, payload) -> str:
    """A line as a witness shows it: its kind, then its payload by key."""
    return " ".join([kind] + ["%s=%s" % (k, payload[k]) for k in sorted(payload)])


def _sacks_problem(ctx, step, select):
    """The first line of a plain requirement's step that is not what
    model.sacks_step gives from its replayed state, as (note, line); None
    if every line is."""
    side, e = step.req
    s = step.stage
    want = sacks_step(select, ctx.a_cones[side], ctx.d_entry, step.values, step.diagonalized, s)
    label = block_label(side, e)
    block = block_label(side, step.block)
    lines = []
    if want.exit == "diagonalize":
        lines.append(("diagonalize", {"req": label, "x": str(want.x)}))
    elif want.exit == "expansionary":
        lines.append(("expansionary", {"block": block, "ell": str(want.x), "req": label}))
        n = len(step.values)
        lines.extend(
            ("define-local", {"k": str(k), "req": label, "sigma": want.sigma, "x": str(n + i)})
            for i, k in enumerate(want.values)
        )
    if lines:
        lines.append(("act", {"block": block, "req": label, "via": want.exit}))
    exit = "none at agreement %d" % want.x if want.exit == "none" else want.exit
    for n, (ev, _, _) in enumerate(step.lines):
        if n == len(lines):
            return "step exits %s, writing %d line(s)" % (exit, n), ev
        kind, payload = lines[n]
        if ev.kind != kind or ev.payload != payload:
            return "step exits %s: %s" % (exit, _text(kind, payload)), ev
    if len(step.lines) < len(lines):
        return "step exits %s, also %s" % (exit, _text(*lines[len(step.lines)])), ev
    return None


def _robinson_problem(ctx, step, select):
    """The first line of an oracle requirement's lines at a stage that is
    not what model.robinson_step gives for its input, from the input's
    replayed live value, as (note, line); None if every line is.  A
    certify line is followed by its define-local, which repeats it, and
    an act of the requirement's block.  Each definition so justified is
    the selected axiom at its stage, which ctx.selected records for V9."""
    side, e = step.req
    s = step.stage
    label = block_label(side, e)
    act = {"block": block_label(side, step.block), "req": label, "via": "certified"}
    lines = step.lines
    n = 0
    while n < len(lines):
        ev, x, live = lines[n]
        n += 1
        if x is None:
            return "%s without a certify line before it" % _WHAT[ev.kind], ev
        exit, ax = robinson_step(select, ctx.a_cones[side], ctx.d_entry, live, x, s)
        if exit != "scan":
            selects = "" if ax is None else " (selects k=%d at use %d)" % (ax.k, ax.use)
            return "step at input %d exits %s%s, with no scan" % (x, exit, selects), ev
        pay = ev.payload
        if (pay.get("k"), pay.get("sigma"), pay.get("theta")) != (str(ax.k), ax.sigma, ax.theta):
            return (
                "step at input %d selects k=%d sigma=%s theta=%s" % (x, ax.k, ax.sigma, ax.theta),
                ev,
            )
        if ev.kind != "certify":
            continue
        definition = {
            "k": pay["k"], "req": label, "sigma": pay["sigma"], "theta": pay["theta"], "x": pay["x"],
        }
        for kind, payload in (("define-local", definition), ("act", act)):
            if n == len(lines) or lines[n][0].kind != kind or lines[n][0].payload != payload:
                return (
                    "certified input %d: %s" % (x, _text(kind, payload)),
                    lines[min(n, len(lines) - 1)][0],
                )
            n += 1
        ctx.selected.add((step.req, x, s, ax.k))
    return None


def _check_steps(ctx):
    """Each requirement's lines at a stage are what its kernel step gives
    from its replayed state: V5 for the plain construction, V7 for the
    oracle one, with the recomputed line in the witness."""
    sc = ctx.scenario
    check, problem = ("V5", _sacks_problem) if sc.construction == "sacks" else ("V7", _robinson_problem)
    for step in ctx.steps.values():
        if step is None:
            continue
        if step.req not in sc.functionals:
            found = "step of %s, which owns no functional" % block_label(*step.req), step.lines[0][0]
        else:
            found = problem(ctx, step, ctx.selection_of(step.req))
        if found is not None:
            ctx.problems.add(check, step.stage, *found)


def _check_v5(ctx):
    prob = ctx.problems
    if ctx.scenario.construction != "sacks":
        return
    h = ctx.horizon
    for d, select, k, _ in _persisting_diagonalizations(ctx, partial(prob.add, "V5")):
        ax = select(h, ctx.a_cones[d["req"][0]], d["x"])
        if ax is None:
            prob.add("V5", h, "diagonalized computation lost by the horizon", d["ev"])
        elif ax.k != k:
            prob.add("V5", h, "computed value drifted from %d to %d" % (k, ax.k), d["ev"])
        elif ax.k == member(ctx.d_entry, d["x"], h):
            prob.add("V5", h, "diagonalized value rejoined D at input %d" % d["x"], d["ev"])


def _outcome(result, t):
    return result if t is None else "%s at %d" % (result, t)


def _check_v7(ctx, spans):
    """A scan line, memo refusal or not, must start at its own stage inside
    sigma's cone, name the guessing set its input holds, which must be
    enumerated and hold C in one of its cones (the engine enumerates
    sigma unless C already lies in one), claim what model.scan gives over
    that set's p spans, and carry memo=1 exactly when the replay
    expects a memo refusal."""
    prob = ctx.problems
    if ctx.scenario.construction != "robinson":
        for ev, _, _ in ctx.scans:
            prob.add("V7", ev.stage, "certification event in a plain-construction trace", ev)
        return
    for ev, held_j, memo in ctx.scans:
        pay = ev.payload
        certify = ev.kind == "certify"
        try:
            j, entry, sigma = parse_int(pay["j"]), parse_int(pay["entry"]), pay["sigma"]
            resolved = parse_int(pay["resolved"]) if "resolved" in pay else None
            result = "certify" if certify else pay["result"]
        except (KeyError, ValueError):
            record = "certification" if certify else "refusal"
            prob.add("V7", ev.stage, "malformed %s record" % record, ev)
            continue
        if entry != ev.stage:
            prob.add("V7", ev.stage, "scan entry %d is not its stage" % entry, ev)
        elif j != held_j:
            prob.add("V7", ev.stage, "scan names W_%d, its input holds W_%d" % (j, held_j), ev)
        elif j not in spans:
            prob.add("V7", ev.stage, "scan names W_%d, which holds no string" % j, ev)
        elif not ctx.c_cones.holds(sigma, entry):
            prob.add("V7", ev.stage, "C lies outside the scanned cone at entry", ev)
        # sigma itself, if in W_j by entry, is a cone of W_j holding C there.
        elif ctx.w_seen.get((j, sigma), entry + 1) > entry and not ctx.w_sets[j].holds(entry):
            prob.add("V7", ev.stage, "C lies in no cone of W_%d at entry" % j, ev)
        elif not certify and result not in ("refused", "pending"):
            prob.add("V7", ev.stage, "unknown refusal result %r" % (result,), ev)
        else:
            want = scan(spans[j], ctx.c_cones, sigma, entry, ctx.horizon)
            if want != (result, resolved):
                prob.add(
                    "V7", ev.stage,
                    "scan gives %s, line claims %s" % (_outcome(*want), _outcome(result, resolved)),
                    ev,
                )
            elif pay.get("memo") != ("1" if memo else None):
                prob.add(
                    "V7", ev.stage,
                    "memo flag %s, expected %s" % (pay.get("memo", "absent"), "1" if memo else "absent"),
                    ev,
                )


def _check_v8_v10(ctx, spans):
    """The p contract, read off each guessing set's p spans, and its coding.

    Lemma: V10 fails exactly when V8 finds a broken start or budget.
    omegace's ApproxTable over the p rows (length and bits hold by
    construction, the loader gives q >= 1, and a negative index fails V2
    before it enters w_sets) rejects exactly a row that starts at 1 or
    changes its mind more than q times, and once it accepts, restrict
    decodes the limit (omegace's property test).  So V10 gives the one
    witness ApproxTable gives: the first broken set in enumeration
    order, its start tested before its budget.

    The loader guarantees the start bit: it and TablePolicy reject a row
    that starts at 1, and a truthful span opens at stage d >= 1.  So
    the start rule and its V10 witness guard only a policy that breaks
    the contract (tested with a forged one).
    """
    prob = ctx.problems
    sc = ctx.scenario
    if sc.construction != "robinson":
        return True
    h = ctx.horizon
    settled = ctx.pending_count == 0
    broken = {}
    for j, ones in sorted(spans.items()):
        start = bool(ones) and ones[0][0] == 0
        last = bool(ones) and ones[-1][1] == h
        flips, q = p_changes(ones, h), sc.q_overrides.get(j, sc.q_default)
        if start:
            prob.add("V8", 0, "p(%d, 0) is 1, not 0" % j)
            broken[j] = "approximations must start at 0 (argument %d)" % j
        if flips > q:
            prob.add("V8", h, "p row %d changes its mind %d times, budget %d" % (j, flips, q))
            budget = "argument %d changes its mind %d times, bound is %d" % (j, flips, q + 1)
            broken.setdefault(j, budget)
        if last != ctx.w_sets[j].holds(h):
            settled = False
    first = next((j for j in ctx.w_sets if j in broken), None)
    if first is not None:
        prob.add("V10", h, "p rows are no bounded approximation: %s" % broken[first])
    return settled


def _check_v9(ctx, settled):
    prob = ctx.problems
    sc = ctx.scenario
    if sc.construction != "robinson" or not settled:
        return
    h = ctx.horizon
    # Each side's A-entry stages and C's entry stages, sorted, so a
    # definition's marks inside its life and its sigma's window are two
    # slices.
    a_stages = [sorted(set(entry.values())) for entry in ctx.a_entry]
    c_stages = sorted(set(ctx.c_cones.entry.values()))
    for d in ctx.definitions:
        side, e = d["req"]
        if d["req"] not in sc.functionals:
            prob.add("V9", d["stage"], "definition by an unknown functional", d["ev"])
            continue
        select = ctx.selection_of(d["req"])
        end = ctx.cancelled_after(side, e, d["stage"])
        end = h + 1 if end is None else end
        # Only stages at which C lies in sigma's cone count: its window.
        lo, hi = ctx.c_cones.window(d["sigma"])
        first, last = max(d["stage"] + 1, lo), min(end, hi)
        # The step check already found the selected axiom at the stage of
        # a definition it justified, with the definition's value.
        marks = set()
        if (d["req"], d["x"], d["stage"], d["k"]) not in ctx.selected and ctx.c_cones.holds(
            d["sigma"], d["stage"]
        ):
            marks.add(d["stage"])
        for stages in (a_stages[side], c_stages):
            marks.update(stages[bisect_left(stages, first): bisect_left(stages, last)])
        for t in sorted(marks):
            ax = select(t, ctx.a_cones[side], d["x"])
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
    spans = {}  # j -> p's spans for W_j, which V7 and V8 share
    if scenario.construction == "robinson":
        policy = build_policy(scenario)
        spans = {j: policy.spans(j, wset, ctx.horizon) for j, wset in ctx.w_sets.items()}
    _check_v5(ctx)
    _check_v7(ctx, spans)
    settled = _check_v8_v10(ctx, spans)
    _check_steps(ctx)
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
        if not ctx.scans:
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
