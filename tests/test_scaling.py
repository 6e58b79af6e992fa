"""Work against events at H, 2H and 4H: a deterministic gate on growth.

Cost should grow with the events of a run, not with horizon times
requirements.  Wall time is too noisy to show that, so this module
counts work through conftest.count_calls, on three families at H, 2H
and 4H:

  * dense: conftest.dense_sacks_doc at H = 208, 416, 832 (Sacks block
    dispatch over H/4 owners, a B arrival at every odd stage);
  * churn: the benchmark's oracle_churn_doc(2026, H) at H = 40, 80, 160
    (Robinson certification and injury);
  * quiet: conftest.quiet_tail_docs at H = 500, 1000, 2000, whose
    events all fall in their first 12 stages.

Every counter counts over the run, except close (verify._close_stage),
verify steps and verify holds, which count over verify of the run's
trace.  Block-state work is the
restraint-stack entries popped, the restraints an initialization
clears, and the victims it hands back.  A linear counter's count per
event may rise by at most GROWTH per doubling.  On the quiet runs every
count is the same at every horizon.  The corpus slice keeps its bound at
the one size the corpus has, since corpus horizons are drawn, not set.

Counts per event at H/2H/4H when the gate was set, since wakes stop at
an owner's reach (an axiom's appearance, Robinson's deferral end and a
D entry wake a sleeping owner only at an input it can read), and since
every owner starts asleep and block existence is the kernel's rule,
applied lazily:

                                  gate set           reach wakes        start asleep
  dense  PriorityAssignment.members 0.751/0.766/0.772  0.344/0.339/0.340  0.229/0.222/0.222
         PriorityAssignment.value   0.493/0.484/0.481  0.240/0.222/0.218  0.289/0.265/0.261
         BlockState.orders_of calls 0.218/0.215/0.214  0.091/0.085/0.083  0.060/0.054/0.053
         owners orders_of maps      -                  1.069/1.841/3.381  0.173/0.170/0.170
         BlockState.add             -                  0.344/0.339/0.340  0.173/0.170/0.171
         Sacks run_requirement      0.693/0.713/0.720  0.287/0.286/0.287  0.171/0.169/0.169
         verify._close_stage        0.238/0.238/0.237  0.238/0.238/0.237  0.238/0.238/0.237
         block-state work           0.058/0.053/0.053  0.058/0.053/0.053  0.058/0.053/0.053
  churn  Robinson run_requirement   0.075/0.062/0.060  0.075/0.062/0.060  0.073/0.061/0.060
         verify._close_stage        0.029/0.024/0.021  0.029/0.024/0.021  0.029/0.024/0.021

The value calls rose when owners started asleep: each initialization
reads the stop order of the last even stage to bring block existence up
to date, two calls, which is more than part two saves by running at
fewer stages.  Skipping that read once both existence cursors stand
past every owner (193 of 201 catch-ups per dense-sacks benchmark pass,
719 of 1,202 on the corpus, 5 of 13 on churn) brought them to
0.182/0.163/0.159 per event on dense; the dense-sacks pass makes 664
value calls instead of 1,050, the corpus 15,295 instead of 16,733, and
churn 280 instead of 290.

lifetime counts the run's Cones.lifetime calls.  It joined the churn
gate when each guessing set became one kernel record (model.GuessingSet)
that reads a string's lifetime once, at its enumeration, instead of at
every cone-truth question and every scan's p windows.  Per event at
H = 40/80/160/320:

                            per string per scan       one record per set        selection windows
  churn  Cones.lifetime     0.820/0.921/1.050/1.402   0.570/0.563/0.558/0.556   0.377/0.374/0.371/0.370

Since the selection record (model.selection), a guessing set reads each
string's window (Cones.window) instead of its lifetime, and so does the
record, once per axiom of an input at its first question: window
counts the run's Cones.window calls, 0.595/0.543/0.509/0.494 per event.

verify steps counts the verifier's evaluations of the kernel's
requirement steps (model.sacks_step and model.robinson_step, called
from verify): one per Sacks step and one per Robinson scan line.  They
joined both gates with the replay of each step.  Dense makes 2 at every
horizon (one owner expands once and diagonalizes once, 0.004/0.002/0.001
per event), churn 0.193/0.189/0.187 per event.

holds counts Cones.holds calls in the run and verify holds those in
verify of its trace.  They joined the churn gate with the selection
record, which asks A's cone for an axiom only inside its C window;
before it every selection asked A and then C about every appeared axiom
of the input, and V9 asked C at every A or C entry stage of a
definition's life.  Per event at H = 40/80/160/320:

                            per appeared axiom         selection windows
  churn  holds (run)        3.421/5.727/10.195/19.185  0.335/0.338/0.334/0.334
         verify holds       2.843/4.283/6.734/12.229   0.436/0.410/0.386/0.380

One counter grows faster than events.  It is recorded here and not
asserted.  A counter joins the gate in the change that makes it linear,
never with a looser bound: churn trace bytes per event, 64/74/93/131/205
at H = 40, 80, 160, 320, 640 (the input is quadratic: every sigma spans
H/4 places).
"""

from bisect import bisect_left

import pytest

from splitsim import verify as verify_mod
from splitsim.harness import run
from splitsim.model import BlockState, Cones, PriorityAssignment, priority_order
from splitsim.robinson import RobinsonStrategy
from splitsim.sacks import SacksStrategy
from splitsim.scenario import load_scenario
from splitsim.verify import passed, verify

from conftest import bench_module, count_calls, dense_sacks_doc, quiet_tail_docs

GROWTH = 1.10

CALLS = {
    "members": (PriorityAssignment, "members"),
    "value": (PriorityAssignment, "value"),
    "orders_of": (BlockState, "orders_of"),
    "add": (BlockState, "add"),
    "sacks visits": (SacksStrategy, "run_requirement"),
    "robinson visits": (RobinsonStrategy, "run_requirement"),
    "lifetime": (Cones, "lifetime"),
    "window": (Cones, "window"),
    "holds": (Cones, "holds"),
}

LINEAR = {
    "dense": (
        "members", "value", "orders_of", "owners mapped", "add",
        "sacks visits", "close", "block-state work", "verify steps",
    ),
    "churn": (
        "robinson visits", "close", "verify steps", "lifetime", "window", "holds", "verify holds",
    ),
}

QUIET = (500, 1000, 2000)


def _measure(docs):
    """Per document: its events and every counter's count."""
    with pytest.MonkeyPatch.context() as mp:
        calls = {name: count_calls(mp, *target) for name, target in CALLS.items()}
        mapped = count_calls(mp, BlockState, "orders_of", before=lambda state, owners: len(owners))
        work = [
            count_calls(
                mp, BlockState, "_pop",
                before=lambda state, order: len(state._stack_orders)
                - bisect_left(state._stack_orders, order),
            ),
            count_calls(
                mp, BlockState, "initialize",
                before=lambda state, side, i: len(state._live)
                - bisect_left(state._live, priority_order(side, i)),
            ),
            count_calls(mp, BlockState, "existing_from", after=lambda victims, *args: len(victims)),
        ]
        closes = count_calls(mp, verify_mod, "_close_stage")
        steps = [count_calls(mp, verify_mod, name) for name in ("sacks_step", "robinson_step")]
        rows = []
        for doc in docs:
            for entries in [*calls.values(), mapped, *work, closes, *steps]:
                entries.clear()
            sc = load_scenario(doc)
            events, final = run(sc)
            row = {name: len(entries) for name, entries in calls.items()}
            row["owners mapped"] = sum(mapped)
            row["block-state work"] = sum(map(sum, work))
            assert passed(verify(sc, events, final))
            row["verify holds"] = len(calls["holds"]) - row["holds"]
            row["close"] = len(closes)
            row["verify steps"] = sum(map(len, steps))
            row["events"] = events
            rows.append(row)
    return rows


@pytest.fixture(scope="module")
def dense():
    return _measure([dense_sacks_doc(h) for h in (208, 416, 832)])


@pytest.fixture(scope="module")
def churn():
    oracle_churn_doc = bench_module("workloads").oracle_churn_doc
    return _measure([oracle_churn_doc(2026, h) for h in (40, 80, 160)])


@pytest.mark.parametrize(
    "family, counter", [(family, c) for family, counters in LINEAR.items() for c in counters]
)
def test_work_per_event_is_linear(family, counter, request):
    rows = request.getfixturevalue(family)
    ratios = [row[counter] / len(row["events"]) for row in rows]
    assert ratios[0] > 0, ratios
    for small, large in zip(ratios, ratios[1:]):
        assert large <= GROWTH * small, ratios


def test_dense_sacks_dispatch_visits_only_awake_owners(dense):
    """Part two runs a Sacks owner only after one of its inputs changed.
    Visiting every owner up to the stop order on every even stage costs
    about 11 visits per event here.  Waking an owner for an axiom or a
    D entry at any input made 0.693 per event, waking it only at inputs
    up to its reach 0.287, and starting every owner asleep, so that no
    owner runs before a wake rule calls it, makes 0.171."""
    row = dense[0]
    assert any(ev.kind == "diagonalize" for ev in row["events"])
    assert row["sacks visits"] <= 0.18 * len(row["events"]), row


def test_dense_block_state_work_is_bounded_per_event(dense):
    """Routing and initialization cost their output, not every block.
    An update only rewrites its prefix.  Before the kernel's block
    state, this run's routes scanned every existing block (81,068
    visits) and its initializations sorted every existing block
    (19,344), over 1,765 events.  With the block state it is 93: no
    stack pops (the run sets one restraint, and a route is a bisection
    of the stack) and 93 victims (one per initialize line)."""
    row = dense[2]
    events = row["events"]
    assert len(events) == 1765
    assert {"route", "initialize", "restraint-set"} <= {ev.kind for ev in events}
    assert row["block-state work"] <= len(events), row["block-state work"]


def test_corpus_slice_robinson_dispatch_visits_only_awake_owners(corpus, monkeypatch):
    """Part two runs a Robinson owner only while it may do something.
    Over the first 100 robinson documents of the corpus, running every
    owner up to the stop order on every even stage made about 1.6
    visits per event; waking an owner for an axiom, a deferral end or a
    D entry at any input made 0.417, waking it only at inputs up to its
    reach 0.196, and starting every owner asleep makes 0.169."""
    docs = [row["doc"] for row in corpus["rows"] if row["construction"] == "robinson"][:100]
    visits = count_calls(monkeypatch, RobinsonStrategy, "run_requirement")
    events = sum(len(run(load_scenario(doc))[0]) for doc in docs)
    assert len(visits) <= 0.18 * events, (len(visits), events)


@pytest.mark.parametrize("which", [0, 1], ids=["sacks", "robinson"])
def test_quiet_stages_cost_nothing(which):
    """A longer horizon adds only quiet stages: no owner mapped to its
    block, no assignment read, no visit, no block-state work and no
    close.  Each quiet stage adds its one trace line."""
    rows = _measure([quiet_tail_docs(h)[which] for h in QUIET])
    events = [row.pop("events") for row in rows]
    for run_events in events:
        busy = {ev.stage for ev in run_events if ev.payload != {"side": "none"}}
        assert max(busy) <= 12, busy
    assert [len(e) - h for e, h in zip(events, QUIET)] == [len(events[0]) - QUIET[0]] * 3
    assert rows[0]["value"] > 0 and rows[0]["close"] > 0, rows[0]
    assert rows == rows[:1] * 3, rows
