"""splitsim benchmark: scenario document -> trace -> independently verified report.

    python3 bench/run.py --workload corpus --seed 2026 --seconds 30 --trace 0

One operation is one scenario taken through both user paths, in order:
the run path of ``splitsim run --trace`` (load_scenario, harness.run,
trace.render, verify with the final state) and the verify path of
``splitsim verify`` (trace.parse of the rendered text, verify).  On
``corpus`` the operation also calls fuzz.generate, as ``splitsim fuzz``
does.  The loop is closed and single-process: one scenario at a time,
no threads.  A pass runs every operation of the workload once; passes
repeat until --seconds have gone by (at least MIN_PASSES).  Every time
is reported in seconds at a reference host speed, measured with a fixed
calibration loop timed between the operations (see REFERENCE_UNIT_S).

Every operation is checked: both reports must pass, the verify-path
report must equal the run-path report without diagnostics.reported_flags,
every pass must give the same trace and report digests and the same
event counts, and at the default seed the digests must equal the pinned
ones.  An operation that raises or fails a check counts in ``failed``
and never as a timing.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics (see spans.py).  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
MODULES = ("fuzz", "scenario", "harness", "trace", "verify", "omegace", "engine", "sacks", "robinson")
SETUP_REPEATS = 15
MIN_PASSES = 3
# The timed steps of one operation, and which of them make up each user path.
STEPS = ("generate", "load", "run", "render", "verify", "parse", "replay")
RUN_PATH = (1, 2, 3, 4)
VERIFY_PATH = (5, 6)
# Host speed.  Other tenants of a shared host slow this process down by
# up to about 1.8x, in spells that last from a fraction of a second to
# minutes, and the slowdown is much the same for any interpreted Python
# code.  So a fixed loop, one calibration unit, is timed between the
# operations of every pass (and around every set-up try), and each time
# the benchmark reports is scaled by REFERENCE_UNIT_S over the mean time
# of the units timed nearest to it: seconds at the reference speed, at
# which one unit takes exactly REFERENCE_UNIT_S.  An operation's time is
# scaled by the units among the operations of its chunk of the pass,
# chunks holding about UNITS_PER_CHUNK units; a layer's total over a pass
# by all the units of the pass.  UNIT_LOOPS is chosen so that a unit
# takes about REFERENCE_UNIT_S on an idle 2-vCPU Intel Xeon host.
REFERENCE_UNIT_S = 0.001
UNIT_LOOPS = 9000
# Units per pass: at least this many, and one per five operations.
MIN_UNITS_PER_PASS = 32
UNITS_PER_CHUNK = 8
SETUP_UNITS = 4
# The tail latency is read at the highest percentile that leaves this many
# operations beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "events_per_s": "events/s",
    "run_path_s": "s",
    "verify_path_s": "s",
    "scenario_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

# splitsim.trace.KINDS, fixed here because each kind names a metric.
EVENT_KINDS = (
    "enumerate", "route", "initialize", "act", "expansionary", "diagonalize", "certify",
    "refuse-certify", "define-local", "restraint-set", "assignment-update", "injury",
)

PER_LAYER_UNITS = {
    **{"%s_s" % name: "s" for name in spans.SPAN_NAMES},
    **{"%s_calls" % name: "count" for name in spans.SPAN_NAMES},
    **{name: "count" for *_, name in spans.COUNTED},
    "robinson.refresh_inputs_scanned": "count",
    "trace.events": "count",
    **{"trace.events.%s" % kind: "count" for kind in EVENT_KINDS},
    "trace.bytes": "bytes",
    "robinson.guessing_sets": "count",
    "verify.pending_scans": "count",
    "engine.dispatch_yield": "ratio",
    "robinson.certify_yield": "ratio",
    "engine.assignment_noop_share": "ratio",
    "bench.trace_overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here, or its results cannot be summarized."""


def import_splitsim(root: Path = ROOT) -> dict:
    """Import splitsim afresh from root/src; returns its layer modules by name."""
    src = root / "src"
    if not (src / "splitsim" / "__init__.py").is_file():
        raise BenchError("no splitsim sources under %s" % src)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "splitsim" or m.startswith("splitsim.")]:
        del sys.modules[name]
    package = importlib.import_module("splitsim")
    if Path(package.__file__).resolve().parent != (src / "splitsim").resolve():
        raise BenchError("splitsim was imported from %s, not from %s" % (package.__file__, src))
    return {name: importlib.import_module("splitsim." + name) for name in MODULES}


def calibration_unit() -> float:
    """Seconds one run of a fixed loop of dict and arithmetic work takes."""
    t0 = time.perf_counter()
    table: dict = {}
    get = table.get
    for i in range(UNIT_LOOPS):
        key = i % 97
        table[key] = get(key, 0) + i
    return time.perf_counter() - t0


def set_up(name: str, seed: int):
    """Import splitsim and build the workload; the median of SETUP_REPEATS tries.

    A first untimed import compiles the bytecode, which users pay once,
    not on every run.  Each try is scaled to the reference speed by the
    calibration units timed right before and after it.
    """
    import_splitsim()
    times = []
    for _ in range(SETUP_REPEATS):
        units = [calibration_unit() for _ in range(SETUP_UNITS)]
        t0 = time.perf_counter()
        api = import_splitsim()
        workload = workloads.build(name, seed)
        elapsed = time.perf_counter() - t0
        units += [calibration_unit() for _ in range(SETUP_UNITS)]
        times.append(elapsed * REFERENCE_UNIT_S / statistics.fmean(units))
    return api, workload, statistics.median(times)


def without_reported_flags(report: dict) -> dict:
    diagnostics = {k: v for k, v in report["diagnostics"].items() if k != "reported_flags"}
    return {**report, "diagnostics": diagnostics}


@dataclass
class PassResult:
    # Per operation: the seconds of each of STEPS, or None if it failed.
    timings: list
    failed: int
    errors: list = field(default_factory=list)
    # Per operation: seconds of the calibration units timed right before it.
    units: list = field(default_factory=list)
    trace_digest: str = ""
    report_digest: str = ""
    counts: dict = field(default_factory=dict)
    # Traced passes only: span name -> (seconds, calls), and call counters.
    layers: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)

    def call_counts(self) -> dict:
        return {**self.calls, **{name: n for name, (_, n) in self.layers.items()}}

    def scale(self) -> float:
        """Factor from this pass's seconds to seconds at the reference speed."""
        return REFERENCE_UNIT_S / statistics.fmean(u for units in self.units for u in units)

    def op_scales(self) -> list[float]:
        """The same factor per operation, from the units of its chunk."""
        n = len(self.units)
        chunk = max(1, n * UNITS_PER_CHUNK // sum(len(units) for units in self.units))
        scales = []
        for start in range(0, n, chunk):
            part = self.units[start:start + chunk]
            scale = REFERENCE_UNIT_S / statistics.fmean(u for units in part for u in units)
            scales += [scale] * len(part)
        return scales


def run_pass(api: dict, workload, tracer=None) -> PassResult:
    fuzz, scenario_mod, harness = api["fuzz"], api["scenario"], api["harness"]
    trace_mod, verify_mod = api["trace"], api["verify"]
    clock = time.perf_counter
    trace_hash = hashlib.sha256()
    report_hash = hashlib.sha256()
    kinds: Counter = Counter()
    counts = Counter()
    result = PassResult(timings=[], failed=0)
    n = len(workload.ops)
    units = max(MIN_UNITS_PER_PASS, n // 5)
    for index, op in enumerate(workload.ops):
        result.units.append(
            [calibration_unit() for _ in range((index + 1) * units // n - index * units // n)])
        if tracer is not None:
            tracer.op = index
        try:
            c0 = clock()
            doc = fuzz.generate(*op.generate) if op.generate else op.doc
            c1 = clock()
            scenario = scenario_mod.load_scenario(doc)
            c2 = clock()
            events, final = harness.run(scenario)
            c3 = clock()
            text = trace_mod.render(events)
            c4 = clock()
            report = verify_mod.verify(scenario, events, final)
            c5 = clock()
            parsed = trace_mod.parse(text)
            c6 = clock()
            replay = verify_mod.verify(scenario, parsed)
            c7 = clock()
        except Exception as err:  # a failed operation is counted, not fatal
            result.timings.append(None)
            result.failed += 1
            result.errors.append("%s: %s: %s" % (op.label, type(err).__name__, err))
            continue
        ok = (
            verify_mod.passed(report)
            and verify_mod.passed(replay)
            and replay == without_reported_flags(report)
        )
        if not ok:
            result.failed += 1
            result.errors.append("%s: report failed or verify path disagrees" % op.label)
        steps = (c1 - c0, c2 - c1, c3 - c2, c4 - c3, c5 - c4, c6 - c5, c7 - c6)
        result.timings.append(steps if ok else None)
        trace_hash.update(text.encode())
        report_hash.update(json.dumps(report, sort_keys=True).encode())
        kinds.update(ev.kind for ev in events)
        counts["assignment_noop"] += sum(
            1 for ev in events if ev.kind == "assignment-update" and ev.payload.get("side") == "none"
        )
        counts["trace.bytes"] += len(text.encode())
        counts["robinson.guessing_sets"] += report["diagnostics"]["guessing_sets"]
        counts["verify.pending_scans"] += report["diagnostics"]["pending_scans"]
    if tracer is not None:
        tracer.op = -1
    result.trace_digest = trace_hash.hexdigest()
    result.report_digest = report_hash.hexdigest()
    counts["trace.events"] = sum(kinds.values())
    for kind in EVENT_KINDS:
        counts["trace.events.%s" % kind] = kinds[kind]
    result.counts = dict(counts)
    return result


def check_passes(workload, passes: list) -> list[str]:
    """Cross-pass checks; a pass that fails one has all its operations failed."""
    problems = []
    first = passes[0]
    first_traced = next((res for res in passes if res.layers), None)
    for number, res in enumerate(passes):
        digests = (res.trace_digest, res.report_digest)
        why = None
        if workload.digests is not None and digests != workload.digests:
            why = "digests %s/%s differ from the pinned %s/%s" % (
                digests[0][:16], digests[1][:16], workload.digests[0][:16], workload.digests[1][:16])
        elif digests != (first.trace_digest, first.report_digest) or res.counts != first.counts:
            why = "output differs from pass 0"
        elif res.layers and res.call_counts() != first_traced.call_counts():
            why = "call counts differ from the first traced pass"
        if why is not None:
            problems.append("pass %d: %s" % (number, why))
            res.failed = len(workload.ops)
            res.timings = [None] * len(workload.ops)
    return problems


def summarize(passes: list) -> dict:
    """Per operation and step, the median time at the reference speed.

    The median is over the passes where the operation succeeded; an
    operation's time is the sum of its steps' medians.
    """
    n = len(passes[0].timings)
    scales = [res.op_scales() for res in passes]
    per_op = []
    for i in range(n):
        samples = [
            [t * op_scales[i] for t in res.timings[i]]
            for res, op_scales in zip(passes, scales)
            if res.timings[i] is not None
        ]
        if samples:
            per_op.append([statistics.median(s[step] for s in samples) for step in range(len(STEPS))])
    totals = sorted(sum(t) for t in per_op)
    return {
        "wall_s": sum(totals),
        "run_path_s": sum(sum(t[step] for step in RUN_PATH) for t in per_op),
        "verify_path_s": sum(sum(t[step] for step in VERIFY_PATH) for t in per_op),
        "totals": totals,
    }


def end_to_end(passes: list, setup_s: float) -> tuple[dict, str]:
    summary = summarize(passes)
    totals = summary["totals"]
    wall = summary["wall_s"]
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "events_per_s": passes[0].counts["trace.events"] / wall,
        "run_path_s": summary["run_path_s"],
        "verify_path_s": summary["verify_path_s"],
        "scenario_ms_p50": 1000 * statistics.median(totals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    note = "%d operations, median of %d passes each; a calibration unit took %.4f ms (median pass), " \
        "reference %.4f ms; raw median pass %.6f s" % (
            len(totals), len(passes), 1000 * statistics.median(REFERENCE_UNIT_S / res.scale() for res in passes),
            1000 * REFERENCE_UNIT_S,
            statistics.median(sum(sum(t) for t in res.timings if t is not None) for res in passes))
    rank = len(totals) - 1 - TAIL_BEYOND
    if rank >= 0:
        note += "; scenario_ms_tail %.6f ms at p%.1f, %d operations beyond it" % (
            1000 * totals[rank], 100 * rank / (len(totals) - 1), TAIL_BEYOND)
    return metrics, note


def per_layer(traced: list, untraced: list, counted: PassResult) -> dict:
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics["%s_s" % name] = statistics.median(res.layers[name][0] * res.scale() for res in traced)
        metrics["%s_calls" % name] = traced[0].layers[name][1]
    counts = traced[0].counts
    for key in PER_LAYER_UNITS:
        if key in counts:
            metrics[key] = counts[key]
    metrics.update(traced[0].calls)
    metrics.update(counted.calls)
    run_blocks = metrics["sacks.run_block_calls"] + metrics["robinson.run_block_calls"]
    certify_tries = counts["trace.events.certify"] + counts["trace.events.refuse-certify"]
    updates = counts["trace.events.assignment-update"]
    metrics["engine.dispatch_yield"] = counts["trace.events.act"] / run_blocks if run_blocks else 0.0
    metrics["robinson.certify_yield"] = (
        counts["trace.events.certify"] / certify_tries if certify_tries else 0.0)
    metrics["engine.assignment_noop_share"] = counts["assignment_noop"] / updates if updates else 0.0
    metrics["bench.trace_overhead_s"] = summarize(traced)["wall_s"] - summarize(untraced)["wall_s"]
    return metrics


def run_traced_pass(api: dict, workload, tracer, counting: bool = False) -> PassResult:
    tracer.reset()
    tracer.install(counting)
    try:
        res = run_pass(api, workload, tracer)
    finally:
        tracer.uninstall()
    if counting:
        res.calls = {name: tracer.counts[name] for *_, name in spans.COUNTED}
    else:
        res.layers = tracer.totals()
        res.calls = {"robinson.refresh_inputs_scanned": tracer.counts["robinson.refresh_inputs_scanned"]}
    return res


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            rev = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "splitsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
    }


def measure(api: dict, workload, seconds: float, traced: bool):
    """Run passes for `seconds` (at least MIN_PASSES of each kind).

    Traced runs alternate untraced and span passes, then add one counting
    pass.  Returns (untraced passes, traced passes, counting pass, tracer);
    the counting pass and tracer are None in an untraced run.
    """
    tracer = spans.Tracer(api) if traced else None
    plain, with_spans = [], []
    start = time.perf_counter()
    while (
        len(plain) < MIN_PASSES
        or (traced and len(with_spans) < MIN_PASSES)
        or time.perf_counter() - start < seconds
    ):
        if traced and len(with_spans) < len(plain):
            with_spans.append(run_traced_pass(api, workload, tracer))
        else:
            plain.append(run_pass(api, workload))
    if not traced:
        return plain, with_spans, None, None
    counted = run_traced_pass(api, workload, spans.Tracer(api), counting=True)
    return plain, with_spans, counted, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    try:
        api, workload, setup_s = set_up(args.workload, args.seed)
    except (BenchError, ImportError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2

    plain, traced, counted, tracer = measure(api, workload, args.seconds, bool(args.trace))
    passes = plain + traced + ([counted] if counted else [])
    problems = check_passes(workload, passes)
    attempted = sum(len(res.timings) for res in passes)
    failed = sum(res.failed for res in passes)
    for res in passes:
        problems.extend(res.errors[:3])
    try:
        if failed == attempted:
            raise BenchError("every operation failed")
        if args.trace:
            metrics = per_layer(traced, plain, counted)
            units = PER_LAYER_UNITS
            note = "%d traced and %d untraced passes of %d operations" % (
                len(traced), len(plain), len(workload.ops))
        else:
            metrics, note = end_to_end(plain, setup_s)
            units = END_TO_END_UNITS
    except BenchError as err:
        for line in problems[:10]:
            print("FAIL %s" % line, file=sys.stderr)
        print("error: %s" % err, file=sys.stderr)
        return 1
    env = environment()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }

    print("workload %s seed %d: %s" % (workload.name, workload.seed, note))
    print("pass seconds %s" % " ".join(
        "%.3f" % sum(sum(t) for t in res.timings if t is not None) for res in passes))
    print("env %s" % json.dumps(env, sort_keys=True))
    print("failed_share %.6f ratio (%d of %d operations)" % (failed / attempted, failed, attempted))
    for line in problems[:10]:
        print("FAIL %s" % line)
    for name, unit in units.items():
        print("%-40s %18.6f %s" % (name, metrics[name], unit))
    OUT_DIR.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload.name, workload.seed, args.trace)
    if traced:
        tracer.write(OUT_DIR / ("%s-spans.tsv.gz" % stem), [op.label for op in workload.ops])
    with open(OUT_DIR / ("%s.json" % stem), "w") as handle:
        json.dump({"env": env, "note": note, "failed_share": failed / attempted, **result},
                  handle, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
