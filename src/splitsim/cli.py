"""Command line front end.

Four subcommands: run executes a scenario and verifies its own trace,
verify re-checks a previously written trace against its scenario, fuzz
sweeps a deterministic stream of generated scenarios, and explain
renders a filtered chronology of one trace.

Exit codes: 0 all non-skipped checks pass, 1 some check failed (or a
run aborted), 2 the inputs were unusable.
"""

from __future__ import annotations

import argparse
import json
import sys

from .corrupt import CorruptionError, corrupt
from .engine import ConstructionInvariantError
from .fuzz import generate
from .harness import run
from .model import parse_label
from .scenario import CONSTRUCTIONS, ScenarioError, load_scenario, load_scenario_file
from .trace import TraceParseError, parse, render
from .verify import CHECKS, passed, verify


def _fail_usage(message: str) -> int:
    print("error: %s" % message, file=sys.stderr)
    return 2


def _scenario(path: str):
    """The scenario at path, or None after printing each of its problems."""
    try:
        return load_scenario_file(path)
    except ScenarioError as err:
        for problem in err.problems:
            print("error: %s" % problem, file=sys.stderr)
        return None


def _trace(path: str):
    """The parsed trace at path, or None after printing why it is unusable."""
    try:
        with open(path, encoding="utf-8") as handle:
            return parse(handle.read())
    except (OSError, UnicodeDecodeError) as err:
        _fail_usage(str(err))
    except TraceParseError as err:
        _fail_usage("unparseable trace: %s" % err)
    return None


def _print_report(report: dict) -> None:
    for name, _ in CHECKS:
        entry = report["checks"][name]
        head = "%-4s %-30s" % (name, entry["title"])
        if entry["status"] == "pass":
            print("%s pass" % head)
        elif entry["status"] == "skipped":
            print("%s skipped (%s)" % (head, entry["reason"]))
        else:
            first = entry["witnesses"][0] if entry["witnesses"] else None
            tail = ""
            if first is not None:
                tail = "; first: stage %d: %s" % (first["stage"], first["note"])
            print("%s FAIL %d failure(s)%s" % (head, entry["failures"], tail))
    diag = report["diagnostics"]
    print(
        "status: %s  pending-scans=%d  events=%d"
        % (report["flags"]["status"], diag["pending_scans"], diag["events"])
    )


def _write(path: str, text: str) -> bool:
    """Write text to path as UTF-8; False after printing why it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        _fail_usage("cannot write %s: %s" % (path, err.strerror or err))
        return False
    return True


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_run(args) -> int:
    scenario = _scenario(args.scenario)
    if scenario is None:
        return 2
    try:
        events, final = run(scenario)
    except ConstructionInvariantError as err:
        print("run aborted: %s" % err, file=sys.stderr)
        return 1
    if args.corrupt:
        try:
            events = corrupt(args.corrupt, scenario, events)
        except CorruptionError as err:
            return _fail_usage(str(err))
        final = None
    if args.trace and not _write(args.trace, render(events)):
        return 2
    report = verify(scenario, events, final)
    if args.report and not _write(args.report, _json(report)):
        return 2
    _print_report(report)
    return 0 if passed(report) else 1


def cmd_verify(args) -> int:
    scenario = _scenario(args.scenario)
    if scenario is None:
        return 2
    events = _trace(args.trace)
    if events is None:
        return 2
    report = verify(scenario, events)
    if args.report and not _write(args.report, _json(report)):
        return 2
    _print_report(report)
    return 0 if passed(report) else 1


def cmd_fuzz(args) -> int:
    if args.max_horizon < 2:
        return _fail_usage("--max-horizon must be at least 2, not %d" % args.max_horizon)
    constructions = [args.construction] if args.construction else list(CONSTRUCTIONS)
    totals = {"pass": 0, "fail": 0, "unsettled": 0}
    peak_restraint = (-1, "-", "-")
    peak_injuries = (0, "-", "-")
    first_failing = None
    for construction in constructions:
        for index in range(args.count):
            doc = generate(args.seed, index, construction, args.max_horizon)
            tag = "%s[%d]" % (construction, index)
            try:
                scenario = load_scenario(doc)
                events, final = run(scenario)
            except (ScenarioError, ConstructionInvariantError) as err:
                print("%-16s generation or run failed: %s" % (tag, err))
                totals["fail"] += 1
                if first_failing is None:
                    first_failing = doc
                continue
            report = verify(scenario, events, final)
            ok = passed(report)
            settled = report["flags"]["status"] == "settled"
            totals["pass" if ok else "fail"] += 1
            if not settled:
                totals["unsettled"] += 1
            diag = report["diagnostics"]
            for label, value in diag["max_restraint"].items():
                if value > peak_restraint[0]:
                    peak_restraint = (value, label, tag)
            for label, value in diag["injuries_per_block"].items():
                if value > peak_injuries[0]:
                    peak_injuries = (value, label, tag)
            print(
                "%-16s H=%-4d events=%-6d %s%s"
                % (
                    tag,
                    scenario.horizon,
                    diag["events"],
                    "pass" if ok else "FAIL",
                    "" if settled else " (unsettled)",
                )
            )
            if not ok and first_failing is None:
                first_failing = doc
    print(
        "fuzz: %d pass, %d fail, %d unsettled"
        % (totals["pass"], totals["fail"], totals["unsettled"])
    )
    print("max restraint: %d (block %s, %s)" % peak_restraint)
    print("max injuries per block: %d (block %s, %s)" % peak_injuries)
    if totals["fail"]:
        if not _write(args.emit_failing, _json(first_failing)):
            return 2
        print("first failing scenario written to %s" % args.emit_failing)
        return 1
    return 0


def _describe(ev) -> str:
    pay = ev.payload
    kind = ev.kind
    if kind == "enumerate":
        if pay.get("set") == "W":
            body = "enumerate sigma=%s into W_%s" % (pay.get("sigma", ""), pay.get("j", "?"))
        else:
            body = "enumerate %s into %s" % (pay.get("element", "?"), pay.get("set", "?"))
    elif kind == "route":
        body = "route x=%s to %s (threatened: %s)" % (
            pay.get("x", "?"), pay.get("to", "?"), pay.get("threatened", "-"),
        )
    elif kind == "initialize":
        body = "initialize %s (cause=%s, by=%s)" % (
            pay.get("block", "?"), pay.get("cause", "?"), pay.get("initiator", "?"),
        )
    elif kind == "restraint-set":
        body = "restraint of %s set to %s" % (pay.get("block", "?"), pay.get("value", "?"))
    elif kind == "expansionary":
        body = "expansionary for %s, agreement %s" % (pay.get("req", "?"), pay.get("ell", "?"))
    elif kind == "define-local":
        body = "define %s(%s) = %s" % (pay.get("req", "?"), pay.get("x", "?"), pay.get("k", "?"))
    elif kind == "diagonalize":
        body = "diagonalize %s at x=%s" % (pay.get("req", "?"), pay.get("x", "?"))
    elif kind == "certify":
        body = "certify %s(%s)=%s via j=%s (entry %s, resolved %s)" % (
            pay.get("req", "?"), pay.get("x", "?"), pay.get("k", "?"),
            pay.get("j", "?"), pay.get("entry", "?"), pay.get("resolved", "?"),
        )
    elif kind == "refuse-certify":
        body = "refuse %s(%s) via j=%s (%s)" % (
            pay.get("req", "?"), pay.get("x", "?"), pay.get("j", "?"),
            pay.get("result", "?"),
        )
    elif kind == "injury":
        body = "injury of %s at x=%s (cause=%s)" % (
            pay.get("req", "?"), pay.get("x", "?"), pay.get("cause", "?"),
        )
    elif kind == "act":
        body = "act by %s (via %s)" % (pay.get("req", "?"), pay.get("via", "?"))
    elif kind == "assignment-update":
        if pay.get("side") == "none":
            body = "assignment unchanged"
        else:
            body = "assignment %s: indices above tail %s pulled to block %s" % (
                pay.get("side", "?"), pay.get("tail", "?"), pay.get("i", "?"),
            )
    else:
        body = kind
    return "[stage %4d] %s" % (ev.stage, body)


def _matches(ev, args) -> bool:
    pay = ev.payload
    if args.block is not None:
        blk = pay.get("block", pay.get("threatened"))
        if blk != args.block:
            return False
    if args.requirement is not None and pay.get("req") != args.requirement:
        return False
    if args.input is not None and pay.get("x") != str(args.input):
        return False
    return True


def cmd_explain(args) -> int:
    for label in (args.block, args.requirement):
        if label is not None and parse_label(label) is None:
            return _fail_usage("labels look like P:0 or Q:3, not %r" % label)
    events = _trace(args.trace)
    if events is None:
        return 2
    shown = 0
    for ev in events:
        if _matches(ev, args):
            print(_describe(ev))
            shown += 1
    print("%d of %d event(s) shown" % (shown, len(events)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="splitsim",
        description="Simulate and verify finite-injury splitting runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario and verify its trace")
    p_run.add_argument("--scenario", required=True, help="scenario JSON path")
    p_run.add_argument("--trace", help="write the trace to this path")
    p_run.add_argument("--report", help="write the verification report JSON here")
    p_run.add_argument(
        "--corrupt",
        choices=[name for name, _ in CHECKS],
        help="forge the trace so the named check fails (for testing the verifier)",
    )
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="re-check a written trace")
    p_verify.add_argument("--scenario", required=True)
    p_verify.add_argument("--trace", required=True)
    p_verify.add_argument("--report", help="write the verification report JSON here")
    p_verify.set_defaults(func=cmd_verify)

    p_fuzz = sub.add_parser("fuzz", help="sweep generated scenarios")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--count", type=int, default=20)
    p_fuzz.add_argument("--construction", choices=list(CONSTRUCTIONS))
    p_fuzz.add_argument("--max-horizon", type=int, default=64)
    p_fuzz.add_argument(
        "--emit-failing",
        default="failing-scenario.json",
        help="where to write the first failing scenario document",
    )
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_explain = sub.add_parser("explain", help="render a filtered trace chronology")
    p_explain.add_argument("--trace", required=True)
    p_explain.add_argument("--block", help="only events touching this block label")
    p_explain.add_argument("--requirement", help="only events of this requirement")
    p_explain.add_argument("--input", type=int, help="only events at this input")
    p_explain.set_defaults(func=cmd_explain)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
