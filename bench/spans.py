"""Span recording from outside the package, for the traced run only.

A Tracer replaces the public functions and methods named in PATCHES
with wrappers that record one span per call: name, start, end, parent
span and operation id.  Spans live in flat arrays while a pass runs and
are aggregated into per-layer totals at the end of the pass.  Two hot
methods are only counted (COUNTED), and in a pass of their own, because
even a counter per call costs more than the work it counts and would
inflate the self time of the spans around it.  uninstall() restores
every original.

A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import gzip
import time
from array import array

# (module, class or None, attribute, span name)
PATCHES = (
    ("fuzz", None, "generate", "fuzz.generate"),
    ("scenario", None, "load_scenario", "scenario.load"),
    ("harness", None, "run", "harness.run"),
    ("trace", None, "render", "trace.render"),
    ("trace", None, "parse", "trace.parse"),
    ("verify", None, "verify", "verify.verify"),
    # verify imported restrict by name, so wrap the name verify calls.
    ("verify", None, "restrict", "omegace.restrict"),
    ("engine", "Run", "block_members", "engine.block_members"),
    ("engine", "Run", "initialize_block", "engine.initialize_block"),
    ("engine", "PriorityAssignment", "update", "engine.assignment_update"),
    ("sacks", "SacksStrategy", "run_block", "sacks.run_block"),
    ("robinson", "RobinsonStrategy", "run_block", "robinson.run_block"),
    ("robinson", "RobinsonStrategy", "certify", "robinson.certify"),
    ("robinson", "RobinsonStrategy", "refresh_pass", "robinson.refresh_pass"),
    ("robinson", "RobinsonStrategy", "final_state", "robinson.final_state"),
)

COUNTED = (
    ("engine", "PriorityAssignment", "value", "engine.assignment_value_calls"),
    ("omegace", None, "build_change_set", "omegace.build_change_set_calls"),
)

SPAN_NAMES = tuple(name for *_, name in PATCHES)

# Entry spans reported with their children included; every other span is
# reported as self time.
INCLUSIVE = ("harness.run", "verify.verify")


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.op = -1
        self.counts: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        for *_, name in COUNTED:
            self.counts[name] = 0
        self.counts["robinson.refresh_inputs_scanned"] = 0
        self._stack.clear()

    def _owner(self, module: str, cls: str | None):
        mod = self.modules[module]
        return mod if cls is None else getattr(mod, cls)

    def install(self, counting: bool) -> None:
        """Wrap PATCHES in spans, or with counting=True, count COUNTED calls."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for index, (module, cls, attr, name) in enumerate(COUNTED if counting else PATCHES):
            owner = self._owner(module, cls)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if counting:
                wrapper = self._counter(name, original)
            else:
                wrapper = self._span(index, original, attr == "refresh_pass")
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _span(self, index: int, fn, scans_inputs: bool):
        tracer = self
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            if scans_inputs:
                tracer.counts["robinson.refresh_inputs_scanned"] += len(args[0].inputs)
            # start is appended last, right before the call, so every
            # array has one entry per span once the call begins.
            slot = len(tracer.start)
            tracer.name_id.append(index)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op_id.append(tracer.op)
            tracer.end.append(0.0)
            stack.append(slot)
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[slot] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def totals(self) -> dict[str, tuple[float, int]]:
        """Per span name: (reported seconds, calls) over the recorded spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        seconds = [0.0] * len(PATCHES)
        calls = [0] * len(PATCHES)
        for i in range(n):
            k = self.name_id[i]
            name = PATCHES[k][3]
            seconds[k] += dur[i] if name in INCLUSIVE else dur[i] - child[i]
            calls[k] += 1
        return {PATCHES[k][3]: (seconds[k], calls[k]) for k in range(len(PATCHES))}

    def write(self, path, labels) -> None:
        """Write the recorded spans as gzip'd tab-separated lines."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart_s\tend_s\tparent\tscenario\n")
            for i in range(len(self.start)):
                op = self.op_id[i]
                out.write(
                    "%d\t%s\t%.9f\t%.9f\t%d\t%s\n"
                    % (i, PATCHES[self.name_id[i]][3], self.start[i], self.end[i],
                       self.parent[i], labels[op] if op >= 0 else "-")
                )
