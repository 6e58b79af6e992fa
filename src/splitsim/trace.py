"""Run traces: one structured event per line, bit-exact and replayable.

The trace is the verification substrate: every check the verifier runs is
recomputed from trace lines plus the scenario document, never from engine
internals.  Serialization is therefore deliberately rigid; stage first,
kind second, remaining payload keys in lexicographic order, tab-separated
key=value pairs.  Two runs of the same scenario must produce byte-equal
trace text.

The grammar is checked where text enters: parse_line is the one place
outside text becomes events, and it rejects every line that breaks the
grammar with TraceParseError.  parse runs it once per distinct line tail
(the text after the first tab) within one call, and on every line it
rejects; a line that repeats an accepted tail only needs its stage field
read with parse_int, since nothing else in the grammar depends on it.
So the stage field is checked on every line and everything else once per
tail, and parse accepts, rejects and explains exactly as parse_line
would line by line.  Events the engine builds are not re-checked; their
payloads are integers, fixed words, block labels and bit strings the
scenario loader has already validated, and the acceptance corpus asserts
that every run's trace parses back to its events.
"""

from __future__ import annotations

from typing import NamedTuple

KINDS = (
    "enumerate",
    "route",
    "initialize",
    "act",
    "expansionary",
    "diagonalize",
    "certify",
    "refuse-certify",
    "define-local",
    "restraint-set",
    "assignment-update",
    "injury",
)


class TraceParseError(ValueError):
    """A trace line does not follow the serialized event grammar."""


class TraceEvent(NamedTuple):
    stage: int
    kind: str
    payload: dict[str, str]

    def to_line(self) -> str:
        parts = ["stage=%d" % self.stage, "kind=%s" % self.kind]
        parts += ["%s=%s" % (k, self.payload[k]) for k in sorted(self.payload)]
        return "\t".join(parts)


def parse_int(text: str) -> int:
    """The integer text spells in canonical decimal, exactly as %d renders it.

    That is -?(0|[1-9][0-9]*) over ASCII digits, without "-0": no plus
    sign, no leading zero, no blank, no other script's digits.  Any other
    text raises ValueError.
    """
    n = int(text)
    if str(n) != text:
        raise ValueError("non-canonical integer %r" % (text,))
    return n


def event(stage: int, kind: str, **payload) -> TraceEvent:
    """Build an event, stringifying payload values."""
    return TraceEvent(stage, kind, {k: str(v) for k, v in payload.items()})


def parse_line(line: str) -> TraceEvent:
    fields = line.rstrip("\n").split("\t")
    if len(fields) < 2:
        raise TraceParseError("truncated trace line: %r" % (line,))
    payload: dict[str, str] = {}
    keys = []
    for i, chunk in enumerate(fields):
        if "=" not in chunk:
            raise TraceParseError("malformed field %r" % (chunk,))
        key, value = chunk.split("=", 1)
        if i == 0:
            if key != "stage":
                raise TraceParseError("trace line must start with its stage")
            try:
                stage = parse_int(value)
            except ValueError as err:
                raise TraceParseError("bad stage %r" % (value,)) from err
        elif i == 1:
            if key != "kind":
                raise TraceParseError("second field must be the event kind")
            kind = value
        else:
            if not key:
                raise TraceParseError("empty payload key in %r" % (line,))
            if key in payload:
                raise TraceParseError("duplicate payload key %r" % (key,))
            payload[key] = value
            keys.append(key)
    if keys != sorted(keys):
        raise TraceParseError("payload keys out of order in %r" % (line,))
    if kind not in KINDS:
        raise TraceParseError("unknown event kind %r" % (kind,))
    return TraceEvent(stage, kind, payload)


def render(events) -> str:
    """The full trace text: one line per event, newline-terminated."""
    return "".join(ev.to_line() + "\n" for ev in events)


def parse(text: str) -> list[TraceEvent]:
    """The events of a trace text; raises TraceParseError at the first bad line."""
    events = []
    # Accepted tail -> (kind, payload) of its first line, for this call only.
    accepted: dict[str, tuple[str, dict[str, str]]] = {}
    for line in text.splitlines():
        if not line:
            continue
        head, _, tail = line.partition("\t")
        known = accepted.get(tail)
        if known is not None and head.startswith("stage="):
            try:
                stage = parse_int(head[6:])
            except ValueError:
                pass  # parse_line below rejects the stage with its own message
            else:
                events.append(TraceEvent(stage, known[0], dict(known[1])))
                continue
        ev = parse_line(line)
        accepted[tail] = ev.kind, ev.payload
        events.append(ev)
    return events
