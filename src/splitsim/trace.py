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
would line by line.  Parsed payloads are read-only, and parse shares one
among the lines of a tail; to change one, copy it (dict(ev.payload, ...)).
Events the engine builds are not re-checked; their payloads are dicts
(the quiet update line's shared constant aside) of integers, fixed
words, block labels and bit strings the scenario loader has already
validated, and the acceptance corpus asserts that every run's trace
parses back to its events.

A line is cheap on both sides.  event, parse, parse_line and the
engine's quiet update line build a TraceEvent with tuple.__new__, the
bare tuple constructor, not through the NamedTuple's generated Python
__new__ (TraceEvent(stage, kind, payload) stays, for any other caller).
render formats each distinct tail once and reuses the previous line's
tail while the kind and payload objects repeat.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
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


# Builds a TraceEvent as the bare tuple it is: _new(TraceEvent, (stage, kind, payload)).
_new = tuple.__new__


class TraceParseError(ValueError):
    """A trace line does not follow the serialized event grammar."""


class TraceEvent(NamedTuple):
    stage: int
    kind: str
    payload: Mapping[str, str]

    def to_line(self) -> str:
        return "stage=%d%s" % (self.stage, _line_tail(self.kind, self.payload))


def _line_tail(kind: str, payload: Mapping[str, str]) -> str:
    """The text of a line after its stage field: kind, then the payload by key."""
    return "\tkind=" + kind + "".join(["\t%s=%s" % (k, payload[k]) for k in sorted(payload)])


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
    """Build an event, stringifying payload values (in the kwargs dict it owns)."""
    for k, v in payload.items():
        payload[k] = str(v)
    return _new(TraceEvent, (stage, kind, payload))


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
    return _new(TraceEvent, (stage, kind, MappingProxyType(payload)))


def render(events) -> str:
    """The full trace text: one line per event, newline-terminated.

    Each distinct (kind, payload) tail is formatted once per call, as
    parse parses each distinct tail once; the memo is keyed by the
    payload's items in their own order, so equal payloads built in two
    key orders are formatted once each, to the same text.  A line whose
    kind and payload are the very objects of the line before (a run of
    quiet update lines, or of parsed lines sharing a tail) reuses that
    line's tail without building the key.
    """
    tails: dict[tuple, str] = {}
    lines = []
    last_kind = last_payload = tail = None
    for stage, kind, payload in events:
        if payload is not last_payload or kind is not last_kind:
            key = (kind, *payload.items())
            tail = tails.get(key)
            if tail is None:
                tail = tails[key] = _line_tail(kind, payload) + "\n"
            last_kind, last_payload = kind, payload
        lines.append("stage=%d%s" % (stage, tail))
    return "".join(lines)


def parse(text: str) -> list[TraceEvent]:
    """The events of a trace text; raises TraceParseError at the first bad line."""
    events = []
    # Accepted tail -> (kind, read-only payload) its lines share, for this call only.
    accepted: dict[str, tuple[str, Mapping[str, str]]] = {}
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
                events.append(_new(TraceEvent, (stage, known[0], known[1])))
                continue
        ev = parse_line(line)
        accepted[tail] = ev.kind, ev.payload
        events.append(ev)
    return events
