from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from splitsim.trace import (
    KINDS,
    TraceEvent,
    TraceParseError,
    event,
    parse,
    parse_int,
    parse_line,
    render,
)

GOLDEN = Path(__file__).parent / "golden"


def test_parse_int_reads_canonical_decimals_only():
    for text, value in (("0", 0), ("7", 7), ("1024", 1024), ("-1", -1), ("-30", -30)):
        assert parse_int(text) == value
    for text in ("", "-", "+0", "+3", "-0", "03", "00", " 3", "3 ", "1_0", "\u0663", "\u00b2", "3.0"):
        with pytest.raises(ValueError):
            parse_int(text)


def test_line_format_is_canonical():
    ev = event(3, "route", to="A1", x=7, threatened="P:0")
    assert ev.to_line() == "stage=3\tkind=route\tthreatened=P:0\tto=A1\tx=7"


def test_event_stringifies_payload():
    ev = event(0, "enumerate", element=4, set="B")
    assert ev.payload == {"element": "4", "set": "B"}


def test_parse_line_round_trip():
    line = "stage=12\tkind=certify\tj=0\tk=1\treq=Q:2"
    ev = parse_line(line)
    assert ev.stage == 12
    assert ev.kind == "certify"
    assert ev.payload == {"j": "0", "k": "1", "req": "Q:2"}
    assert ev.to_line() == line


@pytest.mark.parametrize(
    "line",
    [
        "stage=1",
        "kind=act\tstage=1",
        "stage=x\tkind=act",
        "stage=1\tkind=teleport",
        "stage=1\tkind=act\tnoequals",
        "stage=1\tkind=act\tb=1\ta=2",  # keys out of order
        "stage=1\tkind=act\ta=1\ta=2",  # duplicate key
        "stage=1\tnotkind=act",
        "stage=0\tkind=assignment-update\t=x\tside=none",  # empty key
    ],
)
def test_parse_line_rejections(line):
    with pytest.raises(TraceParseError):
        parse_line(line)


def test_render_parse_round_trip():
    events = [
        event(0, "enumerate", element=1, set="B"),
        event(0, "assignment-update", side="none"),
        event(2, "act", req="P:0", via="certify"),
    ]
    text = render(events)
    assert text.endswith("\n")
    assert parse(text) == events
    assert parse("") == []


_PAYLOAD_KEYS = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=8
)
_PAYLOAD_VALS = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789:.-", max_size=10
)


@given(
    st.integers(0, 10**6),
    st.sampled_from(KINDS),
    st.dictionaries(_PAYLOAD_KEYS, _PAYLOAD_VALS, max_size=5),
)
def test_round_trip_property(stage, kind, payload):
    ev = TraceEvent(stage, kind, payload)
    assert parse_line(ev.to_line()) == ev


@pytest.mark.parametrize("golden", ["deflection-update", "forced-diagonalization"])
@pytest.mark.parametrize("stage", ["\u0663", "+3", "03", " 3"])
def test_non_canonical_stage_is_a_parse_error(golden, stage):
    text = (GOLDEN / ("%s-expected.trace" % golden)).read_text()
    assert render(parse(text)) == text
    forged = text.replace("stage=3\t", "stage=%s\t" % stage, 1)
    assert forged != text
    with pytest.raises(TraceParseError, match="bad stage"):
        parse(forged)
