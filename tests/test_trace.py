from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from splitsim import trace
from splitsim.harness import run
from splitsim.scenario import load_scenario
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

from conftest import corpus_doc, count_calls

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


def _parse_line_by_line(lines):
    """What parse must return for these lines, or the error it must raise."""
    events = []
    for line in lines:
        try:
            events.append(parse_line(line))
        except TraceParseError as err:
            return str(err)
    return events


def _assert_parse_agrees(lines):
    want = _parse_line_by_line(lines)
    text = "".join(line + "\n" for line in lines)
    if isinstance(want, str):
        with pytest.raises(TraceParseError) as caught:
            parse(text)
        assert str(caught.value) == want
    else:
        got = parse(text)
        assert got == want
        # Every event owns its payload, repeated tail or not.
        assert len({id(ev.payload) for ev in got}) == len(got)


_HEADS = st.sampled_from(
    ["stage=0", "stage=3", "stage=12", "stage=-1", "stage=+3", "stage=03", "stage=٣",
     "stage=", "stage", "stag=3", "stage:3", "stagX=3", "kind=act"]
)
_TAILS = st.sampled_from(
    [
        "kind=assignment-update\tside=none",
        "kind=act\treq=P:0\tvia=certified",
        "kind=route\tthreatened=-\tto=A0\tx=5",
        "kind=enumerate\telement=4\tset=A1",
        "kind=act\tvia=certified\treq=P:0",  # keys out of order
        "kind=act\treq=P:0\treq=P:1",  # duplicate key
        "kind=assignment-update\t=x\tside=none",  # empty key
        "kind=teleport\tx=1",  # unknown kind
        "kind=act\tnoequals",
        "notkind=act",
        "kind=act",
        "",
    ]
)


@given(st.lists(st.tuples(_HEADS, _TAILS), max_size=12))
def test_memoized_parse_agrees_with_parse_line(pairs):
    """Lines drawn from a small pool of tails repeat them, so parse's
    per-tail memo is exercised against the line-by-line grammar."""
    _assert_parse_agrees([head + ("\t" + tail if tail else "") for head, tail in pairs])


def _corpus_robinson_lines(corpus):
    sc = load_scenario(corpus_doc(corpus, "robinson", 478))
    return render(run(sc)[0]).splitlines()


def _later_repeat(lines, kind):
    """Index of a line of the kind whose tail already occurred earlier."""
    seen = set()
    for n, line in enumerate(lines):
        tail = line.partition("\t")[2]
        if tail in seen and "\tkind=%s" % kind in "\t" + tail:
            return n
        seen.add(tail)
    raise AssertionError("no repeated %s tail" % kind)


def _mutations(lines):
    beat = _later_repeat(lines, "assignment-update")
    init = _later_repeat(lines, "initialize")
    head, tail = lines[beat].split("\t", 1)
    stage = head[len("stage="):]
    for bad in ("٣" * len(stage), "+" + stage, "0" + stage, " " + stage, stage + "x"):
        yield beat, "stage=%s\t%s" % (bad, tail)
    fields = lines[init].split("\t")
    yield init, "\t".join(fields[:2] + ["=x"] + fields[2:])
    yield init, "\t".join(fields[:2] + fields[2:][::-1])
    yield init, "\t".join(fields + [fields[-1]])
    yield init, "\t".join(fields[:1] + ["kind=teleport"] + fields[2:])
    yield beat, head
    yield beat, "stage:%s\t%s" % (stage, tail)
    yield beat, "Stage=%s\t%s" % (stage, tail)


def _rejection(line):
    with pytest.raises(TraceParseError) as caught:
        parse_line(line)
    return caught.value


def test_memoized_parse_agrees_on_mutated_corpus_traces(corpus):
    lines = _corpus_robinson_lines(corpus)
    _assert_parse_agrees(lines)
    for at, forged in _mutations(lines):
        mutated = lines[:at] + [forged] + lines[at + 1:]
        assert _parse_line_by_line(mutated) == str(_rejection(forged))
        _assert_parse_agrees(mutated)


def test_parse_checks_each_distinct_tail_once(corpus, monkeypatch):
    """A count, not a timing: the full grammar walk runs once per distinct
    line tail, while every line still has its stage read."""
    lines = _corpus_robinson_lines(corpus)
    tails = {line.partition("\t")[2] for line in lines}
    calls = count_calls(monkeypatch, trace, "parse_line")
    events = parse("".join(line + "\n" for line in lines))
    assert [ev.to_line() for ev in events] == lines
    assert len(calls) <= len(tails) < len(lines) / 4, (len(calls), len(tails), len(lines))


def _spec_line(ev):
    """A line as the module docstring specifies it, built without the memo."""
    fields = ["stage=%d" % ev.stage, "kind=" + ev.kind]
    fields += ["%s=%s" % (k, ev.payload[k]) for k in sorted(ev.payload)]
    return "\t".join(fields)


_PAYLOADS = st.dictionaries(
    st.sampled_from(["block", "j", "req", "sigma", "x"]), st.text("01PQ:-", max_size=3), max_size=4
)


@given(
    st.lists(st.tuples(st.sampled_from(KINDS), _PAYLOADS), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(-1, 10**6), st.integers(0, 3), st.booleans()), max_size=40),
)
def test_render_formats_each_tail_as_its_own_line(tails, picks):
    """The render memo changes no byte: tails repeat, and equal payloads
    come in two key orders."""
    events = []
    for stage, k, reverse in picks:
        kind, payload = tails[k % len(tails)]
        items = list(payload.items())
        if reverse:
            items.reverse()
        events.append(TraceEvent(stage, kind, dict(items)))
    text = render(events)
    assert text == "".join(ev.to_line() + "\n" for ev in events)
    assert text == "".join(_spec_line(ev) + "\n" for ev in events)
