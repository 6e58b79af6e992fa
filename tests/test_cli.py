import json
import re
from pathlib import Path

import pytest

from splitsim.cli import main
from splitsim.fuzz import generate
from splitsim.scenario import load_scenario
from splitsim.trace import render

from conftest import malformed_refusals

GOLDEN = Path(__file__).parent / "golden"
SCENARIO = str(GOLDEN / "deflection-update-scenario.json")


def test_run_passes_and_writes_artifacts(tmp_path, capsys):
    trace = tmp_path / "out.trace"
    report = tmp_path / "report.json"
    code = main(
        ["run", "--scenario", SCENARIO, "--trace", str(trace), "--report", str(report)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "V1   partition" in out
    assert "V11  assignment-update-rule" in out
    assert "status: settled" in out
    assert trace.read_text() == (GOLDEN / "deflection-update-expected.trace").read_text()
    data = json.loads(report.read_text())
    assert data["checks"]["V1"]["status"] == "pass"


def test_run_missing_scenario_is_usage_error(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "absent.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_invalid_scenario_lists_problems(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"construction": "sacks", "horizon": 0, "b": [[2, 0]]}))
    code = main(["run", "--scenario", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "horizon" in err
    assert "odd stages" in err


def test_run_corrupt_fails_named_check(capsys):
    code = main(["run", "--scenario", SCENARIO, "--corrupt", "V11"])
    assert code == 1
    out = capsys.readouterr().out
    assert "V11  assignment-update-rule" in out
    assert "FAIL" in out


def test_run_corrupt_without_material_is_usage_error(capsys):
    code = main(["run", "--scenario", SCENARIO, "--corrupt", "V8"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_verify_round_trip(tmp_path, capsys):
    trace = tmp_path / "run.trace"
    assert main(["run", "--scenario", SCENARIO, "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["verify", "--scenario", SCENARIO, "--trace", str(trace)]) == 0
    assert "status: settled" in capsys.readouterr().out


def test_verify_malformed_refusal_exits_1(tmp_path, capsys):
    doc, forged = malformed_refusals()
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    for key, events in forged.items():
        trace = tmp_path / ("refusal-%s.trace" % key)
        trace.write_text(render(events))
        code = main(["verify", "--scenario", str(scenario), "--trace", str(trace)])
        assert code == 1, key
        assert "V7" in capsys.readouterr().out


def test_verify_rejects_garbage_trace(tmp_path, capsys):
    trace = tmp_path / "junk.trace"
    trace.write_text("this is not a trace\n")
    code = main(["verify", "--scenario", SCENARIO, "--trace", str(trace)])
    assert code == 2
    assert "unparseable trace" in capsys.readouterr().err


def test_fuzz_summary(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["fuzz", "--seed", "3", "--count", "4", "--max-horizon", "32"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fuzz: 8 pass, 0 fail" in out
    assert "max restraint:" in out
    assert "sacks[0]" in out and "robinson[3]" in out
    assert not (tmp_path / "failing-scenario.json").exists()


def test_fuzz_single_construction(capsys):
    code = main(["fuzz", "--seed", "3", "--count", "2", "--construction", "sacks"])
    assert code == 0
    out = capsys.readouterr().out
    assert "robinson[" not in out
    assert "fuzz: 2 pass, 0 fail" in out


@pytest.mark.parametrize("flag", ["--seed", "--count"])
def test_fuzz_negative_seed_or_count_sweeps_nothing(tmp_path, capsys, monkeypatch, flag):
    monkeypatch.chdir(tmp_path)
    assert main(["fuzz", flag, "-1", "--max-horizon", "16"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: %s must be a natural, not -1\n" % flag
    assert not (tmp_path / "failing-scenario.json").exists()


def test_generate_refuses_negative_seed_or_index():
    with pytest.raises(ValueError):
        generate(-1, 0, "sacks")
    with pytest.raises(ValueError):
        generate(0, -1, "robinson")
    load_scenario(generate(0, 0, "robinson"))  # the smallest position is a valid document


def test_explain_filters(tmp_path, capsys):
    trace = tmp_path / "run.trace"
    main(["run", "--scenario", SCENARIO, "--trace", str(trace)])
    capsys.readouterr()
    code = main(["explain", "--trace", str(trace), "--requirement", "Q:0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "define Q:0(0) = 0" in out
    assert "event(s) shown" in out
    # The input filter composes with the requirement filter.
    main(["explain", "--trace", str(trace), "--requirement", "Q:0", "--input", "1"])
    narrower = capsys.readouterr().out
    assert len(narrower.splitlines()) < len(out.splitlines())


def test_explain_prints_missing_fields(tmp_path, capsys):
    trace = tmp_path / "sparse.trace"
    trace.write_text(
        "stage=0\tkind=enumerate\tj=2\tset=W\n"
        "stage=1\tkind=route\tx=3\n"
        "stage=1\tkind=assignment-update\tside=none\n"
        "stage=2\tkind=certify\tk=0\n"
    )
    assert main(["explain", "--trace", str(trace)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "[stage    0] enumerate sigma= into W_2",
        "[stage    1] route x=3 to ? (threatened: -)",
        "[stage    1] assignment unchanged",
        "[stage    2] certify ?(?)=0 via j=? (entry ?, resolved ?)",
        "4 of 4 event(s) shown",
    ]


def test_explain_rejects_bad_label(tmp_path, capsys):
    trace = tmp_path / "run.trace"
    main(["run", "--scenario", SCENARIO, "--trace", str(trace)])
    capsys.readouterr()
    assert main(["explain", "--trace", str(trace), "--block", "nope"]) == 2
    assert "labels look like" in capsys.readouterr().err


def test_explain_missing_trace(tmp_path, capsys):
    assert main(["explain", "--trace", str(tmp_path / "none.trace")]) == 2
    assert "error:" in capsys.readouterr().err


def _robinson_doc(axiom=None, **top):
    """A small valid robinson scenario whose one axiom applies from stage 2."""
    doc = {
        "construction": "robinson",
        "horizon": 8,
        "c": [[4, 0]],
        "d": [[1, 0]],
        "functionals": [
            {
                "side": 0,
                "e": 0,
                "axioms": [dict({"theta": "0", "sigma": "0", "x": 0, "k": 1}, **(axiom or {}))],
            }
        ],
    }
    doc.update(top)
    return json.dumps(doc).encode()


_BAD_UTF8_TRACE = b"\xffstage=0\tkind=act\n"
_DEFLECTION_SCENARIO = (GOLDEN / "deflection-update-scenario.json").read_bytes()
# The deflection golden trace with one payload key emptied.
_EMPTY_KEY_TRACE = (
    (GOLDEN / "deflection-update-expected.trace")
    .read_bytes()
    .replace(b"stage=0\tkind=assignment-update\tside=none\n",
             b"stage=0\tkind=assignment-update\t=x\tside=none\n", 1)
)


@pytest.mark.parametrize(
    "scenario_bytes,trace_bytes,command",
    [
        pytest.param(_robinson_doc({"k": True}), None, "run", id="bool-k"),
        pytest.param(_robinson_doc({"k": 1.0}), None, "run", id="float-k"),
        pytest.param(_robinson_doc(q_overrides={"²": 3}), None, "run", id="superscript-q-key"),
        pytest.param(_robinson_doc(q_overrides={"03": 3}), None, "run", id="zero-padded-q-key"),
        pytest.param(
            _robinson_doc(p_policy={"type": "table", "values": {"²": [0, 1]}}),
            None,
            "run",
            id="superscript-p-key",
        ),
        pytest.param(b"\xff" + _robinson_doc(), None, "run", id="non-utf8-scenario"),
        pytest.param(_robinson_doc(), _BAD_UTF8_TRACE, "verify", id="non-utf8-trace-verify"),
        pytest.param(_robinson_doc(), _BAD_UTF8_TRACE, "explain", id="non-utf8-trace-explain"),
        pytest.param(_DEFLECTION_SCENARIO, _EMPTY_KEY_TRACE, "verify", id="empty-key-verify"),
        pytest.param(_DEFLECTION_SCENARIO, _EMPTY_KEY_TRACE, "explain", id="empty-key-explain"),
        pytest.param(b"[" * 200_000 + b"]" * 200_000, None, "run", id="deeply-nested-scenario"),
        pytest.param(None, None, "fuzz --count 1 --max-horizon 1", id="fuzz-max-horizon-1"),
        pytest.param(None, None, "fuzz --count 1 --max-horizon -3", id="fuzz-max-horizon-negative"),
        pytest.param(None, None, "fuzz --seed -1 --count 1", id="fuzz-seed-negative"),
        pytest.param(None, None, "fuzz --count -3", id="fuzz-count-negative"),
    ],
)
def test_hostile_input_is_usage_error(tmp_path, capsys, scenario_bytes, trace_bytes, command):
    argv = command.split()
    if argv[0] in ("run", "verify"):
        scenario = tmp_path / "scenario.json"
        scenario.write_bytes(scenario_bytes)
        argv += ["--scenario", str(scenario)]
    if trace_bytes is not None:
        trace = tmp_path / "run.trace"
        trace.write_bytes(trace_bytes)
        argv += ["--trace", str(trace)]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["run", "--scenario", SCENARIO, "--trace"], id="run-trace"),
        pytest.param(["run", "--scenario", SCENARIO, "--report"], id="run-report"),
        pytest.param(
            ["verify", "--scenario", SCENARIO, "--trace",
             str(GOLDEN / "deflection-update-expected.trace"), "--report"],
            id="verify-report",
        ),
        pytest.param(
            ["fuzz", "--count", "1", "--max-horizon", "16", "--emit-failing"],
            id="fuzz-emit-failing",
        ),
    ],
)
def test_unwritable_output_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    if argv[0] == "fuzz":
        # Every generated scenario passes; fail them so the sweep writes one.
        monkeypatch.setattr("splitsim.cli.passed", lambda report: False)
    missing = tmp_path / "no-such-directory" / "out"
    assert main(argv + [str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write %s" % missing)
    assert not missing.parent.exists()


@pytest.mark.parametrize("golden", ["deflection-update", "forced-diagonalization"])
def test_verify_non_canonical_trace_integers(tmp_path, capsys, golden):
    text = (GOLDEN / ("%s-expected.trace" % golden)).read_text()
    argv = ["verify", "--scenario", str(GOLDEN / ("%s-scenario.json" % golden))]
    trace = tmp_path / "run.trace"
    trace.write_text(text.replace("stage=3\t", "stage=\u0663\t", 1), encoding="utf-8")
    assert main(argv + ["--trace", str(trace)]) == 2
    assert "error:" in capsys.readouterr().err
    trace.write_text(text.replace("\tx=0\n", "\tx=+0\n", 1), encoding="utf-8")
    assert main(argv + ["--trace", str(trace)]) == 1
    assert re.search(r"^V2 +monotone-enumerations +FAIL", capsys.readouterr().out, re.M)
