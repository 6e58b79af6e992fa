"""Smoke test of the benchmark harness at tiny sizes.

    python -m pytest bench/test_bench.py -q

Checks that every metric named in BENCHMARK.json is printed with its
unit in both modes, that the exact counts repeat from pass to pass,
that times are scaled by the calibration units timed nearest to them,
and that a forged trace shows up as failed operations (the negative
control for the correctness gate).
"""

import json
from pathlib import Path

import pytest

import run
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def tiny(name: str, seed: int) -> workloads.Workload:
    if name == "corpus":
        ops = workloads.corpus_ops(seed, 12, 48)
    elif name == "dense-sacks":
        ops = workloads.doc_ops(name, workloads.dense_sacks_doc, seed, range(16, 28))
    else:
        ops = workloads.doc_ops(name, workloads.oracle_churn_doc, seed, range(16, 28))
    return workloads.Workload(name, seed, ops, None)


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "build", tiny)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "MIN_PASSES", 2)


def bench(capsys, *args) -> tuple[int, list[str], dict]:
    code = run.main(["--seconds", "0", *args])
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1]) if code == 0 else {}


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(small, capsys, name, trace, section):
    code, lines, result = bench(capsys, "--workload", name, "--trace", str(trace))
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    for metric, unit in declared.items():
        assert any(line.split()[:1] == [metric] and line.split()[-1] == unit for line in lines)


def test_exact_counts_repeat():
    api = run.import_splitsim()
    work = tiny("oracle-churn", 5)
    first, second = run.run_pass(api, work), run.run_pass(api, work)
    assert first.counts == second.counts
    assert first.counts["trace.events.certify"] > 0
    assert (first.trace_digest, first.report_digest) == (second.trace_digest, second.report_digest)


def test_forged_trace_counts_as_failed(small, capsys, monkeypatch):
    real_import = run.import_splitsim

    def forging_import(root=run.ROOT):
        api = real_import(root)
        corrupt = __import__("splitsim.corrupt", fromlist=["corrupt"]).corrupt
        real_run = api["harness"].run

        def forged(scenario):
            events, final = real_run(scenario)
            if scenario.construction == "sacks":
                events = corrupt("V11", scenario, events)
            return events, final

        monkeypatch.setattr(api["harness"], "run", forged)
        return api

    monkeypatch.setattr(run, "import_splitsim", forging_import)
    code, lines, result = bench(capsys, "--workload", "corpus", "--trace", "0")
    assert code == 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // 2
    share = [line.split() for line in lines if line.startswith("failed_share")]
    assert float(share[0][1]) == 0.5


def test_times_are_scaled_by_the_nearest_calibration_units():
    # Units twice the reference time in the first half of a pass halve
    # the times there; units at the reference time leave them as timed.
    slow, steady = [2 * run.REFERENCE_UNIT_S] * 4, [run.REFERENCE_UNIT_S] * 4
    res = run.PassResult(timings=[(0.002,) * len(run.STEPS)] * 4, failed=0,
                         units=[slow, slow, steady, steady])
    assert res.op_scales() == [0.5, 0.5, 1.0, 1.0]
    assert run.summarize([res])["wall_s"] == pytest.approx(2 * 0.001 * len(run.STEPS) + 2 * 0.002 * len(run.STEPS))


def test_pinned_digest_mismatch_fails_every_operation():
    api = run.import_splitsim()
    work = tiny("dense-sacks", 3)
    pinned = workloads.Workload(work.name, work.seed, work.ops, ("0" * 64, "0" * 64))
    passes = [run.run_pass(api, pinned)]
    assert run.check_passes(pinned, passes)
    assert passes[0].failed == len(pinned.ops)


def test_missing_sources_refuse_to_run(tmp_path):
    with pytest.raises(run.BenchError):
        run.import_splitsim(tmp_path)
