import json
import os

import pytest

import run
import worker
import workloads
from conftest import BENCH


def _passes(name, tmp_path, count=2, **extra):
    setup, make_ops = workloads.WORKLOADS[name]
    inputs = setup(3, tmp_path, toy=True)
    inputs.update(extra)
    tally = worker.Tally()
    for _ in range(count):
        worker.run_pass(make_ops(inputs), tally)
    return inputs, tally


@pytest.mark.parametrize("name", ["ladder", "instruments", "oracle"])
def test_toy_passes_check_out(name, tmp_path):
    _, tally = _passes(name, tmp_path)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.problems


@pytest.mark.parametrize("traced", [False, True])
def test_toy_cli_pass_checks_out(traced, tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(BENCH.parent / "src"))
    spans = tmp_path / "spans"
    spans.mkdir()
    inputs, tally = _passes("cli", tmp_path, count=1,
                            trace_dir=str(spans) if traced else None)
    assert tally.failed == 0, tally.problems
    assert sorted(inputs["walls"]) == ["demo", "dilate", "sample", "verify"]
    written = sorted(p.name for p in spans.iterdir())
    assert len(written) == (7 if traced else 0)


def test_wrong_expected_integer_counts_as_one_failure(tmp_path):
    setup, make_ops = workloads.WORKLOADS["oracle"]
    inputs = setup(3, tmp_path, toy=True)
    inputs["cases"][0]["expect"] += 1
    tally = worker.Tally()
    worker.run_pass(make_ops(inputs), tally)
    assert tally.attempted == len(inputs["cases"])
    assert tally.failed == 1
    assert tally.failed_ops == {inputs["cases"][0]["name"]}


def test_changed_seeded_output_counts_as_failure(tmp_path):
    inputs, tally = _passes("instruments", tmp_path, count=1)
    inputs["seen"]["instrument0"] = "digest of some other histogram"
    worker.run_pass(workloads.instruments_ops(inputs), tally)
    assert tally.failed == 1


def test_raising_operation_counts_as_failure():
    tally = worker.Tally()
    worker.run_pass([("boom", lambda: 1 / 0), ("fine", lambda: [])], tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "ZeroDivisionError" in tally.problems[0]


def test_reach_n_takes_the_largest_passing_size():
    probes = [[2, 7, "pass"], [3, 5, "out of memory"]]
    assert workloads.reach_n([(2, 2), (5, 3)], probes) == 128
    assert workloads.reach_n([(5, 3)], [[2, 7, "out of memory"]]) == 125


def test_percentiles_need_ten_samples_beyond_them():
    assert [line.split()[1] for line in run.percentile_lines([1.0] * 19)] == [
        "n/a", "n/a"]
    assert [line.split()[1] for line in run.percentile_lines([1.0] * 100)] == [
        "1.000", "1.000"]


def test_accounting_flags_stray_spans_and_excess_self_time():
    rows = [{"name": "m.f", "start": 1.0, "end": 2.0},
            {"name": "m.g", "start": 5.0, "end": 6.0}]
    windows = [[0.0, 3.0], [4.0, 7.0]]
    assert run.check_accounting(rows, windows, 2.0, 6.0) == []
    stray = rows + [{"name": "m.h", "start": 2.5, "end": 3.5}]
    assert len(run.check_accounting(stray, windows, 3.0, 6.0)) == 1
    assert len(run.check_accounting(rows, windows, 6.5, 6.0)) == 1


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert os.path.normpath(spec["command"][1]) == os.path.join(
        "perfbench", "run.py")
