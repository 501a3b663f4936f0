"""A smoke-scale pass of all six workloads through the runner, checked
against the output contract and against ``BENCHMARK.json``."""

import importlib.util
import json
from pathlib import Path

import pytest

from blendbench import WORKLOADS, runner
from blendbench.manifest import check_emitted, check_manifest

ROOT = Path(__file__).resolve().parents[3]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_manifest_is_valid_and_names_this_benchmark():
    assert check_manifest(ROOT) == []
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    # 4 + 22 runs per workload must fit the driver's 3420 s with a margin
    # for set-up, answer checking and interpreter start around each run
    runs = 4 + 22 * len(WORKLOADS)
    assert runs * (MANIFEST["run_seconds"] + 12) < 3420


def test_closed_loop_numbers_keep_each_ops_fastest_execution():
    from blendbench.workloads import RunResult, closed_numbers

    result = RunResult()
    # op 0 and op 1 ran three times; the second pass hit a slow machine
    executions = [
        (0, 0.001), (1, 0.100), (0, 0.005), (1, 0.500), (0, 0.0011), (1, 0.101), (2, 0.010)
    ]
    closed_numbers(result, executions, slowdown=1.0)
    assert result.samples == 3
    assert result.op_geomean == pytest.approx((0.001 * 0.100 * 0.010) ** (1 / 3))
    assert result.op_p90 == 0.100
    assert result.ops_per_s == pytest.approx(3 / 0.111)
    # on a machine running at half speed the same program reports the same numbers
    slow = RunResult()
    closed_numbers(slow, [(op, 2 * latency) for op, latency in executions], slowdown=2.0)
    assert slow.op_geomean == pytest.approx(result.op_geomean)
    assert slow.ops_per_s == pytest.approx(result.ops_per_s)
    assert slow.extras["raw.op_geomean_ms"][0] == pytest.approx(2e3 * result.op_geomean)


def test_open_loop_numbers_drop_the_slowest_slices_and_pool_the_rest():
    from blendbench.workloads import RunResult, pooled_numbers

    result = RunResult()
    timed = [(0.1 * i, 0.010) for i in range(10)]  # slice [0, 1): steady 10 ms
    timed += [(1.0 + 0.1 * i, 0.500) for i in range(10)]  # slice [1, 2): stalled machine
    timed += [(2.0 + 0.1 * i, 0.012) for i in range(10)]  # slice [2, 3)
    timed += [(3.0 + 0.1 * i, 0.011) for i in range(10)]  # slice [3, 4)
    timed += [(4.5, 9.0)]  # beyond the last edge: ignored
    pooled_numbers(result, timed, [0.0, 1.0, 2.0, 3.0, 4.0])
    assert result.samples == 30  # one of four slices trimmed
    assert result.op_geomean == pytest.approx((0.010 * 0.012 * 0.011) ** (1 / 3))
    assert result.op_p90 == 0.012


def test_calibrator_reports_slowdown_per_phase():
    from blendbench.measure import KERNEL_NOMINAL, Calibrator

    calibrator = Calibrator()
    assert calibrator.slowdown("timed") == 1.0  # never sampled: no correction
    calibrator.sample("timed")
    assert len(calibrator.samples["timed"]) == Calibrator.BURST
    assert 0.2 < calibrator.slowdown("timed") < 20
    calibrator.samples["setup"] = [3 * KERNEL_NOMINAL] * 8
    assert calibrator.slowdown("setup") == pytest.approx(3.0)


def test_manifest_checker_rejects_what_the_driver_rejects(tmp_path):
    def problems(**changes):
        broken = json.loads(json.dumps(MANIFEST))
        broken.update(changes)
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(broken))
        (tmp_path / "benchmarks" / "e2e").mkdir(parents=True, exist_ok=True)
        return check_manifest(tmp_path)

    assert problems() == []
    assert problems(claim=None)  # no key beyond the contract's six
    assert problems(run_seconds=61)
    assert problems(paths=["../elsewhere"])
    assert problems(paths=["benchmarks/missing"])
    assert problems(command=["python3", "/abs/run.py"])
    assert problems(workloads=MANIFEST["workloads"][:1])
    assert problems(end_to_end=[m for m in MANIFEST["end_to_end"] if m["name"] != "setup_s"])
    assert problems(end_to_end=[dict(MANIFEST["end_to_end"][0], bound=0.3)])
    assert problems(per_layer=[{"name": "bad name", "unit": "s", "better": "lower"}])
    assert problems(per_layer=MANIFEST["per_layer"] + [MANIFEST["per_layer"][0]])  # reused name


@pytest.fixture(scope="module")
def reports():
    return {name: runner.execute(name, seed=71, seconds=0.5, smoke=True) for name in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_meets_the_output_contract(reports, workload):
    report = reports[workload]
    assert report.failures == [] and report.correct and report.failed == 0
    assert report.attempted >= 10
    summary = json.loads(json.dumps(report.summary()))  # the contract's last line
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert check_emitted(MANIFEST, 0, summary["metrics"], workload) == []
    units = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    for name, metric in summary["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["unit"] == units[name]
        assert metric["value"] > 0, f"{name} must never be 0"
    assert report.digest and report.lake_cells > 1000
    body = report.result_file()
    assert body["claim"] is None and body["workload"] == workload
    assert {"nproc", "python", "numpy", "platform", "commit", "seed", "lake_cells"} <= set(
        body["env"]
    )


def test_same_seed_gives_the_same_inputs_and_answers(reports):
    again = runner.execute("mc_seek", seed=71, seconds=0.5, smoke=True)
    assert again.digest == reports["mc_seek"].digest
    other = runner.execute("mc_seek", seed=72, seconds=0.5, smoke=True)
    assert other.digest != again.digest


def test_traced_run_reports_every_per_layer_row():
    report = runner.execute("serve_churn", seed=71, seconds=0.8, trace=1, smoke=True)
    assert report.correct, report.failures
    assert report.unavailable == {} and report.missing == []
    assert check_emitted(MANIFEST, 1, report.summary()["metrics"], "serve_churn") == []
    rows = report.metrics
    assert rows["index.build.rows"]["value"] > 1000
    assert rows["index.compact.rows_rewritten"]["value"] > 1000  # the battery's cycles
    assert 0.2 < rows["machine.slowdown"]["value"] < 20
    assert (runner.SCRATCH / "trace-serve_churn.jsonl").is_file()


def test_a_wrong_answer_fails_the_run(monkeypatch):
    from blendbench import oracle

    monkeypatch.setattr(
        oracle.LakeOracle, "keyword_scores", lambda self, values: {0: 1.0}, raising=True
    )
    report = runner.execute("value_seek", seed=71, seconds=0.3, smoke=True)
    assert not report.correct and report.failed > 0
    assert any("keyword" in reason for reason in report.failures)
    assert report.summary()["correct"] is False


def load_compare():
    spec = importlib.util.spec_from_file_location(
        "e2e_compare", Path(__file__).resolve().parents[1] / "compare.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_verdicts():
    compare = load_compare()
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert compare.judge(steady, [v * 1.02 for v in steady], "lower", 0.10)[0] == "ok"
    assert compare.judge(steady, [v * 1.20 for v in steady], "lower", 0.10)[0] == "REGRESSED"
    assert compare.judge(steady, [v * 0.80 for v in steady], "higher", 0.10)[0] == "REGRESSED"
    assert compare.judge(steady, [v * 0.80 for v in steady], "lower", 0.10)[0] == "gain"
    # 9 wins of 10 still count; a win that is inside A's own quartile distance does not
    nine = [v * 0.8 for v in steady[:9]] + [steady[9] * 1.01]
    assert compare.judge(steady, nine, "lower", 0.10)[0] == "gain"
    assert compare.judge(steady, [v - 0.01 for v in steady], "lower", 0.10)[0] == "ok"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.judge(noisy, steady, "lower", 0.10)[0] == "unresolved"
    assert compare.judge([100.0], [130.0], "lower", 0.10)[0] == "REGRESSED"


def test_compare_reads_result_files_and_aggregates(tmp_path, reports, capsys):
    compare = load_compare()
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        for name, report in reports.items():
            (tmp_path / side / f"{name}.json").write_text(json.dumps(report.result_file()))
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == len(WORKLOADS) + 1 and "no regression" in out
    loaded = compare.load(tmp_path / "a")
    assert set(loaded) == set(WORKLOADS) and len(loaded["ingest"]["op_geomean_ms"]) == 1
