"""Smoke tests for the micro-benchmark harness (``bench_index_build.py``,
``bench_seeker.py``, ``bench_maintenance.py``, ``bench_snapshot.py``,
``bench_sharded.py``, ``run_bench.py``): tiny lakes, well-formed JSON
payloads, and the committed artefacts' schemas and acceptance bars."""

import json
import sys
from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS_DIR))

import bench_maintenance  # noqa: E402
import bench_seeker  # noqa: E402
import bench_sharded  # noqa: E402
import bench_snapshot  # noqa: E402
from bench_index_build import PHASES, format_report, run_benchmark  # noqa: E402


@pytest.fixture(scope="module")
def results():
    return run_benchmark(seed=3, scale=0.05)


def test_all_phases_present(results):
    assert set(results) >= set(PHASES)


def test_payload_well_formed(results, tmp_path):
    for numbers in results.values():
        assert numbers["seconds"] >= 0
        assert numbers["rows_per_sec"] > 0
    payload = json.dumps(results, indent=2)
    (tmp_path / "BENCH_index.json").write_text(payload)
    assert json.loads(payload) == results


def test_report_renders(results):
    text = format_report(results)
    assert "build speedup" in text and "ingest speedup" in text


def test_committed_artifact_schema():
    artifact = BENCHMARKS_DIR.parent / "BENCH_index.json"
    assert artifact.exists(), "BENCH_index.json must be committed (run run_bench.py)"
    payload = json.loads(artifact.read_text())
    assert set(payload) >= set(PHASES)
    for numbers in payload.values():
        assert set(numbers) == {"seconds", "rows_per_sec"}
    # The PR's acceptance bar, as measured on the committed run.
    speedup = payload["build_scalar"]["seconds"] / payload["build"]["seconds"]
    assert speedup >= 5.0


def test_run_bench_cli(tmp_path):
    from run_bench import main

    out = tmp_path / "BENCH_index.json"
    assert main(["--seed", "3", "--scale", "0.05", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) >= set(PHASES)


class TestCheckOnly:
    """``run_bench.py --check-only``: the CI parity smoke."""

    def test_cli_runs_all_suites(self, capsys):
        from run_bench import main

        assert main(["--check-only", "--suite", "all", "--seed", "3", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "[index] index build parity OK" in out
        assert "[seeker] MC seeker oracle parity OK" in out
        assert "[maintenance] lifecycle parity OK" in out
        assert "[snapshot] snapshot round-trip parity OK" in out
        assert "[serving] serving parity OK" in out
        assert "[sharded] scatter-gather parity OK" in out

    def test_index_divergence_raises(self, monkeypatch):
        """The build-parity assertion is live: break the sharded merge
        (in the parent process, so the check is pool-independent) and the
        smoke must fail."""
        import bench_index_build
        from repro.index import alltables

        monkeypatch.setattr(alltables, "_merge_and_insert", lambda db, config, parts: 0)
        with pytest.raises(AssertionError, match="build parity violated"):
            bench_index_build.run_check(seed=3, scale=0.05)

    def test_seeker_divergence_raises(self, monkeypatch):
        from repro.core.seekers import MultiColumnSeeker

        monkeypatch.setattr(
            MultiColumnSeeker,
            "validate_batch",
            lambda self, table_ids, row_ids, context: (table_ids[:0], row_ids[:0]),
        )
        with pytest.raises(AssertionError, match="divergence"):
            bench_seeker.run_check(seed=3, scale=0.1)


class TestSeekerSuite:
    """The seeker benchmark: runs end-to-end on a tiny lake (asserting
    the scalar-oracle parity internally), and the committed
    ``BENCH_seeker.json`` meets the PR's acceptance bar."""

    @pytest.fixture(scope="class")
    def seeker_results(self):
        return bench_seeker.run_benchmark(seed=3, scale=0.1)

    def test_phases_and_schema(self, seeker_results):
        assert set(seeker_results) >= set(bench_seeker.PHASES)
        for numbers in seeker_results.values():
            assert set(numbers) == {"seconds", "queries_per_sec"}
            assert numbers["seconds"] >= 0
            assert numbers["queries_per_sec"] > 0
        assert json.loads(json.dumps(seeker_results)) == seeker_results

    def test_report_renders(self, seeker_results):
        assert "MC end-to-end speedup" in bench_seeker.format_report(seeker_results)

    def test_oracle_divergence_raises(self, monkeypatch):
        """The in-run parity assertion is live, not decorative."""
        from repro.core.seekers import MultiColumnSeeker

        monkeypatch.setattr(
            MultiColumnSeeker,
            "validate_batch",
            lambda self, table_ids, row_ids, context: (table_ids[:0], row_ids[:0]),
        )
        with pytest.raises(AssertionError, match="divergence"):
            bench_seeker.run_benchmark(seed=3, scale=0.1)

    def test_run_bench_cli_seeker_suite(self, tmp_path):
        from run_bench import main

        out = tmp_path / "BENCH_seeker.json"
        args = ["--suite", "seeker", "--seed", "3", "--scale", "0.1", "--output", str(out)]
        assert main(args) == 0
        payload = json.loads(out.read_text())
        assert set(payload) >= set(bench_seeker.PHASES)
        for numbers in payload.values():
            assert set(numbers) == {"seconds", "queries_per_sec"}

    def test_committed_artifact_meets_acceptance_bar(self):
        artifact = BENCHMARKS_DIR.parent / "BENCH_seeker.json"
        assert artifact.exists(), "BENCH_seeker.json must be committed (run_bench --suite seeker)"
        payload = json.loads(artifact.read_text())
        assert set(payload) >= set(bench_seeker.PHASES)
        for numbers in payload.values():
            assert set(numbers) == {"seconds", "queries_per_sec"}
        # >= 3x MC end-to-end throughput over the seed scalar phases.
        speedup = payload["mc_scalar"]["seconds"] / payload["mc"]["seconds"]
        assert speedup >= 3.0

    @pytest.mark.slow
    def test_full_scale_benchmark(self):
        """Benchmark-scale run (tier-2): the speedup holds at the
        committed artefact's lake size, not just the smoke lake."""
        results = bench_seeker.run_benchmark(seed=bench_seeker.DEFAULT_SEED, scale=1.0)
        speedup = results["mc_scalar"]["seconds"] / results["mc"]["seconds"]
        assert speedup >= 3.0


class TestMaintenanceSuite:
    """The lifecycle maintenance benchmark + its CI parity smoke."""

    @pytest.fixture(scope="class")
    def maintenance_results(self):
        return bench_maintenance.run_benchmark(seed=3, scale=0.08)

    def test_phases_and_schema(self, maintenance_results):
        assert set(maintenance_results) == set(bench_maintenance.PHASES)
        for numbers in maintenance_results.values():
            assert set(numbers) == {"seconds", "rows_per_sec"}
            assert numbers["seconds"] >= 0
            assert numbers["rows_per_sec"] > 0
        assert json.loads(json.dumps(maintenance_results)) == maintenance_results

    def test_report_renders(self, maintenance_results):
        text = bench_maintenance.format_report(maintenance_results)
        assert "maintenance" in text and "maintenance_compact" in text

    def test_committed_artifact_has_maintenance_row(self):
        payload = json.loads((BENCHMARKS_DIR.parent / "BENCH_index.json").read_text())
        assert set(payload) >= set(bench_maintenance.PHASES)
        assert payload["maintenance"]["rows_per_sec"] > 0

    def test_check_smoke_passes(self):
        summary = bench_maintenance.run_check(seed=3, scale=0.1)
        assert "lifecycle parity OK" in summary

    def test_parity_divergence_raises(self, monkeypatch):
        """The lifecycle-parity assertion is live: break deindexing and
        the smoke must fail."""
        from repro.core import system

        monkeypatch.setattr(
            system, "deindex_table", lambda table_id, db, config=None: 0
        )
        with pytest.raises(AssertionError, match="lifecycle parity violated"):
            bench_maintenance.run_check(seed=3, scale=0.1)

    def test_artifact_merge_preserves_sibling_rows(self, tmp_path, monkeypatch):
        """Suites sharing BENCH_index.json must not clobber each other."""
        import run_bench

        out = tmp_path / "BENCH_index.json"
        out.write_text(json.dumps({"build_scalar": {"seconds": 1.0, "rows_per_sec": 2.0}}))
        assert run_bench.main(
            ["--suite", "maintenance", "--seed", "3", "--scale", "0.08",
             "--output", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["build_scalar"] == {"seconds": 1.0, "rows_per_sec": 2.0}
        assert set(payload) >= set(bench_maintenance.PHASES)


class TestSnapshotSuite:
    """The snapshot benchmark (save / mmap warm start) + its CI smoke."""

    @pytest.fixture(scope="class")
    def snapshot_results(self):
        return bench_snapshot.run_benchmark(seed=3, scale=0.08)

    def test_phases_and_schema(self, snapshot_results):
        assert set(snapshot_results) == set(bench_snapshot.PHASES)
        for numbers in snapshot_results.values():
            assert set(numbers) == {"seconds", "rows_per_sec"}
            assert numbers["seconds"] >= 0
            assert numbers["rows_per_sec"] > 0
        assert json.loads(json.dumps(snapshot_results)) == snapshot_results

    def test_report_renders(self, snapshot_results):
        text = bench_snapshot.format_report(snapshot_results)
        assert "warm-start speedup" in text

    def test_committed_artifact_meets_acceptance_bar(self):
        payload = json.loads((BENCHMARKS_DIR.parent / "BENCH_index.json").read_text())
        assert set(payload) >= set(bench_snapshot.PHASES)
        # The PR's acceptance bar: mmap load >= 10x the cold
        # build on the committed bench lake (seed 71).
        speedup = (
            payload["snapshot_cold_build"]["seconds"]
            / payload["snapshot_load"]["seconds"]
        )
        assert speedup >= 10.0

    def test_check_smoke_passes(self):
        summary = bench_snapshot.run_check(seed=3, scale=0.1)
        assert "snapshot round-trip parity OK" in summary

    def test_round_trip_divergence_raises(self, monkeypatch):
        """The round-trip assertion is live: a loader that mangles the
        restored index must fail the smoke."""
        import repro.snapshot as snapshot_module

        real = snapshot_module.load_blend

        def mangled(cls, path, **kwargs):
            blend = real(cls, path, **kwargs)
            blend.db.delete_rows("AllTables", "TableId", [0])
            return blend

        monkeypatch.setattr(snapshot_module, "load_blend", mangled)
        with pytest.raises(AssertionError, match="diverge"):
            bench_snapshot.run_check(seed=3, scale=0.1)


class TestShardedSuite:
    """The scatter-gather benchmark: end-to-end on a tiny lake (asserting
    coordinator-vs-oracle parity internally) + its CI smoke."""

    @pytest.fixture(scope="class")
    def sharded_results(self):
        return bench_sharded.run_benchmark(seed=3, scale=0.08)

    def test_phases_and_schema(self, sharded_results):
        assert set(sharded_results) == set(bench_sharded.PHASES)
        for numbers in sharded_results.values():
            assert numbers["seconds"] >= 0
            assert numbers["queries_per_sec"] > 0
        assert json.loads(json.dumps(sharded_results)) == sharded_results

    def test_report_renders(self, sharded_results):
        text = bench_sharded.format_report(sharded_results)
        assert "scatter-gather over 4 shards" in text

    def test_committed_artifact_has_sharded_rows(self):
        payload = json.loads((BENCHMARKS_DIR.parent / "BENCH_serving.json").read_text())
        assert set(payload) >= set(bench_sharded.PHASES)
        for phase in bench_sharded.PHASES:
            assert payload[phase]["queries_per_sec"] > 0

    def test_check_smoke_passes(self):
        summary = bench_sharded.run_check(seed=3, scale=0.1)
        assert "scatter-gather parity OK" in summary

    def test_merge_divergence_raises(self, monkeypatch):
        """The parity assertion is live: a coordinator that silently
        drops one shard's partials from the merge must fail the smoke."""
        from repro.serving import sharded as sharded_module

        real = sharded_module.merge_partials
        monkeypatch.setattr(
            sharded_module,
            "merge_partials",
            lambda parts, k: real(parts[:-1], k) if len(parts) > 1 else real(parts, k),
        )
        with pytest.raises(AssertionError, match="diverged"):
            bench_sharded.run_check(seed=3, scale=0.1)
