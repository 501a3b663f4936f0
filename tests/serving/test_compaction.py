"""Background compaction: the delta layer folds into a fresh base
generation and reaches the serving tier through the existing hot-swap /
per-shard routing -- with zero failed requests and answers byte-identical
to a from-scratch build of the final lake."""

import random
import threading
import time

import pytest

from repro import Blend, DataLake, Seekers, Table
from repro.errors import ReadOnlyDeploymentError, ServingError
from repro.serving import (
    BatchScheduler,
    DeploymentManager,
    ShardCoordinator,
    SnapshotCompactor,
    compact_snapshot,
)
from repro.snapshot import read_delta_manifest, save_sharded

from tests.serving.conftest import build_blend

EXTRA_ROWS = [
    ["zanzibar", "tanzania", 5],
    ["berlin", "germany", 7],
    ["paris", "france", 9],
] * 4


def _queries():
    return [
        Seekers.SC(["berlin", "paris", "zanzibar"], k=6),
        Seekers.KW(["tanzania", "germany"], k=5),
        Seekers.MC([("berlin", "germany"), ("zanzibar", "tanzania")], k=6),
    ]


def _served_with_delta(tmp_path):
    """A deployment loaded from disk with live mutations on top."""
    blend = build_blend(seed=31)
    path = blend.save(tmp_path / "base")
    served = Blend.load(path)
    served.add_table(Table("extra", ["city", "country", "pop"], EXTRA_ROWS))
    served.remove_table(served.lake.table_ids()[0])
    return served, path


def test_compact_snapshot_rebuilds_clean_generation(tmp_path):
    served, path = _served_with_delta(tmp_path)
    served.save_delta()
    compacted = compact_snapshot(path, tmp_path / "gen")
    assert compacted.delta_stats()["delta_fraction"] == 0.0
    assert read_delta_manifest(tmp_path / "gen") is None
    assert compacted.lake.table_ids() == served.lake.table_ids()

    fresh = Blend(DataLake("oracle"), backend="column")
    for table_id in served.lake.table_ids():
        fresh.lake.add_at(table_id, served.lake.by_id(table_id))
    fresh.build_index()
    for query in _queries():
        assert list(query.execute(compacted.context())) == list(
            query.execute(fresh.context())
        )
    # The compacted deployment keeps ingesting: its base is the new dir.
    assert compacted._snapshot_base.path == str((tmp_path / "gen").resolve())


def test_compactor_threshold_and_swap(tmp_path):
    served, path = _served_with_delta(tmp_path)
    manager = DeploymentManager(served)
    compactor = SnapshotCompactor(manager, tmp_path / "gens", threshold=0.99)
    assert 0.0 < served.delta_stats()["delta_fraction"] < 0.99
    assert compactor.compact_once() is None  # below threshold

    report = compactor.compact_once(force=True)
    assert report is not None and report.swap is not None and report.swap.drained
    assert report.destination.endswith("gen-0001")
    current = manager.current().blend
    assert current is not served
    assert current.delta_stats()["delta_fraction"] == 0.0
    assert current.lake.table_ids() == served.lake.table_ids()
    assert compactor.reports == [report]

    # Next cycle numbers the following generation. The served current is
    # read-only, so new state arrives the documented way: a writer over
    # the same snapshot, save_delta, load, swap.
    more = Table("more", ["city", "country", "pop"], EXTRA_ROWS)
    with pytest.raises(ReadOnlyDeploymentError):
        current.add_table(more)
    writer = Blend.load(report.destination)
    writer.add_table(more)
    writer.save_delta()
    manager.swap(Blend.load(report.destination))
    report2 = compactor.compact_once(force=True)
    assert report2.destination.endswith("gen-0002")
    assert report2.source.endswith("gen-0001")
    assert "more" in manager.current().blend.lake


def test_compactor_refuses_baseless_deployment(tmp_path):
    manager = DeploymentManager(build_blend(seed=37))
    compactor = SnapshotCompactor(manager, tmp_path / "gens")
    with pytest.raises(ServingError, match="no base snapshot"):
        compactor.compact_once(force=True)
    with pytest.raises(ServingError, match="threshold"):
        SnapshotCompactor(manager, tmp_path / "gens", threshold=0.0)


def test_compactor_discards_superseded_rebuild(tmp_path):
    """If another swap lands while a cycle is rebuilding, the stale
    rebuild must be discarded, never deployed over the newer state."""
    served, path = _served_with_delta(tmp_path)
    manager = DeploymentManager(served)
    compactor = SnapshotCompactor(manager, tmp_path / "gens", threshold=0.01)

    interloper = build_blend(seed=41)
    original_swap = manager.swap

    def racing_swap(blend):
        # runs inside compact_once, after the rebuild: simulate the race
        # by checking the guard fired instead.
        raise AssertionError("swap must not be reached once superseded")

    # Supersede mid-cycle: flip the manager right after the delta save by
    # patching compact_snapshot's entry point via the manager pointer.
    import repro.serving.compaction as compaction_module

    real_compact = compaction_module.compact_snapshot

    def compact_and_supersede(source, destination, **kwargs):
        result = real_compact(source, destination, **kwargs)
        original_swap(interloper)
        return result

    compaction_module.compact_snapshot = compact_and_supersede
    try:
        manager.swap = racing_swap
        assert compactor.compact_once(force=True) is None
    finally:
        compaction_module.compact_snapshot = real_compact
        manager.swap = original_swap
    assert manager.current().blend is interloper
    assert not (tmp_path / "gens" / "gen-0001").exists()  # rebuild discarded


def test_compaction_under_sustained_load_zero_failures(tmp_path):
    """The acceptance bar: a full compaction cycle (delta save, rebuild,
    hot-swap) under concurrent query load completes with zero failed
    requests, and every post-compaction answer matches the pre-compaction
    deployment."""
    served, path = _served_with_delta(tmp_path)
    expected = {q.kind: list(q.execute(served.context())) for q in _queries()}
    manager = DeploymentManager(served)
    compactor = SnapshotCompactor(manager, tmp_path / "gens", threshold=0.01)
    failures: list[str] = []
    answered = [0]
    stop = threading.Event()

    with BatchScheduler(
        manager, workers=3, max_batch=16
    ) as scheduler:

        def load(worker_id: int) -> None:
            i = worker_id
            while not stop.is_set():
                queries = _queries()
                query = queries[i % len(queries)]
                try:
                    outcome = scheduler.execute(query)
                except Exception as exc:  # pragma: no cover - assertion target
                    failures.append(f"{query.kind}: {type(exc).__name__}: {exc}")
                    continue
                answered[0] += 1
                if list(outcome.result) != expected[query.kind]:
                    failures.append(f"{query.kind} diverged mid-compaction")
                i += 1

        threads = [threading.Thread(target=load, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.15)
        report = compactor.compact_once(force=True)
        time.sleep(0.15)
        stop.set()
        for t in threads:
            t.join()

    assert failures == []
    assert report is not None and report.swap is not None and report.swap.drained
    assert answered[0] > 0
    # Post-swap the compacted generation serves identical answers.
    for query in _queries():
        assert list(query.execute(manager.current().blend.context())) == (
            expected[query.kind]
        )


# --------------------------------------------------------------------------
# Sharded: per-shard compaction, independent flips
# --------------------------------------------------------------------------


def _sharded_with_mutations(tmp_path, num_shards=3):
    """A sharded deployment and a solo Blend driven through the same
    seeded mutations."""
    solo = build_blend(seed=43, tables=12)
    root = tmp_path / "shards"
    save_sharded(solo, root, num_shards=num_shards)
    coordinator = ShardCoordinator.load(root)
    rng = random.Random(7)
    extra = Table("extra", ["city", "country", "pop"], EXTRA_ROWS)
    assert coordinator.add_table(extra) == solo.add_table(extra)
    victim = rng.choice(coordinator.table_ids())
    coordinator.remove_table(victim)
    solo.remove_table(victim)
    victim = rng.choice(coordinator.table_ids())
    replacement = Table(f"swap{victim}", ["city", "country", "pop"], EXTRA_ROWS[:6])
    coordinator.replace_table(victim, replacement)
    solo.replace_table(victim, replacement)
    return coordinator, solo


def _solo_oracle(solo: Blend) -> Blend:
    """A from-scratch build of *solo*'s current lake."""
    oracle = Blend(DataLake("oracle"), backend="column")
    for table_id in solo.lake.table_ids():
        oracle.lake.add_at(table_id, solo.lake.by_id(table_id))
    oracle.build_index()
    return oracle


def test_compact_shard_parity_and_independence(tmp_path):
    coordinator, solo = _sharded_with_mutations(tmp_path)
    try:
        before = {
            q.kind: list(coordinator.execute(q)) for q in _queries()
        }
        generation = coordinator.generation
        # Compact every shard, one at a time -- each flips independently.
        for shard in range(coordinator.num_shards):
            stats = coordinator.shard_delta_stats(shard)
            assert stats["base_rows"] > 0
            coordinator.compact_shard(shard, tmp_path / f"gen1-shard{shard}")
            assert coordinator.shard_delta_stats(shard)["delta_fraction"] == 0.0
        assert coordinator.generation > generation
        after = {q.kind: list(coordinator.execute(q)) for q in _queries()}
        assert after == before

        assert coordinator.table_ids() == solo.lake.table_ids()
        oracle = _solo_oracle(solo)
        for query in _queries():
            assert list(coordinator.execute(query)) == list(
                query.execute(oracle.context())
            )

        # Compacted shards keep taking lifecycle ops and delta saves.
        post = Table("post", ["city", "country", "pop"], EXTRA_ROWS[:3])
        assert coordinator.add_table(post) == solo.add_table(post)
        oracle2 = _solo_oracle(solo)
        for query in _queries():
            assert list(coordinator.execute(query)) == list(
                query.execute(oracle2.context())
            )
    finally:
        coordinator.close()


def test_compact_shard_validates_shard_index(tmp_path):
    coordinator, _ = _sharded_with_mutations(tmp_path, num_shards=2)
    try:
        with pytest.raises(ServingError, match="no such shard"):
            coordinator.compact_shard(9, tmp_path / "nope")
        with pytest.raises(ServingError, match="no such shard"):
            coordinator.shard_delta_stats(-1)
    finally:
        coordinator.close()
