"""Streaming ingest: the base+delta write path.

Headline invariants:

* mutations on a loaded deployment never touch the base snapshot's
  memory-mapped arrays (no promote-to-private-copy -- N workers keep
  sharing one on-disk base forever),
* every table is an immutable base plus a delta -- in memory as after a
  load -- and every read over base ∪ delta is byte-identical to a
  from-scratch build of the final lake (the rebuild-parity matrix),
* ``save()`` against the base is incremental -- it writes only the
  per-slot diff (``delta.json`` + payloads) and round-trips exactly,
* ``load(delta=False)`` recovers the bare base without reading a byte
  of the delta layer.
"""

import random
from pathlib import Path

import numpy as np
import pytest

from oracles.stats_scan import lake_statistics

from repro import Blend, Database, Table
from repro.core.seekers import SeekerContext
from repro.errors import BlendError, SnapshotError
from repro.index import IndexConfig, build_alltables
from repro.lake.generators import CorpusConfig, generate_corpus
from repro.snapshot import read_delta_manifest, read_manifest

from tests.index.test_snapshot import (
    BACKEND_HASH,
    _query_seekers,
    _random_table,
    _results,
    _storage_identical,
)


def _lake(seed: int, num_tables: int = 12):
    return generate_corpus(
        CorpusConfig(
            name=f"delta{seed}",
            num_tables=num_tables,
            min_rows=5,
            max_rows=20,
            seed=seed,
        )
    )


def _mutate(blend: Blend, rng: random.Random, rounds: int = 8) -> None:
    counter = 0
    for _ in range(rounds):
        live = blend.lake.table_ids()
        op = rng.choice(["add", "remove", "replace"])
        if op == "add" or len(live) <= 4:
            counter += 1
            blend.add_table(_random_table(rng, f"dmut{counter}{rng.randint(0, 999)}"))
        elif op == "remove":
            blend.remove_table(rng.choice(live))
        else:
            counter += 1
            blend.replace_table(
                rng.choice(live), _random_table(rng, f"drep{counter}{rng.randint(0, 999)}")
            )


# --------------------------------------------------------------------------
# The base never stops being a shared read-only memmap
# --------------------------------------------------------------------------


def test_mutations_never_promote_the_base(tmp_path):
    """Arbitrary lifecycle mutations leave every base array exactly the
    memory-mapped object the load produced -- the delta path appends
    beside the base instead of copying it."""
    blend = Blend(_lake(3), backend="column")
    blend.build_index()
    path = blend.save(tmp_path / "snap")
    loaded = Blend.load(path)

    storage = loaded.db.table("AllTables")
    base_before = storage._seal()
    base_arrays = [
        arr
        for column in base_before
        for arr in (column.codes, column.data, column.null)
        if arr is not None
    ]
    assert base_arrays and all(isinstance(arr, np.memmap) for arr in base_arrays)

    rng = random.Random(5)
    _mutate(loaded, rng, rounds=10)

    stats = loaded.delta_stats()
    assert stats["delta_rows"] > 0 or stats["deleted_rows"] > 0
    base_after = storage._seal()
    for before, after in zip(base_before, base_after):
        for name in ("codes", "data", "null"):
            old_arr = getattr(before, name)
            if old_arr is not None:
                # same object: never copied, never replaced
                assert getattr(after, name) is old_arr
    # ... and never written through: bytes on disk are untouched.
    manifest = read_manifest(path)
    import zlib

    for rel, record in manifest["files"].items():
        assert record["crc32"] == zlib.crc32((path / rel).read_bytes()), rel


# --------------------------------------------------------------------------
# Base ∪ delta parity with a from-scratch build, then incremental save
# --------------------------------------------------------------------------


@pytest.mark.parametrize("backend,hash_size", BACKEND_HASH)
@pytest.mark.parametrize("seed", [41, 59])
def test_incremental_save_round_trip_parity(backend, hash_size, seed, tmp_path):
    """build -> save -> load -> random mutation stream -> incremental
    save -> reload: every stage serves results identical to a
    from-scratch build of the final lake, and compaction converges to
    byte-identical storage."""
    rng = random.Random(seed * 13 + hash_size)
    config = IndexConfig(hash_size=hash_size)
    blend = Blend(_lake(seed), backend=backend, index_config=config)
    blend.build_index()

    path = blend.save(tmp_path / "snap")
    manifest_bytes = (Path(path) / "manifest.json").read_bytes()
    loaded = Blend.load(path)
    _mutate(loaded, rng)

    # Incremental: the save is a delta beside an unchanged base manifest.
    assert loaded.save(path) == path
    assert (Path(path) / "manifest.json").read_bytes() == manifest_bytes
    assert read_delta_manifest(path) is not None

    reloaded = Blend.load(path)
    assert reloaded.lake.table_ids() == loaded.lake.table_ids()
    assert reloaded.lake.generation == loaded.lake.generation
    seekers = _query_seekers(reloaded.lake)
    assert _results(reloaded.context(), seekers) == _results(loaded.context(), seekers)

    fresh_db = Database(backend=backend)
    build_alltables(reloaded.lake, fresh_db, config)
    fresh_context = SeekerContext(db=fresh_db, lake=reloaded.lake, hash_size=hash_size)
    assert _results(reloaded.context(), seekers) == _results(fresh_context, seekers)

    sql = "SELECT * FROM AllTables"
    assert sorted(reloaded.db.execute(sql).rows) == sorted(fresh_db.execute(sql).rows)
    reloaded.compact_index()
    assert reloaded.db.execute(sql).rows == fresh_db.execute(sql).rows
    _storage_identical(reloaded.db, fresh_db, "AllTables")
    assert reloaded.stats == lake_statistics(reloaded.lake)

    # The bare base is still recoverable, bit-for-bit.
    base_only = Blend.load(path, delta=False)
    original = Blend(_lake(seed), backend=backend, index_config=config)
    original.build_index()
    assert sorted(base_only.db.execute(sql).rows) == sorted(
        original.db.execute(sql).rows
    )


def test_repeated_delta_saves_supersede_payloads(tmp_path):
    """Each save rewrites the full diff-from-base; payloads no earlier
    manifest references are collected, and replaying always lands on the
    writer's exact lake."""
    blend = Blend(_lake(7, num_tables=6), backend="column")
    blend.build_index()
    path = blend.save(tmp_path / "snap")
    loaded = Blend.load(path)

    added = loaded.add_table(Table("wave1", ["a"], [("x",), ("y",)]))
    loaded.save(path)
    first = {p.name for p in (path / "delta").glob("*.pkl")}
    assert len(first) == 1

    loaded.replace_table(added, Table("wave1", ["a"], [("z",)]))
    loaded.remove_table(loaded.lake.table_ids()[0])
    loaded.save(path)
    second = {p.name for p in (path / "delta").glob("*.pkl")}
    assert len(second) == 1 and not (first & second)  # superseded payload gone

    reloaded = Blend.load(path)
    assert reloaded.lake.table_ids() == loaded.lake.table_ids()
    sql = "SELECT * FROM AllTables"
    assert sorted(reloaded.db.execute(sql).rows) == sorted(loaded.db.execute(sql).rows)

    # A reloaded deployment is itself a first-class delta writer.
    reloaded.add_table(Table("wave2", ["b"], [("w",)]))
    reloaded.save(path)
    final = Blend.load(path)
    assert final.lake.table_ids() == reloaded.lake.table_ids()


def test_delta_stats_tracks_churn(tmp_path):
    blend = Blend(_lake(9, num_tables=6), backend="column")
    blend.build_index()
    assert set(blend.delta_stats()) == {
        "base_rows",
        "delta_rows",
        "deleted_rows",
        "delta_fraction",
    }
    assert blend.delta_stats()["delta_fraction"] == 0.0
    path = blend.save(tmp_path / "snap")
    loaded = Blend.load(path)
    assert loaded.delta_stats()["delta_fraction"] == 0.0
    loaded.add_table(Table("churn", ["a"], [(f"c{i}",) for i in range(9)]))
    stats = loaded.delta_stats()
    assert stats["delta_rows"] == 9
    assert 0.0 < stats["delta_fraction"] < 1.0


@pytest.mark.parametrize("shuffle", [False, True])
def test_in_memory_appends_land_in_the_delta(shuffle):
    """An in-memory deployment follows the one storage model: the build
    seals one base segment, later appends never rewrite it, and
    compaction folds base + delta into storage byte-identical to a fresh
    build of the final lake."""
    config = IndexConfig(shuffle_rows=shuffle, shuffle_seed=3)
    blend = Blend(_lake(31, num_tables=8), backend="column", index_config=config)
    blend.build_index()
    storage = blend.db.table("AllTables")
    base = storage._seal()
    assert storage._delta is None
    arrays = [
        (column, name, getattr(column, name))
        for column in base
        for name in ("codes", "data", "null")
        if getattr(column, name) is not None
    ]
    base_rows = blend.delta_stats()["base_rows"]

    added = blend.add_table(Table("late", ["a", "b"], [(f"z{i}", i) for i in range(7)]))
    blend.remove_table(0)
    blend.replace_table(added, Table("later", ["a"], [("y",), ("x",), (None,)]))
    stats = storage.delta_stats()
    assert stats["base_rows"] == base_rows
    assert stats["delta_rows"] == 14 + 2
    assert stats["deleted_rows"] > 14
    assert storage._seal() is base
    for column, name, array in arrays:
        assert getattr(column, name) is array

    fresh = Database(backend="column")
    build_alltables(blend.lake, fresh, config)
    sql = "SELECT * FROM AllTables"
    assert sorted(blend.db.execute(sql).rows) == sorted(fresh.execute(sql).rows)
    blend.compact_index()
    assert storage._delta is None
    assert blend.delta_stats()["delta_fraction"] == 0.0
    assert blend.db.execute(sql).rows == fresh.execute(sql).rows
    _storage_identical(blend.db, fresh, "AllTables")


# --------------------------------------------------------------------------
# Guard rails around the incremental writer
# --------------------------------------------------------------------------


def test_save_delta_requires_a_base(tmp_path):
    blend = Blend(_lake(11, num_tables=4), backend="column")
    blend.build_index()
    with pytest.raises(BlendError, match="no base snapshot"):
        blend.save_delta()
    with pytest.raises(BlendError, match="incremental must be"):
        blend.save(tmp_path / "snap", incremental="always")


def test_save_delta_refuses_foreign_directory(tmp_path):
    blend = Blend(_lake(13, num_tables=4), backend="column")
    blend.build_index()
    blend.save(tmp_path / "snap")
    other = Blend(_lake(15, num_tables=4), backend="column")
    other.build_index()
    other.save(tmp_path / "other")
    with pytest.raises(SnapshotError, match="not.*loaded from"):
        blend.save_delta(tmp_path / "other")


def test_save_delta_refuses_changed_base(tmp_path):
    blend = Blend(_lake(17, num_tables=4), backend="column")
    blend.build_index()
    path = blend.save(tmp_path / "snap")
    loaded = Blend.load(path)
    loaded.add_table(Table("late", ["a"], [("v",)]))

    usurper = Blend(_lake(19, num_tables=4), backend="column")
    usurper.build_index()
    usurper.save(path, overwrite=True)

    with pytest.raises(SnapshotError, match="changed since"):
        loaded.save_delta()


# --------------------------------------------------------------------------
# Atomic full-save replace
# --------------------------------------------------------------------------


def test_overwrite_replaces_snapshot_atomically(tmp_path):
    first = Blend(_lake(25, num_tables=4), backend="column")
    first.build_index()
    path = first.save(tmp_path / "snap")
    first_id = read_manifest(path)["snapshot_id"]

    second = Blend(_lake(27, num_tables=5), backend="column")
    second.build_index()
    with pytest.raises(SnapshotError, match="non-empty"):
        second.save(path)
    second.save(path, overwrite=True)

    manifest = read_manifest(path)
    assert manifest["snapshot_id"] != first_id
    # no staging/retired residue beside the target
    assert [p.name for p in tmp_path.iterdir()] == ["snap"]
    loaded = Blend.load(path)
    assert loaded.lake.table_ids() == second.lake.table_ids()
    sql = "SELECT * FROM AllTables"
    assert sorted(loaded.db.execute(sql).rows) == sorted(second.db.execute(sql).rows)


def test_overwrite_replace_drops_stale_delta(tmp_path):
    """A full overwrite-save starts a clean generation: the old delta
    layer must not survive to be replayed over the new base."""
    blend = Blend(_lake(29, num_tables=4), backend="column")
    blend.build_index()
    path = blend.save(tmp_path / "snap")
    loaded = Blend.load(path)
    loaded.add_table(Table("late", ["a"], [("v",)]))
    loaded.save(path)
    assert read_delta_manifest(path) is not None

    loaded.save(path, overwrite=True, incremental="never")
    assert read_delta_manifest(path) is None
    reloaded = Blend.load(path)
    assert reloaded.lake.table_ids() == loaded.lake.table_ids()
