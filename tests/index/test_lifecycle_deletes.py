"""Lifecycle deletes go through the ``TableId`` postings.

``remove_table`` / ``replace_table`` delete one table's ``AllTables``
rows with ``TableId IN (id)``. ``TableId`` is indexed, so on the column
store the delete tombstones the positions its postings name: no scan of
``AllTables`` and no seal of the growing delta, even when the rows are
still in the unsealed backlog. The first read afterwards seals once.
Whatever the path, the result must equal a fresh build after
compaction and survive a full or incremental save.
"""

import random

import pytest

from oracles.stats_scan import lake_statistics

from repro import Blend, Database
from repro.core.seekers import SeekerContext
from repro.engine.storage import column_store
from repro.engine.storage.column_store import ColumnTable
from repro.index import IndexConfig, build_alltables

from tests.index.test_snapshot import (
    _lake,
    _query_seekers,
    _random_table,
    _results,
    _storage_identical,
)


@pytest.fixture
def calls(monkeypatch):
    """Counts of storage scans and backlog merges, by function name."""
    counts = {"_merge_batches": 0, "_storage_isin_all": 0}
    merge = column_store._merge_batches
    scan = ColumnTable._storage_isin_all

    def counted_merge(*args, **kwargs):
        counts["_merge_batches"] += 1
        return merge(*args, **kwargs)

    def counted_scan(*args, **kwargs):
        counts["_storage_isin_all"] += 1
        return scan(*args, **kwargs)

    monkeypatch.setattr(column_store, "_merge_batches", counted_merge)
    monkeypatch.setattr(ColumnTable, "_storage_isin_all", counted_scan)
    return counts


def _stream(blend: Blend, rng: random.Random, ops: int = 12) -> None:
    """Adds, replaces and removes -- of static tables and of tables the
    stream itself added -- with no read in between."""
    static = blend.lake.table_ids()
    added = []
    for step in range(ops):
        op = ("add", "replace", "remove")[step % 3]
        if op == "add" or not added:
            added.append(blend.add_table(_random_table(rng, f"life{step}")))
            continue
        pool = static if rng.random() < 0.5 and static else added
        table_id = pool.pop(rng.randrange(len(pool)))
        if op == "replace":
            blend.replace_table(table_id, _random_table(rng, f"life{step}r"))
            added.append(table_id)
        else:
            blend.remove_table(table_id)


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
def test_lifecycle_stream_neither_scans_nor_seals(loaded, calls, tmp_path):
    blend = Blend(_lake(5), backend="column")
    blend.build_index()
    if loaded:
        blend = Blend.load(blend.save(tmp_path / "snap"))
        blend.warm()
    calls.update(_merge_batches=0, _storage_isin_all=0)
    _stream(blend, random.Random(17))
    assert calls == {"_merge_batches": 0, "_storage_isin_all": 0}
    assert blend.db.table("AllTables")._backlog  # nothing was sealed

    seekers = _query_seekers(blend.lake)
    first = _results(blend.context(), seekers)
    assert calls["_merge_batches"] == 1  # the first read seals once
    assert _results(blend.context(), seekers) == first
    assert calls["_merge_batches"] == 1


@pytest.mark.parametrize("backend", ["row", "column"])
@pytest.mark.parametrize("op", ["remove", "replace"])
def test_table_dropped_before_any_read_matches_fresh_build(backend, op, tmp_path):
    """A table added and then removed or replaced before anything reads
    it -- its rows die in the unsealed backlog -- on a built and on a
    loaded deployment, then through a full save and an incremental
    save, each checked against a fresh build of its final lake."""
    config = IndexConfig()
    built = Blend(_lake(9), backend=backend, index_config=config)
    built.build_index()
    path = built.save(tmp_path / "snap")
    loaded = Blend.load(path)
    for blend in (built, loaded):
        rng = random.Random(23)
        churned = blend.add_table(_random_table(rng, "churn"))
        kept = blend.add_table(_random_table(rng, "kept"))
        static = blend.lake.table_ids()[0]
        if op == "remove":
            blend.remove_table(churned)
            blend.remove_table(static)
        else:
            blend.replace_table(churned, _random_table(rng, "churn2"))
            blend.replace_table(static, _random_table(rng, "static2"))
        assert kept in blend.lake.table_ids()
    assert built.lake.table_ids() == loaded.lake.table_ids()

    loaded.save_delta()
    replayed = Blend.load(path)
    restarted = Blend.load(built.save(tmp_path / "full"))
    seekers = _query_seekers(built.lake)
    sql = "SELECT * FROM AllTables"
    for blend in (built, loaded, replayed, restarted):
        fresh_db = Database(backend=backend)
        build_alltables(blend.lake, fresh_db, config)
        fresh = SeekerContext(db=fresh_db, lake=blend.lake, hash_size=config.hash_size)
        assert _results(blend.context(), seekers) == _results(fresh, seekers)
        assert sorted(blend.db.execute(sql).rows) == sorted(fresh_db.execute(sql).rows)
        blend.compact_index()
        _storage_identical(blend.db, fresh_db, "AllTables")
        assert blend.stats == lake_statistics(blend.lake)


@pytest.mark.parametrize("backend", ["row", "column"])
def test_removed_table_object_readded_matches_fresh_build(backend):
    """``remove_table`` hands back the ``Table``; edited with ``set_cell``
    and added again, the same object is tokenised afresh, so the index
    carries the edit and equals a fresh build of the final lake."""
    config = IndexConfig()
    blend = Blend(_lake(9), backend=backend, index_config=config)
    blend.build_index()
    removed = blend.remove_table(blend.lake.table_ids()[0])
    removed.set_cell(0, 0, "  Readded VALUE ")
    table_id = blend.add_table(removed)

    hits = blend.db.execute(
        "SELECT TableId FROM AllTables WHERE CellValue = 'readded value'"
    ).rows
    assert [tuple(row) for row in hits] == [(table_id,)]
    fresh_db = Database(backend=backend)
    build_alltables(blend.lake, fresh_db, config)
    fresh = SeekerContext(db=fresh_db, lake=blend.lake, hash_size=config.hash_size)
    seekers = _query_seekers(blend.lake)
    assert _results(blend.context(), seekers) == _results(fresh, seekers)
    sql = "SELECT * FROM AllTables"
    assert sorted(blend.db.execute(sql).rows) == sorted(fresh_db.execute(sql).rows)
    assert blend.stats == lake_statistics(blend.lake)
