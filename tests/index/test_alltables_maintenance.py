"""Randomized lifecycle property suite for index maintenance.

The headline invariant of the mutable-lake refactor: after ANY
interleaving of ``add_table`` / ``remove_table`` / ``replace_table``,

* every seeker (SC / KW / MC / correlation) returns results identical to
  a from-scratch ``build_alltables`` over the final lake state, on both
  storage backends and both hash widths, and
* after compaction, the stored ``AllTables`` relation is byte-identical
  to the fresh build (same sealed arrays / rows, same re-encoded text
  dictionaries, same index postings),

plus the guard rails around it: stale contexts raise
``StaleContextError`` instead of silently serving dead table ids,
deletes never compact on their own, ``shuffle_rows`` (BLEND (rand)) configs
are maintainable via the per-table seeded permutation, and raw
``index_table`` / ``reindex_table`` / ``deindex_table`` streams agree
with the scalar oracle (``tests/oracles/alltables_scalar.py``).
"""

import random

import pytest
from oracles.alltables_scalar import alltables_rows, build_alltables_scalar, index_table_scalar
from oracles.stats_scan import lake_statistics

from repro import Blend
from repro.core.seekers import SeekerContext, Seekers
from repro.engine import Database
from repro.engine.storage.column_store import ColumnTable
from repro.errors import IndexingError, LakeError, StaleContextError
from repro.index import IndexConfig, build_alltables, deindex_table, index_table, reindex_table
from repro.lake import DataLake, Table
from repro.lake.generators import CorpusConfig, generate_corpus


def _base_lake(seed: int):
    return generate_corpus(
        CorpusConfig(
            name=f"maint{seed}", num_tables=16, min_rows=6, max_rows=24, seed=seed
        )
    )


def _random_table(rng: random.Random, name: str) -> Table:
    """A small mixed-type table (text keys, numeric column, some NULLs
    and bool/int-duality hazards)."""
    num_rows = rng.randint(3, 12)
    rows = []
    for i in range(num_rows):
        key = f"k{rng.randint(0, 30)}"
        num = rng.choice([rng.randint(0, 50), rng.random() * 10, 0, 1, None])
        extra = rng.choice(["shared", "x", True, False, None, f"tok{rng.randint(0, 9)}"])
        rows.append((key, num, extra))
    return Table(name, ["key", "num", "extra"], rows)


def _mutate(blend: Blend, rng: random.Random, ops: int, tag: str) -> None:
    """Apply a random interleaving of lifecycle operations."""
    counter = 0
    for _ in range(ops):
        live = blend.lake.table_ids()
        op = rng.choice(["add", "remove", "replace"])
        if op == "add" or len(live) <= 4:
            counter += 1
            blend.add_table(_random_table(rng, f"{tag}_add{counter}"))
        elif op == "remove":
            blend.remove_table(rng.choice(live))
        else:
            counter += 1
            blend.replace_table(
                rng.choice(live), _random_table(rng, f"{tag}_repl{counter}")
            )


def _query_seekers(lake):
    """One seeker per template, built from a surviving lake table."""
    table = lake.by_id(lake.table_ids()[0])
    values = [v for v in table.column_values(table.columns[0]) if v is not None]
    seekers = {
        "SC": Seekers.SC(values[:8], k=10),
        "KW": Seekers.KW(values[:8], k=10),
    }
    wide = [r[:2] for r in table.rows if all(v is not None for v in r[:2])]
    if table.num_columns >= 2 and len(wide) >= 2:
        seekers["MC"] = Seekers.MC(wide[:6], k=10)
    flags = table.numeric_columns()
    if any(flags) and not all(flags):
        seekers["C"] = Seekers.Correlation(
            table.column_values(table.columns[flags.index(False)]),
            table.column_values(table.columns[flags.index(True)]),
            k=10,
            min_support=2,
        )
    return seekers


def _results(context, seekers) -> dict:
    return {
        kind: [(hit.table_id, hit.score) for hit in seeker.execute(context)]
        for kind, seeker in seekers.items()
    }


def _column_storage_state(table: ColumnTable) -> list[tuple]:
    """Byte-level fingerprint of a column table's sealed storage."""
    state = []
    for column in table._seal():
        state.append(
            (
                None if column.codes is None else (column.codes.dtype.str, column.codes.tolist()),
                None if column.dictionary is None else list(column.dictionary),
                None if column.data is None else (column.data.dtype.str, column.data.tolist()),
                None if column.null is None else column.null.tolist(),
            )
        )
    return state


def _index_state(db: Database, table_name: str, columns) -> dict:
    """Materialised secondary-index postings, forced fresh."""
    table = db.table(table_name)
    state = {}
    for column in columns:
        table.index_lookup(column, [])  # forces lazy materialisation
        postings = table._indexes[column.lower()]
        state[column] = {
            value: list(positions) for value, positions in postings.items()
        }
    return state


@pytest.mark.parametrize(
    "backend,hash_size,shuffle",
    [
        ("row", 63, False),
        ("row", 128, False),
        ("column", 63, False),
        # BLEND (rand): the per-table seeded permutation makes shuffled
        # configs maintainable -- same invariant, shuffled RowIds.
        ("row", 128, True),
        ("column", 63, True),
    ],
)
@pytest.mark.parametrize("seed", [11, 47])
def test_lifecycle_rebuild_parity(backend, hash_size, shuffle, seed):
    """Random add/remove/replace sequences preserve seeker parity with a
    from-scratch build; post-compaction storage is byte-identical."""
    rng = random.Random(seed * 1000 + hash_size)
    config = IndexConfig(hash_size=hash_size, shuffle_rows=shuffle, shuffle_seed=5)
    blend = Blend(_base_lake(seed), backend=backend, index_config=config)
    blend.build_index()
    stale_context = blend.context()

    _mutate(blend, rng, ops=10, tag=f"{backend}{hash_size}s{seed}")

    # Stale contexts must refuse, not silently serve dead ids.
    seekers = _query_seekers(blend.lake)
    with pytest.raises(StaleContextError):
        next(iter(seekers.values())).execute(stale_context)

    # From-scratch build over the final lake state.
    fresh_db = Database(backend=backend)
    build_alltables(blend.lake, fresh_db, config)
    fresh_context = SeekerContext(
        db=fresh_db, lake=blend.lake, hash_size=hash_size
    )

    maintained = _results(blend.context(), seekers)
    rebuilt = _results(fresh_context, seekers)
    assert maintained == rebuilt

    # Same logical row SET even before compaction...
    sql = "SELECT * FROM AllTables"
    assert sorted(blend.db.execute(sql).rows) == sorted(fresh_db.execute(sql).rows)

    # ...and byte-identical storage after it.
    blend.compact_index()
    assert blend.db.execute(sql).rows == fresh_db.execute(sql).rows
    if backend == "column":
        assert _column_storage_state(blend.db.table("AllTables")) == (
            _column_storage_state(fresh_db.table("AllTables"))
        )
    else:
        assert blend.db.table("AllTables")._rows == fresh_db.table("AllTables")._rows
    assert _index_state(blend.db, "AllTables", ["CellValue", "TableId"]) == (
        _index_state(fresh_db, "AllTables", ["CellValue", "TableId"])
    )

    # Statistics stayed exact through the whole interleaving.
    fresh_stats = lake_statistics(blend.lake)
    assert blend.stats == fresh_stats


@pytest.mark.parametrize(
    "backend,hash_size,shuffle",
    [("row", 128, False), ("column", 63, False), ("column", 63, True)],
)
def test_maintenance_stream_matches_oracle(backend, hash_size, shuffle):
    """An add / replace / remove stream through ``index_table`` /
    ``reindex_table`` / ``deindex_table`` leaves exactly the relation the
    scalar oracle leaves under the same stream (same physical order),
    and the same row set as an oracle rebuild of the final lake."""
    config = IndexConfig(hash_size=hash_size, shuffle_rows=shuffle, shuffle_seed=9)
    lake = _base_lake(3)
    db, oracle_db = Database(backend=backend), Database(backend=backend)
    build_alltables(lake, db, config)
    build_alltables_scalar(lake, oracle_db, config)
    rng = random.Random(99)
    for step in range(8):
        live = lake.table_ids()
        op = rng.choice(["add", "replace", "remove"])
        if op == "add":
            table = _random_table(rng, f"stream_add{step}")
            table_id = lake.add(table)
            added = index_table(table_id, table, db, config)
            assert added == index_table_scalar(table_id, table, oracle_db, config)
        elif op == "replace":
            table_id = rng.choice(live)
            table = _random_table(rng, f"stream_repl{step}")
            lake.replace(table_id, table)
            removed, added = reindex_table(table_id, table, db, config)
            assert removed == oracle_db.delete_rows("AllTables", "TableId", [table_id])
            assert added == index_table_scalar(table_id, table, oracle_db, config)
        else:
            table_id = rng.choice(live)
            lake.remove(table_id)
            removed = deindex_table(table_id, db, config)
            assert removed == oracle_db.delete_rows("AllTables", "TableId", [table_id])
    sql = "SELECT * FROM AllTables"
    assert db.execute(sql).rows == oracle_db.execute(sql).rows
    assert sorted(db.execute(sql).rows) == sorted(alltables_rows(lake, config, backend)[0])


@pytest.mark.parametrize("backend", ["row", "column"])
@pytest.mark.parametrize("loaded", [False, True])
def test_mass_removal_never_compacts(backend, loaded, tmp_path):
    """Removing >= 90 % of the tables only tombstones: no delete rewrites
    storage on either backend, in memory or loaded from a snapshot, and
    answers still equal a from-scratch build until an explicit
    compact_index() folds the tombstones away."""
    lake = DataLake("mass")
    for i in range(20):
        lake.add(Table(f"t{i}", ["a", "b"], [(f"v{i}_{j}", j) for j in range(8)]))
    blend = Blend(lake, backend=backend)
    blend.build_index()
    if loaded:
        blend = Blend.load(blend.save(tmp_path / "snap"))
    storage = blend.db.table("AllTables")
    for table_id in range(18):
        blend.remove_table(table_id)
    assert storage.compactions == 0
    assert blend.delta_stats()["deleted_rows"] == 18 * 16

    sql = "SELECT * FROM AllTables"
    fresh_db = Database(backend=backend)
    build_alltables(blend.lake, fresh_db)
    assert blend.db.execute(sql).rows == fresh_db.execute(sql).rows
    assert sorted(blend.db.execute(sql).rows) == sorted(
        alltables_rows(blend.lake, IndexConfig(), backend)[0]
    )
    seekers = _query_seekers(blend.lake)
    fresh_context = SeekerContext(db=fresh_db, lake=blend.lake)
    assert _results(blend.context(), seekers) == _results(fresh_context, seekers)

    blend.compact_index()
    assert storage.compactions == 1
    assert blend.delta_stats()["deleted_rows"] == 0
    assert blend.db.execute(sql).rows == fresh_db.execute(sql).rows


def test_remove_leaves_other_super_keys_untouched():
    """Deindexing one table must not alter any other table's rows."""
    lake = DataLake("keys")
    lake.add(Table("a", ["x", "y"], [("p", 1), ("q", 2)]))
    lake.add(Table("b", ["x", "y"], [("r", 3), ("s", 4)]))
    lake.add(Table("c", ["x", "y"], [("t", 5), ("u", 6)]))
    blend = Blend(lake, backend="column")
    blend.build_index()
    sql = "SELECT * FROM AllTables WHERE TableId IN (:ids) ORDER BY RowId, ColumnId"
    before = blend.db.execute(sql, {"ids": [0, 2]}).rows
    blend.remove_table(1)
    assert blend.db.execute(sql, {"ids": [0, 2]}).rows == before
    assert blend.db.execute(sql, {"ids": [1]}).rows == []


def test_replace_serves_new_contents_immediately():
    lake = DataLake("swap")
    lake.add(Table("t0", ["k"], [("old_token",)]))
    lake.add(Table("t1", ["k"], [("other",)]))
    blend = Blend(lake, backend="column")
    blend.build_index()
    assert blend.discover(["old_token"], "keyword").output.table_ids() == [0]
    blend.replace_table(0, Table("t0v2", ["k"], [("new_token",)]))
    assert blend.discover(["old_token"], "keyword").output.table_ids() == []
    assert blend.discover(["new_token"], "keyword").output.table_ids() == [0]
    assert blend.lake.name_of(0) == "t0v2"


def test_generation_and_cache_stats_surface_mutations():
    lake = DataLake("gen")
    lake.add(Table("t0", ["k"], [("a",)]))
    blend = Blend(lake, backend="column")
    blend.build_index()
    generation = blend.lake.generation
    epoch = blend.db.cache_stats()["data_epoch"]
    blend.add_table(Table("t1", ["k"], [("b",)]))
    assert blend.lake.generation == generation + 1
    assert blend.db.cache_stats()["data_epoch"] > epoch
    epoch = blend.db.cache_stats()["data_epoch"]
    blend.remove_table(0)
    assert blend.lake.generation == generation + 2
    assert blend.db.cache_stats()["data_epoch"] > epoch


def test_fresh_context_after_mutation_serves():
    """Blend.run always stamps a fresh context, so discovery keeps
    working across mutations without any caller-side ceremony."""
    blend = Blend(_base_lake(7), backend="column")
    blend.build_index()
    blend.remove_table(blend.lake.table_ids()[0])
    table = blend.lake.by_id(blend.lake.table_ids()[0])
    values = [v for v in table.column_values(table.columns[0]) if v is not None]
    assert blend.discover(values[:4], "keyword", k=5).output is not None  # no raise


def test_shuffle_maintenance_matches_rebuild():
    """The BLEND (rand) permutation is a per-table seeded hash of the
    stable table id, so maintenance on shuffled configs reproduces
    exactly what a from-scratch shuffled build assigns."""
    lake = DataLake("shuf")
    lake.add(Table("t0", ["k"], [(f"a{i}",) for i in range(9)]))
    lake.add(Table("t1", ["k"], [(f"b{i}",) for i in range(7)]))
    config = IndexConfig(shuffle_rows=True, shuffle_seed=13)
    db = Database(backend="column")
    build_alltables(lake, db, config)
    # add / replace / remove through the maintenance entry points
    lake.add(Table("t2", ["k"], [(f"c{i}",) for i in range(8)]))
    index_table(2, lake.by_id(2), db, config)
    replacement = Table("t1v2", ["k"], [(f"d{i}",) for i in range(6)])
    lake.replace(1, replacement)
    reindex_table(1, replacement, db, config)
    lake.remove(0)
    deindex_table(0, db, config)

    fresh = Database(backend="column")
    build_alltables(lake, fresh, config)
    sql = "SELECT * FROM AllTables"
    assert sorted(db.execute(sql).rows) == sorted(fresh.execute(sql).rows)
    db.compact("AllTables")
    assert db.execute(sql).rows == fresh.execute(sql).rows


def test_shuffle_permutation_is_table_local():
    """The permutation of one table id must not depend on which other
    tables exist (that independence IS the maintainability argument)."""
    from repro.index.alltables import shuffle_permutation

    perm = shuffle_permutation(13, 4, 20)
    assert sorted(perm) == list(range(20))
    assert perm == shuffle_permutation(13, 4, 20)  # deterministic
    assert perm != shuffle_permutation(13, 5, 20)  # table-id keyed
    assert perm != shuffle_permutation(14, 4, 20)  # seed keyed


def test_deindex_requires_existing_relation():
    db = Database(backend="column")
    with pytest.raises(IndexingError):
        deindex_table(0, db)


def test_lifecycle_refusal_is_atomic():
    """On an unmaintainable deployment (here: the AllTables relation is
    gone), lifecycle methods must refuse BEFORE touching the lake -- a
    half-applied mutation would leave a fresh-generation context
    silently serving the desynced index."""
    lake = DataLake("atomic")
    lake.add(Table("t0", ["k"], [("a",), ("b",)]))
    lake.add(Table("t1", ["k"], [("c",), ("d",)]))
    blend = Blend(lake, backend="column")
    blend.build_index()
    blend.db.drop_table("AllTables")
    generation = lake.generation
    with pytest.raises(IndexingError):
        blend.remove_table(1)
    with pytest.raises(IndexingError):
        blend.replace_table(0, Table("t0v2", ["k"], [("e",)]))
    with pytest.raises(IndexingError):
        blend.add_table(Table("t2", ["k"], [("f",)]))
    # the lake is exactly as before: no desync, no stale stats
    assert lake.generation == generation
    assert lake.table_ids() == [0, 1]
    assert "t2" not in lake and "t0v2" not in lake


class TestLakeLifecycle:
    """DataLake-level semantics the index layers rely on."""

    def test_ids_stable_under_removal(self):
        lake = DataLake("ids")
        for i in range(4):
            lake.add(Table(f"t{i}", ["a"], [(i,)]))
        lake.remove(1)
        assert lake.table_ids() == [0, 2, 3]
        assert len(lake) == 3
        assert [i for i, _ in lake.items()] == [0, 2, 3]
        assert lake.by_id(2).name == "t2"
        with pytest.raises(LakeError):
            lake.by_id(1)
        # removed ids are never reused
        assert lake.add(Table("t4", ["a"], [(4,)])) == 4

    def test_replace_keeps_id_and_remaps_name(self):
        lake = DataLake("repl")
        lake.add(Table("t0", ["a"], [(0,)]))
        lake.add(Table("t1", ["a"], [(1,)]))
        previous = lake.replace(0, Table("t0v2", ["a"], [(9,)]))
        assert previous.name == "t0"
        assert lake.id_of("t0v2") == 0
        assert "t0" not in lake
        with pytest.raises(LakeError):
            lake.replace(1, Table("t0v2", ["a"], [(7,)]))  # name collision

    def test_generation_monotone(self):
        lake = DataLake("g")
        assert lake.generation == 0
        lake.add(Table("t0", ["a"], [(0,)]))
        lake.add(Table("t1", ["a"], [(1,)]))
        assert lake.generation == 2
        lake.replace(0, Table("t0b", ["a"], [(2,)]))
        lake.remove(1)
        assert lake.generation == 4

    def test_shard_plan_skips_holes(self):
        lake = DataLake("shards")
        for i in range(6):
            lake.add(Table(f"t{i}", ["a"], [(j,) for j in range(5)]))
        lake.remove(2)
        shards = lake.shard_plan(3)
        covered = [tid for shard in shards for tid in shard.table_ids]
        assert covered == [0, 1, 3, 4, 5]
        assert all(shard.tables for shard in shards)

    def test_stats_cover_live_tables_only(self):
        lake = DataLake("stats")
        lake.add(Table("t0", ["a", "b"], [(1, 2)]))
        lake.add(Table("t1", ["a"], [(3,), (4,)]))
        lake.remove(0)
        stats = lake.stats()
        assert stats.num_tables == 1
        assert stats.num_cells == 2


def test_rebuild_on_mutated_lake_byte_identical():
    """A from-scratch build handles lakes with id holes, byte-identical
    to the oracle."""
    blend = Blend(_base_lake(13), backend="column")
    blend.build_index()
    _mutate(blend, random.Random(5), ops=6, tag="par")
    lake = blend.lake
    db = Database(backend="column")
    build_alltables(lake, db)
    assert db.execute("SELECT * FROM AllTables").rows == alltables_rows(lake)[0]


def test_semantic_extension_maintained():
    """AllVectors rows and SS results follow the lifecycle."""
    blend = Blend(
        _base_lake(21), backend="column", index_config=IndexConfig(semantic_dimensions=16)
    )
    blend.build_index()
    blend.enable_semantic()
    removed_id = blend.lake.table_ids()[0]
    blend.remove_table(removed_id)
    new_id = blend.add_table(
        Table("sem_new", ["a", "b"], [(f"alpha{i}", f"beta{i}") for i in range(6)])
    )
    vec_ids = {
        row[0]
        for row in blend.db.execute("SELECT TableId FROM AllVectors").rows
    }
    assert removed_id not in vec_ids
    assert new_id in vec_ids
    hits = blend.discover(["alpha1", "alpha2"], "semantic", k=5).output
    assert removed_id not in hits.table_ids()
