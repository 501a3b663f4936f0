"""AllTables construction, quadrants, lake statistics, storage model."""

import pytest

from repro.engine import Database
from repro.errors import IndexingError
from repro.index import (
    IndexConfig,
    LakeStatistics,
    StorageBreakdown,
    build_alltables,
    column_means,
    format_bytes,
    quadrant_bit,
    split_keys_by_target,
)
from repro.lake import DataLake, Table


@pytest.fixture
def small_lake():
    lake = DataLake("small")
    lake.add(Table("t0", ["name", "value"], [("a", 10), ("b", 20), ("c", None)]))
    lake.add(Table("t1", ["name"], [("a",), ("",), (None,)]))
    return lake


class TestQuadrants:
    def test_column_means(self, small_lake):
        means = column_means(small_lake.by_id(0))
        assert means[0] is None  # text column
        assert means[1] == 15.0

    def test_quadrant_bit(self):
        assert quadrant_bit(20, 15.0) is True
        assert quadrant_bit(15, 15.0) is True  # >= mean
        assert quadrant_bit(10, 15.0) is False
        assert quadrant_bit("x", 15.0) is None
        assert quadrant_bit(10, None) is None

    def test_split_keys_by_target(self):
        below, above = split_keys_by_target(["a", "b", "c", "d"], [1, 2, 9, 10])
        assert below == ["a", "b"]
        assert above == ["c", "d"]

    def test_split_drops_non_numeric_targets(self):
        below, above = split_keys_by_target(["a", "b"], ["x", 5])
        assert below == [] and above == ["b"]

    def test_split_keeps_first_occurrence(self):
        below, above = split_keys_by_target(["a", "a"], [1, 100])
        assert below == ["a"] and above == []


class TestBuildAllTables:
    @pytest.mark.parametrize("backend", ["row", "column"])
    def test_row_counts_exclude_nulls(self, small_lake, backend):
        db = Database(backend=backend)
        report = build_alltables(small_lake, db)
        # t0: 5 non-null cells (c,None drops 1); t1: 1 non-null cell.
        assert report.num_index_rows == 6
        assert report.num_null_cells == 3
        assert db.num_rows("AllTables") == 6

    def test_quadrant_column_contents(self, small_lake):
        db = Database(backend="column")
        build_alltables(small_lake, db)
        rows = db.execute(
            "SELECT CellValue, Quadrant FROM AllTables "
            "WHERE TableId = 0 AND ColumnId = 1 ORDER BY RowId"
        ).rows
        assert rows == [("10", False), ("20", True)]

    def test_indexes_created(self, small_lake):
        db = Database(backend="column")
        build_alltables(small_lake, db)
        table = db.table("AllTables")
        assert table.has_index("CellValue")
        assert table.has_index("TableId")

    def test_double_build_rejected(self, small_lake):
        db = Database(backend="column")
        build_alltables(small_lake, db)
        with pytest.raises(IndexingError):
            build_alltables(small_lake, db)

    @pytest.mark.parametrize(
        "bad",
        [
            {"hash_size": 0},
            {"hash_size": -5},
            {"xash_chars": 0},
            {"xash_chars": -1},
            {"semantic": True, "semantic_dimensions": 0},
        ],
        ids=lambda bad: ",".join(f"{key}={value}" for key, value in bad.items()),
    )
    def test_unusable_config_rejected_at_the_door(self, small_lake, bad):
        """Sizes below 1 are a typed error before any relation exists
        (not a numpy warning, an OverflowError or a mis-hashed index),
        and the same ``Database`` then builds with a corrected config."""
        from repro.index.alltables import index_table

        db = Database(backend="column")
        with pytest.raises(IndexingError, match="must be >= 1"):
            build_alltables(small_lake, db, IndexConfig(**bad))
        assert not db.has_table("AllTables")
        report = build_alltables(small_lake, db, IndexConfig())
        with pytest.raises(IndexingError, match="must be >= 1"):
            index_table(2, Table("t2", ["a"], [("x",)]), db, IndexConfig(**bad))
        assert db.num_rows("AllTables") == report.num_index_rows == 6

    def test_shuffle_preserves_row_alignment(self):
        lake = DataLake("s")
        lake.add(
            Table(
                "t",
                ["a", "b"],
                [(f"k{i}", f"v{i}") for i in range(20)],
            )
        )
        db = Database(backend="column")
        build_alltables(lake, db, IndexConfig(shuffle_rows=True, shuffle_seed=3))
        rows = db.execute(
            "SELECT CellValue, RowId, ColumnId FROM AllTables ORDER BY RowId, ColumnId"
        ).rows
        by_row: dict[int, dict[int, str]] = {}
        for value, row_id, column_id in rows:
            by_row.setdefault(row_id, {})[column_id] = value
        for cells in by_row.values():
            # k7 must stay aligned with v7 regardless of the permutation.
            assert cells[0].replace("k", "") == cells[1].replace("v", "")

    def test_shuffle_changes_physical_order(self):
        lake = DataLake("s")
        lake.add(Table("t", ["a"], [(f"k{i}",) for i in range(30)]))
        plain = Database(backend="column")
        build_alltables(lake, plain)
        shuffled = Database(backend="column")
        build_alltables(lake, shuffled, IndexConfig(shuffle_rows=True, shuffle_seed=3))
        order_plain = plain.execute("SELECT CellValue FROM AllTables WHERE RowId < 5 ORDER BY RowId").rows
        order_shuffled = shuffled.execute("SELECT CellValue FROM AllTables WHERE RowId < 5 ORDER BY RowId").rows
        assert order_plain != order_shuffled


def _derived_stats(lake: DataLake) -> LakeStatistics:
    db = Database(backend="column")
    build_alltables(lake, db)
    return LakeStatistics.from_lake(lake, db)


class TestLakeStatistics:
    def test_frequencies(self, small_lake):
        stats = _derived_stats(small_lake)
        assert stats.frequency("a") == 2
        assert stats.frequency("10") == 1
        assert stats.frequency("ghost") == 0
        assert stats.num_cells == 6

    def test_average_frequency(self, small_lake):
        stats = _derived_stats(small_lake)
        assert stats.average_frequency(["a", "10"]) == pytest.approx(1.5)
        assert stats.average_frequency([]) == 0.0

    def test_selectivity_bounded(self, small_lake):
        stats = _derived_stats(small_lake)
        assert 0.0 <= stats.selectivity(["a"]) <= 1.0


class TestStorageModel:
    def test_breakdown_saving(self):
        breakdown = StorageBreakdown(
            lake_name="demo",
            blend_bytes=400,
            dataxformer_bytes=300,
            josie_bytes=200,
            mate_bytes=300,
            starmie_bytes=100,
            qcr_bytes=100,
        )
        assert breakdown.combined_sota_bytes == 1000
        assert breakdown.saving_fraction == pytest.approx(0.6)

    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.0 KB"
        assert format_bytes(5 * 1024**3) == "5.0 GB"


class TestIncrementalMaintenance:
    def test_index_table_appends(self, small_lake):
        from repro.index.alltables import index_table
        from repro.lake import Table

        db = Database(backend="column")
        build_alltables(small_lake, db)
        before = db.num_rows("AllTables")
        new_table = Table("t2", ["name", "value"], [("d", 5), ("e", None)])
        added = index_table(2, new_table, db)
        assert added == 3  # 'd', 5, 'e' (one NULL skipped)
        assert db.num_rows("AllTables") == before + 3

    def test_index_table_requires_existing_relation(self, small_lake):
        from repro.index.alltables import index_table
        from repro.lake import Table

        db = Database(backend="column")
        with pytest.raises(IndexingError):
            index_table(0, Table("t", ["a"], [("x",)]), db)

    def test_blend_add_table_is_queryable(self):
        from repro import Blend, DataLake, Table

        lake = DataLake("maint")
        lake.add(Table("t0", ["c"], [("alpha",), ("beta",)]))
        blend = Blend(lake, backend="column")
        blend.build_index()
        assert blend.discover(["gamma"], "join", k=5).output.table_ids() == []

        new_id = blend.add_table(Table("t1", ["c"], [("gamma",), ("delta",)]))
        assert blend.discover(["gamma", "delta"], "join", k=5).output.table_ids() == [new_id]
        # Statistics were maintained too (cost-model feature path).
        assert blend.stats.frequency("gamma") == 1
        assert blend.stats.num_tables == 2

    def test_add_table_on_row_backend(self):
        from repro import Blend, DataLake, Table

        lake = DataLake("maint_row")
        lake.add(Table("t0", ["c"], [("alpha",)]))
        blend = Blend(lake, backend="row")
        blend.build_index()
        new_id = blend.add_table(Table("t1", ["c"], [("omega",)]))
        assert blend.discover(["omega"], "join", k=5).output.table_ids() == [new_id]
