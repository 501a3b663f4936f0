"""The Table normalized-token cache: parity with the uncached path,
population by the indexing lifecycle, and invalidation on mutation."""

import copy
import random

import numpy as np
import pytest

from repro import Blend, DataLake, Table
from repro.index.alltables import IndexConfig
from repro.lake.table import normalize_cell

from oracles.stats_scan import table_token_counts


def _messy_table(name: str, seed: int) -> Table:
    rng = random.Random(seed)
    cells = [
        "alpha", "Beta ", " gamma", None, True, False, 0, 1, "1", "0",
        1.0, 0.0, 3.5, float("nan"), "", "  ", -7, "MiXeD CaSe",
    ]
    rows = [
        [rng.choice(cells), rng.choice(cells), rng.randint(0, 9)]
        for _ in range(30)
    ]
    return Table(name, ["a", "b", "c"], rows)


def _index_dump(blend: Blend):
    result = blend.db.execute(
        "SELECT CellValue, TableId, ColumnId, RowId, SuperKey, Quadrant "
        "FROM AllTables WHERE RowId >= 0"
    )
    return sorted(map(tuple, result.rows))


def test_normalized_cells_matches_scalar_loop():
    table = _messy_table("m", 1)
    tokens = table.normalized_cells()
    expected = [normalize_cell(v) for row in table.rows for v in row]
    assert tokens == expected
    assert table.tokens_if_cached() is tokens  # cached, same object


def test_set_cell_invalidates_caches():
    table = _messy_table("m", 2)
    table.normalized_cells()
    table.numeric_columns()
    table.set_cell(3, 1, "Replaced Value")
    assert table.tokens_if_cached() is None
    assert table._numeric_cache is None
    width = table.num_columns
    assert table.normalized_cells()[3 * width + 1] == "replaced value"


def test_set_cell_bounds_checked():
    table = _messy_table("m", 3)
    with pytest.raises(Exception):
        table.set_cell(999, 0, "x")
    with pytest.raises(Exception):
        table.set_cell(0, 99, "x")


@pytest.mark.parametrize("shuffle", [False, True])
def test_cached_index_build_parity(shuffle):
    """Byte-identical AllTables whether or not tables carry the cache."""
    config = IndexConfig(shuffle_rows=shuffle)
    tables = [_messy_table(f"t{i}", 10 + i) for i in range(5)]

    lake_plain = DataLake()
    for table in tables:
        lake_plain.add(copy.deepcopy(table))
    blend_plain = Blend(lake_plain, index_config=config)
    blend_plain.build_index()

    lake_cached = DataLake()
    for table in tables:
        warmed = copy.deepcopy(table)
        warmed.normalized_cells()
        lake_cached.add(warmed)
    blend_cached = Blend(lake_cached, index_config=config)
    blend_cached.build_index()

    assert _index_dump(blend_plain) == _index_dump(blend_cached)
    assert blend_plain.stats.frequencies == blend_cached.stats.frequencies


def test_index_table_populates_cache_and_readd_reuses_it():
    """Lifecycle: add_table populates the cache; remove + re-add hits it
    and stays byte-identical to a fresh build."""
    lake = DataLake()
    for i in range(3):
        lake.add(_messy_table(f"t{i}", 20 + i))
    blend = Blend(lake)
    blend.build_index()

    extra = _messy_table("extra", 99)
    assert extra.tokens_if_cached() is None
    table_id = blend.add_table(copy.deepcopy(extra))
    added = blend.lake.by_id(table_id)
    assert added.tokens_if_cached() is not None  # populated by index_table

    removed = blend.remove_table(table_id)
    assert removed.tokens_if_cached() is not None
    blend.add_table(removed)  # cached fast path

    fresh_lake = DataLake()
    for i in range(3):
        fresh_lake.add(_messy_table(f"t{i}", 20 + i))
    fresh_lake.add(copy.deepcopy(extra))
    fresh = Blend(fresh_lake)
    fresh.build_index()
    # Table ids differ (the re-add consumed an id); compare value rows
    # per table name via seeker-visible content: token counts.
    plain_counts = dict(zip(*table_token_counts(copy.deepcopy(extra))))
    cached_counts = dict(zip(*table_token_counts(removed)))
    assert plain_counts == cached_counts
    assert blend.stats == fresh.stats


def test_table_token_counts_cached_vs_uncached():
    table = _messy_table("m", 7)
    plain_tokens, plain_counts = table_token_counts(copy.deepcopy(table))
    warmed = copy.deepcopy(table)
    warmed.normalized_cells()
    cached_tokens, cached_counts = table_token_counts(warmed)
    assert plain_tokens == cached_tokens
    assert np.array_equal(plain_counts, cached_counts)
