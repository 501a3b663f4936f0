"""Lake statistics stay exact under the table lifecycle.

The cost model reads LakeStatistics at every optimization; the statistics
derived from AllTables after any lifecycle op must equal EVERY field
(token frequencies, cell/row/column/table aggregates, distinct-token
count) of a from-scratch scan of the current lake -- with a trained
optimizer, a drifted statistic would silently skew every subsequent
seeker ordering."""

import pytest

from repro import Blend
from repro.core.optimizer.cost_model import CostModel, extract_features
from repro.core.seekers import Seekers
from repro.index.stats import LakeStatistics
from repro.lake import DataLake, Table
from repro.lake.generators import CorpusConfig, generate_corpus

from oracles.stats_scan import lake_statistics, table_token_counts


@pytest.fixture
def blend():
    lake = generate_corpus(
        CorpusConfig(name="statsmaint", num_tables=10, min_rows=6, max_rows=20, seed=17)
    )
    deployment = Blend(lake, backend="column")
    deployment.build_index()
    return deployment


def _assert_exact(stats: LakeStatistics, lake: DataLake) -> None:
    fresh = lake_statistics(lake)
    assert stats.frequencies == fresh.frequencies
    assert stats.num_tables == fresh.num_tables
    assert stats.num_cells == fresh.num_cells
    assert stats.num_columns == fresh.num_columns
    assert stats.num_rows == fresh.num_rows
    assert stats.num_distinct_tokens == fresh.num_distinct_tokens


def test_add_updates_every_field(blend):
    blend.add_table(
        Table("extra", ["k", "n"], [("alpha", 1), ("beta", None), (None, 3)])
    )
    _assert_exact(blend.stats, blend.lake)


def test_remove_decrements_exactly(blend):
    blend.remove_table(2)
    blend.remove_table(5)
    _assert_exact(blend.stats, blend.lake)


def test_remove_drops_zero_count_tokens():
    lake = DataLake("zero")
    lake.add(Table("only", ["k"], [("unique_token",), ("shared",)]))
    lake.add(Table("other", ["k"], [("shared",)]))
    blend = Blend(lake, backend="column")
    blend.build_index()
    assert "unique_token" in blend.stats.frequencies
    blend.remove_table(0)
    # the token is gone, not lingering at zero (no ghost distinct tokens)
    assert "unique_token" not in blend.stats.frequencies
    assert blend.stats.frequencies == {"shared": 1}
    _assert_exact(blend.stats, blend.lake)


def test_replace_swaps_contributions(blend):
    blend.replace_table(
        1, Table("swap", ["a", "b"], [("p", "q"), ("r", None)])
    )
    _assert_exact(blend.stats, blend.lake)


def test_trained_optimizer_agrees_after_maintenance(blend):
    """After maintenance, estimates from the maintained statistics equal
    estimates from a from-scratch scan -- trained and untrained."""
    blend.train_optimizer(samples_per_type=4, seed=1)
    blend.remove_table(0)
    blend.add_table(
        Table("post", ["k", "n"], [(f"tok{i}", i) for i in range(8)])
    )
    fresh = lake_statistics(blend.lake)
    _assert_exact(blend.stats, blend.lake)

    table = blend.lake.by_id(blend.lake.table_ids()[0])
    values = [v for v in table.column_values(table.columns[0]) if v is not None][:6]
    seekers = [Seekers.SC(values), Seekers.KW(values)]
    assert blend.optimizer.cost_model.is_trained()
    for model in (CostModel(), blend.optimizer.cost_model):
        for seeker in seekers:
            assert model.estimate(seeker, blend.stats) == pytest.approx(
                model.estimate(seeker, fresh)
            )
            assert extract_features(seeker, blend.stats) == extract_features(
                seeker, fresh
            )


def test_vectorized_kernel_matches_per_cell_loop():
    """The oracle's table_token_counts and the AllTables GROUP BY must
    both agree with a per-cell normalize_cell loop, bool/int duality
    included."""
    from repro.lake.table import normalize_cell

    table = Table(
        "hazards",
        ["a", "b"],
        [
            (True, 1),
            (False, 0),
            ("1", 1.0),
            (None, ""),
            ("  X  ", "x"),
            (2.0, "2"),
        ],
    )
    got = dict(table_token_counts(table))
    expected: dict = {}
    for _, _, value in table.iter_cells():
        token = normalize_cell(value)
        if token is not None:
            expected[token] = expected.get(token, 0) + 1
    assert got == expected
    blend = Blend(DataLake("hazards", [table]), backend="column")
    blend.build_index()
    assert blend.stats.frequencies == expected


def test_average_posting_length():
    stats = LakeStatistics(num_tables=1, num_cells=10, frequencies={"a": 6, "b": 4})
    assert stats.average_posting_length() == 5.0
    empty = LakeStatistics(num_tables=0, num_cells=0, frequencies={})
    assert empty.average_posting_length() == 0.0
