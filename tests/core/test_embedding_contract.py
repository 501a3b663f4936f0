"""Column embeddings are derived from ``AllTables``, bit-equal to the
cell-scan build.

Contract: after a build, after every add / replace / remove, after a
full save -> ``Blend.load`` and after ``compact_index``, the semantic
index holds exactly the keys and matrix bytes of the ``embed_column``
oracle (:mod:`oracles.embed_scalar`) -- on both backends, with and without
``shuffle_rows``, over cells that hit the tokeniser's hard cases. And the
lane reads no lake cells: a lake whose tables raise on ``.rows`` still
builds, searches and grows its semantic index.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.embed_scalar import embed_lake, embed_table
from repro import Blend, DataLake, Table
from repro.core.semantic import SemanticIndex
from repro.errors import BlendError
from repro.index import IndexConfig

DIMENSIONS = 16

CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -3, 2**53 + 1, 2**60]),
    st.sampled_from([0.0, 1.0, 2.5, float("nan"), float("inf")]),
    st.sampled_from(
        ["", "  ", "1", "a", "A ", "ß", "中文", "🙂", "x y", "repeat", "repeat", "long" * 75]
    ),
)


@st.composite
def tables(draw):
    width = draw(st.integers(min_value=1, max_value=3))
    rows = draw(st.lists(st.tuples(*[CELLS] * width), min_size=0, max_size=6))
    if draw(st.booleans()):  # a NULL-only last column
        rows = [row[:-1] + (None,) for row in rows]
    return [f"c{i}" for i in range(width)], rows


OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "replace", "remove"]),
        st.integers(min_value=0, max_value=1_000),
        tables(),
    ),
    max_size=6,
)


def _assert_oracle(semantic: SemanticIndex, rows) -> None:
    assert semantic.keys == [key for key, _ in rows]
    expected = np.array([vector for _, vector in rows]).reshape(-1, semantic.dimensions)
    assert semantic.vectors.tobytes() == expected.tobytes()


@pytest.mark.parametrize("shuffle", [False, True])
@pytest.mark.parametrize("backend", ["column", "row"])
@given(initial=st.lists(tables(), max_size=4), ops=OPS)
@settings(max_examples=8, deadline=None)
def test_vectors_equal_the_cell_scan_through_the_lifecycle(backend, shuffle, initial, ops):
    lake = DataLake("contract")
    for position, shape in enumerate(initial):
        lake.add(Table(f"t{position}", *shape))
    config = IndexConfig(
        shuffle_rows=shuffle, shuffle_seed=5, semantic=True, semantic_dimensions=DIMENSIONS
    )
    blend = Blend(lake, backend=backend, index_config=config)
    blend.build_index()
    rows = embed_lake(lake, DIMENSIONS, config)
    _assert_oracle(blend._semantic, rows)
    for step, (kind, pick, shape) in enumerate(ops):
        live = blend.lake.table_ids()
        table = Table(f"op{step}", *shape)
        if kind == "add" or not live:
            table_id = blend.add_table(table)
        else:
            table_id = live[pick % len(live)]
            rows = [row for row in rows if row[0][0] != table_id]
            if kind == "remove":
                blend.remove_table(table_id)
                table = None
            else:
                blend.replace_table(table_id, table)
        if table is not None:
            rows += embed_table(table_id, table, DIMENSIONS, config)
        _assert_oracle(blend._semantic, rows)
    with tempfile.TemporaryDirectory() as scratch:
        loaded = Blend.load(blend.save(Path(scratch) / "full"))
    # AllVectors loads back in key order.
    _assert_oracle(loaded._semantic, sorted(rows, key=lambda row: row[0]))
    blend.compact_index()
    _assert_oracle(blend._semantic, rows)


class _RowlessTable(Table):
    """A stored table whose cells are out of reach."""

    @property
    def rows(self):
        raise AssertionError("the semantic lane read a lake cell")


@pytest.mark.parametrize("backend", ["column", "row"])
def test_the_semantic_lane_reads_no_lake_cells(backend):
    lake = DataLake("guarded")
    lake.add(Table("cities", ["city"], [("berlin",), ("hamburg",), ("munich",)]))
    lake.add(Table("ids", ["id", "n"], [("customer_1", 1), ("customer_2", 2)]))
    blend = Blend(lake, backend=backend)
    blend.build_index()
    expected = embed_lake(lake)
    for table in lake:
        table.__class__ = _RowlessTable
    blend.enable_semantic()
    _assert_oracle(blend._semantic, expected)
    hits = blend.discover(["berlin", "hamburg"], "semantic", k=2).output
    assert hits.table_ids()[0] == 0
    added = Table("more", ["city"], [("berlin",), ("cologne",)])
    table_id = blend.add_table(added)
    _assert_oracle(blend._semantic, expected + embed_table(table_id, added))


def test_enable_semantic_needs_a_built_index():
    blend = Blend(DataLake("bare"))
    with pytest.raises(BlendError, match="build_index"):
        blend.enable_semantic()
