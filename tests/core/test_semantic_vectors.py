"""``AllVectors`` as typed columns: ``SemanticIndex.persist`` writes the
same rows as the seed's row-at-a-time loop, and ``SemanticIndex.load``
scatters them back into a bit-equal matrix and an identical graph."""

import numpy as np
import pytest

from repro.baselines.embeddings import embed_column
from repro.core.semantic import ALLVECTORS_SCHEMA, SemanticIndex
from repro.engine import Database
from repro.lake import DataLake, Table
from repro.lake.generators import make_union_benchmark

ROWS_SQL = "SELECT TableId, ColumnId, Dim, Weight FROM AllVectors"


@pytest.fixture(scope="module")
def lake():
    return make_union_benchmark(num_seeds=4, partitions_per_seed=3, distractor_tables=8).lake


def _scalar_rows(tables):
    """The seed ``persist`` loop: one Python row per non-zero weight."""
    rows = []
    for table_id, table in tables:
        for position in range(table.num_columns):
            vector = embed_column(table, position, 64)
            for dim in np.nonzero(vector)[0]:
                rows.append((table_id, position, int(dim), float(vector[dim])))
    return rows


def _typed(rows):
    return [tuple((type(value), value) for value in row) for row in rows]


@pytest.mark.parametrize("backend", ["column", "row"])
def test_persist_writes_the_scalar_rows(lake, backend):
    db = Database(backend=backend)
    index = SemanticIndex(lake)
    written = index.persist(db)
    reference = Database(backend=backend)
    reference.create_table("AllVectors", ALLVECTORS_SCHEMA)
    reference.insert("AllVectors", _scalar_rows(lake.items()))
    reference.create_index("AllVectors", "TableId")
    got = db.execute(ROWS_SQL).rows
    assert written == len(got) == len(reference.execute(ROWS_SQL).rows)
    assert _typed(got) == _typed(reference.execute(ROWS_SQL).rows)

    # A lifecycle add appends the new table's rows the same way.
    extra = Table("extra", ["a", "b"], [("x1", 1.5), ("x2", 2.5), (None, None)])
    index.add_table(999, extra, db)
    reference.insert("AllVectors", _scalar_rows([(999, extra)]))
    assert _typed(db.execute(ROWS_SQL).rows) == _typed(reference.execute(ROWS_SQL).rows)


@pytest.mark.parametrize("backend", ["column", "row"])
def test_load_round_trip_is_bit_equal(lake, backend):
    db = Database(backend=backend)
    index = SemanticIndex(lake)
    index.persist(db)
    loaded = SemanticIndex.load(db, lake, **index.snapshot_meta())
    assert loaded._hnsw.keys == index._hnsw.keys
    assert loaded._hnsw.vectors.dtype == np.float64
    assert loaded._hnsw.vectors.tobytes() == index._hnsw.vectors.tobytes()
    assert loaded._hnsw._links == index._hnsw._links
    assert loaded._hnsw._entry_point == index._hnsw._entry_point
    query = index._hnsw.vectors[3]
    assert loaded.search_columns(query, k=20, exact=True) == index.search_columns(
        query, k=20, exact=True
    )


@pytest.mark.parametrize("backend", ["column", "row"])
def test_load_of_an_empty_relation(backend):
    db = Database(backend=backend)
    empty = DataLake("empty")
    assert SemanticIndex(empty).persist(db) == 0
    loaded = SemanticIndex.load(db, empty)
    assert loaded.num_columns == 0
    assert loaded.search_columns(np.ones(64), k=3, exact=True) == []
    assert loaded.search_columns(np.ones(64), k=3) == []


def test_exact_ties_follow_the_key_after_lifecycle_changes():
    """Replacing a table appends its columns after every other key, so
    insertion order is no longer key order; the exact lane still breaks
    equal distances on (table, column)."""
    lake = DataLake("ties")
    for name in ("a", "b", "c"):
        lake.add(Table(name, ["v"], [("same",), ("tokens",)]))
    index = SemanticIndex(lake)
    index.replace_table(0, lake.by_id(0))
    assert [key[0] for key in index._hnsw.keys] == [1, 2, 0]
    query = index._hnsw.vectors[0]
    hits = index.search_columns(query, k=3, exact=True)
    assert [key for key, _ in hits] == [(0, 0), (1, 0), (2, 0)]
    assert len({similarity for _, similarity in hits}) == 1
