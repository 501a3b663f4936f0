"""``AllVectors`` as typed columns: ``SemanticIndex.persist`` writes the
same rows as the seed's row-at-a-time loop, and ``SemanticIndex.load``
scatters them back into a bit-equal matrix and an identical graph."""

import numpy as np
import pytest

from repro import Blend
from repro.baselines.embeddings import embed_column
from repro.core.semantic import ALLVECTORS_SCHEMA, SemanticIndex
from repro.engine import Database
from repro.errors import SnapshotError
from repro.index import IndexConfig, build_alltables, index_table
from repro.lake import DataLake, Table
from repro.lake.generators import make_union_benchmark

ROWS_SQL = "SELECT TableId, ColumnId, Dim, Weight FROM AllVectors"


@pytest.fixture(scope="module")
def lake():
    return make_union_benchmark(num_seeds=4, partitions_per_seed=3, distractor_tables=8).lake


def _scalar_rows(tables, dimensions=64):
    """The seed ``persist`` loop: one Python row per non-zero weight."""
    rows = []
    for table_id, table in tables:
        for position in range(table.num_columns):
            vector = embed_column(table, position, dimensions)
            for dim in np.nonzero(vector)[0]:
                rows.append((table_id, position, int(dim), float(vector[dim])))
    return rows


def _indexed(lake, backend="column"):
    """A database holding *lake*'s ``AllTables`` -- what SemanticIndex reads."""
    db = Database(backend=backend)
    build_alltables(lake, db)
    return db


def _typed(rows):
    return [tuple((type(value), value) for value in row) for row in rows]


@pytest.mark.parametrize("backend", ["column", "row"])
def test_persist_writes_the_scalar_rows(lake, backend):
    db = _indexed(lake, backend)
    index = SemanticIndex(db)
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
    index_table(999, extra, db)
    index.add_table(999, db)
    reference.insert("AllVectors", _scalar_rows([(999, extra)]))
    assert _typed(db.execute(ROWS_SQL).rows) == _typed(reference.execute(ROWS_SQL).rows)


@pytest.mark.parametrize("backend", ["column", "row"])
def test_load_round_trip_is_bit_equal(lake, backend):
    db = _indexed(lake, backend)
    index = SemanticIndex(db)
    index.persist(db)
    loaded = SemanticIndex.load(db, **index.snapshot_meta())
    assert loaded.keys == index.keys
    assert loaded.vectors.dtype == np.float64
    assert loaded.vectors.tobytes() == index.vectors.tobytes()
    query = index.vectors[3]
    assert loaded.search_columns(query, k=20) == index.search_columns(query, k=20)


@pytest.mark.parametrize("backend", ["column", "row"])
def test_load_of_an_empty_relation(backend):
    db = _indexed(DataLake("empty"), backend)
    assert SemanticIndex(db).persist(db) == 0
    loaded = SemanticIndex.load(db)
    assert loaded.num_columns == 0
    assert loaded.search_columns(np.ones(64), k=3) == []


def test_exact_ties_follow_the_key_after_lifecycle_changes():
    """Replacing a table appends its columns after every other key, so
    insertion order is no longer key order; the exact lane still breaks
    equal distances on (table, column)."""
    lake = DataLake("ties")
    for name in ("a", "b", "c"):
        lake.add(Table(name, ["v"], [("same",), ("tokens",)]))
    db = _indexed(lake)
    index = SemanticIndex(db)
    index.replace_table(0, db)
    assert [key[0] for key in index.keys] == [1, 2, 0]
    query = index.vectors[0]
    hits = index.search_columns(query, k=3)
    assert [key for key, _ in hits] == [(0, 0), (1, 0), (2, 0)]
    assert len({similarity for _, similarity in hits}) == 1


@pytest.mark.parametrize("backend", ["column", "row"])
def test_enable_semantic_replaces_the_relation(lake, backend, tmp_path):
    """Re-enabling on a deployment that already has ``AllVectors`` (here a
    64-dimension build, re-enabled at 16) leaves one copy: the new one."""
    blend = Blend(lake, backend=backend, index_config=IndexConfig(semantic=True))
    blend.build_index()
    blend.index_config = IndexConfig(semantic=True, semantic_dimensions=16)
    blend.enable_semantic()
    got = blend.db.execute(ROWS_SQL + " ORDER BY TableId, ColumnId, Dim").rows
    assert _typed(got) == _typed(_scalar_rows(lake.items(), 16))
    loaded = Blend.load(blend.save(tmp_path / "snapshot"))
    assert loaded._semantic.dimensions == 16
    assert loaded._semantic.keys == blend._semantic.keys
    assert loaded._semantic.vectors.tobytes() == blend._semantic.vectors.tobytes()


@pytest.mark.parametrize("backend", ["column", "row"])
@pytest.mark.parametrize("dim", [16, -1, "repeat"])
def test_load_rejects_weights_outside_the_matrix(lake, backend, dim):
    db = _indexed(lake, backend)
    SemanticIndex(db, dimensions=16).persist(db)
    first = db.execute(ROWS_SQL + " ORDER BY TableId, ColumnId, Dim LIMIT 1").rows[0]
    db.insert("AllVectors", [first[:2] + (first[2] if dim == "repeat" else dim, 0.5)])
    with pytest.raises(SnapshotError, match="AllVectors"):
        SemanticIndex.load(db, dimensions=16)
