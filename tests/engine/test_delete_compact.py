"""The storage-layer mutation primitives behind index maintenance:
``delete_rows`` (tombstone masks), explicit compaction (dictionary
re-encode + sealed-run rebuild + cluster-key re-sort; a delete never
compacts), and
the data-epoch / plan-invalidation plumbing in ``Database``."""

import numpy as np
import pytest

from repro.engine import Database
from repro.errors import CatalogError

SCHEMA = [("v", "text"), ("n", "integer"), ("f", "float"), ("b", "boolean")]

ROWS = [
    ("x", 1, 1.5, True),
    ("y", 2, 2.5, False),
    (None, None, None, None),
    ("x", 3, 3.5, None),
    ("z", 4, 4.5, True),
    ("y", 5, 5.5, False),
]


def _db(backend: str) -> Database:
    db = Database(backend=backend)
    db.create_table("t", SCHEMA)
    db.insert("t", ROWS)
    return db


@pytest.mark.parametrize("backend", ["row", "column"])
class TestDeleteRows:
    def test_deletes_by_text_predicate(self, backend):
        db = _db(backend)
        assert db.delete_rows("t", "v", ["y"]) == 2
        assert db.num_rows("t") == 4
        assert db.execute("SELECT n FROM t WHERE n IS NOT NULL ORDER BY n").column() == [1, 3, 4]

    def test_deletes_by_integer_predicate(self, backend):
        db = _db(backend)
        assert db.delete_rows("t", "n", [1, 4, 99]) == 2
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 4

    def test_missing_values_delete_nothing(self, backend):
        db = _db(backend)
        assert db.delete_rows("t", "v", ["nope", None]) == 0
        assert db.num_rows("t") == len(ROWS)

    def test_double_delete_is_idempotent(self, backend):
        db = _db(backend)
        assert db.delete_rows("t", "v", ["x"]) == 2
        assert db.delete_rows("t", "v", ["x"]) == 0
        assert db.num_rows("t") == 4

    def test_deleted_rows_invisible_to_all_paths(self, backend):
        db = _db(backend)
        db.create_index("t", "v")
        db.delete_rows("t", "v", ["x"])
        # index-driven scan
        assert db.execute("SELECT n FROM t WHERE v IN ('x')").rows == []
        # sequential scan + aggregation
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 4
        got = db.execute("SELECT v, COUNT(*) FROM t GROUP BY v ORDER BY v").rows
        assert got == [(None, 1), ("y", 2), ("z", 1)] or got == [("y", 2), ("z", 1), (None, 1)]

    def test_delete_via_index(self, backend):
        db = _db(backend)
        db.create_index("t", "n")
        assert db.delete_rows("t", "n", [2]) == 1
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 5

    def test_unknown_column_rejected(self, backend):
        db = _db(backend)
        with pytest.raises(CatalogError):
            db.delete_rows("t", "nope", [1])

    def test_insert_after_delete(self, backend):
        db = _db(backend)
        db.delete_rows("t", "v", ["z"])
        db.insert("t", [("w", 9, 9.5, True)])
        assert db.num_rows("t") == 6
        assert db.execute("SELECT n FROM t WHERE v IN ('w')").rows == [(9,)]

    def test_data_epoch_bumps(self, backend):
        db = _db(backend)
        epoch = db.cache_stats()["data_epoch"]
        db.delete_rows("t", "v", ["x"])
        assert db.cache_stats()["data_epoch"] == epoch + 1
        db.delete_rows("t", "v", ["x"])  # no-op: nothing left to delete
        assert db.cache_stats()["data_epoch"] == epoch + 1


@pytest.mark.parametrize("backend", ["row", "column"])
class TestCompaction:
    def test_deletes_never_compact(self, backend):
        """Only an explicit compact rewrites storage -- not even deleting
        every row does -- so a delete keeps the cached plans."""
        db = _db(backend)
        storage = db.table("t")
        db.execute("SELECT COUNT(*) FROM t")
        db.delete_rows("t", "v", ["x", "y", "z"])
        db.delete_rows("t", "n", [None])  # no-op: NULL never matches
        db.delete_rows("t", "b", [False, True])
        assert storage.compactions == 0
        assert storage.delta_stats()["deleted_rows"] == 5
        assert db.plan_cache_stats()["size"] == 1
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 1
        db.compact("t")
        assert storage.compactions == 1
        assert storage.delta_stats()["deleted_rows"] == 0
        assert db.plan_cache_stats()["size"] == 0
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 1

    def test_cluster_keys_restore_canonical_order(self, backend):
        db = Database(backend=backend)
        db.create_table("t", [("g", "integer"), ("r", "integer")])
        db.set_cluster_keys("t", ("g", "r"))
        db.insert("t", [(1, 0), (1, 1), (2, 0), (0, 5)])
        db.insert("t", [(0, 1), (2, 1)])
        db.compact("t")
        assert db.execute("SELECT g, r FROM t").rows == [
            (0, 1), (0, 5), (1, 0), (1, 1), (2, 0), (2, 1),
        ]

    def test_queries_agree_before_and_after(self, backend):
        db = _db(backend)
        db.delete_rows("t", "v", ["y"])
        sql = "SELECT v, n FROM t WHERE n IS NOT NULL ORDER BY n"
        before = db.execute(sql).rows
        db.compact("t")
        assert db.execute(sql).rows == before

    def test_compaction_invalidates_referencing_plans(self, backend):
        db = _db(backend)
        db.create_table("other", [("k", "integer")])
        db.insert("other", [(1,)])
        db.execute("SELECT COUNT(*) FROM t")
        db.execute("SELECT COUNT(*) FROM other")
        assert db.plan_cache_stats()["size"] == 2
        db.compact("t")
        assert db.plan_cache_stats()["size"] == 1  # only t's plan dropped
        db.execute("SELECT COUNT(*) FROM other")
        assert db.plan_cache_stats()["hits"] == 1


class TestColumnStoreCompactionLayout:
    """Column-store specifics: tombstone mask bookkeeping and the
    dictionary re-encode on compaction."""

    def test_dictionary_reencoded_to_survivors(self):
        db = _db("column")
        table = db.table("t")
        db.delete_rows("t", "v", ["x", "z"])
        # pre-compaction: dictionary still holds the dead values
        assert list(table._seal()[0].dictionary) == ["x", "y", "z"]
        db.compact("t")
        column = table._seal()[0]
        assert list(column.dictionary) == ["y"]
        assert column.codes.dtype == np.int32
        assert column.codes.tolist() == [0, -1, 0]

    def test_all_rows_deleted_leaves_empty_dictionary(self):
        db = Database(backend="column")
        db.create_table("t", [("v", "text")])
        db.insert("t", [("a",), ("b",)])
        db.delete_rows("t", "v", ["a", "b"])
        db.compact("t")
        column = db.table("t")._seal()[0]
        assert len(column.dictionary) == 0
        assert db.num_rows("t") == 0
        db.insert("t", [("c",)])
        assert db.execute("SELECT v FROM t").column() == ["c"]

    def test_tombstone_mask_extends_over_appends(self):
        db = _db("column")
        table = db.table("t")
        db.delete_rows("t", "v", ["x"])
        db.insert("t", [("new1", 7, 7.5, True), ("new2", 8, 8.5, False)])
        got = db.execute("SELECT v FROM t WHERE n IN (7, 8) ORDER BY n").column()
        assert got == ["new1", "new2"]
        assert db.num_rows("t") == 6
        assert len(table._deleted) == 8  # storage rows incl. tombstones

    def test_live_translation_of_position_reads(self):
        db = _db("column")
        table = db.table("t")
        db.delete_rows("t", "n", [1])
        # live row 0 is now the old storage row 1
        data, null = table.column_values("v", np.array([0]))
        assert data.tolist() == ["y"]
        row = [
            table.column_values(column.name, np.array([0]))[0].tolist()[0]
            for column in table.schema.columns
        ]
        assert row == ["y", 2, 2.5, 0]
        mask = table.isin_mask("v", ["y"])
        assert len(mask) == table.num_rows
        assert mask.tolist() == [True, False, False, False, True]
