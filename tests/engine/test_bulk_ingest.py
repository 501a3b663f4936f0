"""The one storage append (``insert_columns``): ``Database.insert``
equivalence (its rows are coerced, then appended as column chunks),
rejected inserts that change nothing, incremental sealing, dictionary
merging, and the numeric ``isin_mask`` satellite."""

import numpy as np
import pytest

from repro.engine import Database
from repro.engine.storage.column_store import ColumnTable, DictEncodedText
from repro.errors import ExecutionError

SCHEMA = [("v", "nvarchar"), ("n", "integer"), ("f", "float"), ("b", "boolean")]

ROWS = [
    ("x", 1, 1.5, True),
    (None, None, None, None),
    ("a", 7, 0.5, False),
    ("x", -3, 2.25, None),
]


def _chunk_for(rows):
    """ROWS-shaped python rows as (data, null) column chunks."""
    text = np.array([r[0] for r in rows], dtype=object)
    ints = np.array([r[1] if r[1] is not None else 0 for r in rows], dtype=np.int64)
    int_null = np.array([r[1] is None for r in rows])
    floats = np.array([r[2] if r[2] is not None else 0.0 for r in rows])
    float_null = np.array([r[2] is None for r in rows])
    bools = np.array(
        [-1 if r[3] is None else int(r[3]) for r in rows], dtype=np.int8
    )
    return [(text, None), (ints, int_null), (floats, float_null), (bools, None)]


@pytest.mark.parametrize("backend", ["row", "column"])
class TestInsertColumnsEquivalence:
    def test_matches_insert_rows(self, backend):
        via_rows = Database(backend=backend)
        via_rows.create_table("t", SCHEMA)
        via_rows.insert("t", ROWS)

        via_columns = Database(backend=backend)
        via_columns.create_table("t", SCHEMA)
        assert via_columns.insert_columns("t", _chunk_for(ROWS)) == len(ROWS)

        select = "SELECT v, n, f, b FROM t"
        assert via_columns.execute(select).rows == via_rows.execute(select).rows

    def test_interleaved_with_insert_rows(self, backend):
        db = Database(backend=backend)
        db.create_table("t", SCHEMA)
        db.insert("t", ROWS[:2])
        db.execute("SELECT * FROM t")  # force a seal between batches
        db.insert_columns("t", _chunk_for(ROWS[2:]))
        db.insert("t", [("tail", 99, 9.5, True)])
        got = db.execute("SELECT v, n FROM t").rows
        assert got == [(r[0], r[1]) for r in ROWS] + [("tail", 99)]

    def test_indexes_serve_bulk_rows(self, backend):
        db = Database(backend=backend)
        db.create_table("t", SCHEMA)
        db.create_index("t", "v")
        db.insert_columns("t", _chunk_for(ROWS))
        got = db.execute("SELECT n FROM t WHERE v IN ('x')").rows
        assert sorted(got) == [(-3,), (1,)]

    def test_width_mismatch_rejected(self, backend):
        db = Database(backend=backend)
        db.create_table("t", SCHEMA)
        with pytest.raises(ExecutionError):
            db.insert_columns("t", _chunk_for(ROWS)[:2])

    def test_ragged_chunk_rejected(self, backend):
        db = Database(backend=backend)
        db.create_table("t", SCHEMA)
        chunk = _chunk_for(ROWS)
        chunk[1] = (chunk[1][0][:2], None)
        with pytest.raises(ExecutionError):
            db.insert_columns("t", chunk)

    def test_dict_encoded_text_chunk(self, backend):
        db = Database(backend=backend)
        db.create_table("t", SCHEMA)
        codes = np.array([1, -1, 0, 1], dtype=np.int32)
        dictionary = np.array(["a", "x"], dtype=object)
        chunk = _chunk_for(ROWS)
        chunk[0] = (DictEncodedText(codes, dictionary), None)
        db.insert_columns("t", chunk)
        assert db.execute("SELECT v FROM t").column() == ["x", None, "a", "x"]

    def test_all_null_dict_encoded_chunk(self, backend):
        # Empty dictionary + all -1 codes must store NULLs, not crash.
        db = Database(backend=backend)
        db.create_table("t", [("v", "text")])
        chunk = DictEncodedText(
            np.array([-1, -1], dtype=np.int32), np.array([], dtype=object)
        )
        assert db.insert_columns("t", [(chunk, None)]) == 2
        assert db.execute("SELECT v FROM t").column() == [None, None]


class TestIncrementalSeal:
    """Sealing must merge new batches instead of rebuilding from scratch
    (the backlog is consumed, text dictionaries are merged)."""

    def test_text_dictionary_merge_across_chunks(self):
        db = Database(backend="column")
        db.create_table("t", [("v", "text")])
        db.insert_columns("t", [(np.array(["m", "c"], dtype=object), None)])
        db.execute("SELECT * FROM t")
        db.insert_columns("t", [(np.array(["a", "m", "z"], dtype=object), None)])
        table: ColumnTable = db.table("t")
        assert db.execute("SELECT v FROM t").column() == ["m", "c", "a", "m", "z"]
        # dictionary stays sorted + deduplicated after the merge
        codes, dictionary = table.text_codes("v")
        assert list(dictionary) == ["a", "c", "m", "z"]
        assert codes.tolist() == [2, 1, 0, 2, 3]

    def test_many_unread_chunks_merge_in_order(self):
        # The backlog path: F flushes with no read in between must merge
        # once, in arrival order, including interleaved row inserts.
        db = Database(backend="column")
        db.create_table("t", [("v", "text"), ("n", "integer")])
        expected = []
        for batch in range(6):
            tokens = [f"tok{batch}", f"tok{batch - 1}"]
            db.insert_columns(
                "t",
                [
                    (np.array(tokens, dtype=object), None),
                    (np.array([batch, batch]), None),
                ],
            )
            expected += list(zip(tokens, [batch, batch]))
            db.insert("t", [(f"row{batch}", batch)])
            expected.append((f"row{batch}", batch))
        assert db.execute("SELECT v, n FROM t").rows == expected

    def test_superkey_scale_membership_exact(self):
        # Non-indexed sargable membership on int64 values above 2^53 must
        # not alias through float64.
        db = Database(backend="column")
        db.create_table("t", [("k", "bigint"), ("g", "integer")])
        big = 2**62
        db.insert("t", [(big, 0), (big + 1, 0), (big + 2, 1)])
        got = db.execute(
            "SELECT k FROM t WHERE k IN (:ks) AND g IN (:gs)",
            {"ks": [big + 1], "gs": [0, 1]},
        ).rows
        assert got == [(big + 1,)]

    def test_group_and_filter_after_merge(self):
        db = Database(backend="column")
        db.create_table("t", [("v", "text"), ("n", "integer")])
        db.insert_columns(
            "t", [(np.array(["p", "q"], dtype=object), None), (np.arange(2), None)]
        )
        db.insert_columns(
            "t", [(np.array(["q", "p"], dtype=object), None), (np.arange(2, 4), None)]
        )
        got = db.execute(
            "SELECT v, COUNT(*), SUM(n) FROM t GROUP BY v ORDER BY v"
        ).rows
        assert got == [("p", 2, 3), ("q", 2, 3)]


class TestNumericIsinMask:
    """Satellite fix: NumPy integer/float scalars must probe numeric
    columns instead of silently yielding an empty mask."""

    @pytest.fixture
    def table(self) -> ColumnTable:
        db = Database(backend="column")
        db.create_table("t", [("n", "integer"), ("f", "float")])
        db.insert("t", [(1, 0.5), (2, 1.5), (None, None), (7, 2.5)])
        return db.table("t")

    def test_numpy_integer_probe(self, table):
        mask = table.isin_mask("n", [np.int64(2), np.int32(7)])
        assert mask.tolist() == [False, True, False, True]

    def test_numpy_float_probe(self, table):
        mask = table.isin_mask("f", [np.float64(1.5)])
        assert mask.tolist() == [False, True, False, False]

    def test_numpy_float_probe_on_int_column(self, table):
        mask = table.isin_mask("n", [np.float64(7.0)])
        assert mask.tolist() == [False, False, False, True]

    def test_bool_probes_follow_int_duality(self, table):
        # True == 1 in the engine's comparison semantics (and the row
        # store's set membership), so bool probes match 0/1 values.
        assert table.isin_mask("n", [np.bool_(True)]).tolist() == [True, False, False, False]
        assert table.isin_mask("n", [False]).tolist() == [False, False, False, False]

    @pytest.mark.parametrize("backend", ["row", "column"])
    def test_bool_predicate_after_index_scan_agrees(self, backend):
        # A boolean sargable predicate evaluated AFTER an index-driven scan
        # (the batch-membership path) must agree with the row backend.
        db = Database(backend=backend)
        db.create_table("t", [("n", "bigint"), ("b", "boolean")])
        db.create_index("t", "n")
        db.insert("t", [(1, True), (2, False), (3, True)])
        got = db.execute("SELECT n FROM t WHERE n IN (1, 2, 3) AND b = TRUE").rows
        assert sorted(got) == [(1,), (3,)]

    def test_large_int64_exact(self):
        db = Database(backend="column")
        db.create_table("t", [("k", "bigint")])
        big = 2**62 + 3
        db.insert("t", [(big,), (big + 1,)])
        mask = db.table("t").isin_mask("k", [np.int64(big)])
        assert mask.tolist() == [True, False]

    @pytest.mark.parametrize("backend", ["row", "column"])
    def test_hostile_numeric_probes_agree_across_backends(self, backend):
        # Out-of-range ints must not overflow; fractional probes must not
        # truncate-match; float-integral probes match (as in the row store).
        db = Database(backend=backend)
        db.create_table("s", [("key", "bigint"), ("g", "integer")])
        base = 2**61 + 7
        db.insert("s", [(base + i, i % 2) for i in range(6)])
        sql = "SELECT key FROM s WHERE key IN (:ks) AND g IN (:gs)"
        assert db.execute(sql, {"ks": [base + 2, base + 5], "gs": [0]}).rows == [(base + 2,)]
        assert db.execute("SELECT key FROM s WHERE key IN (:ks)", {"ks": [2**70]}).rows == []
        assert db.execute("SELECT g FROM s WHERE g IN (:gs)", {"gs": [1.5]}).rows == []
        assert len(db.execute("SELECT g FROM s WHERE g IN (:gs)", {"gs": [1.0]}).rows) == 3
        # residual (non-sargable) IN must be int64-exact too: OR keeps the
        # predicate out of the scan pushdown, exercising the vectorised
        # expression path on the column backend.
        residual = "SELECT key FROM s WHERE key IN (:ks) OR g = :never"
        hit = db.execute(residual, {"ks": [base + 1], "never": 99}).rows
        miss = db.execute(residual, {"ks": [base + 1 + 2**53], "never": 99}).rows
        assert hit == [(base + 1,)]
        assert miss == []
        # numpy scalars and beyond-float64 ints through the residual path
        np_hit = db.execute(residual, {"ks": [np.int64(base + 1)], "never": 99}).rows
        assert np_hit == [(base + 1,)]
        assert db.execute(residual, {"ks": [10**400], "never": 99}).rows == []

    @pytest.mark.parametrize("backend", ["row", "column"])
    def test_huge_int_probe_on_float_column(self, backend):
        db = Database(backend=backend)
        db.create_table("f", [("x", "float")])
        db.insert("f", [(1.5,)])
        got = db.execute("SELECT x FROM f WHERE x IN (:v)", {"v": [10**400, 1.5]}).rows
        assert got == [(1.5,)]


class TestIncrementalIndexMaintenance:
    """``insert_columns`` appends must merge each chunk's sorted run into
    the existing postings (no full re-argsort) and land bit-identical to
    a from-scratch ``create_index`` rebuild."""

    @staticmethod
    def _chunks(batch):
        text = np.array(
            [None if i == batch % 5 else f"tok{(batch + i) % 3}" for i in range(5)],
            dtype=object,
        )
        ints = np.arange(5, dtype=np.int64) * batch
        int_null = np.array([i == (batch + 1) % 5 for i in range(5)])
        floats = np.linspace(0.0, 1.0, 5) + batch
        bools = np.array([-1, 0, 1, 1, 0], dtype=np.int8)
        return [(text, None), (ints, int_null), (floats, None), (bools, None)]

    SCHEMA = [("v", "text"), ("n", "integer"), ("f", "float"), ("b", "boolean")]

    def _load(self, index_first: bool, batches: int = 4):
        db = Database(backend="column")
        db.create_table("t", self.SCHEMA)
        if index_first:
            for column, _ in self.SCHEMA:
                db.create_index("t", column)
        for batch in range(batches):
            db.insert_columns("t", self._chunks(batch))
        if not index_first:
            for column, _ in self.SCHEMA:
                db.create_index("t", column)
        return db.table("t")

    def test_identical_index_state_vs_rebuild(self):
        incremental = self._load(index_first=True)._indexes
        rebuilt = self._load(index_first=False)._indexes
        assert set(incremental) == set(rebuilt) == {"v", "n", "f", "b"}
        for key, postings in rebuilt.items():
            assert set(incremental[key]) == set(postings), key
            for value, positions in postings.items():
                merged = incremental[key][value]
                assert np.array_equal(merged, positions), (key, value)
                assert merged.dtype == positions.dtype

    def test_merged_runs_stay_ascending(self):
        table = self._load(index_first=True)
        for postings in table._indexes.values():
            for positions in postings.values():
                assert (np.diff(positions) > 0).all()

    def test_index_survives_bulk_append(self):
        # Pre-refactor behaviour dropped the index on every bulk append;
        # it must now keep serving (and agree with a scan).
        db = Database(backend="column")
        db.create_table("t", self.SCHEMA)
        db.create_index("t", "v")
        for batch in range(3):
            db.insert_columns("t", self._chunks(batch))
            assert db.table("t").has_index("v")
        got = db.execute("SELECT n FROM t WHERE v IN ('tok0')").rows
        expected = [
            (n,) for v, n in db.execute("SELECT v, n FROM t").rows if v == "tok0"
        ]
        assert sorted(got, key=repr) == sorted(expected, key=repr)

    def test_row_at_a_time_insert_rebuilds_lazily(self):
        db = Database(backend="column")
        db.create_table("t", [("v", "text")])
        db.create_index("t", "v")
        db.insert_columns("t", [(np.array(["a", "b"], dtype=object), None)])
        db.insert("t", [("a",)])  # extends the postings like any append
        table = db.table("t")
        assert table.has_index("v")
        positions, codes, matched = table.index_lookup("v", ["a"])
        assert (positions.tolist(), codes.tolist(), matched.tolist()) == ([0, 2], [0, 0], ["a"])



TYPED_SCHEMA = [("i", "integer"), ("f", "float"), ("b", "boolean"), ("t", "text")]

# NULLs in every type, bools into INTEGER / FLOAT, an int into FLOAT.
TYPED_ROWS = [
    (1, 1.5, True, "x"),
    (None, None, None, None),
    (True, False, False, ""),
    (False, True, None, "y"),
    (-5, 3, True, None),
]


def _typed(rows):
    return [tuple((type(v), v) for v in row) for row in rows]


@pytest.mark.parametrize("backend", ["row", "column"])
class TestInsertIsColumnChunks:
    """``Database.insert`` coerces, then appends through
    ``insert_columns``: the stored rows equal hand-built chunks."""

    def test_matches_hand_built_chunks(self, backend):
        via_insert = Database(backend=backend)
        via_insert.create_table("t", TYPED_SCHEMA)
        assert via_insert.insert("t", TYPED_ROWS) == len(TYPED_ROWS)

        via_chunks = Database(backend=backend)
        via_chunks.create_table("t", TYPED_SCHEMA)
        via_chunks.insert_columns(
            "t",
            [
                (np.array([1, 0, 1, 0, -5], dtype=np.int64),
                 np.array([False, True, False, False, False])),
                (np.array([1.5, 0.0, 0.0, 1.0, 3.0]),
                 np.array([False, True, False, False, False])),
                (np.array([1, -1, 0, -1, 1], dtype=np.int8), None),
                (np.array(["x", None, "", "y", None], dtype=object), None),
            ],
        )
        select = "SELECT * FROM t"
        got = via_insert.execute(select).rows
        assert _typed(got) == _typed(via_chunks.execute(select).rows)
        assert got[2] == (1, 0.0, False, "")

    def test_empty_insert_appends_nothing(self, backend):
        db = Database(backend=backend)
        db.create_table("t", TYPED_SCHEMA)
        epoch = db.data_epoch
        assert db.insert("t", []) == 0
        assert db.num_rows("t") == 0 and db.data_epoch == epoch


def test_row_store_keeps_integers_beyond_int64():
    via_insert = Database(backend="row")
    via_insert.create_table("t", [("k", "integer")])
    via_insert.insert("t", [(2**70,), (None,), (-(2**70),)])

    via_chunks = Database(backend="row")
    via_chunks.create_table("t", [("k", "integer")])
    via_chunks.insert_columns(
        "t",
        [(np.array([2**70, 0, -(2**70)], dtype=object), np.array([False, True, False]))],
    )
    rows = via_insert.execute("SELECT k FROM t").rows
    assert rows == via_chunks.execute("SELECT k FROM t").rows == [(2**70,), (None,), (-(2**70),)]


@pytest.mark.parametrize("backend", ["row", "column"])
class TestRejectedInsertChangesNothing:
    """A rejected ``Database.insert`` lands no row: the rows, ``num_rows``,
    ``COUNT(*)`` and the postings stay as they were, and the next good
    insert lands alone."""

    @staticmethod
    def _state(db):
        lookup = db.table("t").index_lookup("a", [1, 2, 3, 5])
        if isinstance(lookup, tuple):  # the column store's (positions, codes, matched)
            lookup = lookup[0]
        return (
            db.execute("SELECT a, b FROM t").rows,
            db.num_rows("t"),
            db.execute("SELECT COUNT(*) FROM t").rows,
            np.asarray(lookup).tolist(),
        )

    @pytest.mark.parametrize(
        "bad_rows,error",
        [
            ([(2, "y"), (3, 4)], ValueError),  # 4 cannot be TEXT
            ([(2, "y"), ("3", "w")], ValueError),  # "3" cannot be INTEGER
            ([(2, "y"), (3,)], ExecutionError),  # wrong width
        ],
    )
    def test_rejected_rows_leave_the_table_untouched(self, backend, bad_rows, error):
        db = Database(backend=backend)
        db.create_table("t", [("a", "integer"), ("b", "text")])
        db.create_index("t", "a")
        db.insert("t", [(1, "x")])
        before = self._state(db)
        with pytest.raises(error):
            db.insert("t", bad_rows)
        assert self._state(db) == before
        db.insert("t", [(5, "z")])
        assert db.execute("SELECT a, b FROM t").rows == [(1, "x"), (5, "z")]
        assert db.execute("SELECT COUNT(*) FROM t").rows == [(2,)]
        assert db.execute("SELECT b FROM t WHERE a = 5").rows == [("z",)]

    def test_value_beyond_int64(self, backend):
        db = Database(backend=backend)
        db.create_table("t", [("a", "integer"), ("b", "text")])
        db.create_index("t", "a")
        db.insert("t", [(1, "x")])
        before = self._state(db)
        if backend == "column":  # int64 storage: rejected before any row lands
            with pytest.raises(OverflowError):
                db.insert("t", [(2, "y"), (2**70, "w")])
            assert self._state(db) == before
        else:  # Python ints: stored exactly
            db.insert("t", [(2, "y"), (2**70, "w")])
            assert db.execute("SELECT a FROM t WHERE b = 'w'").rows == [(2**70,)]
