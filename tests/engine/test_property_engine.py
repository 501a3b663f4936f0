"""Property-based tests: the row and column executors must agree on
arbitrary data, and engine invariants must hold under random inputs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.errors import ExecutionError

# Small alphabets make collisions (joins, group keys) likely.
TEXTS = st.one_of(st.none(), st.sampled_from(["a", "b", "c", "d", "e"]))
INTS = st.one_of(st.none(), st.integers(min_value=-3, max_value=3))
# Values whose span dwarfs any row count (the column executor's grouping
# sorts them instead of ranking them through a bitmap) and whose sums
# leave float64's exact range or int64 altogether.
WIDE_VALUES = [2**40, -(2**40), 2**62, -3, 0]
WIDE_INTS = st.one_of(st.none(), st.sampled_from(WIDE_VALUES))
FLOATS = st.one_of(
    st.none(), st.floats(min_value=-5, max_value=5, allow_nan=False, width=32)
)

ROWS = st.lists(st.tuples(TEXTS, INTS, FLOATS), min_size=0, max_size=40)
WIDE_ROWS = st.lists(st.tuples(TEXTS, WIDE_INTS, FLOATS), min_size=0, max_size=40)

AGGREGATE_QUERIES = [
    "SELECT t, COUNT(*), COUNT(i), COUNT(DISTINCT i) FROM data GROUP BY t ORDER BY t",
    "SELECT t, SUM(i), MIN(i), MAX(i) FROM data GROUP BY t ORDER BY t",
    "SELECT i, COUNT(DISTINCT t) FROM data GROUP BY i ORDER BY i",
    "SELECT COUNT(*) FROM data WHERE i > 0 AND t IN ('a', 'b')",
    "SELECT t, i FROM data WHERE i IS NOT NULL ORDER BY i DESC, t LIMIT 5",
    "SELECT SUM((i > 0)::int) FROM data",
    "SELECT t FROM data GROUP BY t HAVING COUNT(*) > 2 ORDER BY t",
    "SELECT DISTINCT t FROM data ORDER BY t",
    "SELECT AVG(f) FROM data WHERE f IS NOT NULL",
]

INTEGER_AGGREGATE_QUERIES = [
    "SELECT t, SUM(i), MIN(i), MAX(i) FROM data GROUP BY t ORDER BY t",
    "SELECT SUM(i), MIN(i), MAX(i), COUNT(DISTINCT i) FROM data",
    "SELECT t, SUM(DISTINCT i) FROM data GROUP BY t ORDER BY t",
    "SELECT i, t, COUNT(*), MAX(f) FROM data GROUP BY i, t ORDER BY i, t",
]

# A small AllTables: one row per lake cell, as the seekers query it.
CELLS_SCHEMA = [
    ("TableId", "integer"),
    ("ColumnId", "integer"),
    ("RowId", "integer"),
    ("CellValue", "text"),
    ("Quadrant", "integer"),
]
NARROW_IDS = [0, 1, 2, 3]


@st.composite
def cell_rows(draw, table_ids):
    cell = st.tuples(
        st.sampled_from(table_ids),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=3),
        TEXTS,
        st.one_of(st.none(), st.sampled_from([0, 1])),
    )
    return draw(st.lists(cell, max_size=40))


SEEKER_SHAPES = [
    # SC: overlap per (table, column), ranked with a LIMIT
    "SELECT TableId, COUNT(DISTINCT CellValue) AS overlap FROM cells "
    "WHERE CellValue IN ('a', 'b', 'c') GROUP BY TableId, ColumnId "
    "ORDER BY overlap DESC, TableId, ColumnId LIMIT 4",
    # C: self-join on (table, row) across different columns, HAVING
    "SELECT k.TableId, "
    "ABS((2.0 * SUM(((k.CellValue IN ('a', 'b') AND n.Quadrant = 0) "
    "OR (k.CellValue IN ('c') AND n.Quadrant = 1))::int) - COUNT(*)) / COUNT(*)) AS qcr "
    "FROM (SELECT * FROM cells WHERE RowId < 3 AND CellValue IN ('a', 'b', 'c')) k "
    "INNER JOIN (SELECT * FROM cells WHERE RowId < 3 AND Quadrant IS NOT NULL) n "
    "ON k.TableId = n.TableId AND k.RowId = n.RowId AND k.ColumnId <> n.ColumnId "
    "GROUP BY k.TableId, n.ColumnId, k.ColumnId "
    "HAVING COUNT(*) >= 2 "
    "ORDER BY qcr DESC, k.TableId, n.ColumnId, k.ColumnId",
]


def _build(backend, rows):
    db = Database(backend=backend)
    db.create_table("data", [("t", "text"), ("i", "integer"), ("f", "float")])
    db.insert("data", rows)
    return db


def _outcome(db, query):
    """Result rows, or the error class when the query is out of range."""
    try:
        return _approx_rows(db.execute(query).rows)
    except ExecutionError as exc:
        return type(exc).__name__, str(exc)


def _approx_rows(rows):
    out = []
    for row in rows:
        out.append(
            tuple(
                round(value, 9) if isinstance(value, float) else value for value in row
            )
        )
    return out


class TestExecutorAgreement:
    @pytest.mark.parametrize("query", AGGREGATE_QUERIES)
    @given(rows=ROWS)
    @settings(max_examples=25, deadline=None)
    def test_row_and_column_agree(self, query, rows):
        row_result = _build("row", rows).execute(query).rows
        column_result = _build("column", rows).execute(query).rows
        assert _approx_rows(row_result) == _approx_rows(column_result)

    @pytest.mark.parametrize("query", INTEGER_AGGREGATE_QUERIES)
    @given(rows=WIDE_ROWS)
    @settings(max_examples=25, deadline=None)
    def test_wide_integers_agree(self, query, rows):
        """Wide-span keys group alike, and integer SUM / MIN / MAX are
        exact on both backends (a SUM outside int64 fails on both)."""
        assert _outcome(_build("row", rows), query) == _outcome(_build("column", rows), query)

    @pytest.mark.parametrize("query", SEEKER_SHAPES)
    @pytest.mark.parametrize("table_ids", [NARROW_IDS, WIDE_VALUES], ids=["narrow", "wide"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_seeker_shapes_agree(self, query, table_ids, data):
        rows = data.draw(cell_rows(table_ids))
        outcomes = []
        for backend in ("row", "column"):
            db = Database(backend=backend)
            db.create_table("cells", CELLS_SCHEMA)
            db.insert("cells", rows)
            outcomes.append(_outcome(db, query))
        assert outcomes[0] == outcomes[1]

    @given(rows=ROWS, values=st.lists(st.sampled_from(["a", "b", "z"]), max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_index_matches_full_scan(self, rows, values):
        """An index scan must return exactly what the filter returns."""
        results = []
        for use_index in (False, True):
            db = _build("column", rows)
            if use_index:
                db.create_index("data", "t")
            result = db.execute(
                "SELECT t, i FROM data WHERE t IN (:v) ORDER BY t, i",
                {"v": values},
            )
            results.append(result.rows)
        assert results[0] == results[1]

    @given(rows=ROWS)
    @settings(max_examples=25, deadline=None)
    def test_join_agreement(self, rows):
        query = (
            "SELECT a.t, b.i FROM "
            "(SELECT * FROM data WHERE i IS NOT NULL) AS a "
            "INNER JOIN (SELECT * FROM data WHERE f IS NOT NULL) AS b "
            "ON a.t = b.t AND a.i = b.i "
            "ORDER BY a.t, b.i"
        )
        row_result = _build("row", rows).execute(query).rows
        column_result = _build("column", rows).execute(query).rows
        assert row_result == column_result


class TestEngineInvariants:
    @given(rows=ROWS, k=st.integers(min_value=0, max_value=10))
    @settings(max_examples=25, deadline=None)
    def test_limit_is_prefix_of_unlimited(self, rows, k):
        db = _build("column", rows)
        unlimited = db.execute("SELECT i FROM data ORDER BY i, t").rows
        limited = db.execute(f"SELECT i FROM data ORDER BY i, t LIMIT {k}").rows
        assert limited == unlimited[:k]

    @given(rows=ROWS)
    @settings(max_examples=25, deadline=None)
    def test_count_star_equals_row_count(self, rows):
        db = _build("row", rows)
        assert db.execute("SELECT COUNT(*) FROM data").scalar() == len(rows)

    @given(rows=ROWS)
    @settings(max_examples=25, deadline=None)
    def test_group_counts_sum_to_total(self, rows):
        db = _build("column", rows)
        groups = db.execute("SELECT t, COUNT(*) FROM data GROUP BY t").rows
        assert sum(count for _, count in groups) == len(rows)

    @given(rows=ROWS)
    @settings(max_examples=20, deadline=None)
    def test_distinct_is_idempotent(self, rows):
        db = _build("column", rows)
        once = db.execute("SELECT DISTINCT t FROM data ORDER BY t").rows
        assert len(set(once)) == len(once)
