"""Cross-backend BOOLEAN type parity.

Historically (seed through PR 6) the column backend materialised BOOLEAN
results as int 0/1 (``ColumnTable.column_values`` served int64 to the
vectorised executor) while the row backend returned True/False --
invisible to ``==`` (``True == 1``) but visible to ``type()``. The
divergence was pinned here as a strict xfail until the column store grew
a boolean-typed logical view over its int8-with-NULL storage. Both
backends now agree on ``type()``, and this module pins that parity --
values, Python types, and aggregate (MIN/MAX/SUM) result types.
"""

from repro.engine import Database


def _boolean_db(backend: str) -> "Database":
    db = Database(backend=backend)
    db.create_table("t", [("flag", "boolean"), ("n", "integer")])
    db.insert("t", [(True, 1), (False, 2), (None, 3)])
    return db


def _boolean_rows(backend: str) -> list:
    return _boolean_db(backend).execute("SELECT flag FROM t ORDER BY n").column()


def test_boolean_values_compare_equal_across_backends():
    assert _boolean_rows("row") == _boolean_rows("column") == [True, False, None]


def test_boolean_result_types_match_across_backends():
    row_values = _boolean_rows("row")
    column_values = _boolean_rows("column")
    assert [type(v) for v in row_values] == [type(v) for v in column_values]
    assert all(isinstance(v, bool) for v in column_values[:2])


def test_boolean_min_max_type_parity():
    """MIN/MAX over a BOOLEAN column returns bool on both backends (the
    column backend's int64 min/max scratch must re-type on the way out)."""
    for backend in ("row", "column"):
        result = _boolean_db(backend).execute("SELECT MIN(flag), MAX(flag) FROM t")
        (lo, hi), = result.rows
        assert (lo, hi) == (False, True)
        assert type(lo) is bool and type(hi) is bool, backend


def test_boolean_sum_keeps_duality():
    """SUM over BOOLEAN stays an int count of trues (true=1 duality)."""
    for backend in ("row", "column"):
        (total,), = _boolean_db(backend).execute("SELECT SUM(flag) FROM t").rows
        assert total == 1 and type(total) is int, backend


def test_boolean_predicates_and_duality_filters():
    """Predicate evaluation keeps the true=1 duality: ``flag = 1`` and
    ``flag = true`` select the same rows on both backends."""
    for backend in ("row", "column"):
        db = _boolean_db(backend)
        by_literal = db.execute("SELECT n FROM t WHERE flag = true").column()
        by_int = db.execute("SELECT n FROM t WHERE flag = 1").column()
        assert by_literal == by_int == [1], backend
        assert db.execute("SELECT n FROM t WHERE flag IN (0)").column() == [2], backend


def test_boolean_types_survive_where_order_and_star():
    """Full-row materialisation (SELECT *) and ordered scans keep bool."""
    for backend in ("row", "column"):
        rows = _boolean_db(backend).execute(
            "SELECT * FROM t WHERE n <= 2 ORDER BY flag DESC"
        ).rows
        assert rows == [(True, 1), (False, 2)], backend
        assert [type(r[0]) for r in rows] == [bool, bool], backend
