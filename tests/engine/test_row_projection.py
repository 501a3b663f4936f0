"""Plain column projections: the row executor gathers a projection of two
or more bare column references with one ``itemgetter`` per row instead of
a closure per column. Its rows must equal the closure path's (forced
here by one extra literal column, then sliced off) and the column
backend's, for repeated, qualified, join-side and subquery columns."""

import pytest

from repro.engine import Database

PROJECTIONS = {
    "repeated": "SELECT customer, qty, customer FROM orders",
    "qualified": "SELECT o.product, o.customer FROM orders AS o",
    "join-sides": (
        "SELECT c.city, o.customer, o.qty, c.name FROM orders AS o "
        "INNER JOIN customers AS c ON o.customer = c.name"
    ),
    "subquery": "SELECT s.qty, s.product FROM (SELECT * FROM orders WHERE qty > 1) AS s",
    "nulls": "SELECT qty, price FROM orders",
}


def _database(backend: str) -> Database:
    db = Database(backend=backend)
    db.create_table(
        "orders",
        [("customer", "text"), ("product", "text"), ("qty", "integer"), ("price", "float")],
    )
    db.insert(
        "orders",
        [
            ("alice", "laptop", 1, 1200.0),
            ("alice", "mouse", 3, 25.0),
            ("bob", "laptop", 2, None),
            ("carol", "mouse", None, 20.0),
            ("dave", None, 4, 5.0),
        ],
    )
    db.create_table("customers", [("name", "text"), ("city", "text")])
    db.insert("customers", [("alice", "berlin"), ("bob", "paris"), ("carol", None)])
    return db


def _closure_path(db: Database, sql: str) -> list[tuple]:
    forced = sql.replace(" FROM ", ", 0 AS pad FROM ", 1)
    return [row[:-1] for row in db.execute(forced).rows]


@pytest.mark.parametrize("name", PROJECTIONS)
def test_column_projection_equals_closure_path(name):
    sql = PROJECTIONS[name]
    results = {}
    for backend in ("row", "column"):
        db = _database(backend)
        rows = db.execute(sql).rows
        assert rows == _closure_path(db, sql), (backend, name)
        assert all(isinstance(row, tuple) for row in rows)
        results[backend] = sorted(rows, key=repr)
    assert results["row"] == results["column"], name
    assert results["row"], name
