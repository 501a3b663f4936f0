"""Extended SQL feature coverage on both backends: HAVING over computed
aggregates, LIKE, COALESCE, string functions, casts, and edge shapes the
seeker queries rely on."""

import numpy as np
import pytest

from repro.engine import Database
from repro.errors import PlanningError


@pytest.fixture(params=["row", "column"])
def db(request):
    database = Database(backend=request.param)
    database.create_table(
        "orders",
        [("customer", "text"), ("product", "text"), ("qty", "integer"), ("price", "float")],
    )
    database.insert(
        "orders",
        [
            ("alice", "laptop", 1, 1200.0),
            ("alice", "mouse", 3, 25.0),
            ("bob", "laptop", 2, 1150.0),
            ("bob", "desk", 1, 300.0),
            ("carol", "mouse", None, 20.0),
            ("carol", "monitor", 2, 220.0),
        ],
    )
    return database


class TestHaving:
    def test_having_on_computed_aggregate(self, db):
        result = db.execute(
            "SELECT customer, SUM(qty * price) AS total FROM orders "
            "GROUP BY customer HAVING SUM(qty * price) > 500 ORDER BY customer"
        )
        assert result.column() == ["alice", "bob"]

    def test_having_with_conjunction(self, db):
        result = db.execute(
            "SELECT customer FROM orders GROUP BY customer "
            "HAVING COUNT(*) >= 2 AND MIN(price) < 30 ORDER BY customer"
        )
        assert result.column() == ["alice", "carol"]

    def test_having_references_group_key(self, db):
        result = db.execute(
            "SELECT product FROM orders GROUP BY product "
            "HAVING product = 'laptop'"
        )
        assert result.column() == ["laptop"]

    def test_having_without_group_by(self, db):
        assert db.execute(
            "SELECT COUNT(*) FROM orders HAVING COUNT(*) > 100"
        ).rows == []


class TestScalarFunctions:
    def test_like_wildcards(self, db):
        result = db.execute(
            "SELECT DISTINCT product FROM orders WHERE product LIKE 'm%' ORDER BY product"
        )
        assert result.column() == ["monitor", "mouse"]

    def test_like_underscore(self, db):
        result = db.execute("SELECT DISTINCT product FROM orders WHERE product LIKE 'de_k'")
        assert result.column() == ["desk"]

    def test_not_like(self, db):
        result = db.execute(
            "SELECT DISTINCT product FROM orders WHERE product NOT LIKE '%o%' ORDER BY product"
        )
        assert result.column() == ["desk"]

    def test_coalesce(self, db):
        result = db.execute(
            "SELECT customer, COALESCE(qty, 0) FROM orders WHERE product = 'mouse' "
            "ORDER BY customer"
        )
        assert result.rows == [("alice", 3), ("carol", 0)]

    def test_upper_lower_length(self, db):
        result = db.execute(
            "SELECT UPPER(customer), LOWER('ABC'), LENGTH(product) FROM orders "
            "WHERE product = 'desk'"
        )
        assert result.rows == [("BOB", "abc", 4)]

    def test_abs_and_sqrt(self, db):
        assert db.execute("SELECT ABS(-3), SQRT(16.0)").rows == [(3, 4.0)]

    def test_unknown_function(self, db):
        with pytest.raises(PlanningError):
            db.execute("SELECT MAGIC(customer) FROM orders")


class TestCastsAndArithmetic:
    def test_boolean_cast_in_sum(self, db):
        assert db.execute(
            "SELECT SUM((price > 100)::int) FROM orders"
        ).scalar() == 4

    def test_float_cast(self, db):
        assert db.execute("SELECT 3::float / 2").scalar() == 1.5

    def test_division_by_zero_yields_null(self, db):
        assert db.execute("SELECT 1 / 0").scalar() is None

    def test_modulo(self, db):
        result = db.execute("SELECT qty % 2 FROM orders WHERE qty IS NOT NULL ORDER BY qty")
        assert result.column() == [1, 1, 0, 0, 1]

    def test_text_cast(self, db):
        assert db.execute("SELECT 12::text").scalar() == "12"


def test_column_results_are_python_values():
    """The column backend hands back Python scalars for every column type,
    NumPy scalar parameters included."""
    db = Database(backend="column")
    db.create_table("t", [("s", "text"), ("i", "integer"), ("f", "float"), ("b", "boolean")])
    db.insert("t", [("x", 1, 0.5, True), (None, None, None, None)])
    rows = db.execute(
        "SELECT s, i, f, b, :n, :w FROM t ORDER BY i", {"n": np.int64(7), "w": np.str_("w")}
    ).rows
    assert rows == [("x", 1, 0.5, True, 7, "w"), (None, None, None, None, 7, "w")]
    assert [type(v) for v in rows[0]] == [str, int, float, bool, int, str]


class TestNullPropagation:
    def test_arithmetic_with_null(self, db):
        result = db.execute(
            "SELECT qty * price FROM orders WHERE customer = 'carol' ORDER BY product"
        )
        assert result.rows == [(440.0,), (None,)]

    def test_aggregates_skip_nulls(self, db):
        result = db.execute("SELECT COUNT(qty), SUM(qty), AVG(qty) FROM orders")
        count, total, avg = result.rows[0]
        assert count == 5
        assert total == 9
        assert avg == pytest.approx(9 / 5)

    def test_where_null_comparison_drops_rows(self, db):
        assert db.execute("SELECT COUNT(*) FROM orders WHERE qty > 0").scalar() == 5


class TestSubqueryShapes:
    def test_aggregate_over_derived_table(self, db):
        result = db.execute(
            "SELECT customer, COUNT(*) FROM "
            "(SELECT * FROM orders WHERE price > 100) AS big "
            "GROUP BY customer ORDER BY customer"
        )
        assert result.rows == [("alice", 1), ("bob", 2), ("carol", 1)]

    def test_nested_derived_tables(self, db):
        result = db.execute(
            "SELECT COUNT(*) FROM (SELECT * FROM "
            "(SELECT customer FROM orders WHERE qty IS NOT NULL) AS inner_q"
            ") AS outer_q"
        )
        assert result.scalar() == 5

    def test_self_join_via_subqueries(self, db):
        result = db.execute(
            "SELECT a.customer FROM "
            "(SELECT * FROM orders WHERE product = 'laptop') AS a "
            "INNER JOIN (SELECT * FROM orders WHERE product = 'mouse') AS b "
            "ON a.customer = b.customer"
        )
        assert result.column() == ["alice"]

    def test_group_inside_subquery(self, db):
        result = db.execute(
            "SELECT MAX(total) FROM "
            "(SELECT customer, SUM(price) AS total FROM orders GROUP BY customer) AS sums"
        )
        assert result.scalar() == pytest.approx(1450.0)
