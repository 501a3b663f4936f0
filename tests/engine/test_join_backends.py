"""Equi-joins answer alike on both backends, with and without indexes.

Each random case runs the same INNER or LEFT join on the column backend
with indexes on the right table's keys, on a copy without them, and on
the row backend with and without them; all four results must be equal.
Keys mix types (int/float, bool/int), NULLs, keys absent on one side,
tombstones and a delta segment.
"""

from __future__ import annotations

import random

import pytest

from repro.engine import Database

SCHEMA = [
    ("id", "integer"),
    ("g", "integer"),
    ("ik", "integer"),
    ("fk", "float"),
    ("bk", "boolean"),
    ("tk", "text"),
    ("v", "integer"),
]
INDEXED = ("g", "ik", "fk", "bk", "tk")
# Left and right draw keys from overlapping but unequal domains, so some
# left keys are absent on the right; None makes NULL keys.
DOMAINS = {
    "L": {
        "ik": [None, 0, 1, 2, 3, 4],
        "fk": [None, 0.0, 1.0, 1.5, 2.0, 7.25],
        "bk": [None, True, False],
        "tk": [None, "a", "b", "1", "x"],
    },
    "R": {
        "ik": [None, 1, 2, 5, 6],
        "fk": [None, 1.0, 1.5, 3.0],
        "bk": [None, True, False],
        "tk": [None, "a", "1", "c"],
    },
}
# (left key, right key): same types, plus int/float and bool/int pairs
# (TRUE joins 1 and 1.0 joins 1 on both backends).
KEY_PAIRS = [
    ("ik", "ik"),
    ("fk", "fk"),
    ("tk", "tk"),
    ("bk", "bk"),
    ("bk", "ik"),
    ("ik", "bk"),
    ("fk", "ik"),
]
LEFTS = ["L l", "(SELECT * FROM L WHERE v < 0) l"]  # the second is empty
RIGHTS = [
    "R r",
    # C's `nums` shape: only a residual on the right scan
    "(SELECT * FROM R WHERE v < 3 AND g IS NOT NULL) r",
    # the optimizer's intersect rewrite: a sargable TableId-style IN
    "(SELECT * FROM R WHERE v < 4 AND tk IS NOT NULL AND g IN (:ids)) r",
    # the difference rewrite: NOT IN stays a residual
    "(SELECT * FROM R WHERE v < 4 AND g NOT IN (:ids)) r",
    "(SELECT id, v, g, ik, fk, bk, tk FROM R WHERE g IN (1, 2)) r",
]
ONS = [
    "l.{lk} = r.{rk} AND l.v <> r.v",
    # two keys, only the second indexed
    "l.v = r.v AND l.{lk} = r.{rk}",
]


def _rows(rng: random.Random, side: str, count: int, start: int) -> list[tuple]:
    domain = DOMAINS[side]
    return [
        (
            start + i,
            rng.randrange(4),
            rng.choice(domain["ik"]),
            rng.choice(domain["fk"]),
            rng.choice(domain["bk"]),
            rng.choice(domain["tk"]),
            rng.randrange(5),
        )
        for i in range(count)
    ]


def _database(backend: str, seed: int, indexed: bool, mutate: bool) -> Database:
    rng = random.Random(seed)
    db = Database(backend=backend)
    for name in ("L", "R"):
        db.create_table(name, SCHEMA)
    db.insert("L", _rows(rng, "L", 25, 0))
    db.insert("R", _rows(rng, "R", 40, 100))
    if indexed:
        for column in INDEXED:
            db.create_index("R", column)
    if mutate:
        # Tombstones in the base, then a delta segment after them.
        db.execute("SELECT COUNT(*) FROM R")
        db.delete_rows("R", "g", [0])
        db.insert("R", _rows(rng, "R", 15, 200))
    return db


def _answer(db: Database, sql: str, params: dict):
    return sorted(db.execute(sql, params).rows, key=repr)


@pytest.mark.parametrize("mutate", [False, True], ids=["sealed", "tombstones+delta"])
@pytest.mark.parametrize("seed", [3, 11])
def test_joins_agree_across_backends_and_indexes(seed, mutate):
    dbs = {
        (backend, indexed): _database(backend, seed, indexed, mutate)
        for backend in ("column", "row")
        for indexed in (True, False)
    }
    params = {"ids": [1, 3]}
    checked = 0
    for join in ("INNER", "LEFT"):
        for left in LEFTS:
            for right in RIGHTS:
                for on in ONS:
                    for lk, rk in KEY_PAIRS:
                        sql = (
                            f"SELECT l.id, r.id, r.v FROM {left} {join} JOIN {right} "
                            f"ON {on.format(lk=lk, rk=rk)}"
                        )
                        answers = {key: _answer(db, sql, params) for key, db in dbs.items()}
                        expected = answers[("column", False)]
                        for key, rows in answers.items():
                            assert rows == expected, (key, sql)
                        checked += 1
    assert checked == 2 * len(LEFTS) * len(RIGHTS) * len(ONS) * len(KEY_PAIRS)


@pytest.mark.parametrize("backend", ["column", "row"])
def test_join_in_parameter_rebinds_through_the_plan_cache(backend):
    """A cached join plan takes fresh ``IN (:ids)`` values on its right
    side: the second binding is a cache hit and answers as a fresh plan."""
    db = _database(backend, 7, indexed=True, mutate=False)
    sql = f"SELECT l.id, r.id FROM L l INNER JOIN {RIGHTS[2]} ON l.ik = r.ik"
    bindings = ({"ids": [0, 1]}, {"ids": [2, 3]})
    answers = [_answer(db, sql, params) for params in bindings]
    assert db.plan_cache_stats()["hits"] == 1
    fresh = [_answer(_database(backend, 7, False, False), sql, params) for params in bindings]
    assert answers == fresh
    assert answers[0] != answers[1]
