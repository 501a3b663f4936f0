"""Sideways index reduction of equi-joins.

When a join's right side reaches a scan through column pass-throughs and
the scanned table indexes a join key, both executors run the left side
first and drive that scan from the index with the left side's distinct
keys. The answer must never change: each random case runs the same SQL
on the column backend with the index, on a copy without it, and on the
row backend with and without it, and all four results must be equal.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from repro.core.seekers import CorrelationSeeker, Rewrite
from repro.core.system import Blend
from repro.engine import Database
from repro.engine import database as database_module
from repro.engine.sql.planner import JoinNode, ScanNode

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
    result = db.execute(sql, params)
    return sorted(result.rows, key=repr), result.stats


@pytest.mark.parametrize("mutate", [False, True], ids=["sealed", "tombstones+delta"])
@pytest.mark.parametrize("seed", [3, 11])
def test_reduced_join_equals_unreduced_on_both_backends(seed, mutate):
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
                        expected = answers[("column", False)][0]
                        for key, (rows, _) in answers.items():
                            assert rows == expected, (key, sql)
                        if right == RIGHTS[1]:
                            # C's shape: the right side became an index scan
                            # and read no more than the unreduced scan did.
                            reduced = answers[("column", True)][1]
                            plain = answers[("column", False)][1]
                            assert reduced.index_scans == 1, sql
                            assert reduced.rows_scanned <= plain.rows_scanned, sql
                        checked += 1
    assert checked == 2 * len(LEFTS) * len(RIGHTS) * len(ONS) * len(KEY_PAIRS)


def _plan_nodes(node, node_type):
    if isinstance(node, node_type):
        yield node
    for attr in ("child", "left", "right"):
        child = getattr(node, attr, None)
        if child is not None:
            yield from _plan_nodes(child, node_type)


def test_planner_annotates_pass_through_right_sides_only():
    db = _database("column", 1, indexed=True, mutate=False)
    plan = db.plan(f"SELECT l.id FROM L l INNER JOIN {RIGHTS[4]} ON l.g = r.g AND l.tk = r.tk")
    (join,) = _plan_nodes(plan, JoinNode)
    right_scan = [scan for scan in _plan_nodes(plan, ScanNode) if scan.table == "R"][0]
    assert join.reduce_scan is right_scan
    assert [column for _, column in join.reduce_keys] == ["g", "tk"]
    for right in (
        "(SELECT DISTINCT ik FROM R) r",
        "(SELECT ik + 0 AS ik FROM R) r",
        "(SELECT * FROM R LIMIT 3) r",
    ):
        plan = db.plan(f"SELECT l.id FROM L l INNER JOIN {right} ON l.ik = r.ik")
        (join,) = _plan_nodes(plan, JoinNode)
        assert join.reduce_scan is None and join.reduce_keys == [], right


@pytest.mark.parametrize("backend", ["column", "row"])
def test_cached_plan_is_not_mutated_by_the_reduction(backend, monkeypatch):
    planned = []
    plan_select = database_module.plan_select

    def spy(*args):
        plan = plan_select(*args)
        planned.append(plan)
        return plan

    monkeypatch.setattr(database_module, "plan_select", spy)
    db = _database(backend, 7, indexed=True, mutate=False)
    reference = _database(backend, 7, indexed=False, mutate=False)
    sql = f"SELECT l.id, r.id FROM L l INNER JOIN {RIGHTS[2]} ON l.ik = r.ik"
    for ids in ([0, 1], [2, 3]):
        rows, stats = _answer(db, sql, {"ids": ids})
        assert rows == _answer(reference, sql, {"ids": ids})[0]
        (plan,) = planned[:1]
        (scan,) = [s for s in _plan_nodes(plan, ScanNode) if s.table == "R"]
        assert [(p.column, p.values) for p in scan.sargable] == [("g", ids)]
    assert stats.plan_cache_hit
    assert len(planned) == 2  # one plan per database, rebound on the second run


E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


@pytest.fixture(scope="module")
def corr_inputs():
    if str(E2E) not in sys.path:
        sys.path.insert(0, str(E2E))
    from blendbench.lakegen import compose_lake

    return compose_lake(71, scale=0.1)


@pytest.mark.parametrize("backend", ["column", "row"])
def test_correlation_scans_only_the_tables_its_keys_hit(corr_inputs, backend):
    """C's `nums` side reads the live rows of the tables the `keys` side
    matched, not the whole relation; a rewrite only narrows it."""
    blend = Blend(corr_inputs.lake, backend=backend)
    blend.build_index()
    db, index = blend.db, blend.index_config.table_name
    keys, targets = corr_inputs.corr[0]
    seeker = CorrelationSeeker(keys, targets)
    params = seeker.params()
    result = db.execute(seeker.sql().format(index=index), params)
    key_rows = db.execute(
        f"SELECT TableId, RowId FROM {index} WHERE CellValue IN (:qj)", params
    ).rows
    hit = sorted({table for table, row in key_rows if row < params["h"]})
    live = db.execute(
        f"SELECT COUNT(*) FROM {index} WHERE TableId IN (:ids)", {"ids": hit}
    ).scalar()
    assert result.rows
    assert result.stats.index_scans == 2
    assert result.stats.rows_scanned <= len(key_rows) + live
    assert result.stats.rows_scanned * 4 < db.num_rows(index)
    rewrite = Rewrite("intersect", tuple(hit[: max(1, len(hit) // 2)]))
    narrowed = db.execute(seeker.sql(rewrite).format(index=index), seeker.params(rewrite))
    assert narrowed.stats.rows_scanned <= result.stats.rows_scanned
