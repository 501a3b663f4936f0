"""The optimizer runs a plan's unrewritten same-kind seekers as one
batch: ``Optimizer.optimize`` records, per batchable kind, the seekers
no rewrite restricts (two or more), and ``PlanExecutor.run`` runs each
batch through ``execute_batch`` at its first member's place. B-NO
(``Optimizer.unoptimized``) records none. Batched and serial runs of the
Table III plans and the union-search plan must agree node for node."""

import random

import pytest

from repro import Blend, DataLake, Table
from repro.core import tasks
from repro.core.executor import PlanExecutor
from repro.core.system import union_search_plan
from repro.engine import Database

KEYS = [f"k{i}" for i in range(20)]
CITIES = [f"c{i}" for i in range(8)]


def _lake(seed: int) -> DataLake:
    rng = random.Random(seed)
    lake = DataLake(f"plans{seed}")
    for t in range(14):
        rows = [
            (rng.choice(KEYS), rng.choice(CITIES), rng.randint(0, 50), round(rng.uniform(0, 9), 1))
            for _ in range(rng.randint(5, 30))
        ]
        lake.add(Table(f"t{t}", ["key", "city", "n", "x"], rows))
    return lake


def _plans(lake: DataLake) -> dict:
    rng = random.Random(3)
    rows = [row for _, table in lake.items() for row in table.rows]
    pairs = [row[:2] for row in rng.sample(rows, 24)]
    keys = [row[0] for row in rows[:40]]
    target = [row[2] for row in rows[:40]]
    features = [[value * 2 for value in target], [row[3] for row in rows[:40]]]
    examples = Table("examples", ["key", "n"], [(row[0], row[2]) for row in rows[:30]])
    return {
        "negative": tasks.negative_examples_plan(pairs[:12], pairs[12:16], k=5),
        "imputation": tasks.imputation_plan(pairs[16:], [row[0] for row in rows[:20]], k=5),
        "feature": tasks.feature_discovery_plan(pairs[:8], keys, target, features, k=5),
        "multi_objective": tasks.multi_objective_plan_no_imputation(
            keys[:3], examples, "key", "n", k=5
        ),
        "union": union_search_plan(Table("q", ["key", "city", "n"], [r[:3] for r in rows[:12]])),
    }


@pytest.fixture(scope="module", params=["row", "column"])
def blend(request):
    blend = Blend(_lake(13), backend=request.param)
    blend.build_index()
    return blend


def test_optimize_lists_batches_and_bno_none(blend):
    plans = _plans(blend.lake)
    batches = {name: blend.plan_for(plan).batches for name, plan in plans.items()}
    assert batches["feature"] == [("feat0", "feat1")]
    assert batches["multi_objective"] == [("key", "n")]
    assert batches["union"] == [("sc_0_key", "sc_1_city", "sc_2_n")]
    assert batches["negative"] == batches["imputation"] == []
    for plan in plans.values():
        assert blend.plan_for(plan, optimize=False).batches == []
        execution = blend.plan_for(plan)
        for batch in execution.batches:
            assert not set(batch) & set(execution.rewrites)
            positions = [execution.order.index(name) for name in batch]
            assert positions == sorted(positions)
    assert "one scan: feat0, feat1" in blend.plan_for(plans["feature"]).describe()


def test_batched_equals_serial(blend):
    for name, plan in _plans(blend.lake).items():
        execution = blend.plan_for(plan)
        batched = PlanExecutor(blend.context()).run(plan, execution)
        execution.batches = []
        serial = PlanExecutor(blend.context()).run(plan, execution)
        assert batched.output == serial.output, name
        assert batched.order == serial.order, name
        for node, run in serial.node_runs.items():
            assert batched.node_runs[node].result == run.result, (name, node)
        for batch in blend.plan_for(plan).batches:
            assert [batched.node_runs[member].seconds for member in batch[1:]] == [0.0] * (
                len(batch) - 1
            )


def test_union_plan_is_one_value_scan(blend, monkeypatch):
    plan = _plans(blend.lake)["union"]
    expected = blend.run(plan, optimize=False).output
    statements = []
    for entry in ("execute", "execute_columnar"):
        original = getattr(Database, entry)

        def counting(self, sql, *args, _entry=entry, _original=original, **kwargs):
            statements.append(_entry)
            return _original(self, sql, *args, **kwargs)

        monkeypatch.setattr(Database, entry, counting)
    assert blend.run(plan).output == expected
    assert statements == ["execute_columnar"]
    statements.clear()
    blend.run(plan, optimize=False)
    assert statements == ["execute_columnar"] * 3
