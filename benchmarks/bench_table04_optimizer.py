"""Table IV -- optimizer effectiveness: Rand vs BLEND vs Ideal.

Random two-seeker Intersection plans per seeker class (Mixed / SC / MC /
C) are executed in both possible orders; *Rand* is the expected runtime of
a random order (mean of both), *Ideal* is an oracle that always picks the
faster order, *BLEND* is the optimizer's choice including its own
overhead, reported split into ``plan_for`` time and the chosen order's
execution time. *Accuracy* is the fraction of plans where the optimizer picked
the truly faster order, with the paper's z-test against the 50 % random
baseline.

Expected shape: large gains for MC/C-heavy plans, modest for SC-only;
accuracy well above 50 %, below the oracle's 100 %.
"""

from __future__ import annotations

import math
import random
import statistics

import pytest

from repro import Blend, Combiners, Plan
from repro.core.optimizer.cost_model import (
    _random_c,
    _random_kw,
    _random_mc,
    _random_sc,
)
from repro.core.executor import PlanExecutor
from repro.core.optimizer.planner import ExecutionPlan, RewriteSpec
from repro.eval import render_table, timed
from repro.lake.generators import CorpusConfig, generate_corpus

PLANS_PER_CLASS = 20
K = 10
ROUNDS = 5  # timed rounds per plan behind each median


@pytest.fixture(scope="module")
def blend():
    lake = generate_corpus(
        CorpusConfig(name="gittables_like", num_tables=200, min_rows=10, max_rows=120, seed=41)
    )
    deployment = Blend(lake, backend="column")
    deployment.build_index()
    deployment.train_optimizer(samples_per_type=25, seed=5)
    return deployment


def _sample_seeker(kind, lake, rng):
    makers = {"SC": _random_sc, "KW": _random_kw, "MC": _random_mc, "C": _random_c}
    for _ in range(50):
        seeker = makers[kind](lake, rng, K)
        if seeker is not None:
            return seeker
    raise RuntimeError(f"could not sample a {kind} seeker")


def _sample_plan(seeker_class, lake, rng):
    """A random 2-seeker Intersection plan of the given class."""
    if seeker_class == "Mixed":
        kinds = rng.sample(["SC", "KW", "MC", "C"], 2)
    else:
        kinds = [seeker_class, seeker_class]
    plan = Plan()
    plan.add("a", _sample_seeker(kinds[0], lake, rng))
    plan.add("b", _sample_seeker(kinds[1], lake, rng))
    plan.add("i", Combiners.Intersect(k=K), ["a", "b"])
    return plan


def _forced_execution(first, second):
    return ExecutionPlan(
        order=[first, second, "i"],
        rewrites={second: RewriteSpec(mode="intersect", source_nodes=(first,))},
    )


def _measure_plan(blend, plan):
    """Both forced orders and the optimizer's decision: a warm-up run
    each, then ROUNDS rounds that time the three in turn, so a slow spell
    of the machine lands on all of them; each time is the median over its
    rounds, which one stall cannot move."""
    executor = PlanExecutor(blend.context())
    forced = {"a": _forced_execution("a", "b"), "b": _forced_execution("b", "a")}

    # BLEND: optimization (``plan_for``) + execution of the chosen order,
    # each timed on its own.
    def optimized_run():
        execution, plan_seconds = timed(lambda: blend.plan_for(plan))
        _, run_seconds = timed(lambda: executor.run(plan, execution))
        return execution, plan_seconds, run_seconds

    for order in forced.values():
        executor.run(plan, order)  # warm-up
    optimized_run()  # warm-up
    samples = {"a": [], "b": [], "plan": [], "exec": []}
    for _ in range(ROUNDS):
        for first, order in forced.items():
            samples[first].append(timed(lambda order=order: executor.run(plan, order))[1])
        execution, plan_seconds, run_seconds = optimized_run()
        samples["plan"].append(plan_seconds)
        samples["exec"].append(run_seconds)
    median = {name: statistics.median(times) for name, times in samples.items()}
    timings = {first: median[first] for first in forced}
    plan_seconds, run_seconds = median["plan"], median["exec"]
    seeker_order = [n for n in execution.order if n in ("a", "b")]
    chosen_first = seeker_order[0]
    truly_first = min(timings, key=timings.get)
    return {
        "rand": statistics.fmean(timings.values()),
        "ideal": min(timings.values()),
        "blend": plan_seconds + run_seconds,
        "plan": plan_seconds,
        "exec": run_seconds,
        "correct": chosen_first == truly_first
        or abs(timings["a"] - timings["b"]) < 0.1 * max(timings.values()),
    }


@pytest.fixture(scope="module")
def measurements(blend):
    rng = random.Random(77)
    results = {}
    for seeker_class in ("Mixed", "SC", "MC", "C"):
        rows = []
        for _ in range(PLANS_PER_CLASS):
            plan = _sample_plan(seeker_class, blend.lake, rng)
            rows.append(_measure_plan(blend, plan))
        results[seeker_class] = rows
    return results


@pytest.mark.parametrize("seeker_class", ["Mixed", "SC", "MC", "C"])
def test_optimized_plan_runtime(benchmark, blend, seeker_class):
    """Benchmark: optimizing + executing one plan of each class."""
    rng = random.Random(ord(seeker_class[0]))
    plan = _sample_plan(seeker_class, blend.lake, rng)
    benchmark(lambda: blend.run(plan))


def test_table04_report(benchmark, measurements, report_writer):
    def summarise():
        rows = []
        for seeker_class, samples in measurements.items():
            rand = statistics.fmean(s["rand"] for s in samples)
            blend_time = statistics.fmean(s["blend"] for s in samples)
            ideal = statistics.fmean(s["ideal"] for s in samples)
            accuracy = statistics.fmean(1.0 if s["correct"] else 0.0 for s in samples)
            plan_time = statistics.fmean(s["plan"] for s in samples)
            exec_time = statistics.fmean(s["exec"] for s in samples)
            rows.append(
                [
                    seeker_class,
                    f"{rand * 1e3:.2f}",
                    f"{blend_time * 1e3:.2f}",
                    f"{ideal * 1e3:.2f}",
                    f"{(1 - blend_time / rand) * 100:.1f}%" if rand > 0 else "-",
                    f"{(1 - ideal / rand) * 100:.1f}%" if rand > 0 else "-",
                    f"{accuracy * 100:.1f}%",
                    "100%",
                    f"{plan_time * 1e3:.3f}",
                    f"{exec_time * 1e3:.2f}",
                    f"{(1 - exec_time / rand) * 100:.1f}%" if rand > 0 else "-",
                ]
            )
        return rows

    rows = benchmark.pedantic(summarise, rounds=1, iterations=1)

    # The paper's z-test: optimizer accuracy vs the 50 % random baseline.
    all_samples = [s for samples in measurements.values() for s in samples]
    n = len(all_samples)
    p_hat = statistics.fmean(1.0 if s["correct"] else 0.0 for s in all_samples)
    z = (p_hat - 0.5) / math.sqrt(0.25 / n)
    p_value = 2 * (1 - _normal_cdf(abs(z)))

    report_writer(
        "table04_optimizer",
        render_table(
            "TABLE IV (reproduction): Optimizer effectiveness",
            [
                "Seeker",
                "Rand ms",
                "BLEND ms",
                "Ideal ms",
                "Gain BLEND",
                "Gain Ideal",
                "Acc BLEND",
                "Acc Ideal",
                "plan_for ms",
                "Exec ms",
                "Gain Exec",
            ],
            rows,
            note=(
                f"{PLANS_PER_CLASS} random 2-seeker Intersection plans per class; "
                f"overall accuracy {p_hat * 100:.1f}% over n={n}, z={z:.1f}, "
                f"p={p_value:.2g} vs the 50% null (paper: z=45.6, p~0); "
                "BLEND ms = plan_for ms + Exec ms (the chosen order's run), "
                "Gain Exec leaves the optimizer's own time out"
            ),
        ),
    )

    # Shape: optimizer never worse than random by more than noise, and
    # accuracy significantly better than coin flips.
    assert p_hat > 0.6
    for row in rows:
        rand_ms, blend_ms = float(row[1]), float(row[2])
        assert blend_ms <= rand_ms * 1.25, row[0]


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
