"""Fig. 6 -- LakeBench experiment: runtime and effectiveness of BLEND,
JOSIE, and DeepJoin on a webtable-like join benchmark with ground truth.

Expected shape (paper §VIII-D): DeepJoin fastest (HNSW look-up); BLEND
and Josie identical effectiveness (same exact-overlap semantics);
DeepJoin's semantic matching gives it different (often higher) P@k/R@k.
"""

from __future__ import annotations

import statistics

import pytest

from repro import Blend
from repro.baselines import DeepJoinIndex, JosieIndex
from repro.eval import precision_at_k, recall_at_k, render_table, timed
from repro.lake.generators import make_join_benchmark

KS = (5, 10, 15, 20)


@pytest.fixture(scope="module")
def setup():
    bench = make_join_benchmark(
        name="webtable_like", num_tables=250, query_sizes=(200, 1200),
        queries_per_size=5, max_rows=50, seed=71,
    )
    blend = Blend(bench.lake, backend="column")
    blend.build_index()
    josie = JosieIndex(bench.lake)
    deepjoin = DeepJoinIndex(bench.lake)
    return bench, blend, josie, deepjoin


def _search(system_name, systems, values, k):
    bench, blend, josie, deepjoin = systems
    if system_name == "blend":
        return blend.discover(values, "join", k=k).output.table_ids()
    if system_name == "josie":
        return josie.search(values, k=k).table_ids()
    return deepjoin.search(values, k=k).table_ids()


@pytest.mark.parametrize("system", ["josie", "deepjoin", "blend"])
def test_lakebench_runtime(benchmark, setup, system):
    query = setup[0].queries[-1]
    benchmark(lambda: _search(system, setup, list(query.values), 10))


def test_fig06_report(benchmark, setup, report_writer):
    bench = setup[0]

    def evaluate():
        runtimes = {}
        quality = {}
        for system in ("josie", "deepjoin", "blend"):
            samples = []
            for query in bench.queries:
                values = list(query.values)
                _search(system, setup, values, 10)  # warm
                samples.append(timed(lambda: _search(system, setup, values, 10))[1])
            runtimes[system] = statistics.fmean(samples)
            quality[system] = {}
            for k in KS:
                precisions, recalls = [], []
                for query in bench.queries:
                    truth = bench.ground_truth(query, k)
                    retrieved = _search(system, setup, list(query.values), k)
                    precisions.append(precision_at_k(retrieved, truth, k))
                    recalls.append(recall_at_k(retrieved, truth, k))
                quality[system][k] = (
                    statistics.fmean(precisions),
                    statistics.fmean(recalls),
                )
        return runtimes, quality

    runtimes, quality = benchmark.pedantic(evaluate, rounds=1, iterations=1)

    rows = []
    for system in ("josie", "deepjoin", "blend"):
        row = [system.capitalize(), f"{runtimes[system] * 1e3:.2f} ms"]
        for k in KS:
            p, r = quality[system][k]
            row.append(f"{p * 100:.0f}%/{r * 100:.0f}%")
        rows.append(row)
    report_writer(
        "fig06_lakebench",
        render_table(
            "Fig. 6 (reproduction): LakeBench runtime and P@k/R@k",
            ["System", "Runtime"] + [f"P/R@{k}" for k in KS],
            rows,
            note="ground truth = exact top-k overlap; BLEND == Josie by construction",
        ),
    )

    # Shape assertions. DeepJoin's quality is NOT asserted: with the
    # hashing-based encoder substitution it cannot reach the paper's
    # semantic precision (documented in EXPERIMENTS.md).
    assert runtimes["deepjoin"] < runtimes["blend"]
    assert runtimes["deepjoin"] < runtimes["josie"]
    for k in KS:
        assert quality["blend"][k] == quality["josie"][k]
        assert quality["blend"][k][0] >= 0.95  # exact search: near-perfect P@k