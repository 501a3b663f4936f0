"""Table VII -- correlation discovery: BLEND, BLEND (rand), and the QCR
sketch baseline on the NYC-like benchmark, with categorical-only and
mixed (numeric-join-key) query regimes.

Expected shape (paper §VIII-G): on NYC (All) BLEND clearly beats the
baseline (numeric join keys break the categorical-only sketch); on NYC
(Cat.) the baseline is competitive or slightly ahead; BLEND (rand)
(pre-shuffled index rows => random h-sample) >= vanilla BLEND, whose
``RowId < h`` convenience sample can be unrepresentative.
"""

from __future__ import annotations

import statistics

import pytest

from repro import Blend, Plan, Seekers
from repro.baselines import QcrIndex
from repro.eval import precision_at_k, recall_at_k, render_table, timed
from repro.index.alltables import IndexConfig
from repro.lake.generators import make_correlation_benchmark

K = 10
H = 256

REGIMES = {
    "nyc_cat_like": "categorical",
    "nyc_all_like": "mixed",
}


@pytest.fixture(scope="module", params=list(REGIMES))
def setup(request):
    bench = make_correlation_benchmark(
        name=request.param, num_queries=6, num_entities=200,
        tables_per_query=6, rows_per_table=400,
        distractor_tables=25, key_regime=REGIMES[request.param], seed=91,
    )
    blend = Blend(bench.lake, backend="column")
    blend.build_index()
    blend_rand = Blend(
        bench.lake, backend="column",
        index_config=IndexConfig(shuffle_rows=True, shuffle_seed=7),
    )
    blend_rand.build_index()
    qcr = QcrIndex(bench.lake, h=H)
    return request.param, bench, {"blend": blend, "blend_rand": blend_rand, "qcr": qcr}


def _search(system_name, systems, query, k):
    if system_name == "qcr":
        return systems["qcr"].search(list(query.keys), list(query.targets), k=k).table_ids()
    seeker = Seekers.Correlation(list(query.keys), list(query.targets), k=k, h=H)
    return systems[system_name].run(Plan().add("c", seeker)).output.table_ids()


@pytest.mark.parametrize("system", ["blend", "blend_rand", "qcr"])
def test_correlation_runtime(benchmark, setup, system):
    _, bench, systems = setup
    query = bench.queries[0]
    benchmark(lambda: _search(system, systems, query, K))


def test_table07_report(benchmark, setup, report_writer):
    regime_name, bench, systems = setup

    def evaluate():
        rows = {}
        for system in ("blend", "blend_rand", "qcr"):
            precisions, recalls, times = [], [], []
            for query in bench.queries:
                truth = bench.ground_truth(query, K)
                _search(system, systems, query, K)  # warm
                retrieved, seconds = timed(lambda: _search(system, systems, query, K))
                times.append(seconds)
                precisions.append(precision_at_k(retrieved, truth, K))
                recalls.append(recall_at_k(retrieved, truth, K))
            rows[system] = (
                statistics.fmean(precisions),
                statistics.fmean(recalls),
                statistics.fmean(times),
            )
        return rows

    rows = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    report_writer(
        f"table07_correlation_{regime_name}",
        render_table(
            f"TABLE VII (reproduction): correlation discovery on {regime_name} "
            f"(k={K}, h={H})",
            ["System", "P@10", "R@10", "Runtime"],
            [
                ["BLEND", f"{rows['blend'][0]*100:.0f}%", f"{rows['blend'][1]*100:.0f}%", f"{rows['blend'][2]*1e3:.2f} ms"],
                ["BLEND (rand)", f"{rows['blend_rand'][0]*100:.0f}%", f"{rows['blend_rand'][1]*100:.0f}%", f"{rows['blend_rand'][2]*1e3:.2f} ms"],
                ["Baseline (QCR)", f"{rows['qcr'][0]*100:.0f}%", f"{rows['qcr'][1]*100:.0f}%", f"{rows['qcr'][2]*1e3:.2f} ms"],
            ],
            note="ground truth = exact top-k |Pearson| over joined pairs",
        ),
    )

    if regime_name == "nyc_all_like":
        # Numeric join keys break the categorical-only sketch baseline.
        assert rows["blend"][0] > rows["qcr"][0]
        assert rows["blend"][1] > rows["qcr"][1]
    else:
        # Categorical regime: the baseline is competitive with BLEND.
        assert rows["qcr"][0] >= rows["blend"][0] * 0.6
    # Random sampling at least matches convenience sampling.
    assert rows["blend_rand"][0] >= rows["blend"][0] - 0.1
