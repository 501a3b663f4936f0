"""Table V -- multi-column join discovery: BLEND's MC seeker vs MATE.

Measures TP / FP / precision of the pre-validation candidate sets on two
lakes (the paper's DWTC and German Open Data roles). A TP is a candidate
row truly joinable with a query tuple on the full composite key; an FP is
a candidate that survives each system's filtering but is not joinable.

Expected shape: recall 100 % for both (XASH has no false negatives);
BLEND >99 % precision (its SQL join demands index hits from every query
column in the same row) vs MATE's much lower precision (single-column
fetch + bloom filter); BLEND faster because fewer candidates reach
validation.
"""

from __future__ import annotations

import pytest

from repro import Blend
from repro.baselines import MateIndex
from repro.core.seekers import MultiColumnSeeker
from repro.eval import render_table
from repro.lake.generators import make_multicolumn_benchmark

LAKES = {
    "dwtc_like": dict(
        num_queries=5, key_width=2, rows_per_query=10,
        aligned_tables_per_query=4, misaligned_tables_per_query=6,
        wide_tables_per_query=4, wide_width=18, wide_rows=40,
        distractor_tables=60, seed=51,
    ),
    "opendata_like": dict(
        num_queries=5, key_width=3, rows_per_query=8,
        aligned_tables_per_query=3, misaligned_tables_per_query=5,
        wide_tables_per_query=3, wide_width=18, wide_rows=30,
        distractor_tables=40, seed=53,
    ),
}


@pytest.fixture(scope="module", params=list(LAKES))
def setup(request):
    bench = make_multicolumn_benchmark(name=f"mc_{request.param}", **LAKES[request.param])
    blend = Blend(bench.lake, backend="column")
    blend.build_index()
    mate = MateIndex(bench.lake)
    return request.param, bench, blend, mate


def _blend_counts(bench, blend, query):
    """BLEND's (TP, FP) among post-superkey candidates."""
    seeker = MultiColumnSeeker(query.table.rows, k=10)
    context = blend.context()
    tables, rows, keys = seeker.fetch_candidate_arrays(context)
    filtered = seeker.superkey_filter_batch(tables, rows, keys, context)
    tp = len(seeker.validate_batch(*filtered, context)[0])
    fp = len(filtered[0]) - tp
    return tp, fp


def _mate_counts(bench, mate, query):
    mate.search(query.table.rows, k=10)
    return mate.last_stats.true_positives, mate.last_stats.false_positives


def test_mc_runtime_blend(benchmark, setup):
    _, bench, blend, _ = setup
    query = bench.queries[0]
    benchmark(lambda: blend.discover(query.table.rows, "multi_column", k=10).output)


def test_mc_runtime_mate(benchmark, setup):
    _, bench, _, mate = setup
    query = bench.queries[0]
    benchmark(lambda: mate.search(query.table.rows, k=10))


def test_table05_report(benchmark, setup, report_writer):
    lake_name, bench, blend, mate = setup

    def measure():
        blend_tp = blend_fp = mate_tp = mate_fp = 0
        for query in bench.queries:
            tp, fp = _blend_counts(bench, blend, query)
            blend_tp += tp
            blend_fp += fp
            tp, fp = _mate_counts(bench, mate, query)
            mate_tp += tp
            mate_fp += fp
        return blend_tp, blend_fp, mate_tp, mate_fp

    blend_tp, blend_fp, mate_tp, mate_fp = benchmark.pedantic(measure, rounds=1, iterations=1)
    blend_precision = blend_tp / max(1, blend_tp + blend_fp)
    mate_precision = mate_tp / max(1, mate_tp + mate_fp)
    report_writer(
        f"table05_mc_precision_{lake_name}",
        render_table(
            f"TABLE V (reproduction): MC precision on {lake_name}",
            ["System", "TP", "FP", "Precision"],
            [
                ["BLEND", blend_tp, blend_fp, f"{blend_precision * 100:.2f}%"],
                ["MATE", mate_tp, mate_fp, f"{mate_precision * 100:.2f}%"],
            ],
            note="candidate rows after each system's filtering, summed over queries",
        ),
    )

    # Paper shape: identical TPs (recall 100 % both), BLEND cleaner.
    assert blend_tp == mate_tp
    assert blend_precision > mate_precision
    assert blend_precision >= 0.9
