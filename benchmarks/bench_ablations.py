"""Ablations of BLEND's design choices (beyond the paper's headline
experiments; DESIGN.md §3 calls these out).

1. **Query rewriting** -- how much work does intermediate-result
   injection remove from the MC seeker (index rows scanned, candidates)?
2. **XASH geometry** -- super-key filter false-positive rate as a
   function of hash width (63 vs 128 bits) and characters hashed per
   token (1-3). MATE's paper tunes these; here they are measured on the
   actual filter.
3. **Correlation sample size h** -- ranking quality and runtime as the
   ``RowId < h`` sample grows (the knob the paper's §V makes query-time
   adjustable, vs. rebuild-time in the original QCR index).
4. **Backend per seeker** -- row vs column store runtime for each seeker
   type on one lake (the per-operator view behind Figs. 5/7).
"""

from __future__ import annotations

import statistics

import pytest

from repro import Blend, Plan, Seekers
from repro.core.seekers import (
    CorrelationSeeker,
    KeywordSeeker,
    MultiColumnSeeker,
    Rewrite,
    SingleColumnSeeker,
)
from repro.eval import precision_at_k, render_table, timed
from repro.index import IndexConfig, may_contain, super_key, tuple_hash
from repro.lake.generators import (
    make_correlation_benchmark,
    make_multicolumn_benchmark,
)
from repro.lake.generators.vocabulary import Vocabulary


# ---------------------------------------------------------------------------
# 1. Query rewriting work reduction
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mc_setup():
    bench = make_multicolumn_benchmark(
        num_queries=4, distractor_tables=40, aligned_tables_per_query=3,
        misaligned_tables_per_query=4, seed=101,
    )
    blend = Blend(bench.lake, backend="column")
    blend.build_index()
    return bench, blend


def test_ablation_rewrite_work(benchmark, mc_setup, report_writer):
    bench, blend = mc_setup
    context = blend.context()

    def measure():
        rows = []
        for query in bench.queries:
            seeker = MultiColumnSeeker(query.table.rows, k=10)
            plain = seeker.fetch_candidate_arrays(context)[0]
            full_result = seeker.execute(context)
            restrict = Rewrite(
                mode="intersect", table_ids=tuple(full_result.table_ids())
            )
            rewritten = seeker.fetch_candidate_arrays(context, restrict)[0]
            rows.append((len(plain), len(rewritten)))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = [
        [f"query {i}", plain, rewritten, f"{(1 - rewritten / max(plain, 1)) * 100:.0f}%"]
        for i, (plain, rewritten) in enumerate(rows)
    ]
    report_writer(
        "ablation_rewrite_work",
        render_table(
            "Ablation: MC candidates with vs without TableId IN rewriting",
            ["Query", "Unrewritten", "Rewritten", "Reduction"],
            table,
        ),
    )
    for plain, rewritten in rows:
        assert rewritten <= plain


# ---------------------------------------------------------------------------
# 2. XASH geometry
# ---------------------------------------------------------------------------


def test_ablation_xash_geometry(benchmark, report_writer):
    vocab = Vocabulary(5)
    pool = vocab.synthetic_pool(600)
    rng = vocab.rng
    rows = [
        tuple(rng.choice(pool) for _ in range(rng.randint(3, 10)))
        for _ in range(400)
    ]
    probes = [tuple(rng.sample(pool, 2)) for _ in range(300)]

    def measure():
        results = []
        for hash_size in (63, 128):
            for num_chars in (1, 2, 3):
                false_positives = 0
                trials = 0
                for row in rows:
                    row_key = super_key(row, hash_size, num_chars)
                    row_tokens = set(row)
                    for probe in probes[:40]:
                        if probe[0] in row_tokens and probe[1] in row_tokens:
                            continue  # would be a true positive
                        trials += 1
                        if may_contain(row_key, tuple_hash(probe, hash_size, num_chars)):
                            false_positives += 1
                results.append((hash_size, num_chars, false_positives / max(trials, 1)))
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    report_writer(
        "ablation_xash_geometry",
        render_table(
            "Ablation: XASH super-key filter false-positive rate",
            ["Hash bits", "Chars/token", "FP rate"],
            [[h, c, f"{fp * 100:.2f}%"] for h, c, fp in results],
            note="rows 3-10 tokens wide; probes are 2-token non-member tuples",
        ),
    )
    by_key = {(h, c): fp for h, c, fp in results}
    # Wider hashes and more hashed characters must not increase FPs.
    assert by_key[(128, 2)] <= by_key[(63, 2)] + 1e-9
    # At 63 bits, hashing more characters saturates rows and RAISES FPs
    # eventually -- assert only the 1->2 direction, which is clean.
    assert by_key[(63, 2)] <= by_key[(63, 1)] + 0.05


# ---------------------------------------------------------------------------
# 3. Correlation sample size h
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corr_setup():
    bench = make_correlation_benchmark(
        num_queries=4, num_entities=150, tables_per_query=5,
        rows_per_table=300, distractor_tables=10, seed=103,
    )
    blend = Blend(
        bench.lake, backend="column",
        index_config=IndexConfig(shuffle_rows=True, shuffle_seed=1),
    )
    blend.build_index()
    return bench, blend


def test_ablation_sample_size(benchmark, corr_setup, report_writer):
    bench, blend = corr_setup

    def sweep():
        rows = []
        for h in (16, 64, 256, 1024):
            precisions, times = [], []
            for query in bench.queries:
                truth = bench.ground_truth(query, 10)
                def run():
                    seeker = Seekers.Correlation(
                        list(query.keys), list(query.targets), k=10, h=h
                    )
                    return blend.run(Plan().add("c", seeker)).output.table_ids()
                run()  # warm
                retrieved, seconds = timed(run)
                precisions.append(precision_at_k(retrieved, truth, 10))
                times.append(seconds)
            rows.append((h, statistics.fmean(precisions), statistics.fmean(times)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report_writer(
        "ablation_sample_size",
        render_table(
            "Ablation: correlation seeker sample size h (shuffled index)",
            ["h", "P@10", "Runtime"],
            [[h, f"{p * 100:.0f}%", f"{t * 1e3:.2f} ms"] for h, p, t in rows],
            note="h is chosen at query time in BLEND; the original QCR "
            "index would re-index the lake for every h",
        ),
    )
    # Larger samples must not hurt precision.
    assert rows[-1][1] >= rows[0][1] - 1e-9


# ---------------------------------------------------------------------------
# 4. Backend per seeker type
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def backend_setup(corr_setup):
    bench, _ = corr_setup
    blends = {}
    for backend in ("row", "column"):
        blend = Blend(bench.lake, backend=backend)
        blend.build_index()
        blends[backend] = blend
    return bench, blends


def test_ablation_backend_per_seeker(benchmark, backend_setup, report_writer):
    bench, blends = backend_setup
    query = bench.queries[0]
    tokens = [str(k) for k in query.keys[:60]]
    pairs = [(k, t) for k, t in zip(query.keys[:8], query.targets[:8])]

    seekers = {
        "SC": SingleColumnSeeker(tokens, k=10),
        "KW": KeywordSeeker(tokens[:10], k=10),
        "MC": MultiColumnSeeker([(str(a), str(b)) for a, b in pairs], k=10),
        "C": CorrelationSeeker(list(query.keys), list(query.targets), k=10),
    }

    def sweep():
        rows = []
        for kind, seeker in seekers.items():
            timings = {}
            for backend, blend in blends.items():
                context = blend.context()
                seeker.execute(context)  # warm
                samples = [timed(lambda: seeker.execute(context))[1] for _ in range(3)]
                timings[backend] = statistics.fmean(samples)
            rows.append((kind, timings["row"], timings["column"]))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report_writer(
        "ablation_backend_per_seeker",
        render_table(
            "Ablation: seeker runtime by storage backend",
            ["Seeker", "Row store", "Column store", "Column speed-up"],
            [
                [kind, f"{r * 1e3:.2f} ms", f"{c * 1e3:.2f} ms", f"{r / c:.1f}x"]
                for kind, r, c in rows
            ],
        ),
    )
    # The vectorised backend wins decisively on the join-heavy C seeker;
    # for the tiny SC query used here the two backends are within noise
    # (the at-scale SC claim is asserted by bench_fig05_join_runtime).
    by_kind = {kind: (r, c) for kind, r, c in rows}
    assert by_kind["C"][1] < by_kind["C"][0]
    assert by_kind["SC"][1] < by_kind["SC"][0] * 1.5
