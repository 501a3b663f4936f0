"""JOSIE and MATE baselines: correctness against exact ground truth and
the Table V precision relationship."""

import pytest

from repro import Blend
from repro.baselines import JosieIndex, MateIndex
from repro.lake.generators import (
    make_join_benchmark,
    make_multicolumn_benchmark,
)


@pytest.fixture(scope="module")
def join_bench():
    return make_join_benchmark(num_tables=30, query_sizes=(5, 30), queries_per_size=3)


@pytest.fixture(scope="module")
def josie(join_bench):
    return JosieIndex(join_bench.lake)


@pytest.fixture(scope="module")
def mc_bench():
    return make_multicolumn_benchmark(num_queries=3, distractor_tables=8)


@pytest.fixture(scope="module")
def mate(mc_bench):
    return MateIndex(mc_bench.lake)


class TestJosie:
    def test_matches_exact_ground_truth(self, join_bench, josie):
        for query in join_bench.queries:
            assert (
                josie.search(list(query.values), k=10).table_ids()
                == join_bench.ground_truth(query, 10)
            )

    def test_matches_blend_sc_seeker(self, join_bench, josie):
        """Fig. 6: 'BLEND and Josie achieve the same results as their
        outputs are identical'."""
        blend = Blend(join_bench.lake, backend="column")
        blend.build_index()
        for query in join_bench.queries[:4]:
            assert (
                josie.search(list(query.values), k=10).table_ids()
                == blend.discover(query.values, "join", k=10).output.table_ids()
            )

    def test_scores_are_overlaps(self, join_bench, josie):
        query = join_bench.queries[0]
        result = josie.search(list(query.values), k=5)
        overlaps = dict(join_bench.exact_overlaps(query))
        for hit in result:
            assert hit.score == overlaps[hit.table_id]

    def test_unknown_values_empty(self, josie):
        assert len(josie.search(["no-such-token-anywhere"], k=5)) == 0

    def test_stats_populated(self, join_bench, josie):
        josie.search(list(join_bench.queries[0].values), k=5)
        assert josie.last_stats.tokens_processed > 0
        assert josie.last_stats.postings_scanned > 0

    def test_storage_positive(self, josie):
        assert josie.storage_bytes() > 0


class TestMate:
    def test_finds_aligned_tables(self, mc_bench, mate):
        query = mc_bench.queries[0]
        result = mate.search(query.table.rows, k=10)
        aligned = {
            mc_bench.lake.id_of(f"mc_bench_q0_aligned{i}") for i in range(3)
        }
        assert aligned <= set(result.table_ids())

    def test_recall_100_percent_vs_blend(self, mc_bench, mate):
        """Both systems must find every truly joinable table (Table V:
        'Recall for both approaches is 100 % due to bloom filter
        character')."""
        blend = Blend(mc_bench.lake, backend="column")
        blend.build_index()
        for query in mc_bench.queries:
            truly_joinable = {
                table_id
                for table_id in mc_bench.lake.table_ids()
                if mc_bench.joinable_rows(query, table_id) > 0
            }
            mate_ids = set(mate.search(query.table.rows, k=100).table_ids())
            blend_ids = set(
                blend.discover(query.table.rows, "multi_column", k=100).output.table_ids()
            )
            assert truly_joinable <= mate_ids
            assert truly_joinable <= blend_ids

    def test_mate_has_more_false_positives_than_blend(self, mc_bench, mate):
        """The Table V relationship: BLEND's SQL join prunes candidates
        that MATE's single-column fetch admits."""
        blend = Blend(mc_bench.lake, backend="column")
        blend.build_index()
        mate_fp = 0
        blend_fp = 0
        for query in mc_bench.queries:
            mate.search(query.table.rows, k=10)
            mate_fp += mate.last_stats.false_positives

            from repro.core.seekers import MultiColumnSeeker

            seeker = MultiColumnSeeker(query.table.rows, k=10)
            context = blend.context()
            tables, rows, keys = seeker.fetch_candidate_arrays(context)
            filtered = seeker.superkey_filter_batch(tables, rows, keys, context)
            validated = seeker.validate_batch(*filtered, context)
            blend_fp += len(filtered[0]) - len(validated[0])
        assert mate_fp > blend_fp

    def test_counts_joinable_rows(self, mc_bench, mate):
        query = mc_bench.queries[0]
        result = mate.search(query.table.rows, k=10)
        for hit in result:
            assert hit.score == mc_bench.joinable_rows(query, hit.table_id)

    def test_storage_positive(self, mate):
        assert mate.storage_bytes() > 0
