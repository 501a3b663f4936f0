"""QCR sketch baseline and the federated Table III pipelines."""

import pytest

from repro import Blend, Plan, Seekers
from repro.baselines import (
    JosieIndex,
    MateIndex,
    QcrIndex,
    imputation_baseline,
    loc_of,
    negative_examples_baseline,
)
from repro.baselines.federation import TASK_PROFILES
from repro.lake.generators import (
    make_correlation_benchmark,
    make_imputation_benchmark,
)


@pytest.fixture(scope="module")
def corr_bench():
    return make_correlation_benchmark(
        num_queries=3, num_entities=60, tables_per_query=5, rows_per_table=50,
        distractor_tables=5,
    )


@pytest.fixture(scope="module")
def qcr(corr_bench):
    return QcrIndex(corr_bench.lake, h=128)


class TestQcrBaseline:
    def test_finds_planted_correlations(self, corr_bench, qcr):
        query = corr_bench.queries[0]
        truth = set(corr_bench.ground_truth(query, 5))
        found = set(qcr.search(list(query.keys), list(query.targets), k=5).table_ids())
        assert len(truth & found) >= 3

    def test_numeric_keys_unsupported(self, qcr):
        """The paper's stated limitation: numeric join keys break the
        categorical-only sketch."""
        result = qcr.search([1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0], k=5)
        assert len(result) == 0

    def test_mismatched_inputs_rejected(self, qcr):
        with pytest.raises(ValueError):
            qcr.search(["a"], [1.0, 2.0], k=5)

    def test_non_numeric_targets_empty(self, qcr):
        assert len(qcr.search(["a", "b"], ["x", "y"], k=5)) == 0

    def test_bad_h_rejected(self, corr_bench):
        with pytest.raises(ValueError):
            QcrIndex(corr_bench.lake, h=0)

    def test_sketch_count_is_quadratic_per_table(self, corr_bench, qcr):
        """One sketch per (categorical, numeric) column pair -- the
        storage blow-up BLEND's Quadrant column avoids."""
        expected = 0
        for table in corr_bench.lake:
            flags = table.numeric_columns()
            categorical = sum(1 for f in flags if not f)
            numeric = sum(1 for f in flags if f)
            expected += categorical * numeric
        assert qcr.num_sketches <= expected
        assert qcr.num_sketches > 0

    def test_blend_beats_qcr_on_numeric_keys(self):
        """Table VII's NYC (All) effect in miniature."""
        bench = make_correlation_benchmark(
            num_queries=4, num_entities=50, rows_per_table=40,
            key_regime="mixed", distractor_tables=3,
        )
        qcr_index = QcrIndex(bench.lake, h=128)
        blend = Blend(bench.lake, backend="column")
        blend.build_index()
        numeric_queries = [q for q in bench.queries if q.key_is_numeric]
        assert numeric_queries
        for query in numeric_queries:
            truth = set(bench.ground_truth(query, 5))
            qcr_found = set(
                qcr_index.search(list(query.keys), list(query.targets), k=5).table_ids()
            )
            seeker = Seekers.Correlation(list(query.keys), list(query.targets), k=5, h=256)
            blend_found = set(blend.run(Plan().add("c", seeker)).output.table_ids())
            assert len(blend_found & truth) > len(qcr_found & truth)

    def test_storage_positive(self, qcr):
        assert qcr.storage_bytes() > 0


class TestFederationPipelines:
    @pytest.fixture(scope="class")
    def impute_bench(self):
        return make_imputation_benchmark(num_queries=2, distractor_tables=6)

    def test_imputation_baseline_finds_complete_tables(self, impute_bench):
        mate = MateIndex(impute_bench.lake)
        josie = JosieIndex(impute_bench.lake)
        query = impute_bench.queries[0]
        result = imputation_baseline(
            mate, josie, list(query.examples), list(query.query_keys), k=10
        )
        truth = impute_bench.ground_truth(query)
        assert truth <= set(result.table_ids())

    def test_imputation_baseline_matches_blend_plan(self, impute_bench):
        from repro.core.tasks import imputation_plan

        mate = MateIndex(impute_bench.lake)
        josie = JosieIndex(impute_bench.lake)
        blend = Blend(impute_bench.lake, backend="column")
        blend.build_index()
        query = impute_bench.queries[0]
        baseline_ids = set(
            imputation_baseline(
                mate, josie, list(query.examples), list(query.query_keys), k=10
            ).table_ids()
        )
        blend_ids = set(
            blend.run(imputation_plan(list(query.examples), list(query.query_keys), k=10))
            .output.table_ids()
        )
        truth = impute_bench.ground_truth(query)
        assert truth <= baseline_ids
        assert truth <= blend_ids

    def test_negative_examples_baseline_drops_contaminated(self, impute_bench):
        """Using imputation lake tables: positive examples from the full
        mapping, negatives chosen from one specific table."""
        mate = MateIndex(impute_bench.lake)
        query = impute_bench.queries[0]
        positive = list(query.examples)
        # Negative examples: pairs that exist in ALL full tables -> every
        # full table is contaminated and must be excluded.
        negative = [(query.query_keys[0], query.answers[0])]
        result = negative_examples_baseline(
            mate, impute_bench.lake, positive, negative, k=10
        )
        for copy in range(3):
            full_id = impute_bench.lake.id_of(f"impute_bench_q0_full{copy}")
            assert full_id not in result.table_ids()

    def test_loc_counts_effective_lines(self):
        def tiny():
            """Docstring is not counted."""
            # neither are comments
            return 1

        assert loc_of(tiny) == 2  # def line + return line

    def test_blend_plans_are_much_shorter(self):
        """The Table III LOC relationship, measured on real source."""
        from repro.core import tasks

        blend_loc = loc_of(tasks.negative_examples_plan)
        baseline_loc = loc_of(negative_examples_baseline)
        assert baseline_loc > 2 * blend_loc

    def test_task_profiles_cover_all_tasks(self):
        assert set(TASK_PROFILES) == {
            "negative_examples",
            "imputation",
            "feature_discovery",
            "multi_objective",
        }
        for profile in TASK_PROFILES.values():
            assert profile.blend_systems == 1
            assert profile.blend_indexes == "Single"
            assert profile.baseline_indexes == "Multi"
