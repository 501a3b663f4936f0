"""End-to-end integration: the Table III task plans against benchmark
lakes with ground truth, on both storage backends."""

import pytest

from repro import Blend, Plan
from repro.core import tasks
from repro.core.seekers import CorrelationSeeker
from repro.errors import SeekerError
from repro.lake.generators import (
    make_correlation_benchmark,
    make_imputation_benchmark,
)


@pytest.fixture(scope="module")
def impute_bench():
    return make_imputation_benchmark(
        num_queries=2, num_keys=30, distractor_tables=10,
        decoy_tables_per_query=2, decoy_rows=40, seed=67,
    )


@pytest.fixture(scope="module", params=["row", "column"])
def impute_blend(request, impute_bench):
    blend = Blend(impute_bench.lake, backend=request.param)
    blend.build_index()
    return blend


class TestImputationPlan:
    def test_finds_ground_truth_tables(self, impute_bench, impute_blend):
        query = impute_bench.queries[0]
        plan = tasks.imputation_plan(list(query.examples), list(query.query_keys), k=10)
        run = impute_blend.run(plan)
        truth = impute_bench.ground_truth(query)
        assert truth <= set(run.output.table_ids())

    def test_decoys_excluded(self, impute_bench, impute_blend):
        """Decoy tables contain the examples but no query keys: the
        Intersection must drop them."""
        query = impute_bench.queries[0]
        plan = tasks.imputation_plan(list(query.examples), list(query.query_keys), k=10)
        run = impute_blend.run(plan)
        decoy_ids = {
            impute_bench.lake.id_of(f"impute_bench_q0_decoy{i}") for i in range(2)
        }
        assert not decoy_ids & set(run.output.table_ids())

    def test_optimized_matches_unoptimized_targets(self, impute_bench, impute_blend):
        query = impute_bench.queries[0]
        plan = tasks.imputation_plan(list(query.examples), list(query.query_keys), k=10)
        optimized = set(impute_blend.run(plan).output.table_ids())
        plain = set(impute_blend.run(plan, optimize=False).output.table_ids())
        truth = impute_bench.ground_truth(query)
        assert truth <= optimized
        assert truth <= plain

    def test_mc_is_rewritten_by_sc(self, impute_bench, impute_blend):
        query = impute_bench.queries[0]
        plan = tasks.imputation_plan(list(query.examples), list(query.query_keys), k=10)
        execution = impute_blend.plan_for(plan)
        assert execution.order.index("query") < execution.order.index("examples")
        assert execution.rewrites["examples"].mode == "intersect"


class TestNegativeExamplesPlan:
    def test_negative_tables_excluded(self, impute_bench, impute_blend):
        query = impute_bench.queries[0]
        other = impute_bench.queries[1]
        positive = list(query.examples)
        negative = list(zip(other.query_keys[:5], other.answers[:5]))
        plan = tasks.negative_examples_plan(positive, negative, k=20)
        run = impute_blend.run(plan)
        # Tables of the OTHER query (which contain the negatives) are out.
        other_ids = {
            impute_bench.lake.id_of(f"impute_bench_q1_full{i}") for i in range(3)
        }
        assert not other_ids & set(run.output.table_ids())
        # Tables of the positive query survive.
        own_ids = {
            impute_bench.lake.id_of(f"impute_bench_q0_full{i}") for i in range(3)
        }
        assert own_ids <= set(run.output.table_ids())


def _correlation(blend, query, **options):
    seeker = CorrelationSeeker(list(query.keys), list(query.targets), **options)
    return blend.run(Plan().add("c", seeker)).output


class TestCorrelationThresholds:
    @pytest.fixture(scope="class")
    def corr_blend(self):
        bench = make_correlation_benchmark(
            num_queries=2, num_entities=60, tables_per_query=4,
            rows_per_table=60, distractor_tables=8, seed=71,
        )
        blend = Blend(bench.lake, backend="column")
        blend.build_index()
        return bench, blend

    def test_min_support_filters_stray_collisions(self, corr_blend):
        bench, blend = corr_blend
        query = bench.queries[0]
        strict = _correlation(blend, query, k=10, min_support=3)
        truth = bench.ground_truth(query, 10)
        assert set(strict.table_ids()) <= set(truth) | set(strict.table_ids())
        assert strict.table_ids()[0] in truth

    def test_min_support_one_admits_tiny_groups(self, corr_blend):
        bench, blend = corr_blend
        query = bench.queries[0]
        loose = _correlation(blend, query, k=30, min_support=1)
        strict = _correlation(blend, query, k=30, min_support=5)
        assert len(loose) >= len(strict)

    def test_min_qcr_threshold(self, corr_blend):
        bench, blend = corr_blend
        query = bench.queries[0]
        seeker = CorrelationSeeker(
            list(query.keys), list(query.targets), k=30, min_qcr=0.9
        )
        result = seeker.execute(blend.context())
        assert all(hit.score >= 0.9 for hit in result)

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(SeekerError):
            CorrelationSeeker(["a", "b"], [1, 2], min_support=0)
        with pytest.raises(SeekerError):
            CorrelationSeeker(["a", "b"], [1, 2], min_qcr=1.5)


class TestTaskPlanShapes:
    def test_feature_discovery_plan_structure(self):
        plan = tasks.feature_discovery_plan(
            [("a", "b")], ["k1", "k2"], [1.0, 2.0], [[1.5, 2.5], [0.1, 0.2]], k=5
        )
        names = [node.name for node in plan.nodes()]
        assert names == [
            "target_corr", "feat0", "diff0", "feat1", "diff1", "joinable", "out",
        ]
        assert plan.sink().name == "out"

    def test_multi_objective_plan_structure(self):
        from repro.lake.table import Table

        examples = Table("ex", ["key", "target"], [("a", 1.0), ("b", 2.0), ("c", 5.0)])
        plan = tasks.multi_objective_plan_no_imputation(
            ["kw1"], examples, "key", "target", k=5
        )
        names = [node.name for node in plan.nodes()]
        assert names[0] == "kw"
        assert "counter" in names and "union" in names
        assert plan.sink().name == "union"

    def test_listing4_is_the_evaluated_plan_plus_imputation(self):
        """One builder: Listing 4 in full is the evaluated plan's nodes
        (names, SC depth 10·k) with the imputation sub-plan as a fourth
        Union input."""
        from repro.core import multi_objective_plan
        from repro.lake.table import Table

        examples = Table("ex", ["key", "target"], [("a", 1.0), ("b", 2.0), ("c", 5.0)])
        evaluated = tasks.multi_objective_plan_no_imputation(
            ["kw1"], examples, "key", "target", k=5
        )
        plan = multi_objective_plan(["kw1"], examples, "key", "target", ["a", "z"], k=5)
        names = [node.name for node in plan.nodes()]
        assert names == [node.name for node in evaluated.nodes()][:-1] + [
            "examples", "query", "intersection", "union",
        ]
        assert plan.node("union").inputs == ("kw", "counter", "correlation", "intersection")
        assert plan.node("key").operator.k == evaluated.node("key").operator.k == 50
        assert plan.node("union").operator.k == evaluated.node("union").operator.k == 20
