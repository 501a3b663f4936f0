"""Optimizer unit tests: EG identification, rule ranking, cost model,
and the rewrite schedule."""

import pytest

from repro import Combiners, Plan, Seekers
from repro.core.optimizer import (
    CostModel,
    LinearModel,
    Optimizer,
    SeekerFeatures,
    extract_features,
    identify_groups,
    rank_seekers,
    rule_rank,
)
from repro.core.seekers import (
    CorrelationSeeker,
    KeywordSeeker,
    MultiColumnSeeker,
    SingleColumnSeeker,
)
from repro.index.stats import LakeStatistics


@pytest.fixture
def stats():
    return LakeStatistics(
        num_tables=10,
        num_cells=1000,
        frequencies={"common": 100, "rare": 2, "x": 10, "y": 20, "z": 5},
    )


class TestRules:
    def test_rule_tiers(self):
        assert rule_rank(KeywordSeeker(["x"])) == 0
        assert rule_rank(SingleColumnSeeker(["x"])) == 1
        assert rule_rank(CorrelationSeeker(["a", "b"], [1, 2])) == 2
        assert rule_rank(MultiColumnSeeker([("a", "b")])) == 3

    def test_rule_1_kw_first(self, stats):
        order = rank_seekers(
            [
                ("mc", MultiColumnSeeker([("x", "y")])),
                ("kw", KeywordSeeker(["x"])),
                ("sc", SingleColumnSeeker(["x"])),
            ],
            CostModel(),
            stats,
        )
        assert order[0] == "kw"

    def test_rule_2_mc_last(self, stats):
        order = rank_seekers(
            [
                ("mc", MultiColumnSeeker([("x", "y")])),
                ("c", CorrelationSeeker(["a", "b"], [1, 2])),
                ("sc", SingleColumnSeeker(["x"])),
            ],
            CostModel(),
            stats,
        )
        assert order[-1] == "mc"

    def test_rule_3_sc_before_c(self, stats):
        order = rank_seekers(
            [
                ("c", CorrelationSeeker(["a", "b"], [1, 2])),
                ("sc", SingleColumnSeeker(["x"])),
            ],
            CostModel(),
            stats,
        )
        assert order == ["sc", "c"]

    def test_same_type_ordered_by_cost(self, stats):
        cheap = SingleColumnSeeker(["rare"])
        expensive = SingleColumnSeeker(["common"] + ["x", "y", "z"])
        order = rank_seekers(
            [("expensive", expensive), ("cheap", cheap)], CostModel(), stats
        )
        assert order == ["cheap", "expensive"]


class TestCostModel:
    def test_feature_extraction(self, stats):
        seeker = SingleColumnSeeker(["common", "rare"])
        features = extract_features(seeker, stats)
        assert features.cardinality == 2.0
        assert features.columns == 1.0
        assert features.average_frequency == pytest.approx(51.0)

    def test_mc_frequency_is_product(self, stats):
        seeker = MultiColumnSeeker([("common", "rare")])
        features = extract_features(seeker, stats)
        assert features.average_frequency == pytest.approx(100.0 * 2.0)

    def test_linear_model_fit_recovers_weights(self):
        rows = [
            SeekerFeatures(cardinality=c, columns=1, average_frequency=f)
            for c in (1.0, 5.0, 10.0, 20.0)
            for f in (1.0, 10.0, 100.0)
        ]
        runtimes = [0.5 + 2.0 * r.cardinality + 0.1 * r.average_frequency for r in rows]
        model = LinearModel.fit(rows, runtimes)
        prediction = model.predict(
            SeekerFeatures(cardinality=7.0, columns=1.0, average_frequency=50.0)
        )
        assert prediction == pytest.approx(0.5 + 14.0 + 5.0, rel=1e-6)

    def test_fit_requires_samples(self):
        with pytest.raises(ValueError):
            LinearModel.fit([SeekerFeatures(1, 1, 1)], [0.1])

    def test_untrained_fallback_orders_by_frequency(self, stats):
        model = CostModel()
        cheap = model.estimate(SingleColumnSeeker(["rare"]), stats)
        pricey = model.estimate(SingleColumnSeeker(["common"]), stats)
        assert cheap < pricey

    def test_trained_flag(self):
        model = CostModel()
        assert not model.is_trained()
        model.set_model("SC", LinearModel.fit(
            [SeekerFeatures(1, 1, 1), SeekerFeatures(2, 1, 2)], [0.1, 0.2]
        ))
        assert model.is_trained()
        assert list(model.snapshot_state()) == ["SC"]


class TestExecutionGroups:
    def test_intersection_group_found(self):
        plan = Plan()
        plan.add("a", Seekers.SC(["x"]))
        plan.add("b", Seekers.MC([("x", "y")]))
        plan.add("i", Combiners.Intersect(k=5), ["a", "b"])
        groups = identify_groups(plan)
        assert len(groups) == 1
        assert set(groups[0].seeker_names) == {"a", "b"}
        assert groups[0].reorderable

    def test_difference_group_fixed_order(self):
        plan = Plan()
        plan.add("pos", Seekers.MC([("x", "y")]))
        plan.add("neg", Seekers.MC([("p", "q")]))
        plan.add("d", Combiners.Difference(k=5), ["pos", "neg"])
        groups = identify_groups(plan)
        assert len(groups) == 1
        assert groups[0].fixed_order == ("neg", "pos")
        assert not groups[0].reorderable

    def test_union_and_counter_not_grouped(self):
        plan = Plan()
        plan.add("a", Seekers.SC(["x"]))
        plan.add("b", Seekers.SC(["y"]))
        plan.add("u", Combiners.Union(k=5), ["a", "b"])
        assert identify_groups(plan) == []

        plan2 = Plan()
        plan2.add("a", Seekers.SC(["x"]))
        plan2.add("b", Seekers.SC(["y"]))
        plan2.add("c", Combiners.Counter(k=5), ["a", "b"])
        assert identify_groups(plan2) == []

    def test_shared_seeker_excluded_from_group(self):
        """A seeker with two consumers must not be rewritten."""
        plan = Plan()
        plan.add("a", Seekers.SC(["x"]))
        plan.add("b", Seekers.SC(["y"]))
        plan.add("i", Combiners.Intersect(k=5), ["a", "b"])
        plan.add("u", Combiners.Union(k=5), ["a", "i"])  # 'a' consumed twice
        groups = identify_groups(plan)
        assert groups == []  # only one exclusive seeker remains -> no group

    def test_combiner_inputs_become_prior_sources(self):
        plan = Plan()
        plan.add("a", Seekers.SC(["x"]))
        plan.add("b", Seekers.SC(["y"]))
        plan.add("u", Combiners.Union(k=5), ["a", "b"])
        plan.add("c", Seekers.SC(["z"]))
        plan.add("i", Combiners.Intersect(k=5), ["u", "c"])
        groups = identify_groups(plan)
        # 'i' has one seeker input, but the sub-plan result 'u' can
        # restrict it once executed.
        assert len(groups) == 1
        assert groups[0].seeker_names == ("c",)
        assert groups[0].prior_inputs == ("u",)

    def test_prior_input_rewrites_single_seeker(self):
        stats = LakeStatistics(num_tables=1, num_cells=1, frequencies={})
        plan = Plan()
        plan.add("a", Seekers.SC(["x"]))
        plan.add("b", Seekers.SC(["y"]))
        plan.add("u", Combiners.Union(k=5), ["a", "b"])
        plan.add("c", Seekers.SC(["z"]))
        plan.add("i", Combiners.Intersect(k=5), ["u", "c"])
        execution = Optimizer().optimize(plan, stats)
        assert execution.rewrites["c"].mode == "intersect"
        assert execution.rewrites["c"].source_nodes == ("u",)


class TestOptimizerPlans:
    def test_rewrite_schedule_for_intersection(self, stats):
        plan = Plan()
        plan.add("mc", Seekers.MC([("x", "y")]))
        plan.add("sc", Seekers.SC(["x"]))
        plan.add("i", Combiners.Intersect(k=5), ["mc", "sc"])
        execution = Optimizer().optimize(plan, stats)
        # SC runs first (Rule 2), MC is rewritten with SC's results.
        assert execution.order.index("sc") < execution.order.index("mc")
        assert execution.rewrites["mc"].mode == "intersect"
        assert execution.rewrites["mc"].source_nodes == ("sc",)
        assert "sc" not in execution.rewrites

    def test_difference_schedule(self, stats):
        plan = Plan()
        plan.add("pos", Seekers.MC([("x", "y")]))
        plan.add("neg", Seekers.MC([("p", "q")]))
        plan.add("d", Combiners.Difference(k=5), ["pos", "neg"])
        execution = Optimizer().optimize(plan, stats)
        assert execution.order.index("neg") < execution.order.index("pos")
        assert execution.rewrites["pos"].mode == "difference"
        assert execution.rewrites["pos"].source_nodes == ("neg",)

    def test_unoptimized_keeps_insertion_order(self):
        plan = Plan()
        plan.add("mc", Seekers.MC([("x", "y")]))
        plan.add("kw", Seekers.KW(["x"]))
        plan.add("i", Combiners.Intersect(k=5), ["mc", "kw"])
        execution = Optimizer.unoptimized(plan)
        assert execution.order == ["mc", "kw", "i"]
        assert execution.rewrites == {}

    def test_order_remains_topological(self, stats):
        plan = Plan()
        plan.add("a", Seekers.SC(["x"]))
        plan.add("b", Seekers.SC(["y"]))
        plan.add("i", Combiners.Intersect(k=5), ["a", "b"])
        plan.add("c", Seekers.SC(["z"]))
        plan.add("i2", Combiners.Intersect(k=5), ["i", "c"])
        execution = Optimizer().optimize(plan, stats)
        position = {name: i for i, name in enumerate(execution.order)}
        assert position["i"] > position["a"] and position["i"] > position["b"]
        assert position["i2"] > position["i"] and position["i2"] > position["c"]

    def test_describe_mentions_rewrites(self, stats):
        plan = Plan()
        plan.add("mc", Seekers.MC([("x", "y")]))
        plan.add("sc", Seekers.SC(["x"]))
        plan.add("i", Combiners.Intersect(k=5), ["mc", "sc"])
        text = Optimizer().optimize(plan, stats).describe()
        assert "execution order" in text
        assert "NOT IN" not in text and "IN" in text
