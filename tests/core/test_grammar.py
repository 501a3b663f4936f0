"""The §IV-C discovery-language grammar: parsing and end-to-end use."""

import re

import pytest

from repro.core.grammar import parse_plan
from repro.errors import PlanError

from tests.core.conftest import DEPARTMENTS

BINDINGS = {
    "departments": DEPARTMENTS,
    "pos": [("HR", "Firenze")],
    "neg": [("IT", "Tom Riddle")],
    "corr": (["HR", "Marketing", "Finance", "IT", "Sales"], [33, 28, 31, 92, 80]),
    "words": ["2022", "Firenze"],
}


class TestParsing:
    def test_single_seeker(self):
        plan = parse_plan("SC($departments)", BINDINGS)
        assert len(plan) == 1
        assert plan.nodes()[0].operator.kind == "SC"

    def test_all_seeker_kinds(self):
        plan = parse_plan(
            "Union(SC($departments), KW($words), MC($pos), C($corr))", BINDINGS
        )
        kinds = [node.operator.kind for node in plan.seekers()]
        assert kinds == ["SC", "KW", "MC", "C"]

    def test_set_symbols(self):
        plan = parse_plan("∩(\\(MC($pos), MC($neg)), SC($departments))", BINDINGS)
        combiner_kinds = [type(node.operator).__name__ for node in plan.combiners()]
        assert combiner_kinds == ["Difference", "Intersect"]

    def test_spelled_combiners(self):
        plan = parse_plan(
            "Intersect(Difference(MC($pos), MC($neg)), SC($departments))", BINDINGS
        )
        assert plan.sink().operator.kind == "Intersect"

    def test_counter(self):
        plan = parse_plan("Counter(SC($departments), KW($words))", BINDINGS)
        assert type(plan.sink().operator).__name__ == "Counter"

    def test_k_on_seeker_and_combiner(self):
        plan = parse_plan(
            "Union(SC($departments, k=50), KW($words), k=7)", BINDINGS, k=10
        )
        sc_node = plan.seekers()[0]
        assert sc_node.operator.k == 50
        assert plan.seekers()[1].operator.k == 10  # default
        assert plan.sink().operator.k == 7

    def test_default_k_applies(self):
        plan = parse_plan("SC($departments)", BINDINGS, k=33)
        assert plan.nodes()[0].operator.k == 33

    def test_nested_expressions(self):
        plan = parse_plan(
            "∪(∩(SC($departments), KW($words)), Counter(SC($departments), KW($words)))",
            BINDINGS,
        )
        assert len(plan.sinks()) == 1
        assert len(plan.combiners()) == 3


class TestParseErrors:
    def test_empty(self):
        with pytest.raises(PlanError):
            parse_plan("   ", BINDINGS)

    def test_unknown_operator(self):
        with pytest.raises(PlanError, match="unknown operator"):
            parse_plan("XYZ($departments)", BINDINGS)

    def test_unbound_reference(self):
        with pytest.raises(PlanError, match="unbound"):
            parse_plan("SC($ghost)", BINDINGS)

    def test_missing_parenthesis(self):
        with pytest.raises(PlanError):
            parse_plan("SC($departments", BINDINGS)

    def test_trailing_garbage(self):
        with pytest.raises(PlanError, match="trailing"):
            parse_plan("SC($departments)) extra", BINDINGS)

    def test_seeker_needs_binding(self):
        with pytest.raises(PlanError):
            parse_plan("SC(departments)", BINDINGS)

    def test_c_requires_pair(self):
        with pytest.raises(PlanError, match="keys, targets"):
            parse_plan("C($departments)", BINDINGS)

    def test_bad_k(self):
        with pytest.raises(PlanError):
            parse_plan("SC($departments, k=ten)", BINDINGS)

    def test_bare_dollar(self):
        with pytest.raises(PlanError):
            parse_plan("SC($)", BINDINGS)

    def test_unknown_operator_names_position_and_registry(self):
        """Grammar v2 PlanErrors carry the token position and the
        known-names list."""
        with pytest.raises(
            PlanError, match=r"position 10.*'HY'.*'KW'.*'MC'.*'SC'.*'SS'"
        ):
            parse_plan("Intersect(XYZ($departments))", BINDINGS)

    def test_unbound_reference_lists_bound_names(self):
        with pytest.raises(PlanError, match=r"position 3.*departments"):
            parse_plan("SC($ghost)", BINDINGS)

    def test_unknown_keyword_argument_lists_accepted(self):
        with pytest.raises(
            PlanError, match=r"does not accept argument 'beta'.*position.*alpha"
        ):
            parse_plan("HY($departments, beta=0.5)", BINDINGS)
        with pytest.raises(PlanError, match="does not accept argument 'about'"):
            parse_plan("SC($departments, about=$words)", BINDINGS)


class TestSeekerRegistry:
    def test_registry_covers_all_modalities(self):
        from repro.core.grammar import SEEKER_REGISTRY

        assert set(SEEKER_REGISTRY) >= {"KW", "SC", "MC", "C", "SS", "HY"}

    def test_ss_and_hy_parse(self):
        plan = parse_plan("SS($words, k=4)", BINDINGS)
        (node,) = plan.nodes()
        assert node.operator.kind == "SS"
        assert node.operator.k == 4

        plan = parse_plan(
            "HY($departments, about=$words, alpha=0.25, k=7)", BINDINGS
        )
        (node,) = plan.nodes()
        assert node.operator.kind == "HY"
        assert node.operator.k == 7
        assert node.operator.alpha == 0.25
        assert node.operator.semantic_seeker.values == BINDINGS["words"]

    def test_float_and_bool_argument_values(self):
        plan = parse_plan("HY($departments, alpha=1.0)", BINDINGS)
        (node,) = plan.nodes()
        assert node.operator.alpha == 1.0
        # SS has one search path, so it takes no switch; nor is there a
        # bool literal for one.
        with pytest.raises(PlanError, match=re.escape("accepted arguments are ['k']")):
            parse_plan("SS($words, exact=true)", BINDINGS)
        with pytest.raises(PlanError, match="argument values are"):
            parse_plan("HY($departments, alpha=true)", BINDINGS)

    def test_register_custom_seeker(self):
        from repro.core.grammar import SEEKER_REGISTRY, register_seeker
        from repro.core.seekers import Seekers

        name = "ZZTEST"
        assert name not in SEEKER_REGISTRY
        try:
            register_seeker(name, lambda query, k: Seekers.KW(query, k=k))
            plan = parse_plan(f"{name}($words, k=3)", BINDINGS)
            (node,) = plan.nodes()
            assert node.operator.kind == "KW"
            assert node.operator.k == 3
            with pytest.raises(PlanError, match="already registered"):
                register_seeker(name, lambda query, k: Seekers.KW(query, k=k))
        finally:
            SEEKER_REGISTRY.pop(name, None)

    def test_register_rejects_non_identifier(self):
        from repro.core.grammar import register_seeker

        with pytest.raises(PlanError, match="identifier"):
            register_seeker("BAD NAME", lambda query, k: None)


class TestGrammarExecution:
    def test_example1_via_grammar(self, fig1_blend):
        """The paper's Example 1, written in the §IV-C grammar."""
        plan = parse_plan(
            "∩(\\(MC($pos), MC($neg)), SC($departments))", BINDINGS, k=10
        )
        run = fig1_blend.run(plan)
        # T3 (table id 2) is the only up-to-date table.
        assert run.output.table_ids() == [2]

    def test_grammar_plan_equals_api_plan(self, fig1_blend):
        from repro import Combiners, Plan, Seekers

        grammar_plan = parse_plan("∩(SC($departments), KW($words))", BINDINGS, k=10)
        api_plan = Plan()
        api_plan.add("a", Seekers.SC(DEPARTMENTS, k=10))
        api_plan.add("b", Seekers.KW(BINDINGS["words"], k=10))
        api_plan.add("i", Combiners.Intersect(k=10), ["a", "b"])
        assert (
            fig1_blend.run(grammar_plan).output.table_ids()
            == fig1_blend.run(api_plan).output.table_ids()
        )
