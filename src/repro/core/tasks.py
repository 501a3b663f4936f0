"""The four complex discovery tasks of the paper's Table III, as BLEND
plans (§VIII-B). Each builder is deliberately as short as the paper's
reported plan definitions -- their line counts are measured by the
Table III benchmark and compared against the federated baselines in
:mod:`repro.baselines.federation`.
"""

from __future__ import annotations

from .combiners import Combiners
from .plan import Plan
from .seekers import Seekers


def negative_examples_plan(positive, negative, k=10):
    """Discovery with negative examples: two MC seekers + Difference."""
    plan = Plan()
    plan.add("pos", Seekers.MC(positive), k=k)
    plan.add("neg", Seekers.MC(negative), k=k)
    plan.add("exclude", Combiners.Difference(k=k), ["pos", "neg"])
    return plan


def imputation_plan(examples, queries, k=10):
    """Example-based data imputation: MC + SC + Intersection (Fig. 4)."""
    plan = Plan()
    plan.add("examples", Seekers.MC(examples), k=k)
    plan.add("query", Seekers.SC(queries), k=k)
    plan.add("intersection", Combiners.Intersect(k=k), ["examples", "query"])
    return plan


def feature_discovery_plan(join_rows, keys, target, features, k=10):
    """Multicollinearity-aware feature discovery: one C seeker for the
    target, one C seeker + Difference per existing feature (the
    multicollinearity filter), and an MC seeker for joinability."""
    plan = Plan()
    plan.add("target_corr", Seekers.Correlation(keys, target, min_qcr=0.3), k=3 * k)
    previous = "target_corr"
    for index, feature in enumerate(features):
        plan.add(f"feat{index}", Seekers.Correlation(keys, feature, min_qcr=0.5), k=3 * k)
        plan.add(f"diff{index}", Combiners.Difference(k=3 * k), [previous, f"feat{index}"])
        previous = f"diff{index}"
    plan.add("joinable", Seekers.MC(join_rows), k=3 * k)
    plan.add("out", Combiners.Intersect(k=k), [previous, "joinable"])
    return plan


def multi_objective_plan_no_imputation(keywords, examples, joinkey, target, k=10):
    """Multi-objective discovery (Listing 4 without the imputation
    sub-plan, as evaluated in §VIII-B5)."""
    plan = Plan()
    plan.add("kw", Seekers.KW(keywords, k=k))
    for clm in examples.columns:
        plan.add(clm, Seekers.SC(examples.column_values(clm), k=10 * k))
    plan.add("counter", Combiners.Counter(k=k), list(examples.columns))
    plan.add("correlation", Seekers.Correlation(
        examples.column_values(joinkey), examples.column_values(target), k=k))
    plan.add("union", Combiners.Union(k=4 * k), ["kw", "counter", "correlation"])
    return plan


def multi_objective_plan(keywords, examples, join_key_column, target_column, queries, k=10):
    """Listing 4 in full: the evaluated plan above with the data-imputation
    sub-plan (MC + SC + Intersection) as a fourth input of its Union."""
    plan = Plan()
    evaluated = multi_objective_plan_no_imputation(
        keywords, examples, join_key_column, target_column, k=k
    )
    for node in evaluated.nodes()[:-1]:  # all but its Union
        plan.add(node.name, node.operator, node.inputs or None)
    plan.add("examples", Seekers.MC(examples, k=k))
    plan.add("query", Seekers.SC(queries, k=k))
    plan.add("intersection", Combiners.Intersect(k=k), ["examples", "query"])
    plan.add("union", Combiners.Union(k=4 * k), ["kw", "counter", "correlation", "intersection"])
    return plan
