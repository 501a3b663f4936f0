"""The BLEND plan optimizer: EGs -> ranking -> rewrite schedule (§VII-B).

Produces an :class:`ExecutionPlan`: a topological node order with the
seekers of each execution group re-ranked (rules + cost model), a
rewrite annotation per seeker saying which earlier siblings' intermediate
results restrict its SQL (``TableId IN`` for Intersection groups,
``TableId NOT IN`` for Difference groups), and the plan's *batches*: per
batchable kind, the seekers no rewrite restricts, which the executor runs
as one group (one scan) through :func:`~repro.core.batch.execute_batch`.
The actual table-id lists are resolved at execution time by
:mod:`..executor`.

Reproduction note on Theorem 1 (output preservation). With per-seeker
top-k truncation, the Intersection rewrite computes each later seeker's
top-k *within* the earlier siblings' tables rather than globally, so the
optimized intersection can be a **superset** of the unoptimized one
(strictly more complete, never less). The two coincide exactly whenever
k does not truncate any seeker's candidate set. Both properties are
verified by ``tests/core/test_optimizer_semantics.py``; the paper's
Theorem 1 proof implicitly assumes the no-truncation regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from ...index.stats import LakeStatistics
from ..batch import BATCHED_KINDS
from ..plan import Plan
from ..seekers import Seeker
from .cost_model import CostModel
from .groups import ExecutionGroup, identify_groups
from .rules import rank_seekers


@dataclass(frozen=True)
class RewriteSpec:
    """How a seeker's SQL gets restricted at execution time."""

    mode: str  # "intersect" | "difference"
    source_nodes: tuple[str, ...]  # earlier nodes whose results feed the predicate


@dataclass
class ExecutionPlan:
    """Optimizer output: node order, per-seeker rewrite schedule, and the
    batches of unrewritten same-kind seekers (members in ``order``)."""

    order: list[str]
    rewrites: dict[str, RewriteSpec] = field(default_factory=dict)
    groups: list[ExecutionGroup] = field(default_factory=list)
    batches: list[tuple[str, ...]] = field(default_factory=list)

    def describe(self) -> str:
        """Human-readable summary (used by examples and debugging)."""
        lines = [f"execution order: {' -> '.join(self.order)}"]
        for name, spec in self.rewrites.items():
            predicate = "IN" if spec.mode == "intersect" else "NOT IN"
            lines.append(
                f"  {name}: TableId {predicate} results of {list(spec.source_nodes)}"
            )
        for batch in self.batches:
            lines.append(f"  one scan: {', '.join(batch)}")
        return "\n".join(lines)


class Optimizer:
    """Two-phase plan optimizer (rule-based + learned cost)."""

    def __init__(self, cost_model: Optional[CostModel] = None) -> None:
        self.cost_model = cost_model or CostModel()

    def optimize(
        self,
        plan: Plan,
        stats: Union[LakeStatistics, Callable[[], LakeStatistics]],
    ) -> ExecutionPlan:
        """Compute the optimized execution plan for *plan*. *stats* may
        be a zero-argument callable, read only when a reorderable group
        holds seekers to order (see :func:`rank_seekers`)."""
        plan.validate()
        base_order = [node.name for node in plan.topological_order()]
        groups = identify_groups(plan)

        order = list(base_order)
        rewrites: dict[str, RewriteSpec] = {}
        for group in groups:
            if group.reorderable:
                named = [
                    (name, plan.node(name).operator) for name in group.seeker_names
                ]
                ranked = rank_seekers(
                    [(name, seeker) for name, seeker in named if isinstance(seeker, Seeker)],
                    self.cost_model,
                    stats,
                )
            else:
                ranked = list(group.fixed_order)
            # Place the ranked seekers into the slots their group members
            # occupy in the base order (seekers have no inter-dependencies,
            # so any permutation within those slots stays topological).
            slots = sorted(order.index(name) for name in group.seeker_names)
            for slot, name in zip(slots, ranked):
                order[slot] = name
            # Delay group seekers past the combiner's sub-plan inputs so
            # those results can restrict them. Legal: an exclusive group
            # seeker's only consumer is the group combiner, which follows
            # every group input in any topological order.
            if group.prior_inputs:
                last_prior = max(order.index(p) for p in group.prior_inputs)
                for name in ranked:
                    current = order.index(name)
                    if current < last_prior:
                        order.insert(last_prior, order.pop(current))
                        last_prior = max(order.index(p) for p in group.prior_inputs)
            # Rewrite schedule: each seeker is restricted by all group
            # members already executed -- earlier sibling seekers plus
            # (for Intersection) the combiner's sub-plan inputs that the
            # topological order placed before it.
            position_of = {name: index for index, name in enumerate(order)}
            for position, name in enumerate(ranked):
                earlier_siblings = tuple(ranked[:position])
                earlier_priors = tuple(
                    prior
                    for prior in group.prior_inputs
                    if position_of[prior] < position_of[name]
                )
                sources = earlier_priors + earlier_siblings
                if sources:
                    rewrites[name] = RewriteSpec(
                        mode=group.rewrite_mode,
                        source_nodes=sources,
                    )
        # Batches: per kind, the seekers no rewrite restricts run as one
        # group, at the first member's position.
        kinds = {
            name: plan.node(name).operator.kind
            for name in order
            if plan.node(name).is_seeker and name not in rewrites
        }
        batches = []
        for kind in BATCHED_KINDS:
            batch = tuple(name for name, of in kinds.items() if of == kind)
            if len(batch) >= 2:
                batches.append(batch)
        return ExecutionPlan(order=order, rewrites=rewrites, groups=groups, batches=batches)

    @staticmethod
    def unoptimized(plan: Plan) -> ExecutionPlan:
        """B-NO: insertion order, no rewrites, no batches (the paper's
        baseline)."""
        plan.validate()
        return ExecutionPlan(order=[node.name for node in plan.nodes()])
