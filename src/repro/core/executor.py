"""Plan execution engine (paper Fig. 2d).

Walks an :class:`~.optimizer.planner.ExecutionPlan` node by node: seekers
run over the index (with optimizer rewrites resolved against the
intermediate results of already-executed siblings), combiners merge
result lists in the application layer. Each of the plan's batches runs
as one :func:`~.batch.execute_batch` call at its first member's place in
the order. Per-node timings are recorded for the optimizer experiments
(Table IV) and the complex-task comparisons (Table III); a batch's time
goes to its first member, the others record 0.0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ..errors import PlanError
from .batch import execute_batch
from .optimizer.planner import ExecutionPlan, RewriteSpec
from .plan import Plan
from .results import ResultList
from .seekers import Rewrite, Seeker, SeekerContext


@dataclass
class NodeRun:
    """Execution record of one plan node."""

    name: str
    result: ResultList
    seconds: float
    rewrite: Optional[RewriteSpec] = None


@dataclass
class PlanRunResult:
    """Execution record of a whole plan."""

    output: ResultList
    node_runs: dict[str, NodeRun] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)
    total_seconds: float = 0.0

    def result_of(self, name: str) -> ResultList:
        try:
            return self.node_runs[name].result
        except KeyError:
            raise PlanError(f"plan has no executed node {name!r}") from None


class PlanExecutor:
    """Executes optimized (or unoptimized) discovery plans."""

    def __init__(self, context: SeekerContext) -> None:
        self._context = context

    def run(self, plan: Plan, execution_plan: ExecutionPlan) -> PlanRunResult:
        plan.validate()
        if sorted(execution_plan.order) != sorted(n.name for n in plan.nodes()):
            raise PlanError("execution plan does not cover exactly the plan's nodes")

        batch_of = {name: batch for batch in execution_plan.batches for name in batch}
        results: dict[str, ResultList] = {}
        runs: dict[str, NodeRun] = {}
        start = time.perf_counter()
        for name in execution_plan.order:
            if name in results:  # ran with its batch
                continue
            node = plan.node(name)
            began = time.perf_counter()
            members = batch_of.get(name, (name,))
            if name in batch_of:
                outputs = execute_batch(
                    [plan.node(member).operator for member in members], self._context
                )
            elif node.is_seeker:
                seeker = node.operator
                assert isinstance(seeker, Seeker)
                spec = execution_plan.rewrites.get(name)
                rewrite = self._resolve_rewrite(spec, results) if spec else None
                outputs = [seeker.execute(self._context, rewrite)]
            else:
                missing = [i for i in node.inputs if i not in results]
                if missing:
                    raise PlanError(
                        f"combiner {name!r} scheduled before its inputs {missing}"
                    )
                outputs = [node.operator.combine([results[i] for i in node.inputs])]
            elapsed = time.perf_counter() - began
            for member, result in zip(members, outputs):
                results[member] = result
                runs[member] = NodeRun(
                    name=member,
                    result=result,
                    seconds=elapsed if member == name else 0.0,
                    rewrite=execution_plan.rewrites.get(member),
                )
        total = time.perf_counter() - start

        sinks = plan.sinks()
        output = results[sinks[0].name] if len(sinks) == 1 else results[execution_plan.order[-1]]
        return PlanRunResult(
            output=output,
            node_runs=runs,
            order=list(execution_plan.order),
            total_seconds=total,
        )

    def _resolve_rewrite(
        self, spec: RewriteSpec, results: dict[str, ResultList]
    ) -> Rewrite:
        """Turn a rewrite schedule entry into a concrete predicate using
        the intermediate results executed so far."""
        missing = [s for s in spec.source_nodes if s not in results]
        if missing:
            raise PlanError(f"rewrite sources not yet executed: {missing}")
        id_sets = [set(results[s].table_ids()) for s in spec.source_nodes]
        if spec.mode == "intersect":
            # Restrict to tables every previous sibling found.
            table_ids = set.intersection(*id_sets) if id_sets else set()
        elif spec.mode == "difference":
            # Exclude every table the subtrahend found.
            table_ids = set.union(*id_sets) if id_sets else set()
        else:
            raise PlanError(f"unknown rewrite mode: {spec.mode}")
        return Rewrite(mode=spec.mode, table_ids=tuple(sorted(table_ids)))
