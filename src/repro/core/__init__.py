"""BLEND's core: seekers, combiners, the Plan API, the optimizer, and the
execution engine."""

from .combiners import Combiner, Combiners, combiner_by_name, register_combiner
from .executor import NodeRun, PlanExecutor, PlanRunResult
from .hybrid import DiscoveryResult, HybridSeeker
from .optimizer import CostModel, ExecutionPlan, Optimizer
from .plan import Plan, PlanNode
from .results import ResultList, TableHit, fuse_rankings
from .semantic import SemanticIndex, SemanticSeeker
from .grammar import SEEKER_REGISTRY, SeekerSpec, parse_plan, register_seeker
from .seekers import Rewrite, Seeker, SeekerContext, Seekers
from .system import Blend, union_search_plan
from .tasks import multi_objective_plan

__all__ = [
    "Combiner",
    "Combiners",
    "combiner_by_name",
    "register_combiner",
    "NodeRun",
    "PlanExecutor",
    "PlanRunResult",
    "CostModel",
    "DiscoveryResult",
    "ExecutionPlan",
    "HybridSeeker",
    "Optimizer",
    "Plan",
    "PlanNode",
    "ResultList",
    "SEEKER_REGISTRY",
    "SeekerSpec",
    "SemanticIndex",
    "SemanticSeeker",
    "TableHit",
    "fuse_rankings",
    "parse_plan",
    "register_seeker",
    "Rewrite",
    "Seeker",
    "SeekerContext",
    "Seekers",
    "Blend",
    "multi_objective_plan",
    "union_search_plan",
]
