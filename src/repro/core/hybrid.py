"""Hybrid semantic+exact discovery: the fusion seeker (ROADMAP item 2).

BLEND's grammar (§IV-C) composes seekers set-wise; the closest related
work (SeDa-style unified discovery) instead *fuses* modalities into one
ranked answer: "joinable on X AND semantically about Y". This module
promotes that to a first-class seeker:

* :class:`HybridSeeker` (kind ``HY``) pairs one exact-overlap lane
  (SC, KW or MC over ``AllTables``) with one semantic lane
  (:class:`~repro.core.semantic.SemanticSeeker` over ``AllVectors``)
  and fuses their rankings with weighted reciprocal-rank fusion
  (:func:`~repro.core.results.fuse_rankings`);
* it emits a standard mergeable partial (kind ``"fused"``), so solo,
  batched (:mod:`repro.core.batch`) and sharded
  (:mod:`repro.serving.sharded`) execution all fall out of the existing
  ``merge_partials`` tail. Fusion is rank-based and per-shard ranks are
  meaningless, so the fused partial carries both lanes' *sub-partials*
  and the merge fuses only after each lane has been globally merged --
  and the semantic lane is an exact scan, so hybrid results are
  byte-identical for any shard count by construction;
* a learned-weight mode derives the lane weights from the trained
  :class:`~repro.core.optimizer.cost_model.CostModel`: each lane's
  weight is the inverse of its predicted runtime over the same
  ``(cardinality, columns, average_frequency)`` features the optimizer
  already uses -- the regression's runtime curve tracks how much index
  mass a lane's query drags in, so expensive (low-selectivity) lanes
  are down-weighted relative to sharp ones.

:class:`DiscoveryResult` is the typed answer of the unified
``Blend.discover()`` facade, which routes every discovery modality
(keyword / join / multi-column / semantic / hybrid) through this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence

from ..errors import SeekerError
from ..lake.table import Cell, Table
from .results import (
    DEFAULT_RRF_K,
    FusionLane,
    ResultList,
    SeekerPartials,
    fused_partials,
)
from .seekers import Rewrite, Seeker, SeekerContext, Seekers
from .semantic import SemanticSeeker

# How much deeper than k each lane's global ranking is merged before
# fusion: tables ranked [k, LANE_DEPTH*k) in one lane can still reach the
# fused top-k through their other-lane rank.
LANE_DEPTH = 4

_EXACT_KINDS = ("SC", "KW", "MC")


def _is_row_query(values: Any) -> bool:
    """Multi-column query shapes (a Table or rows of cells) take the MC
    exact lane; flat value lists take SC/KW."""
    if isinstance(values, Table):
        return True
    probe = next(iter(values), None)
    return isinstance(probe, (tuple, list))


def _flatten_values(values: Any) -> list[Cell]:
    """Default semantic-lane topic: every cell of the exact query."""
    if isinstance(values, Table):
        return [cell for row in values.rows for cell in row]
    flat: list[Cell] = []
    for item in values:
        if isinstance(item, (tuple, list)):
            flat.extend(item)
        else:
            flat.append(item)
    return flat


class HybridSeeker(Seeker):
    """HY: weighted reciprocal-rank fusion of one exact-overlap lane and
    one semantic lane -- "joinable on X AND semantically about Y".

    ``alpha`` balances the lanes (0 = pure exact, 1 = pure semantic);
    explicit ``weights=(exact, semantic)`` overrides it, and
    :meth:`calibrate` replaces both with cost-model-derived weights.
    ``about`` supplies the semantic topic; left ``None``, the exact
    query's own values are embedded.
    """

    kind = "HY"

    def __init__(
        self,
        values: Iterable[Cell] | Iterable[Sequence[Cell]] | Table,
        about: Optional[Iterable[Cell]] = None,
        k: int = 10,
        alpha: float = 0.5,
        rrf_k: float = DEFAULT_RRF_K,
        weights: Optional[tuple[float, float]] = None,
        exact_kind: Optional[str] = None,
    ) -> None:
        super().__init__(k)
        if not 0.0 <= alpha <= 1.0:
            raise SeekerError(f"alpha must be in [0, 1], got {alpha}")
        if rrf_k <= 0:
            raise SeekerError(f"rrf_k must be positive, got {rrf_k}")
        materialized = values if isinstance(values, Table) else list(values)
        if exact_kind is None:
            exact_kind = "MC" if _is_row_query(materialized) else "SC"
        if exact_kind not in _EXACT_KINDS:
            raise SeekerError(
                f"unknown exact lane {exact_kind!r}; one of {_EXACT_KINDS}"
            )
        self.alpha = float(alpha)
        self.rrf_k = float(rrf_k)
        self.exact_kind = exact_kind
        self.lane_depth = max(self.k, self.k * LANE_DEPTH)
        builder = getattr(Seekers, exact_kind)
        self.exact_seeker = builder(materialized, k=self.lane_depth)
        topic = list(about) if about is not None else _flatten_values(materialized)
        self.semantic_seeker = SemanticSeeker(topic, k=self.lane_depth)
        if weights is None:
            weights = (1.0 - self.alpha, self.alpha)
        self._set_weights(weights)

    def _set_weights(self, weights: tuple[float, float]) -> None:
        exact_weight, semantic_weight = (float(w) for w in weights)
        if exact_weight < 0 or semantic_weight < 0:
            raise SeekerError("fusion weights must be non-negative")
        if exact_weight == 0 and semantic_weight == 0:
            raise SeekerError("at least one fusion weight must be positive")
        self.weights = (exact_weight, semantic_weight)

    def calibrate(self, cost_model, stats) -> "HybridSeeker":
        """Learned-weight mode: replace the alpha-derived weights with
        weights inversely proportional to each lane's cost-model runtime
        estimate (normalised to sum to 1). Deterministic given the model
        and statistics; call before execution so solo/batched/sharded
        paths all fuse with the same weights. Returns self."""
        estimates = [
            max(cost_model.estimate(seeker, stats), 1e-12)
            for seeker in (self.exact_seeker, self.semantic_seeker)
        ]
        inverse = [1.0 / estimate for estimate in estimates]
        total = sum(inverse)
        self._set_weights((inverse[0] / total, inverse[1] / total))
        return self

    # -- execution ---------------------------------------------------------------

    def sql(self, rewrite: Optional[Rewrite] = None) -> str:
        return self.exact_seeker.sql(rewrite)

    def params(self, rewrite: Optional[Rewrite] = None) -> dict:
        return self.exact_seeker.params(rewrite)

    def partials(
        self, context: SeekerContext, rewrite: Optional[Rewrite] = None
    ) -> SeekerPartials:
        """Both lanes' partials over this context's shard, wrapped as one
        fused partial.

        Rewrites are NOT pushed into the lanes: fusion is rank-based, and
        pre-filtering a lane shifts the surviving tables' ranks -- the
        optimizer would change fused scores. Like the semantic seeker,
        the hybrid honours rewrites by post-filtering its final fused
        ranking instead (see :meth:`execute`); the batched and sharded
        paths never carry rewrites into partials."""
        if rewrite is not None:
            raise SeekerError(
                "hybrid partials cannot carry a rewrite; rewrites post-filter "
                "the fused ranking in execute()"
            )
        exact_weight, semantic_weight = self.weights
        return fused_partials(
            (
                FusionLane("exact", exact_weight, self.exact_seeker.partials(context)),
                FusionLane("semantic", semantic_weight, self.semantic_seeker.partials(context)),
            ),
            fetch=self.lane_depth,
            rrf_k=self.rrf_k,
        )

    def execute(
        self, context: SeekerContext, rewrite: Optional[Rewrite] = None
    ) -> ResultList:
        """Solo execution: the degenerate one-partial merge. A rewrite is
        applied by post-filtering the fused ranking (fused scores and the
        survivors' relative order are exactly what an unoptimized run
        produces -- the approximate-operator contract of the semantic
        module, lifted to the fusion tail)."""
        from .results import merge_partials

        if rewrite is None:
            return merge_partials([self.partials(context)], self.k)
        deep = merge_partials([self.partials(context)], self.lane_depth)
        allowed = set(rewrite.table_ids)
        if rewrite.mode == "intersect":
            hits = [hit for hit in deep if hit.table_id in allowed]
        elif rewrite.mode == "difference":
            hits = [hit for hit in deep if hit.table_id not in allowed]
        else:
            raise SeekerError(f"unknown rewrite mode: {rewrite.mode}")
        return ResultList(hits[: self.k])

    # -- cost-model features (paper §VII-B) ----------------------------------------

    def query_cardinality(self) -> int:
        return self.exact_seeker.query_cardinality()

    def query_columns(self) -> int:
        return self.exact_seeker.query_columns()

    def query_tokens(self) -> list[str]:
        tokens = list(self.exact_seeker.query_tokens())
        seen = set(tokens)
        for token in self.semantic_seeker.query_tokens():
            if token not in seen:
                seen.add(token)
                tokens.append(token)
        return tokens


@dataclass(frozen=True)
class DiscoveryResult:
    """The typed answer of ``Blend.discover()``: one fused output ranking
    plus the per-modality rankings it was fused from."""

    query: Any
    modalities: tuple[str, ...]
    k: int
    output: ResultList
    per_modality: Mapping[str, ResultList] = field(default_factory=dict)

    def table_ids(self) -> list[int]:
        """Fused table ids, best-first."""
        return self.output.table_ids()

    def __len__(self) -> int:
        return len(self.output)

    def __iter__(self):
        return iter(self.output)
