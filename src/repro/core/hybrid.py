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
  byte-identical for any shard count by construction.

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

    ``alpha`` balances the lanes (0 = pure exact, 1 = pure semantic):
    their fusion weights are ``(1 - alpha, alpha)``. The exact lane is MC
    for a row-shaped query and SC for flat values. ``about`` supplies the
    semantic topic; left ``None``, the exact query's own values are
    embedded.
    """

    kind = "HY"

    def __init__(
        self,
        values: Iterable[Cell] | Iterable[Sequence[Cell]] | Table,
        about: Optional[Iterable[Cell]] = None,
        k: int = 10,
        alpha: float = 0.5,
    ) -> None:
        super().__init__(k)
        if not 0.0 <= alpha <= 1.0:
            raise SeekerError(f"alpha must be in [0, 1], got {alpha}")
        materialized = values if isinstance(values, Table) else list(values)
        self.alpha = float(alpha)
        self.lane_depth = max(self.k, self.k * LANE_DEPTH)
        exact = Seekers.MC if _is_row_query(materialized) else Seekers.SC
        self.exact_seeker = exact(materialized, k=self.lane_depth)
        topic = list(about) if about is not None else _flatten_values(materialized)
        self.semantic_seeker = SemanticSeeker(topic, k=self.lane_depth)

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
        return fused_partials(
            (
                FusionLane("exact", 1.0 - self.alpha, self.exact_seeker.partials(context)),
                FusionLane("semantic", self.alpha, self.semantic_seeker.partials(context)),
            ),
            fetch=self.lane_depth,
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
