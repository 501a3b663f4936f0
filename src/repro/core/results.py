"""Ranked result sets exchanged between seekers and combiners.

Every operator in BLEND produces a :class:`ResultList`: table ids with
scores, ordered best-first. Scores are operator-specific (overlap counts
for SC/KW/MC, |QCR| for the correlation seeker, frequencies for Counter)
but always "higher is better", which is what makes set-based composition
well-defined.

This module also defines the *mergeable partial* contract behind every
execution path -- serial, batched, and sharded. A seeker does not rank
directly: it emits a :class:`SeekerPartials` (per-group ``(table, score)``
arrays, or per-table counts), and :func:`merge_partials` turns one or
more such partials into the final :class:`ResultList`. Solo execution is
the degenerate one-shard merge, so a scatter-gather deployment that
merges K per-shard partials is byte-identical to a single process by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional, Sequence

import numpy as np

from ..errors import SeekerError


@dataclass(frozen=True)
class TableHit:
    """One discovered table."""

    table_id: int
    score: float

    def __repr__(self) -> str:
        return f"TableHit({self.table_id}, {self.score:g})"


class ResultList:
    """An ordered, duplicate-free list of table hits."""

    __slots__ = ("_hits", "_by_id")

    def __init__(self, hits: Iterable[TableHit] = ()) -> None:
        self._hits: list[TableHit] = []
        self._by_id: dict[int, float] = {}
        for hit in hits:
            if hit.table_id in self._by_id:
                continue
            self._hits.append(hit)
            self._by_id[hit.table_id] = hit.score

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._hits)

    def __iter__(self) -> Iterator[TableHit]:
        return iter(self._hits)

    def __contains__(self, table_id: int) -> bool:
        return table_id in self._by_id

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ResultList) and self._hits == other._hits

    def __repr__(self) -> str:
        preview = ", ".join(repr(hit) for hit in self._hits[:5])
        suffix = ", ..." if len(self._hits) > 5 else ""
        return f"ResultList([{preview}{suffix}])"

    # -- accessors -----------------------------------------------------------

    def table_ids(self) -> list[int]:
        """Table ids best-first."""
        return [hit.table_id for hit in self._hits]

    def score_of(self, table_id: int) -> Optional[float]:
        return self._by_id.get(table_id)

    def top(self, k: int) -> "ResultList":
        """The best *k* hits (all hits when k exceeds the size)."""
        if k >= len(self._hits):
            return self
        return ResultList(self._hits[:k])


# -- mergeable partial results -------------------------------------------------


RANKED = "ranked"
COUNTS = "counts"
FUSED = "fused"

RRF_K = 60.0  # the reciprocal-rank fusion constant (see fuse_rankings)

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_SCORES = np.empty(0, dtype=np.float64)


@dataclass(frozen=True)
class SeekerPartials:
    """The mergeable intermediate every seeker emits before ranking.

    Two kinds, matching the two ranking tails the seekers share:

    * ``"ranked"`` -- per-*group* rows ``(table_id, score[, group_key])``
      in best-first emission order, as produced by the SC/KW kernel
      (``value_partials``), the C kernel and the semantic seeker: sorted by
      ``(score desc, table, group)`` and already cut at ``fetch`` rows.
      Merging concatenates, re-sorts on the same keys (stably, so each
      shard's emission order survives ties), re-cuts at ``fetch``, and
      collapses groups to tables via :func:`dedupe_ranked_groups`.
    * ``"counts"`` -- exact per-table validated-row counts (the MC
      seeker), *not* cut: merging sums counts per table id across
      partials before the global :func:`rank_table_counts` top-k.

    Partials are safe to merge across shards because every table lives
    wholly in one shard: per-table sums never split, and ties on
    ``(score, table)`` can only originate from a single shard, so a
    stable re-sort reproduces the single-process order exactly.

    A third kind, ``"fused"``, is the hybrid seeker's partial: a tuple
    of named, weighted *lanes*, each wrapping an ordinary mergeable
    partial (``lanes``; ``table_ids``/``scores`` stay empty). Fusion is
    rank-based, and per-shard ranks are meaningless -- so the merge
    first merges every lane *across shards* with the standard tails
    above (each provably shard-invariant), then applies weighted
    reciprocal-rank fusion (``RRF_K``) to the globally-merged lane
    rankings. The fused ranking is a deterministic function of
    shard-invariant inputs, hence itself shard-invariant by
    construction. ``fetch`` is the per-lane merge depth.

    ``group_keys`` (e.g. ColumnId for SC) is carried when the producer
    has it cheaply; the merge does not need it -- rows that tie on
    ``(score, table)`` collapse to the same :class:`TableHit` regardless
    of intra-table order.
    """

    kind: str
    table_ids: np.ndarray = field(default_factory=lambda: _EMPTY_IDS)
    scores: np.ndarray = field(default_factory=lambda: _EMPTY_SCORES)
    group_keys: Optional[np.ndarray] = None
    fetch: Optional[int] = None
    lanes: Optional[tuple["FusionLane", ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in (RANKED, COUNTS, FUSED):
            raise SeekerError(f"unknown partials kind: {self.kind!r}")
        if len(self.table_ids) != len(self.scores):
            raise SeekerError("partials table_ids and scores must align")
        if self.kind == FUSED:
            if not self.lanes:
                raise SeekerError("fused partials require at least one lane")
            if self.fetch is None:
                raise SeekerError("fused partials require a lane merge depth (fetch)")
        elif self.lanes is not None:
            raise SeekerError(f"{self.kind!r} partials cannot carry fusion lanes")

    def __len__(self) -> int:
        if self.kind == FUSED:
            return sum(len(lane.partials) for lane in self.lanes)
        return len(self.table_ids)


@dataclass(frozen=True)
class FusionLane:
    """One weighted input of a fused partial: a named modality whose own
    mergeable partial feeds the reciprocal-rank fusion tail."""

    name: str
    weight: float
    partials: SeekerPartials

    def signature(self) -> tuple:
        """What must match across shards for lanes to merge."""
        return (self.name, self.weight, self.partials.kind)


def ranked_partials(rows: Iterable[Sequence[Any]], fetch: Optional[int]) -> SeekerPartials:
    """Wrap best-first ``(table_id, score, ...)`` rows as a ranked partial."""
    ids: list[int] = []
    scores: list[float] = []
    for table_id, score, *_ in rows:
        ids.append(table_id)
        scores.append(float(score))
    return SeekerPartials(
        RANKED,
        np.asarray(ids, dtype=np.int64),
        np.asarray(scores, dtype=np.float64),
        fetch=fetch,
    )


def count_partials(
    table_ids: Sequence[int] | np.ndarray, counts: Sequence[int] | np.ndarray
) -> SeekerPartials:
    """Wrap exact per-table counts (the MC tail) as a counts partial."""
    return SeekerPartials(
        COUNTS,
        np.asarray(table_ids, dtype=np.int64),
        np.asarray(counts, dtype=np.float64),
    )


def fused_partials(lanes: Sequence["FusionLane"], fetch: int) -> SeekerPartials:
    """Wrap weighted per-lane partials as a fused partial (the hybrid
    seeker's emission). *fetch* is the depth each lane's global ranking
    is merged to before fusion."""
    return SeekerPartials(FUSED, fetch=fetch, lanes=tuple(lanes))


def fuse_rankings(lanes: Sequence[tuple[float, "ResultList"]], k: int) -> ResultList:
    """Weighted reciprocal-rank fusion: ``score(t) = sum_l w_l / (RRF_K
    + rank_l(t))`` over the lanes where *t* appears (ranks are 1-based),
    ranked ``(score desc, table asc)`` and cut at *k*.

    Zero-weight lanes are skipped entirely, so a degenerate weighting
    (one lane carries all the mass) reproduces that lane's own table
    order exactly -- reciprocal rank is strictly decreasing in rank.
    Lanes accumulate in their given order, so the float sums (and hence
    the ranking) are bit-reproducible wherever the lane rankings are.
    """
    scores: dict[int, float] = {}
    for weight, ranking in lanes:
        if weight == 0.0:
            continue
        for rank, hit in enumerate(ranking, start=1):
            scores[hit.table_id] = scores.get(hit.table_id, 0.0) + weight / (
                RRF_K + rank
            )
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return ResultList(TableHit(table_id, score) for table_id, score in ranked[:k])


def merge_partials(partials: Sequence[SeekerPartials], k: int) -> ResultList:
    """The single ranking tail: merge per-shard partials into the final
    top-k :class:`ResultList`.

    With one partial this is exactly the seeker's old serial tail; with K
    it is the scatter-gather coordinator's global merge. Counts partials
    sum per table id (exact in int64 -- scores are integral row counts)
    before :func:`rank_table_counts`; ranked partials concatenate,
    stable-sort on ``(score desc, table)``, re-cut at ``fetch``, and
    collapse through :func:`dedupe_ranked_groups`. Per-shard ``fetch``
    cuts lose nothing globally: the global top-``fetch`` groups are a
    subset of the union of per-shard top-``fetch`` groups.
    """
    parts = [p for p in partials if p is not None and len(p)]
    if not parts:
        return ResultList([])
    kinds = {p.kind for p in parts}
    if len(kinds) != 1:
        raise SeekerError(f"cannot merge partials of mixed kinds: {sorted(kinds)}")
    kind = kinds.pop()

    if kind == FUSED:
        signatures = {
            (tuple(lane.signature() for lane in p.lanes), p.fetch)
            for p in parts
        }
        if len(signatures) != 1:
            raise SeekerError(
                "cannot merge fused partials with diverging lane structure: "
                f"{sorted(map(str, signatures))}"
            )
        template = parts[0]
        fused_lanes: list[tuple[float, ResultList]] = []
        for index, lane in enumerate(template.lanes):
            # Each lane merges across shards through its own standard
            # tail first; fusion only ever sees *global* lane rankings.
            lane_ranking = merge_partials(
                [p.lanes[index].partials for p in parts], template.fetch
            )
            fused_lanes.append((lane.weight, lane_ranking))
        return fuse_rankings(fused_lanes, k)

    if kind == COUNTS:
        ids = np.concatenate([p.table_ids for p in parts])
        tallies = np.concatenate(
            [p.scores.astype(np.int64) for p in parts]
        )
        unique_ids, inverse = np.unique(ids, return_inverse=True)
        sums = np.zeros(len(unique_ids), dtype=np.int64)
        np.add.at(sums, inverse, tallies)
        return rank_table_counts(unique_ids, sums, k)

    fetches = {p.fetch for p in parts}
    if len(fetches) != 1:
        raise SeekerError(f"cannot merge partials with mixed fetch cuts: {sorted(map(str, fetches))}")
    fetch = fetches.pop()
    ids = np.concatenate([p.table_ids for p in parts])
    scores = np.concatenate([p.scores for p in parts])
    order = np.lexsort((ids, -scores))
    if fetch is not None:
        order = order[:fetch]
    return dedupe_ranked_groups(
        ((int(ids[i]), float(scores[i])) for i in order), k
    )


def dedupe_ranked_groups(rows: Iterable[Sequence[Any]], k: int) -> ResultList:
    """Collapse ranked *group* rows to ranked *tables*: first (best) hit
    per table wins, cut at *k*.

    The shared tail of every per-(table, column)-grouped seeker, invoked
    through :func:`merge_partials` -- and the reason seeker results are
    mergeable partials rather than opaque top-k lists: per-shard ranked
    group streams, re-sorted on the same ``(score desc, table)`` keys and
    fed through this cut, reproduce a single-node ranking exactly.

    *rows* yields ``(table_id, score, ...)`` best-first, never a NULL
    score (no seeker makes one: C's groups hold ``COUNT(*) >=
    min_support >= 1`` pairs).
    """
    hits: list[TableHit] = []
    seen: set[int] = set()
    for table_id, score, *_ in rows:
        if table_id not in seen:
            seen.add(table_id)
            hits.append(TableHit(table_id, float(score)))
        if len(hits) == k:
            break
    return ResultList(hits)


def rank_table_counts(
    table_ids: Sequence[int] | np.ndarray,
    counts: Sequence[int] | np.ndarray,
    k: int,
) -> ResultList:
    """Rank per-table validated-row counts: ``(count desc, table asc)``,
    top *k* -- the counts-kind tail of :func:`merge_partials` (per-shard
    counts of one table simply add before ranking)."""
    ids = np.asarray(table_ids, dtype=np.int64)
    tallies = np.asarray(counts, dtype=np.int64)
    if len(ids) == 0:
        return ResultList([])
    ranked = np.lexsort((ids, -tallies))
    return ResultList(
        TableHit(int(ids[i]), float(tallies[i])) for i in ranked[:k]
    )
