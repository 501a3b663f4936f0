"""Cross-query batched seeker execution: serving batches and plan batches.

This module batches *across* queries so a batch runs a fixed number of
index passes however many queries it holds. Two callers build batches:
the serving tier (concurrently-arriving requests) and the plan executor
(the optimizer's batches of a plan's unrewritten same-kind seekers). It
holds no kernel of its own: each batchable kind (:data:`BATCHED_KINDS`)
has one group body in :mod:`repro.core.seekers`, and a solo ``partials``
call is that body's group of one.

* **SC / KW** -- ``value_partials``, once per kind: ONE ``CellValue IN``
  scan over the union of the kind's query tokens, the distinct ``(table[,
  column], token)`` keys found once, and per query a bincount of its own
  tokens over them, ranked and cut as its Listing 1 / §VI SQL would.
* **MC** -- ONE ``AllTables`` scan over the union of all MC queries'
  vocabularies, whatever their widths, serves the whole batch. The
  three phases are ``mc_fetch_candidates`` / ``mc_superkey_filter`` /
  ``mc_validate``.
* **C** -- ``correlation_partials``: ONE scan of the key cells over the
  union of the group's join tokens and ONE scan of the numeric cells
  (``RowId <`` the group's largest ``h``) of the tables those hit; each
  query keeps its own tokens and ``h``.

Every body emits the same :class:`~repro.core.results.SeekerPartials`
the serial path does, so serial, batched, and sharded execution share one
result contract: ``execute_batch`` is the degenerate one-shard merge of
``execute_batch_partials``, and the batching-parity tests pin
byte-identical results on both storage backends. Rewrites
(combiner-injected predicates) stay on the per-query path: a batch holds
independent queries, which have none.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .results import ResultList, SeekerPartials, merge_partials
from .seekers import (
    CorrelationSeeker,
    MultiColumnSeeker,
    Seeker,
    SeekerContext,
    ValueSeeker,
    correlation_partials,
    mc_count_partials,
    mc_fetch_candidates,
    mc_superkey_filter,
    mc_validate,
    value_partials,
)

BATCHED_KINDS = ("SC", "KW", "MC", "C")
"""The seeker kinds :func:`execute_batch_partials` runs as one group."""


def execute_batch(
    seekers: Sequence[Seeker], context: SeekerContext
) -> list[ResultList]:
    """Execute *seekers* against *context*, coalescing same-modality
    queries into shared index passes. Returns one ``ResultList`` per
    seeker, positionally aligned, each identical to what
    ``seeker.execute(context)`` returns."""
    partials = execute_batch_partials(seekers, context)
    return [
        merge_partials([part], seeker.k)
        for seeker, part in zip(seekers, partials)
    ]


def execute_batch_partials(
    seekers: Sequence[Seeker], context: SeekerContext
) -> list[SeekerPartials]:
    """The partials form of :func:`execute_batch`: one mergeable
    :class:`SeekerPartials` per seeker, positionally aligned, each
    identical to ``seeker.partials(context)`` -- this is what a shard
    worker ships to the scatter-gather coordinator.

    Seekers outside the batchable modalities fall back to their own
    ``partials``.
    """
    context.ensure_fresh()
    results: list[Optional[SeekerPartials]] = [None] * len(seekers)
    value_groups: dict[str, list[int]] = {}
    mc_group: list[int] = []
    c_group: list[int] = []
    for i, seeker in enumerate(seekers):
        if isinstance(seeker, MultiColumnSeeker):
            mc_group.append(i)
        elif isinstance(seeker, CorrelationSeeker):
            c_group.append(i)
        elif isinstance(seeker, ValueSeeker):
            value_groups.setdefault(seeker.kind, []).append(i)
        else:
            results[i] = seeker.partials(context)
    for indices in value_groups.values():  # one scan per kind: SC, KW
        group = [seekers[i] for i in indices]
        for i, result in zip(indices, value_partials(group, context)):
            results[i] = result
    if mc_group:  # one scan for every MC query, whatever its width
        group = [seekers[i] for i in mc_group]
        candidates = mc_fetch_candidates(group, context)
        survivors = mc_superkey_filter(group, candidates, context)
        validated = mc_validate(group, survivors, context, candidates[0].scan)
        for i, (tables, _) in zip(mc_group, validated):
            results[i] = mc_count_partials(tables)
    if c_group:  # one key scan and one numeric scan, whatever each h
        group = [seekers[i] for i in c_group]
        for i, result in zip(c_group, correlation_partials(group, context)):
            results[i] = result
    return results  # type: ignore[return-value]
