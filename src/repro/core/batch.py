"""Cross-query batched seeker execution for the serving tier.

This module batches *across* concurrently-arriving queries of the same
modality so a serving batch runs a fixed number of index passes
regardless of how many requests it coalesces:

* **SC / KW** -- all queries' tokens union into ONE index scan; each
  query's per-(table[, column]) distinct-overlap ranking is then a
  bincount over the shared scan, replicating its solo SQL byte for byte.
  A lone query of its kind keeps its solo SQL aggregation: a different
  algorithm, cheaper when there is nothing to share.
* **MC** -- ONE ``AllTables`` scan over the union of all MC queries'
  vocabularies, whatever their widths, serves the whole batch. The
  three phases are the group bodies of :mod:`repro.core.seekers`
  (``mc_fetch_candidates`` / ``mc_superkey_filter`` / ``mc_validate``),
  the same code a solo ``MultiColumnSeeker.partials`` runs as the group
  of one.

Every kernel emits the same :class:`~repro.core.results.SeekerPartials`
the serial path does, so serial, batched, and sharded execution share one
result contract: ``execute_batch`` is the degenerate one-shard merge of
``execute_batch_partials``, and the batching-parity tests pin
byte-identical results on both storage backends. Rewrites
(combiner-injected predicates) stay on the per-query path: batches are
built from independent requests, which have none.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .results import (
    RANKED,
    ResultList,
    SeekerPartials,
    merge_partials,
)
from .seekers import (
    OVERFETCH,
    KeywordSeeker,
    MultiColumnSeeker,
    Seeker,
    SeekerContext,
    SingleColumnSeeker,
    _vocab_codes,
    mc_count_partials,
    mc_fetch_candidates,
    mc_superkey_filter,
    mc_validate,
)


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
    for i, seeker in enumerate(seekers):
        if isinstance(seeker, MultiColumnSeeker):
            mc_group.append(i)
        elif isinstance(seeker, (SingleColumnSeeker, KeywordSeeker)):
            value_groups.setdefault(seeker.kind, []).append(i)
        else:
            results[i] = seeker.partials(context)
    for kind, indices in value_groups.items():
        if len(indices) == 1:  # nothing to coalesce; solo SQL is cheaper
            results[indices[0]] = seekers[indices[0]].partials(context)
            continue
        batch = _execute_value_batch(
            [seekers[i] for i in indices], context, per_column=kind == "SC"
        )
        for i, result in zip(indices, batch):
            results[i] = result
    if mc_group:  # one scan for every MC query, whatever its width
        group = [seekers[i] for i in mc_group]
        candidates = mc_fetch_candidates(group, context)
        survivors = mc_superkey_filter(group, candidates, context)
        validated = mc_validate(group, survivors, context, candidates[0].scan)
        for i, (tables, _) in zip(mc_group, validated):
            results[i] = mc_count_partials(tables)
    return results  # type: ignore[return-value]


# -- SC / KW: one scan, per-query bincount rankings ---------------------------------


def _execute_value_batch(
    seekers: Sequence[Seeker], context: SeekerContext, per_column: bool
) -> list[SeekerPartials]:
    """Shared kernel for SC (``per_column=True``) and KW batches.

    One ``CellValue IN (union of all queries' tokens)`` scan replaces N
    grouped SQL queries; the scan's distinct ``(table[, column], value)``
    triples are grouped once, and each query ranks groups by how many of
    *its* tokens each holds -- the same ``COUNT(DISTINCT CellValue)`` /
    ``ORDER BY overlap DESC, TableId[, ColumnId]`` / ``LIMIT`` pipeline
    its solo SQL runs, emitted as ranked partials (group rows best-first,
    cut at the solo fetch) for the shared merge tail.
    """
    vocabulary: dict[str, int] = {}
    for seeker in seekers:
        for token in seeker.tokens:  # type: ignore[attr-defined]
            vocabulary.setdefault(token, len(vocabulary))
    columns = "TableId, ColumnId, CellValue" if per_column else "TableId, CellValue"
    sql = f"SELECT {columns} FROM {context.index_table} WHERE CellValue IN (:q)"
    result = context.db.execute_columnar(
        sql, {"q": list(vocabulary)}, decode_text=False
    )
    table_ids = result.arrays[0][0]
    if per_column:
        column_ids = result.arrays[1][0]
        values = result.arrays[2][0]
    else:
        column_ids = np.zeros(len(table_ids), dtype=np.int64)
        values = result.arrays[1][0]
    def empty_partials(seeker: Seeker) -> SeekerPartials:
        fetch = seeker.k * OVERFETCH if per_column else seeker.k
        return SeekerPartials(RANKED, fetch=fetch)

    n = len(table_ids)
    if n == 0:
        return [empty_partials(seeker) for seeker in seekers]
    codes = _vocab_codes(values, vocabulary)

    # Distinct (table[, column], value) triples, sorted by group -- the
    # scan returns one row per physical cell, but overlap counts DISTINCT
    # values per group. The three sort keys pack into one int64 (their
    # ranges are small: ids and vocabulary codes), turning a three-key
    # lexsort plus three-way compares into one argsort and one compare.
    code_span = np.int64(len(vocabulary))
    column_span = np.int64(column_ids.max() + 1)
    packed = (table_ids * column_span + column_ids) * code_span + codes
    order = np.argsort(packed)
    packed = packed[order]
    first = np.ones(n, dtype=bool)
    first[1:] = packed[1:] != packed[:-1]
    table_ids = table_ids[order][first]
    column_ids = column_ids[order][first]
    codes = codes[order][first]
    group_key = packed[first] // code_span

    new_group = np.ones(len(table_ids), dtype=bool)
    new_group[1:] = group_key[1:] != group_key[:-1]
    group_index = np.cumsum(new_group) - 1
    group_starts = np.nonzero(new_group)[0]
    group_tables = table_ids[group_starts]
    group_columns = column_ids[group_starts]
    n_groups = len(group_starts)

    results: list[SeekerPartials] = []
    member = np.zeros(len(vocabulary), dtype=bool)
    for seeker in seekers:
        my_codes = [vocabulary[token] for token in seeker.tokens]  # type: ignore[attr-defined]
        member[my_codes] = True
        overlaps = np.bincount(
            group_index[member[codes]], minlength=n_groups
        )
        member[my_codes] = False
        hit = overlaps > 0
        if not hit.any():
            results.append(empty_partials(seeker))
            continue
        tables, cols, counts = group_tables[hit], group_columns[hit], overlaps[hit]
        ranked = np.lexsort((cols, tables, -counts))
        fetch = seeker.k * OVERFETCH if per_column else seeker.k
        cut = ranked[:fetch]
        results.append(
            SeekerPartials(
                RANKED,
                tables[cut].astype(np.int64),
                counts[cut].astype(np.float64),
                group_keys=cols[cut].astype(np.int64) if per_column else None,
                fetch=fetch,
            )
        )
    return results
