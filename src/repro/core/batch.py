"""Cross-query batched seeker execution for the serving tier.

The array kernels of :mod:`repro.core.seekers` batch *inside* one
query (one ``may_contain_batch`` pass, one count-matrix validation); this
module batches *across* concurrently-arriving queries of the same
modality so a serving batch window runs a fixed number of index passes
regardless of how many requests it coalesces:

* **SC / KW** -- all queries' tokens union into ONE index scan; each
  query's per-(table[, column]) distinct-overlap ranking is then a
  bincount over the shared scan, replicating its solo SQL byte for byte.
* **MC** -- queries of the same tuple width share ONE phase-1 join over
  the union of their per-column token lists (a superset of every query's
  own candidate rows -- safe because phase 3 is exact), phase 2 runs each
  query's blocked bitwise mask (:func:`may_contain_batch`) over the
  shared candidates -- pruning XASH misses and the union's cross-query
  false candidates alike -- and phase 3 gathers each distinct surviving
  row ONCE and builds a single count matrix over the combined query
  vocabulary, from which every query's containment check is a
  column-gathered slice.

Every kernel emits the same :class:`~repro.core.results.SeekerPartials`
the serial path does, so serial, batched, and sharded execution share one
result contract: ``execute_batch`` is the degenerate one-shard merge of
``execute_batch_partials``, and the batching-parity tests pin
byte-identical results on both storage backends. Rewrites
(combiner-injected predicates) stay on the per-query path: batches are
built from independent requests, which have none.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from ..engine.storage.column_store import DictCodes
from ..index.xash import may_contain_batch
from .results import (
    RANKED,
    ResultList,
    SeekerPartials,
    count_partials,
    merge_partials,
    resolved_partials,
)
from .seekers import (
    OVERFETCH,
    KeywordSeeker,
    MultiColumnSeeker,
    Seeker,
    SeekerContext,
    SingleColumnSeeker,
    _token_count_matrix,
)


def seeker_partials(seeker: Seeker, context: SeekerContext) -> SeekerPartials:
    """``seeker.partials(context)``, degrading to a non-mergeable wrap of
    ``execute`` for duck-typed seekers that never implemented partials."""
    method = getattr(type(seeker), "partials", None)
    if method is None or method is Seeker.partials:
        return resolved_partials(seeker.execute(context))
    return seeker.partials(context)


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
            results[i] = seeker_partials(seeker, context)
    for kind, indices in value_groups.items():
        if len(indices) == 1:  # nothing to coalesce; solo SQL is cheaper
            results[indices[0]] = seeker_partials(seekers[indices[0]], context)
            continue
        batch = _execute_value_batch(
            [seekers[i] for i in indices], context, per_column=kind == "SC"
        )
        for i, result in zip(indices, batch):
            results[i] = result
    if len(mc_group) == 1:
        results[mc_group[0]] = seeker_partials(seekers[mc_group[0]], context)
    elif mc_group:
        batch = _execute_mc_batch([seekers[i] for i in mc_group], context)
        for i, result in zip(mc_group, batch):
            results[i] = result
    return results  # type: ignore[return-value]


# -- SC / KW: one scan, per-query bincount rankings ---------------------------------


def _vocab_codes(values: np.ndarray, vocabulary: dict[str, int]) -> np.ndarray:
    """Translate the scan's ``CellValue`` column into batch-vocabulary
    codes. Dictionary-coded columns (the column backend's text columns,
    surfaced by ``decode_text=False``) translate per DISTINCT store code
    -- a handful of dict probes plus one integer gather -- instead of one
    Python probe per scanned row; object arrays (the row backend) keep
    the per-row probe."""
    if isinstance(values, DictCodes):
        store_codes = np.asarray(values)
        present = np.unique(store_codes)
        dictionary = values.dictionary
        lut = np.fromiter(
            (vocabulary[dictionary[code]] for code in present),
            dtype=np.int64,
            count=len(present),
        )
        return lut[np.searchsorted(present, store_codes)]
    return np.fromiter(
        (vocabulary[value] for value in values), dtype=np.int64, count=len(values)
    )


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


# -- MC: shared phase 1 per width, per-query phase 2, combined phase 3 --------------

# Queries unioned into one phase-1 join per chunk; past this size the
# union's cross-query candidate blowup outweighs the saved SQL passes.
_MC_FETCH_CHUNK = 8


def _fetch_mc_group(
    group: Sequence[MultiColumnSeeker], context: SeekerContext
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared phase 1 for a same-width group: ONE join over the union of
    the group's per-column token lists. The result is a superset of every
    member's own candidate set (each per-column ``IN`` list is a
    superset), so downstream exact validation yields identical answers;
    deduplicated ``(TableId, RowId)`` like the per-query fetch."""
    proto = group[0]
    if len(group) == 1:
        return proto.fetch_candidate_arrays(context)
    params: dict[str, Any] = {}
    for position in range(proto.width):
        union: dict[str, None] = {}
        for seeker in group:
            for token in seeker.column_tokens(position):
                union.setdefault(token)
        params[f"q{position}"] = list(union)
    sql = proto.sql().format(index=context.index_table)
    result = context.db.execute_columnar(sql, params)
    table_ids = result.arrays[0][0]
    row_ids = result.arrays[1][0]
    super_keys = result.arrays[2][0]
    if len(table_ids) == 0:
        return table_ids, row_ids, super_keys
    order = np.lexsort((row_ids, table_ids))
    table_ids, row_ids, super_keys = (
        table_ids[order],
        row_ids[order],
        super_keys[order],
    )
    first = np.ones(len(table_ids), dtype=bool)
    first[1:] = (table_ids[1:] != table_ids[:-1]) | (row_ids[1:] != row_ids[:-1])
    return table_ids[first], row_ids[first], super_keys[first]


def _execute_mc_batch(
    seekers: Sequence[MultiColumnSeeker], context: SeekerContext
) -> list[SeekerPartials]:
    """Batched MC pipeline: one candidate join per tuple width (phase 1),
    one stacked super-key containment pass per width group (phase 2), and
    one combined count-matrix validation for the whole batch (phase 3)."""
    width_groups: dict[int, list[int]] = {}
    for q, seeker in enumerate(seekers):
        width_groups.setdefault(seeker.width, []).append(q)

    # Phase 1 per width group: one shared union join. Phase 2 per query
    # over the shared candidates: the per-query super-key mask prunes
    # both XASH misses AND the union's cross-query false candidates, so
    # each query's phase-3 slice stays solo-sized.
    # The union's candidate superset grows superlinearly with the number
    # of unioned queries, so very large groups share the join in chunks.
    chunks: list[list[int]] = []
    for members in width_groups.values():
        for start in range(0, len(members), _MC_FETCH_CHUNK):
            chunks.append(members[start : start + _MC_FETCH_CHUNK])

    survivor_tables: list[np.ndarray] = []
    survivor_rows: list[np.ndarray] = []
    survivors_of: dict[int, slice] = {}  # seeker index -> concatenation slice
    offset = 0
    for chunk in chunks:
        group = [seekers[q] for q in chunk]
        tables, rows, keys = _fetch_mc_group(group, context)
        for q, seeker in zip(chunk, group):
            if len(tables):
                mask = may_contain_batch(keys, seeker._tuple_hash_array(context))
                mine_tables, mine_rows = tables[mask], rows[mask]
            else:
                mine_tables, mine_rows = tables, rows
            survivor_tables.append(mine_tables)
            survivor_rows.append(mine_rows)
            survivors_of[q] = slice(offset, offset + len(mine_tables))
            offset += len(mine_tables)

    all_tables = np.concatenate(survivor_tables)
    all_rows = np.concatenate(survivor_rows)

    if len(all_tables) == 0:
        return [count_partials([], []) for _ in seekers]

    # Combined query vocabulary: per-seeker local code -> global code
    # gather arrays. Iterating a vocabulary dict yields tokens in local
    # code order, so position i of the map IS local code i.
    global_vocab: dict[str, int] = {}
    code_maps: list[np.ndarray] = []
    requirements = [seeker._query_requirements() for seeker in seekers]
    for req in requirements:
        code_maps.append(
            np.fromiter(
                (
                    global_vocab.setdefault(token, len(global_vocab))
                    for token in req.vocabulary
                ),
                dtype=np.int64,
                count=len(req.vocabulary),
            )
        )

    # Phase 3: gather each distinct (table, row) ONCE across the batch.
    order = np.lexsort((all_rows, all_tables))
    sorted_tables = all_tables[order]
    sorted_rows = all_rows[order]
    pair_first = np.ones(len(sorted_tables), dtype=bool)
    pair_first[1:] = (sorted_tables[1:] != sorted_tables[:-1]) | (
        sorted_rows[1:] != sorted_rows[:-1]
    )
    pair_tables = sorted_tables[pair_first]
    pair_rows = sorted_rows[pair_first]
    # survivor position -> distinct pair index
    pair_of_survivor = np.empty(len(all_tables), dtype=np.int64)
    pair_of_survivor[order] = np.cumsum(pair_first) - 1

    boundaries = np.nonzero(pair_tables[1:] != pair_tables[:-1])[0] + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(pair_tables)]))
    gathered: list[tuple] = []
    # Distinct pair -> row index into the count matrix; -1 = dropped by
    # the lake's bounds check (stale index rows), matching the serial
    # path's silent skip.
    matrix_row = np.full(len(pair_tables), -1, dtype=np.int64)
    for start, end in zip(starts, ends):
        table_id = int(pair_tables[start])
        requested = pair_rows[start:end]
        kept, rows = context.lake.gather_rows(table_id, requested)
        if not rows:
            continue
        positions = start + np.searchsorted(requested, np.asarray(kept))
        matrix_row[positions] = np.arange(len(gathered), len(gathered) + len(rows))
        gathered.extend(rows)

    if not gathered:
        return [count_partials([], []) for _ in seekers]
    # Fresh memo: codes here live in the batch's global vocabulary, which
    # is incompatible with each seeker's private ``_cell_memo``.
    batch_memo: dict[Any, int] = {}
    counts = _token_count_matrix(gathered, global_vocab, batch_memo)

    results: list[SeekerPartials] = []
    for q, (seeker, req, code_map) in enumerate(
        zip(seekers, requirements, code_maps)
    ):
        mine = survivors_of[q]
        rows_idx = matrix_row[pair_of_survivor[mine]]
        present = rows_idx >= 0
        rows_idx = rows_idx[present]
        if len(rows_idx) == 0:
            results.append(count_partials([], []))
            continue
        local_counts = counts[rows_idx][:, code_map]
        valid = np.zeros(len(rows_idx), dtype=bool)
        if req.incidence is not None:
            hits = (local_counts > 0).astype(np.int32) @ req.incidence
            valid |= (hits == req.widths).any(axis=1)
        for codes, required in req.multisets:
            valid |= (local_counts[:, codes] >= required).all(axis=1)
        validated_tables = all_tables[mine][present][valid]
        if len(validated_tables) == 0:
            results.append(count_partials([], []))
            continue
        unique_tables, tallies = np.unique(validated_tables, return_counts=True)
        results.append(count_partials(unique_tables, tallies))
    return results
