"""Vectorised executor over the column store.

Interprets the same physical plans as :mod:`.executor_row`, but operates on
whole columns at a time with NumPy kernels: dictionary-code membership
scans, factorise-and-bincount aggregation, and vectorised equi-joins over
dense key codes; a join's indexed right scan reads only its left keys' rows
(sideways reduction: C's ``nums`` reads only the tables ``keys`` matched).
GROUP BY keys, aggregate DISTINCT pairs and join keys are
ranked by one helper, ``_unique``: integer keys whose value span is within
a constant multiple of their count (table, column and row ids, dictionary
codes, mixed-radix combined keys) are ranked through a bitmap over the
span with no sort; wider spans and non-integer keys sort. Results leave as
Python tuples built column by column. This executor plays the commercial
column store's role in the paper's experiments and is what gives BLEND
(Column) its order-of-magnitude advantage on scan-heavy seeker queries
(Figs. 5 and 7).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

import numpy as np

from ...errors import ExecutionError
from ..storage.catalog import Catalog
from ..storage.column_store import (
    ColumnTable,
    DictCodes,
    decode_if_coded,
    isin_sorted,
    normalize_numeric_probes,
    numeric_probe_array,
)
from ..types import SqlType
from ..types import sort_key
from .executor_row import QueryStats, _DescendingKey
from .planner import (
    DistinctNode,
    FilterNode,
    GroupNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    SargablePredicate,
    ScanNode,
    SliceColumnsNode,
    SortNode,
    SubqueryNode,
)
from .vector_expressions import VectorResult, compile_vector_expression
from . import ast


class Batch:
    """A materialised columnar intermediate: (data, null) pairs.

    Columns pruned away by projection pushdown are ``None`` placeholders;
    touching one is a planner bug and fails loudly rather than silently
    producing wrong data.
    """

    __slots__ = ("columns", "length")

    def __init__(self, columns: list[Optional[VectorResult]], length: int) -> None:
        self.columns = columns
        self.length = length

    def column(self, position: int) -> VectorResult:
        column = self.columns[position]
        if column is None:
            raise ExecutionError(
                f"column {position} was pruned by projection pushdown but is "
                "being read -- planner bug"
            )
        return column

    def gather(self, positions: np.ndarray) -> "Batch":
        return Batch(
            [
                None if column is None else (column[0][positions], column[1][positions])
                for column in self.columns
            ],
            int(len(positions)),
        )

    def to_rows(self) -> list[tuple]:
        """Materialise Python tuples (result sets, sort fallbacks), one
        ``tolist()`` per column."""
        if not self.columns:
            return [()] * self.length
        converted = []
        for column in self.columns:
            if column is None:
                raise ExecutionError(
                    "materialising a batch with pruned columns -- planner bug"
                )
            data, null = column
            values = decode_if_coded(data).tolist()
            if null.any():
                values = [
                    None if missing else value for value, missing in zip(values, null.tolist())
                ]
            converted.append(values)
        return list(zip(*converted))


class _TableSource:
    """ColumnSource over a stored table (optionally a row subset); used for
    evaluating scan residual predicates without materialising a batch."""

    __slots__ = ("_table", "_positions", "_names", "length", "_cache")

    def __init__(self, table: ColumnTable, positions: Optional[np.ndarray], names: list[str]) -> None:
        self._table = table
        self._positions = positions
        self._names = names
        self.length = table.num_rows if positions is None else int(len(positions))
        self._cache: dict[int, VectorResult] = {}

    def column(self, position: int) -> VectorResult:
        cached = self._cache.get(position)
        if cached is None:
            cached = self._table.column_values(self._names[position], self._positions)
            self._cache[position] = cached
        return cached


class ColumnExecutor:
    """Executes a plan tree against :class:`ColumnTable` storage."""

    def __init__(
        self,
        catalog: Catalog,
        params: Optional[Mapping[str, Any]] = None,
        stats: Optional[QueryStats] = None,
    ) -> None:
        self._catalog = catalog
        self._params = params
        self.stats = stats if stats is not None else QueryStats()
        self._reductions: dict[int, list] = {}  # scan id -> ``_reduce``'s predicate

    # -- dispatch --------------------------------------------------------------

    def execute(self, node: PlanNode) -> Batch:
        if isinstance(node, ScanNode):
            return self._execute_scan(node)
        if isinstance(node, SubqueryNode):
            return self.execute(node.child)
        if isinstance(node, JoinNode):
            return self._execute_join(node)
        if isinstance(node, FilterNode):
            return self._execute_filter(node)
        if isinstance(node, GroupNode):
            return self._execute_group(node)
        if isinstance(node, ProjectNode):
            return self._execute_project(node)
        if isinstance(node, SortNode):
            return self._execute_sort(node)
        if isinstance(node, LimitNode):
            batch = self.execute(node.child)
            if batch.length <= node.count:
                return batch
            return batch.gather(np.arange(node.count))
        if isinstance(node, DistinctNode):
            return self._execute_distinct(node)
        if isinstance(node, SliceColumnsNode):
            batch = self.execute(node.child)
            return Batch(batch.columns[: node.count], batch.length)
        raise ExecutionError(f"column executor cannot handle {type(node).__name__}")

    # -- scan ---------------------------------------------------------------------

    def _execute_scan(self, node: ScanNode) -> Batch:
        if node.table == "__dual__":
            return Batch([], 1)
        table = self._catalog.get(node.table)
        if not isinstance(table, ColumnTable):
            raise ExecutionError(
                f"table {node.table!r} is not column-store backed; "
                "use the matching executor for the database backend"
            )
        names = [name for _, name in node.schema.columns]

        positions: Optional[np.ndarray] = None
        hits: Optional[DictCodes] = None  # the driving text column, coded
        remaining_sargable = self._reductions.pop(id(node), []) + node.sargable
        indexed = next((p for p in remaining_sargable if table.has_index(p.column)), None)
        if indexed is not None:
            positions, codes, matched = table.index_lookup(indexed.column, indexed.values)
            driver = node.schema.resolve(indexed.column)
            text = table.schema.columns[driver].sql_type is SqlType.TEXT
            if text and driver in (node.coded or ()):
                # A coded text driver: every hit's value is its matched
                # value, so codes into the sorted matched values are exact
                # dictionary codes (no gather, no union remap).
                hits = DictCodes(codes, matched)
            remaining_sargable.remove(indexed)
            self.stats.index_scans += 1
            self.stats.rows_scanned += int(len(positions))
        elif remaining_sargable:
            mask = table.isin_mask(remaining_sargable[0].column, remaining_sargable[0].values)
            for predicate in remaining_sargable[1:]:
                mask &= table.isin_mask(predicate.column, predicate.values)
            remaining_sargable = []
            positions = np.nonzero(mask)[0]
            self.stats.seq_scans += 1
            self.stats.rows_scanned += table.num_rows
        else:
            self.stats.seq_scans += 1
            self.stats.rows_scanned += table.num_rows

        if remaining_sargable or node.residual:
            source = _TableSource(table, positions, names)
            keep = np.ones(source.length, dtype=bool)
            for predicate in remaining_sargable:
                position = node.schema.resolve(predicate.column)
                data, null = source.column(position)
                keep &= _membership_mask(data, null, predicate.values)
            for predicate in node.residual:
                evaluator = compile_vector_expression(predicate, node.schema, self._params)
                data, null = evaluator(source)
                keep &= _as_bool_array(data) & ~null
            subset = np.nonzero(keep)[0]
            positions = subset if positions is None else positions[subset]
            if hits is not None:
                hits = hits[subset]

        required = node.required
        coded = node.coded or ()
        schema_types = [column.sql_type for column in table.schema.columns]
        columns: list = []
        for position, name in enumerate(names):
            if required is not None and position not in required:
                columns.append(None)
                continue
            if hits is not None and position == driver:
                columns.append((hits, np.zeros(len(hits), dtype=bool)))
                continue
            if position in coded and schema_types[position] is SqlType.TEXT:
                # Every consumer is code-safe: deliver dictionary codes
                # instead of gathered strings (decoded lazily at result
                # materialisation, if ever).
                codes, dictionary = table.text_codes(name, positions)
                columns.append(
                    (DictCodes(codes, dictionary), np.asarray(codes) < 0)
                )
                continue
            columns.append(table.column_values(name, positions))
        length = table.num_rows if positions is None else int(len(positions))
        return Batch(columns, length)

    # -- join ----------------------------------------------------------------------

    def _execute_join(self, node: JoinNode) -> Batch:
        left = self.execute(node.left)
        self._reduce(node, left)
        right = self.execute(node.right)

        if not node.left_key_positions:
            return self._cross_join(node, left, right)

        left_codes, right_codes, left_valid, right_valid = _join_key_codes(
            left, right, node.left_key_positions, node.right_key_positions
        )

        build_positions_all = np.nonzero(right_valid)[0]
        probe_positions_all = np.nonzero(left_valid)[0]
        build_keys = right_codes[build_positions_all]
        probe_keys = left_codes[probe_positions_all]

        probe_idx, build_idx = _match_keys(probe_keys, build_keys)
        left_idx = probe_positions_all[probe_idx]
        right_idx = build_positions_all[build_idx]

        combined = Batch(
            _gather_columns(left.columns, left_idx)
            + _gather_columns(right.columns, right_idx),
            int(len(left_idx)),
        )
        if node.residual:
            keep = np.ones(combined.length, dtype=bool)
            for predicate in node.residual:
                evaluator = compile_vector_expression(predicate, node.schema, self._params)
                data, null = evaluator(combined)
                keep &= _as_bool_array(data) & ~null
            subset = np.nonzero(keep)[0]
            combined = combined.gather(subset)
            left_idx = left_idx[subset]

        if node.join_type == "left":
            matched = np.zeros(left.length, dtype=bool)
            matched[left_idx] = True
            unmatched = np.nonzero(~matched)[0]
            if unmatched.size:
                pad_left = _gather_columns(left.columns, unmatched)
                pad_right = [
                    None
                    if column is None
                    else (
                        np.zeros(len(unmatched), dtype=column[0].dtype)
                        if column[0].dtype != object
                        else np.empty(len(unmatched), dtype=object),
                        np.ones(len(unmatched), dtype=bool),
                    )
                    for column in right.columns
                ]
                pad = Batch(pad_left + pad_right, int(len(unmatched)))
                combined = _concat_batches(combined, pad)
        self.stats.rows_joined += combined.length
        return combined

    def _reduce(self, node: JoinNode, left: Batch) -> None:
        """Give the right scan ``key IN (left keys)`` on its first indexed key."""
        for position, column in node.reduce_keys:
            if self._catalog.get(node.reduce_scan.table).has_index(column):
                data, null = left.column(position)
                values = decode_if_coded(data)[~null]
                if values.dtype != object:
                    values = _unique(values)[0]
                if values.dtype.kind != "f" or not np.isnan(values).any():  # NaN: no index
                    predicate = SargablePredicate(column, values.tolist())
                    self._reductions[id(node.reduce_scan)] = [predicate]
                return

    def _cross_join(self, node: JoinNode, left: Batch, right: Batch) -> Batch:
        left_idx = np.repeat(np.arange(left.length), right.length)
        right_idx = np.tile(np.arange(right.length), left.length)
        combined = Batch(
            _gather_columns(left.columns, left_idx)
            + _gather_columns(right.columns, right_idx),
            int(len(left_idx)),
        )
        if node.residual:
            keep = np.ones(combined.length, dtype=bool)
            for predicate in node.residual:
                evaluator = compile_vector_expression(predicate, node.schema, self._params)
                data, null = evaluator(combined)
                keep &= _as_bool_array(data) & ~null
            combined = combined.gather(np.nonzero(keep)[0])
        return combined

    # -- filter / project -------------------------------------------------------------

    def _execute_filter(self, node: FilterNode) -> Batch:
        batch = self.execute(node.child)
        evaluator = compile_vector_expression(node.predicate, node.child.schema, self._params)
        data, null = evaluator(batch)
        keep = _as_bool_array(data) & ~null
        return batch.gather(np.nonzero(keep)[0])

    def _execute_project(self, node: ProjectNode) -> Batch:
        batch = self.execute(node.child)
        columns = [
            compile_vector_expression(expression, node.child.schema, self._params)(batch)
            for expression in node.expressions
        ]
        return Batch(columns, batch.length)

    # -- group by -----------------------------------------------------------------------

    def _execute_group(self, node: GroupNode) -> Batch:
        batch = self.execute(node.child)
        key_vectors = [
            compile_vector_expression(key, node.child.schema, self._params)(batch)
            for key in node.keys
        ]
        argument_vectors = [
            compile_vector_expression(agg.argument, node.child.schema, self._params)(batch)
            if agg.argument is not None
            else None
            for agg in node.aggregates
        ]

        if node.keys:
            group_ids, n_groups, representatives = _group_ids(key_vectors)
        else:
            group_ids = np.zeros(batch.length, dtype=np.int64)
            n_groups = 1 if batch.length else 0
            representatives = np.zeros(min(batch.length, 1), dtype=np.int64)
            if n_groups == 0:
                # Global aggregate over empty input: one synthetic group.
                n_groups = 1
                group_ids = np.zeros(0, dtype=np.int64)
                representatives = np.zeros(0, dtype=np.int64)

        self.stats.groups_built += n_groups

        columns: list[VectorResult] = []
        for data, null in key_vectors:
            columns.append((data[representatives], null[representatives]))
        if node.keys and len(representatives) != n_groups:  # pragma: no cover - safety
            raise ExecutionError("group representative mismatch")

        for aggregate, argument in zip(node.aggregates, argument_vectors):
            columns.append(
                _vector_aggregate(aggregate, argument, group_ids, n_groups)
            )
        return Batch(columns, n_groups)

    # -- sort / distinct ------------------------------------------------------------------

    def _execute_sort(self, node: SortNode) -> Batch:
        batch = self.execute(node.child)
        if batch.length <= 1:
            return batch
        key_columns = [batch.column(position) for position in node.key_positions]

        if any(data.dtype == object for data, _ in key_columns):
            return self._sort_fallback(batch, node)

        if (
            node.limit_hint is not None
            and node.limit_hint < batch.length
            and len(key_columns) == 1
        ):
            data, null = key_columns[0]
            keys = _sortable(data, null, node.descending[0])
            k = node.limit_hint
            partition = np.argpartition(keys, k - 1)[:k]
            order = partition[np.argsort(keys[partition], kind="stable")]
            # argpartition breaks ties arbitrarily; refine by a stable sort
            # of the shortlisted rows only (identical to full sort when the
            # k-th key value is unique; ties at the boundary are arbitrary
            # exactly as LIMIT is in SQL).
            return batch.gather(order)

        lexsort_keys = []
        for (data, null), desc in zip(reversed(key_columns), reversed(node.descending)):
            lexsort_keys.append(_sortable(data, null, desc))
        order = np.lexsort(lexsort_keys)
        if node.limit_hint is not None and node.limit_hint < len(order):
            order = order[: node.limit_hint]
        return batch.gather(order)

    def _sort_fallback(self, batch: Batch, node: SortNode) -> Batch:
        rows = batch.to_rows()
        indices = list(range(len(rows)))
        for position, desc in reversed(list(zip(node.key_positions, node.descending))):
            if desc:
                indices.sort(key=lambda i, p=position: _DescendingKey(rows[i][p]))
            else:
                indices.sort(key=lambda i, p=position: sort_key(rows[i][p]))
        if node.limit_hint is not None:
            indices = indices[: node.limit_hint]
        return batch.gather(np.array(indices, dtype=np.int64))

    def _execute_distinct(self, node: DistinctNode) -> Batch:
        batch = self.execute(node.child)
        rows = batch.to_rows()
        seen: set = set()
        keep: list[int] = []
        for i, row in enumerate(rows):
            if row not in seen:
                seen.add(row)
                keep.append(i)
        if len(keep) == batch.length:
            return batch
        return batch.gather(np.array(keep, dtype=np.int64))


# --------------------------------------------------------------------------
# Vectorised grouping / aggregation kernels
# --------------------------------------------------------------------------


# Integer keys whose value span is at most this many times their count are
# ranked through a bitmap over the span; wider spans (and non-integer keys)
# sort. Measured crossover on random int32/int64 keys, n = 1e3..1e5, on a
# 2-vCPU Xeon with NumPy 2.4: the bitmap is 1.4-1.8x faster than np.unique
# at span/n = 8 and 0.7-0.9x at span/n = 10.
_DENSE_SPAN_PER_ROW = 8


def _unique(values: np.ndarray, return_index: bool = False) -> tuple:
    """``np.unique(values, return_index=return_index, return_inverse=True)``.

    Integer input whose span (max - min + 1, computed in Python ints so
    int64 extremes cannot overflow) is at most ``_DENSE_SPAN_PER_ROW``
    times its length is ranked without a sort: mark a bitmap over the
    span, number its set slots in order, gather each value's number. The
    ranks, uniques and first indices are exactly ``np.unique``'s. Anything
    else takes the sort.
    """
    values = np.asarray(values)
    if values.dtype.kind == "i" and len(values):
        low = int(values.min())
        span = int(values.max()) - low + 1
        if span <= _DENSE_SPAN_PER_ROW * len(values):
            offset = np.subtract(values, low, dtype=np.intp)
            present = np.zeros(span, dtype=bool)
            present[offset] = True
            slots = np.flatnonzero(present)
            rank = np.empty(span, dtype=np.intp)
            rank[slots] = np.arange(len(slots))
            inverse = rank[offset]
            uniques = (slots + low).astype(values.dtype)
            if not return_index:
                return uniques, inverse
            return uniques, _first_rows(inverse, len(slots)), inverse
    return np.unique(values, return_index=return_index, return_inverse=True)


def _first_rows(codes: np.ndarray, n: int) -> np.ndarray:
    """Position of the first occurrence of each dense code ``0 .. n-1``."""
    first = np.full(n, len(codes), dtype=np.intp)
    np.minimum.at(first, codes, np.arange(len(codes)))
    return first


def _factorize(data: np.ndarray, null: np.ndarray) -> tuple[np.ndarray, int]:
    """Map values to dense codes; all NULLs share one code (SQL GROUP BY).

    Typed values get their rank in value order (``_unique``: no sort for
    integers whose span is within ``_DENSE_SPAN_PER_ROW`` times their
    count); object values get first-appearance order.
    """
    if data.dtype != object and not null.any():
        uniques, codes = _unique(data)
        return codes, len(uniques)
    codes = np.empty(len(data), dtype=np.int64)
    if data.dtype == object:
        lookup: dict[Any, int] = {}
        next_code = 0
        for i, value in enumerate(data):
            if null[i]:
                codes[i] = -1
                continue
            code = lookup.get(value)
            if code is None:
                code = next_code
                lookup[value] = code
                next_code += 1
            codes[i] = code
        n = next_code
    else:
        not_null = ~null
        uniques, codes[not_null] = _unique(data[not_null])
        n = len(uniques)
    if null.any():
        codes[null] = n
        n += 1
    return codes, n


def _group_ids(key_vectors: list[VectorResult]) -> tuple[np.ndarray, int, np.ndarray]:
    """Combine key columns into dense group ids.

    Returns ``(group_ids, n_groups, representatives)`` where
    *representatives* holds the first input row of each group (used to
    output key values). Groups are emitted in sorted-code order, which is
    deterministic; callers needing a specific order sort afterwards. Each
    mixed-radix step is re-ranked at once to keep the combined codes
    dense; a step sorts only when its span (groups so far x codes of the
    next key) exceeds ``_DENSE_SPAN_PER_ROW`` times the row count.
    """
    group_ids, n_groups = _factorize(*key_vectors[0])
    for data, null in key_vectors[1:]:
        codes, n_codes = _factorize(data, null)
        uniques, group_ids = _unique(group_ids * n_codes + codes)
        n_groups = len(uniques)
    return group_ids, n_groups, _first_rows(group_ids, n_groups)


def _vector_aggregate(
    aggregate: ast.Aggregate,
    argument: Optional[VectorResult],
    group_ids: np.ndarray,
    n_groups: int,
) -> VectorResult:
    func = aggregate.func
    no_null = np.zeros(n_groups, dtype=bool)

    if func == "COUNT" and argument is None:
        counts = np.bincount(group_ids, minlength=n_groups).astype(np.int64)
        return counts, no_null

    if argument is None:  # pragma: no cover - parser guarantees argument
        raise ExecutionError(f"aggregate {func} requires an argument")
    data, null = argument
    valid = ~null

    if func == "COUNT":
        if aggregate.distinct:
            return _count_distinct(data, null, group_ids, n_groups), no_null
        counts = np.bincount(group_ids[valid], minlength=n_groups).astype(np.int64)
        return counts, no_null

    if func in ("SUM", "AVG"):
        if aggregate.distinct:
            data, null, group_ids = _distinct_pairs(data, null, group_ids)
            valid = ~null
        counts = np.bincount(group_ids[valid], minlength=n_groups)
        null_out = counts == 0
        if func == "SUM" and data.dtype.kind in "biu":
            return _integer_sums(data[valid], group_ids[valid], n_groups), null_out
        numeric = data.astype(np.float64) if data.dtype != object else _object_to_float(data, null)
        weights = np.where(valid, numeric, 0.0)
        sums = np.bincount(group_ids, weights=weights, minlength=n_groups)
        if func == "AVG":
            safe = np.where(null_out, 1, counts)
            return sums / safe, null_out
        return sums, null_out

    if func in ("MIN", "MAX"):
        return _min_max(data, null, group_ids, n_groups, is_min=(func == "MIN"))

    raise ExecutionError(f"unsupported aggregate: {func}")


def _count_distinct(
    data: np.ndarray, null: np.ndarray, group_ids: np.ndarray, n_groups: int
) -> np.ndarray:
    codes, n_codes = _factorize(data, null)
    valid = ~null
    if not valid.any():
        return np.zeros(n_groups, dtype=np.int64)
    pairs = group_ids[valid] * np.int64(max(n_codes, 1)) + codes[valid]
    unique_pairs, _ = _unique(pairs)
    groups_of_pairs = unique_pairs // max(n_codes, 1)
    return np.bincount(groups_of_pairs.astype(np.int64), minlength=n_groups).astype(np.int64)


def _distinct_pairs(
    data: np.ndarray, null: np.ndarray, group_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deduplicate (group, value) pairs for SUM(DISTINCT ...)."""
    codes, n_codes = _factorize(data, null)
    pairs = group_ids * np.int64(max(n_codes, 1) + 1) + np.where(null, n_codes, codes)
    _, first, _ = _unique(pairs, return_index=True)
    return data[first], null[first], group_ids[first]


def _integer_sums(values: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    """Exact per-group sums of integer *values* as int64.

    Float64 adds integers exactly while every partial sum stays below
    2**53, which ``max |value| * count`` bounds; past that the sums run in
    Python ints. A sum outside int64 is an error, as in the row executor.
    """
    values = values.astype(np.int64)
    if not len(values) or max(-int(values.min()), int(values.max())) * len(values) < 2**53:
        return np.bincount(group_ids, weights=values, minlength=n_groups).astype(np.int64)
    totals = [0] * n_groups
    for group, value in zip(group_ids.tolist(), values.tolist()):
        totals[group] += value
    if not all(-(2**63) <= total < 2**63 for total in totals):
        raise ExecutionError("integer out of range")
    return np.array(totals, dtype=np.int64)


def _min_max(
    data: np.ndarray,
    null: np.ndarray,
    group_ids: np.ndarray,
    n_groups: int,
    is_min: bool,
) -> VectorResult:
    valid = ~null
    counts = np.bincount(group_ids[valid], minlength=n_groups)
    null_out = counts == 0
    if data.dtype == object:
        best: list[Any] = [None] * n_groups
        for value, group, ok in zip(data, group_ids, valid):
            if not ok:
                continue
            current = best[group]
            if current is None or (value < current if is_min else value > current):
                best[group] = value
        out = np.empty(n_groups, dtype=object)
        out[:] = best
        return out, null_out
    reduce = np.minimum if is_min else np.maximum
    if data.dtype.kind in "biu":
        # int64 throughout: a float64 round trip rounds values past 2**53.
        bounds = np.iinfo(np.int64)
        out = np.full(n_groups, bounds.max if is_min else bounds.min, dtype=np.int64)
        reduce.at(out, group_ids[valid], data[valid].astype(np.int64))
        out[null_out] = 0
        return (out.astype(bool) if data.dtype == bool else out), null_out
    out = np.full(n_groups, np.inf if is_min else -np.inf, dtype=np.float64)
    reduce.at(out, group_ids[valid], data[valid].astype(np.float64))
    return np.where(null_out, 0.0, out), null_out


def _object_to_float(data: np.ndarray, null: np.ndarray) -> np.ndarray:
    out = np.zeros(len(data), dtype=np.float64)
    for i, value in enumerate(data):
        if not null[i] and value is not None and not isinstance(value, str):
            out[i] = float(value)
    return out


# --------------------------------------------------------------------------
# Join key encoding
# --------------------------------------------------------------------------


def _join_key_codes(
    left: Batch,
    right: Batch,
    left_positions: list[int],
    right_positions: list[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dense, cross-side-consistent codes for multi-column join keys.

    Each key column is factorised over the *concatenation* of both sides
    (so equal values share a code regardless of side), then mixed-radix
    combined -- with a refactorisation of the concatenated combined codes
    after each step to bound their magnitude and avoid int64 overflow.

    Returns ``(left_codes, right_codes, left_valid, right_valid)`` where
    the valid masks exclude rows with a NULL in any key column (SQL inner
    joins never match NULL keys).
    """
    n_left = left.length
    combined: Optional[np.ndarray] = None
    left_valid = np.ones(n_left, dtype=bool)
    right_valid = np.ones(right.length, dtype=bool)
    for left_position, right_position in zip(left_positions, right_positions):
        l_data, l_null = left.column(left_position)
        r_data, r_null = right.column(right_position)
        both = _concat_arrays(l_data, r_data)
        both_null = np.concatenate([l_null, r_null])
        codes, n_codes = _factorize(both, both_null)
        left_valid &= ~l_null
        right_valid &= ~r_null
        if combined is None:
            combined = codes.astype(np.int64)
        else:
            _, combined = _unique(combined * np.int64(max(n_codes, 1)) + codes)
    assert combined is not None
    return combined[:n_left], combined[n_left:], left_valid, right_valid


def _concat_arrays(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    if isinstance(left, DictCodes) or isinstance(right, DictCodes):
        # Codes from different scans index different dictionaries; decode
        # to plain strings before mixing (left-join padding, unions).
        left, right = decode_if_coded(left), decode_if_coded(right)
    if left.dtype == right.dtype:
        return np.concatenate([left, right])
    return np.concatenate([left.astype(object), right.astype(object)])


def _match_keys(probe_keys: np.ndarray, build_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All (probe position, build position) pairs with equal keys."""
    if len(build_keys) == 0 or len(probe_keys) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order = np.argsort(build_keys, kind="stable")
    sorted_keys = build_keys[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1])))
    unique_keys = sorted_keys[starts]
    ends = np.append(starts[1:], len(sorted_keys))

    slot = np.searchsorted(unique_keys, probe_keys)
    slot_clipped = np.minimum(slot, len(unique_keys) - 1)
    hits = unique_keys[slot_clipped] == probe_keys
    probe_hits = np.nonzero(hits)[0]
    hit_slots = slot_clipped[probe_hits]
    run_starts = starts[hit_slots]
    run_ends = ends[hit_slots]
    counts = run_ends - run_starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    within = np.arange(total) - offsets
    build_sorted_positions = np.repeat(run_starts, counts) + within
    probe_positions = np.repeat(probe_hits, counts)
    return probe_positions.astype(np.int64), order[build_sorted_positions].astype(np.int64)


# --------------------------------------------------------------------------
# Misc helpers
# --------------------------------------------------------------------------


def _membership_mask(data: np.ndarray, null: np.ndarray, values: list) -> np.ndarray:
    if data.dtype == object:
        members = frozenset(v for v in values if v is not None)
        mask = np.fromiter((v in members for v in data), count=len(data), dtype=bool)
    else:
        numeric = normalize_numeric_probes(values)
        if not numeric:
            return np.zeros(len(data), dtype=bool)
        wanted = numeric_probe_array(numeric, data.dtype)
        if wanted is None:
            return np.zeros(len(data), dtype=bool)
        probe = data if wanted.dtype == data.dtype else data.astype(np.float64)
        mask = isin_sorted(probe, wanted)
    return mask & ~null


def _as_bool_array(data: np.ndarray) -> np.ndarray:
    if data.dtype == bool:
        return data
    if data.dtype == object:
        return np.fromiter((bool(v) for v in data), count=len(data), dtype=bool)
    return data != 0


def _sortable(data: np.ndarray, null: np.ndarray, descending: bool) -> np.ndarray:
    """Float sort key with NULLS LAST in both directions."""
    numeric = data.astype(np.float64) if data.dtype != np.float64 else data.copy()
    if descending:
        numeric = -numeric
    numeric[null] = np.inf
    return numeric


def _concat_batches(first: Batch, second: Batch) -> Batch:
    columns: list[Optional[VectorResult]] = []
    for a, b in zip(first.columns, second.columns):
        if a is None or b is None:
            columns.append(None)
            continue
        columns.append(
            (_concat_arrays(a[0], b[0]), np.concatenate([a[1], b[1]]))
        )
    return Batch(columns, first.length + second.length)


def _gather_columns(columns: list, idx: np.ndarray) -> list:
    """Gather each (data, null) column at *idx*, passing pruned columns
    (None) through."""
    return [
        None if column is None else (column[0][idx], column[1][idx])
        for column in columns
    ]
