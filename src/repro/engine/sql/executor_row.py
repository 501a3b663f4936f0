"""Tuple-at-a-time executor over the row store.

Implements the physical plan of :mod:`.planner` with classic iterator-style
processing: index or sequential scans, hash joins, hash aggregation, and
stable multi-key sorting. This executor plays PostgreSQL's role in the
paper's row-store experiments.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Mapping, Optional

from ...errors import ExecutionError, PlanningError
from ..storage.catalog import Catalog
from ..storage.row_store import RowTable
from ..types import sort_key
from . import ast
from .expressions import compile_expression
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


@dataclass
class QueryStats:
    """Execution counters used by tests and the cost-model features."""

    rows_scanned: int = 0
    index_scans: int = 0
    seq_scans: int = 0
    rows_joined: int = 0
    groups_built: int = 0
    plan_cache_hit: bool = False
    extra: dict = field(default_factory=dict)


class RowExecutor:
    """Executes a plan tree against :class:`RowTable` storage."""

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

    # -- dispatch ---------------------------------------------------------------

    def execute(self, node: PlanNode) -> list[tuple]:
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
            return self.execute(node.child)[: node.count]
        if isinstance(node, DistinctNode):
            return _distinct(self.execute(node.child))
        if isinstance(node, SliceColumnsNode):
            count = node.count
            return [row[:count] for row in self.execute(node.child)]
        raise ExecutionError(f"row executor cannot handle {type(node).__name__}")

    # -- scans ------------------------------------------------------------------

    def _execute_scan(self, node: ScanNode) -> list[tuple]:
        if node.table == "__dual__":
            return [()]
        table = self._catalog.get(node.table)
        if not isinstance(table, RowTable):
            raise ExecutionError(
                f"table {node.table!r} is not row-store backed; "
                "use the matching executor for the database backend"
            )
        sargable = self._reductions.pop(id(node), []) + node.sargable
        indexed = [p for p in sargable if table.has_index(p.column)]
        unindexed = [p for p in sargable if not table.has_index(p.column)]
        residual_evaluators = [
            compile_expression(predicate, node.schema, self._params)
            for predicate in node.residual
        ]

        if indexed:
            # Drive the scan from the first indexed predicate (BLEND's
            # CellValue/TableId indexes); remaining predicates filter.
            driver = indexed[0]
            positions = table.index_lookup(driver.column, driver.values)
            self.stats.index_scans += 1
            candidates = table.fetch(positions)
            extra_member = indexed[1:] + unindexed
        else:
            self.stats.seq_scans += 1
            candidates = table.scan()
            extra_member = unindexed

        membership_checks = [
            (node.schema.resolve(p.column), _membership_set(p.values)) for p in extra_member
        ]

        rows: list[tuple] = []
        scanned = 0
        for row in candidates:
            scanned += 1
            keep = True
            for position, members in membership_checks:
                value = row[position]
                if value is None or value not in members:
                    keep = False
                    break
            if keep:
                for evaluator in residual_evaluators:
                    if evaluator(row) is not True:
                        keep = False
                        break
            if keep:
                rows.append(row)
        self.stats.rows_scanned += scanned
        return rows

    # -- joins ------------------------------------------------------------------

    def _execute_join(self, node: JoinNode) -> list[tuple]:
        left_rows = self.execute(node.left)
        self._reduce(node, left_rows)
        right_rows = self.execute(node.right)
        left_positions = node.left_key_positions
        right_positions = node.right_key_positions

        residual_evaluators = [
            compile_expression(predicate, node.schema, self._params)
            for predicate in node.residual
        ]

        if not left_positions:
            # Cross join (rare; only residual-driven ON clauses).
            output = []
            for left_row in left_rows:
                for right_row in right_rows:
                    combined = left_row + right_row
                    if all(ev(combined) is True for ev in residual_evaluators):
                        output.append(combined)
            self.stats.rows_joined += len(output)
            return output

        build: dict[tuple, list[tuple]] = {}
        for right_row in right_rows:
            key = tuple(right_row[p] for p in right_positions)
            if any(part is None for part in key):
                continue
            build.setdefault(key, []).append(right_row)

        output: list[tuple] = []
        right_width = len(node.right.schema)
        null_right = (None,) * right_width
        for left_row in left_rows:
            key = tuple(left_row[p] for p in left_positions)
            matches = build.get(key) if not any(part is None for part in key) else None
            emitted = len(output)
            for right_row in matches or ():
                combined = left_row + right_row
                if all(ev(combined) is True for ev in residual_evaluators):
                    output.append(combined)
            if node.join_type == "left" and len(output) == emitted:  # no ON match
                output.append(left_row + null_right)
        self.stats.rows_joined += len(output)
        return output

    def _reduce(self, node: JoinNode, left_rows: list[tuple]) -> None:  # as ColumnExecutor's
        for position, column in node.reduce_keys:
            if self._catalog.get(node.reduce_scan.table).has_index(column):
                values = {row[position] for row in left_rows} - {None}
                if all(value == value for value in values):  # no index finds NaN
                    predicate = SargablePredicate(column, list(values))
                    self._reductions[id(node.reduce_scan)] = [predicate]
                return

    # -- filter / project ---------------------------------------------------------

    def _execute_filter(self, node: FilterNode) -> list[tuple]:
        rows = self.execute(node.child)
        evaluator = compile_expression(node.predicate, node.child.schema, self._params)
        return [row for row in rows if evaluator(row) is True]

    def _execute_project(self, node: ProjectNode) -> list[tuple]:
        rows = self.execute(node.child)
        if len(node.expressions) >= 2 and all(
            isinstance(expression, ast.ColumnRef) for expression in node.expressions
        ):
            # Plain column pass-through: one C-level gather per row.
            schema = node.child.schema
            getter = itemgetter(
                *(schema.resolve(column.name, column.table) for column in node.expressions)
            )
            return list(map(getter, rows))
        evaluators = [
            compile_expression(expression, node.child.schema, self._params)
            for expression in node.expressions
        ]
        return [tuple(evaluator(row) for evaluator in evaluators) for row in rows]

    # -- aggregation ---------------------------------------------------------------

    def _execute_group(self, node: GroupNode) -> list[tuple]:
        rows = self.execute(node.child)
        key_evaluators = [
            compile_expression(key, node.child.schema, self._params) for key in node.keys
        ]
        argument_evaluators = [
            compile_expression(agg.argument, node.child.schema, self._params)
            if agg.argument is not None
            else None
            for agg in node.aggregates
        ]

        groups: dict[tuple, list[_Accumulator]] = {}
        for row in rows:
            key = tuple(evaluator(row) for evaluator in key_evaluators)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = [_make_accumulator(agg) for agg in node.aggregates]
                groups[key] = accumulators
            for accumulator, arg_eval in zip(accumulators, argument_evaluators):
                accumulator.add(arg_eval(row) if arg_eval is not None else 1)

        if not groups and not node.keys:
            # Global aggregate over an empty input still yields one row.
            groups[()] = [_make_accumulator(agg) for agg in node.aggregates]

        self.stats.groups_built += len(groups)
        return [
            key + tuple(acc.result() for acc in accumulators)
            for key, accumulators in groups.items()
        ]

    # -- sorting ---------------------------------------------------------------------

    def _execute_sort(self, node: SortNode) -> list[tuple]:
        rows = self.execute(node.child)
        positions = node.key_positions
        descending = node.descending

        if node.limit_hint is not None and len(positions) == 1 and node.limit_hint < len(rows):
            position = positions[0]
            if descending[0]:
                return heapq.nsmallest(
                    node.limit_hint, rows, key=lambda row: _descending_key(row[position])
                )
            return heapq.nsmallest(node.limit_hint, rows, key=lambda row: sort_key(row[position]))

        # Repeated stable sorts, least-significant key first.
        for position, desc in reversed(list(zip(positions, descending))):
            if desc:
                rows = sorted(rows, key=lambda row, p=position: _descending_key(row[p]))
            else:
                rows = sorted(rows, key=lambda row, p=position: sort_key(row[p]))
        return rows


# --------------------------------------------------------------------------
# Aggregate accumulators
# --------------------------------------------------------------------------


class _Accumulator:
    def add(self, value: Any) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def result(self) -> Any:  # pragma: no cover - interface
        raise NotImplementedError


class _CountStar(_Accumulator):
    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        self.count += 1

    def result(self) -> Any:
        return self.count


class _Count(_Accumulator):
    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self.count += 1

    def result(self) -> Any:
        return self.count


class _CountDistinct(_Accumulator):
    __slots__ = ("seen",)

    def __init__(self) -> None:
        self.seen: set = set()

    def add(self, value: Any) -> None:
        if value is not None:
            self.seen.add(value)

    def result(self) -> Any:
        return len(self.seen)


class _Sum(_Accumulator):
    __slots__ = ("total", "count")

    def __init__(self) -> None:
        self.total = 0
        self.count = 0

    def add(self, value: Any) -> None:
        if value is not None:
            if isinstance(value, bool):
                value = int(value)
            self.total += value
            self.count += 1

    def result(self) -> Any:
        if isinstance(self.total, int) and not -(2**63) <= self.total < 2**63:
            # Integer sums are BIGINT, as on the column executor.
            raise ExecutionError("integer out of range")
        return self.total if self.count else None


class _SumDistinct(_Sum):
    __slots__ = ("seen",)

    def __init__(self) -> None:
        super().__init__()
        self.seen: set = set()

    def add(self, value: Any) -> None:
        if value is not None and value not in self.seen:
            self.seen.add(value)
            super().add(value)


class _Avg(_Sum):
    def result(self) -> Any:
        return self.total / self.count if self.count else None


class _Min(_Accumulator):
    __slots__ = ("best",)

    def __init__(self) -> None:
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is not None and (self.best is None or value < self.best):
            self.best = value

    def result(self) -> Any:
        return self.best


class _Max(_Accumulator):
    __slots__ = ("best",)

    def __init__(self) -> None:
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is not None and (self.best is None or value > self.best):
            self.best = value

    def result(self) -> Any:
        return self.best


def _make_accumulator(aggregate: ast.Aggregate) -> _Accumulator:
    func = aggregate.func
    if func == "COUNT":
        if aggregate.argument is None:
            return _CountStar()
        if aggregate.distinct:
            return _CountDistinct()
        return _Count()
    if func == "SUM":
        return _SumDistinct() if aggregate.distinct else _Sum()
    if func == "AVG":
        return _Avg()
    if func == "MIN":
        return _Min()
    if func == "MAX":
        return _Max()
    raise PlanningError(f"unsupported aggregate: {func}")


# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


def _membership_set(values: list) -> frozenset:
    try:  # NaN equals nothing; a set would find a stored NaN by identity
        return frozenset(v for v in values if v == v)
    except TypeError as exc:  # unhashable -- cannot happen with SQL scalars
        raise ExecutionError(f"unhashable IN-list value: {exc}") from exc


def _distinct(rows: list[tuple]) -> list[tuple]:
    seen: set = set()
    output: list[tuple] = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            output.append(row)
    return output


class _DescendingKey:
    """Wrap a sort key so ascending comparison yields descending order,
    keeping NULLs last in both directions (PostgreSQL default)."""

    __slots__ = ("is_null", "key")

    def __init__(self, value: Any) -> None:
        self.is_null = value is None
        self.key = sort_key(value)

    def __lt__(self, other: "_DescendingKey") -> bool:
        if self.is_null != other.is_null:
            return other.is_null  # non-null sorts first in DESC too
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _DescendingKey) and self.key == other.key


def _descending_key(value: Any) -> _DescendingKey:
    return _DescendingKey(value)
