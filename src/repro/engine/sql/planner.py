"""Logical planner: AST -> physical plan tree.

The plan tree is interpreted by two executors (row iterator and columnar
vectorised); the planner handles everything executor-independent:

* FROM-tree construction (scans, derived tables, join key extraction),
* predicate classification -- sargable ``col IN (...)`` / ``col = const``
  conjuncts are pushed into scans where BLEND's in-database indexes on
  ``CellValue``/``TableId`` can serve them (paper §V),
* aggregate discovery and the post-aggregation namespace,
* ORDER BY / LIMIT / DISTINCT shaping, including alias resolution.

Parameters are bound at plan time (this is also how the BLEND optimizer's
rewritten ``TableId IN :ir`` predicates become sargable) -- but every
plan-time binding site records its symbolic *source* (literal value or
parameter name), so a finished plan can be **rebound** to new parameter
values with :func:`rebind_plan` without re-planning. That is what backs
the ``Database`` plan cache: plan *structure* depends only on the SQL
text and each parameter's shape (scalar / sequence / int / null), so the
four seeker templates plan once and rebind per execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from ...errors import PlanningError
from . import ast
from .expressions import bind_parameter
from .schema import Schema


# --------------------------------------------------------------------------
# Physical plan nodes
# --------------------------------------------------------------------------


@dataclass
class SargablePredicate:
    """``column IN values`` pushed into a scan (single value for ``=``).

    ``sources`` keeps the symbolic recipe behind ``values`` -- a tuple of
    ``("lit", value)`` / ``("param", name)`` entries -- so a cached plan
    can recompute ``values`` against fresh parameters (:meth:`rebind`).
    """

    column: str
    values: list[Any]
    sources: Optional[tuple] = None

    def has_params(self) -> bool:
        return self.sources is not None and any(
            kind == "param" for kind, _ in self.sources
        )

    def rebind(self, params: Optional[Mapping[str, Any]]) -> None:
        self.values = _expand_sources(self.sources, params)


def _expand_sources(
    sources: tuple, params: Optional[Mapping[str, Any]]
) -> list[Any]:
    """Evaluate a sargable-value recipe against concrete parameters,
    mirroring the plan-time expansion (NULLs dropped, sequences spliced)."""
    values: list[Any] = []
    for kind, payload in sources:
        if kind == "lit":
            if payload is not None:
                values.append(payload)
            continue
        bound = bind_parameter(params, payload)
        if isinstance(bound, (list, tuple, set, frozenset)):
            values.extend(v for v in bound if v is not None)
        elif bound is not None:
            values.append(bound)
    return values


@dataclass
class PlanNode:
    """Base physical node; ``schema`` describes the output columns."""

    schema: Schema = field(init=False)


@dataclass
class ScanNode(PlanNode):
    table: str
    binding: str
    sargable: list[SargablePredicate]
    residual: list[ast.Node]
    # Projection pushdown: positions the rest of the plan actually reads.
    # ``None`` = all columns. Residual predicates read the table directly
    # and do not require materialisation, so they are not included here.
    required: Optional[set[int]] = None
    # Dictionary-code pushup: positions whose every consumer is code-safe
    # (grouping, COUNT(DISTINCT), pass-through projection); the column
    # executor delivers these as ``DictCodes`` instead of gathered
    # strings. Annotated by :func:`_annotate_coded`; only text columns
    # are affected at execution time.
    coded: Optional[set[int]] = None

    def __post_init__(self) -> None:
        self.schema = Schema([])  # filled by the planner


@dataclass
class SubqueryNode(PlanNode):
    child: PlanNode
    binding: str

    def __post_init__(self) -> None:
        self.schema = self.child.schema.rebind(self.binding)


@dataclass
class JoinNode(PlanNode):
    """Equi-join. ``reduce_scan`` is the scan the right side passes through,
    ``reduce_keys`` its ``(left key position, scan column)`` pairs: executors
    drive that scan from an index with the left side's distinct keys."""

    left: PlanNode
    right: PlanNode
    left_key_positions: list[int]
    right_key_positions: list[int]
    residual: list[ast.Node]
    join_type: str = "inner"
    reduce_scan: Optional[ScanNode] = field(default=None, repr=False, compare=False)
    reduce_keys: list[tuple[int, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.schema = self.left.schema.concat(self.right.schema)


@dataclass
class FilterNode(PlanNode):
    child: PlanNode
    predicate: ast.Node

    def __post_init__(self) -> None:
        self.schema = self.child.schema


@dataclass
class GroupNode(PlanNode):
    child: PlanNode
    keys: list[ast.Node]
    aggregates: list[ast.Aggregate]

    def __post_init__(self) -> None:
        columns: list[tuple[Optional[str], str]] = []
        for i in range(len(self.keys)):
            columns.append((None, f"__k{i}"))
        for i in range(len(self.aggregates)):
            columns.append((None, f"__a{i}"))
        self.schema = Schema(columns)


@dataclass
class ProjectNode(PlanNode):
    child: PlanNode
    expressions: list[ast.Node]
    names: list[str]

    def __post_init__(self) -> None:
        self.schema = Schema([(None, name) for name in self.names])


@dataclass
class SortNode(PlanNode):
    child: PlanNode
    key_positions: list[int]
    descending: list[bool]
    limit_hint: Optional[int] = None
    # Parameter name behind limit_hint, for plan-cache rebinding.
    limit_param: Optional[str] = None

    def __post_init__(self) -> None:
        self.schema = self.child.schema


@dataclass
class LimitNode(PlanNode):
    child: PlanNode
    count: int
    # Parameter name behind count, for plan-cache rebinding.
    param: Optional[str] = None

    def __post_init__(self) -> None:
        self.schema = self.child.schema


@dataclass
class DistinctNode(PlanNode):
    child: PlanNode

    def __post_init__(self) -> None:
        self.schema = self.child.schema


@dataclass
class SliceColumnsNode(PlanNode):
    """Keep the first *count* columns, renamed to *names*.

    Used to drop helper columns (ORDER BY expressions, HAVING) appended by
    the projection stage; positional so duplicate column names from
    ``SELECT *`` joins cannot cause ambiguity.
    """

    child: PlanNode
    count: int
    names: list[str]

    def __post_init__(self) -> None:
        self.schema = Schema([(None, name) for name in self.names])


# --------------------------------------------------------------------------
# Planner
# --------------------------------------------------------------------------


class TableResolver:
    """Callback giving the planner access to catalog schemas without a
    dependency on the storage layer: ``resolve(name) -> list[column name]``."""

    def __init__(self, lookup) -> None:
        self._lookup = lookup

    def column_names(self, table_name: str) -> list[str]:
        return self._lookup(table_name)


def plan_select(
    select: ast.Select,
    resolver: TableResolver,
    params: Optional[Mapping[str, Any]] = None,
) -> PlanNode:
    """Plan a SELECT statement into a physical tree (with projection
    pushdown annotated on the scans)."""
    root = _Planner(resolver, params).plan(select)
    _prune_columns(root, set(range(len(root.schema))))
    _annotate_coded(root, [True] * len(root.schema))
    _annotate_reduction(root)
    return root


def _expression_positions(expression: ast.Node, schema: Schema) -> set[int]:
    """Schema positions referenced by an expression."""
    positions: set[int] = set()
    for node in ast.walk(expression):
        if isinstance(node, ast.ColumnRef):
            positions.add(schema.resolve(node.name, node.table))
    return positions


def _prune_columns(node: PlanNode, needed: set[int]) -> None:
    """Projection pushdown: annotate every scan with the column positions
    its consumers actually read. Residual predicates evaluate against the
    stored table directly, so they do not force materialisation."""
    if isinstance(node, ScanNode):
        node.required = set(needed)
        return
    if isinstance(node, SubqueryNode):
        _prune_columns(node.child, needed)
        return
    if isinstance(node, JoinNode):
        combined = set(needed)
        combined.update(
            position
            for predicate in node.residual
            for position in _expression_positions(predicate, node.schema)
        )
        left_width = len(node.left.schema)
        left_needed = {p for p in combined if p < left_width}
        right_needed = {p - left_width for p in combined if p >= left_width}
        left_needed.update(node.left_key_positions)
        right_needed.update(node.right_key_positions)
        _prune_columns(node.left, left_needed)
        _prune_columns(node.right, right_needed)
        return
    if isinstance(node, FilterNode):
        child_needed = set(needed)
        child_needed.update(_expression_positions(node.predicate, node.child.schema))
        _prune_columns(node.child, child_needed)
        return
    if isinstance(node, GroupNode):
        child_needed: set[int] = set()
        for key in node.keys:
            child_needed.update(_expression_positions(key, node.child.schema))
        for aggregate in node.aggregates:
            if aggregate.argument is not None:
                child_needed.update(
                    _expression_positions(aggregate.argument, node.child.schema)
                )
        _prune_columns(node.child, child_needed)
        return
    if isinstance(node, ProjectNode):
        child_needed: set[int] = set()
        for expression in node.expressions:
            child_needed.update(_expression_positions(expression, node.child.schema))
        _prune_columns(node.child, child_needed)
        return
    if isinstance(node, SortNode):
        child_needed = set(needed)
        child_needed.update(node.key_positions)
        _prune_columns(node.child, child_needed)
        return
    if isinstance(node, DistinctNode):
        # Row deduplication compares every output column.
        _prune_columns(node.child, set(range(len(node.child.schema))))
        return
    if isinstance(node, LimitNode):
        _prune_columns(node.child, needed)
        return
    if isinstance(node, SliceColumnsNode):
        _prune_columns(node.child, set(range(node.count)) | set())
        return
    raise PlanningError(f"cannot prune columns of {type(node).__name__}")


def _annotate_coded(node: PlanNode, safe: list[bool]) -> None:
    """Dictionary-code pushup: mark scan positions whose every consumer
    tolerates ``DictCodes`` (int32 codes over a sorted dictionary) in
    place of materialised strings.

    ``safe[i]`` says position *i* of *node*'s output may carry codes. The
    root output is always safe (result materialisation decodes); walking
    down, a position stays safe only while every read is code-exact:

    * pass-through projection / group keys that are bare column refs
      (factorisation over codes equals factorisation over strings -- the
      dictionary is sorted and deduplicated),
    * ``COUNT`` / ``COUNT(DISTINCT)`` over a bare column ref,
    * DISTINCT / LIMIT / result output (these decode first).

    Anything else -- expressions, comparisons, join keys, sort keys,
    other aggregates -- needs real values and clears the flag. The
    annotation is purely structural, so cached plans keep it across
    rebinds.
    """
    if isinstance(node, ScanNode):
        node.coded = {i for i, ok in enumerate(safe) if ok}
        return
    if isinstance(node, SubqueryNode):
        _annotate_coded(node.child, safe)
        return
    if isinstance(node, JoinNode):
        combined = list(safe)
        unsafe = set(
            position
            for predicate in node.residual
            for position in _expression_positions(predicate, node.schema)
        )
        left_width = len(node.left.schema)
        unsafe.update(node.left_key_positions)
        unsafe.update(p + left_width for p in node.right_key_positions)
        for position in unsafe:
            combined[position] = False
        _annotate_coded(node.left, combined[:left_width])
        _annotate_coded(node.right, combined[left_width:])
        return
    if isinstance(node, FilterNode):
        child_safe = list(safe)
        for position in _expression_positions(node.predicate, node.child.schema):
            child_safe[position] = False
        _annotate_coded(node.child, child_safe)
        return
    if isinstance(node, GroupNode):
        child_safe = [True] * len(node.child.schema)
        for i, key in enumerate(node.keys):
            if isinstance(key, ast.ColumnRef):
                position = node.child.schema.resolve(key.name, key.table)
                child_safe[position] = child_safe[position] and safe[i]
            else:
                for position in _expression_positions(key, node.child.schema):
                    child_safe[position] = False
        for aggregate in node.aggregates:
            if aggregate.argument is None:
                continue
            if aggregate.func == "COUNT" and isinstance(aggregate.argument, ast.ColumnRef):
                continue  # count/count-distinct are code-exact
            for position in _expression_positions(aggregate.argument, node.child.schema):
                child_safe[position] = False
        _annotate_coded(node.child, child_safe)
        return
    if isinstance(node, ProjectNode):
        child_safe = [True] * len(node.child.schema)
        for i, expression in enumerate(node.expressions):
            if isinstance(expression, ast.ColumnRef):
                position = node.child.schema.resolve(expression.name, expression.table)
                child_safe[position] = child_safe[position] and safe[i]
            else:
                for position in _expression_positions(expression, node.child.schema):
                    child_safe[position] = False
        _annotate_coded(node.child, child_safe)
        return
    if isinstance(node, SortNode):
        child_safe = list(safe)
        for position in node.key_positions:
            child_safe[position] = False
        _annotate_coded(node.child, child_safe)
        return
    if isinstance(node, (DistinctNode, LimitNode)):
        _annotate_coded(node.child, list(safe))
        return
    if isinstance(node, SliceColumnsNode):
        child_safe = list(safe[: node.count])
        child_safe.extend([True] * (len(node.child.schema) - len(child_safe)))
        _annotate_coded(node.child, child_safe)
        return
    raise PlanningError(f"cannot annotate coded columns of {type(node).__name__}")


def _annotate_reduction(node: PlanNode) -> None:
    """Mark each join whose right side is a scan seen through pass-throughs.
    Dropping right rows no left key equals cannot change an inner/LEFT join."""
    for child in (getattr(node, name, None) for name in ("child", "left", "right")):
        if child is not None:
            _annotate_reduction(child)
    if not isinstance(node, JoinNode):
        return
    scan, positions = node.right, node.right_key_positions
    while isinstance(scan, (SubqueryNode, SliceColumnsNode, ProjectNode)):
        if isinstance(scan, ProjectNode):
            if not all(isinstance(e, ast.ColumnRef) for e in scan.expressions):
                return
            refs = [scan.expressions[p] for p in positions]
            positions = [scan.child.schema.resolve(ref.name, ref.table) for ref in refs]
        scan = scan.child
    if isinstance(scan, ScanNode):
        node.reduce_scan = scan
        keys = zip(node.left_key_positions, positions)
        node.reduce_keys = [(left, scan.schema.columns[right][1]) for left, right in keys]


class _Planner:
    def __init__(self, resolver: TableResolver, params: Optional[Mapping[str, Any]]) -> None:
        self._resolver = resolver
        self._params = params

    # -- entry point --------------------------------------------------------

    def plan(self, select: ast.Select) -> PlanNode:
        if select.source is None:
            return self._plan_sourceless(select)
        node = self._plan_source(select.source, _split_conjuncts(select.where))
        node, select_names = self._plan_projection_pipeline(select, node)
        return node

    # -- FROM / WHERE ----------------------------------------------------------

    def _plan_source(self, source: ast.Node, where_conjuncts: list[ast.Node]) -> PlanNode:
        node, bindings = self._build_relation(source)
        # Classify WHERE conjuncts: push single-binding ones down when the
        # relation is a bare scan; everything else filters above the tree.
        remaining: list[ast.Node] = []
        for conjunct in where_conjuncts:
            target = self._single_binding_of(conjunct, bindings)
            pushed = False
            if target is not None:
                pushed = self._push_into_scan(node, target, conjunct)
            if not pushed:
                remaining.append(conjunct)
        for conjunct in remaining:
            node = FilterNode(child=node, predicate=conjunct)
        return node

    def _build_relation(self, source: ast.Node) -> tuple[PlanNode, set[str]]:
        if isinstance(source, ast.TableRef):
            scan = ScanNode(table=source.name, binding=source.binding, sargable=[], residual=[])
            column_names = self._resolver.column_names(source.name)
            scan.schema = Schema([(source.binding, name) for name in column_names])
            return scan, {source.binding.lower()}
        if isinstance(source, ast.SubqueryRef):
            inner = self.plan(source.query)
            node = SubqueryNode(child=inner, binding=source.alias)
            return node, {source.alias.lower()}
        if isinstance(source, ast.Join):
            left, left_bindings = self._build_relation(source.left)
            right, right_bindings = self._build_relation(source.right)
            overlap = left_bindings & right_bindings
            if overlap:
                raise PlanningError(f"duplicate table alias in join: {sorted(overlap)}")
            conjuncts = _split_conjuncts(source.condition)
            left_positions: list[int] = []
            right_positions: list[int] = []
            residual: list[ast.Node] = []
            for conjunct in conjuncts:
                pair = self._extract_join_keys(conjunct, left, right, left_bindings, right_bindings)
                if pair is None:
                    residual.append(conjunct)
                else:
                    left_positions.append(pair[0])
                    right_positions.append(pair[1])
            if not left_positions and source.join_type == "inner":
                # Cross-join driven purely by residual predicates.
                pass
            join = JoinNode(
                left=left,
                right=right,
                left_key_positions=left_positions,
                right_key_positions=right_positions,
                residual=residual,
                join_type=source.join_type,
            )
            return join, left_bindings | right_bindings
        raise PlanningError(f"unsupported FROM item: {type(source).__name__}")

    def _extract_join_keys(
        self,
        conjunct: ast.Node,
        left: PlanNode,
        right: PlanNode,
        left_bindings: set[str],
        right_bindings: set[str],
    ) -> Optional[tuple[int, int]]:
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            return None
        sides = (conjunct.left, conjunct.right)
        if not all(isinstance(side, ast.ColumnRef) for side in sides):
            return None
        first, second = sides  # type: ignore[misc]
        first_side = self._binding_side(first, left_bindings, right_bindings)
        second_side = self._binding_side(second, left_bindings, right_bindings)
        if first_side == "left" and second_side == "right":
            return (
                left.schema.resolve(first.name, first.table),
                right.schema.resolve(second.name, second.table),
            )
        if first_side == "right" and second_side == "left":
            return (
                left.schema.resolve(second.name, second.table),
                right.schema.resolve(first.name, first.table),
            )
        return None

    def _binding_side(
        self, column: ast.ColumnRef, left_bindings: set[str], right_bindings: set[str]
    ) -> Optional[str]:
        if column.table is None:
            return None
        binding = column.table.lower()
        if binding in left_bindings:
            return "left"
        if binding in right_bindings:
            return "right"
        raise PlanningError(f"unknown table alias in join condition: {column.table}")

    def _single_binding_of(self, expression: ast.Node, bindings: set[str]) -> Optional[str]:
        """The single table alias referenced by *expression*, if exactly one.

        Unqualified references only count when the FROM clause has exactly
        one binding (otherwise resolution could be ambiguous and we leave
        the predicate above the join, where the full schema disambiguates).
        """
        seen: set[str] = set()
        unqualified = False
        for node in ast.walk(expression):
            if isinstance(node, ast.ColumnRef):
                if node.table is None:
                    unqualified = True
                else:
                    seen.add(node.table.lower())
        if unqualified:
            if len(bindings) == 1 and not seen:
                return next(iter(bindings))
            return None
        if len(seen) == 1:
            return next(iter(seen))
        return None

    def _push_into_scan(self, node: PlanNode, binding: str, conjunct: ast.Node) -> bool:
        """Attach *conjunct* to the scan owning *binding*. Returns False when
        that relation is not a bare scan (e.g. a derived table)."""
        scan = _find_scan(node, binding)
        if scan is None:
            return False
        sargable = self._as_sargable(conjunct)
        if sargable is not None:
            scan.sargable.append(sargable)
        else:
            scan.residual.append(conjunct)
        return True

    def _as_sargable(self, conjunct: ast.Node) -> Optional[SargablePredicate]:
        if isinstance(conjunct, ast.InList) and not conjunct.negated:
            if not isinstance(conjunct.operand, ast.ColumnRef):
                return None
            sources: list[tuple] = []
            for item in conjunct.items:
                if isinstance(item, ast.Literal):
                    sources.append(("lit", item.value))
                elif isinstance(item, ast.Parameter):
                    sources.append(("param", item.name))
                else:
                    return None
            recipe = tuple(sources)
            return SargablePredicate(
                column=conjunct.operand.name,
                values=_expand_sources(recipe, self._params),
                sources=recipe,
            )
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
            column, constant = None, None
            if isinstance(conjunct.left, ast.ColumnRef) and isinstance(
                conjunct.right, (ast.Literal, ast.Parameter)
            ):
                column, constant = conjunct.left, conjunct.right
            elif isinstance(conjunct.right, ast.ColumnRef) and isinstance(
                conjunct.left, (ast.Literal, ast.Parameter)
            ):
                column, constant = conjunct.right, conjunct.left
            if column is None:
                return None
            if isinstance(constant, ast.Parameter):
                value = bind_parameter(self._params, constant.name)
                if isinstance(value, (list, tuple, set, frozenset)):
                    return None
                recipe = (("param", constant.name),)
            else:
                value = constant.value
                recipe = (("lit", value),)
            if value is None:
                return None
            return SargablePredicate(column=column.name, values=[value], sources=recipe)
        return None

    # -- projection / aggregation pipeline -------------------------------------

    def _plan_projection_pipeline(
        self, select: ast.Select, node: PlanNode
    ) -> tuple[PlanNode, list[str]]:
        select_exprs, select_names = self._expand_select_items(select, node.schema)

        has_aggregates = bool(select.group_by) or any(
            ast.contains_aggregate(expr) for expr in select_exprs
        )
        if select.having is not None and not has_aggregates:
            has_aggregates = True
        order_exprs = [self._resolve_order_expression(item, select_exprs, select_names) for item in select.order_by]
        if not has_aggregates:
            has_aggregates = any(ast.contains_aggregate(expr) for expr in order_exprs)

        if has_aggregates:
            keys = [_normalize(key) for key in select.group_by]
            aggregates = _collect_aggregates(select_exprs + order_exprs + ([select.having] if select.having else []))
            group = GroupNode(child=node, keys=list(select.group_by), aggregates=aggregates)
            substitution = _PostAggregateSubstitution(keys, aggregates, group.schema)
            select_exprs = [substitution.apply(expr) for expr in select_exprs]
            order_exprs = [substitution.apply(expr) for expr in order_exprs]
            having = substitution.apply(select.having) if select.having is not None else None
            node = group
        else:
            having = None

        projected_exprs = list(select_exprs)
        projected_names = list(select_names)
        order_positions: list[int] = []
        for expr in order_exprs:
            position = _position_of_expression(expr, projected_exprs)
            if position is None:
                position = len(projected_exprs)
                projected_exprs.append(expr)
                projected_names.append(f"__o{position}")
            order_positions.append(position)
        having_position: Optional[int] = None
        if having is not None:
            having_position = len(projected_exprs)
            projected_exprs.append(having)
            projected_names.append("__having")

        node = ProjectNode(child=node, expressions=projected_exprs, names=projected_names)

        if having_position is not None:
            node = FilterNode(
                child=node,
                predicate=ast.ColumnRef(name="__having"),
            )

        limit_count, limit_param = self._evaluate_limit(select.limit)
        if select.order_by:
            use_hint = not select.distinct
            node = SortNode(
                child=node,
                key_positions=order_positions,
                descending=[item.descending for item in select.order_by],
                limit_hint=limit_count if use_hint else None,
                limit_param=limit_param if use_hint else None,
            )

        node = SliceColumnsNode(child=node, count=len(select_exprs), names=list(select_names))

        if select.distinct:
            node = DistinctNode(child=node)
        if limit_count is not None:
            node = LimitNode(child=node, count=limit_count, param=limit_param)
        return node, select_names

    def _expand_select_items(
        self, select: ast.Select, schema: Schema
    ) -> tuple[list[ast.Node], list[str]]:
        expressions: list[ast.Node] = []
        names: list[str] = []
        for item in select.items:
            if isinstance(item.expression, ast.Star):
                if item.expression.table is None:
                    positions = range(len(schema))
                else:
                    positions = schema.positions_for_binding(item.expression.table)
                for position in positions:
                    binding, name = schema.columns[position]
                    expressions.append(ast.ColumnRef(name=name, table=binding))
                    names.append(name)
                continue
            expressions.append(item.expression)
            if item.alias:
                names.append(item.alias)
            elif isinstance(item.expression, ast.ColumnRef):
                names.append(item.expression.name)
            elif isinstance(item.expression, ast.Aggregate):
                names.append(item.expression.func.lower())
            else:
                names.append(f"column{len(names)}")
        if not expressions:
            raise PlanningError("empty select list")
        return expressions, names

    def _resolve_order_expression(
        self, item: ast.OrderItem, select_exprs: list[ast.Node], select_names: list[str]
    ) -> ast.Node:
        expression = item.expression
        # ORDER BY <alias> and ORDER BY <ordinal>
        if isinstance(expression, ast.ColumnRef) and expression.table is None:
            for name, expr in zip(select_names, select_exprs):
                if name.lower() == expression.name.lower():
                    return expr
        if isinstance(expression, ast.Literal) and isinstance(expression.value, int):
            ordinal = expression.value
            if not 1 <= ordinal <= len(select_exprs):
                raise PlanningError(f"ORDER BY position {ordinal} out of range")
            return select_exprs[ordinal - 1]
        return expression

    def _evaluate_limit(
        self, limit: Optional[ast.Node]
    ) -> tuple[Optional[int], Optional[str]]:
        """``(count, parameter name)`` -- the name is recorded on the plan
        so the cache can rebind a different LIMIT without re-planning."""
        if limit is None:
            return None, None
        if isinstance(limit, ast.Literal) and isinstance(limit.value, int):
            return _validate_limit(limit.value), None
        if isinstance(limit, ast.Parameter):
            return _validate_limit(bind_parameter(self._params, limit.name)), limit.name
        raise PlanningError("LIMIT must be an integer literal or parameter")

    def _plan_sourceless(self, select: ast.Select) -> PlanNode:
        """``SELECT <expr>, ...`` without FROM -- constant evaluation."""
        if select.group_by or select.having or select.order_by:
            raise PlanningError("GROUP/HAVING/ORDER require a FROM clause")
        expressions: list[ast.Node] = []
        names: list[str] = []
        for index, item in enumerate(select.items):
            if isinstance(item.expression, ast.Star):
                raise PlanningError("'*' requires a FROM clause")
            expressions.append(item.expression)
            names.append(item.alias or f"column{index}")
        constant_source = ScanNode(table="__dual__", binding="__dual__", sargable=[], residual=[])
        constant_source.schema = Schema([])
        node: PlanNode = ProjectNode(child=constant_source, expressions=expressions, names=names)
        limit_count, limit_param = self._evaluate_limit(select.limit)
        if select.where is not None:
            node = FilterNode(child=node, predicate=select.where)
        if limit_count is not None:
            node = LimitNode(child=node, count=limit_count, param=limit_param)
        return node


# --------------------------------------------------------------------------
# Plan-cache support: parameter shapes and rebinding
# --------------------------------------------------------------------------


def _validate_limit(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise PlanningError("LIMIT parameter must bind an integer")
    if value < 0:
        raise PlanningError("LIMIT must be non-negative")
    return value


def param_shapes(params: Optional[Mapping[str, Any]]) -> tuple:
    """A hashable signature of everything about *params* that can change
    plan *structure*: which names are bound, and whether each value is a
    sequence, an int, NULL, or another scalar. Two parameter sets with
    equal shapes always plan to structurally identical trees, so the
    shape is a sound plan-cache key component."""
    if not params:
        return ()
    return tuple(sorted((name, _shape_of(value)) for name, value in params.items()))


def _shape_of(value: Any) -> str:
    if isinstance(value, (list, tuple, set, frozenset)):
        return "seq"
    if value is None:
        return "null"
    if isinstance(value, int) and not isinstance(value, bool):
        return "int"
    return "scalar"


def rebind_plan(node: PlanNode, params: Optional[Mapping[str, Any]]) -> None:
    """Re-evaluate every plan-time parameter binding in place.

    Walks the tree and recomputes sargable IN-values and LIMIT counts from
    their recorded symbolic sources. All other parameter references live
    in residual/projection expressions, which the executors bind at
    execution time anyway. Safe to call repeatedly: every binding is
    recomputed from scratch, so no state leaks between executions.
    """
    if isinstance(node, ScanNode):
        for predicate in node.sargable:
            if predicate.has_params():
                predicate.rebind(params)
        return
    if isinstance(node, JoinNode):
        rebind_plan(node.left, params)
        rebind_plan(node.right, params)
        return
    if isinstance(node, LimitNode):
        if node.param is not None:
            node.count = _validate_limit(bind_parameter(params, node.param))
        rebind_plan(node.child, params)
        return
    if isinstance(node, SortNode):
        if node.limit_param is not None:
            node.limit_hint = _validate_limit(bind_parameter(params, node.limit_param))
        rebind_plan(node.child, params)
        return
    child = getattr(node, "child", None)
    if child is not None:
        rebind_plan(child, params)


# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


def _split_conjuncts(expression: Optional[ast.Node]) -> list[ast.Node]:
    if expression is None:
        return []
    if isinstance(expression, ast.BinaryOp) and expression.op == "AND":
        return _split_conjuncts(expression.left) + _split_conjuncts(expression.right)
    return [expression]


def _find_scan(node: PlanNode, binding: str) -> Optional[ScanNode]:
    if isinstance(node, ScanNode):
        return node if node.binding.lower() == binding else None
    if isinstance(node, JoinNode):
        return _find_scan(node.left, binding) or _find_scan(node.right, binding)
    if isinstance(node, FilterNode):
        return _find_scan(node.child, binding)
    return None


def _normalize(node: ast.Node) -> ast.Node:
    """Canonical tree for structural matching: lowercase column refs."""
    if isinstance(node, ast.ColumnRef):
        return ast.ColumnRef(
            name=node.name.lower(), table=node.table.lower() if node.table else None
        )
    if isinstance(node, ast.BinaryOp):
        return ast.BinaryOp(op=node.op, left=_normalize(node.left), right=_normalize(node.right))
    if isinstance(node, ast.UnaryOp):
        return ast.UnaryOp(op=node.op, operand=_normalize(node.operand))
    if isinstance(node, ast.InList):
        return ast.InList(
            operand=_normalize(node.operand),
            items=tuple(_normalize(item) for item in node.items),
            negated=node.negated,
        )
    if isinstance(node, ast.IsNull):
        return ast.IsNull(operand=_normalize(node.operand), negated=node.negated)
    if isinstance(node, ast.Cast):
        return ast.Cast(operand=_normalize(node.operand), type_name=node.type_name)
    if isinstance(node, ast.FunctionCall):
        return ast.FunctionCall(name=node.name.upper(), args=tuple(_normalize(a) for a in node.args))
    if isinstance(node, ast.Aggregate):
        return ast.Aggregate(
            func=node.func,
            argument=_normalize(node.argument) if node.argument is not None else None,
            distinct=node.distinct,
        )
    return node


def _collect_aggregates(expressions: Sequence[ast.Node]) -> list[ast.Aggregate]:
    """Distinct aggregates (by normalised structure) in evaluation order."""
    seen: dict[ast.Node, ast.Aggregate] = {}
    for expression in expressions:
        for node in ast.walk(expression):
            if isinstance(node, ast.Aggregate):
                key = _normalize(node)
                if key not in seen:
                    seen[key] = node
    return list(seen.values())


def _position_of_expression(expression: ast.Node, expressions: list[ast.Node]) -> Optional[int]:
    target = _normalize(expression)
    for position, candidate in enumerate(expressions):
        if _normalize(candidate) == target:
            return position
    return None


class _PostAggregateSubstitution:
    """Rewrites post-aggregation expressions against the GroupNode schema:
    group-key subtrees become ``__k{i}`` references, aggregates become
    ``__a{i}`` references. Any remaining column reference is an error
    (column not functionally dependent on the GROUP BY)."""

    def __init__(
        self,
        normalized_keys: list[ast.Node],
        aggregates: list[ast.Aggregate],
        schema: Schema,
    ) -> None:
        self._key_positions = {key: i for i, key in enumerate(normalized_keys)}
        self._aggregate_positions = {_normalize(agg): i for i, agg in enumerate(aggregates)}
        self._schema = schema

    def apply(self, node: ast.Node) -> ast.Node:
        rewritten = self._rewrite(node)
        for child in ast.walk(rewritten):
            if isinstance(child, ast.ColumnRef) and not child.name.startswith("__"):
                raise PlanningError(
                    f"column {child.display()} must appear in GROUP BY or inside an aggregate"
                )
        return rewritten

    def _rewrite(self, node: ast.Node) -> ast.Node:
        normalized = _normalize(node)
        if normalized in self._key_positions:
            return ast.ColumnRef(name=f"__k{self._key_positions[normalized]}")
        if isinstance(node, ast.Aggregate):
            position = self._aggregate_positions.get(normalized)
            if position is None:
                raise PlanningError(f"aggregate {node.display()} was not collected")
            return ast.ColumnRef(name=f"__a{position}")
        if isinstance(node, ast.BinaryOp):
            return ast.BinaryOp(op=node.op, left=self._rewrite(node.left), right=self._rewrite(node.right))
        if isinstance(node, ast.UnaryOp):
            return ast.UnaryOp(op=node.op, operand=self._rewrite(node.operand))
        if isinstance(node, ast.InList):
            return ast.InList(
                operand=self._rewrite(node.operand),
                items=tuple(self._rewrite(item) for item in node.items),
                negated=node.negated,
            )
        if isinstance(node, ast.IsNull):
            return ast.IsNull(operand=self._rewrite(node.operand), negated=node.negated)
        if isinstance(node, ast.Cast):
            return ast.Cast(operand=self._rewrite(node.operand), type_name=node.type_name)
        if isinstance(node, ast.FunctionCall):
            return ast.FunctionCall(
                name=node.name, args=tuple(self._rewrite(arg) for arg in node.args)
            )
        return node
