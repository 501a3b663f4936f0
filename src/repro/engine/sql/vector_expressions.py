"""Vectorised expression compiler for the columnar executor.

Expressions compile to closures over a *column source* -- anything exposing
``column(position) -> (data, null_mask)`` plus a ``length``. Results use the
same representation: a NumPy data array (float64/int64/bool/object) paired
with a boolean NULL mask implementing three-valued logic.

Semantics intentionally mirror :mod:`.expressions` (the row-wise reference
implementation); the test suite cross-checks the two on random inputs.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Protocol

import numpy as np

from ...errors import PlanningError
from ..storage.column_store import (
    isin_sorted,
    normalize_numeric_probes,
    numeric_probe_array,
)
from . import ast
from .expressions import bind_parameter
from .schema import Schema

VectorResult = tuple[np.ndarray, np.ndarray]


class ColumnSource(Protocol):
    """Abstract access to input columns by schema position."""

    @property
    def length(self) -> int: ...

    def column(self, position: int) -> VectorResult: ...


VectorEvaluator = Callable[[ColumnSource], VectorResult]


def compile_vector_expression(
    node: ast.Node,
    schema: Schema,
    params: Optional[Mapping[str, Any]] = None,
) -> VectorEvaluator:
    """Compile *node* into a ``source -> (data, null)`` closure."""
    if isinstance(node, ast.Literal):
        return _compile_literal(node.value)
    if isinstance(node, ast.Parameter):
        value = bind_parameter(params, node.name)
        if isinstance(value, (list, tuple, set, frozenset)):
            raise PlanningError(
                f"parameter :{node.name} binds a sequence and may only be used in an IN list"
            )
        return _compile_literal(value)
    if isinstance(node, ast.ColumnRef):
        position = schema.resolve(node.name, node.table)
        return lambda source: source.column(position)
    if isinstance(node, ast.BinaryOp):
        return _compile_binary(node, schema, params)
    if isinstance(node, ast.UnaryOp):
        operand = compile_vector_expression(node.operand, schema, params)
        if node.op == "NOT":
            def negate_logical(source: ColumnSource) -> VectorResult:
                data, null = operand(source)
                return ~_as_bool(data), null

            return negate_logical
        if node.op == "-":
            def negate_numeric(source: ColumnSource) -> VectorResult:
                data, null = operand(source)
                return -_as_numeric(data), null

            return negate_numeric
        raise PlanningError(f"unknown unary operator: {node.op}")
    if isinstance(node, ast.InList):
        return _compile_in_list(node, schema, params)
    if isinstance(node, ast.IsNull):
        operand = compile_vector_expression(node.operand, schema, params)
        negated = node.negated

        def is_null(source: ColumnSource) -> VectorResult:
            _, null = operand(source)
            data = ~null if negated else null.copy()
            return data, np.zeros(len(null), dtype=bool)

        return is_null
    if isinstance(node, ast.Cast):
        return _compile_cast(node, schema, params)
    if isinstance(node, ast.FunctionCall):
        return _compile_function(node, schema, params)
    if isinstance(node, ast.Aggregate):
        raise PlanningError(f"aggregate {node.display()} used outside GROUP BY context")
    raise PlanningError(f"cannot vectorise expression node: {type(node).__name__}")


# --------------------------------------------------------------------------
# Node compilers
# --------------------------------------------------------------------------


def _compile_literal(value: Any) -> VectorEvaluator:
    value = _item(value)  # a NumPy scalar parameter broadcasts as its Python value

    def broadcast(source: ColumnSource) -> VectorResult:
        length = source.length
        if value is None:
            return np.zeros(length, dtype=np.int64), np.ones(length, dtype=bool)
        null = np.zeros(length, dtype=bool)
        if isinstance(value, bool):
            return np.full(length, value, dtype=bool), null
        if isinstance(value, int):
            return np.full(length, value, dtype=np.int64), null
        if isinstance(value, float):
            return np.full(length, value, dtype=np.float64), null
        data = np.empty(length, dtype=object)
        data[:] = value
        return data, null

    return broadcast


def _compile_binary(
    node: ast.BinaryOp, schema: Schema, params: Optional[Mapping[str, Any]]
) -> VectorEvaluator:
    left = compile_vector_expression(node.left, schema, params)
    right = compile_vector_expression(node.right, schema, params)
    op = node.op
    if op == "AND":
        def logical_and(source: ColumnSource) -> VectorResult:
            l_data, l_null = left(source)
            r_data, r_null = right(source)
            l_bool, r_bool = _as_bool(l_data), _as_bool(r_data)
            is_false = (~l_null & ~l_bool) | (~r_null & ~r_bool)
            null = ~is_false & (l_null | r_null)
            return ~is_false & ~null, null

        return logical_and
    if op == "OR":
        def logical_or(source: ColumnSource) -> VectorResult:
            l_data, l_null = left(source)
            r_data, r_null = right(source)
            l_bool, r_bool = _as_bool(l_data), _as_bool(r_data)
            is_true = (~l_null & l_bool) | (~r_null & r_bool)
            null = ~is_true & (l_null | r_null)
            return is_true, null

        return logical_or
    if op in ("=", "<>"):
        negate = op == "<>"

        def equals(source: ColumnSource) -> VectorResult:
            l_data, l_null = left(source)
            r_data, r_null = right(source)
            data = _vector_equals(l_data, r_data)
            if negate:
                data = ~data
            return data, l_null | r_null

        return equals
    if op in ("<", "<=", ">", ">="):
        def compare(source: ColumnSource, _op: str = op) -> VectorResult:
            l_data, l_null = left(source)
            r_data, r_null = right(source)
            data = _vector_compare(l_data, r_data, _op)
            return data, l_null | r_null

        return compare
    if op in ("+", "-", "*", "/", "%"):
        def arithmetic(source: ColumnSource, _op: str = op) -> VectorResult:
            l_data, l_null = left(source)
            r_data, r_null = right(source)
            lhs = _as_numeric(l_data)
            rhs = _as_numeric(r_data)
            null = l_null | r_null
            if _op == "+":
                return lhs + rhs, null
            if _op == "-":
                return lhs - rhs, null
            if _op == "*":
                return lhs * rhs, null
            # Division and modulo: zero divisors yield NULL (see row
            # executor rationale -- keeps ranking queries total).
            zero = rhs == 0
            safe_rhs = np.where(zero, 1, rhs)
            if _op == "/":
                result = lhs / safe_rhs
            else:
                result = np.mod(lhs, safe_rhs)
            return result, null | zero

        return arithmetic
    raise PlanningError(f"unknown binary operator: {op}")


def _compile_in_list(
    node: ast.InList, schema: Schema, params: Optional[Mapping[str, Any]]
) -> VectorEvaluator:
    operand = compile_vector_expression(node.operand, schema, params)
    values: list[Any] = []
    contains_null = False
    for item in node.items:
        if isinstance(item, ast.Literal):
            if item.value is None:
                contains_null = True
            else:
                values.append(item.value)
        elif isinstance(item, ast.Parameter):
            bound = bind_parameter(params, item.name)
            if isinstance(bound, (list, tuple, set, frozenset)):
                for element in bound:
                    if element is None:
                        contains_null = True
                    else:
                        values.append(element)
            elif bound is None:
                contains_null = True
            else:
                values.append(bound)
        else:
            raise PlanningError("IN lists may only contain literals and parameters")
    negated = node.negated
    text_values = [v for v in values if isinstance(v, str)]
    # Shared probe normaliser (bools participate as 0/1 -- the engine's
    # bool/int duality) so the residual path can never drift from the
    # sargable scan paths.
    numeric_set = normalize_numeric_probes(values)
    text_set = frozenset(text_values)
    # Exact probe array for integer-dtype operands: float64 membership
    # would alias int64 values above 2^53 (e.g. SuperKeys).
    integer_array = numeric_probe_array(numeric_set, np.dtype(np.int64)) if numeric_set else None
    float_array = numeric_probe_array(numeric_set, np.dtype(np.float64)) if numeric_set else None

    def membership(source: ColumnSource) -> VectorResult:
        data, null = operand(source)
        if data.dtype == object:
            found = np.fromiter(
                (value in text_set for value in data), count=len(data), dtype=bool
            )
        elif data.dtype.kind in "iu":
            found = (
                isin_sorted(data, integer_array)
                if integer_array is not None
                else np.zeros(len(data), dtype=bool)
            )
        else:
            numeric = _as_numeric(data)
            found = (
                isin_sorted(numeric, float_array)
                if float_array is not None
                else np.zeros(len(data), dtype=bool)
            )
        if negated:
            result = ~found
        else:
            result = found
        result_null = null.copy()
        if contains_null:
            result_null |= ~found
        return result, result_null

    return membership


def _compile_cast(
    node: ast.Cast, schema: Schema, params: Optional[Mapping[str, Any]]
) -> VectorEvaluator:
    operand = compile_vector_expression(node.operand, schema, params)
    target = node.type_name
    if target in ("int", "integer", "bigint"):
        def cast_int(source: ColumnSource) -> VectorResult:
            data, null = operand(source)
            if data.dtype == object:
                out = np.zeros(len(data), dtype=np.int64)
                for i, value in enumerate(data):
                    if not null[i] and value is not None:
                        out[i] = int(float(value))
                return out, null
            return _as_numeric(data).astype(np.int64), null

        return cast_int
    if target in ("float", "real", "double", "numeric"):
        def cast_float(source: ColumnSource) -> VectorResult:
            data, null = operand(source)
            if data.dtype == object:
                out = np.zeros(len(data), dtype=np.float64)
                for i, value in enumerate(data):
                    if not null[i] and value is not None:
                        out[i] = float(value)
                return out, null
            return _as_numeric(data).astype(np.float64), null

        return cast_float
    if target in ("text", "varchar", "nvarchar"):
        def cast_text(source: ColumnSource) -> VectorResult:
            data, null = operand(source)
            out = np.empty(len(data), dtype=object)
            for i, value in enumerate(data):
                out[i] = None if null[i] else str(value)
            return out, null

        return cast_text
    raise PlanningError(f"unsupported cast target: {target}")


def _compile_function(
    node: ast.FunctionCall, schema: Schema, params: Optional[Mapping[str, Any]]
) -> VectorEvaluator:
    args = [compile_vector_expression(arg, schema, params) for arg in node.args]
    name = node.name.upper()
    if name == "ABS" and len(args) == 1:
        arg = args[0]

        def absolute(source: ColumnSource) -> VectorResult:
            data, null = arg(source)
            return np.abs(_as_numeric(data)), null

        return absolute
    if name == "SQRT" and len(args) == 1:
        arg = args[0]

        def sqrt(source: ColumnSource) -> VectorResult:
            data, null = arg(source)
            numeric = _as_numeric(data).astype(np.float64)
            negative = numeric < 0
            out = np.sqrt(np.where(negative, 0.0, numeric))
            return out, null | negative

        return sqrt
    if name == "COALESCE" and args:
        def coalesce(source: ColumnSource) -> VectorResult:
            data, null = args[0](source)
            data = data.copy()
            null = null.copy()
            for arg in args[1:]:
                if not null.any():
                    break
                next_data, next_null = arg(source)
                fill = null & ~next_null
                if data.dtype != next_data.dtype:
                    data = data.astype(object)
                    next_data = next_data.astype(object)
                data[fill] = next_data[fill]
                null &= ~fill
            return data, null

        return coalesce
    # Generic element-wise fallback (LOWER/UPPER/LENGTH/LIKE): route through
    # the row-wise compiler semantics one value at a time. These only appear
    # in cold paths (no seeker query uses them on the hot loop).
    from .expressions import compile_expression

    def fallback(source: ColumnSource) -> VectorResult:
        materialised = [arg(source) for arg in args]
        length = source.length
        fake_schema = Schema([(None, f"c{i}") for i in range(len(args))])
        row_eval = compile_expression(
            ast.FunctionCall(
                name=name,
                args=tuple(ast.ColumnRef(name=f"c{i}") for i in range(len(args))),
            ),
            fake_schema,
            params,
        )
        out = np.empty(length, dtype=object)
        null = np.zeros(length, dtype=bool)
        for i in range(length):
            row = tuple(
                None if arg_null[i] else _item(arg_data[i])
                for arg_data, arg_null in materialised
            )
            value = row_eval(row)
            if value is None:
                null[i] = True
            out[i] = value
        return out, null

    return fallback


# --------------------------------------------------------------------------
# dtype helpers
# --------------------------------------------------------------------------


def _as_bool(data: np.ndarray) -> np.ndarray:
    if data.dtype == bool:
        return data
    if data.dtype == object:
        return np.fromiter((bool(v) for v in data), count=len(data), dtype=bool)
    return data != 0


def _as_numeric(data: np.ndarray) -> np.ndarray:
    if data.dtype == bool:
        return data.astype(np.int64)
    if data.dtype == object:
        out = np.zeros(len(data), dtype=np.float64)
        for i, value in enumerate(data):
            if value is not None and not isinstance(value, str):
                out[i] = float(value)
        return out
    return data


def _vector_equals(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    if left.dtype == object or right.dtype == object:
        result = left == right
        if isinstance(result, np.ndarray) and result.dtype == bool:
            return result
        return np.fromiter(
            (l == r for l, r in zip(left, right)), count=len(left), dtype=bool
        )
    return _as_numeric(left) == _as_numeric(right)


def _vector_compare(left: np.ndarray, right: np.ndarray, op: str) -> np.ndarray:
    if left.dtype == object or right.dtype == object:
        # Element-wise Python comparison; NULL positions hold None but are
        # masked out by the caller, so substitute a self-comparison to
        # avoid TypeErrors.
        out = np.zeros(len(left), dtype=bool)
        for i, (l, r) in enumerate(zip(left, right)):
            if l is None or r is None:
                continue
            if op == "<":
                out[i] = l < r
            elif op == "<=":
                out[i] = l <= r
            elif op == ">":
                out[i] = l > r
            else:
                out[i] = l >= r
        return out
    lhs, rhs = _as_numeric(left), _as_numeric(right)
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    return lhs >= rhs


def _item(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    return value
