"""Quadrant bits for in-database QCR correlation estimation (paper §V).

The original QCR index (Santos et al., ICDE 2022) stores, per (join
column, numeric column) pair, the *h* smallest hashes of (key, quadrant)
pairs -- quadratic in the number of column pairs. BLEND replaces that with
a single Boolean ``Quadrant`` column in ``AllTables``: 1 when a numeric
cell is >= its column mean, 0 when below, NULL for non-numeric cells.

The Quadrant Count Ratio between a query target and a candidate column is
then computable entirely in SQL (Listing 3):

    QCR = (n_I + n_III - n_II - n_IV) / N  =  (2 * (n_I + n_III) - N) / N

where a joined pair lands in quadrant I/III when both sides are on the
same side of their means -- i.e. when the candidate's Quadrant bit equals
the query key's "target above its mean" bit.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..lake.table import Cell, Table, numeric_value


def column_means(table: Table) -> list[Optional[float]]:
    """Per column: the mean of numeric cell values, or None for columns
    the type inference does not consider numeric."""
    flags = table.numeric_columns()
    means: list[Optional[float]] = []
    for position in range(table.num_columns):
        if not flags[position]:
            means.append(None)
            continue
        total = 0.0
        count = 0
        for row in table.rows:
            value = numeric_value(row[position])
            if value is not None:
                total += value
                count += 1
        means.append(total / count if count else None)
    return means


def quadrant_bit(value: Cell, mean: Optional[float]) -> Optional[bool]:
    """The Quadrant column entry for one cell: ``value >= mean`` or NULL."""
    if mean is None:
        return None
    numeric = numeric_value(value)
    if numeric is None:
        return None
    return numeric >= mean


_MISSING = object()


def _column_numeric_values(
    rows, position: int, n_rows: int, memo: dict
) -> tuple[np.ndarray, np.ndarray]:
    """``numeric_value`` of one column as ``(values, is_none)`` arrays
    (NaN at excluded positions) -- the per-cell extraction, for columns
    :func:`column_quadrant_matrix` cannot convert in one array pass.
    *memo* caches ``numeric_value`` per distinct cell value; booleans
    bypass it -- ``True == 1`` would otherwise alias their dict slots."""
    memo_get = memo.get
    values = np.empty(n_rows, dtype=np.float64)
    is_none = np.zeros(n_rows, dtype=bool)
    for i, row in enumerate(rows):
        value = row[position]
        if value is True or value is False:
            numeric = None
        else:
            numeric = memo_get(value, _MISSING)
            if numeric is _MISSING:
                numeric = numeric_value(value)
                memo[value] = numeric
        if numeric is None:
            is_none[i] = True
            values[i] = np.nan
        else:
            values[i] = numeric
    return values, is_none


def column_quadrant_matrix(
    table: Table, memo: Optional[dict] = None
) -> tuple[list[Optional[float]], np.ndarray]:
    """Vectorised ``column_means`` + ``quadrant_bit`` over a whole table.

    Returns ``(means, bits)`` where *bits* is a ``num_rows x num_columns``
    ``int8`` matrix holding the Quadrant column entries in storage form
    (``-1`` NULL, else 0/1). Bit-identical to calling the scalar functions
    per cell: the mean uses the same sequential float summation as
    :func:`column_means`, and ``value >= mean`` runs as one array op.

    Columns whose cells are purely ``int``/``float``/numeric-``str`` (plus
    NULLs) are converted with one ``astype(float64)`` pass; anything that
    dispatch cannot prove equivalent (bools, mixed str+float columns
    where the two NaN conventions differ, unparsable strings, exotic
    types) takes the per-cell ``numeric_value`` extraction, with *memo*
    optionally caching it per distinct cell value across calls.

    The NaN conventions that force the str+float fallback:
    ``numeric_value`` maps a *float* NaN cell to None (excluded, bit -1)
    but a ``"nan"`` *string* cell to NaN (included: it poisons the mean
    and compares False, bit 0). With only one of the two types present
    the exclusion mask is decidable from the array alone.
    """
    flags = table.numeric_columns()
    n_rows, n_cols = table.num_rows, table.num_columns
    means: list[Optional[float]] = []
    bits = np.full((n_rows, n_cols), -1, dtype=np.int8)
    rows = table.rows
    if memo is None:
        memo = {}
    for position in range(n_cols):
        if not flags[position]:
            means.append(None)
            continue
        column = [row[position] for row in rows]
        values = is_none = None
        kinds = set(map(type, column))
        kinds.discard(type(None))
        if kinds and kinds <= {int, float, str} and not (str in kinds and float in kinds):
            none_mask = np.fromiter((v is None for v in column), dtype=bool, count=n_rows)
            present = [v for v in column if v is not None] if none_mask.any() else column
            try:
                converted = np.array(present, dtype=np.float64)
            except (ValueError, TypeError, OverflowError):
                converted = None  # e.g. non-numeric str in an 80 % column
            if converted is not None:
                values = np.full(n_rows, np.nan, dtype=np.float64)
                values[~none_mask] = converted
                if float in kinds:
                    is_none = none_mask | np.isnan(values)
                else:
                    is_none = none_mask
        if values is None:
            values, is_none = _column_numeric_values(rows, position, n_rows, memo)
        count = n_rows - int(is_none.sum())
        if count == 0:
            means.append(None)
            continue
        # Sequential Python-float summation in row order: identical
        # rounding to the scalar ``column_means`` accumulation loop.
        mean = sum(values[~is_none].tolist()) / count
        means.append(mean)
        column_bits = (values >= mean).astype(np.int8)  # NaN -> 0, as scalar
        column_bits[is_none] = -1
        bits[:, position] = column_bits
    return means, bits


def split_keys_by_target(
    keys: Sequence[Cell], targets: Sequence[Cell]
) -> tuple[list[str], list[str]]:
    """Split query join keys into (below-mean, above-or-equal-mean) token
    lists -- the ``$k_0$`` / ``$k_1$`` parameters of Listing 3.

    The split happens "before invoking the query while parsing the input
    table" (paper §VI); keys with non-numeric targets are dropped. A key
    appearing with targets on both sides keeps its first occurrence,
    matching a hash-map build over the query column.
    """
    from ..lake.table import normalize_cell

    values = [numeric_value(t) for t in targets]
    present = [v for v in values if v is not None]
    if not present:
        return [], []
    mean = sum(present) / len(present)
    below: list[str] = []
    above: list[str] = []
    seen: set[str] = set()
    for key, value in zip(keys, values):
        token = normalize_cell(key)
        if token is None or value is None or token in seen:
            continue
        seen.add(token)
        if value >= mean:
            above.append(token)
        else:
            below.append(token)
    return below, above
