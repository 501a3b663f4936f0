"""In-memory table model for data-lake corpora.

A :class:`Table` is schema-light, like real lake tables: named columns over
rows of mixed-type cells (``str | int | float | bool | None``). Column
types are *inferred*, not declared -- discovery operators decide how to
treat a column (e.g. the correlation seeker needs numeric columns, XASH
hashes the string form of every cell).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence

import numpy as np

from ..errors import LakeError

Cell = Any  # str | int | float | bool | None

_INFINITIES = (float("inf"), float("-inf"))


def normalize_cell(value: Cell) -> Optional[str]:
    """Canonical string token for a cell, as indexed in ``AllTables``.

    Mirrors the tokenisation used by DataXFormer/MATE-style inverted
    indexes: lowercase, surrounding whitespace stripped, empty -> NULL.
    Numbers keep a minimal stable rendering (``3`` not ``3.0``).

    This scalar form is the per-cell *oracle*: :func:`normalize_tokens`
    is the batched kernel and must stay byte-identical to it (pinned by
    the adversarial-token and property parity suites).
    """
    if value is None:
        return None
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value != value or value in _INFINITIES:
            return None
        if value.is_integer():
            return str(int(value))
        return repr(value)
    if isinstance(value, int):
        return str(value)
    token = str(value).strip().lower()
    return token if token else None


# Exact-type dispatch kinds for the batched kernel. ``type()`` lookup
# (not isinstance) so subclasses of str/int/float -- whose __str__ may
# differ -- take the scalar oracle, and bool (a subclass of int) gets
# its own lane.
_KIND_NONE, _KIND_BOOL, _KIND_INT, _KIND_FLOAT, _KIND_STR, _KIND_OTHER = range(6)
_KIND_OF = {
    type(None): _KIND_NONE,
    bool: _KIND_BOOL,
    int: _KIND_INT,
    float: _KIND_FLOAT,
    str: _KIND_STR,
}
_INT64_MIN_FLOAT = float(-(2**63))
_INT64_MAX_FLOAT = float(2**63)
_BOOL_TOKENS = ("false", "true")


def _normalize_str_lane(vals: list) -> list:
    """``str.strip().lower()`` (empty -> None) over exactly-``str``
    cells, as two C-level ``map`` passes plus one falsy-to-None sweep
    (the empty string is the only falsy ``str``). Uses the *actual*
    Python string methods, so there is no fixed-width-dtype or
    simple-case-mapping parity hazard to guard against -- exact by
    construction."""
    return [t or None for t in map(str.lower, map(str.strip, vals))]


def _normalize_float_lane(out: np.ndarray, where: np.ndarray, vals: np.ndarray) -> None:
    """Float lane of the kernel: NaN/±inf -> None; integer-valued floats
    in int64 range render through ``astype(int64).astype(str)`` (equal
    to ``str(int(v))`` -- the conversion is exact, never rounding);
    finite non-integral floats render with a C-level ``map(repr, ...)``;
    integral floats beyond int64 (rare) take the scalar oracle, whose
    ``int(value)`` widening is exact at any magnitude."""
    data = vals.astype(np.float64)
    finite = np.isfinite(data)
    integral = finite & (data == np.floor(data))
    in_range = integral & (data >= _INT64_MIN_FLOAT) & (data < _INT64_MAX_FLOAT)
    if in_range.any():
        out[where[in_range]] = (
            data[in_range].astype(np.int64).astype("U20").astype(object)
        )
    fractional = finite & ~integral
    if fractional.any():
        out[where[fractional]] = list(map(repr, vals[fractional].tolist()))
    huge = integral & ~in_range
    if huge.any():
        out[where[huge]] = list(map(normalize_cell, vals[huge].tolist()))
    # ~finite slots stay None.


class _TokenizeMemo(dict):
    """Cell-value -> token memo driving the kernel's C-level ``map``
    pass: repeated cells (the common case in skewed lake distributions)
    resolve with one dict probe; first-seen values take ``__missing__``,
    which delegates to the :func:`normalize_cell` oracle.

    Exactness under Python's cross-type equality (``True == 1``,
    ``2 == 2.0``) is by *restriction*: no value comparing equal to 0 or
    1 is ever stored, so a lookup can never serve ``True`` the token of
    ``1`` (the bool/int duality guard pinned on ``_ValueMemo`` since
    PR 3), and only exact ``str``/``int``/``float`` keys are stored at
    all. Equal ``int``/``float`` pairs sharing a slot is sound: the
    oracle gives numerically equal integral values the same minimal
    rendering. The memo is still unsound for *lookups* of exotic types
    whose ``str()`` disagrees with an equal-comparing number
    (``Decimal('2.50') == 2.5`` would hit ``2.5``'s slot) -- callers
    must route such batches to :func:`_normalize_tokens_typed` instead,
    which :func:`normalize_tokens` does via its type pre-scan.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__()
        self[None] = None

    def __missing__(self, value) -> Optional[str]:
        token = normalize_cell(value)
        if type(value) in _MEMO_SAFE_TYPES and not (value == 0 or value == 1):
            self[value] = token
        return token


_MEMO_SAFE_TYPES = (str, int, float)
_MEMO_SAFE_KINDS = frozenset((str, int, float, bool, type(None)))


def normalize_tokens(cells: Sequence[Cell]) -> list[Optional[str]]:
    """Batched :func:`normalize_cell`: one token list for a flat cell
    sequence, byte-identical to ``[normalize_cell(v) for v in cells]``.

    Two lanes, both exact. The primary lane is a single C-level ``map``
    over a fresh :class:`_TokenizeMemo`, so skewed batches (real lake
    tables repeat tokens heavily) normalise at dict-probe speed; a type
    pre-scan admits only the standard cell types
    (``str``/``int``/``float``/``bool``/``None``), whose cross-type
    equality the memo handles exactly. Batches carrying anything else
    (unhashable cells, NumPy scalars, ``Decimal`` -- types whose
    equality can alias a memo slot their ``str()`` disagrees with) take
    :func:`_normalize_tokens_typed`, the NumPy type-dispatched bulk
    kernel, which hashes nothing and handles anything.
    """
    n = len(cells)
    if n < 32:
        return [normalize_cell(v) for v in cells]
    if set(map(type, cells)) <= _MEMO_SAFE_KINDS:
        return list(map(_TokenizeMemo().__getitem__, cells))
    return _normalize_tokens_typed(cells)


def _normalize_tokens_typed(cells: Sequence[Cell]) -> list[Optional[str]]:
    """NumPy type-dispatched form of :func:`normalize_tokens`, also
    byte-identical to the scalar oracle.

    Cells are dispatched by exact type (so subclasses with bespoke
    ``__str__`` still take the scalar oracle) into per-kind lanes that
    each run at C speed: bool -> "true"/"false", int -> ``map(str)``,
    float -> NumPy masks for NaN/±inf/integral plus exact int64
    rendering, str -> ``map(str.strip)``/``map(str.lower)``. The lanes
    use the same Python primitives as the oracle, just batched, so the
    kernel is exact and never merely close. No hashing anywhere: this is
    the lane that serves batches the memoised map cannot (unhashable
    cells), and the reference batch implementation the parity suites run
    against the oracle and the memo lane.
    """
    n = len(cells)
    if n < 32:
        return [normalize_cell(v) for v in cells]
    kind_of = _KIND_OF
    kinds = np.fromiter(
        (kind_of.get(t, _KIND_OTHER) for t in map(type, cells)),
        dtype=np.uint8,
        count=n,
    )
    arr = np.empty(n, dtype=object)
    arr[:] = cells
    out = np.full(n, None, dtype=object)

    mask = kinds == _KIND_BOOL
    if mask.any():
        out[mask] = [_BOOL_TOKENS[v] for v in arr[mask].tolist()]

    mask = kinds == _KIND_INT
    if mask.any():
        # map(str, ...) is exact for arbitrary-precision ints -- no
        # int64 narrowing on this lane.
        out[mask] = list(map(str, arr[mask].tolist()))

    mask = kinds == _KIND_FLOAT
    if mask.any():
        _normalize_float_lane(out, np.nonzero(mask)[0], arr[mask])

    mask = kinds == _KIND_STR
    if mask.any():
        out[mask] = _normalize_str_lane(arr[mask].tolist())

    mask = kinds == _KIND_OTHER
    if mask.any():
        out[mask] = list(map(normalize_cell, arr[mask].tolist()))

    return out.tolist()


def is_numeric_cell(value: Cell) -> bool:
    """True for int/float cells and numeric-looking strings."""
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, float)):
        return True
    if isinstance(value, str):
        try:
            float(value)
            return True
        except ValueError:
            return False
    return False


def numeric_value(value: Cell) -> Optional[float]:
    """The float value of a numeric cell, or None."""
    if value is None or isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        result = float(value)
        return None if result != result else result
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


class Table:
    """A named table: ordered column names plus row tuples."""

    def __init__(self, name: str, columns: Sequence[str], rows: Iterable[Sequence[Cell]]) -> None:
        if not name:
            raise LakeError("table name must be non-empty")
        self.name = name
        self.columns = list(columns)
        if len(set(self.columns)) != len(self.columns):
            raise LakeError(f"table {name!r} has duplicate column names")
        width = len(self.columns)
        self.rows: list[tuple] = []
        for row in rows:
            if len(row) != width:
                raise LakeError(
                    f"table {name!r}: row width {len(row)} != {width} columns"
                )
            self.rows.append(tuple(row))
        self._numeric_cache: Optional[list[bool]] = None
        self._token_cache: Optional[list[Optional[str]]] = None

    # -- shape ------------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {self.num_rows}x{self.num_columns})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Table)
            and self.name == other.name
            and self.columns == other.columns
            and self.rows == other.rows
        )

    # -- access ------------------------------------------------------------------

    def column_index(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError:
            raise LakeError(f"table {self.name!r} has no column {column!r}") from None

    def column_values(self, column: str) -> list[Cell]:
        """All cells of one column, in row order."""
        position = self.column_index(column)
        return [row[position] for row in self.rows]

    def iter_cells(self) -> Iterator[tuple[int, int, Cell]]:
        """Yield ``(row_id, column_id, value)`` for every cell."""
        for row_id, row in enumerate(self.rows):
            for column_id, value in enumerate(row):
                yield row_id, column_id, value

    def set_cell(self, row_id: int, column_id: int, value: Cell) -> None:
        """Mutate one cell in place, invalidating every derived cache
        (normalized tokens, numeric-column inference)."""
        if not 0 <= row_id < self.num_rows:
            raise LakeError(f"table {self.name!r} has no row {row_id}")
        if not 0 <= column_id < self.num_columns:
            raise LakeError(f"table {self.name!r} has no column id {column_id}")
        row = list(self.rows[row_id])
        row[column_id] = value
        self.rows[row_id] = tuple(row)
        self._numeric_cache = None
        self._token_cache = None

    # -- normalized-token cache -----------------------------------------------------

    def normalized_cells(self) -> list[Optional[str]]:
        """Every cell's :func:`normalize_cell` token, row-major, cached.

        Computed through the batched :func:`normalize_tokens` kernel
        (byte-identical to the scalar loop by contract); lifecycle
        re-adds and ``replace_table`` rebuilds hit the same table object
        repeatedly, so the tokens are computed once and reused.
        Invalidated by :meth:`set_cell`.
        """
        if self._token_cache is None:
            self._token_cache = normalize_tokens(
                [value for row in self.rows for value in row]
            )
        return self._token_cache

    def tokens_if_cached(self) -> Optional[list[Optional[str]]]:
        """The cached token list, or None -- consumers that only want the
        fast path (the bulk index build must not pin every table's tokens
        in memory) probe with this instead of :meth:`normalized_cells`."""
        return self._token_cache

    def project(self, columns: Sequence[str], name: Optional[str] = None) -> "Table":
        """A new table with only *columns* (in the given order)."""
        positions = [self.column_index(c) for c in columns]
        return Table(
            name or self.name,
            [self.columns[p] for p in positions],
            [tuple(row[p] for p in positions) for row in self.rows],
        )

    def head(self, n: int, name: Optional[str] = None) -> "Table":
        """The first *n* rows as a new table."""
        return Table(name or self.name, self.columns, self.rows[:n])

    # -- type inference -------------------------------------------------------------

    def numeric_columns(self) -> list[bool]:
        """Per column: is it numeric (>=80 % of non-null cells numeric,
        at least one non-null cell)? Cached."""
        if self._numeric_cache is None:
            flags = []
            for position in range(self.num_columns):
                non_null = 0
                numeric = 0
                for row in self.rows:
                    value = row[position]
                    if value is None:
                        continue
                    non_null += 1
                    if is_numeric_cell(value):
                        numeric += 1
                flags.append(non_null > 0 and numeric / non_null >= 0.8)
            self._numeric_cache = flags
        return self._numeric_cache

    def is_numeric_column(self, column: str) -> bool:
        return self.numeric_columns()[self.column_index(column)]

    # -- stats -------------------------------------------------------------------------

    def distinct_count(self, column: str) -> int:
        """Distinct non-null normalised tokens in a column."""
        tokens = {
            normalize_cell(v) for v in self.column_values(column)
        }
        tokens.discard(None)
        return len(tokens)
