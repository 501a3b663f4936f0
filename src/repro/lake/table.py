"""In-memory table model for data-lake corpora.

A :class:`Table` is schema-light, like real lake tables: named columns over
rows of mixed-type cells (``str | int | float | bool | None``). Column
types are *inferred*, not declared -- discovery operators decide how to
treat a column (e.g. the correlation seeker needs numeric columns, XASH
hashes the string form of every cell).

A cell becomes an index token only through :func:`normalize_cell` (the
scalar form) or :func:`normalize_tokens` (the batched form the index
build calls); no other module restates the tokenisation rules.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence

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


class _TokenizeMemo(dict):
    """Cell-value -> token memo driving the kernel's C-level ``map``
    pass: repeated cells (the common case in skewed lake distributions)
    resolve with one dict probe; first-seen values take ``__missing__``,
    which delegates to the :func:`normalize_cell` oracle.

    Exactness under Python's cross-type equality (``True == 1``,
    ``2 == 2.0``) is by *restriction*: no value comparing equal to 0 or
    1 is ever stored, so a lookup can never serve ``True`` the token of
    ``1`` (the bool/int duality guard), and only exact
    ``str``/``int``/``float`` keys are stored at all. Equal
    ``int``/``float`` pairs sharing a slot is sound: the oracle gives
    numerically equal integral values the same minimal rendering. The
    memo is still unsound for *lookups* of exotic types whose ``str()``
    disagrees with an equal-comparing number (``Decimal('2.50') == 2.5``
    would hit ``2.5``'s slot), so :func:`normalize_tokens` runs it only
    over batches its type pre-scan admits.
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

    The one tokeniser of the write side: the ``AllTables`` build calls
    it once per flush buffer. Batches of the standard cell types
    (``str``/``int``/``float``/``bool``/``None``) run a single C-level
    ``map`` over a fresh :class:`_TokenizeMemo`, so skewed batches (real
    lake tables repeat tokens heavily) normalise at dict-probe speed.
    Any other batch (unhashable cells, NumPy scalars, ``Decimal`` --
    types whose equality can alias a memo slot their ``str()``
    disagrees with) and any batch under 32 cells runs the scalar
    :func:`normalize_cell` loop.
    """
    if len(cells) >= 32 and set(map(type, cells)) <= _MEMO_SAFE_KINDS:
        return list(map(_TokenizeMemo().__getitem__, cells))
    return [normalize_cell(v) for v in cells]


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
        """Mutate one cell in place, invalidating the numeric-column
        inference cache."""
        if not 0 <= row_id < self.num_rows:
            raise LakeError(f"table {self.name!r} has no row {row_id}")
        if not 0 <= column_id < self.num_columns:
            raise LakeError(f"table {self.name!r} has no column id {column_id}")
        row = list(self.rows[row_id])
        row[column_id] = value
        self.rows[row_id] = tuple(row)
        self._numeric_cache = None

    def project(self, columns: Sequence[str]) -> "Table":
        """A new table of the same name with only *columns* (in the given
        order)."""
        positions = [self.column_index(c) for c in columns]
        return Table(
            self.name,
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
