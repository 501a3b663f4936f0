"""Row-oriented storage backend ("the PostgreSQL role" in the paper).

Rows are stored as Python tuples; secondary indexes are hash maps from a
column value to the list of row positions holding it. The tuple-at-a-time
iterator executor (:mod:`..sql.executor_row`) scans this layout, which
gives the engine the cost profile of a classic row store: cheap point
look-ups through indexes, comparatively expensive full scans and
aggregations.

Deletes (``delete_rows``) are **tombstones**: matching rows are masked
out and every read path skips them. A delete never rewrites storage;
only an explicit :meth:`RowTable.compact` does -- rows physically
dropped, indexes rebuilt, and (when ``cluster_keys`` is set) rows
re-sorted into the declared clustering order, so compacted storage is
indistinguishable from a freshly bulk-loaded table.
"""

from __future__ import annotations

import sys
from itertools import chain
from typing import Any, Iterable, Iterator, Optional, Sequence

import numpy as np

from ...errors import CatalogError
from ..types import SqlType
from .catalog import TableSchema

# Approximate per-value heap costs used by the storage accounting that
# backs Table VIII. Exact ``sys.getsizeof`` is too slow for million-row
# lakes, so fixed averages are used for the common cases.
_BYTES_PER_POINTER = 8
_BYTES_TUPLE_OVERHEAD = 56


class RowTable:
    """A table stored as a list of tuples plus optional hash indexes."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: list[tuple] = []
        self._indexes: dict[str, dict[Any, list[int]]] = {}
        self._deleted: Optional[list[bool]] = None  # tombstone mask
        self._num_deleted = 0
        self.cluster_keys: tuple[str, ...] = ()
        self.compactions = 0  # bumped per physical compaction
        # Storage rows in the base -- adopted from a snapshot or left by
        # the last compaction; 0 while every row is base. Delta
        # accounting only: the row store has no mapped pages to
        # protect, so mutations need no structural base/delta split.
        self._base_rows = 0

    # -- data ----------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self._rows) - self._num_deleted

    # -- snapshots ---------------------------------------------------------------

    def snapshot_rows(self) -> tuple[list[tuple], Optional[list[bool]]]:
        """The storage state a snapshot persists: every stored row
        (tombstoned ones included, position-aligned with the mask) plus
        the tombstone mask, ``None`` while the table holds no deletes.
        The row store's payload is its tuples -- the row-oriented
        equivalent of the column store's sealed arrays -- serialised by
        the snapshot layer as one pickle stream, which round-trips every
        cell exactly (arbitrary-precision 128-bit super keys included).
        """
        return self._rows, self._deleted

    @classmethod
    def from_snapshot(
        cls,
        schema: TableSchema,
        rows: list[tuple],
        deleted: Optional[list[bool]] = None,
        index_columns: Iterable[str] = (),
        cluster_keys: Sequence[str] = (),
        compactions: int = 0,
    ) -> "RowTable":
        """Rebuild a table around already-typed snapshot rows. Declared
        hash indexes are rebuilt eagerly (the row store has no lazy
        postings path -- every mutation maintains them in place)."""
        table = cls(schema)
        table._rows = [tuple(row) for row in rows]
        table._deleted = list(deleted) if deleted is not None else None
        table._num_deleted = sum(table._deleted) if table._deleted else 0
        table.cluster_keys = tuple(cluster_keys)
        table.compactions = compactions
        table._base_rows = len(table._rows)
        for name in index_columns:
            table.create_index(name)
        return table

    def insert_columns(self, columns) -> int:
        """Append typed ``(data, null_mask)`` column chunks -- the
        table's one append, the row-store counterpart of
        :meth:`ColumnTable.insert_columns`. Values arrive already typed
        (from the vectorised ingest, or coerced by ``Database.insert``),
        so tuples are built with one ``zip`` transpose. Object-dtype
        chunks keep their Python values, so integers beyond int64 (the
        128-bit super keys) survive. Indexes are maintained in place.
        """
        from .column_store import validate_chunk

        count = validate_chunk(self.schema, columns)
        if count == 0:
            return 0
        lists = [
            _chunk_to_python(column_def.sql_type, data, null)
            for column_def, (data, null) in zip(self.schema.columns, columns)
        ]
        start = len(self._rows)
        self._rows.extend(zip(*lists))
        for column_name, index in self._indexes.items():
            position = self.schema.position_of(column_name)
            values = lists[position]
            for offset, value in enumerate(values):
                if value is not None:
                    index.setdefault(value, []).append(start + offset)
        if self._deleted is not None:
            self._deleted.extend([False] * count)
        return count

    def delete_rows(self, column_name: str, values: Iterable[Any]) -> int:
        """Tombstone every row whose *column_name* equals any of *values*
        (the ``AllTables`` maintenance primitive: ``TableId IN (...)``).

        Deletion is logical -- scans, fetches, and index look-ups skip the
        masked rows until an explicit :meth:`compact`. Returns the number
        of rows deleted.
        """
        position = self.schema.position_of(column_name)
        wanted = {v for v in values if v is not None and v == v}  # NaN equals nothing
        if not wanted or not self._rows:
            return 0
        key = column_name.lower()
        if key in self._indexes:
            index = self._indexes[key]
            positions = [p for v in wanted for p in index.get(v, ())]
        else:
            positions = [
                p for p, row in enumerate(self._rows) if row[position] in wanted
            ]
        if self._deleted is None:
            self._deleted = [False] * len(self._rows)
        deleted = 0
        mask = self._deleted
        for p in positions:
            if not mask[p]:
                mask[p] = True
                deleted += 1
        self._num_deleted += deleted
        return deleted

    def compact(self) -> None:
        """Physically drop tombstoned rows and rebuild every index; when
        ``cluster_keys`` is set, surviving rows are re-sorted into the
        declared clustering order first, so compacted storage matches a
        fresh bulk load of the same rows byte for byte."""
        mask = self._deleted
        rows = (
            self._rows
            if mask is None
            else [row for row, dead in zip(self._rows, mask) if not dead]
        )
        if self.cluster_keys:
            positions = [self.schema.position_of(c) for c in self.cluster_keys]
            rows = sorted(
                rows,
                key=lambda row: tuple(
                    (row[p] is None, row[p]) for p in positions
                ),
            )
        self._rows = rows
        self._deleted = None
        self._num_deleted = 0
        for key in list(self._indexes):
            self._indexes[key] = {}
            self._build_index(key)
        self.compactions += 1
        self._base_rows = len(rows)  # the compacted rows are the new base

    def scan(self) -> Iterator[tuple]:
        """Iterate live rows in insertion order."""
        if self._deleted is None:
            return iter(self._rows)
        return (
            row for row, dead in zip(self._rows, self._deleted) if not dead
        )

    def fetch(self, positions: Iterable[int]) -> Iterator[tuple]:
        """Yield the rows at the given positions."""
        rows = self._rows
        for position in positions:
            yield rows[position]

    # -- indexes ---------------------------------------------------------------

    def create_index(self, column_name: str) -> None:
        """Build a hash index on *column_name* (idempotent)."""
        key = column_name.lower()
        self.schema.position_of(column_name)  # validates existence
        if key in self._indexes:
            return
        self._indexes[key] = {}
        self._build_index(key)

    def _build_index(self, key: str) -> None:
        """(Re)populate one index dict from the current rows. Tombstoned
        rows are indexed too -- look-ups filter them -- so the postings
        stay position-aligned without a mask-aware build."""
        position = self.schema.position_of(key)
        index = self._indexes[key]
        for row_id, row in enumerate(self._rows):
            value = row[position]
            if value is not None:
                index.setdefault(value, []).append(row_id)

    def has_index(self, column_name: str) -> bool:
        return column_name.lower() in self._indexes

    def warm(self) -> None:
        """Interface parity with ``ColumnTable.warm``: the row store
        builds its indexes eagerly and keeps no lazily-materialised read
        state, so there is nothing to force before concurrent reads."""

    def index_lookup(self, column_name: str, values: Iterable[Any]) -> list[int]:
        """Live row positions whose *column_name* equals any of *values*,
        grouped by the sorted distinct matched values, each value's
        positions ascending -- the order of
        :meth:`ColumnTable.index_lookup`, so both executors produce the
        same rows for any index scan."""
        key = column_name.lower()
        if key not in self._indexes:
            raise CatalogError(
                f"no index on {self.schema.name}.{column_name}"
            )
        index = self._indexes[key]
        # ``v == v`` drops NaN, which equals nothing (a dict would find
        # the stored NaN object by identity; the column store never does).
        matched = sorted(v for v in set(values) if v == v and v in index)
        positions = list(chain.from_iterable(map(index.__getitem__, matched)))
        if self._deleted is not None:
            mask = self._deleted
            positions = [p for p in positions if not mask[p]]
        return positions

    # -- delta accounting ---------------------------------------------------------

    def delta_stats(self) -> dict[str, Any]:
        """Mutation debt since the snapshot load or last compaction
        (interface parity with :meth:`ColumnTable.delta_stats`; the
        trigger signal the background snapshot compactor polls)."""
        total = len(self._rows)
        base = self._base_rows or total
        return {
            "base_rows": base,
            "delta_rows": total - base,
            "deleted_rows": self._num_deleted,
        }

    # -- storage accounting -------------------------------------------------------

    def storage_bytes(self) -> int:
        """Approximate resident bytes of rows plus indexes.

        Uses sampled ``sys.getsizeof`` on up to 1000 rows and extrapolates,
        which keeps Table VIII's accounting fast on large lakes.
        """
        if not self._rows:
            return 0
        sample_size = min(1000, len(self._rows))
        step = max(1, len(self._rows) // sample_size)
        sampled = self._rows[::step][:sample_size]
        sampled_bytes = 0
        for row in sampled:
            sampled_bytes += _BYTES_TUPLE_OVERHEAD
            for value in row:
                sampled_bytes += _value_bytes(value)
        row_bytes = int(sampled_bytes / len(sampled) * len(self._rows))
        index_bytes = 0
        for index in self._indexes.values():
            index_bytes += len(index) * (_BYTES_POINTER_PAIR)
            index_bytes += sum(len(postings) for postings in index.values()) * _BYTES_PER_POINTER
        return row_bytes + index_bytes


def _chunk_to_python(sql_type: SqlType, data, null) -> list:
    """One bulk-ingest column as a list of stored Python values (matching
    what ``coerce_to_type`` would have produced)."""
    from .column_store import DictEncodedText

    if isinstance(data, DictEncodedText):
        codes = data.codes
        if not len(data.dictionary):  # all-NULL chunk
            return [None] * len(codes)
        gathered = data.dictionary[np.maximum(codes, 0)]
        values = gathered.tolist()
        if (codes < 0).any():
            return [
                None if code < 0 else value for code, value in zip(codes.tolist(), values)
            ]
        return values
    if data.dtype == object:
        values = list(data)
    else:
        values = data.astype(object).tolist()
    if sql_type is SqlType.BOOLEAN:
        if null is not None and null.any():
            nulls = null.tolist()
            return [
                None if is_null or v is None or v < 0 else bool(v)
                for v, is_null in zip(values, nulls)
            ]
        return [None if v is None or v < 0 else bool(v) for v in values]
    if null is not None and null.any():
        nulls = null.tolist()
        return [None if is_null else v for v, is_null in zip(values, nulls)]
    return values


_BYTES_POINTER_PAIR = 2 * _BYTES_PER_POINTER


def _value_bytes(value: Any) -> int:
    """Cheap per-value byte estimate (strings dominate real lakes)."""
    if value is None:
        return _BYTES_PER_POINTER
    if isinstance(value, str):
        return 49 + len(value)  # CPython compact-unicode overhead + payload
    if isinstance(value, bool):
        return _BYTES_PER_POINTER
    if isinstance(value, int):
        return 28 if value.bit_length() <= 60 else sys.getsizeof(value)
    if isinstance(value, float):
        return 24
    return sys.getsizeof(value)
