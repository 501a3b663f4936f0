"""Schema catalog for the embedded engine.

The catalog maps table names to storage objects (row- or column-oriented)
and tracks secondary hash indexes. BLEND's offline phase creates the
``AllTables`` relation here together with its two in-database indexes on
``CellValue`` and ``TableId`` (paper §V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

from ...errors import CatalogError
from ..types import SqlType


@dataclass(frozen=True)
class ColumnDef:
    """A declared column: name plus SQL type."""

    name: str
    sql_type: SqlType


class TableSchema:
    """Ordered column definitions with case-insensitive lookup."""

    __slots__ = ("name", "columns", "_positions")

    def __init__(self, name: str, columns: Iterable[ColumnDef]) -> None:
        self.name = name
        self.columns = list(columns)
        self._positions: dict[str, int] = {}
        for position, column in enumerate(self.columns):
            key = column.name.lower()
            if key in self._positions:
                raise CatalogError(f"duplicate column {column.name!r} in table {name!r}")
            self._positions[key] = position

    def __len__(self) -> int:
        return len(self.columns)

    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def position_of(self, column_name: str) -> int:
        try:
            return self._positions[column_name.lower()]
        except KeyError:
            raise CatalogError(
                f"table {self.name!r} has no column {column_name!r}"
            ) from None


class StoredTable(Protocol):
    """Interface both storage backends implement (structural typing)."""

    schema: TableSchema
    cluster_keys: tuple[str, ...]
    compactions: int

    @property
    def num_rows(self) -> int: ...

    def insert_columns(self, columns: Sequence[tuple]) -> int: ...

    def delete_rows(self, column_name: str, values: Iterable) -> int: ...

    def compact(self) -> None: ...

    def create_index(self, column_name: str) -> None: ...

    def has_index(self, column_name: str) -> bool: ...

    def storage_bytes(self) -> int: ...


class Catalog:
    """Name -> stored-table registry."""

    def __init__(self) -> None:
        self._tables: dict[str, StoredTable] = {}

    def register(self, table: StoredTable) -> None:
        key = table.schema.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {table.schema.name!r} already exists")
        self._tables[key] = table

    def drop(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"cannot drop unknown table {name!r}")
        del self._tables[key]

    def get(self, name: str) -> StoredTable:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table: {name!r}") from None

    def exists(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        return [table.schema.name for table in self._tables.values()]
