"""DataXFormer-style inverted index (Abedjan et al., CIDR 2015).

The content-to-location index BLEND's ``AllTables`` layout descends from:
every cell token maps to its (table, column, row) occurrences. As a
standalone system it serves keyword look-ups and example-based
transformations; in this repository it exists as (a) the keyword-search
reference and (b) one of the five standalone indexes whose summed storage
Table VIII compares BLEND against.
"""

from __future__ import annotations

from ..lake.datalake import DataLake
from ..lake.table import Cell, normalize_cell


class DataXFormerIndex:
    """token -> list of (table, column, row) occurrences."""

    def __init__(self, lake: DataLake) -> None:
        self.lake = lake
        self._postings: dict[str, list[tuple[int, int, int]]] = {}
        for table_id, table in lake.items():
            for row_id, column_id, value in table.iter_cells():
                token = normalize_cell(value)
                if token is not None:
                    self._postings.setdefault(token, []).append(
                        (table_id, column_id, row_id)
                    )

    def lookup(self, value: Cell) -> list[tuple[int, int, int]]:
        """All (table, column, row) locations of a value."""
        token = normalize_cell(value)
        if token is None:
            return []
        return list(self._postings.get(token, ()))

    def storage_bytes(self) -> int:
        total = 0
        for token, posting in self._postings.items():
            total += 49 + len(token) + 16
            total += len(posting) * 24  # three ints per occurrence
        return total
