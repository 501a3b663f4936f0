"""Lake statistics for the optimizer's learned cost model (paper §VII-B).

The cost model's features need one corpus statistic, the frequency of a
token in the lake, and that is the token's posting-list length in
``AllTables``. Statistics are therefore **derived**, never maintained:
:meth:`LakeStatistics.from_lake` runs one ``SELECT CellValue, COUNT(*)
FROM AllTables GROUP BY CellValue`` over the live rows and reads the
table, column and row counts from the lake metadata. No second copy of
the frequency table exists -- lifecycle operations and snapshots never
touch statistics, and ``Blend.stats`` caches the derived value until the
next write (see :attr:`repro.core.system.Blend.stats`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..engine.database import Database
from ..lake.datalake import DataLake
from ..lake.table import Cell, normalize_cell
from .alltables import ALLTABLES


@dataclass
class LakeStatistics:
    """Token frequencies plus corpus aggregates."""

    num_tables: int
    num_cells: int
    frequencies: dict[str, int] = field(repr=False)
    num_columns: int = 0
    num_rows: int = 0

    @property
    def num_distinct_tokens(self) -> int:
        """Distinct non-null tokens across the lake."""
        return len(self.frequencies)

    def average_posting_length(self) -> float:
        """Mean posting-list length (``AllTables`` rows per distinct
        token) -- the corpus' value-collision density, which scales how
        many index rows one probed token drags into a seeker scan."""
        if not self.frequencies:
            return 0.0
        return self.num_cells / len(self.frequencies)

    @classmethod
    def from_lake(cls, lake: DataLake, db: Database) -> "LakeStatistics":
        """Derive the statistics of *lake* from its index relation:
        per-token frequencies are one GROUP BY over the live rows of
        ``AllTables`` in *db*; the aggregates come from lake metadata."""
        result = db.execute_columnar(
            f"SELECT CellValue, COUNT(*) FROM {ALLTABLES} GROUP BY CellValue"
        )
        counts = result.column(1)
        shape = lake.stats()
        return cls(
            num_tables=shape.num_tables,
            num_cells=int(counts.sum()),
            frequencies=dict(zip(result.column(0).tolist(), counts.tolist())),
            num_columns=shape.num_columns,
            num_rows=shape.num_rows,
        )

    # -- cost-model reads ------------------------------------------------------------

    def frequency(self, value: Cell) -> int:
        """Occurrences of one value's token across the lake."""
        token = normalize_cell(value)
        if token is None:
            return 0
        return self.frequencies.get(token, 0)

    def average_frequency(self, values: Iterable[Cell]) -> float:
        """Mean token frequency of a query column -- the cost model's
        third feature. Unknown tokens count as zero (they prune to empty
        posting lists, the cheapest case)."""
        total = 0
        count = 0
        for value in values:
            total += self.frequency(value)
            count += 1
        return total / count if count else 0.0

    def selectivity(self, values: Iterable[Cell]) -> float:
        """Fraction of all index rows a value set touches (upper bound)."""
        if self.num_cells == 0:
            return 0.0
        touched = sum(self.frequency(v) for v in values)
        return min(1.0, touched / self.num_cells)
