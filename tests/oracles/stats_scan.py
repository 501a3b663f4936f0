"""The lake-scan statistics counter, kept as the reference oracle for
``repro.index.stats``: it tokenises every lake cell with the scalar
``normalize_cell`` and counts the tokens per table and across the lake.
``LakeStatistics.from_lake`` derives the same value from one GROUP BY
over ``AllTables``; the two must be equal. The oracle shares no code
with the index build it checks."""

from collections import Counter
from itertools import chain

from repro.index.stats import LakeStatistics
from repro.lake.datalake import DataLake
from repro.lake.table import Table, normalize_cell


def table_token_counts(table: Table) -> Counter:
    """Per-token occurrence counts of one table's non-null cells."""
    counts = Counter(map(normalize_cell, chain.from_iterable(table.rows)))
    counts.pop(None, None)
    return counts


def lake_statistics(lake: DataLake) -> LakeStatistics:
    """Statistics of *lake* by a full scan of its cells."""
    totals: Counter = Counter()
    num_columns = num_rows = 0
    for table in lake:
        totals.update(table_token_counts(table))
        num_columns += table.num_columns
        num_rows += table.num_rows
    return LakeStatistics(
        num_tables=len(lake),
        num_cells=sum(totals.values()),
        frequencies=dict(totals),
        num_columns=num_columns,
        num_rows=num_rows,
    )
