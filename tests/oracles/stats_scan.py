"""The lake-scan statistics counter, kept as the reference oracle for
``repro.index.stats``: it re-tokenises every lake cell (the AllTables
builder's factorisation kernel plus one ``np.bincount`` per table) and
sums the per-table counts. ``LakeStatistics.from_lake`` derives the same
value from one GROUP BY over ``AllTables``; the two must be equal."""

import numpy as np

from repro.index.alltables import _Factorizer
from repro.index.stats import LakeStatistics
from repro.lake.datalake import DataLake
from repro.lake.table import Table, normalize_tokens


def table_token_counts(table: Table, factorizer=None) -> tuple[list[str], np.ndarray]:
    """Per-token occurrence counts of one table's non-null cells, as
    aligned ``(tokens, counts)``. With a shared *factorizer* the tokens
    are its cumulative first-seen list and the counts cover this table
    only."""
    if factorizer is None:
        factorizer = _Factorizer()
    n_cells = table.num_rows * table.num_columns
    if n_cells == 0:
        return factorizer.tokens, np.zeros(len(factorizer.tokens), dtype=np.int64)
    tokens = table.tokens_if_cached()
    if tokens is None:
        tokens = normalize_tokens([v for row in table.rows for v in row])
    codes = factorizer.factorize_tokens(tokens, n_cells)
    counts = np.bincount(codes[codes >= 0], minlength=len(factorizer.tokens))
    return factorizer.tokens, counts.astype(np.int64, copy=False)


def lake_statistics(lake: DataLake) -> LakeStatistics:
    """Statistics of *lake* by a full scan of its cells."""
    factorizer = _Factorizer()
    totals = np.zeros(0, dtype=np.int64)
    num_cells = num_columns = num_rows = 0
    for table in lake:
        _, counts = table_token_counts(table, factorizer)
        grown = np.zeros(len(counts), dtype=np.int64)
        grown[: len(totals)] = totals
        totals = grown + counts
        num_cells += int(counts.sum())
        num_columns += table.num_columns
        num_rows += table.num_rows
    return LakeStatistics(
        num_tables=len(lake),
        num_cells=num_cells,
        frequencies=dict(zip(factorizer.tokens, totals.tolist())),
        num_columns=num_columns,
        num_rows=num_rows,
    )
