"""The cell-scan semantic build, kept as the reference oracle for
``repro.core.semantic``: ``embed_column`` over every column of every lake
table in ``lake.items()`` order, zero vectors skipped. ``SemanticIndex``
derives the same vectors from one GROUP BY over ``AllTables``; the keys
and the matrix bytes must be equal."""

import numpy as np

from repro.baselines.embeddings import embed_column
from repro.index.alltables import IndexConfig, shuffle_permutation
from repro.lake.datalake import DataLake
from repro.lake.table import Table


def embed_table(
    table_id: int, table: Table, dimensions: int = 64, config: IndexConfig = IndexConfig()
) -> list[tuple[tuple[int, int], np.ndarray]]:
    """``((table_id, column), vector)`` of one table's non-zero column
    embeddings. A ``shuffle_rows`` config feeds each column's cells in
    RowId order, the order the shuffled ``AllTables`` holds them in."""
    if config.shuffle_rows:
        perm = shuffle_permutation(config.shuffle_seed, table_id, table.num_rows)
        table = Table(table.name, list(table.columns), [table.rows[i] for i in perm])
    rows = []
    for position in range(table.num_columns):
        vector = embed_column(table, position, dimensions)
        if np.any(vector):
            rows.append(((table_id, position), vector))
    return rows


def embed_lake(
    lake: DataLake, dimensions: int = 64, config: IndexConfig = IndexConfig()
) -> list[tuple[tuple[int, int], np.ndarray]]:
    """The rows of every live table, by ascending table id."""
    return [
        row
        for table_id, table in lake.items()
        for row in embed_table(table_id, table, dimensions, config)
    ]

