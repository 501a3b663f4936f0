"""DeepJoin-style semantic join search baseline (Dong et al., VLDB 2023).

Appears in the paper's LakeBench experiment (Fig. 6): the fastest system
thanks to its HNSW index, with higher P@k/R@k than exact-overlap search
because it also retrieves *semantically* joinable columns. Architecture
here: one embedding per lake column (encoder substitution documented in
:mod:`.embeddings`), a single HNSW over all columns, and query-time
ranking of tables by their best column's similarity to the query column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.results import ResultList, TableHit
from ..lake.datalake import DataLake
from ..lake.table import Cell
from .embeddings import DEFAULT_DIMENSIONS, embed_column, embed_values
from .hnsw import HnswIndex


@dataclass(frozen=True)
class ColumnRef:
    table_id: int
    column_position: int


class DeepJoinIndex:
    """Column-embedding + HNSW join-search index."""

    def __init__(
        self,
        lake: DataLake,
        dimensions: int = DEFAULT_DIMENSIONS,
        m: int = 8,
        ef_construction: int = 48,
        seed: int = 0,
    ) -> None:
        self.lake = lake
        self.dimensions = dimensions
        self._hnsw = HnswIndex(dimensions, m=m, ef_construction=ef_construction, seed=seed)
        for table_id, table in lake.items():
            for position in range(table.num_columns):
                vector = embed_column(table, position, dimensions)
                if not np.any(vector):
                    continue
                self._hnsw.add(ColumnRef(table_id, position), vector)

    def search(self, values: Sequence[Cell], k: int = 10, ef: int = 96) -> ResultList:
        """Top-k tables whose best column is nearest to the query column
        in embedding space."""
        query_vector = embed_values(values, self.dimensions)
        if not np.any(query_vector):
            return ResultList()
        # Over-fetch columns: several columns of one table may rank high.
        hits = self._hnsw.search(query_vector, k=k * 4, ef=max(ef, k * 4))
        best_per_table: dict[int, float] = {}
        for ref, similarity in hits:
            if similarity > best_per_table.get(ref.table_id, float("-inf")):
                best_per_table[ref.table_id] = similarity
        ranked = sorted(best_per_table.items(), key=lambda item: (-item[1], item[0]))
        return ResultList(
            TableHit(table_id, score) for table_id, score in ranked[:k]
        )

    def storage_bytes(self) -> int:
        # The HNSW's count includes its vector matrix.
        return self._hnsw.storage_bytes()
