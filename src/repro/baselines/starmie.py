"""Starmie-style union search baseline (Fan et al., VLDB 2023).

The reference baseline for BLEND's union plan (§VIII-F, Fig. 7 and
Table VI). Starmie embeds every column with a contrastive encoder and
retrieves unionable tables via HNSW over column vectors, scoring a
candidate table by a bipartite matching between query and candidate
column embeddings. This reproduction keeps the architecture -- per-column
embeddings (see :mod:`.embeddings` for the encoder substitution), an HNSW
index, and greedy bipartite column alignment -- so its qualitative
behaviour matches the paper: very fast in-memory retrieval, and result
sets that differ from BLEND's purely syntactic overlap search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.results import ResultList, TableHit
from ..lake.datalake import DataLake
from ..lake.table import Table
from .embeddings import DEFAULT_DIMENSIONS, cosine_similarity, embed_column
from .hnsw import HnswIndex


@dataclass(frozen=True)
class ColumnRef:
    table_id: int
    column_position: int


class StarmieIndex:
    """Column-embedding + HNSW union-search index."""

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
        # Each column's row in the HNSW's vector matrix (the only copy).
        self._row_of: dict[ColumnRef, int] = {}
        for table_id, table in lake.items():
            for position in range(table.num_columns):
                vector = embed_column(table, position, dimensions)
                if not np.any(vector):
                    continue
                ref = ColumnRef(table_id, position)
                self._row_of[ref] = len(self._hnsw)
                self._hnsw.add(ref, vector)

    # -- search -------------------------------------------------------------------

    def search(
        self,
        query: Table,
        k: int = 10,
        candidates_per_column: int = 50,
        exclude_table_id: int | None = None,
    ) -> ResultList:
        """Top-k unionable tables for *query*.

        Per query column, the ANN index proposes candidate columns; tables
        are then scored by a greedy one-to-one alignment of query columns
        to their best candidate columns (sum of cosine similarities,
        normalised by query width).
        """
        query_vectors = [
            embed_column(query, position, self.dimensions)
            for position in range(query.num_columns)
        ]
        query_vectors = [v for v in query_vectors if np.any(v)]
        if not query_vectors:
            return ResultList()

        # Gather candidate tables from per-column ANN look-ups.
        candidate_tables: set[int] = set()
        for vector in query_vectors:
            for ref, _ in self._hnsw.search(vector, k=candidates_per_column):
                candidate_tables.add(ref.table_id)
        if exclude_table_id is not None:
            candidate_tables.discard(exclude_table_id)

        scored: list[TableHit] = []
        for table_id in candidate_tables:
            table = self.lake.by_id(table_id)
            rows = [
                self._row_of.get(ColumnRef(table_id, position))
                for position in range(table.num_columns)
            ]
            columns = [self._hnsw.vectors[row] for row in rows if row is not None]
            if not columns:
                continue
            score = self._alignment_score(query_vectors, columns)
            scored.append(TableHit(table_id, score))
        scored.sort(key=lambda hit: (-hit.score, hit.table_id))
        return ResultList(scored[:k])

    @staticmethod
    def _alignment_score(
        query_vectors: list[np.ndarray], candidate_vectors: list[np.ndarray]
    ) -> float:
        """Greedy one-to-one bipartite alignment score in [0, 1]."""
        pairs = []
        for qi, qv in enumerate(query_vectors):
            for ci, cv in enumerate(candidate_vectors):
                pairs.append((cosine_similarity(qv, cv), qi, ci))
        pairs.sort(reverse=True)
        used_query: set[int] = set()
        used_candidate: set[int] = set()
        total = 0.0
        for similarity, qi, ci in pairs:
            if qi in used_query or ci in used_candidate:
                continue
            if similarity <= 0:
                break
            used_query.add(qi)
            used_candidate.add(ci)
            total += similarity
        return total / len(query_vectors)

    # -- storage accounting -----------------------------------------------------------

    def storage_bytes(self) -> int:
        # The HNSW's count includes its vector matrix.
        return self._hnsw.storage_bytes()
