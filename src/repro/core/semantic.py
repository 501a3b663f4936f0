"""Semantic discovery extension (the paper's §X future work).

The paper closes: *"It would be interesting to extend our system to
enable the execution and optimization of these [semantic and fuzzy]
operators. This can include incorporation of high-dimensional embeddings
into our index structure. The use of in-DB embeddings would also enable
efficient vector indexing using methods like HNSW or IVFFlat."*

This module implements that extension end to end:

* the offline phase embeds every column of the lake -- its token bag
  derived from ``AllTables`` by one GROUP BY, no lake cell read (see
  :mod:`repro.baselines.embeddings` for the encoder substitution) -- into
  one vector matrix owned by the HNSW index, and writes its non-zero
  weights as typed columns into a database relation ``AllVectors(TableId,
  ColumnId, Dim, Weight)`` -- the "in-DB embeddings"; load scatters them back;
* the HNSW graph over the matrix provides the efficient vector-search
  path and ``exact=True`` scans the whole matrix; both score through the
  HNSW's one row-independent distance kernel, so a shard's exact scan
  scores each column exactly as the whole lake's does;
* :class:`SemanticSeeker` (kind ``SS``) plugs into the Plan/combiner
  algebra like any other seeker, so semantic and exact operators compose
  (e.g. ``Intersect(SS($q), SC($q))`` -- tables that match both
  semantically and syntactically).

Optimizer integration: the paper's related-work section notes that
reordering *approximate* operators is non-trivial because it can change
result sets. Accordingly, a SemanticSeeker honours rewrites by
**post-filtering** its ranked results (semantics preserved exactly)
instead of pre-restricting the vector search.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ..baselines.embeddings import DEFAULT_DIMENSIONS, embed_bags, embed_values
from ..baselines.hnsw import HnswIndex
from ..engine.database import Database
from ..engine.storage.column_store import DictCodes
from ..errors import SeekerError, SnapshotError
from ..lake.table import Cell, normalize_cell
from .results import SeekerPartials, ranked_partials
from .seekers import Rewrite, Seeker, SeekerContext

ALLVECTORS_SCHEMA = [
    ("TableId", "integer"),
    ("ColumnId", "integer"),
    ("Dim", "integer"),
    ("Weight", "float"),
]


class SemanticIndex:
    """Column embeddings, persisted in-DB, searchable via HNSW (whose
    keys and matrix rows are the only copy of the vectors). Built from
    the *index_table* relation (``AllTables``) of *db*, never from lake
    cells."""

    def __init__(
        self,
        db: Optional[Database],
        index_table: str = "AllTables",
        dimensions: int = DEFAULT_DIMENSIONS,
        m: int = 8,
        ef_construction: int = 48,
        seed: int = 0,
    ) -> None:
        self.dimensions = dimensions
        self._m = m
        self._ef_construction = ef_construction
        self._seed = seed
        self._hnsw = self._new_graph()
        if db is not None:  # None: an empty index (what load fills)
            self._embed(db, index_table)

    def _new_graph(self) -> HnswIndex:
        return HnswIndex(self.dimensions, self._m, self._ef_construction, self._seed)

    def _embed(self, db: Database, index_table: str, table_id: Optional[int] = None) -> None:
        """Add the non-zero vectors of every column in *index_table* (or of
        table *table_id*): a column's bag is its GROUP BY rows, ordered by
        ``MIN(RowId)`` -- the bag and order of a scan of its cells."""
        where = "" if table_id is None else " WHERE TableId = :id"
        result = db.execute_columnar(
            "SELECT TableId, ColumnId, CellValue, MIN(RowId), COUNT(*) "
            f"FROM {index_table}{where} GROUP BY TableId, ColumnId, CellValue",
            {"id": table_id}, decode_text=False,
        )
        tables, columns, tokens, first_rows, counts = (data for data, _ in result.arrays)
        order = np.lexsort((first_rows, columns, tables))
        tables, columns, tokens = tables[order], columns[order], tokens[order]
        coded = isinstance(tokens, DictCodes)  # the column store's text codes
        present, codes = np.unique(np.asarray(tokens) if coded else tokens, return_inverse=True)
        vocabulary = (tokens.dictionary[present] if coded else present).tolist()
        starts = np.ones(len(order), dtype=bool)
        starts[1:] = (tables[1:] != tables[:-1]) | (columns[1:] != columns[:-1])
        bags = np.cumsum(starts) - 1
        matrix = embed_bags(bags, codes, counts[order], vocabulary, self.dimensions)
        keys = zip(tables[starts].tolist(), columns[starts].tolist())
        for key, vector in zip(keys, matrix):
            if np.any(vector):
                self._hnsw.add(key, vector)

    @property
    def num_columns(self) -> int:
        return len(self._hnsw)

    # -- lifecycle maintenance -----------------------------------------------------

    def add_table(self, table_id: int, db: Database, index_table: str = "AllTables") -> None:
        """Embed one added (or replacement) table's columns from its
        *index_table* rows and graft them into the vector index; the new
        ``AllVectors`` rows are persisted alongside when *db* has them."""
        start = len(self._hnsw)
        self._embed(db, index_table, table_id)
        if db.has_table("AllVectors"):
            db.insert_columns("AllVectors", self._coordinate_columns(start))

    def remove_table(self, table_id: int, db: Optional[Database] = None) -> None:
        """Drop one table's column vectors. The HNSW graph does not
        support deletion (links would dangle), so it is rebuilt from the
        surviving vectors -- still offline-phase work, and exactly what a
        fresh :meth:`load` of the maintained ``AllVectors`` relation
        would produce. With *db*, the persisted rows are deleted too."""
        old = self._hnsw
        survivors = [row for row, key in enumerate(old.keys) if key[0] != table_id]
        if len(survivors) < len(old):
            self._hnsw = self._new_graph()
            for row in survivors:
                self._hnsw.add(old.keys[row], old.vectors[row])
        if db is not None and db.has_table("AllVectors"):
            db.delete_rows("AllVectors", "TableId", [table_id])

    def replace_table(self, table_id: int, db: Database, index_table: str = "AllTables") -> None:
        self.remove_table(table_id, db)
        self.add_table(table_id, db, index_table)

    def _coordinate_columns(self, start: int = 0) -> list:
        """Typed ``AllVectors`` columns for the vectors from row *start*
        on: one row per non-zero weight, by vector, then dimension."""
        matrix = self._hnsw.vectors[start:]
        rows, dims = np.nonzero(matrix)
        keys = np.array(self._hnsw.keys[start:], dtype=np.int64).reshape(-1, 2)[rows]
        return [(keys[:, 0], None), (keys[:, 1], None), (dims, None), (matrix[rows, dims], None)]

    def persist(self, db: Database, table_name: str = "AllVectors") -> int:
        """Serialise the embeddings into a database relation (sparse
        coordinate layout), enabling in-DB inspection and maintenance of
        the vector index alongside ``AllTables``. Replaces an existing
        relation of that name. Returns rows written."""
        if db.has_table(table_name):
            db.drop_table(table_name)
        db.create_table(table_name, ALLVECTORS_SCHEMA)
        inserted = db.insert_columns(table_name, self._coordinate_columns())
        db.create_index(table_name, "TableId")
        return inserted

    def snapshot_meta(self) -> dict:
        """Construction parameters a snapshot manifest records so
        :meth:`load` rebuilds an identical vector index from the
        persisted ``AllVectors`` relation (the vectors themselves travel
        in-DB, like everything else)."""
        return {
            "dimensions": self.dimensions,
            "seed": self._seed,
            "m": self._m,
            "ef_construction": self._ef_construction,
        }

    @classmethod
    def load(
        cls, db: Database, table_name: str = "AllVectors",
        dimensions: int = DEFAULT_DIMENSIONS, seed: int = 0,
        m: Optional[int] = None, ef_construction: Optional[int] = None,
    ) -> "SemanticIndex":
        """Rebuild the in-memory HNSW from the persisted relation --
        the deployment path where vectors live in the database. Pass
        *m* / *ef_construction* (e.g. from :meth:`snapshot_meta`) to
        reconstruct with the exact graph parameters of the saved index;
        left ``None``, the HNSW defaults apply."""
        # Manifests without graph parameters get the HNSW's defaults.
        instance = cls(
            None, dimensions=dimensions, seed=seed, m=8 if m is None else m,
            ef_construction=64 if ef_construction is None else ef_construction,
        )
        result = db.execute_columnar(
            f"SELECT TableId, ColumnId, Dim, Weight FROM {table_name} "
            "ORDER BY TableId, ColumnId, Dim"
        )
        tables, columns, dims, weights = (data for data, _ in result.arrays)
        # One scatter: a vector starts wherever the sorted key changes.
        starts = np.ones(len(tables), dtype=bool)
        starts[1:] = (tables[1:] != tables[:-1]) | (columns[1:] != columns[:-1])
        repeated = ~starts[1:] & (dims[1:] == dims[:-1])
        if len(dims) and (dims.min() < 0 or dims.max() >= dimensions or repeated.any()):
            raise SnapshotError(f"{table_name} has a repeated Dim or one outside [0, {dimensions})")
        row_of = np.cumsum(starts) - 1
        matrix = np.zeros((int(starts.sum()), dimensions))
        matrix[row_of, dims.astype(np.int64)] = weights
        for key, vector in zip(zip(tables[starts].tolist(), columns[starts].tolist()), matrix):
            instance._hnsw.add(key, vector)
        return instance

    def search_columns(
        self,
        vector: np.ndarray,
        k: int,
        ef: Optional[int] = None,
        exact: bool = False,
    ) -> list[tuple[tuple[int, int], float]]:
        """Closest *k* columns as ``((table_id, column_id), similarity)``,
        best first. ``exact=True`` scores every stored vector in one call
        of the HNSW's row-independent distance kernel, ties broken on the
        (table, column) key -- deterministic and graph-independent, and a
        column scores the same bits in a shard's matrix as in the whole
        lake's, which is what makes sharded semantic search
        byte-identical to a single process at any scale (the HNSW beam
        is only exhaustive on small indexes)."""
        if exact:
            vector = np.ascontiguousarray(vector, dtype=np.float64)
            distances = self._hnsw.distances(vector, float(np.linalg.norm(vector)))
            # Only rows within the k-th smallest distance (ties included) can rank.
            kth = min(k, len(distances)) - 1
            cut = np.partition(distances, kth)[kth] if kth >= 0 else -np.inf
            rows = np.flatnonzero(distances <= cut).tolist()
            scored = sorted(zip(distances[rows].tolist(), [self._hnsw.keys[row] for row in rows]))
            return [(key, 1.0 - distance) for distance, key in scored[:k]]
        # The beam must cover at least k candidates or the top-k result
        # silently truncates to the beam's survivors; clamp per query
        # rather than trusting the graph's default (the exact lane above
        # needs no clamp -- it scores every stored vector).
        if ef is not None and ef < k:
            ef = k
        return self._hnsw.search(vector, k=k, ef=ef)

    def storage_bytes(self) -> int:
        return self._hnsw.storage_bytes()  # the HNSW counts its vector matrix


class SemanticSeeker(Seeker):
    """SS: top-k tables whose best column is semantically closest to the
    query column (embedding cosine similarity via HNSW).

    Scores are cosine similarities in [0, 1]-ish -- a different scale
    from overlap counts, which is fine for Counter/Intersect/Difference
    composition (they operate on table id sets) but means Union score
    sums mix units, exactly as when the paper unions heterogeneous
    seekers.
    """

    kind = "SS"

    def __init__(
        self,
        values: Iterable[Cell],
        k: int = 10,
        overfetch: int = 4,
        exact: bool = False,
    ) -> None:
        super().__init__(k)
        self.values = list(values)
        if not self.values:
            raise SeekerError("semantic seeker requires at least one value")
        if overfetch < 1:
            raise SeekerError("overfetch must be >= 1")
        self.overfetch = overfetch
        self.exact = exact

    def sql(self, rewrite: Optional[Rewrite] = None) -> str:
        raise SeekerError(
            "the semantic seeker runs on the vector index, not SQL; "
            "see SemanticIndex.persist for the in-DB representation"
        )

    def params(self, rewrite: Optional[Rewrite] = None) -> dict:
        return {}

    def partials(
        self, context: SeekerContext, rewrite: Optional[Rewrite] = None
    ) -> SeekerPartials:
        """Best-similarity-per-table rows, best-first, cut at *k* -- a
        ranked partial over this context's shard of the vector index.

        Sharded caveat: per-shard partials merge to the single-process
        ranking exactly when the column search is deterministic -- either
        ``exact=True`` (brute force, any scale) or an exhaustive beam
        (``ef`` at least the shard's column count -- always true at test
        scale). With a genuinely approximate beam, the merge is as
        approximate as the underlying HNSW itself.
        """
        context.ensure_fresh()
        semantic = getattr(context, "semantic", None)
        if semantic is None:
            raise SeekerError(
                "semantic index not built; call Blend.enable_semantic() first"
            )
        query_vector = embed_values(self.values, semantic.dimensions)
        if not np.any(query_vector):
            return ranked_partials([], self.k)
        # Over-fetch columns: several columns of one table may rank high,
        # and rewrite post-filters may drop tables.
        column_hits = semantic.search_columns(
            query_vector, k=self.k * self.overfetch * 2, exact=self.exact
        )
        best_per_table: dict[int, float] = {}
        for (table_id, _), similarity in column_hits:
            if similarity > best_per_table.get(table_id, float("-inf")):
                best_per_table[table_id] = similarity
        ranked = sorted(best_per_table.items(), key=lambda item: (-item[1], item[0]))

        if rewrite is not None:
            # Approximate operators honour rewrites by post-filtering, so
            # optimization never changes what a semantic seeker would
            # report for the surviving tables (see module docstring).
            allowed = set(rewrite.table_ids)
            if rewrite.mode == "intersect":
                ranked = [item for item in ranked if item[0] in allowed]
            elif rewrite.mode == "difference":
                ranked = [item for item in ranked if item[0] not in allowed]
            else:
                raise SeekerError(f"unknown rewrite mode: {rewrite.mode}")
        return ranked_partials(ranked[: self.k], self.k)

    def query_cardinality(self) -> int:
        return len(self.values)

    def query_columns(self) -> int:
        return 1

    def query_tokens(self) -> list[str]:
        return [t for t in (normalize_cell(v) for v in self.values) if t is not None]
