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
  one vector matrix, and writes its non-zero weights as typed columns
  into a database relation ``AllVectors(TableId, ColumnId, Dim, Weight)``
  -- the "in-DB embeddings"; load scatters them back;
* every search scans the whole matrix with one row-independent distance
  kernel (:func:`~repro.baselines.embeddings.cosine_distances`), so
  answers are exact, and a shard's scan scores each column exactly as
  the whole lake's does. At the lake sizes this reproduction runs, the
  scan is both faster and more accurate than an HNSW graph, which the
  paper names only as an option the in-DB vectors would enable;
* :class:`SemanticSeeker` (kind ``SS``) plugs into the Plan/combiner
  algebra like any other seeker, so semantic and exact operators compose
  (e.g. ``Intersect(SS($q), SC($q))`` -- tables that match both
  semantically and syntactically).

Optimizer integration: the paper's related-work section notes that
reordering *approximate* operators is non-trivial because it can change
result sets. A SemanticSeeker fetches a bounded number of columns per
wanted table, so it honours rewrites by **post-filtering** its ranked
results (semantics preserved exactly) instead of pre-restricting the
vector search.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Optional

import numpy as np

from ..baselines.embeddings import DEFAULT_DIMENSIONS, cosine_distances, embed_bags, embed_values
from ..engine.database import Database
from ..engine.storage.column_store import DictCodes
from ..errors import SeekerError, SnapshotError
from ..index.alltables import ALLTABLES
from ..lake.table import Cell, normalize_cell
from .results import SeekerPartials, ranked_partials
from .seekers import Rewrite, Seeker, SeekerContext

ALLVECTORS_SCHEMA = [
    ("TableId", "integer"),
    ("ColumnId", "integer"),
    ("Dim", "integer"),
    ("Weight", "float"),
]

# Columns an SS seeker fetches per table it wants: several columns of one
# table may rank high, and rewrite post-filters may drop tables.
COLUMNS_PER_TABLE = 8


class SemanticIndex:
    """Column embeddings, persisted in-DB, searched by an exact scan.
    ``keys[i]`` is the ``(table_id, column_id)`` of matrix row
    ``vectors[i]``; these are the only copy of the vectors in memory.
    Built from the ``AllTables`` relation of *db*, never from lake
    cells."""

    def __init__(self, db: Optional[Database], dimensions: int = DEFAULT_DIMENSIONS) -> None:
        self.dimensions = dimensions
        self.keys: list[tuple[int, int]] = []
        self.vectors = np.zeros((0, dimensions), dtype=np.float64)
        self._norms = np.zeros(0, dtype=np.float64)
        if db is not None:  # None: an empty index (what load fills)
            self._embed(db)

    def _append(self, keys: list, rows: np.ndarray) -> None:
        """Add *rows* under *keys*. Each norm is taken once, row by row
        (a whole-matrix reduction may differ in the last bits); a zero
        row's norm is stored as infinity (see ``cosine_distances``)."""
        self.keys += keys
        self.vectors = np.concatenate([self.vectors, rows])
        norms = [float(np.linalg.norm(row)) or np.inf for row in rows]
        self._norms = np.concatenate([self._norms, norms])

    def _embed(self, db: Database, table_id: Optional[int] = None) -> None:
        """Add the non-zero vectors of every column in ``AllTables`` (or of
        table *table_id*): a column's bag is its GROUP BY rows, ordered by
        ``MIN(RowId)`` -- the bag and order of a scan of its cells."""
        where = "" if table_id is None else " WHERE TableId = :id"
        result = db.execute_columnar(
            "SELECT TableId, ColumnId, CellValue, MIN(RowId), COUNT(*) "
            f"FROM {ALLTABLES}{where} GROUP BY TableId, ColumnId, CellValue",
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
        nonzero = matrix.any(axis=1)
        keys = list(zip(tables[starts][nonzero].tolist(), columns[starts][nonzero].tolist()))
        self._append(keys, matrix[nonzero])

    @property
    def num_columns(self) -> int:
        return len(self.keys)

    # -- lifecycle maintenance -----------------------------------------------------

    def add_table(self, table_id: int, db: Database) -> None:
        """Embed one added (or replacement) table's columns from its
        ``AllTables`` rows and append them to the matrix; the new
        ``AllVectors`` rows are persisted alongside when *db* has them."""
        start = len(self.keys)
        self._embed(db, table_id)
        if db.has_table("AllVectors"):
            db.insert_columns("AllVectors", self._coordinate_columns(start))

    def remove_table(self, table_id: int, db: Optional[Database] = None) -> None:
        """Drop one table's column vectors (the surviving rows keep their
        order). With *db*, the persisted rows are deleted too."""
        keep = np.array([key[0] != table_id for key in self.keys], dtype=bool)
        self.keys = list(compress(self.keys, keep))
        self.vectors, self._norms = self.vectors[keep], self._norms[keep]
        if db is not None and db.has_table("AllVectors"):
            db.delete_rows("AllVectors", "TableId", [table_id])

    def replace_table(self, table_id: int, db: Database) -> None:
        self.remove_table(table_id, db)
        self.add_table(table_id, db)

    def _coordinate_columns(self, start: int = 0) -> list:
        """Typed ``AllVectors`` columns for the vectors from row *start*
        on: one row per non-zero weight, by vector, then dimension."""
        matrix = self.vectors[start:]
        rows, dims = np.nonzero(matrix)
        keys = np.array(self.keys[start:], dtype=np.int64).reshape(-1, 2)[rows]
        return [(keys[:, 0], None), (keys[:, 1], None), (dims, None), (matrix[rows, dims], None)]

    def persist(self, db: Database) -> int:
        """Serialise the embeddings into the ``AllVectors`` relation
        (sparse coordinate layout), enabling in-DB inspection and
        maintenance of the vector index alongside ``AllTables``. Replaces
        an existing ``AllVectors``. Returns rows written."""
        if db.has_table("AllVectors"):
            db.drop_table("AllVectors")
        db.create_table("AllVectors", ALLVECTORS_SCHEMA)
        inserted = db.insert_columns("AllVectors", self._coordinate_columns())
        db.create_index("AllVectors", "TableId")
        return inserted

    def snapshot_meta(self) -> dict:
        """What a snapshot manifest records so :meth:`load` reads the
        persisted ``AllVectors`` relation back (the vectors themselves
        travel in-DB, like everything else)."""
        return {"dimensions": self.dimensions}

    @classmethod
    def load(cls, db: Database, dimensions: int = DEFAULT_DIMENSIONS) -> "SemanticIndex":
        """Read the vector matrix back from the persisted ``AllVectors``
        relation -- the deployment path where vectors live in the
        database."""
        instance = cls(None, dimensions=dimensions)
        result = db.execute_columnar(
            "SELECT TableId, ColumnId, Dim, Weight FROM AllVectors ORDER BY TableId, ColumnId, Dim"
        )
        tables, columns, dims, weights = (data for data, _ in result.arrays)
        # One scatter: a vector starts wherever the sorted key changes.
        starts = np.ones(len(tables), dtype=bool)
        starts[1:] = (tables[1:] != tables[:-1]) | (columns[1:] != columns[:-1])
        repeated = ~starts[1:] & (dims[1:] == dims[:-1])
        if len(dims) and (dims.min() < 0 or dims.max() >= dimensions or repeated.any()):
            raise SnapshotError(f"AllVectors has a repeated Dim or one outside [0, {dimensions})")
        row_of = np.cumsum(starts) - 1
        matrix = np.zeros((int(starts.sum()), dimensions))
        matrix[row_of, dims.astype(np.int64)] = weights
        instance._append(list(zip(tables[starts].tolist(), columns[starts].tolist())), matrix)
        return instance

    def search_columns(self, vector: np.ndarray, k: int) -> list[tuple[tuple[int, int], float]]:
        """Closest *k* columns as ``((table_id, column_id), similarity)``,
        best first: every stored vector is scored in one call of the
        row-independent distance kernel, ties broken on the (table,
        column) key. A column scores the same bits in a shard's matrix as
        in the whole lake's, which is what makes sharded semantic search
        byte-identical to a single process."""
        vector = np.ascontiguousarray(vector, dtype=np.float64)
        norm = float(np.linalg.norm(vector))
        distances = cosine_distances(self.vectors, self._norms, vector, norm)
        # Only rows within the k-th smallest distance (ties included) can rank.
        kth = min(k, len(distances)) - 1
        cut = np.partition(distances, kth)[kth] if kth >= 0 else -np.inf
        rows = np.flatnonzero(distances <= cut).tolist()
        scored = sorted(zip(distances[rows].tolist(), [self.keys[row] for row in rows]))
        return [(key, 1.0 - distance) for distance, key in scored[:k]]

    def storage_bytes(self) -> int:
        return self.vectors.nbytes


class SemanticSeeker(Seeker):
    """SS: top-k tables whose best column is semantically closest to the
    query column (embedding cosine similarity, exact scan).

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
    ) -> None:
        super().__init__(k)
        self.values = list(values)
        if not self.values:
            raise SeekerError("semantic seeker requires at least one value")

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
        The column search is exact, so per-shard partials merge to the
        single-process ranking."""
        context.ensure_fresh()
        semantic = getattr(context, "semantic", None)
        if semantic is None:
            raise SeekerError(
                "semantic index not built; call Blend.enable_semantic() first"
            )
        query_vector = embed_values(self.values, semantic.dimensions)
        if not np.any(query_vector):
            return ranked_partials([], self.k)
        column_hits = semantic.search_columns(query_vector, k=self.k * COLUMNS_PER_TABLE)
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
