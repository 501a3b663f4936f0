"""Offline indexing: lake -> the unified ``AllTables`` relation (paper §V).

``AllTables`` serialises three index structures into one database table:

====================  =====================================================
Column                Origin
====================  =====================================================
CellValue (text)      DataXFormer inverted index (value -> location)
TableId / ColumnId /
RowId (int)           DataXFormer location triplet
SuperKey (int)        MATE's XASH hash of the cell's whole row
Quadrant (bool/NULL)  BLEND's reformulated QCR statistic
====================  =====================================================

Two in-database hash indexes (CellValue, TableId) provide fast value
look-up and table loading. All seekers run as SQL over this one relation.

One build pipeline writes the relation, for the offline build and the
incremental maintenance entry points alike (:func:`build_alltables`,
:func:`index_table`, :func:`reindex_table`):

1. **queue** (:func:`_table_parts`): each table's rows (permuted under
   ``shuffle_rows``) join a ~200k-cell flush buffer, and its Quadrant
   bits come from one matrix pass;
2. **encode** (:func:`_encode_part`): each buffer's cells become tokens
   through ONE :func:`~repro.lake.table.normalize_tokens` call -- the
   tokeniser every other path uses -- and one token -> code dict gives
   first-seen codes; the batch is laid out as aligned id / code /
   quadrant columns with the (table, row) segments that the super-key
   fold needs;
3. **merge** (:func:`_merge_and_insert`): the batches' token dictionaries
   are recoded into one global sorted dictionary, XASH runs over the
   *unique* tokens only (:func:`repro.index.xash.xash_batch`), super keys
   are OR-reduced per row, and everything is bulk-appended through the
   typed ``insert_columns`` API.

The whole pipeline runs in-process, in one mode; the cell-at-a-time
reference loop it is pinned against lives in
``tests/oracles/alltables_scalar.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import ClassVar, Iterable, Optional

import numpy as np

from ..engine.database import Database
from ..engine.storage.column_store import DictEncodedText
from ..errors import IndexingError
from ..lake.datalake import DataLake
from ..lake.table import Table, normalize_tokens
from .quadrant import column_quadrant_matrix
from .xash import (
    DEFAULT_HASH_SIZE,
    DEFAULT_NUM_CHARS,
    segmented_or,
    xash_batch,
)

ALLTABLES = "AllTables"  # the one index relation every seeker reads
ALLTABLES_SCHEMA = [
    ("CellValue", "nvarchar"),
    ("TableId", "integer"),
    ("ColumnId", "integer"),
    ("RowId", "integer"),
    ("SuperKey", "bigint"),
    ("Quadrant", "boolean"),
]

# Bulk-ingest flush threshold (index rows buffered before insert_columns).
_FLUSH_ROWS = 200_000


def shuffle_permutation(shuffle_seed: int, table_id: int, num_rows: int) -> list[int]:
    """The BLEND (rand) row permutation of one table.

    Seeded by ``(shuffle_seed, table_id)`` alone -- a stable per-table
    hash, not a position in a build-wide rng sequence -- so the
    permutation of any single table is reproducible in isolation. That
    is what makes shuffled configs *maintainable*: ``index_table`` /
    ``reindex_table`` re-derive exactly the permutation a from-scratch
    build would assign, no matter which tables came before. (The string
    seed goes through ``random.Random``'s sha512 path, deterministic
    across processes and Python versions.)
    """
    rng = random.Random(f"blend-shuffle:{shuffle_seed}:{table_id}")
    perm = list(range(num_rows))
    rng.shuffle(perm)
    return perm


@dataclass(frozen=True)
class IndexConfig:
    """Offline-phase knobs.

    The index relation is always ``AllTables``: ``table_name`` is a
    read-only class attribute, not a setting.

    ``hash_size`` > 63 (MATE's 128-bit XASH variant) only fits the row
    backend -- the column store's ``SuperKey`` column is int64, and the
    build rejects the combination up front, as it does a ``hash_size``,
    ``xash_chars`` or ``semantic_dimensions`` below 1.
    """

    table_name: ClassVar[str] = ALLTABLES
    hash_size: int = DEFAULT_HASH_SIZE
    xash_chars: int = DEFAULT_NUM_CHARS
    shuffle_rows: bool = False  # BLEND (rand): pre-shuffle rows per table
    shuffle_seed: int = 0
    # Semantic extension: build AllVectors + its matrix alongside AllTables,
    # so build/load/shard paths configure it uniformly (SS and HY seekers
    # need it). Blend.enable_semantic() flips this on after the fact.
    semantic: bool = False
    semantic_dimensions: int = 64


@dataclass(frozen=True)
class IndexBuildReport:
    """What the offline phase produced."""

    num_tables: int
    num_index_rows: int
    num_null_cells: int
    storage_bytes: int


def build_alltables(
    lake: DataLake,
    db: Database,
    config: IndexConfig = IndexConfig(),
) -> IndexBuildReport:
    """Index *lake* into *db* as one ``AllTables`` relation.

    With ``shuffle_rows`` the rows of each lake table are permuted (whole
    rows, so multi-column alignment is preserved) before RowIds are
    assigned. This is the BLEND (rand) variant of §VIII-G: the correlation
    seeker's ``RowId < h`` convenience sample then behaves like a random
    sample without any runtime sampling machinery. Each table's
    permutation is seeded independently from ``(shuffle_seed,
    table_id)`` (:func:`shuffle_permutation`), so the incremental
    maintenance paths reproduce it exactly.
    """
    if db.has_table(ALLTABLES):
        raise IndexingError(
            f"database already contains {ALLTABLES!r}; "
            "drop it or index into a fresh database"
        )
    _check_hash_width(config, db)
    _check_config(config)
    db.create_table(ALLTABLES, ALLTABLES_SCHEMA)
    try:
        # The offline build emits rows in (TableId, RowId, ColumnId)
        # order; declaring it as the clustering order lets storage
        # compaction (after remove/replace maintenance) restore exactly
        # this layout, which is what makes compacted storage
        # byte-identical to a fresh build.
        db.set_cluster_keys(ALLTABLES, ("TableId", "RowId", "ColumnId"))
        parts = _encode_tables(lake.items(), config)
        _merge_and_insert(db, config, parts)
        db.create_index(ALLTABLES, "CellValue")
        db.create_index(ALLTABLES, "TableId")
    except BaseException:
        # A half-built, index-less relation must not outlive the failure:
        # it would make the retry die on "already contains".
        db.drop_table(ALLTABLES)
        raise

    return IndexBuildReport(
        num_tables=len(lake),
        num_index_rows=db.num_rows(ALLTABLES),
        num_null_cells=sum(part.null_count for part in parts),
        storage_bytes=db.storage_bytes(ALLTABLES),
    )


def _check_hash_width(config: IndexConfig, db: Database) -> None:
    """Reject super keys that cannot be stored, with a clear error instead
    of an OverflowError deep inside the ingest."""
    if config.hash_size > 63 and db.backend == "column":
        raise IndexingError(
            f"hash_size={config.hash_size} super keys exceed the column "
            "store's int64 SuperKey column; use hash_size <= 63 or the "
            "row backend"
        )


def _check_config(config: IndexConfig) -> None:
    """Reject sizes no build can honour, before any relation exists:
    below 1 they otherwise surface as a divide-by-zero warning, an
    ``OverflowError`` or a silently mis-hashed index."""
    for name in ("hash_size", "xash_chars", "semantic_dimensions"):
        if getattr(config, name) < 1:
            raise IndexingError(
                f"IndexConfig.{name} must be >= 1, got {getattr(config, name)}"
            )


# --------------------------------------------------------------------------
# Queue: table rows + quadrant bits
# --------------------------------------------------------------------------


class _TableParts:
    """One lake table queued for the next flush: its rows in emission
    order (permuted under ``shuffle_rows``) and its per-cell quadrant
    bits, row-major. Tokenisation and hashing are deferred to flush/merge
    time so the tokeniser, XASH and the dictionary sort run over
    ~200k-cell buffers rather than once per table."""

    __slots__ = ("table_id", "rows", "quadrant", "num_rows", "num_cols")

    def __init__(self, table_id, rows, quadrant, num_rows, num_cols):
        self.table_id = table_id
        self.rows = rows
        self.quadrant = quadrant
        self.num_rows = num_rows
        self.num_cols = num_cols


def _table_parts(
    table_id: int,
    table: Table,
    numeric_memo: dict,
    perm: Optional[list[int]] = None,
) -> Optional[_TableParts]:
    """Queue one lake table (its rows in emission order plus its
    Quadrant bits); ``None`` for empty tables. *numeric_memo* caches
    ``numeric_value`` per distinct cell across one flush."""
    n_rows, n_cols = table.num_rows, table.num_columns
    if n_rows * n_cols == 0:
        return None
    _, quad = column_quadrant_matrix(table, numeric_memo)
    rows = table.rows
    if perm is not None:
        quad = quad[np.asarray(perm, dtype=np.int64)]
        rows = [rows[i] for i in perm]
    return _TableParts(table_id, rows, quad.reshape(-1), n_rows, n_cols)


class _ShardPart:
    """One flush buffer, encoded and ready to merge.

    All arrays are aligned on the part's non-null cells in emission order
    (row-major within each table, tables in id order). ``codes`` index
    into the part-local ``tokens`` dictionary (first-seen order); the
    merge recodes them into the global sorted dictionary. ``row_starts``
    marks the (table, row) segments, so the super-key fold can run once
    the global dictionary is hashed. An all-null batch keeps only its
    ``null_count``; every array field is ``None``.
    """

    __slots__ = (
        "codes",
        "tokens",
        "table_ids",
        "column_ids",
        "row_ids",
        "quadrant",
        "row_starts",
        "null_count",
    )

    def __init__(self, codes, tokens, table_ids, column_ids, row_ids, quadrant,
                 row_starts, null_count):
        self.codes = codes
        self.tokens = tokens
        self.table_ids = table_ids
        self.column_ids = column_ids
        self.row_ids = row_ids
        self.quadrant = quadrant
        self.row_starts = row_starts
        self.null_count = null_count


def _encode_part(buffer: list[_TableParts]) -> _ShardPart:
    """Encode one buffered batch of tables into a :class:`_ShardPart`.

    The batch's cells are tokenised by ONE :func:`normalize_tokens` call
    and coded against the batch's token dictionary in first-seen order
    (the merge recodes it against the global sorted dictionary). The
    id/quadrant columns are laid out filtered by the batch-wide non-null
    mask, and the (table, row) segment starts are kept so the super-key
    fold can run against globally-hashed tokens at merge time. All-null
    batches yield a part whose array fields are ``None`` (only the NULL
    count survives).
    """
    cell_tokens = normalize_tokens(
        list(chain.from_iterable(chain.from_iterable(parts.rows for parts in buffer)))
    )
    first_seen = dict.fromkeys(cell_tokens)
    first_seen.pop(None, None)
    code_of = dict(zip(first_seen, range(len(first_seen))))
    code_of[None] = -1
    raw_codes = np.fromiter(
        map(code_of.__getitem__, cell_tokens), dtype=np.int32, count=len(cell_tokens)
    )
    quadrant = _concat([parts.quadrant for parts in buffer])
    non_null = raw_codes >= 0
    null_count = len(raw_codes) - int(non_null.sum())
    if null_count == len(raw_codes):
        return _ShardPart(None, None, None, None, None, None, None, null_count)

    tokens = np.empty(len(first_seen), dtype=object)
    tokens[:] = list(first_seen)
    cell_codes = raw_codes[non_null]
    cells_per_table = np.array(
        [parts.num_rows * parts.num_cols for parts in buffer], dtype=np.int64
    )

    # Per-table id columns, filtered by the buffer-wide non-null mask.
    column_ids = _concat(
        [
            np.tile(np.arange(parts.num_cols, dtype=np.int64), parts.num_rows)
            for parts in buffer
        ]
    )[non_null]
    row_ids_full = _concat(
        [
            np.repeat(np.arange(parts.num_rows, dtype=np.int64), parts.num_cols)
            for parts in buffer
        ]
    )
    table_ids = np.repeat(
        np.array([parts.table_id for parts in buffer], dtype=np.int64),
        cells_per_table,
    )[non_null]

    # Global row numbering across the buffer keeps every (table, row)
    # segment contiguous and ascending, so one segmented OR covers all
    # buffered tables; rows with no non-null cells never appear and rows
    # never span flushes (tables are buffered whole). Derived from the
    # already-built local row ids by shifting each table's span.
    offsets = np.cumsum([0] + [parts.num_rows for parts in buffer][:-1])
    global_rows = (row_ids_full + np.repeat(offsets, cells_per_table))[non_null]
    total_rows = int(offsets[-1]) + buffer[-1].num_rows
    counts = np.bincount(global_rows, minlength=total_rows)
    occupied = counts > 0
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))[occupied]

    return _ShardPart(
        cell_codes,
        tokens,
        table_ids,
        column_ids,
        row_ids_full[non_null],
        quadrant[non_null],
        starts.astype(np.int64),
        null_count,
    )


def _fold_super_keys(part: _ShardPart, cell_hashes: np.ndarray) -> np.ndarray:
    """Per-cell super keys: OR-reduce the cell hashes over the part's
    (table, row) segments and broadcast each row's key back."""
    seg = segmented_or(cell_hashes, part.row_starts)
    seg_counts = np.diff(np.append(part.row_starts, len(part.codes)))
    return np.repeat(seg, seg_counts)


def _insert_part(
    db: Database,
    part: _ShardPart,
    codes: np.ndarray,
    dictionary: np.ndarray,
    super_keys: np.ndarray,
) -> int:
    """Bulk-append one encoded part; the sorted *dictionary* doubles as
    the CellValue dictionary, so the store skips its own np.unique pass."""
    return db.insert_columns(
        ALLTABLES,
        [
            (DictEncodedText(codes, dictionary), None),
            (part.table_ids, None),
            (part.column_ids, None),
            (part.row_ids, None),
            (super_keys, None),
            (part.quadrant, None),
        ],
    )


def _concat(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


# --------------------------------------------------------------------------
# Encode, merge
# --------------------------------------------------------------------------


def _encode_tables(tables: Iterable[tuple[int, Table]], config: IndexConfig) -> list[_ShardPart]:
    """Queue every ``(table_id, table)`` pair with its Quadrant bits,
    flushing ~``_FLUSH_ROWS``-cell batches (whole tables, one fresh
    numeric memo each) into encoded parts, in table order."""
    parts: list[_ShardPart] = []
    numeric_memo: dict = {}
    buffer: list[_TableParts] = []
    buffered = 0
    for table_id, table in tables:
        perm = None
        if config.shuffle_rows:
            perm = shuffle_permutation(config.shuffle_seed, table_id, table.num_rows)
        table_parts = _table_parts(table_id, table, numeric_memo, perm)
        if table_parts is not None:
            buffer.append(table_parts)
            buffered += table_parts.num_rows * table_parts.num_cols
        if buffered >= _FLUSH_ROWS:
            parts.append(_encode_part(buffer))
            buffer, buffered = [], 0
            numeric_memo = {}
    if buffer:
        parts.append(_encode_part(buffer))
    return parts


def _merge_and_insert(db: Database, config: IndexConfig, parts: list[_ShardPart]) -> int:
    """Deterministic merge: recode every part's local token codes into
    one global sorted dictionary (one ``np.unique`` over the concatenated
    part dictionaries; its inverse *is* each part's local -> global
    remap), XASH that dictionary once, fold each part's super keys over
    its row segments and bulk-append the parts in order. Every part
    shares the single global dictionary object, so the column store's
    incremental seal concatenates code arrays without re-deriving a
    union. Returns the number of index rows inserted.
    """
    live = [part for part in parts if part.codes is not None]
    if not live:
        return 0
    global_dict, remap = np.unique(
        _concat([part.tokens for part in live]), return_inverse=True
    )
    remap = remap.astype(np.int32)
    global_hashes = xash_batch(global_dict.tolist(), config.hash_size, config.xash_chars)
    inserted = 0
    offset = 0
    for part in live:
        codes = remap[offset : offset + len(part.tokens)][part.codes]
        offset += len(part.tokens)
        super_keys = _fold_super_keys(part, global_hashes[codes])
        inserted += _insert_part(db, part, codes, global_dict, super_keys)
    return inserted


# --------------------------------------------------------------------------
# Incremental maintenance
# --------------------------------------------------------------------------


def _check_maintenance(db: Database, config: IndexConfig) -> None:
    """Shared guards of the incremental maintenance entry points.

    ``shuffle_rows`` configs are maintainable since the permutation
    became a per-table seeded hash (:func:`shuffle_permutation`): the
    maintenance paths re-derive any one table's permutation without
    replaying a build-wide rng sequence.
    """
    if not db.has_table(ALLTABLES):
        raise IndexingError(
            f"no {ALLTABLES!r} relation; run build_alltables first"
        )
    _check_hash_width(config, db)
    _check_config(config)


def index_table(
    table_id: int,
    table,
    db: Database,
    config: IndexConfig = IndexConfig(),
) -> int:
    """Incrementally index one lake table into an existing ``AllTables``.

    The single-relation design is what makes maintenance this simple
    (paper §V: heterogeneous per-system indexes are the alternative) --
    appending a table is a plain INSERT; the in-database hash indexes
    absorb the new rows. Runs the same pipeline as ``build_alltables``
    over the one table. Returns the number of index rows added.
    """
    _check_maintenance(db, config)
    parts = _encode_tables([(table_id, table)], config)
    return _merge_and_insert(db, config, parts)


def deindex_table(
    table_id: int,
    db: Database,
    config: IndexConfig = IndexConfig(),
) -> int:
    """Remove one table's rows from ``AllTables`` (and from the semantic
    extension's ``AllVectors`` relation, when it was persisted).

    The single-relation layout makes removal one predicate delete --
    ``TableId IN (table_id)`` -- that cannot touch any other table's rows
    or super keys; storage tombstones the rows until an explicit
    compaction. Returns the number of ``AllTables`` rows removed.
    """
    _check_maintenance(db, config)
    removed = db.delete_rows(ALLTABLES, "TableId", [table_id])
    if db.has_table("AllVectors"):
        db.delete_rows("AllVectors", "TableId", [table_id])
    return removed


def reindex_table(
    table_id: int,
    table,
    db: Database,
    config: IndexConfig = IndexConfig(),
) -> tuple[int, int]:
    """Replace one table's rows in ``AllTables``: delete the old rows,
    append the new ones (same ``table_id``). Returns
    ``(rows_removed, rows_added)``.
    """
    _check_maintenance(db, config)
    removed = db.delete_rows(ALLTABLES, "TableId", [table_id])
    added = index_table(table_id, table, db, config)
    return removed, added
