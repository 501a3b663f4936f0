"""Columnar storage backend ("the commercial column store" in the paper).

Each column is held as a NumPy array: integers/floats as numeric arrays
with a validity mask, text dictionary-encoded as int32 codes over a sorted
value dictionary, booleans as int8 with ``-1`` for NULL. The vectorised
executor (:mod:`..sql.executor_column`) operates on these arrays directly,
which is what makes BLEND's scan-heavy seeker queries an order of
magnitude faster here than on the row store (paper Figs. 5 and 7).

Rows enter a table through one append, ``insert_columns``: already-typed
``(data, null_mask)`` column chunks, text dictionary-encoded via
``np.unique``. The vectorised ``AllTables`` builder calls it directly;
``Database.insert`` coerces Python rows and transposes them into such
chunks first.

Every table is an **immutable base plus a delta**. The first non-empty
seal becomes the base -- the offline build's bulk load, or the arrays a
snapshot load adopts (typically read-only ``np.memmap`` views shared by
every worker mapping the same snapshot). The base is never rewritten
between compactions: every later seal merges its rows into the *delta
segment*, one extra ``_ColumnData`` run per column. Reads serve the
concatenation (storage position ``p`` lives in the base when ``p <
len(base)``, else at ``p - len(base)`` in the delta); text columns
expose a lazily-cached sorted union dictionary over both segments so
dictionary-code consumers keep the code-order == string-order contract.

Deletes (``delete_rows``) are **tombstones**: a boolean mask over base ∪
delta marks dead rows, and every public read API serves the *live* view
(row numbering skips the dead rows, so the executor never sees them). A
delete never rewrites storage. Only an explicit :meth:`compact` does:
it folds both segments into a fresh base, drops the tombstoned rows,
re-encodes text dictionaries down to the surviving values and (when
``cluster_keys`` is set) re-sorts rows into the declared clustering
order -- compacted storage is byte-identical to a fresh bulk load of the
same rows, which is what the background snapshot compactor persists as
the next base generation.

Secondary indexes are *declared* once (``create_index``) and survive
mutations: ``insert_columns`` appends merge each new chunk's sorted run
into the existing postings (no full re-argsort). Postings are in
**storage** coordinates over base ∪ delta with tombstoned rows
included -- look-ups filter dead positions and translate to the live
coordinates every other read API speaks -- so postings never need
rebuilding after a delete, and a delete on an indexed
column (``AllTables.TableId``) is O(rows deleted): it tombstones the
positions its postings name, buffered rows included, and never seals.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

import numpy as np

from ...errors import CatalogError, ExecutionError
from ..types import SqlType
from .catalog import TableSchema

# A bulk-ingest column chunk: (data, null_mask). ``null_mask`` may be None
# when the chunk has no NULLs. Accepted dtypes per column type:
# TEXT -> object array of str (or a pre-encoded DictEncodedText),
# INTEGER -> any int dtype, FLOAT -> any float dtype, BOOLEAN -> bool/int
# dtype (int8 with -1 meaning NULL is accepted directly when null_mask is
# None).
ColumnChunk = tuple[np.ndarray, Optional[np.ndarray]]


class DictEncodedText:
    """A text chunk already dictionary-encoded by the producer.

    ``dictionary`` must be a *sorted* array of distinct strings and
    ``codes`` int32 positions into it (``-1`` = NULL) -- exactly what
    ``np.unique(..., return_inverse=True)`` yields. Passing this instead
    of raw strings lets a bulk producer that already deduplicated its
    tokens (the ``AllTables`` ingest does, for XASH) skip the store's own
    ``np.unique`` sort.
    """

    __slots__ = ("codes", "dictionary")

    def __init__(self, codes: np.ndarray, dictionary: np.ndarray) -> None:
        self.codes = np.asarray(codes, dtype=np.int32)
        self.dictionary = np.asarray(dictionary, dtype=object)

    def __len__(self) -> int:
        return len(self.codes)


def validate_chunk(schema: TableSchema, columns: Sequence[ColumnChunk]) -> int:
    """Shared bulk-ingest chunk validation (both backends): width must
    match the schema, all columns equal length. Returns the row count."""
    if len(columns) != len(schema.columns):
        raise ExecutionError(
            f"chunk width {len(columns)} does not match table "
            f"{schema.name!r} width {len(schema.columns)}"
        )
    lengths = {len(data) for data, _ in columns}
    if len(lengths) > 1:
        raise ExecutionError(f"ragged column chunk: lengths {sorted(lengths)}")
    return lengths.pop() if lengths else 0


class DictCodes(np.ndarray):
    """An int32 code array that remembers its (sorted) text dictionary.

    This is how dictionary-encoded text flows through the vectorised
    executor *without* materialising strings: the planner marks scan
    columns whose every consumer is code-safe (grouping, COUNT(DISTINCT),
    pass-through projection), the scan delivers this view instead of
    gathered strings, and decoding happens only at result-materialisation
    time. Because the dictionary is sorted, code order equals string
    order, so factorisation and grouping on raw codes are exact.

    Fancy indexing preserves the class and its dictionary
    (``__array_finalize__``), so codes survive gathers, group
    representatives, and batch slicing unchanged.
    """

    def __new__(cls, codes: np.ndarray, dictionary: np.ndarray) -> "DictCodes":
        obj = np.asarray(codes, dtype=np.int32).view(cls)
        obj.dictionary = dictionary
        return obj

    def __array_finalize__(self, obj) -> None:
        if obj is not None:
            self.dictionary = getattr(obj, "dictionary", None)

    def decode(self) -> np.ndarray:
        """Materialise the strings (``None`` at NULL positions, code -1)."""
        null = np.asarray(self) < 0
        base = np.asarray(np.maximum(self, 0))
        if self.dictionary is not None and len(self.dictionary):
            out = self.dictionary[base].copy()
        else:
            out = np.empty(len(self), dtype=object)
        out[null] = None
        return out


def decode_if_coded(data: np.ndarray) -> np.ndarray:
    """Plain data array for *data*: dictionary codes are decoded to their
    object-string form, anything else passes through untouched."""
    return data.decode() if isinstance(data, DictCodes) else data


class _ColumnData:
    """One sealed column: typed array + null mask (or codes + dictionary)."""

    __slots__ = ("sql_type", "data", "null", "codes", "dictionary", "code_of", "has_null")

    def __init__(self, sql_type: SqlType) -> None:
        self.sql_type = sql_type
        self.data: Optional[np.ndarray] = None  # numeric / bool storage
        self.null: Optional[np.ndarray] = None
        self.codes: Optional[np.ndarray] = None  # text storage
        self.dictionary: Optional[np.ndarray] = None  # object array of str
        self.code_of: Optional[dict[str, int]] = None
        self.has_null: Optional[bool] = None  # numeric: any True in null, cached


class ColumnTable:
    """Dictionary-encoded, mask-validated columnar table."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        # Encoded-but-unmerged ingest batches, in arrival order. Kept as a
        # backlog so an F-flush bulk load pays ONE multiway merge at first
        # read instead of re-merging all prior rows on every flush.
        self._backlog: list[list[_ColumnData]] = []
        self._sealed: Optional[list[_ColumnData]] = None  # the base segment
        self._delta: Optional[list[_ColumnData]] = None
        self._num_rows = 0  # live rows (appends - deletes)
        # Declared index columns (lowercased) vs their materialised
        # postings: declarations survive every mutation; postings are
        # maintained incrementally on appends and materialised lazily
        # after a snapshot load or a compaction.
        self._index_columns: set[str] = set()
        self._indexes: dict[str, dict[Any, np.ndarray]] = {}
        self._deleted: Optional[np.ndarray] = None  # tombstones over sealed rows
        self._num_deleted = 0
        self._live: Optional[np.ndarray] = None  # cached live storage positions
        self.cluster_keys: tuple[str, ...] = ()
        self.compactions = 0  # bumped per physical compaction
        # Per-text-column cache of (union dictionary, base code remap,
        # delta code remap) over both segments; dropped when the delta
        # grows.
        self._merged_text: dict[int, tuple] = {}

    # -- loading ---------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._num_rows

    # -- snapshots ---------------------------------------------------------------

    def snapshot_columns(self) -> tuple[list[_ColumnData], Optional[np.ndarray]]:
        """The sealed storage state a snapshot persists: one
        :class:`_ColumnData` per schema column (buffered batches merged
        first, so the arrays are exactly what a reader would see) plus
        the tombstone mask, ``None`` while the table holds no deletes.

        Base + delta fold into fresh merged arrays *without* touching
        the table: a full save of a mutated loaded table must not cost
        this process (or its siblings) the shared base mmap."""
        return self._folded(), self._deleted

    def _folded(self) -> list[_ColumnData]:
        """Base ∪ delta as one segment per column. Storage positions are
        preserved (delta row ``i`` sits at ``len(base) + i``), so the
        tombstone mask and index postings stay valid over the result."""
        sealed = self._seal()
        if self._delta is None:
            return sealed
        return [_merge_many(pair) for pair in zip(sealed, self._delta)]

    @classmethod
    def from_snapshot(
        cls,
        schema: TableSchema,
        columns: list[_ColumnData],
        num_rows: int,
        deleted: Optional[np.ndarray] = None,
        num_deleted: int = 0,
        index_columns: Iterable[str] = (),
        cluster_keys: Sequence[str] = (),
        compactions: int = 0,
    ) -> "ColumnTable":
        """Rebuild a table around already-sealed column arrays (the
        snapshot load path). The arrays are adopted as-is as the base --
        typically read-only ``np.memmap`` views over the snapshot's
        ``.npy`` payloads, so loading is I/O-bound, and mutations land
        in the delta segment, so the snapshot files on disk (possibly
        shared by many serving processes) stay mapped read-only until
        compaction. *deleted* must be a private, writable mask (deletes
        update it in place). Secondary-index *declarations* are
        restored; postings rematerialise lazily on the first look-up,
        exactly as after a delete."""
        table = cls(schema)
        table._sealed = columns
        table._num_rows = num_rows
        table._deleted = deleted
        table._num_deleted = num_deleted
        table._index_columns = {name.lower() for name in index_columns}
        table.cluster_keys = tuple(cluster_keys)
        table.compactions = compactions
        return table

    def insert_columns(self, columns: Sequence[ColumnChunk]) -> int:
        """Append already-typed column arrays -- the table's one append
        (no per-cell ``coerce_to_type``; text dictionary-encoded via
        ``np.unique``). Every column is encoded before anything lands,
        so a chunk that fails to encode leaves the table untouched.
        Returns the number of rows appended.

        Materialised secondary indexes are maintained **incrementally**:
        the appended chunk is one sorted run (argsorted on its own, never
        the full column), and each run group is concatenated onto the
        existing postings -- appended positions are all greater than any
        existing ones, so the postings stay ascending without a merge
        pass. The result is bit-identical to a from-scratch rebuild.
        """
        count = validate_chunk(self.schema, columns)
        if count == 0:
            return 0
        encoded = [
            _encode_chunk(column_def.sql_type, data, null)
            for column_def, (data, null) in zip(self.schema.columns, columns)
        ]
        # Storage position of the chunk's first row: appends always land
        # past every existing storage row, tombstoned ones included.
        offset = self._num_rows + self._num_deleted
        self._backlog.append(encoded)
        self._num_rows += count
        for key, index in self._indexes.items():
            _extend_postings(index, encoded[self.schema.position_of(key)], offset)
        return count

    def _seal(self) -> list[_ColumnData]:
        """Merge backlog batches into the sealed segments (idempotent);
        returns the base.

        The first non-empty seal becomes the base; every later one
        merges into the delta segment, so the base is never rewritten
        between compactions. Batches inserted since the last seal merge
        in ONE multiway pass (single dictionary union for text columns),
        so sealing stays linear no matter how many flushes fed the
        table."""
        if not self._backlog:
            if self._sealed is None:
                self._sealed = [
                    _encode_chunk(column_def.sql_type, np.empty(0, dtype=object), None)
                    for column_def in self.schema.columns
                ]
            return self._sealed
        if self._storage_length():
            parts = ([self._delta] if self._delta is not None else []) + self._backlog
            self._delta = _merge_batches(parts)
            self._merged_text = {}
        else:
            self._sealed = _merge_batches(self._backlog)
        self._backlog = []
        if self._deleted is not None:
            self._pad_deleted(self._storage_length())
        return self._sealed

    def _pad_deleted(self, total: int) -> None:
        """Grow the tombstone mask to *total* storage rows (base + delta,
        or past it into the unsealed backlog); the new rows are live."""
        if total > len(self._deleted):
            pad = np.zeros(total - len(self._deleted), dtype=bool)
            self._deleted = np.concatenate((self._deleted, pad))
            self._live = None

    def _storage_length(self) -> int:
        """Sealed storage rows across base + delta, tombstones included."""
        if not self._sealed:
            return 0
        total = _column_length(self._sealed[0])
        if self._delta is not None and self._delta:
            total += _column_length(self._delta[0])
        return total

    def _segments(self, position: int) -> tuple[_ColumnData, Optional[_ColumnData]]:
        """One column's sealed ``(base, delta)`` pair; ``delta`` is None
        until the first append after the base seals."""
        sealed = self._seal()
        delta = self._delta[position] if self._delta is not None else None
        return sealed[position], delta

    # -- deletes and compaction ---------------------------------------------------

    def _live_positions(self) -> np.ndarray:
        """Storage positions of live rows (ascending), cached."""
        if self._live is None:
            self._live = np.nonzero(~self._deleted)[0]
        return self._live

    def _storage_positions(self, positions: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """Translate live-row *positions* (the coordinate system every
        public API speaks) into storage positions. Identity while the
        table holds no tombstones."""
        if self._deleted is None:
            return positions
        live = self._live_positions()
        return live if positions is None else live[np.asarray(positions, dtype=np.int64)]

    def delete_rows(self, column_name: str, values: Iterable[Any]) -> int:
        """Tombstone every row whose *column_name* equals any of *values*
        (the ``AllTables`` maintenance primitive: ``TableId IN (...)``).

        Deletion is logical: the rows are masked out of every read path
        but stay in storage until an explicit :meth:`compact`; the dead
        fraction shows in :meth:`delta_stats`. On an indexed column the
        postings name the storage positions, buffered rows included, so
        the delete is O(rows deleted) and never seals; an unindexed
        column seals and scans. Returns the number of rows deleted.
        """
        position = self.schema.position_of(column_name)  # validates existence
        key = column_name.lower()
        if key in self._index_columns:
            runs = self._postings(key, values)[1]
            hits = np.concatenate(runs) if runs else np.empty(0, dtype=np.int64)
        else:
            self._seal()
            hits = np.nonzero(self._storage_isin_all(position, values))[0]
        if not len(hits):
            return 0
        storage = self._num_rows + self._num_deleted  # incl. unsealed buffers
        if self._deleted is None:
            self._deleted = np.zeros(storage, dtype=bool)
        self._pad_deleted(storage)  # hits may land in the unsealed backlog
        # Posting lists of distinct keys are disjoint, so after dropping
        # the already-dead hits every position is counted once.
        hits = hits[~self._deleted[hits]]
        self._deleted[hits] = True
        self._num_deleted += len(hits)
        self._num_rows -= len(hits)
        self._live = None
        return len(hits)

    def compact(self) -> None:
        """Fold base + delta into a fresh base without tombstoned rows.

        Text dictionaries are re-encoded down to the surviving values and
        rows are re-sorted into ``cluster_keys`` order when declared, so
        the result is byte-identical to a fresh bulk load of the live
        rows (the rebuild-parity invariant of the AllTables maintenance
        path) -- the primitive the background snapshot compactor
        persists as the next base generation. The positional gather
        copies, so the new base never aliases memory-mapped snapshot
        arrays. Materialised index postings are dropped for lazy
        rebuild.
        """
        sealed = self._folded()
        self._delta = None
        self._merged_text = {}
        if not sealed:
            return
        total = _column_length(sealed[0])
        if self._deleted is None:
            positions = np.arange(total, dtype=np.int64)
        else:
            positions = self._live_positions()
        if self.cluster_keys:
            sort_keys: list[np.ndarray] = []
            # np.lexsort treats its LAST key as primary: feed the cluster
            # columns reversed, each as (null-flag, value) with the null
            # flag more significant so NULLs sort last (as in a fresh
            # ordered load).
            for name in reversed(self.cluster_keys):
                column = sealed[self.schema.position_of(name)]
                if column.sql_type is SqlType.TEXT:
                    codes = column.codes[positions]
                    sort_keys.append(codes)  # sorted dict: code order == text order
                    sort_keys.append(codes < 0)
                elif column.sql_type is SqlType.BOOLEAN:
                    data = column.data[positions]
                    sort_keys.append(data)
                    sort_keys.append(data < 0)
                else:
                    sort_keys.append(column.data[positions])
                    null = column.null
                    sort_keys.append(
                        null[positions]
                        if null is not None
                        else np.zeros(len(positions), dtype=bool)
                    )
            positions = positions[np.lexsort(sort_keys)]
        self._sealed = [_compact_column(column, positions) for column in sealed]
        self._deleted = None
        self._num_deleted = 0
        self._live = None
        self._indexes = {}
        self.compactions += 1

    # -- vector access (used by the vectorised executor) ------------------------

    def column_values(self, column_name: str, positions: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
        """Materialise a column as ``(data, null_mask)``.

        Text columns come back as object arrays of ``str`` (gathered from
        the dictionary); integers as int64; floats as float64; booleans as
        a boolean-typed logical view over the int8 storage (NULL slots are
        False under the null mask). ``positions`` optionally selects a row
        subset first.
        """
        position = self.schema.position_of(column_name)
        base, delta = self._segments(position)
        storage = self._storage_positions(positions)
        if delta is None:
            return _segment_values(base, storage)
        base_length = _column_length(base)
        if storage is None:
            base_data, base_null = _segment_values(base, None)
            delta_data, delta_null = _segment_values(delta, None)
            return (
                np.concatenate((base_data, delta_data)),
                np.concatenate((base_null, delta_null)),
            )
        storage = np.asarray(storage, dtype=np.int64)
        in_base = storage < base_length
        if in_base.all():
            return _segment_values(base, storage)
        if not in_base.any():
            return _segment_values(delta, storage - base_length)
        base_data, base_null = _segment_values(base, storage[in_base])
        delta_data, delta_null = _segment_values(delta, storage[~in_base] - base_length)
        data = np.empty(len(storage), dtype=base_data.dtype)
        null = np.empty(len(storage), dtype=bool)
        data[in_base] = base_data
        data[~in_base] = delta_data
        null[in_base] = base_null
        null[~in_base] = delta_null
        return data, null

    def text_codes(self, column_name: str, positions: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
        """Dictionary codes (and the dictionary) of a text column.

        On a base+delta table the codes come back remapped into the
        sorted *union* dictionary over both segments (cached per
        column), preserving the code-order == string-order contract
        every :class:`DictCodes` consumer relies on."""
        position = self.schema.position_of(column_name)
        base, delta = self._segments(position)
        if base.sql_type is not SqlType.TEXT:
            raise CatalogError(f"{column_name!r} is not a text column")
        storage = self._storage_positions(positions)
        if delta is None:
            codes = base.codes if storage is None else base.codes[storage]
            return codes, base.dictionary
        union, base_remap, delta_remap = self._merged_text_view(position)
        base_length = _column_length(base)
        if storage is None:
            return (
                np.concatenate(
                    (
                        _remap_codes(base.codes, base_remap),
                        _remap_codes(delta.codes, delta_remap),
                    )
                ),
                union,
            )
        storage = np.asarray(storage, dtype=np.int64)
        in_base = storage < base_length
        codes = np.empty(len(storage), dtype=np.int32)
        codes[in_base] = _remap_codes(base.codes[storage[in_base]], base_remap)
        codes[~in_base] = _remap_codes(
            delta.codes[storage[~in_base] - base_length], delta_remap
        )
        return codes, union

    def _merged_text_view(self, position: int) -> tuple:
        """``(union dictionary, base code remap, delta code remap)`` for
        one text column of a base+delta table. The union is the sorted
        set union of both segment dictionaries -- exactly the dictionary
        a single-segment merge of the same rows would build -- and each
        remap is ``None`` when that segment's codes are already union
        codes. Cached until the delta grows."""
        view = self._merged_text.get(position)
        if view is None:
            base, delta = self._segments(position)
            if not len(delta.dictionary):
                union = base.dictionary
            elif not len(base.dictionary):
                union = delta.dictionary
            else:
                union = np.unique(
                    np.concatenate((base.dictionary, delta.dictionary))
                ).astype(object)
            base_remap = (
                None
                if union is base.dictionary
                else np.searchsorted(union, base.dictionary).astype(np.int32)
            )
            delta_remap = (
                None
                if union is delta.dictionary
                else np.searchsorted(union, delta.dictionary).astype(np.int32)
            )
            view = (union, base_remap, delta_remap)
            self._merged_text[position] = view
        return view

    def isin_mask(self, column_name: str, values: Iterable[Any]) -> np.ndarray:
        """Boolean mask over all live rows for ``column IN values``."""
        mask = self._storage_isin_all(self.schema.position_of(column_name), values)
        if self._deleted is not None:
            return mask[self._live_positions()]
        return mask

    def _storage_isin_all(self, position: int, values: Iterable[Any]) -> np.ndarray:
        """``column IN values`` over the full storage (base + delta,
        tombstones included)."""
        base, delta = self._segments(position)
        if delta is None:
            return _storage_isin(base, values)
        probes = list(values)  # consumed once per segment
        return np.concatenate(
            (_storage_isin(base, probes), _storage_isin(delta, probes))
        )

    # -- indexes -----------------------------------------------------------------

    def create_index(self, column_name: str) -> None:
        """Declare (and materialise) a hash index value -> ndarray of
        storage positions (idempotent; look-ups translate to live
        coordinates). The declaration is permanent; the postings are
        maintained incrementally on appends and survive deletes."""
        key = column_name.lower()
        self.schema.position_of(column_name)  # validates existence
        self._index_columns.add(key)
        if key not in self._indexes:
            self._materialize_index(key)

    def _materialize_index(self, key: str) -> None:
        """Build the postings dict for one declared index in **storage**
        coordinates over base, delta and the unsealed backlog, tombstoned
        rows included (look-ups filter and translate) -- the same content
        the incremental ``insert_columns`` maintenance accumulates, so
        deletes never force a rebuild and building never seals."""
        position = self.schema.position_of(key)
        index: dict[Any, np.ndarray] = {}
        offset = 0
        for segment in (self._sealed, self._delta, *self._backlog):
            if not segment:
                continue
            if offset:
                _extend_postings(index, segment[position], offset)
            else:  # the first rows: one dict build, no per-key merge
                index = dict(_index_groups(segment[position]))
            offset += _column_length(segment[position])
        self._indexes[key] = index

    def has_index(self, column_name: str) -> bool:
        return column_name.lower() in self._index_columns

    def warm(self) -> None:
        """Force every lazily-built read-path structure, so subsequent
        read-only access is safe from concurrent threads.

        The column store defers work to first read in four places --
        :meth:`_seal` (backlog merge), :meth:`_live_positions` (tombstone
        compression), :meth:`_materialize_index` (postings rebuild after
        deletes or snapshot load), and the per-column ``code_of`` text
        probe dict (skipped by bulk-ingest chunks). Each is a benign
        cache in single-threaded use but a data race under concurrent
        first reads; warming materialises all of them up front (plus,
        on base+delta tables, the per-column union text dictionaries).
        Idempotent and cheap when already warm."""
        sealed = self._seal()
        if self._deleted is not None:
            self._live_positions()
        for key in self._index_columns:
            if key not in self._indexes:
                self._materialize_index(key)
        for column in list(sealed) + list(self._delta or []):
            if column.sql_type is SqlType.TEXT and column.code_of is None:
                column.code_of = {
                    value: code for code, value in enumerate(column.dictionary)
                }
        if self._delta is not None:
            for position, column_def in enumerate(self.schema.columns):
                if column_def.sql_type is SqlType.TEXT:
                    self._merged_text_view(position)

    def index_lookup(
        self, column_name: str, values: Iterable[Any]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(positions, codes, matched)``: the live positions whose column
        equals any of *values*, grouped by the sorted distinct matched
        values (each value's positions ascending, as its postings are --
        no sort), each hit's code (the index of its value in *matched*)
        and *matched* itself, an object array (plain ``str`` on a text
        column). :meth:`RowTable.index_lookup` yields the same order.

        Postings are storage-coordinate: dead positions are filtered and
        the survivors translated into the live numbering here, so the
        result matches every other read API."""
        key = column_name.lower()
        if key not in self._index_columns:
            raise CatalogError(f"no index on {self.schema.name}.{column_name}")
        self._seal()  # incremental postings may reference buffered rows
        matched, runs = self._postings(key, values)
        positions = np.concatenate(runs) if runs else np.empty(0, dtype=np.int64)
        lengths = np.fromiter(map(len, runs), dtype=np.intp, count=len(runs))
        codes = np.repeat(np.arange(len(runs), dtype=np.int32), lengths)
        if self._deleted is not None:
            live = ~self._deleted[positions]
            positions = np.searchsorted(self._live_positions(), positions[live])
            codes = codes[live]
        # A text key is a plain str; np.str_ probes are converted to it.
        if not {str}.issuperset(map(type, matched)) and isinstance(matched[0], str):
            matched = list(map(str, matched))
        return positions, codes, np.array(matched, dtype=object)

    def _postings(self, key: str, values: Iterable[Any]) -> tuple[list, list[np.ndarray]]:
        """The sorted distinct *values* that indexed column *key* holds and
        their postings (storage positions, tombstones included);
        materialises the declared postings first when they are not."""
        if key not in self._indexes:
            self._materialize_index(key)
        index = self._indexes[key]
        matched = sorted(filter(index.__contains__, set(values)))  # no key is None
        return matched, list(map(index.__getitem__, matched))

    # -- storage accounting --------------------------------------------------------

    def storage_bytes(self) -> int:
        """Resident bytes of sealed arrays (both segments), dictionaries,
        and indexes."""
        total = 0
        for column in list(self._seal()) + list(self._delta or []):
            if column.codes is not None:
                total += column.codes.nbytes
                total += sum(49 + len(v) for v in column.dictionary) if len(column.dictionary) else 0
                total += len(column.dictionary) * 16  # dict slots
            if column.data is not None:
                total += column.data.nbytes
            if column.null is not None:
                total += column.null.nbytes
        for index in self._indexes.values():
            total += len(index) * 16
            total += sum(positions.nbytes for positions in index.values())
        return total

    # -- delta accounting ----------------------------------------------------------

    def delta_stats(self) -> dict[str, Any]:
        """Mutation debt of this table: storage rows in the base segment,
        rows appended since (delta segment + unsealed buffers), and
        tombstones. The background compactor's trigger signal."""
        total = self._num_rows + self._num_deleted  # incl. unsealed buffers
        base = _column_length(self._sealed[0]) if self._sealed else 0
        base = base or total  # rows buffered into an empty base seal into it
        return {
            "base_rows": base,
            "delta_rows": total - base,
            "deleted_rows": self._num_deleted,
        }


def _encode_chunk(sql_type: SqlType, data: np.ndarray, null: Optional[np.ndarray]) -> _ColumnData:
    """Seal one bulk-ingest chunk without touching individual cells."""
    if isinstance(data, DictEncodedText):
        if sql_type is not SqlType.TEXT:
            raise ExecutionError("DictEncodedText chunk on a non-text column")
        column = _ColumnData(sql_type)
        column.codes = data.codes
        column.dictionary = data.dictionary
        return column  # code_of stays lazy (built on first text probe)
    data = np.asarray(data)
    if null is not None:
        null = np.asarray(null, dtype=bool)
    column = _ColumnData(sql_type)
    if sql_type is SqlType.TEXT:
        if data.dtype != object:
            data = data.astype(object)
        if null is None:
            null = np.fromiter((v is None for v in data), dtype=bool, count=len(data))
        valid = data[~null] if null.any() else data
        if len(valid):
            dictionary, inverse = np.unique(valid, return_inverse=True)
            dictionary = dictionary.astype(object)
        else:
            dictionary = np.empty(0, dtype=object)
            inverse = np.empty(0, dtype=np.int64)
        codes = np.full(len(data), -1, dtype=np.int32)
        if null.any():
            codes[~null] = inverse.astype(np.int32)
        else:
            codes = inverse.astype(np.int32)
        column.codes = codes
        column.dictionary = dictionary
        # code_of stays lazy (built on first text probe)
    elif sql_type is SqlType.BOOLEAN:
        encoded = data.astype(np.int8)
        if null is not None and null.any():
            encoded = np.where(null, np.int8(-1), encoded)
        column.data = encoded
    else:
        dtype = np.int64 if sql_type is SqlType.INTEGER else np.float64
        if null is not None and null.any():
            column.data = np.where(null, dtype(0), data).astype(dtype)
            column.null = null.copy()
        else:
            column.data = data.astype(dtype)
            column.null = np.zeros(len(data), dtype=bool)
    return column


def _merge_batches(batches: list[list[_ColumnData]]) -> list[_ColumnData]:
    """One sealed segment from sealed batches (one ``_ColumnData`` per
    column each), in arrival order."""
    if len(batches) == 1:
        return batches[0]
    return [_merge_many(columns) for columns in zip(*batches)]


def _merge_many(columns: Sequence[_ColumnData]) -> _ColumnData:
    """Concatenate sealed batches of one column (incremental seal). Text
    dictionaries are merged by ONE sorted union across all batches, with
    every batch's code range remapped -- one pass regardless of how many
    batches accumulated."""
    merged = _ColumnData(columns[0].sql_type)
    if merged.sql_type is SqlType.TEXT:
        dictionaries = [c.dictionary for c in columns if len(c.dictionary)]
        if not dictionaries:
            merged.codes = np.concatenate([c.codes for c in columns])
            merged.dictionary = columns[0].dictionary
            merged.code_of = columns[0].code_of
            return merged
        if len(dictionaries) == 1 or all(
            d is dictionaries[0] for d in dictionaries[1:]
        ):
            # One batch, or every batch shares one dictionary *object* --
            # the AllTables build appends all its parts against a single
            # global dictionary, so the union (and every remap) is free:
            # the codes just concatenate.
            union = dictionaries[0]
        else:
            union = np.unique(np.concatenate(dictionaries)).astype(object)
        code_chunks = []
        for column in columns:
            if column.dictionary is union or not len(column.dictionary):
                code_chunks.append(column.codes)
            else:
                mapping = np.searchsorted(union, column.dictionary).astype(np.int32)
                code_chunks.append(_remap_codes(column.codes, mapping))
        merged.codes = np.concatenate(code_chunks)
        merged.dictionary = union
        return merged  # code_of stays lazy (built on first text probe)
    merged.data = np.concatenate([c.data for c in columns])
    if columns[0].null is not None:
        merged.null = np.concatenate([c.null for c in columns])
    return merged


def _remap_codes(codes: np.ndarray, mapping: Optional[np.ndarray]) -> np.ndarray:
    """Apply a dictionary remap, passing NULL codes (-1) through.
    ``mapping`` may be None (identity: the codes already target the
    union dictionary)."""
    if mapping is None or not len(mapping):
        return codes
    remapped = mapping[np.maximum(codes, 0)]
    return np.where(codes < 0, np.int32(-1), remapped)


def _segment_values(column: _ColumnData, positions: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Materialise one sealed segment as ``(data, null_mask)`` -- the
    per-segment half of :meth:`ColumnTable.column_values` (each text
    segment decodes through its *own* dictionary; no union needed for
    materialised strings)."""
    if column.sql_type is SqlType.TEXT:
        codes = column.codes if positions is None else column.codes[positions]
        null = codes < 0
        safe_codes = np.where(null, 0, codes)
        if len(column.dictionary):
            data = column.dictionary[safe_codes]
        else:
            data = np.empty(len(codes), dtype=object)
        data = data.copy()
        data[null] = None
        return data, null
    if column.sql_type is SqlType.BOOLEAN:
        raw = column.data if positions is None else column.data[positions]
        null = raw < 0
        data = raw > 0
        return data, null
    data = column.data if positions is None else column.data[positions]
    if column.has_null is None:  # sealed columns never change: scan once
        column.has_null = bool(column.null.any())
    if not column.has_null:
        return data, np.zeros(len(data), dtype=bool)
    return data, column.null.copy() if positions is None else column.null[positions]


def _column_length(column: _ColumnData) -> int:
    """Storage length of one sealed column (rows incl. tombstones)."""
    return len(column.codes if column.codes is not None else column.data)


def _storage_isin(column: _ColumnData, values: Iterable[Any]) -> np.ndarray:
    """``column IN values`` over the raw storage arrays (tombstones
    included; callers compress to the live view)."""
    length = _column_length(column)
    if column.sql_type is SqlType.TEXT:
        code_of = column.code_of
        if code_of is None:
            # Built lazily: bulk-ingest chunks skip it (the dict is an
            # O(distinct) build only the text-probe path needs).
            code_of = column.code_of = {
                value: code for code, value in enumerate(column.dictionary)
            }
        wanted = np.array(
            sorted({code_of[v] for v in values if isinstance(v, str) and v in code_of}),
            dtype=np.int32,
        )
        if wanted.size == 0:
            return np.zeros(length, dtype=bool)
        return isin_sorted(column.codes, wanted)
    if column.sql_type is SqlType.BOOLEAN:
        # Equality, as in the postings and the row store: 2 is not True.
        wanted_bools = normalize_numeric_probes(values) & {0, 1}
        if not wanted_bools:
            return np.zeros(length, dtype=bool)
        return np.isin(column.data, np.array(sorted(wanted_bools), dtype=np.int8))
    numeric = normalize_numeric_probes(values)
    if not numeric:
        return np.zeros(length, dtype=bool)
    wanted_arr = numeric_probe_array(numeric, column.data.dtype)
    if wanted_arr is None:
        return np.zeros(length, dtype=bool)
    mask = isin_sorted(column.data, wanted_arr)
    if column.null is not None:
        mask &= ~column.null
    return mask


def _index_groups(column: _ColumnData):
    """Yield ``(value, positions)`` postings groups for one column batch,
    positions ascending within each group and relative to the batch.

    The single source of truth for index content: full materialisation
    runs it over the (live view of the) whole column, the incremental
    ``insert_columns`` maintenance runs it over just the appended chunk
    and concatenates -- both produce bit-identical postings because the
    grouping (stable argsort, NULL filtering, bool NULL sentinel skip)
    is the same code path.
    """
    if column.sql_type is SqlType.TEXT:
        codes = column.codes
        if not len(codes):
            return
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        # NULL codes (-1) sort first; drop their whole run up front so
        # the group loop below is branch-free.
        first_live = int(np.searchsorted(sorted_codes, 0))
        order = order[first_live:]
        sorted_codes = sorted_codes[first_live:]
        if not len(order):
            return
        boundaries = np.nonzero(np.diff(sorted_codes))[0] + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(order)]))
        # One gather for the keys, C-level slice views for the posting
        # arrays -- no per-group Python loop beyond the zip.
        keys = column.dictionary[sorted_codes[starts]]
        postings = map(order.__getitem__, map(slice, starts.tolist(), ends.tolist()))
        yield from zip(keys.tolist(), postings)
        return
    data = column.data
    if not len(data):
        return
    order = np.argsort(data, kind="stable")
    sorted_data = data[order]
    boundaries = np.nonzero(np.diff(sorted_data) != 0)[0] + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(sorted_data)]))
    null = column.null
    for start, end in zip(starts, ends):
        value = _to_python(sorted_data[start])
        positions = order[start:end]
        if null is not None:
            positions = positions[~null[positions]]
            if positions.size == 0:
                continue
        if column.sql_type is SqlType.BOOLEAN and value == -1:
            continue
        yield value, positions


def _extend_postings(index: dict, column: _ColumnData, offset: int) -> None:
    """Append one batch's postings, shifted to storage positions from
    *offset*; appended positions exceed every existing one, so each
    posting list stays ascending without a merge pass."""
    for value, positions in _index_groups(column):
        run = positions + offset
        existing = index.get(value)
        index[value] = run if existing is None else np.concatenate((existing, run))


def _compact_column(column: _ColumnData, positions: np.ndarray) -> _ColumnData:
    """Rebuild one sealed column at *positions*, re-encoding text
    dictionaries down to the surviving values -- the layout a fresh bulk
    load of exactly these rows would produce."""
    rebuilt = _ColumnData(column.sql_type)
    if column.sql_type is SqlType.TEXT:
        codes = column.codes[positions]
        used = np.unique(codes[codes >= 0])
        if not len(used):
            rebuilt.codes = np.full(len(codes), -1, dtype=np.int32)
            rebuilt.dictionary = np.empty(0, dtype=object)
            return rebuilt
        remap = np.full(len(column.dictionary), -1, dtype=np.int32)
        remap[used] = np.arange(len(used), dtype=np.int32)
        rebuilt.codes = _remap_codes(codes, remap)
        rebuilt.dictionary = column.dictionary[used]
        return rebuilt  # code_of stays lazy, as after a fresh ingest
    rebuilt.data = column.data[positions]
    if column.null is not None:
        rebuilt.null = column.null[positions]
    return rebuilt


def normalize_numeric_probes(values: Iterable[Any]) -> set:
    """Distinct numeric probe values of a raw ``IN`` list: NumPy scalars
    (np.integer / np.floating, from vectorised callers) are unwrapped so
    dtype promotion matches plain Python values; bools of either kind
    participate as 0/1 (the engine's bool/int duality -- the row store's
    Python-equality membership treats ``True == 1``). Shared by every
    numeric membership path -- sargable scans, residual vector
    expressions, and batch membership -- so the paths can never drift
    apart again."""
    out = set()
    for v in values:
        if isinstance(v, (bool, np.bool_)):
            out.add(int(v))
        elif isinstance(v, (int, float, np.integer, np.floating)):
            out.add(v.item() if isinstance(v, np.generic) else v)
    return out


def numeric_probe_array(numeric: set, dtype: np.dtype) -> Optional[np.ndarray]:
    """Sorted probe array for an ``IN`` scan over a numeric column of
    *dtype*, or ``None`` when no probe can possibly match.

    Integer columns compare in their own dtype so int64-scale values
    (SuperKeys) stay exact: integral floats are converted, fractional
    probes dropped (they can never equal an integer -- the row backend's
    set-membership agrees), and out-of-range ints dropped rather than
    overflowing the conversion. Float columns compare in float64, with
    ints no float64 equals (beyond its range, or between two floats past
    2**53) dropped for the same reason, as is NaN, which equals nothing
    and would break the order ``isin_sorted`` relies on.
    """
    if dtype.kind in "iu":
        bounds = np.iinfo(dtype)
        integral = set()
        for value in numeric:
            if isinstance(value, float):
                if not value.is_integer():
                    continue
                value = int(value)
            if bounds.min <= value <= bounds.max:
                integral.add(value)
        if not integral:
            return None
        return np.array(sorted(integral), dtype=dtype)
    floats = set()
    for value in numeric:
        try:
            converted = float(value)
        except OverflowError:  # int beyond float64 range: cannot match
            continue
        if converted == value:  # exact in Python: drops NaN and inexact ints
            floats.add(converted)
    if not floats:
        return None
    return np.array(sorted(floats), dtype=np.float64)


def isin_sorted(data: np.ndarray, sorted_values: np.ndarray) -> np.ndarray:
    """Vectorised membership test against a sorted value array.

    ``searchsorted`` beats ``np.isin`` when the probe side is large and the
    value set is small, which is exactly the seeker-scan shape.
    """
    if sorted_values.size == 0:
        return np.zeros(len(data), dtype=bool)
    idx = np.searchsorted(sorted_values, data)
    idx_clipped = np.minimum(idx, sorted_values.size - 1)
    return sorted_values[idx_clipped] == data


def _to_python(value: Any) -> Any:
    """Convert NumPy scalars to plain Python values for result rows."""
    if isinstance(value, np.generic):
        return value.item()
    return value
