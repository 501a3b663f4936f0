"""Embedded database facade.

``Database`` is the single entry point BLEND uses for its in-database
execution: it owns a catalog of stored tables (row- or column-oriented,
selected per database), parses and plans SQL, and dispatches to the
matching executor. The two backends mirror the paper's deployment on
PostgreSQL (row store) and a commercial column store.

Example
-------
>>> db = Database(backend="column")
>>> db.create_table("t", [("a", "integer"), ("b", "text")])
>>> db.insert("t", [(1, "x"), (2, "y"), (2, "z")])
3
>>> db.execute("SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a").rows
[(1, 1), (2, 2)]
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from ..errors import EngineError, ExecutionError
from .sql import ast
from .sql.executor_column import ColumnExecutor
from .sql.executor_row import QueryStats, RowExecutor
from .sql.lexer import tokenize
from .sql.parser import parse
from .sql.planner import (
    PlanNode,
    TableResolver,
    param_shapes,
    plan_select,
    rebind_plan,
)
from .storage.catalog import Catalog, ColumnDef, TableSchema
from .storage.column_store import ColumnTable, decode_if_coded
from .storage.row_store import RowTable
from .types import SqlType, coerce_to_type

BACKENDS = ("row", "column")


@dataclass
class ResultSet:
    """Query result: ordered column names plus row tuples."""

    columns: list[str]
    rows: list[tuple]
    stats: QueryStats = field(default_factory=QueryStats)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> Any:
        """The single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise EngineError(
                f"scalar() requires a 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def column(self, index: int = 0) -> list[Any]:
        """All values of one output column."""
        return [row[index] for row in self.rows]


@dataclass
class ColumnarResult:
    """Query result as typed ``(data, null_mask)`` column arrays.

    The array-native sibling of :class:`ResultSet`, produced by
    :meth:`Database.execute_columnar` for consumers that keep computing in
    NumPy (the vectorised MC seeker phases)."""

    columns: list[str]
    arrays: list[tuple[np.ndarray, np.ndarray]]
    stats: QueryStats = field(default_factory=QueryStats)

    def __len__(self) -> int:
        return int(len(self.arrays[0][0])) if self.arrays else 0

    def column(self, index: int = 0) -> np.ndarray:
        """The data array of one output column."""
        return self.arrays[index][0]


def _rows_to_arrays(rows: list[tuple], width: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Transpose row tuples into typed column arrays (row-backend
    fallback for :meth:`Database.execute_columnar`). Integer columns that
    fit int64 become int64 (the seeker id/super-key shape); floats become
    float64; anything mixed stays object."""
    arrays: list[tuple[np.ndarray, np.ndarray]] = []
    for position in range(width):
        values = [row[position] for row in rows]
        null = np.fromiter((v is None for v in values), dtype=bool, count=len(values))
        data: Optional[np.ndarray] = None
        present = [v for v in values if v is not None]
        if present and all(
            isinstance(v, int) and not isinstance(v, bool) for v in present
        ):
            try:
                data = np.array([0 if v is None else v for v in values], dtype=np.int64)
            except OverflowError:  # 128-bit super keys stay Python ints
                data = None
        elif present and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in present
        ):
            data = np.array([0.0 if v is None else float(v) for v in values], dtype=np.float64)
        if data is None:
            data = np.empty(len(values), dtype=object)
            data[:] = values
        arrays.append((data, null))
    return arrays


def _row_values_chunk(values: tuple, sql_type: SqlType) -> tuple[np.ndarray, np.ndarray]:
    """One column of coerced row values as an ``insert_columns`` chunk:
    an object array plus its NULL mask. Non-text NULL slots hold a 0
    placeholder under the mask, so every backend's encoder can cast the
    array to its storage dtype."""
    null = np.fromiter((v is None for v in values), dtype=bool, count=len(values))
    data = np.empty(len(values), dtype=object)
    data[:] = values
    if sql_type is not SqlType.TEXT and null.any():
        data[null] = 0
    return data, null


@functools.lru_cache(maxsize=512)
def _parse_cached(sql: str) -> ast.Select:
    """AST cache -- seeker SQL templates repeat across executions with only
    parameters changing, so parsing is amortised away."""
    return parse(sql)


@functools.lru_cache(maxsize=2048)
def _normalize_sql_key(sql: str) -> str:
    """Whitespace-insensitive cache-key form of a SQL statement.

    Built from the *real* lexer's token stream, so the key agrees with
    the parser on every lexical rule -- ``--`` comments, quoted
    identifiers, ``''`` escapes -- by construction: trivially reformatted
    statements (newlines, indentation, comments) map to one plan-cache
    entry, while any two statements with different token streams keep
    distinct keys. Statements the lexer rejects key on their raw text
    (the subsequent parse raises the real error). The raw text is still
    what gets parsed -- this shapes only the key.
    """
    try:
        tokens = tokenize(sql)
    except EngineError:
        # Distinct prefix: raw text (whatever it contains) can never
        # collide with a normalised key.
        return "raw\x00" + sql
    # Length-prefixed records are prefix-decodable, so no token value --
    # not even one containing a separator-looking byte inside a string
    # literal -- can forge a token boundary and collide two statements.
    return "tok\x00" + "".join(
        f"{token.kind}:{len(token.value)}:{token.value}" for token in tokens
    )


@dataclass
class _PlanEntry:
    """One plan-cache slot.

    ``lock`` serialises *use* of the plan, not just cache bookkeeping:
    :func:`rebind_plan` mutates the cached plan tree in place
    (predicate values, LIMIT counts), so two threads rebinding-and-
    executing one cached plan concurrently would race each other's
    parameters. Every executor run holds the entry lock from rebind
    through execution; distinct statements use distinct entries and run
    fully in parallel.
    """

    plan: PlanNode
    referenced: frozenset[str]
    lock: threading.Lock = field(default_factory=threading.Lock)


class Database:
    """An embedded single-process database with pluggable storage layout.

    ``execute`` keeps an LRU **plan cache** keyed on ``(sql, backend,
    parameter shapes)``: repeated statements (the four seeker templates,
    notably) are planned once and merely *rebound* to fresh parameter
    values on later calls. Hit counters are exposed via
    :meth:`plan_cache_stats` and per-query on ``ResultSet.stats``.

    Mutations bump a monotonically increasing **data epoch** (surfaced in
    :meth:`cache_stats`); storage compaction additionally drops cached
    plans that reference the compacted table, since their planning-time
    assumptions (cardinalities, clustering) no longer describe the
    storage they would scan.

    **Concurrency:** read-only execution (``execute`` /
    ``execute_columnar``) is thread-safe -- cache bookkeeping and
    counters sit behind one lock, and each cached plan carries its own
    lock held from parameter rebinding through executor run (cached plan
    trees are rebound *in place*, so using one concurrently would race).
    Mutating calls (inserts, deletes, DDL) are not synchronised against
    concurrent readers; the serving tier swaps whole databases instead
    of mutating a live one. Call :meth:`warm` before sharing a database
    across reader threads so lazily-built storage state (seal merges,
    index postings, text-probe dicts) is materialised up front.
    """

    PLAN_CACHE_SIZE = 256

    def __init__(self, backend: str = "column") -> None:
        if backend not in BACKENDS:
            raise EngineError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        self.backend = backend
        self._catalog = Catalog()
        self.last_stats = QueryStats()
        # Guards the cache dict, hit/miss counters, and the data epoch;
        # never held while planning or executing (only per-entry locks
        # are, so distinct statements execute concurrently).
        self._cache_lock = threading.Lock()
        self._plan_cache: OrderedDict[tuple, _PlanEntry] = OrderedDict()
        self._plan_cache_hits = 0
        self._plan_cache_misses = 0
        self._data_epoch = 0

    # -- schema ------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[tuple[str, Union[str, SqlType]]],
    ) -> None:
        """Create a table. *columns* is a list of (name, type) pairs where
        type is a :class:`SqlType` or a SQL type name string."""
        defs = [
            ColumnDef(col_name, t if isinstance(t, SqlType) else SqlType.from_name(t))
            for col_name, t in columns
        ]
        schema = TableSchema(name, defs)
        if self.backend == "row":
            self._catalog.register(RowTable(schema))
        else:
            self._catalog.register(ColumnTable(schema))
        self._data_epoch += 1
        self._invalidate_plans()

    def drop_table(self, name: str) -> None:
        self._catalog.drop(name)
        self._data_epoch += 1
        self._invalidate_plans()

    def has_table(self, name: str) -> bool:
        return self._catalog.exists(name)

    def table_names(self) -> list[str]:
        return self._catalog.table_names()

    def table(self, name: str):
        """The underlying storage object (RowTable / ColumnTable)."""
        return self._catalog.get(name)

    def create_index(self, table_name: str, column_name: str) -> None:
        """Create a hash index (idempotent), e.g. BLEND's two in-database
        indexes on ``AllTables(CellValue)`` and ``AllTables(TableId)``."""
        self._catalog.get(table_name).create_index(column_name)

    def attach_table(self, storage) -> None:
        """Register an already-built storage object (RowTable /
        ColumnTable) under its schema name -- the snapshot load path,
        where tables arrive fully sealed (typically over memory-mapped
        payloads) instead of being created empty and re-ingested."""
        expected = RowTable if self.backend == "row" else ColumnTable
        if not isinstance(storage, expected):
            raise EngineError(
                f"cannot attach a {type(storage).__name__} to a "
                f"{self.backend!r}-backend database"
            )
        self._catalog.register(storage)
        self._data_epoch += 1
        self._invalidate_plans()

    # -- data ---------------------------------------------------------------------

    def insert(self, table_name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Insert Python rows; returns the number of rows added.

        Every row's width is checked (``ExecutionError``) and every value
        coerced to its column type (``coerce_to_type``, ``ValueError``)
        before any row lands, so a rejected call leaves the table
        untouched. The coerced rows are transposed into ``(data,
        null_mask)`` chunks and appended through :meth:`insert_columns`,
        the one storage append. Non-text chunks are object arrays, so the
        row store keeps integers beyond int64; the column store rejects
        them while encoding, still before any row lands."""
        schema = self._catalog.get(table_name).schema
        types = [column.sql_type for column in schema.columns]
        coerced = []
        for row in rows:
            if len(row) != len(types):
                raise ExecutionError(
                    f"row width {len(row)} does not match table "
                    f"{schema.name!r} width {len(types)}"
                )
            coerced.append(tuple(map(coerce_to_type, row, types)))
        if not coerced:
            return 0
        columns = zip(*coerced)
        return self.insert_columns(
            table_name, [_row_values_chunk(values, t) for values, t in zip(columns, types)]
        )

    def insert_columns(self, table_name: str, columns: Sequence[tuple]) -> int:
        """Append typed column chunks -- the one way rows enter storage:
        *columns* is one ``(data, null_mask)`` pair per schema column
        (``null_mask`` may be ``None``), stored without per-cell
        coercion. The vectorised ``AllTables`` ingest calls it once per
        build part (parts sharing one ``DictEncodedText`` dictionary
        object concatenate without a union at seal time); :meth:`insert`
        calls it with coerced Python rows. Returns the number of rows
        appended."""
        inserted = self._catalog.get(table_name).insert_columns(columns)
        if inserted:
            self._data_epoch += 1
        return inserted

    def delete_rows(self, table_name: str, column_name: str, values: Iterable[Any]) -> int:
        """Delete every row whose *column_name* equals any of *values*
        (tombstoned in storage until :meth:`compact`). The ``AllTables``
        maintenance primitive behind ``deindex_table``. Returns rows
        deleted."""
        deleted = self._catalog.get(table_name).delete_rows(column_name, values)
        if deleted:
            self._data_epoch += 1
        return deleted

    def compact(self, table_name: str) -> None:
        """Force physical compaction of one table (tombstones dropped,
        text dictionaries re-encoded, rows re-clustered when the table
        declares ``cluster_keys``); cached plans referencing the table are
        invalidated."""
        self._catalog.get(table_name).compact()
        self._data_epoch += 1
        self._invalidate_plans_for(table_name)

    def set_cluster_keys(self, table_name: str, columns: Sequence[str]) -> None:
        """Declare the canonical row order compaction restores (e.g.
        ``AllTables(TableId, RowId, ColumnId)`` -- the emission order of a
        from-scratch offline build)."""
        table = self._catalog.get(table_name)
        for column in columns:
            table.schema.position_of(column)  # validates existence
        table.cluster_keys = tuple(columns)

    def num_rows(self, table_name: str) -> int:
        return self._catalog.get(table_name).num_rows

    def storage_bytes(self, table_name: Optional[str] = None) -> int:
        """Approximate resident bytes of one table or the whole database."""
        if table_name is not None:
            return self._catalog.get(table_name).storage_bytes()
        return sum(
            self._catalog.get(name).storage_bytes() for name in self._catalog.table_names()
        )

    # -- querying ------------------------------------------------------------------

    def plan(self, sql: str, params: Optional[Mapping[str, Any]] = None) -> PlanNode:
        """Parse and plan *sql* without executing (used by tests and the
        optimizer's cost introspection)."""
        select = _parse_cached(sql)
        resolver = TableResolver(lambda name: self._column_names(name))
        return plan_select(select, resolver, params)

    def execute(self, sql: str, params: Optional[Mapping[str, Any]] = None) -> ResultSet:
        """Run a SELECT and return its result set.

        ``params`` binds ``:name`` placeholders; sequence-valued parameters
        may appear in ``IN`` lists (this is how BLEND passes query columns
        and rewritten intermediate results). Plans come from the LRU plan
        cache when the (sql, backend, parameter-shape) key has been seen
        before; only parameter values are rebound.
        """
        entry, cache_hit = self._cached_plan(sql, params)
        stats = QueryStats()
        stats.plan_cache_hit = cache_hit
        plan = entry.plan
        with entry.lock:
            # Rebind unconditionally: on a miss the plan was bound at
            # planning time, but a concurrent hit on the same (now
            # cached) entry may have rebound it to its own parameters
            # before this thread reached the lock.
            rebind_plan(plan, params)
            if self.backend == "row":
                executor = RowExecutor(self._catalog, params, stats)
                rows = executor.execute(plan)
            else:
                executor = ColumnExecutor(self._catalog, params, stats)
                batch = executor.execute(plan)
                rows = batch.to_rows()
            names = plan.schema.names()
        self.last_stats = stats
        return ResultSet(columns=names, rows=rows, stats=stats)

    def execute_columnar(
        self,
        sql: str,
        params: Optional[Mapping[str, Any]] = None,
        decode_text: bool = True,
    ) -> "ColumnarResult":
        """Run a SELECT and return its result as typed column arrays.

        The vectorised consumer path (the MC seeker's candidate fetch,
        notably): on the column backend the executor's batch is handed
        over directly -- no Python tuple materialisation at all; on the
        row backend the row tuples are transposed into typed arrays once.
        Each column comes back as ``(data, null_mask)`` with ``int64`` /
        ``float64`` dtype where all values fit, object otherwise.

        ``decode_text=False`` skips the dictionary gather on the column
        backend: text columns that reach the projection still
        dictionary-coded come back as :class:`DictCodes` (integer codes
        plus a sorted ``.dictionary``), letting consumers that re-encode
        values anyway (the seeker kernels) translate per dictionary entry
        instead of per row. The text column driving an index scan comes
        back coded over just its sorted matched values (the scan's own
        hit codes, no gather and no union remap). Purely an optimisation
        hint: columns the executor already materialised, and everything
        on the row backend, come back as plain arrays regardless.
        """
        entry, cache_hit = self._cached_plan(sql, params)
        stats = QueryStats()
        stats.plan_cache_hit = cache_hit
        plan = entry.plan
        with entry.lock:
            rebind_plan(plan, params)
            names = plan.schema.names()
            if self.backend == "row":
                executor = RowExecutor(self._catalog, params, stats)
                rows = executor.execute(plan)
                self.last_stats = stats
                return ColumnarResult(names, _rows_to_arrays(rows, len(names)), stats)
            executor = ColumnExecutor(self._catalog, params, stats)
            batch = executor.execute(plan)
            arrays: list[tuple[np.ndarray, np.ndarray]] = []
            for position in range(len(names)):
                data, null = batch.column(position)
                if decode_text:
                    data = decode_if_coded(data)
                arrays.append((data, null))
        self.last_stats = stats
        return ColumnarResult(names, arrays, stats)

    def plan_cache_stats(self) -> dict[str, int]:
        """Plan-cache effectiveness counters (hits / misses / entries)."""
        with self._cache_lock:
            return {
                "hits": self._plan_cache_hits,
                "misses": self._plan_cache_misses,
                "size": len(self._plan_cache),
            }

    def cache_stats(self) -> dict[str, int]:
        """Plan-cache counters plus the database's data epoch -- the
        monotonically increasing mutation counter consumers use to detect
        that cached derived state (result sets, contexts) predates a
        mutation."""
        stats = self.plan_cache_stats()
        stats["data_epoch"] = self._data_epoch
        return stats

    def warm(self) -> None:
        """Materialise every table's lazily-built read-path state (seal
        merges, live-position caches, declared index postings, text-probe
        dictionaries) so subsequent read-only queries can run from
        concurrent threads without ever racing a lazy build. Idempotent;
        the serving tier warms a deployment before admitting traffic."""
        for name in self._catalog.table_names():
            self._catalog.get(name).warm()

    @property
    def data_epoch(self) -> int:
        return self._data_epoch

    # -- internals --------------------------------------------------------------------

    def _plan_with_tables(
        self, sql: str, params: Optional[Mapping[str, Any]]
    ) -> tuple[PlanNode, frozenset[str]]:
        """Plan *sql*, recording which stored tables the plan references
        (for compaction-targeted cache invalidation)."""
        select = _parse_cached(sql)
        referenced: set[str] = set()

        def column_names(table_name: str) -> list[str]:
            referenced.add(table_name.lower())
            return self._column_names(table_name)

        plan = plan_select(select, TableResolver(column_names), params)
        return plan, frozenset(referenced)

    def _cached_plan(
        self, sql: str, params: Optional[Mapping[str, Any]]
    ) -> tuple[_PlanEntry, bool]:
        """The cache entry for (sql, backend, param shapes) -- cached, or
        freshly planned and inserted.

        Planning runs *outside* the cache lock (it is the slow part);
        when two threads race to plan the same statement, the loser
        adopts the winner's entry and its duplicate plan is dropped, so
        one key never maps to two live cache slots.
        """
        key = (_normalize_sql_key(sql), self.backend, param_shapes(params))
        with self._cache_lock:
            entry = self._plan_cache.get(key)
            if entry is not None:
                self._plan_cache.move_to_end(key)
                self._plan_cache_hits += 1
                return entry, True
        plan, referenced = self._plan_with_tables(sql, params)
        with self._cache_lock:
            existing = self._plan_cache.get(key)
            if existing is not None:
                # Lost the planning race: the work was redundant, not
                # wrong. Count the miss (planning did happen) and share
                # the winner's entry so its lock serialises both users.
                self._plan_cache_misses += 1
                self._plan_cache.move_to_end(key)
                return existing, False
            entry = _PlanEntry(plan, referenced)
            self._plan_cache_misses += 1
            self._plan_cache[key] = entry
            if len(self._plan_cache) > self.PLAN_CACHE_SIZE:
                # Evicted entries may still be executing (their holders
                # keep object references); they simply drop out of reuse.
                self._plan_cache.popitem(last=False)
            return entry, False

    def _invalidate_plans(self) -> None:
        """Schema changed: cached plans may embed stale column layouts."""
        with self._cache_lock:
            self._plan_cache.clear()

    def _invalidate_plans_for(self, table_name: str) -> None:
        """Drop cached plans referencing one (compacted) table."""
        key = table_name.lower()
        with self._cache_lock:
            stale = [
                cache_key
                for cache_key, entry in self._plan_cache.items()
                if key in entry.referenced
            ]
            for cache_key in stale:
                del self._plan_cache[cache_key]

    def _column_names(self, table_name: str) -> list[str]:
        if table_name == "__dual__":
            return []
        return self._catalog.get(table_name).schema.column_names()
