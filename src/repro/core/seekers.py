"""Seeker operators (paper §IV-A, §VI): SC, KW, MC, and Correlation.

Each seeker states its query as a SQL statement over ``AllTables`` --
the paper's Listings 1-3 and the §VI keyword query -- extended with:

* a ``/*REWRITE*/`` placeholder where the optimizer injects
  combiner-dependent predicates (``TableId [NOT] IN :ir``, §VII-B), and
* deterministic tie-breaking sort keys (TableId, ColumnId), so both
  storage backends return identical rankings.

Every seeker executes its statement rewritten into low-level operators,
each as one body over a *group* of seekers (a solo query is the group of
one, a serving batch or a plan's batch the whole group): a ``CellValue
IN`` scan of ``AllTables`` then array kernels (:func:`value_partials` for
SC/KW, the three MC phase bodies, :func:`correlation_partials` for C).
On the column backend that scan hands over its matched tokens as
dictionary codes over the sorted matched values (:func:`_vocab_codes`
reads them with one probe per matched token). Their ``sql()`` stays the
statement the tests check the kernels against.

SC and C rank (TableId, ColumnId) *groups*, which the merge deduplicates
to ranked *tables*. An over-fetch factor bounds the group fan-out per
table (exact for tables with up to ``OVERFETCH`` qualifying columns, far
above any realistic width).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from ..engine.database import Database
from ..engine.storage.column_store import DictCodes
from ..errors import SeekerError, StaleContextError
from ..index.alltables import ALLTABLES
from ..index.quadrant import split_keys_by_target
from ..index.xash import may_contain_batch, xash_memoized
from ..lake.datalake import DataLake
from ..lake.table import Cell, Table, normalize_cell
from .results import (
    RANKED,
    ResultList,
    SeekerPartials,
    count_partials,
    merge_partials,
)

__all__ = [
    "OVERFETCH",
    "REWRITE_MARKER",
    "Rewrite",
    "SeekerContext",
    "Seeker",
    "Seekers",
    "ValueSeeker",
    "SingleColumnSeeker",
    "KeywordSeeker",
    "MultiColumnSeeker",
    "CorrelationSeeker",
    "SEEKER_RULE_RANK",
]

OVERFETCH = 32
REWRITE_MARKER = "/*REWRITE*/"


@dataclass(frozen=True)
class Rewrite:
    """A combiner-dependent predicate injected by the optimizer.

    ``mode`` is ``"intersect"`` (``TableId IN``) or ``"difference"``
    (``TableId NOT IN``); ``table_ids`` come from already-executed sibling
    seekers' intermediate results.
    """

    mode: str
    table_ids: tuple[int, ...]

    def predicate_sql(self) -> str:
        if self.mode == "intersect":
            return " AND TableId IN (:__rewrite_ids)"
        if self.mode == "difference":
            return " AND TableId NOT IN (:__rewrite_ids)"
        raise SeekerError(f"unknown rewrite mode: {self.mode}")


@dataclass
class SeekerContext:
    """Everything a seeker needs at execution time.

    ``semantic`` is the optional vector index of the semantic extension
    (:mod:`repro.core.semantic`); ``None`` unless the deployment called
    ``Blend.enable_semantic()``.

    ``generation`` is the lake generation this context was created at
    (``Blend.context()`` stamps it). Seekers refuse to run against a
    context whose lake has since mutated -- a stale context could
    silently rank dead table ids or miss fresh ones -- raising
    :class:`~repro.errors.StaleContextError` instead. ``None`` (the
    default for hand-built contexts over static lakes) disables the
    check.
    """

    db: Database
    lake: DataLake
    hash_size: int = 63
    xash_chars: int = 2
    semantic: Optional[Any] = None
    generation: Optional[int] = None

    def ensure_fresh(self) -> None:
        """Raise :class:`StaleContextError` if the lake mutated since
        this context was created."""
        if self.generation is None:
            return
        current = self.lake.generation
        if current != self.generation:
            raise StaleContextError(
                f"seeker context was created at lake generation "
                f"{self.generation} but the lake is now at generation "
                f"{current} (tables were added, removed, or replaced); "
                "re-create the context to serve the current corpus"
            )


def _normalize_values(values: Iterable[Cell]) -> list[str]:
    tokens: list[str] = []
    seen: set[str] = set()
    for value in values:
        token = normalize_cell(value)
        if token is not None and token not in seen:
            seen.add(token)
            tokens.append(token)
    return tokens


class Seeker:
    """Base class: a parameterised SQL template plus result shaping.

    Subclasses implement :meth:`partials` -- everything up to but not
    including the final ranking cut. :meth:`execute` is the degenerate
    one-shard merge of that partial; a scatter-gather coordinator calls
    :meth:`partials` on every shard and merges the K results with the
    same :func:`~repro.core.results.merge_partials`, which is what makes
    sharded execution byte-identical to serial by construction.
    """

    kind: str = "?"

    def __init__(self, k: int = 10) -> None:
        if k < 0:
            raise SeekerError("k must be non-negative")
        self.k = k

    # -- interface ---------------------------------------------------------------

    def sql(self, rewrite: Optional[Rewrite] = None) -> str:
        """The SQL statement with the rewrite placeholder resolved."""
        raise NotImplementedError

    def params(self, rewrite: Optional[Rewrite] = None) -> dict[str, Any]:
        raise NotImplementedError

    def partials(
        self, context: SeekerContext, rewrite: Optional[Rewrite] = None
    ) -> SeekerPartials:
        """The mergeable partial result of this query over *context*'s
        (shard of the) lake -- see :class:`~repro.core.results.SeekerPartials`."""
        raise NotImplementedError

    def execute(self, context: SeekerContext, rewrite: Optional[Rewrite] = None) -> ResultList:
        return merge_partials([self.partials(context, rewrite)], self.k)

    # -- cost-model features (paper §VII-B) ------------------------------------------

    def query_cardinality(self) -> int:
        """|Q|: the number of query tokens."""
        raise NotImplementedError

    def query_columns(self) -> int:
        """Number of columns in Q."""
        raise NotImplementedError

    def query_tokens(self) -> list[str]:
        """All query tokens (for the average-frequency feature)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(|Q|={self.query_cardinality()}, k={self.k})"


class ValueSeeker(Seeker):
    """SC and KW: top-k tables by how many distinct query tokens a group
    holds -- per (TableId, ColumnId) for SC, per TableId for KW. Both run
    :func:`value_partials`; :meth:`sql` states the same query as SQL."""

    per_column = False

    def __init__(self, values: Iterable[Cell], k: int = 10) -> None:
        super().__init__(k)
        self.tokens = _normalize_values(values)
        if not self.tokens:
            raise SeekerError(f"{self.kind} seeker requires at least one non-null value")

    @property
    def fetch(self) -> int:
        """Ranked groups kept: ``k`` tables' worth (a table is many SC groups)."""
        return self.k * OVERFETCH if self.per_column else self.k

    def sql(self, rewrite: Optional[Rewrite] = None) -> str:
        keys = "TableId, ColumnId" if self.per_column else "TableId"
        predicate = rewrite.predicate_sql() if rewrite else ""
        return (
            "SELECT TableId, COUNT(DISTINCT CellValue) AS overlap FROM {index} "
            f"WHERE CellValue IN (:q){predicate} "
            f"GROUP BY {keys} ORDER BY overlap DESC, {keys} LIMIT :fetch"
        )

    def params(self, rewrite: Optional[Rewrite] = None) -> dict[str, Any]:
        params: dict[str, Any] = {"q": self.tokens, "fetch": self.fetch}
        if rewrite:
            params["__rewrite_ids"] = list(rewrite.table_ids)
        return params

    def partials(
        self, context: SeekerContext, rewrite: Optional[Rewrite] = None
    ) -> SeekerPartials:
        context.ensure_fresh()
        return value_partials([self], context, rewrite)[0]

    def query_cardinality(self) -> int:
        return len(self.tokens)

    def query_columns(self) -> int:
        return 1

    def query_tokens(self) -> list[str]:
        return list(self.tokens)


class SingleColumnSeeker(ValueSeeker):
    """SC: top-k tables by best single-column value overlap (Listing 1)."""

    kind = "SC"
    per_column = True
    partials = ValueSeeker.partials  # each kind's own attribute, so it can be traced per kind


class KeywordSeeker(ValueSeeker):
    """KW: top-k tables by whole-table keyword overlap (§VI) -- the SC
    query without ColumnId in the GROUP BY."""

    kind = "KW"
    partials = ValueSeeker.partials


class MultiColumnSeeker(Seeker):
    """MC: top-k tables containing query tuples row-aligned (Listing 2).

    Three phases, as in MATE, all over ONE ``AllTables`` scan of the
    query vocabulary (:class:`MCScan`) -- the only SQL statement a query
    runs:

    1. **Candidate fetch** -- the rows whose scanned cells cover every
       query column, i.e. exactly the rows Listing 2's inner-join chain
       (:meth:`sql`, the scalar oracle's statement) returns.
    2. **Super-key filter** -- candidate rows whose XASH super key cannot
       bit-contain any query tuple's hash are pruned without touching the
       data (no false negatives).
    3. **Exact validation** -- surviving rows are checked against their
       tokens as the scan holds them ("application-level" in the paper),
       bounded by the table's current row count.

    Tables are ranked by their number of validated joinable rows.

    The query is factorised ONCE, at construction, into a token
    vocabulary plus the distinct tuples as a ``(tuples x width)`` matrix
    of vocabulary codes; the phase-1 column sets, the phase-2 tuple
    hashes and the phase-3 requirements are all read off that matrix.
    """

    kind = "MC"

    def __init__(self, rows: Iterable[Sequence[Cell]] | Table, k: int = 10) -> None:
        super().__init__(k)
        raw_rows = rows.rows if isinstance(rows, Table) else list(rows)
        self.tuples: list[tuple[str, ...]] = []
        for row in raw_rows:
            tokens = tuple(normalize_cell(v) for v in row)
            if any(token is None for token in tokens):
                continue
            self.tuples.append(tokens)  # type: ignore[arg-type]
        if not self.tuples:
            raise SeekerError("MC seeker requires at least one fully non-null tuple")
        self.width = len(self.tuples[0])
        if any(len(t) != self.width for t in self.tuples):
            raise SeekerError("MC seeker tuples must all have the same width")
        if self.width < 2:
            raise SeekerError("MC seeker requires a composite key (>= 2 columns)")
        # Token -> dense code in first-seen order, and the distinct tuples
        # as rows of those codes.
        flat = [token for query_tuple in dict.fromkeys(self.tuples) for token in query_tuple]
        self._vocabulary = {token: code for code, token in enumerate(dict.fromkeys(flat))}
        self._tuple_codes = np.fromiter(
            map(self._vocabulary.__getitem__, flat), dtype=np.int64, count=len(flat)
        ).reshape(-1, self.width)
        tokens = list(self._vocabulary)
        self._column_tokens = [
            [tokens[code] for code in dict.fromkeys(column)]
            for column in self._tuple_codes.T.tolist()
        ]
        # Validation requirements. A row contains a repeat-free tuple iff
        # every one of its tokens is PRESENT; the rare tuples with a
        # repeated token need explicit per-code minimum counts.
        ordered = np.sort(self._tuple_codes, axis=1)
        repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        self._repeat_free = self._tuple_codes[~repeated]
        self._multisets = [
            np.unique(codes, return_counts=True) for codes in self._tuple_codes[repeated]
        ]

    def column_tokens(self, position: int) -> list[str]:
        """Distinct tokens of one query column, in first-seen order."""
        return list(self._column_tokens[position])

    def sql(self, rewrite: Optional[Rewrite] = None) -> str:
        # Listing 2, as the paper states it; execution runs the equivalent
        # single scan of :class:`MCScan` instead.
        # The rewrite predicate goes INSIDE every derived table, where it
        # is sargable against the TableId index (Example 2's
        # ``WHERE Q1_index_hits.TableId IN (IR_SC)``, pushed down --
        # equivalent on all join sides because the join equates TableId).
        predicate = rewrite.predicate_sql() if rewrite else ""
        parts = [
            "SELECT Q0.TableId, Q0.RowId, Q0.SuperKey FROM ",
            "(SELECT * FROM {index} WHERE CellValue IN (:q0)" + predicate + ") AS Q0",
        ]
        for i in range(1, self.width):
            parts.append(
                f" INNER JOIN (SELECT * FROM {{index}} WHERE CellValue IN (:q{i})"
                f"{predicate}) AS Q{i}"
                f" ON Q0.TableId = Q{i}.TableId AND Q0.RowId = Q{i}.RowId"
            )
        return "".join(parts)

    def params(self, rewrite: Optional[Rewrite] = None) -> dict[str, Any]:
        params: dict[str, Any] = {
            f"q{i}": list(column) for i, column in enumerate(self._column_tokens)
        }
        if rewrite:
            params["__rewrite_ids"] = list(rewrite.table_ids)
        return params

    def partials(
        self, context: SeekerContext, rewrite: Optional[Rewrite] = None
    ) -> SeekerPartials:
        """Exact per-table validated-row counts -- the counts-kind
        partial; per-shard counts sum in the merge before the top-k."""
        context.ensure_fresh()
        candidates = self.fetch_candidate_arrays(context, rewrite)
        table_ids, row_ids = self.superkey_filter_batch(*candidates, context)
        table_ids, _ = self.validate_batch(table_ids, row_ids, context, candidates.scan)
        return mc_count_partials(table_ids)

    # -- the three MC phases as the group-of-one forms of the group bodies
    # -- below, exposed for tests and Table V; the scalar reference they are
    # -- pinned against is tests/oracles/mc_scalar.py ---------------------------

    def fetch_candidate_arrays(
        self, context: SeekerContext, rewrite: Optional[Rewrite] = None
    ) -> "MCCandidates":
        """Phase 1: ``(TableId, RowId, SuperKey)`` columns of the rows
        Listing 2 joins, one per row, sorted by ``(TableId, RowId)``."""
        return mc_fetch_candidates([self], context, rewrite)[0]

    def superkey_filter_batch(
        self,
        table_ids: np.ndarray,
        row_ids: np.ndarray,
        super_keys: np.ndarray,
        context: SeekerContext,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Phase 2: prune rows whose super key cannot contain any tuple."""
        return mc_superkey_filter([self], [(table_ids, row_ids, super_keys)], context)[0]

    def validate_batch(
        self,
        table_ids: np.ndarray,
        row_ids: np.ndarray,
        context: SeekerContext,
        scan: Optional["MCScan"] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Phase 3: the candidates (in input order) whose indexed row
        contains some query tuple row-aligned, read from phase 1's *scan*
        (run afresh when not given)."""
        return mc_validate([self], [(table_ids, row_ids)], context, scan)[0]

    def _tuple_hash_array(self, context: SeekerContext) -> np.ndarray:
        """Distinct query-tuple hashes: the vocabulary's XASH (from the
        process-wide token memo), OR-reduced along the code matrix."""
        token_hashes = xash_memoized(
            list(self._vocabulary), context.hash_size, context.xash_chars
        )
        return np.unique(np.bitwise_or.reduce(token_hashes[self._tuple_codes], axis=1))

    def query_cardinality(self) -> int:
        return sum(map(len, self._column_tokens))

    def query_columns(self) -> int:
        return self.width

    def query_tokens(self) -> list[str]:
        return [token for column in self._column_tokens for token in column]


# The distinct SC/KW triples are found by marking a bitmap over the key
# span when the span is at most this many keys per scanned row, and by a
# sort otherwise; needing no inverse, the bitmap wins far wider than
# _DENSE_SPAN_PER_ROW. On 1e3 /
# 9,263 (a median value_seek scan) / 1e5 random int64 keys, 2 vCPUs,
# np.unique takes 12-45x the bitmap's time at 1 key per row, 2.2-3.4x at
# 128, 1.3-2.4x at 256 and 0.7-0.8x at 512. value_seek scans span 2.9 keys
# per row at the median and 99 at the 99th percentile; 128 also caps the
# bitmap at 128 bytes per scanned row.
_BITMAP_SPAN_PER_ROW = 128


def _distinct_sorted(keys: np.ndarray, span: int) -> np.ndarray:
    """The sorted distinct values of *keys*, all in ``[0, span)``."""
    if span <= _BITMAP_SPAN_PER_ROW * len(keys):
        marked = np.zeros(span, dtype=bool)
        marked[keys] = True
        return np.flatnonzero(marked)
    return np.unique(keys)


def _vocab_codes(values: np.ndarray, vocabulary: dict[str, int]) -> np.ndarray:
    """Translate a ``CellValue IN`` scan's values into *vocabulary*
    codes. On the column backend (``decode_text=False``) the index scan
    hands over :class:`DictCodes` over the sorted *matched* values -- at
    most the vocabulary -- so one dict probe per matched value fills a
    table that one integer gather reads. Object arrays (the row backend)
    keep the per-row probe."""
    if isinstance(values, DictCodes):
        store_codes = np.asarray(values)
        if len(store_codes) and store_codes.min() < 0:  # -1 (NULL) would read the last entry
            raise SeekerError("a CellValue IN scan returned a NULL cell")
        matched = values.dictionary.tolist()
        lut = np.fromiter(map(vocabulary.__getitem__, matched), dtype=np.int64, count=len(matched))
        return lut[store_codes]
    return np.fromiter(map(vocabulary.__getitem__, values), dtype=np.int64, count=len(values))


# -- SC and KW: one body over a GROUP of seekers of one kind. A solo query is
# -- the group of one; a serving batch passes its SC queries, then its KW ones. --


def value_partials(
    group: Sequence[ValueSeeker], context: SeekerContext, rewrite: Optional[Rewrite] = None
) -> list[SeekerPartials]:
    """Every member's ranked partial from ONE ``CellValue IN`` scan of
    the group's combined tokens (restricted by *rewrite*): each cell's
    group-vocabulary code, the distinct ``(TableId[, ColumnId], code)``
    keys found once, and per member a bincount of its own codes per group
    -- its ``COUNT(DISTINCT CellValue)``; a member holding the whole
    vocabulary, as a group of one does, needs no mask. Groups come out
    sorted, so a stable sort on the overlap is ``ORDER BY overlap DESC,
    TableId[, ColumnId]``, cut at the member's ``fetch``. The members
    must be of one kind (all SC or all KW)."""
    per_column = group[0].per_column
    if any(seeker.per_column != per_column for seeker in group):
        raise SeekerError("value_partials takes SC and KW queries in separate groups")
    tokens = list(dict.fromkeys(chain.from_iterable(seeker.tokens for seeker in group)))
    vocabulary = dict(zip(tokens, range(len(tokens))))
    params: dict[str, Any] = {"q": tokens}
    if rewrite:
        params["__rewrite_ids"] = list(rewrite.table_ids)
    sql = (
        f"SELECT TableId, {'ColumnId, ' * per_column}CellValue "
        f"FROM {ALLTABLES} WHERE CellValue IN (:q)"
        + (rewrite.predicate_sql() if rewrite else "")
    )
    result = context.db.execute_columnar(sql, params, decode_text=False)
    arrays = [data for data, _ in result.arrays]
    if len(arrays[0]) == 0:
        return [SeekerPartials(RANKED, fetch=seeker.fetch) for seeker in group]

    n_codes = len(tokens)
    tables = arrays[0].astype(np.int64, copy=False)
    low, column_span = int(tables.min()), 1
    keys = tables - low
    if per_column:
        columns = arrays[1].astype(np.int64, copy=False)
        column_span = int(columns.max()) + 1
        keys = keys * column_span + columns
    span = (int(tables.max()) - low + 1) * column_span * n_codes
    keys = _distinct_sorted(keys * n_codes + _vocab_codes(arrays[-1], vocabulary), span)
    groups, codes = np.divmod(keys, n_codes)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = groups[1:] != groups[:-1]
    heads = groups[first]
    group_tables, group_columns = heads // column_span + low, heads % column_span
    group_of_key = np.cumsum(first) - 1

    results = []
    member = np.zeros(n_codes, dtype=bool)
    for seeker in group:
        counted = group_of_key
        if len(seeker.tokens) < n_codes:
            mine = [vocabulary[token] for token in seeker.tokens]
            member[mine] = True
            counted = group_of_key[member[codes]]
            member[mine] = False
        overlaps = np.bincount(counted, minlength=len(heads))
        hit = np.flatnonzero(overlaps)
        cut = hit[np.argsort(-overlaps[hit], kind="stable")[: seeker.fetch]]
        results.append(
            SeekerPartials(
                RANKED,
                group_tables[cut],
                overlaps[cut].astype(np.float64),
                group_keys=group_columns[cut] if per_column else None,
                fetch=seeker.fetch,
            )
        )
    return results


# -- the MC phases: one body each, over a GROUP of seekers. A solo query is the
# -- group of one (the phase methods of MultiColumnSeeker); a serving batch
# -- (:mod:`repro.core.batch`) passes all its MC queries, of any widths. ------------


class MCScan:
    """The one SQL statement of an MC group: every ``AllTables`` cell
    holding a token of the group's combined vocabulary, with its row's
    super key, sorted by ``(TableId, RowId)`` into one run of cells per
    row (``starts``; ``keys`` packs ``(table << 32) + row``, sorted).
    ``codes`` are the cells' group-vocabulary codes; ``code_maps`` gather
    each member's local codes into them (iterating a vocabulary dict
    yields tokens in local-code order). A *rewrite* restricts the scan.
    """

    def __init__(
        self,
        group: Sequence[MultiColumnSeeker],
        context: SeekerContext,
        rewrite: Optional[Rewrite] = None,
    ) -> None:
        tokens = list(dict.fromkeys(chain.from_iterable(seeker._vocabulary for seeker in group)))
        self.vocabulary = vocabulary = dict(zip(tokens, range(len(tokens))))
        self.code_maps = [
            np.fromiter(
                map(vocabulary.__getitem__, seeker._vocabulary),
                dtype=np.int64,
                count=len(seeker._vocabulary),
            )
            for seeker in group
        ]
        params: dict[str, Any] = {"q": tokens}
        if rewrite:
            params["__rewrite_ids"] = list(rewrite.table_ids)
        sql = (
            f"SELECT TableId, RowId, SuperKey, CellValue FROM {ALLTABLES} "
            "WHERE CellValue IN (:q)" + (rewrite.predicate_sql() if rewrite else "")
        )
        result = context.db.execute_columnar(sql, params, decode_text=False)
        tables, rows, super_keys, values = (result.arrays[i][0] for i in range(4))
        tables, rows = tables.astype(np.int64, copy=False), rows.astype(np.int64, copy=False)
        keys = (tables << 32) + rows
        order = np.argsort(keys)
        keys = keys[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        self.starts = np.nonzero(first)[0]
        self.run_of_cell = np.cumsum(first) - 1
        self.codes = _vocab_codes(values, self.vocabulary)[order]
        self.keys = keys[self.starts]
        head = order[self.starts]
        self.table_ids, self.row_ids, self.super_keys = tables[head], rows[head], super_keys[head]


class MCCandidates(tuple):
    """One member's phase-1 candidates: unpacks as ``(table_ids, row_ids,
    super_keys)`` and carries the :class:`MCScan` it was read from, which
    phase 3 reuses instead of scanning again."""

    def __new__(cls, arrays: tuple[np.ndarray, ...], scan: MCScan) -> "MCCandidates":
        candidates = super().__new__(cls, arrays)
        candidates.scan = scan
        return candidates


def mc_fetch_candidates(
    group: Sequence[MultiColumnSeeker],
    context: SeekerContext,
    rewrite: Optional[Rewrite] = None,
) -> list[MCCandidates]:
    """Phase 1: ONE :class:`MCScan` for the whole group, then per member
    the rows whose run of cells covers each of its query columns (an OR
    per column over the run: some cell's token is in that column's
    tokens). That is Listing 2's join, which equates only ``(TableId,
    RowId)``, so one cell may serve several columns."""
    scan = MCScan(group, context, rewrite)
    candidates = []
    for seeker, code_map in zip(group, scan.code_maps):
        runs = np.empty(0, dtype=np.int64)
        if len(scan.starts):
            in_column = np.zeros((seeker.width, len(scan.vocabulary)), dtype=bool)
            in_column[np.arange(seeker.width), code_map[seeker._tuple_codes]] = True
            covered = np.logical_or.reduceat(in_column[:, scan.codes], scan.starts, axis=1)
            runs = np.nonzero(covered.all(axis=0))[0]
        arrays = (scan.table_ids[runs], scan.row_ids[runs], scan.super_keys[runs])
        candidates.append(MCCandidates(arrays, scan))
    return candidates


def mc_superkey_filter(
    group: Sequence[MultiColumnSeeker],
    candidates: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    context: SeekerContext,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Phase 2: each member's ``(TableId, RowId)`` survivors among its
    ``(table_ids, row_ids, super_keys)`` candidates -- the rows whose
    super key can bit-contain one of its tuple hashes (no false
    negatives), one blocked bitwise-AND pass per member."""
    survivors = []
    for seeker, (table_ids, row_ids, super_keys) in zip(group, candidates):
        mask = may_contain_batch(super_keys, seeker._tuple_hash_array(context))
        survivors.append((table_ids[mask], row_ids[mask]))
    return survivors


def mc_validate(
    group: Sequence[MultiColumnSeeker],
    survivors: Sequence[tuple[np.ndarray, np.ndarray]],
    context: SeekerContext,
    scan: Optional[MCScan] = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Phase 3: exact containment against the indexed row tokens.
    *survivors* holds one ``(TableId, RowId)`` pair of arrays per member;
    the result is, per member, those of its pairs (in input order) whose
    row contains one of its tuples row-aligned.

    The tokens come from *scan* (phase 1's, or a fresh one): each
    survivor is found among its runs by packed key and marked into a
    boolean presence matrix over the group vocabulary; every member then
    checks its own tuples against its rows of that matrix, through its
    code map. No lake cell is read: row ids are bounded by the table's
    current row count (stale index rows of a shrunk table, and negative
    ids, validate nothing), and a cell edited in place without
    ``replace_table`` is judged by its indexed token, as phases 1 and 2
    judge it.

    A row contains a tuple row-aligned iff, for every distinct token of
    the tuple, the row holds at least as many cells with that token as
    the tuple does (Hall's condition -- positions of distinct tokens are
    disjoint, so the bipartite matching of the scalar oracle decomposes
    into per-token counts). For tuples without repeated tokens -- the
    overwhelmingly common case -- that is a presence check: one column
    gather of the boolean presence matrix per tuple position, AND-ed --
    O(rows x tuples x width), whatever the vocabulary size.
    """
    all_tables = np.concatenate([tables for tables, _ in survivors])
    all_rows = np.concatenate([rows for _, rows in survivors])
    if scan is None and len(all_tables):
        scan = MCScan(group, context)
    if len(all_tables) == 0 or len(scan.keys) == 0:
        empty = np.empty(0, dtype=np.int64)
        return [(empty, empty)] * len(group)

    # Survivor -> its run of the scan, live iff the run is its row and the
    # row is in the table's current row range.
    distinct_tables, table_of = np.unique(all_tables, return_inverse=True)
    limits = np.array([len(context.lake.by_id(t).rows) for t in distinct_tables.tolist()])
    keys = (all_tables << 32) + all_rows
    run = np.minimum(np.searchsorted(scan.keys, keys), len(scan.keys) - 1)
    live = (scan.keys[run] == keys) & (all_rows >= 0) & (all_rows < limits[table_of])

    # Presence always; per-token counts only for tuples that repeat a token.
    needed = np.zeros(len(scan.keys), dtype=bool)
    needed[run[live]] = True
    matrix_row = np.cumsum(needed) - 1
    cells = np.nonzero(needed[scan.run_of_cell])[0]
    cell = (matrix_row[scan.run_of_cell[cells]], scan.codes[cells])
    present = np.zeros((matrix_row[-1] + 1, len(scan.vocabulary)), dtype=bool)
    present[cell] = True
    counts = None
    if any(seeker._multisets for seeker in group):
        counts = np.zeros(present.shape, np.int32)
        np.add.at(counts, cell, 1)

    validated = []
    offset = 0
    for seeker, (tables, rows), code_map in zip(group, survivors, scan.code_maps):
        mine = slice(offset, offset + len(tables))
        offset += len(tables)
        keep = np.nonzero(live[mine])[0]
        # (row, tuple) is True iff the row holds the tuple's token at
        # every position; take() keeps the gathers C-ordered.
        my_rows = matrix_row[run[mine][keep]]
        my_present = present.take(my_rows, axis=0)
        columns = code_map[seeker._repeat_free].T
        hit = my_present.take(columns[0], axis=1)
        for column in columns[1:]:
            hit &= my_present.take(column, axis=1)
        valid = hit.any(axis=1)
        if seeker._multisets:
            my_counts = counts.take(my_rows, axis=0)
            for codes, required in seeker._multisets:
                valid |= (my_counts[:, code_map[codes]] >= required).all(axis=1)
        keep = keep[valid]
        validated.append((tables[keep], rows[keep]))
    return validated


def mc_count_partials(validated_table_ids: np.ndarray) -> SeekerPartials:
    """The MC tail: validated joinable rows per table, as a counts partial."""
    return count_partials(*np.unique(validated_table_ids, return_counts=True))


class CorrelationSeeker(Seeker):
    """C: top-k tables with a column correlating with the target
    (Listing 3, QCR-based). :func:`correlation_partials` computes it from
    two scans; :meth:`sql` states the same query as SQL.

    The query is a (join key, numeric target) column pair. Join keys are
    split into ``$k_0$`` (target below mean) and ``$k_1$`` (target >= mean)
    *before* query generation; the in-database QCR is then::

        ABS((2 * SUM(same-quadrant pairs) - COUNT(*)) / COUNT(*))

    ``h`` bounds sampled rows per table via ``RowId < h`` -- convenience
    sampling unless the index was built with ``shuffle_rows`` (BLEND
    (rand)). Unlike the original QCR index, numeric join keys work: keys
    are matched as tokens, not category hashes.

    ``min_qcr`` keeps only column pairs whose estimated |QCR| reaches the
    threshold -- required when the seeker feeds a Difference combiner
    (multicollinearity filters must not subtract weakly-correlated noise).

    ``min_support`` adds ``HAVING COUNT(*) >= min_support``: a column pair
    joining on only a couple of stray key collisions trivially reaches
    |QCR| = 1 and would drown out real correlations. The original sketch
    baseline is immune (it ranks by matched-hash counts), so the paper's
    Listing 3 omits the clause; any lake with cross-table token collisions
    needs it.
    """

    kind = "C"

    def __init__(
        self,
        keys: Iterable[Cell],
        targets: Iterable[Cell],
        k: int = 10,
        h: int = 256,
        min_support: int = 3,
        min_qcr: float = 0.0,
    ) -> None:
        super().__init__(k)
        keys = list(keys)
        targets = list(targets)
        if len(keys) != len(targets):
            raise SeekerError("correlation seeker requires aligned key/target columns")
        if h <= 0:
            raise SeekerError("sample size h must be positive")
        if min_support < 1:
            raise SeekerError("min_support must be at least 1")
        if not 0.0 <= min_qcr <= 1.0:
            raise SeekerError("min_qcr must be within [0, 1]")
        self.h = h
        self.min_support = min_support
        self.min_qcr = min_qcr
        self.k0, self.k1 = split_keys_by_target(keys, targets)
        if not self.k0 and not self.k1:
            raise SeekerError("correlation seeker requires numeric targets")

    @property
    def join_tokens(self) -> list[str]:
        return self.k0 + self.k1

    @property
    def fetch(self) -> int:
        return self.k * OVERFETCH

    def sql(self, rewrite: Optional[Rewrite] = None) -> str:
        # The rewrite predicate restricts BOTH subqueries -- the join
        # equates TableId across sides, so filtering nums as well is
        # equivalent.
        predicate = rewrite.predicate_sql() if rewrite else ""
        template = (
            "SELECT keys.TableId, "
            "ABS((2.0 * SUM(((keys.CellValue IN (:k0) AND nums.Quadrant = 0) "
            "OR (keys.CellValue IN (:k1) AND nums.Quadrant = 1))::int) "
            "- COUNT(*)) / COUNT(*)) AS qcr "
            "FROM (SELECT * FROM {index} WHERE RowId < :h AND CellValue IN (:qj)"
            + REWRITE_MARKER
            + ") keys "
            "INNER JOIN (SELECT * FROM {index} WHERE RowId < :h "
            "AND Quadrant IS NOT NULL" + REWRITE_MARKER + ") nums "
            "ON keys.TableId = nums.TableId AND keys.RowId = nums.RowId "
            "AND keys.ColumnId <> nums.ColumnId "
            "GROUP BY keys.TableId, nums.ColumnId, keys.ColumnId "
            "HAVING COUNT(*) >= :minsup "
            "AND ABS((2.0 * SUM(((keys.CellValue IN (:k0) AND nums.Quadrant = 0) "
            "OR (keys.CellValue IN (:k1) AND nums.Quadrant = 1))::int) "
            "- COUNT(*)) / COUNT(*)) >= :minqcr "
            "ORDER BY qcr DESC, keys.TableId, nums.ColumnId "
            "LIMIT :fetch"
        )
        return template.replace(REWRITE_MARKER, predicate)

    def params(self, rewrite: Optional[Rewrite] = None) -> dict[str, Any]:
        params: dict[str, Any] = {
            "qj": self.join_tokens,
            "k0": self.k0 if self.k0 else ["\0__never__"],
            "k1": self.k1 if self.k1 else ["\0__never__"],
            "h": self.h,
            "minsup": self.min_support,
            "minqcr": self.min_qcr,
            "fetch": self.fetch,
        }
        if rewrite:
            params["__rewrite_ids"] = list(rewrite.table_ids)
        return params

    def partials(
        self, context: SeekerContext, rewrite: Optional[Rewrite] = None
    ) -> SeekerPartials:
        context.ensure_fresh()
        return correlation_partials([self], context, rewrite)[0]

    def query_cardinality(self) -> int:
        return len(self.k0) + len(self.k1)

    def query_columns(self) -> int:
        return 2

    def query_tokens(self) -> list[str]:
        return self.join_tokens


def correlation_partials(
    group: Sequence[CorrelationSeeker], context: SeekerContext, rewrite: Optional[Rewrite] = None
) -> list[SeekerPartials]:
    """Every member's ranked partial from two scans the group shares: the
    key cells (``CellValue IN`` the group's join tokens, restricted by
    *rewrite*; those at ``RowId <`` its largest ``h`` kept) and the
    numeric cells (``Quadrant IS NOT NULL``; ``RowId < h`` kept, as for
    the keys) of the tables those hit. Each key cell joins the numeric
    cells of its row in another column (packed ``(TableId << 32) +
    RowId``, one ``searchsorted``); per member -- its own tokens, below
    its own ``h`` -- two bincounts per ``(TableId, nums.ColumnId,
    keys.ColumnId)`` give Listing 3's ``COUNT(*)`` and same-quadrant
    ``SUM``, then its QCR (the statement's own float operations),
    ``HAVING``, ``ORDER BY qcr DESC, TableId, nums.ColumnId`` (a stable
    lexsort) and ``LIMIT``."""
    tokens = list(dict.fromkeys(chain.from_iterable(seeker.join_tokens for seeker in group)))
    vocabulary = dict(zip(tokens, range(len(tokens))))
    h = max(seeker.h for seeker in group)
    params: dict[str, Any] = {"q": tokens}
    if rewrite:
        params["__rewrite_ids"] = list(rewrite.table_ids)
    sql = (
        f"SELECT TableId, RowId, ColumnId, CellValue FROM {ALLTABLES} "
        "WHERE CellValue IN (:q)" + (rewrite.predicate_sql() if rewrite else "")
    )
    keys = [data for data, _ in context.db.execute_columnar(sql, params, decode_text=False).arrays]
    sampled = np.flatnonzero(keys[1] < h)
    empty = [SeekerPartials(RANKED, fetch=seeker.fetch) for seeker in group]
    if len(sampled) == 0:
        return empty
    # The scan yields one run of cells per token; in (TableId, RowId)
    # order the join's searchsorted probes ascend, which is several
    # times faster than probing run after run.
    packed = (keys[0][sampled].astype(np.int64) << 32) + keys[1][sampled]
    by_row = np.argsort(packed)
    sampled, packed = sampled[by_row], packed[by_row]
    codes = _vocab_codes(keys[3], vocabulary)[sampled]
    key_tables, key_rows, key_columns = (a[sampled].astype(np.int64) for a in keys[:3])
    hit_tables = np.unique(key_tables)
    sql = (
        f"SELECT TableId, RowId, ColumnId, Quadrant FROM {ALLTABLES} "
        "WHERE TableId IN (:t) AND Quadrant IS NOT NULL"
    )
    result = context.db.execute_columnar(sql, {"t": hit_tables.tolist()})
    sampled = np.flatnonzero(result.arrays[1][0] < h)
    num_tables, num_rows, num_columns, quadrant = (data[sampled] for data, _ in result.arrays)

    # The join: each key cell meets the run of its row's numeric cells.
    num_keys = (num_tables.astype(np.int64) << 32) + num_rows.astype(np.int64)
    order = np.argsort(num_keys, kind="stable")
    num_keys = num_keys[order]
    first = np.searchsorted(num_keys, packed, "left")
    width = np.searchsorted(num_keys, packed, "right") - first
    key_cell = np.repeat(np.arange(len(packed)), width)
    num_cell = order[np.arange(len(key_cell)) + np.repeat(first - np.cumsum(width) + width, width)]
    other = key_columns[key_cell] != num_columns[num_cell]
    key_cell, num_cell = key_cell[other], num_cell[other]
    if len(key_cell) == 0:
        return empty

    # Groups (TableId, nums.ColumnId, keys.ColumnId), sorted.
    pair_columns = num_columns[num_cell].astype(np.int64), key_columns[key_cell]
    span = int(max(column.max() for column in pair_columns)) + 1
    table_rank = np.searchsorted(hit_tables, key_tables[key_cell])
    heads, pair_group = np.unique(
        (table_rank * span + pair_columns[0]) * span + pair_columns[1], return_inverse=True
    )
    group_tables, group_num_columns = hit_tables[heads // (span * span)], heads // span % span
    codes, rows, quadrant = codes[key_cell], key_rows[key_cell], quadrant[num_cell].astype(np.intp)

    results = []
    for seeker in group:
        side = np.zeros((2, len(tokens)), dtype=bool)  # [0]: k0 (below the mean), [1]: k1
        side[0, [vocabulary[token] for token in seeker.k0]] = True
        side[1, [vocabulary[token] for token in seeker.k1]] = True
        mine = side.any(axis=0)[codes] & (rows < seeker.h)
        same = mine & side[quadrant, codes]
        count = np.bincount(pair_group[mine], minlength=len(heads))
        agree = np.bincount(pair_group[same], minlength=len(heads))
        kept = np.flatnonzero(count >= seeker.min_support)
        qcr = np.abs((2.0 * agree[kept] - count[kept]) / count[kept])
        kept, qcr = kept[qcr >= seeker.min_qcr], qcr[qcr >= seeker.min_qcr]
        cut = np.lexsort((group_num_columns[kept], group_tables[kept], -qcr))[: seeker.fetch]
        results.append(
            SeekerPartials(RANKED, group_tables[kept][cut], qcr[cut], fetch=seeker.fetch)
        )
    return results


class Seekers:
    """The paper's API namespace: ``Seekers.SC(...)``, ``Seekers.MC(...)``,
    ``Seekers.KW(...)``, ``Seekers.Correlation(...)`` (alias ``C``)."""

    SC = SingleColumnSeeker
    KW = KeywordSeeker
    MC = MultiColumnSeeker
    Correlation = CorrelationSeeker
    C = CorrelationSeeker


SEEKER_RULE_RANK = {"KW": 0, "SS": 1, "SC": 1, "C": 2, "HY": 2, "MC": 3}
"""Rule-based execution order (paper §VII-B): KW first, SC before C, MC
last -- derived from the operators' index-scan complexities. The semantic
extension's SS seeker (an ANN look-up, sub-linear) shares SC's tier."""
