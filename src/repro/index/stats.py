"""Lake statistics for the optimizer's learned cost model (paper §VII-B).

The cost model's features are computed from corpus statistics gathered in
the offline phase: the frequency of each token in the lake (posting-list
length) and aggregate counts. Kept separate from the index so the online
phase can estimate seeker costs without touching ``AllTables``.

Statistics are **maintained exactly** under the lake lifecycle:
:meth:`LakeStatistics.add_table` and :meth:`LakeStatistics.remove_table`
update every field (per-token frequencies included, with zero-count
tokens dropped), so a long-running deployment's statistics always equal a
from-scratch :meth:`LakeStatistics.from_lake` over the current lake --
pinned by tests, no drift. Both the offline scan and the maintenance
deltas run on the vectorised token-factorisation kernel of the AllTables
builder (one ``np.bincount`` per table instead of a per-cell Python
loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..lake.datalake import DataLake
from ..lake.table import Cell, Table, normalize_cell, normalize_tokens


def table_token_counts(table: Table, factorizer=None) -> tuple[list[str], np.ndarray]:
    """Per-token occurrence counts of one table's non-null cells.

    Runs the AllTables builder's batch factorisation kernel
    (:class:`repro.index.alltables._Factorizer`; bit-identical to
    ``normalize_cell`` per cell, including the bool/int duality rules)
    and one ``np.bincount`` -- the vectorised replacement for the old
    per-cell statistics loop. Returns ``(tokens, counts)`` aligned
    arrays; pass a shared *factorizer* to reuse its memo across tables
    (counts then cover only this table, tokens are the factorizer's
    cumulative first-seen list).
    """
    from .alltables import _Factorizer  # local: avoids import cycle at load

    if factorizer is None:
        factorizer = _Factorizer()
    n_cells = table.num_rows * table.num_columns
    if n_cells == 0:
        return factorizer.tokens, np.zeros(len(factorizer.tokens), dtype=np.int64)
    tokens = getattr(table, "tokens_if_cached", lambda: None)()
    if tokens is not None:
        # The indexing path already normalised this table (the cache is
        # populated by ``index_table``/``Table.normalized_cells``):
        # factorize straight from tokens.
        codes = factorizer.factorize_tokens(tokens, n_cells)
    else:
        codes = factorizer.factorize_tokens(
            normalize_tokens([v for row in table.rows for v in row]), n_cells
        )
    counts = np.bincount(codes[codes >= 0], minlength=len(factorizer.tokens))
    return factorizer.tokens, counts.astype(np.int64, copy=False)


@dataclass
class LakeStatistics:
    """Token frequencies plus corpus aggregates."""

    num_tables: int
    num_cells: int
    frequencies: dict[str, int] = field(repr=False)
    num_columns: int = 0
    num_rows: int = 0

    @property
    def num_distinct_tokens(self) -> int:
        """Distinct non-null tokens across the lake (maintained exactly:
        tokens whose frequency reaches zero are dropped)."""
        return len(self.frequencies)

    def average_posting_length(self) -> float:
        """Mean posting-list length (``AllTables`` rows per distinct
        token) -- the corpus' value-collision density, which scales how
        many index rows one probed token drags into a seeker scan."""
        if not self.frequencies:
            return 0.0
        return self.num_cells / len(self.frequencies)

    @classmethod
    def from_lake(cls, lake: DataLake) -> "LakeStatistics":
        from .alltables import _Factorizer

        factorizer = _Factorizer()
        totals = np.zeros(0, dtype=np.int64)
        num_cells = 0
        num_columns = 0
        num_rows = 0
        for table in lake:
            tokens, counts = table_token_counts(table, factorizer)
            if len(counts) > len(totals):
                grown = np.zeros(len(counts), dtype=np.int64)
                grown[: len(totals)] = totals
                totals = grown
            totals[: len(counts)] += counts
            num_cells += int(counts.sum())
            num_columns += table.num_columns
            num_rows += table.num_rows
        frequencies = dict(zip(factorizer.tokens, totals.tolist()))
        return cls(
            num_tables=len(lake),
            num_cells=num_cells,
            frequencies=frequencies,
            num_columns=num_columns,
            num_rows=num_rows,
        )

    # -- snapshots --------------------------------------------------------------------

    def snapshot_arrays(self) -> tuple[list[str], np.ndarray]:
        """The per-token frequency table as aligned ``(tokens, counts)``
        arrays -- the snapshot layer's mmap-friendly form (counts as one
        int64 ``.npy``, tokens as an offsets+UTF-8-blob pair); the
        aggregate scalars travel in the manifest."""
        counts = np.fromiter(
            self.frequencies.values(), dtype=np.int64, count=len(self.frequencies)
        )
        return list(self.frequencies.keys()), counts

    @classmethod
    def from_snapshot(
        cls,
        tokens: list[str],
        counts: np.ndarray,
        num_tables: int,
        num_cells: int,
        num_columns: int,
        num_rows: int,
    ) -> "LakeStatistics":
        """Rebuild statistics from :meth:`snapshot_arrays` output plus
        the manifest aggregates -- exactly equal (``==``) to the
        instance that was saved."""
        return cls(
            num_tables=num_tables,
            num_cells=num_cells,
            frequencies=dict(zip(tokens, counts.tolist())),
            num_columns=num_columns,
            num_rows=num_rows,
        )

    # -- exact lifecycle maintenance ------------------------------------------------

    def add_table(self, table: Table) -> None:
        """Fold one added table into every statistic (vectorised)."""
        tokens, counts = table_token_counts(table)
        frequencies = self.frequencies
        for token, count in zip(tokens, counts.tolist()):
            if count:
                frequencies[token] = frequencies.get(token, 0) + count
        self.num_cells += int(counts.sum())
        self.num_tables += 1
        self.num_columns += table.num_columns
        self.num_rows += table.num_rows

    def remove_table(self, table: Table) -> None:
        """Subtract one removed table from every statistic -- exact
        per-token frequency decrements, with tokens dropped at zero so
        the maintained state stays equal to a from-scratch scan (no
        drift, no ghost tokens inflating ``num_distinct_tokens``)."""
        tokens, counts = table_token_counts(table)
        frequencies = self.frequencies
        for token, count in zip(tokens, counts.tolist()):
            if not count:
                continue
            remaining = frequencies.get(token, 0) - count
            if remaining > 0:
                frequencies[token] = remaining
            else:
                frequencies.pop(token, None)
        self.num_cells -= int(counts.sum())
        self.num_tables -= 1
        self.num_columns -= table.num_columns
        self.num_rows -= table.num_rows

    def replace_table(self, previous: Table, table: Table) -> None:
        """Swap one table's contribution for another's (same table id)."""
        self.remove_table(previous)
        self.add_table(table)

    # -- cost-model reads ------------------------------------------------------------

    def frequency(self, value: Cell) -> int:
        """Occurrences of one value's token across the lake."""
        token = normalize_cell(value)
        if token is None:
            return 0
        return self.frequencies.get(token, 0)

    def average_frequency(self, values: Iterable[Cell]) -> float:
        """Mean token frequency of a query column -- the cost model's
        third feature. Unknown tokens count as zero (they prune to empty
        posting lists, the cheapest case)."""
        total = 0
        count = 0
        for value in values:
            total += self.frequency(value)
            count += 1
        return total / count if count else 0.0

    def selectivity(self, values: Iterable[Cell]) -> float:
        """Fraction of all index rows a value set touches (upper bound)."""
        if self.num_cells == 0:
            return 0.0
        touched = sum(self.frequency(v) for v in values)
        return min(1.0, touched / self.num_cells)
