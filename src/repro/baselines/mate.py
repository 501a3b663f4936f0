"""MATE-style standalone multi-column join discovery (VLDB 2022).

The reference baseline for BLEND's MC seeker (paper §VIII-E, Table V).
MATE's pipeline:

1. fetch candidate rows via the inverted index using **one** query column
   (the most selective one),
2. prune candidates with the XASH super-key bloom filter,
3. validate survivors row by row at the application level.

The key difference to BLEND's MC seeker is step 1: BLEND's SQL join
demands index hits from *every* query column in the same row before any
filtering, while MATE admits every row matching the initial column that
survives XASH -- hence MATE's much larger candidate sets and lower
pre-validation precision in Table V (recall is 100 % for both, as XASH
has no false negatives).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from ..core.results import ResultList, TableHit
from ..index.xash import DEFAULT_HASH_SIZE, DEFAULT_NUM_CHARS, may_contain, super_key, xash
from ..lake.datalake import DataLake
from ..lake.table import Cell, normalize_cell


@dataclass
class MateQueryStats:
    """Table V's measured quantities for one query."""

    candidates_fetched: int = 0
    candidates_after_filter: int = 0
    true_positives: int = 0
    false_positives: int = 0

    @property
    def precision(self) -> float:
        total = self.true_positives + self.false_positives
        return self.true_positives / total if total else 1.0


class MateIndex:
    """Inverted index + per-row XASH super keys, standalone."""

    def __init__(
        self,
        lake: DataLake,
        hash_size: int = DEFAULT_HASH_SIZE,
        num_chars: int = DEFAULT_NUM_CHARS,
    ) -> None:
        self.lake = lake
        self.hash_size = hash_size
        self.num_chars = num_chars
        self._postings: dict[str, list[tuple[int, int]]] = {}
        self._super_keys: dict[tuple[int, int], int] = {}
        for table_id, table in lake.items():
            for row_id, row in enumerate(table.rows):
                self._super_keys[(table_id, row_id)] = super_key(
                    row, hash_size, num_chars
                )
                seen_in_row: set[str] = set()
                for value in row:
                    token = normalize_cell(value)
                    if token is not None and token not in seen_in_row:
                        seen_in_row.add(token)
                        self._postings.setdefault(token, []).append((table_id, row_id))
        self.last_stats = MateQueryStats()

    # -- search -------------------------------------------------------------------

    def search(self, rows: Sequence[Sequence[Cell]], k: int = 10) -> ResultList:
        """Top-k tables by validated joinable-row count."""
        tuples = self._normalize_tuples(rows)
        if not tuples:
            return ResultList()
        width = len(tuples[0])
        stats = MateQueryStats()

        # Step 1: candidate fetch on the most selective query column.
        initial = self._most_selective_column(tuples, width)
        initial_tokens = {t[initial] for t in tuples}
        candidates: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for token in initial_tokens:
            for key in self._postings.get(token, ()):
                if key not in seen:
                    seen.add(key)
                    candidates.append(key)
        stats.candidates_fetched = len(candidates)

        # Step 2: XASH super-key filter.
        tuple_hashes = [
            (query_tuple, self._tuple_hash(query_tuple)) for query_tuple in tuples
        ]
        filtered: list[tuple[int, int]] = []
        for table_id, row_id in candidates:
            row_key = self._super_keys[(table_id, row_id)]
            if any(may_contain(row_key, h) for _, h in tuple_hashes):
                filtered.append((table_id, row_id))
        stats.candidates_after_filter = len(filtered)

        # Step 3: application-level row-by-row validation (the baseline's
        # bottleneck in the paper's complex-task experiments).
        counts: dict[int, int] = {}
        needed = [Counter(query_tuple) for query_tuple in set(tuples)]
        for table_id, row_id in filtered:
            table = self.lake.by_id(table_id)
            # Row-aligned containment: distinct tokens sit in disjoint
            # columns, so a tuple fits iff the row holds each of its
            # tokens at least as often as the tuple does.
            have = Counter(normalize_cell(v) for v in table.rows[row_id])
            if any(all(have[t] >= n for t, n in need.items()) for need in needed):
                counts[table_id] = counts.get(table_id, 0) + 1
                stats.true_positives += 1
            else:
                stats.false_positives += 1
        self.last_stats = stats

        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        return ResultList(
            TableHit(table_id, float(count)) for table_id, count in ranked[:k]
        )

    # -- helpers -------------------------------------------------------------------

    def _normalize_tuples(self, rows: Sequence[Sequence[Cell]]) -> list[tuple[str, ...]]:
        tuples = []
        for row in rows:
            tokens = tuple(normalize_cell(v) for v in row)
            if all(token is not None for token in tokens):
                tuples.append(tokens)  # type: ignore[arg-type]
        return tuples

    def _most_selective_column(self, tuples: list[tuple[str, ...]], width: int) -> int:
        """The query column with the shortest total posting length."""
        best_position = 0
        best_cost = None
        for position in range(width):
            cost = sum(
                len(self._postings.get(t[position], ())) for t in tuples
            )
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_position = position
        return best_position

    def _tuple_hash(self, values: tuple[str, ...]) -> int:
        mask = 0
        for token in values:
            mask |= xash(token, self.hash_size, self.num_chars)
        return mask

    # -- storage accounting ------------------------------------------------------------

    def storage_bytes(self) -> int:
        total = 0
        for token, posting in self._postings.items():
            total += 49 + len(token) + 16
            total += len(posting) * 16
        total += len(self._super_keys) * (16 + 8)  # key pair + 64-bit hash
        return total
