"""Answer checking: oracles computed straight from the raw lake.

:class:`LakeOracle` never touches ``AllTables``, the SQL engine or a
seeker: it reads the raw tables, tokenises cells with the scalar
``normalize_cell`` (the repo's per-cell reference), and scores

* **KW** -- distinct query tokens anywhere in a table,
* **SC** -- distinct query tokens in a table's best single column,
* **MC** -- rows holding every token of some query tuple in distinct
  cells (multiset containment).

Checks are tie-robust: every returned table must carry exactly the
oracle's score, scores must be non-increasing, the result must be as long
as ``min(k, tables with a positive score)``, and no omitted table may beat
the last returned one. Modalities without a cheap independent oracle
(C, SS, HY, plans) are pinned by :func:`answers_digest`, which must repeat
across passes and across runs of one seed.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Sequence

from repro.lake.table import Table, normalize_cell


class LakeOracle:
    def __init__(self, tables: Iterable[tuple[int, Table]]) -> None:
        # token -> {(table, column)} and token -> {(table, row)}
        self._columns: dict[str, set[tuple[int, int]]] = {}
        self._rows: dict[str, set[tuple[int, int]]] = {}
        self._row_tokens: dict[tuple[int, int], list[Optional[str]]] = {}
        for table_id, table in tables:
            for row_id, row in enumerate(table.rows):
                tokens = [normalize_cell(value) for value in row]
                self._row_tokens[(table_id, row_id)] = tokens
                for column, token in enumerate(tokens):
                    if token is None:
                        continue
                    self._columns.setdefault(token, set()).add((table_id, column))
                    self._rows.setdefault(token, set()).add((table_id, row_id))

    @staticmethod
    def _query_tokens(values: Iterable) -> set[str]:
        return {t for t in map(normalize_cell, values) if t is not None}

    def keyword_scores(self, values: Iterable) -> dict[int, float]:
        scores: dict[int, float] = {}
        for token in self._query_tokens(values):
            for table_id in {t for t, _ in self._columns.get(token, ())}:
                scores[table_id] = scores.get(table_id, 0.0) + 1.0
        return scores

    def join_scores(self, values: Iterable) -> dict[int, float]:
        per_column: dict[tuple[int, int], float] = {}
        for token in self._query_tokens(values):
            for key in self._columns.get(token, ()):
                per_column[key] = per_column.get(key, 0.0) + 1.0
        scores: dict[int, float] = {}
        for (table_id, _), overlap in per_column.items():
            if overlap > scores.get(table_id, 0.0):
                scores[table_id] = overlap
        return scores

    def multi_column_scores(self, tuples: Iterable[Sequence]) -> dict[int, float]:
        matched: set[tuple[int, int]] = set()
        for query_tuple in tuples:
            tokens = [normalize_cell(value) for value in query_tuple]
            if any(token is None for token in tokens):
                continue
            needed: dict[str, int] = {}
            for token in tokens:
                needed[token] = needed.get(token, 0) + 1
            candidates: Optional[set[tuple[int, int]]] = None
            for token in needed:
                rows = self._rows.get(token, set())
                candidates = set(rows) if candidates is None else candidates & rows
                if not candidates:
                    break
            for key in candidates or ():
                if key in matched:
                    continue
                row = self._row_tokens[key]
                if all(row.count(token) >= count for token, count in needed.items()):
                    matched.add(key)
        scores: dict[int, float] = {}
        for table_id, _ in matched:
            scores[table_id] = scores.get(table_id, 0.0) + 1.0
        return scores


def check_topk(
    hits: Sequence[tuple[int, float]], scores: dict[int, float], k: int
) -> Optional[str]:
    """``None`` when *hits* is a correct top-*k* of *scores* (any tie
    order), else a one-line reason."""
    positive = {table: score for table, score in scores.items() if score > 0}
    if len(hits) != min(k, len(positive)):
        return f"returned {len(hits)} tables, expected {min(k, len(positive))}"
    returned: set[int] = set()
    previous = float("inf")
    for table_id, score in hits:
        if table_id in returned:
            return f"table {table_id} returned twice"
        returned.add(table_id)
        if positive.get(table_id) != score:
            return f"table {table_id} scored {score}, oracle says {positive.get(table_id)}"
        if score > previous:
            return f"table {table_id} out of order"
        previous = score
    if hits:
        best_omitted = max(
            (score for table, score in positive.items() if table not in returned), default=0.0
        )
        if best_omitted > hits[-1][1]:
            return f"an omitted table scores {best_omitted} > last returned {hits[-1][1]}"
    return None


def hit_pairs(result) -> list[tuple[int, float]]:
    """``ResultList`` -> plain ``(table_id, score)`` pairs."""
    return [(hit.table_id, hit.score) for hit in result]


def answers_digest(answers: Iterable[Sequence[tuple[int, float]]]) -> str:
    """Order-sensitive digest of a sequence of rankings (ids + scores
    rounded to 1e-9)."""
    digest = hashlib.sha256()
    for hits in answers:
        digest.update(
            repr([(table_id, round(score, 9)) for table_id, score in hits]).encode()
        )
        digest.update(b"|")
    return digest.hexdigest()[:16]
