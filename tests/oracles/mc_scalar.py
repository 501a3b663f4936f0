"""The seed tuple-at-a-time MC seeker phases, kept as the reference
oracle for ``MultiColumnSeeker``'s array phases (``fetch_candidate_arrays``
/ ``superkey_filter_batch`` / ``validate_batch``): per-row Python tuples,
one ``may_contain`` per (row, tuple), backtracking bipartite validation."""

from collections import Counter
from typing import Optional

from repro.core.results import ResultList, count_partials, merge_partials
from repro.core.seekers import MultiColumnSeeker, Rewrite, SeekerContext
from repro.index.alltables import ALLTABLES
from repro.index.xash import may_contain, tuple_hash
from repro.lake.table import normalize_cell


def fetch_candidates(
    seeker: MultiColumnSeeker, context: SeekerContext, rewrite: Optional[Rewrite] = None
) -> list[tuple[int, int, int]]:
    """Phase 1: (TableId, RowId, SuperKey) rows from the SQL join."""
    sql = seeker.sql(rewrite).format(index=ALLTABLES)
    result = context.db.execute(sql, seeker.params(rewrite))
    seen: set[tuple[int, int]] = set()
    candidates: list[tuple[int, int, int]] = []
    for table_id, row_id, super_key_value in result.rows:
        key = (table_id, row_id)
        if key not in seen:
            seen.add(key)
            candidates.append((table_id, row_id, super_key_value))
    return candidates


def superkey_filter(
    seeker: MultiColumnSeeker, candidates: list[tuple[int, int, int]], context: SeekerContext
) -> list[tuple[int, int]]:
    """Phase 2: prune rows whose super key cannot contain any tuple."""
    hashes = [
        tuple_hash(t, context.hash_size, context.xash_chars) for t in seeker.tuples
    ]
    survivors: list[tuple[int, int]] = []
    for table_id, row_id, super_key_value in candidates:
        if any(may_contain(super_key_value, h) for h in hashes):
            survivors.append((table_id, row_id))
    return survivors


def validate(
    seeker: MultiColumnSeeker, candidates: list[tuple[int, int]], context: SeekerContext
) -> list[tuple[int, int]]:
    """Phase 3: exact containment check against the lake tuples."""
    query_tuples = set(seeker.tuples)
    validated: list[tuple[int, int]] = []
    for table_id, row_id in candidates:
        table = context.lake.by_id(table_id)
        if not 0 <= row_id < table.num_rows:
            continue  # stale index rows; negatives must not wrap
        row_tokens = [normalize_cell(v) for v in table.rows[row_id]]
        if _row_contains_any_tuple(row_tokens, query_tuples, seeker.width):
            validated.append((table_id, row_id))
    return validated


def execute(
    seeker: MultiColumnSeeker, context: SeekerContext, rewrite: Optional[Rewrite] = None
) -> ResultList:
    """All three scalar phases, ranked through the shared merge tail."""
    candidates = fetch_candidates(seeker, context, rewrite)
    validated = validate(seeker, superkey_filter(seeker, candidates, context), context)
    counts = Counter(table_id for table_id, _ in validated)
    return merge_partials([count_partials(list(counts), list(counts.values()))], seeker.k)


def _row_contains_any_tuple(
    row_tokens: list[Optional[str]], query_tuples: set[tuple[str, ...]], width: int
) -> bool:
    """Does the row contain all values of some query tuple in distinct
    columns? Greedy bipartite check; table widths are small."""
    present = {}
    for position, token in enumerate(row_tokens):
        if token is not None:
            present.setdefault(token, []).append(position)
    for query_tuple in query_tuples:
        if _assignable(query_tuple, present):
            return True
    return False


def _assignable(values: tuple[str, ...], present: dict[str, list[int]]) -> bool:
    """Can each value be matched to a distinct column position?

    Backtracking bipartite matching; widths are <= a handful of columns.
    """
    used: set[int] = set()

    def backtrack(index: int) -> bool:
        if index == len(values):
            return True
        for position in present.get(values[index], ()):
            if position not in used:
                used.add(position)
                if backtrack(index + 1):
                    return True
                used.remove(position)
        return False

    return backtrack(0)
