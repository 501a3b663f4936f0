"""Property suite for the MC seeker phases against the scalar oracle
(``tests/oracles/mc_scalar.py``).

Two invariants, checked over seeded random lakes and query tuples:

* **no false negatives** -- the super-key filter (phase 2) never prunes a
  (table, row) pair that exact validation (phase 3) accepts; XASH recall
  stays 100 % (paper Table V) for both hash widths, oracle and seeker;
* **oracle parity** -- the seeker's array phases produce the oracle's
  candidate sets, survivor sets, validated sets, and final rankings.
"""

import random

import numpy as np
import pytest
from oracles import mc_scalar

from repro.core.batch import execute_batch
from repro.core.seekers import MultiColumnSeeker, SeekerContext, mc_validate
from repro.engine import Database
from repro.index import IndexConfig, build_alltables
from repro.lake.datalake import DataLake
from repro.lake.table import Table


def _random_lake(rng: random.Random, num_tables: int = 10, vocab_size: int = 24) -> DataLake:
    """A collision-heavy lake: a tiny shared vocabulary forces repeated
    tokens across tables, rows, and columns (the regime where super-key
    bits overlap and exact validation does real work)."""
    tokens = [f"v{i}" for i in range(vocab_size)] + ["x-9", "multi word", "42"]
    lake = DataLake("prop")
    for t in range(num_tables):
        width = rng.randint(2, 5)
        rows = []
        for _ in range(rng.randint(3, 14)):
            row = []
            for _ in range(width):
                roll = rng.random()
                if roll < 0.08:
                    row.append(None)
                elif roll < 0.18:
                    row.append(rng.randint(0, 50))
                else:
                    row.append(rng.choice(tokens))
            rows.append(tuple(row))
        lake.add(Table(f"t{t}", [f"c{i}" for i in range(width)], rows))
    return lake


def _random_query(rng: random.Random, lake: DataLake, width: int = 2) -> MultiColumnSeeker:
    """Query tuples mixing real row slices (validating hits), shuffled
    token combos (filter fodder), and ghosts (never present)."""
    tuples = []
    tables = [t for t in lake if t.num_columns >= width and t.num_rows > 0]
    for _ in range(rng.randint(2, 8)):
        table = rng.choice(tables)
        row = rng.choice(table.rows)
        picked = [v for v in row if v is not None][:width]
        if len(picked) == width:
            tuples.append(tuple(picked))
    for _ in range(rng.randint(1, 6)):
        tuples.append(tuple(f"v{rng.randint(0, 30)}" for _ in range(width)))
    tuples.append(tuple(f"ghost{i}" for i in range(width)))
    # A repeated-token tuple exercises the multiset (Hall-count) path.
    repeated = f"v{rng.randint(0, 23)}"
    tuples.append((repeated,) * width)
    return MultiColumnSeeker(tuples, k=10)


def _context(lake: DataLake, backend: str, hash_size: int) -> SeekerContext:
    db = Database(backend=backend)
    build_alltables(lake, db, IndexConfig(hash_size=hash_size))
    return SeekerContext(db=db, lake=lake, hash_size=hash_size)


def _run_property(seed: int, backend: str, hash_size: int) -> None:
    rng = random.Random(seed)
    lake = _random_lake(rng)
    context = _context(lake, backend, hash_size)
    for width in (2, 3):
        seeker = _random_query(rng, lake, width)

        candidates = mc_scalar.fetch_candidates(seeker, context)
        survivors = set(mc_scalar.superkey_filter(seeker, candidates, context))
        all_pairs = [(t, r) for t, r, _ in candidates]
        validated_unfiltered = set(mc_scalar.validate(seeker, all_pairs, context))
        # No false negatives: everything that validates survives phase 2.
        assert validated_unfiltered <= survivors

        t, r, s = seeker.fetch_candidate_arrays(context)
        batch_pairs = set(zip(t.tolist(), r.tolist()))
        assert batch_pairs == set(all_pairs)
        ft, fr = seeker.superkey_filter_batch(t, r, s, context)
        batch_survivors = set(zip(ft.tolist(), fr.tolist()))
        assert batch_survivors == survivors
        vt, vr = seeker.validate_batch(t, r, context)
        batch_validated_unfiltered = set(zip(vt.tolist(), vr.tolist()))
        assert batch_validated_unfiltered == validated_unfiltered
        assert batch_validated_unfiltered <= batch_survivors

        # End-to-end rankings agree (scores included).
        ranked_oracle = [(h.table_id, h.score) for h in mc_scalar.execute(seeker, context)]
        ranked = [(h.table_id, h.score) for h in seeker.execute(context)]
        assert ranked == ranked_oracle


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("backend,hash_size", [("column", 63), ("row", 63), ("row", 128)])
def test_superkey_filter_no_false_negatives(seed, backend, hash_size):
    _run_property(seed * 7919 + 13, backend, hash_size)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(6, 30))
@pytest.mark.parametrize("backend,hash_size", [("column", 63), ("row", 128)])
def test_superkey_filter_no_false_negatives_extended(seed, backend, hash_size):
    """Benchmark-scale sweep of the same property (tier-2: -m slow)."""
    _run_property(seed * 7919 + 13, backend, hash_size)


def test_may_contain_batch_mixed_width_promotes():
    """128-bit query hashes against an int64 candidate batch (every
    super key happened to fit 63 bits) must promote, not overflow."""
    from repro.index.xash import may_contain_batch

    super_keys = np.array([5, 7, (1 << 62) | 1], dtype=np.int64)
    hashes = np.array([(1 << 70) | 5, 1], dtype=object)
    mask = may_contain_batch(super_keys, hashes)
    assert mask.tolist() == [True, True, True]  # all contain hash 1
    assert may_contain_batch(super_keys[:2], np.array([1 << 70], dtype=object)).tolist() == [
        False,
        False,
    ]


def test_repeated_token_tuple_requires_distinct_columns():
    """('a', 'a') must only match rows holding 'a' in >= 2 columns --
    the multiset side of the Hall-condition decomposition."""
    lake = DataLake("dup")
    lake.add(Table("one", ["p", "q"], [("a", "a"), ("a", "b"), ("b", "a")]))
    lake.add(Table("two", ["p", "q", "r"], [("a", "x", "a"), ("a", "y", "z")]))
    seeker = MultiColumnSeeker([("a", "a")], k=5)
    for backend in ("row", "column"):
        context = _context(lake, backend, 63)
        for execute in (
            seeker.execute,
            lambda ctx: execute_batch([seeker], ctx)[0],
            lambda ctx: mc_scalar.execute(seeker, ctx),
        ):
            hits = [(h.table_id, h.score) for h in execute(context)]
            assert hits == [(0, 1.0), (1, 1.0)], backend


@pytest.mark.parametrize("backend", ["row", "column"])
def test_validate_batch_drops_out_of_range_rows(backend):
    """Index rows beyond a table's current length are skipped, exactly
    like the scalar oracle's bounds check -- for a solo query and for
    every member of a group sharing the gather."""
    lake = DataLake("bounds")
    lake.add(Table("t", ["p", "q"], [("a", "b"), ("c", "d")]))
    context = _context(lake, backend, 63)
    seeker = MultiColumnSeeker([("a", "b")], k=5)
    table_ids = np.array([0, 0, 0], dtype=np.int64)
    row_ids = np.array([0, 99, -1], dtype=np.int64)
    vt, vr = seeker.validate_batch(table_ids, row_ids, context)
    assert list(zip(vt.tolist(), vr.tolist())) == [(0, 0)]
    # The scalar oracle agrees -- including that negative ids never wrap
    # around to the last row.
    assert mc_scalar.validate(seeker, [(0, 0), (0, 99), (0, -1)], context) == [(0, 0)]

    # In a group: the stale pairs are shared, each member keeps only its
    # own live, matching rows -- in its own input order.
    other = MultiColumnSeeker([("c", "d")], k=5)
    other_rows = np.array([-1, 1, 0, 99], dtype=np.int64)
    survivors = [(table_ids, row_ids), (np.zeros(4, dtype=np.int64), other_rows)]
    validated = mc_validate([seeker, other], survivors, context)
    assert [list(zip(t.tolist(), r.tolist())) for t, r in validated] == [
        [(0, 0)],
        [(0, 1)],
    ]
    assert mc_scalar.validate(other, [(0, int(r)) for r in other_rows], context) == [(0, 1)]
    # ... and a group whose every pair is stale validates nothing.
    stale = (np.zeros(2, dtype=np.int64), np.array([7, -3], dtype=np.int64))
    for tables, rows in mc_validate([seeker, other], [stale, stale], context):
        assert len(tables) == len(rows) == 0
