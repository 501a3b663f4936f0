"""Property suite for the MC seeker phases against the scalar oracle
(``tests/oracles/mc_scalar.py``).

Two invariants, checked over seeded random lakes and query tuples:

* **no false negatives** -- the super-key filter (phase 2) never prunes a
  (table, row) pair that exact validation (phase 3) accepts; XASH recall
  stays 100 % (paper Table V) for both hash widths, oracle and seeker;
* **oracle parity** -- the seeker's array phases produce the oracle's
  candidate sets, survivor sets, validated sets, and final rankings.

Plus the shapes the code-gather validation kernel can get wrong, checked
phase by phase: the query's one factorisation (per-column ``IN`` lists,
tuple hashes) and ``mc_validate`` over EVERY lake row, solo and as one
group sharing the presence matrix.
"""

import importlib
import random

import numpy as np
import pytest
from oracles import mc_scalar

from repro.core.batch import execute_batch
from repro.core.seekers import MultiColumnSeeker, SeekerContext, mc_validate
from repro.engine import Database
from repro.index import IndexConfig, build_alltables
from repro.index.xash import tuple_hash
from repro.lake.datalake import DataLake
from repro.lake.table import Table

# The package re-exports the ``xash`` function under the module's name.
xash_module = importlib.import_module("repro.index.xash")


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


# -- the code-gather kernel, shape by shape ---------------------------------------------

_KERNEL_QUERIES = {
    "all-repeated": [("a", "a"), ("b", "b")],  # empty repeat-free code matrix
    "mixed-multiset": [("a", "a"), ("a", "b"), ("b", "b")],
    "permuted": [("a", "b"), ("b", "a")],
    "duplicated": [("a", "b"), ("a", "b"), ("b", "c"), ("a", "b")],
    "cell-types": [(True, "x"), (1, "x"), ("1", "y"), (1.0, "y"), (2.5, "x")],
    "width-3": [("a", "x", "a"), ("a", "b", "c"), ("c", "b", "a"), ("ghost", "x", "a")],
    "width-4": [("w1", "w2", "w3", "w4"), ("w9", "w9", "w1", "w2"), ("w1", "w1", "w2", "w3")],
    "disjoint": [("berlin", "germany"), ("rome", "italy")],
    "ghosts": [("ghost", "nowhere"), ("nobody", "home")],
}


def _kernel_lake() -> DataLake:
    lake = DataLake("kernel")
    lake.add(Table("dup", ["p", "q"], [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"), ("b", "c")]))
    lake.add(Table("dup3", ["p", "q", "r"], [("a", "x", "a"), ("a", "y", "z"), ("a", "b", "c")]))
    lake.add(
        Table(
            "cells",
            ["flag", "tag"],
            [(True, "x"), (1, "x"), (1.0, "y"), ("1", "y"), (" TRUE ", "x"), (2.5, "x")],
        )
    )
    lake.add(Table("geo", ["city", "country"], [("berlin", "germany"), ("rome", "france")]))
    lake.add(
        Table(
            "wide",
            ["c0", "c1", "c2", "c3", "c4"],
            [
                ("w1", "w2", "w3", "w4", "w5"),
                ("w4", "w3", "w2", "w1", "w9"),
                ("w1", "w1", "w2", "w3", "w9"),
                ("w2", "w9", None, "w9", "w1"),
            ],
        )
    )
    return lake


def _pairs(arrays) -> list[tuple[int, int]]:
    return list(zip(arrays[0].tolist(), arrays[1].tolist()))


def _no_rehash(*args, **kwargs):
    raise AssertionError("token memo missed a token it had just hashed")


@pytest.mark.parametrize("backend,hash_size", [("column", 63), ("row", 63), ("row", 128)])
def test_query_factorisation_feeds_every_phase(backend, hash_size, monkeypatch):
    """Per-column IN lists, cost-model features and tuple hashes all read
    the one (tuples x width) code matrix; each equals its definition
    over ``seeker.tuples``."""
    context = _context(_kernel_lake(), backend, hash_size)
    for name, tuples in _KERNEL_QUERIES.items():
        seeker = MultiColumnSeeker(tuples, k=5)
        columns = [
            list(dict.fromkeys(row[i] for row in seeker.tuples)) for i in range(seeker.width)
        ]
        assert [seeker.column_tokens(i) for i in range(seeker.width)] == columns, name
        assert seeker.params() == {f"q{i}": column for i, column in enumerate(columns)}, name
        assert seeker.query_tokens() == [token for column in columns for token in column], name
        assert seeker.query_cardinality() == sum(map(len, columns)), name
        hashes = seeker._tuple_hash_array(context)
        assert hashes.tolist() == sorted(
            {tuple_hash(t, hash_size, context.xash_chars) for t in seeker.tuples}
        ), name
        # The second call is served from the token memo: nothing is rehashed.
        with monkeypatch.context() as patch:
            patch.setattr(xash_module, "xash_batch", _no_rehash)
            assert seeker._tuple_hash_array(context).tolist() == hashes.tolist(), name
    assert MultiColumnSeeker(_KERNEL_QUERIES["all-repeated"])._repeat_free.shape == (0, 2)


@pytest.mark.parametrize("backend,hash_size", [("column", 63), ("row", 63), ("row", 128)])
def test_validation_kernel_matches_oracle_on_every_row(backend, hash_size):
    """Phase 3 with EVERY lake row as a survivor (so rows no filter would
    let through are judged too): solo, then all queries as one group --
    overlapping and disjoint vocabularies, mixed widths, each member with
    its own shuffled subset of the rows, one member with none."""
    lake = _kernel_lake()
    context = _context(lake, backend, hash_size)
    every = [
        (table_id, row)
        for table_id in lake.table_ids()
        for row in range(lake.by_id(table_id).num_rows)
    ]

    def arrays(pairs):
        tables, rows = zip(*pairs) if pairs else ((), ())
        return np.array(tables, dtype=np.int64), np.array(rows, dtype=np.int64)

    seekers = {name: MultiColumnSeeker(tuples, k=5) for name, tuples in _KERNEL_QUERIES.items()}
    for name, seeker in seekers.items():
        expected = mc_scalar.validate(seeker, every, context)
        assert _pairs(seeker.validate_batch(*arrays(every), context)) == expected, name
        assert bool(expected) == (name != "ghosts"), name

    rng = random.Random(17)
    subsets = []
    for name in seekers:
        subset = [] if name == "duplicated" else rng.sample(every, rng.randint(5, len(every)))
        subsets.append(subset)
    validated = mc_validate(list(seekers.values()), [arrays(s) for s in subsets], context)
    for (name, seeker), subset, mine in zip(seekers.items(), subsets, validated):
        assert _pairs(mine) == mc_scalar.validate(seeker, subset, context), name
