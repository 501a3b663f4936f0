"""MC runs ONE SQL statement per query and per serving batch: phase 1 is
a per-row column-coverage check over the ``AllTables`` scan that phases
2 and 3 read too (``MCScan``), in place of Listing 2's self-join.

The scalar oracle (``tests/oracles/mc_scalar.py``) still executes
Listing 2 (``MultiColumnSeeker.sql``), so every check here is coverage
against the real SQL join: candidate sets phase by phase, and final
answers solo, batched and through a 2-shard coordinator -- over random
lakes on both backends, without and with optimizer rewrites, with and
without BLEND (rand)'s shuffled RowIds. Plus: any query width (no
bitmask limit), and the one-statement contract itself."""

import random

import pytest
from oracles import mc_scalar

from repro import Blend, DataLake, Seekers, Table
from repro.core.results import merge_partials
from repro.core.seekers import Rewrite, SeekerContext
from repro.engine import Database
from repro.index import IndexConfig
from repro.index.alltables import shuffle_permutation
from repro.serving import ShardCoordinator
from repro.snapshot import save_sharded

TOKENS = [f"v{i}" for i in range(12)] + ["x-9", "multi word", "42"]


def _lake(seed: int) -> DataLake:
    """A collision-heavy random lake plus one table of hand-made rows:
    one cell that serves two query columns (``("a", "z")`` against
    ``("a","b")`` + ``("b","a")``), a repeated token (``("a", "a", "q")``),
    and a row holding both orders."""
    rng = random.Random(seed)
    lake = DataLake(f"coverage{seed}")
    for t in range(8):
        width = rng.randint(2, 5)
        rows = [
            tuple(
                None if rng.random() < 0.06 else rng.choice(TOKENS + [rng.randint(0, 9)])
                for _ in range(width)
            )
            for _ in range(rng.randint(3, 12))
        ]
        lake.add(Table(f"t{t}", [f"c{i}" for i in range(width)], rows))
    lake.add(
        Table(
            "edges",
            ["p", "q", "r"],
            [("a", "z", "q"), ("a", "a", "q"), ("b", "a", "b"), ("z", "b", None), ("q", "q", "a")],
        )
    )
    return lake


def _queries(lake: DataLake, seed: int) -> list:
    rng = random.Random(seed + 1)
    seekers = [
        Seekers.MC([("a", "b"), ("b", "a")], k=20),  # tokens in two query columns
        Seekers.MC([("a", "a"), ("q", "a")], k=20),  # repeated-token tuple
        Seekers.MC([("a", "q", "z"), ("b", "a", "b")], k=20),
        Seekers.MC([("ghost", "nowhere"), ("nobody", "home")], k=20),  # empty scan
    ]
    for width in (2, 2, 3, 4):
        tables = [t for t in lake if t.num_columns >= width]
        tuples = []
        for _ in range(4):
            row = rng.choice(rng.choice(tables).rows)
            picked = [v for v in row if v is not None][:width]
            if len(picked) == width:
                tuples.append(tuple(reversed(picked)) if rng.random() < 0.3 else tuple(picked))
        tuples.append(tuple(rng.choice(TOKENS) for _ in range(width)))
        tuples.append((rng.choice(TOKENS),) * width)
        seekers.append(Seekers.MC(tuples, k=20))
    return seekers


def _served(lake: DataLake, backend: str, shuffle: bool) -> tuple[Blend, SeekerContext]:
    """The blend under test and an oracle context over the same index
    whose lake rows sit where the index puts them (BLEND (rand) permutes
    each table's rows before assigning RowIds)."""
    config = IndexConfig(shuffle_rows=shuffle)
    blend = Blend(lake, backend=backend, index_config=config)
    blend.build_index()
    oracle_lake = DataLake("oracle")
    for table_id, table in lake.items():
        rows = list(table.rows)
        if shuffle:
            perm = shuffle_permutation(config.shuffle_seed, table_id, len(rows))
            rows = [rows[p] for p in perm]
        oracle_lake.add(Table(table.name, list(table.columns), rows))
    oracle = SeekerContext(db=blend.db, lake=oracle_lake, hash_size=config.hash_size)
    return blend, oracle


def _rewrites(lake: DataLake) -> list:
    ids = lake.table_ids()
    return [
        None,
        Rewrite("intersect", tuple(ids[::2])),
        Rewrite("difference", tuple(ids[1::3])),
        Rewrite("intersect", (10_000,)),  # leaves no table
        Rewrite("difference", tuple(ids)),  # leaves no table
    ]


def _triples(arrays) -> set:
    return set(zip(*(column.tolist() for column in arrays)))


@pytest.mark.parametrize("shuffle", [False, True], ids=["plain", "shuffled"])
@pytest.mark.parametrize("backend", ["row", "column"])
@pytest.mark.parametrize("seed", [3, 17])
def test_coverage_equals_listing2_join(seed, backend, shuffle):
    lake = _lake(seed)
    blend, oracle = _served(lake, backend, shuffle)
    context = blend.context()
    seekers = _queries(lake, seed)
    for rewrite in _rewrites(lake):
        for seeker in seekers:
            candidates = seeker.fetch_candidate_arrays(context, rewrite)
            expected = mc_scalar.fetch_candidates(seeker, oracle, rewrite)
            assert _triples(candidates) == set(expected), (seeker.tuples, rewrite)
            assert seeker.execute(context, rewrite) == mc_scalar.execute(
                seeker, oracle, rewrite
            ), (seeker.tuples, rewrite)
    expected = [mc_scalar.execute(seeker, oracle) for seeker in seekers]
    assert any(len(result) for result in expected)
    assert not mc_scalar.fetch_candidates(seekers[3], oracle)  # the empty scan
    assert blend.execute_batch(seekers[3:4]) == [expected[3]]
    partials = blend.execute_batch_partials(seekers)
    assert [merge_partials([p], s.k) for s, p in zip(seekers, partials)] == expected


@pytest.mark.parametrize("shuffle", [False, True], ids=["plain", "shuffled"])
@pytest.mark.parametrize("backend", ["row", "column"])
def test_two_shards_equal_listing2(backend, shuffle, tmp_path):
    lake = _lake(5)
    blend, oracle = _served(lake, backend, shuffle)
    seekers = _queries(lake, 5)
    expected = [mc_scalar.execute(seeker, oracle) for seeker in seekers]
    with ShardCoordinator.load(save_sharded(blend, tmp_path / "sharded", 2)) as coordinator:
        assert coordinator.execute_batch(seekers) == expected


@pytest.mark.parametrize("width", [64, 70])
@pytest.mark.parametrize("backend", ["row", "column"])
def test_any_query_width(backend, width):
    """Coverage is a boolean matrix per query column, so a query wider
    than an int64 bitmask (63 columns) is exact, as the join is. Each
    column draws from its own tokens, which keeps the oracle's
    backtracking matcher linear and its join one cell per side and row
    (a token in two columns of the query doubles the join's rows per
    column, 2**64 of them here)."""
    rng = random.Random(width)
    columns = width + 3
    lake = DataLake("wide")
    for t in range(3):
        rows = [
            tuple(f"c{i}.{rng.randint(0, 2)}" for i in range(columns)) for _ in range(6)
        ]
        lake.add(Table(f"wide{t}", [f"c{i}" for i in range(columns)], rows))
    table = lake.by_name("wide1")
    tuples = [tuple(row[:width]) for row in table.rows[:3]]
    almost = list(table.rows[5][:width])
    almost[-1] = "ghost"  # covers every column but the last
    tuples.append(tuple(almost))
    seeker = Seekers.MC(tuples, k=5)
    blend = Blend(lake, backend=backend)
    blend.build_index()
    context = blend.context()
    expected = mc_scalar.execute(seeker, context)
    assert [(h.table_id, h.score) for h in expected] == [(lake.id_of("wide1"), 3.0)]
    assert _triples(seeker.fetch_candidate_arrays(context)) == set(
        mc_scalar.fetch_candidates(seeker, context)
    )
    assert seeker.execute(context) == expected
    assert blend.execute_batch([seeker, Seekers.MC(tuples[:2], k=5)])[0] == expected


@pytest.fixture
def statements(monkeypatch):
    """Counts SQL statements run through either ``Database`` entry point."""
    counted = []
    for name in ("execute", "execute_columnar"):
        original = getattr(Database, name)

        def counting(self, sql, *args, _original=original, **kwargs):
            counted.append(sql)
            return _original(self, sql, *args, **kwargs)

        monkeypatch.setattr(Database, name, counting)
    return counted


@pytest.mark.parametrize("backend", ["row", "column"])
def test_one_statement_per_query_and_per_batch(backend, statements):
    lake = _lake(11)
    blend = Blend(lake, backend=backend)
    blend.build_index()
    context = blend.context()
    seekers = _queries(lake, 11)
    for seeker in seekers:
        for rewrite in (None, Rewrite("intersect", (0, 2))):
            statements.clear()
            seeker.partials(context, rewrite)
            assert len(statements) == 1, statements
    batch = seekers + [
        Seekers.MC([(rng_token, "v1"), ("v2", rng_token)], k=5)
        for rng_token in TOKENS[:9]
    ]
    assert {s.width for s in batch} == {2, 3, 4}
    assert sum(s.width == 2 for s in batch) > 8
    statements.clear()
    blend.execute_batch_partials(batch)
    assert len(statements) == 1, statements
