"""C runs ONE body, ``correlation_partials``, over a group of seekers: one
scan of the key cells, one scan of the numeric cells of the tables those
hit, a packed-key join and two bincounts per column pair. A solo query
is the group of one; a batch runs one group.

The oracle (``tests/oracles/corr_sql.py``) runs the seekers' own SQL --
Listing 3's keys/nums self-join with ``GROUP BY``, ``HAVING`` and
``ORDER BY qcr DESC`` -- through ``Database.execute``. Every check
compares the ranked partials' ``table_ids``, ``scores`` (bitwise) and
``fetch``: solo, as a group with mixed ``h`` / ``k`` / ``min_support`` /
``min_qcr`` and through ``execute_batch_partials``, under intersect,
difference and empty rewrites, with shuffled RowIds, over a base+delta
lake with tombstones before and after compaction, and through a 3-shard
coordinator; plus queries whose keys hit nothing, or hit only tables
without a numeric column."""

import random

import pytest
from oracles import corr_sql

from repro import Blend, DataLake, Seekers, Table
from repro.core.results import RANKED
from repro.core.seekers import Rewrite, correlation_partials
from repro.engine import Database
from repro.index import IndexConfig
from repro.serving import ShardCoordinator
from repro.snapshot import save_sharded

KEYS = [f"k{i}" for i in range(24)] + [7, 8, 9, "ß", "中文", True]


def _table(rng: random.Random, name: str) -> Table:
    """Key columns over ``KEYS`` plus 0-3 numeric columns, some NULLs."""
    keys, numeric = rng.randint(1, 2), rng.randint(0, 3)
    columns = [f"key{i}" for i in range(keys)] + [f"num{i}" for i in range(numeric)]
    rows = []
    for _ in range(rng.randint(0, 40)):
        row = [rng.choice(KEYS) for _ in range(keys)]
        for _ in range(numeric):
            value = rng.choice([rng.randint(-5, 60), round(rng.uniform(0, 100), 2)])
            row.append(None if rng.random() < 0.1 else value)
        rows.append(tuple(row))
    return Table(name, columns, rows)


def _lake(seed: int) -> DataLake:
    rng = random.Random(seed)
    lake = DataLake(f"corr{seed}")
    for t in range(12):
        lake.add(_table(rng, f"t{t}"))
    lake.add(Table("text_only", ["a", "b"], [("k1", "k2"), ("k3", "k1"), ("k2", "x")]))
    return lake


def _query(rng: random.Random, **options):
    keys = rng.sample(KEYS, rng.randint(3, 12))
    targets = [rng.choice([rng.randint(0, 50), None, "n/a"]) for _ in keys]
    targets[0], targets[-1] = 1, 40  # at least one key on each side of the mean
    return Seekers.C(keys, targets, **options)


def _group(seed: int) -> list:
    """Queries sharing keys, with different ``k``, ``h``, ``min_support``
    and ``min_qcr``; a query whose keys hit nothing, one hitting only
    the table without a numeric column, a repeated query and k = 0."""
    rng = random.Random(seed + 1)
    group = []
    for k, h, support, qcr in [
        (1, 256, 1, 0.0), (3, 2, 1, 0.0), (10, 7, 2, 0.0), (5, 256, 3, 0.5),
        (30, 12, 1, 0.25), (2, 1, 1, 0.0), (10, 256, 5, 1.0),
    ]:
        group.append(_query(rng, k=k, h=h, min_support=support, min_qcr=qcr))
    group += [
        Seekers.C(["ghost", "nowhere"], [1, 2], k=5),
        Seekers.C(["x", "ghost"], [1, 9], k=5, min_support=1),
        Seekers.C(KEYS, list(range(len(KEYS))), k=4, min_support=1),
        Seekers.C(group[0].k0 + group[0].k1, [0] * len(group[0].k0) + [1] * len(group[0].k1), k=1, min_support=1),
        _query(rng, k=0),
    ]
    return group


def _rewrites(lake: DataLake) -> list:
    ids = lake.table_ids()
    return [
        None,
        Rewrite("intersect", tuple(ids[::2])),
        Rewrite("difference", tuple(ids[1::3])),
        Rewrite("intersect", ()),  # leaves no table
        Rewrite("difference", ()),  # leaves every table
    ]


def _same(got, expected, label) -> None:
    assert got.kind == RANKED, label
    assert got.table_ids.dtype == expected.table_ids.dtype, label
    assert got.scores.dtype == expected.scores.dtype, label
    assert got.table_ids.tolist() == expected.table_ids.tolist(), label
    assert got.scores.tobytes() == expected.scores.tobytes(), label
    assert got.fetch == expected.fetch, label


def _check(blend: Blend, group: list, rewrites=(None,)) -> None:
    context = blend.context()
    for rewrite in rewrites:
        expected = [corr_sql.partials(seeker, context, rewrite) for seeker in group]
        for seeker, want in zip(group, expected):
            _same(seeker.partials(context, rewrite), want, (seeker, rewrite))
        for got, want, seeker in zip(correlation_partials(group, context, rewrite), expected, group):
            _same(got, want, ("group", seeker, rewrite))
    expected = [corr_sql.partials(seeker, context) for seeker in group]
    for got, want, seeker in zip(blend.execute_batch_partials(group), expected, group):
        _same(got, want, ("batch", seeker))


@pytest.mark.parametrize("shuffle", [False, True], ids=["plain", "shuffled"])
@pytest.mark.parametrize("backend", ["row", "column"])
@pytest.mark.parametrize("seed", [5, 29])
def test_group_equals_listing3(seed, backend, shuffle):
    lake = _lake(seed)
    blend = Blend(lake, backend=backend, index_config=IndexConfig(shuffle_rows=shuffle))
    blend.build_index()
    group = _group(seed)
    context = blend.context()
    assert sum(len(corr_sql.partials(seeker, context)) > 1 for seeker in group) >= 3
    _check(blend, group, _rewrites(lake))
    for members in (group[::-1], group[:1], group[2:6]):
        for got, seeker in zip(correlation_partials(members, context), members):
            _same(got, corr_sql.partials(seeker, context), ("subgroup", seeker))


@pytest.mark.parametrize("backend", ["row", "column"])
def test_keys_without_numeric_partners(backend):
    """Keys that occur nowhere, and keys that occur only in a table
    without a numeric column, rank nothing -- solo and in a group."""
    lake = DataLake("text")
    lake.add(Table("text_only", ["a", "b"], [("k1", "k2"), ("k3", "k1")]))
    lake.add(Table("numbers", ["n"], [(1,), (2,)]))
    blend = Blend(lake, backend=backend)
    blend.build_index()
    group = [Seekers.C(["k1", "k2", "k3"], [1, 5, 9], min_support=1), Seekers.C(["ghost"], [1])]
    _check(blend, group)
    assert all(len(part) == 0 for part in correlation_partials(group, blend.context()))


@pytest.mark.parametrize("shuffle", [False, True], ids=["plain", "shuffled"])
@pytest.mark.parametrize("backend", ["row", "column"])
def test_base_delta_tombstones_and_compaction(backend, shuffle):
    """Lifecycle ops leave the base sealed, rows in a delta and
    tombstones in both; the kernel reads the same live rows the SQL
    does, and again after ``compact_index`` rewrites storage."""
    rng = random.Random(43)
    lake = _lake(43)
    blend = Blend(lake, backend=backend, index_config=IndexConfig(shuffle_rows=shuffle))
    blend.build_index()
    group = _group(43)
    blend.add_table(_table(rng, "added"))
    _check(blend, group)
    blend.replace_table(lake.id_of("t2"), _table(rng, "t2b"))
    _check(blend, group)
    blend.remove_table(lake.id_of("t5"))
    blend.remove_table(lake.id_of("added"))
    assert blend.delta_stats()
    _check(blend, group, _rewrites(lake))
    blend.compact_index()
    _check(blend, group, _rewrites(lake))


@pytest.mark.parametrize("backend", ["row", "column"])
def test_three_shards_equal_solo(backend, tmp_path):
    lake = _lake(31)
    blend = Blend(lake, backend=backend)
    blend.build_index()
    group = _group(31)
    context = blend.context()
    expected = [corr_sql.execute(seeker, context) for seeker in group]
    with ShardCoordinator.load(save_sharded(blend, tmp_path / "sharded", 3)) as coordinator:
        assert coordinator.execute_batch(group) == expected
        assert [coordinator.execute(seeker) for seeker in group[:4]] == expected[:4]


@pytest.fixture
def statements(monkeypatch):
    """Counts SQL statements run through either ``Database`` entry point."""
    counted = []
    for name in ("execute", "execute_columnar"):
        original = getattr(Database, name)

        def counting(self, sql, *args, _name=name, _original=original, **kwargs):
            counted.append(_name)
            return _original(self, sql, *args, **kwargs)

        monkeypatch.setattr(Database, name, counting)
    return counted


@pytest.mark.parametrize("backend", ["row", "column"])
def test_two_scans_per_query_and_per_group(backend, statements):
    blend = Blend(_lake(11), backend=backend)
    blend.build_index()
    context = blend.context()
    group = _group(11)
    statements.clear()
    group[0].partials(context, Rewrite("intersect", (0, 2, 4)))
    assert statements == ["execute_columnar"] * 2
    statements.clear()
    blend.execute_batch_partials(group)
    assert statements == ["execute_columnar"] * 2
    statements.clear()
    Seekers.C(["ghost"], [1]).partials(context)  # no key hit: no numeric scan
    assert statements == ["execute_columnar"]
