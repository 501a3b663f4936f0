"""SC and KW run ONE body, ``value_partials``, over a group of seekers
of one kind: one ``CellValue IN`` scan, the distinct ``(table[, column],
token)`` keys found once, and a bincount per query. A solo query is the
group of one; a batch runs one group per kind.

The oracle (``tests/oracles/value_sql.py``) runs the seekers' own SQL --
Listing 1 and the §VI keyword statement, ``GROUP BY`` with
``COUNT(DISTINCT CellValue)`` -- through ``Database.execute``. Every
check compares the ranked partials' ``table_ids``, ``scores`` and
``fetch``: solo, in SC and KW groups with different ``k`` (mixed
batches through ``execute_batch_partials``), under
intersect and difference rewrites, over a base+delta lake with
tombstones, with shuffled RowIds, after compaction, with TableIds sparse
enough to force the sort fallback, and through a 3-shard coordinator."""

import random

import numpy as np
import pytest
from oracles import value_sql

from repro import Blend, DataLake, Seekers, Table
from repro.core.results import RANKED, merge_partials
from repro.core.seekers import Rewrite, _vocab_codes, value_partials
from repro.engine import Database
from repro.engine.storage.column_store import DictCodes
from repro.errors import SeekerError
from repro.index import IndexConfig
from repro.serving import ShardCoordinator
from repro.snapshot import save_sharded

TOKENS = [f"w{i}" for i in range(14)] + ["x-9", "multi word", "42", "ß", "中文"]
HOSTILE = [True, 1, 1.0, "1", 0, False, float("nan"), 2**60]


def _table(rng: random.Random, name: str) -> Table:
    width = rng.randint(1, 5)
    rows = [
        tuple(
            None if rng.random() < 0.05 else rng.choice(TOKENS + HOSTILE)
            for _ in range(width)
        )
        for _ in range(rng.randint(0, 14))
    ]
    return Table(name, [f"c{i}" for i in range(width)], rows)


def _lake(seed: int) -> DataLake:
    rng = random.Random(seed)
    lake = DataLake(f"values{seed}")
    for t in range(10):
        lake.add(_table(rng, f"t{t}"))
    return lake


def _group(seed: int) -> list:
    """Mixed SC/KW queries with different k: tokens shared across
    queries, tokens absent from the lake, a query of every token, a
    repeated query, and k = 0."""
    rng = random.Random(seed + 1)
    group = []
    for k in (1, 2, 5, 20):
        group.append(Seekers.SC(rng.sample(TOKENS, rng.randint(1, 6)), k=k))
        group.append(Seekers.KW(rng.sample(TOKENS, rng.randint(1, 6)), k=k))
    group += [
        Seekers.SC(["ghost", "nowhere"], k=5),
        Seekers.KW(["ghost", "w1", "1"], k=5),
        Seekers.SC(TOKENS + HOSTILE, k=3),
        Seekers.KW(TOKENS + HOSTILE, k=30),
        Seekers.SC(group[0].tokens, k=group[0].k),
        Seekers.SC(["w2", "w3"], k=0),
        Seekers.KW(["w2", "w3"], k=0),
    ]
    return group


def _rewrites(lake: DataLake) -> list:
    ids = lake.table_ids()
    return [
        None,
        Rewrite("intersect", tuple(ids[::2])),
        Rewrite("difference", tuple(ids[1::3])),
        Rewrite("intersect", (10_000,)),  # leaves no table
        Rewrite("difference", tuple(ids)),  # leaves no table
    ]


def _same(got, expected, label) -> None:
    assert got.kind == RANKED, label
    assert got.table_ids.dtype == expected.table_ids.dtype, label
    assert got.scores.dtype == expected.scores.dtype, label
    assert got.table_ids.tolist() == expected.table_ids.tolist(), label
    assert got.scores.tolist() == expected.scores.tolist(), label
    assert got.fetch == expected.fetch, label


def _by_kind(group: list) -> list[list]:
    return [[seeker for seeker in group if seeker.kind == kind] for kind in ("SC", "KW")]


def _check(blend: Blend, group: list, rewrites=(None,)) -> None:
    context = blend.context()
    for rewrite in rewrites:
        for seeker in group:
            want = value_sql.partials(seeker, context, rewrite)
            _same(seeker.partials(context, rewrite), want, (seeker, rewrite))
        for members in _by_kind(group):
            expected = [value_sql.partials(seeker, context, rewrite) for seeker in members]
            got = value_partials(members, context, rewrite)
            for g, want, seeker in zip(got, expected, members):
                _same(g, want, ("group", seeker, rewrite))
    expected = [value_sql.partials(seeker, context) for seeker in group]
    for got, want, seeker in zip(blend.execute_batch_partials(group), expected, group):
        _same(got, want, ("batch", seeker))


@pytest.mark.parametrize("shuffle", [False, True], ids=["plain", "shuffled"])
@pytest.mark.parametrize("backend", ["row", "column"])
@pytest.mark.parametrize("seed", [3, 17])
def test_group_equals_listing1(seed, backend, shuffle):
    lake = _lake(seed)
    blend = Blend(lake, backend=backend, index_config=IndexConfig(shuffle_rows=shuffle))
    blend.build_index()
    group = _group(seed)
    context = blend.context()
    assert any(len(value_sql.partials(seeker, context)) > 1 for seeker in group)
    _check(blend, group, _rewrites(lake))
    sc_only, kw_only = _by_kind(group)
    for members in (sc_only[::-1], kw_only[::-1], sc_only[:1], kw_only[2:5]):
        for got, seeker in zip(value_partials(members, context), members):
            _same(got, value_sql.partials(seeker, context), ("subgroup", seeker))
    with pytest.raises(SeekerError):
        value_partials(group, context)


@pytest.mark.parametrize("shuffle", [False, True], ids=["plain", "shuffled"])
@pytest.mark.parametrize("backend", ["row", "column"])
def test_base_delta_tombstones_and_compaction(backend, shuffle):
    """Lifecycle ops leave the base sealed, rows in a delta and
    tombstones in both; the kernel reads the same live rows the SQL
    does, and again after ``compact_index`` rewrites storage."""
    rng = random.Random(41)
    lake = _lake(41)
    blend = Blend(lake, backend=backend, index_config=IndexConfig(shuffle_rows=shuffle))
    blend.build_index()
    group = _group(41)
    blend.add_table(_table(rng, "added"))
    _check(blend, group)
    blend.replace_table(lake.id_of("t2"), _table(rng, "t2b"))
    _check(blend, group)
    blend.remove_table(lake.id_of("t5"))
    blend.remove_table(lake.id_of("added"))
    stats = blend.delta_stats()
    assert stats, stats
    _check(blend, group, _rewrites(lake))
    blend.compact_index()
    _check(blend, group, _rewrites(lake))


@pytest.fixture
def unique_calls(monkeypatch):
    """Counts ``np.unique`` calls (the dedupe's sort fallback)."""
    calls = []
    original = np.unique

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    return calls


@pytest.mark.parametrize("backend", ["row", "column"])
def test_sparse_table_ids_take_the_sort_fallback(backend, unique_calls):
    """A TableId far from the rest widens the packed key span past the
    bitmap bound, so the dedupe sorts; a dense lake sorts nothing."""
    rng = random.Random(7)
    lake = _lake(7)
    blend = Blend(lake, backend=backend)
    blend.build_index()
    group = _group(7)
    context = blend.context()
    expected = [value_sql.partials(seeker, context) for seeker in group]
    unique_calls.clear()
    got = [seeker.partials(context) for seeker in group]
    assert unique_calls == []
    for g, want, seeker in zip(got, expected, group):
        _same(g, want, seeker)

    blend.add_table(_table(rng, "far"), table_id=40_000)
    blend.add_table(Table("far2", ["a", "b"], [("w1", "w2"), ("w3", "w1")]), table_id=90_000)
    unique_calls.clear()
    _check(blend, group, _rewrites(lake))
    assert unique_calls, "the sparse lake never took the sort fallback"


@pytest.mark.parametrize("backend", ["row", "column"])
def test_three_shards_equal_solo(backend, tmp_path):
    lake = _lake(23)
    blend = Blend(lake, backend=backend)
    blend.build_index()
    group = _group(23)
    context = blend.context()
    expected = [value_sql.execute(seeker, context) for seeker in group]
    with ShardCoordinator.load(save_sharded(blend, tmp_path / "sharded", 3)) as coordinator:
        assert coordinator.execute_batch(group) == expected
        assert [coordinator.execute(seeker) for seeker in group[:4]] == expected[:4]
    for members in _by_kind(group):
        got = [merge_partials([p], s.k) for s, p in zip(members, value_partials(members, context))]
        assert got == [value_sql.execute(seeker, context) for seeker in members]


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
def test_one_scan_per_query_and_per_batch(backend, statements):
    blend = Blend(_lake(11), backend=backend)
    blend.build_index()
    context = blend.context()
    group = _group(11)
    for seeker in group:
        for rewrite in (None, Rewrite("intersect", (0, 2))):
            statements.clear()
            seeker.partials(context, rewrite)
            assert statements == ["execute_columnar"]
    for members in _by_kind(group):
        statements.clear()
        blend.execute_batch_partials(members)
        assert statements == ["execute_columnar"]
    statements.clear()
    blend.execute_batch_partials(group)  # one scan per kind
    assert statements == ["execute_columnar"] * 2


def test_vocab_codes_refuses_null_codes():
    dictionary = np.array(["a", "b"], dtype=object)
    vocabulary = {"a": 0, "b": 1}
    codes = _vocab_codes(DictCodes(np.array([1, 0, 1]), dictionary), vocabulary)
    assert codes.tolist() == [1, 0, 1]
    with pytest.raises(SeekerError):
        _vocab_codes(DictCodes(np.array([0, -1]), dictionary), vocabulary)


def test_vocab_codes_probes_each_matched_value_once(unique_calls):
    """The index scan's dictionary is its sorted matched values, so the
    translation probes the vocabulary once per matched value, however
    many cells hit, and never sorts."""
    probed = []

    class Counting(dict):
        def __getitem__(self, token):
            probed.append(token)
            return super().__getitem__(token)

    matched = np.array(["v7", "v900"], dtype=object)
    codes = _vocab_codes(DictCodes(np.array([1, 0, 1] * 10), matched), Counting(v900=0, v7=1))
    assert codes.tolist() == [0, 1, 0] * 10
    assert probed == ["v7", "v900"]
    assert unique_calls == []