"""MC never reads lake cells at query time: phase 3 validates from the
tokens ``AllTables`` holds, and the lake is consulted only for each
table's row count. Every table of the served lake here raises on any
cell access but keeps ``len()``; MC answers must still equal the scalar
oracle run over an unguarded copy -- solo, in a mixed-width batch of
more than 8, and through a 2-shard coordinator, on both backends.
Reading the index's tokens also makes shuffled-RowId builds validate
the row the index actually names."""

import random

import pytest
from oracles import mc_scalar

from repro import Blend, DataLake, Seekers, Table
from repro.core.results import merge_partials
from repro.core.seekers import SeekerContext
from repro.index import IndexConfig
from repro.lake.table import normalize_cell
from repro.serving import ShardCoordinator, sharded
from repro.snapshot import save_sharded

TOKENS = [f"v{i}" for i in range(14)] + ["x-9", "multi word", "42"]


class _CelllessRows(list):
    """A table's rows with every cell out of reach: ``len()`` works,
    item access and iteration raise."""

    def __getitem__(self, index):
        raise AssertionError("MC read a lake cell")

    def __iter__(self):
        raise AssertionError("MC iterated lake rows")


def _guard(lake: DataLake) -> None:
    for table in lake:
        table.rows = _CelllessRows(table.rows)


def _lake(seed: int = 3) -> DataLake:
    rng = random.Random(seed)
    lake = DataLake("guarded")
    for t in range(10):
        width = rng.randint(2, 4)
        rows = [
            tuple(
                None if rng.random() < 0.05 else rng.choice(TOKENS + [rng.randint(0, 9)])
                for _ in range(width)
            )
            for _ in range(rng.randint(4, 12))
        ]
        lake.add(Table(f"t{t}", [f"c{i}" for i in range(width)], rows))
    return lake


def _seekers(lake: DataLake) -> list:
    """More than eight width-2 queries plus width-3 ones,
    each mixing real row slices, token shuffles, a ghost and a
    repeated-token tuple."""
    rng = random.Random(11)
    seekers = []
    for width in [2] * 10 + [3] * 3:
        tables = [t for t in lake if t.num_columns >= width]
        tuples = []
        for _ in range(3):
            row = rng.choice(rng.choice(tables).rows)
            picked = [v for v in row if v is not None][:width]
            if len(picked) == width:
                tuples.append(tuple(picked))
        tuples.append(tuple(rng.choice(TOKENS) for _ in range(width)))
        tuples.append(tuple(f"ghost{i}" for i in range(width)))
        tuples.append((rng.choice(TOKENS),) * width)
        seekers.append(Seekers.MC(tuples, k=6))
    return seekers


@pytest.fixture(scope="module", params=["row", "column"])
def served(request):
    """``(blend over a guarded lake, oracle context over an unguarded
    copy of the same lake and index, seekers)``."""
    blend = Blend(_lake(), backend=request.param)
    blend.build_index()
    oracle = SeekerContext(db=blend.db, lake=_lake(), hash_size=blend.index_config.hash_size)
    seekers = _seekers(oracle.lake)
    expected = [mc_scalar.execute(seeker, oracle) for seeker in seekers]
    _guard(blend.lake)
    return blend, expected, seekers


def test_solo_reads_no_cells(served):
    blend, expected, seekers = served
    assert [seeker.execute(blend.context()) for seeker in seekers] == expected
    assert any(len(result) for result in expected)


def test_mixed_width_batch_reads_no_cells(served):
    blend, expected, seekers = served
    partials = blend.execute_batch_partials(seekers)
    merged = [merge_partials([part], seeker.k) for seeker, part in zip(seekers, partials)]
    assert merged == expected


@pytest.mark.parametrize("backend", ["row", "column"])
def test_shuffled_row_ids_validate_the_indexed_row(backend):
    """BLEND (rand) permutes each table's rows before RowIds are
    assigned, so lake row ``RowId`` is some other row; validation must
    judge the row the index names. A table's count of joinable rows is
    permutation-invariant, so it is checked against a brute-force count
    over the lake's own rows."""
    lake = _lake(seed=8)
    blend = Blend(lake, backend=backend, index_config=IndexConfig(shuffle_rows=True))
    blend.build_index()
    for seeker in _seekers(lake):
        expected = {}
        for table_id, table in lake.items():
            rows = [[normalize_cell(value) for value in row] for row in table.rows]
            joinable = sum(
                any(all(row.count(t) >= tup.count(t) for t in tup) for tup in seeker.tuples)
                for row in rows
            )
            if joinable:
                expected[table_id] = float(joinable)
        hits = Seekers.MC(seeker.tuples, k=len(lake)).execute(blend.context())
        assert {hit.table_id: hit.score for hit in hits} == expected


def test_sharded_coordinator_reads_no_cells(served, tmp_path, monkeypatch):
    blend, expected, seekers = served
    unguarded = Blend(_lake(), backend=blend.db.backend)
    unguarded.build_index()
    path = save_sharded(unguarded, tmp_path / "sharded", 2)
    load = sharded._load

    def guarded_load(snapshot_path):
        shard = load(snapshot_path)
        _guard(shard.lake)
        return shard

    monkeypatch.setattr(sharded, "_load", guarded_load)
    with ShardCoordinator.load(path) as coordinator:
        assert coordinator.num_shards == 2
        assert coordinator.execute_batch(seekers) == expected
