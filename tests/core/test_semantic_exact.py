"""SS is exact at a lake size where a graph beam misses columns.

``discover(q, modalities=("semantic",))`` and ``SS($q)`` must equal a
numpy oracle that scores every column of the cell-scan embedder
(:mod:`oracles.embed_scalar`), sorts them by ``(cosine distance, key)``
and keeps each table's first column -- solo and through a 3-shard
:class:`ShardCoordinator`, on both backends, over a seeded lake of more
than 300 non-zero columns.
"""

import random

import numpy as np
import pytest

from oracles.embed_scalar import embed_lake
from repro import Blend, DataLake, Table, parse_plan
from repro.baselines.embeddings import embed_values
from repro.index import IndexConfig
from repro.serving import ShardCoordinator
from repro.snapshot import save_sharded

K = 10
VOCABULARY = [f"{stem}{i}" for stem in ("city", "name") for i in range(300)]


def _lake() -> DataLake:
    rng = random.Random(37)
    lake = DataLake("exact-ss")
    for t in range(150):
        width = rng.randint(2, 4)
        rows = [
            tuple(rng.choice(VOCABULARY) for _ in range(width))
            for _ in range(rng.randint(3, 8))
        ]
        lake.add(Table(f"t{t}", [f"c{i}" for i in range(width)], rows))
    return lake


def _queries() -> list[list[str]]:
    rng = random.Random(41)
    return [rng.sample(VOCABULARY, rng.randint(2, 6)) for _ in range(16)]


def _oracle(columns, values: list[str]) -> list[tuple[int, float]]:
    """Top-K ``(table_id, similarity)``: every column by (cosine distance,
    key), each table ranked by its closest column."""
    query = embed_values(values)
    scored = sorted(
        (1.0 - float(np.dot(vector, query)) / (np.linalg.norm(vector) * np.linalg.norm(query)), key)
        for key, vector in columns
    )
    ranking: dict[int, float] = {}
    for distance, (table_id, _) in scored:
        ranking.setdefault(table_id, 1.0 - distance)
    return list(ranking.items())[:K]


def _assert_equal(hits, expected) -> None:
    assert [hit.table_id for hit in hits] == [table_id for table_id, _ in expected]
    for hit, (_, similarity) in zip(hits, expected):
        assert hit.score == pytest.approx(similarity, abs=1e-12)


@pytest.mark.parametrize("backend", ["column", "row"])
def test_semantic_search_is_exact_solo_and_sharded(backend, tmp_path):
    lake = _lake()
    columns = embed_lake(lake)
    assert len(columns) >= 300
    blend = Blend(lake, backend=backend, index_config=IndexConfig(semantic=True))
    blend.build_index()
    save_sharded(blend, tmp_path / "shards", num_shards=3)
    with ShardCoordinator.load(tmp_path / "shards") as coordinator:
        assert coordinator.num_shards == 3
        for values in _queries():
            expected = _oracle(columns, values)
            (node,) = parse_plan("SS($q)", {"q": values}, k=K).nodes()
            _assert_equal(blend.discover(values, modalities=("semantic",), k=K).output, expected)
            _assert_equal(blend.run(parse_plan("SS($q)", {"q": values}, k=K)).output, expected)
            _assert_equal(coordinator.execute(node.operator), expected)
