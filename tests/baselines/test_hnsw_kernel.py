"""The HNSW's one distance kernel against the seed scalar HNSW
(``oracles.hnsw_scalar``): identical graphs, identical searches, and
scores that are bit-equal for a row however the rows are grouped."""

import sys
from pathlib import Path

import numpy as np
import pytest

from oracles.hnsw_scalar import HnswIndex as ScalarHnsw
from repro.baselines import DeepJoinIndex, HnswIndex, StarmieIndex
from repro.baselines.embeddings import embed_column
from repro.core.semantic import SemanticIndex
from repro.engine import Database
from repro.index import build_alltables
from repro.lake.generators import make_union_benchmark

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


@pytest.fixture(scope="module")
def lake_items():
    """(key, vector) for every non-zero column embedding of the e2e lake."""
    if str(E2E) not in sys.path:
        sys.path.insert(0, str(E2E))
    from blendbench.lakegen import compose_lake

    lake = compose_lake(71, scale=0.25).lake
    items = []
    for table_id, table in lake.items():
        for position in range(table.num_columns):
            vector = embed_column(table, position, 64)
            if np.any(vector):
                items.append(((table_id, position), vector))
    return items


def _random_items(n=160, dims=16, seed=5):
    """Seeded unit vectors with exact duplicates and near-duplicates.

    The near-duplicates sit ~1e-6 apart, so their mutual distances
    (~1e-12) are far above the few-ulp difference between this kernel
    and the oracle's ``np.dot``; pairs closer than ~1e-8 have cosines
    that round to 1.0, and their order is rounding noise in any kernel."""
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, dims))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    vectors[n // 4 : n // 4 + 12] = vectors[3]  # exact duplicates
    vectors[n // 2 : n // 2 + 12] = vectors[7] + rng.normal(scale=1e-6, size=(12, dims))
    return [(("r", i), vectors[i]) for i in range(n)]


def _build(cls, items, m, dims):
    index = cls(dims, m=m, ef_construction=48, seed=11)
    for key, vector in items:
        index.add(key, vector)
    return index


@pytest.mark.parametrize("m", [2, 8])
@pytest.mark.parametrize("source", ["lake", "random"])
def test_graph_and_searches_match_the_scalar_oracle(lake_items, source, m):
    items = lake_items if source == "lake" else _random_items()
    dims = len(items[0][1])
    new = _build(HnswIndex, items, m, dims)
    oracle = _build(ScalarHnsw, items, m, dims)
    assert new._links == oracle._links
    assert new._entry_point == oracle._entry_point
    assert new._max_level == oracle._max_level
    for _, query in items[::9]:
        for k, ef in ((10, 4), (10, 64), (30, 30)):
            got = new.search(query, k=k, ef=ef)
            want = oracle.search(query, k=k, ef=ef)
            assert [key for key, _ in got] == [key for key, _ in want]
            assert np.allclose([s for _, s in got], [s for _, s in want], rtol=0, atol=1e-12)


@pytest.mark.parametrize("source", ["lake", "random"])
def test_exact_lane_is_the_sorted_oracle_scan(lake_items, source):
    """``search_columns`` ranks like ``sorted((distance, key))`` over the
    oracle's per-pair distances -- ties between duplicate vectors fall
    back to the key -- and scores the HNSW's distance bits."""
    items = lake_items if source == "lake" else _random_items()
    keys = [key for key, _ in items]
    index = SemanticIndex(None, dimensions=len(items[0][1]))
    index._append(keys, np.array([vector for _, vector in items]))
    hnsw = _build(HnswIndex, items, 8, len(items[0][1]))
    for _, query in items[::7]:
        want = sorted((ScalarHnsw._distance(query, vector), key) for key, vector in items)
        got = index.search_columns(query, k=len(items))
        assert [key for key, _ in got] == [key for _, key in want]
        assert np.allclose(
            [s for _, s in got], [1.0 - d for d, _ in want], rtol=0, atol=1e-12
        )
        scored = sorted(zip(hnsw.distances(query, float(np.linalg.norm(query))).tolist(), keys))
        assert got == [(key, 1.0 - distance) for distance, key in scored]
        assert index.search_columns(query, k=5) == got[:5]


def test_kernel_is_row_independent(lake_items):
    """A row's score is bit-equal scored alone, in random subsets, in the
    full matrix, and in each matrix of a 1-, 2- or 3-way key split."""
    rng = np.random.default_rng(3)
    random_rows = np.vstack([v for _, v in _random_items(dims=64, n=300)])
    lake_rows = np.vstack([v for _, v in lake_items])
    for rows in (lake_rows, random_rows):
        index = _build(HnswIndex, enumerate(rows), 8, 64)
        splits = {
            shards: [_build(HnswIndex, enumerate(rows[s::shards]), 8, 64) for s in range(shards)]
            for shards in (1, 2, 3)
        }
        for query in (rows[0], rows[len(rows) // 2], rng.normal(size=64)):
            norm = float(np.linalg.norm(query))
            full = index.distances(query, norm)
            alone = np.concatenate([index.distances(query, norm, [i]) for i in range(len(rows))])
            assert full.tobytes() == alone.tobytes()
            for size in (2, 3, 17, 64, len(rows) // 2):
                subset = rng.choice(len(rows), size=size, replace=False).tolist()
                assert index.distances(query, norm, subset).tobytes() == full[subset].tobytes()
            for shards, parts in splits.items():
                for shard, part in enumerate(parts):
                    scored = part.distances(query, norm)
                    assert scored.tobytes() == full[shard::shards].tobytes()


def test_zero_denominator_scores_one():
    index = HnswIndex(4)
    index.add("zero", np.zeros(4))
    index.add("unit", np.array([1.0, 0.0, 0.0, 0.0]))
    query = np.array([0.0, 1.0, 0.0, 0.0])
    assert index.distances(query, 1.0).tolist() == [1.0, 1.0]
    assert index.distances(np.zeros(4), 0.0).tolist() == [1.0, 1.0]


def _expected_storage(hnsw):
    links = sum(16 + 8 * len(neighbours) for layer in hnsw._links for neighbours in layer.values())
    return len(hnsw) * hnsw.dimensions * 8 + links


def test_storage_counts_every_vector_once():
    lake = make_union_benchmark(num_seeds=4, partitions_per_seed=3, distractor_tables=8).lake
    db = Database()
    build_alltables(lake, db)
    semantic = SemanticIndex(db)
    assert semantic.storage_bytes() == semantic.num_columns * semantic.dimensions * 8
    for index in (StarmieIndex(lake), DeepJoinIndex(lake)):
        hnsw = index._hnsw
        assert len(hnsw) == semantic.num_columns
        assert hnsw.storage_bytes() == _expected_storage(hnsw)
        assert index.storage_bytes() == _expected_storage(hnsw)
