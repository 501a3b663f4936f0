"""Hybrid (exact+semantic fusion) seeker: the HY modality.

The property at the heart of the suite: with the exact semantic lane,
hybrid results are **byte-identical across shard counts** -- scores
included -- because the fused partial merges each lane globally before
fusing (see ``repro.core.results``). Plus the
degeneracy contract (``alpha`` 0/1 reproduce the pure exact / pure
semantic rankings), the ``discover()`` facade, and the grammar's mixed
predicates end-to-end."""

import random

import pytest

from repro import Blend, DataLake, Plan, Seekers, Table, parse_plan
from repro.core.hybrid import DiscoveryResult, HybridSeeker
from repro.core.results import (
    FusionLane,
    ResultList,
    SeekerPartials,
    TableHit,
    fuse_rankings,
    fused_partials,
    merge_partials,
    ranked_partials,
)
from repro.core.semantic import SemanticSeeker
from repro.errors import BlendError, SeekerError
from repro.index.alltables import IndexConfig
from repro.serving import ShardCoordinator
from repro.snapshot import save_sharded

NAMES = [f"w{i}" for i in range(36)]
TOPICS = [f"topic{i}" for i in range(8)]


def _random_lake(seed: int, tables: int = 13) -> DataLake:
    rng = random.Random(seed)
    lake = DataLake(f"hybridlake-{seed}")
    for i in range(tables):
        rows = [
            [rng.choice(NAMES), rng.choice(TOPICS), str(rng.randrange(50))]
            for _ in range(rng.randrange(6, 16))
        ]
        lake.add(Table(f"t{i}", ["name", "topic", "score"], rows))
    return lake


def _blend(seed: int, backend: str) -> Blend:
    blend = Blend(
        _random_lake(seed), backend=backend, index_config=IndexConfig(semantic=True)
    )
    blend.build_index()
    return blend


def _hybrid_queries(rng: random.Random) -> list[HybridSeeker]:
    picks = rng.sample(NAMES, 6)
    return [
        # row-shaped query -> MC exact lane; flat values -> SC exact lane
        HybridSeeker(picks[:4], about=[rng.choice(TOPICS)], k=5, alpha=0.5),
        HybridSeeker(picks[2:5], k=4, alpha=0.3),
        HybridSeeker(
            [(picks[0], rng.choice(TOPICS)), (picks[1], rng.choice(TOPICS))],
            about=picks[4:],
            k=5,
            alpha=0.6,
        ),
    ]


def _hits(result: ResultList) -> list[tuple[int, float]]:
    return [(hit.table_id, hit.score) for hit in result]


@pytest.mark.parametrize("backend", ["column", "row"])
@pytest.mark.parametrize("seed", [3, 11])
def test_hybrid_shard_count_invariance(tmp_path, backend, seed):
    """Random lakes x both backends x solo/2-shard/4-shard: the fused
    ranking (ids AND scores) is byte-identical everywhere."""
    blend = _blend(seed, backend)
    seekers = _hybrid_queries(random.Random(seed + 1))
    context = blend.context()
    solo = [_hits(s.execute(context)) for s in seekers]
    assert any(solo), "queries must hit something for the parity to mean anything"
    for num_shards in (2, 4):
        root = tmp_path / f"{backend}-{seed}-{num_shards}"
        save_sharded(blend, root, num_shards=num_shards)
        coordinator = ShardCoordinator.load(root)
        try:
            sharded = [_hits(r) for r in coordinator.execute_batch(seekers)]
        finally:
            coordinator.close()
        assert sharded == solo, f"{num_shards}-shard hybrid diverges from solo"


@pytest.mark.parametrize("about", [None, [TOPICS[1], TOPICS[4]]], ids=["values", "about"])
@pytest.mark.parametrize("alpha,lane", [(0.0, "exact"), (1.0, "semantic")])
def test_alpha_degenerates_to_pure_lane(alpha, lane, about):
    """alpha=0 reproduces the pure exact ranking, alpha=1 the pure
    semantic ranking (table order; fusion rescales scores) -- whether the
    semantic topic is the query values or a separate ``about``."""
    blend = _blend(7, "column")
    context = blend.context()
    values = [NAMES[0], NAMES[3], NAMES[5]]
    hybrid = HybridSeeker(values, about=about, k=5, alpha=alpha)
    if lane == "exact":
        oracle = Seekers.SC(values, k=5).execute(context).table_ids()
    else:
        topic = values if about is None else about
        oracle = SemanticSeeker(topic, k=5).execute(context).table_ids()
    assert hybrid.execute(context).table_ids() == oracle


def test_batched_execution_matches_solo():
    blend = _blend(9, "column")
    seekers = _hybrid_queries(random.Random(10))
    context = blend.context()
    solo = [_hits(s.execute(context)) for s in seekers]
    batched = [_hits(r) for r in blend.execute_batch(seekers)]
    assert batched == solo


def test_hybrid_rewrite_preserves_optimized_semantics():
    """Intersect(SC, HY) without truncation (Theorem 1): the optimizer
    rewrites the hybrid with its sibling's table ids; the hybrid honours
    the rewrite by post-filtering its fused ranking, so fused scores and
    the survivors' order are untouched and optimized == unoptimized."""
    blend = _blend(17, "column")
    big_k = 10_000
    plan = Plan()
    plan.add("sc", Seekers.SC([NAMES[0], NAMES[1], NAMES[4]], k=big_k))
    plan.add("hy", HybridSeeker([NAMES[0], NAMES[2]], k=big_k))
    from repro.core.combiners import Combiners

    plan.add("out", Combiners.Intersect(k=big_k), ["sc", "hy"])
    optimized = blend.run(plan, optimize=True).output
    baseline = blend.run(plan, optimize=False).output
    assert optimized.table_ids() == baseline.table_ids()
    # Under truncation the optimized intersection may only gain tables
    # (the Theorem 1 superset property), never lose them.
    small = Plan()
    small.add("sc", Seekers.SC([NAMES[0], NAMES[1], NAMES[4]], k=4))
    small.add("hy", HybridSeeker([NAMES[0], NAMES[2]], k=4))
    small.add("out", Combiners.Intersect(k=4), ["sc", "hy"])
    optimized_small = set(blend.run(small, optimize=True).output.table_ids())
    baseline_small = set(blend.run(small, optimize=False).output.table_ids())
    assert baseline_small <= optimized_small


def test_hybrid_validation_errors():
    with pytest.raises(SeekerError, match="alpha"):
        HybridSeeker(["a"], alpha=1.5)


# -- fused partials contract ------------------------------------------------------


def _lane(name, weight, rows, fetch=20):
    return FusionLane(name, weight, ranked_partials(rows, fetch))


def test_fused_partials_require_lanes_and_depth():
    with pytest.raises(SeekerError, match="at least one lane"):
        SeekerPartials("fused", fetch=10)
    with pytest.raises(SeekerError, match="lane merge depth"):
        SeekerPartials("fused", lanes=(_lane("exact", 1.0, [(1, 2.0)]),))
    with pytest.raises(SeekerError, match="cannot carry fusion lanes"):
        SeekerPartials("ranked", lanes=(_lane("exact", 1.0, [(1, 2.0)]),))


def test_fused_merge_rejects_diverging_lane_structure():
    a = fused_partials([_lane("exact", 1.0, [(1, 2.0)])], fetch=20)
    b = fused_partials([_lane("exact", 0.5, [(2, 1.0)])], fetch=20)
    with pytest.raises(SeekerError, match="diverging lane structure"):
        merge_partials([a, b], 5)


def test_fused_merge_fuses_globally_merged_lanes():
    """Two 'shards' whose per-shard lane ranks disagree with the global
    ranks: the merge must fuse global ranks, not per-shard ones."""
    shard1 = fused_partials(
        [_lane("exact", 0.5, [(1, 10.0)]), _lane("semantic", 0.5, [(1, 0.2)])],
        fetch=20,
    )
    shard2 = fused_partials(
        [_lane("exact", 0.5, [(2, 30.0)]), _lane("semantic", 0.5, [(2, 0.9)])],
        fetch=20,
    )
    merged = merge_partials([shard1, shard2], 5)
    # Globally table 2 is rank 1 in both lanes; table 1 rank 2 in both.
    expected = fuse_rankings(
        [
            (0.5, ResultList([TableHit(2, 30.0), TableHit(1, 10.0)])),
            (0.5, ResultList([TableHit(2, 0.9), TableHit(1, 0.2)])),
        ],
        5,
    )
    assert _hits(merged) == _hits(expected)
    assert merged.table_ids() == [2, 1]


def test_fuse_rankings_skips_zero_weight_lanes():
    primary = ResultList([TableHit(3, 9.0), TableHit(1, 5.0)])
    ignored = ResultList([TableHit(7, 100.0)])
    fused = fuse_rankings([(1.0, primary), (0.0, ignored)], 5)
    assert fused.table_ids() == [3, 1]
    assert 7 not in fused


# -- the discover() facade --------------------------------------------------------


def test_discover_single_modality_is_the_seeker_itself():
    """One modality, no fusion: ``discover(...).output`` is exactly what
    the modality's seeker returns when executed directly."""
    blend = _blend(19, "column")
    context = blend.context()
    values = [NAMES[0], NAMES[1], NAMES[6]]
    assert blend.discover(values, modalities="join", k=5).output == (
        Seekers.SC(values, k=5).execute(context)
    )
    assert blend.discover(values, modalities=("keyword",), k=5).output == (
        Seekers.KW(values, k=5).execute(context)
    )
    assert blend.discover(values, modalities=("semantic",), k=5).output == (
        SemanticSeeker(values, k=5).execute(context)
    )
    rows = [(NAMES[0], TOPICS[0]), (NAMES[1], TOPICS[1])]
    assert blend.discover(rows, modalities=("multi_column",), k=5).output == (
        Seekers.MC(rows, k=5).execute(context)
    )


def test_discover_returns_typed_result():
    blend = _blend(21, "column")
    result = blend.discover(
        [NAMES[2], NAMES[3]], modalities=("join", "semantic"), k=4
    )
    assert isinstance(result, DiscoveryResult)
    assert result.modalities == ("join", "semantic")
    assert result.k == 4
    assert set(result.per_modality) == {"join", "semantic"}
    assert len(result) <= 4
    assert result.table_ids() == result.output.table_ids()
    # Fused output = RRF of the per-modality rankings, equal weights.
    expected = fuse_rankings(
        [(1.0, result.per_modality["join"]), (1.0, result.per_modality["semantic"])],
        4,
    )
    assert _hits(result.output) == _hits(expected)


def test_discover_rejects_unknowns():
    blend = _blend(25, "column")
    with pytest.raises(BlendError, match="unknown discovery modality"):
        blend.discover(["x"], modalities=("psychic",))
    with pytest.raises(BlendError, match="at least one modality"):
        blend.discover(["x"], modalities=())


# -- grammar end-to-end -----------------------------------------------------------


def test_grammar_hybrid_executes_like_direct_seeker():
    blend = _blend(27, "column")
    bindings = {"q": [NAMES[0], NAMES[1]], "topic": [TOPICS[0]]}
    plan = parse_plan("HY($q, about=$topic, alpha=0.3)", bindings, k=5)
    via_grammar = blend.run(plan).output
    direct = HybridSeeker(
        bindings["q"], about=bindings["topic"], k=5, alpha=0.3
    ).execute(blend.context())
    assert _hits(via_grammar) == _hits(direct)


def test_grammar_ss_and_mixed_predicates():
    blend = _blend(29, "column")
    bindings = {"q": [NAMES[2], NAMES[3]], "topic": [TOPICS[1]]}
    ss = blend.run(parse_plan("SS($topic, k=4)", bindings)).output
    assert ss == blend.discover(bindings["topic"], "semantic", k=4).output
    mixed = blend.run(
        parse_plan("Intersect(SC($q), HY($q, about=$topic, alpha=0.5))", bindings, k=6)
    ).output
    exact_ids = set(Seekers.SC(bindings["q"], k=6).execute(blend.context()).table_ids())
    assert set(mixed.table_ids()) <= exact_ids


def test_grammar_hybrid_sharded_round_trip(tmp_path):
    """HY parsed from the grammar executes against a live coordinator
    identically to solo -- the end-to-end path of the acceptance bar."""
    blend = _blend(31, "column")
    plan = parse_plan("HY($q, about=$topic)", {"q": [NAMES[4]], "topic": [TOPICS[2]]}, k=4)
    (node,) = plan.nodes()
    seeker = node.operator
    solo = _hits(seeker.execute(blend.context()))
    root = tmp_path / "grammar-sharded"
    save_sharded(blend, root, num_shards=3)
    coordinator = ShardCoordinator.load(root)
    try:
        assert _hits(coordinator.execute_batch([seeker])[0]) == solo
    finally:
        coordinator.close()
