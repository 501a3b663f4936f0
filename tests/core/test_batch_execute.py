"""Cross-query batch execution parity: ``Blend.execute_batch`` /
``repro.core.batch.execute_batch`` must return byte-identical results to
one-at-a-time ``Seeker.execute``, for every batchable modality, on both
storage backends, across mixed and edge-case batches."""

import random

import pytest
from oracles import mc_scalar

from repro import Blend, DataLake, Seekers, Table
from repro.core.batch import execute_batch
from repro.index import IndexConfig


CITIES = ["berlin", "paris", "rome", "madrid", "lisbon", "vienna", "oslo", "cairo"]
COUNTRIES = [
    "germany", "france", "italy", "spain",
    "portugal", "austria", "norway", "egypt",
]
PAIRS = list(zip(CITIES, COUNTRIES))


@pytest.fixture(scope="module", params=["row", "column"])
def serving_blend(request) -> Blend:
    rng = random.Random(29)
    lake = DataLake("serving")
    for t in range(14):
        rows = []
        for _ in range(35):
            city, country = rng.choice(PAIRS)
            if rng.random() < 0.3:
                country = rng.choice(COUNTRIES)
            rows.append([city, country, rng.randint(0, 40), f"tag{rng.randint(0, 4)}"])
        lake.add(Table(f"t{t}", ["city", "country", "pop", "tag"], rows))
    blend = Blend(lake, backend=request.param)
    blend.build_index()
    return blend


def _mixed_seekers(rng: random.Random) -> list:
    return [
        Seekers.SC(rng.sample(CITIES, 3), k=5),
        Seekers.SC(rng.sample(COUNTRIES, 4), k=3),
        Seekers.SC(["nonexistent-token"], k=5),  # empty result path
        Seekers.KW(rng.sample(CITIES + COUNTRIES, 5), k=4),
        Seekers.KW(["berlin"], k=20),  # k larger than any hit count
        Seekers.MC(rng.sample(PAIRS, 3), k=5),
        Seekers.MC(rng.sample(PAIRS, 4) + [("ghost", "nowhere")], k=4),
        # repeated-token tuple exercises the multiset validation branch
        Seekers.MC([("berlin", "berlin"), ("paris", "france")], k=3),
        Seekers.MC([("ghost", "nowhere")], k=3),  # all-miss MC
    ]


def test_batch_matches_serial_for_all_modalities(serving_blend):
    rng = random.Random(5)
    seekers = _mixed_seekers(rng)
    context = serving_blend.context()
    serial = [seeker.execute(context) for seeker in seekers]
    batched = execute_batch(seekers, context)
    assert len(batched) == len(serial)
    for i, (expected, got) in enumerate(zip(serial, batched)):
        assert got == expected, f"seeker {i} ({seekers[i].kind}) diverged"


def test_blend_execute_batch_entry_point(serving_blend):
    rng = random.Random(17)
    seekers = _mixed_seekers(rng)
    context = serving_blend.context()
    serial = [seeker.execute(context) for seeker in seekers]
    assert serving_blend.execute_batch(seekers) == serial


def test_single_seeker_batches(serving_blend):
    """A batch of one agrees with solo execution."""
    context = serving_blend.context()
    for seeker in (
        Seekers.SC(["berlin", "paris"], k=4),
        Seekers.KW(["egypt"], k=2),
        Seekers.MC([("rome", "italy"), ("oslo", "norway")], k=3),
    ):
        assert execute_batch([seeker], context) == [seeker.execute(context)]


def test_batch_with_unbatchable_seeker_falls_back(serving_blend):
    """A Correlation seeker rides along via its own execute."""
    context = serving_blend.context()
    corr = Seekers.Correlation(
        ["berlin", "paris", "rome", "oslo"], [92, 28, 31, 80], k=3
    )
    sc = Seekers.SC(["berlin", "paris"], k=4)
    serial = [sc.execute(context), corr.execute(context)]
    assert execute_batch([sc, corr], context) == serial


def test_many_identical_queries_batch(serving_blend):
    """Homogeneous batches (the coalescing worst case upstream of the
    scheduler's dedupe) stay correct."""
    context = serving_blend.context()
    seekers = [Seekers.SC(["berlin", "paris", "rome"], k=5) for _ in range(8)]
    serial = seekers[0].execute(context)
    for result in execute_batch(seekers, context):
        assert result == serial


def test_mixed_width_mc_batch(serving_blend):
    """MC queries of different tuple widths share nothing at phase 1
    (separate join arity) but still batch correctly side by side."""
    rng = random.Random(31)
    lake = serving_blend.lake
    wide = []
    for table_id in lake.table_ids()[:4]:
        row = lake.by_id(table_id).rows[0]
        wide.append((row[0], row[1], row[3]))
    seekers = [
        Seekers.MC(rng.sample(PAIRS, 3), k=5),
        Seekers.MC(wide[:2], k=4),
        Seekers.MC(rng.sample(PAIRS, 2), k=3),
        Seekers.MC(wide[2:] + [("ghost", "nowhere", "tag0")], k=4),
    ]
    context = serving_blend.context()
    serial = [seeker.execute(context) for seeker in seekers]
    assert execute_batch(seekers, context) == serial


# -- MC edge cases: solo == batch of one == inside a mixed batch == scalar oracle -----


@pytest.fixture(scope="module", params=[("row", 63), ("column", 63), ("row", 128)])
def edge_context(request):
    """A lake holding every MC edge case at once; the ``stale`` table
    shrinks AFTER indexing, so ``AllTables`` references rows 3..7 of it
    that the lake no longer has. ``("row", 128)`` runs the object-dtype
    (Python int) tuple hashes."""
    backend, hash_size = request.param
    lake = DataLake("edges")
    lake.add(Table("dup", ["p", "q"], [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]))
    lake.add(Table("dup3", ["p", "q", "r"], [("a", "x", "a"), ("a", "y", "z"), ("a", "b", "c")]))
    lake.add(
        Table(
            "bools",
            ["flag", "tag"],
            [(True, "x"), (1, "x"), (1.0, "x"), (False, "x"), ("1", "x"), ("true", "x")],
        )
    )
    lake.add(Table("pairs", ["city", "country"], PAIRS))
    lake.add(Table("stale", ["city", "country"], PAIRS))
    lake.add(
        Table(
            "wide",
            ["c0", "c1", "c2", "c3", "c4"],
            [
                ("w1", "w2", "w3", "w4", "w5"),
                ("w4", "w3", "w2", "w1", "w9"),
                ("w1", "w1", "w2", "w3", "w9"),
                ("w1", "w2", "w3", "w9", "w9"),
            ],
        )
    )
    blend = Blend(lake, backend=backend, index_config=IndexConfig(hash_size=hash_size))
    blend.build_index()
    del lake.by_name("stale").rows[3:]
    return blend.context()


# name -> (tuples, expected (table name -> validated rows))
_EDGE_QUERIES = {
    # every tuple repeats a token: the repeat-free code matrix is empty
    "repeated-token": ([("a", "a")], {"dup": 1, "dup3": 1}),
    "all-repeated": ([("a", "a"), ("b", "b"), ("ghost", "ghost")], {"dup": 2, "dup3": 1}),
    "mixed-multiset": ([("a", "a"), ("a", "b")], {"dup": 3, "dup3": 2}),
    "permuted": ([("a", "b"), ("b", "a")], {"dup": 2, "dup3": 1}),
    "duplicated": ([("a", "b"), ("a", "b"), ("a", "b")], {"dup": 2, "dup3": 1}),
    # True / "true" are one token, 1 / 1.0 / "1" another
    "true-is-not-1": ([(True, "x")], {"bools": 2}),
    "1-is-not-true": ([(1, "x")], {"bools": 3}),
    "1.0-is-1": ([(1.0, "x"), ("1", "x")], {"bools": 3}),
    "all-ghost": ([("ghost", "nowhere"), ("nobody", "home")], {}),
    "stale-rows": (PAIRS, {"pairs": 8, "stale": 3}),
    "width-3": ([("a", "x", "a"), ("a", "b", "c"), ("ghost", "x", "a")], {"dup3": 2}),
    "width-3-repeated": ([("a", "a", "x")], {"dup3": 1}),
    "width-4": ([("w1", "w2", "w3", "w4"), ("w9", "w9", "w1", "w2")], {"wide": 3}),
    "width-4-repeated": ([("w1", "w1", "w2", "w3")], {"wide": 1}),
}


def _edge_seekers() -> list:
    """Fresh seekers: the named edge cases (members with overlapping
    vocabularies -- the ``a``/``b`` family -- with disjoint ones, and one
    with zero survivors) plus enough plain width-2 queries to spill past
    eight same-width members."""
    queries = [tuples for tuples, _ in _EDGE_QUERIES.values()]
    queries += [[PAIRS[i], PAIRS[(i + 3) % len(PAIRS)], ("a", "b")] for i in range(6)]
    assert sum(len(q[0]) == 2 for q in queries) > 8
    return [Seekers.MC(tuples, k=6) for tuples in queries]


def test_mc_edge_cases_agree_in_every_composition(edge_context):
    lake = edge_context.lake
    expected = [mc_scalar.execute(seeker, edge_context) for seeker in _edge_seekers()]
    for (name, (_, rows_per_table)), result in zip(_EDGE_QUERIES.items(), expected):
        assert {lake.name_of(h.table_id): h.score for h in result} == rows_per_table, name

    solo = [seeker.execute(edge_context) for seeker in _edge_seekers()]
    assert solo == expected
    batch_of_one = [execute_batch([seeker], edge_context)[0] for seeker in _edge_seekers()]
    assert batch_of_one == expected

    # One mixed batch: widths 2, 3 and 4 interleaved, > 8
    # same-width members, SC / KW riders in between.
    riders = [Seekers.SC(["berlin", "a"], k=4), Seekers.KW(["x", "rome"], k=4)]
    batch = _edge_seekers()
    batch[2:2] = riders[:1]
    batch[7:7] = riders[1:]
    results = execute_batch(batch, edge_context)
    assert [r for s, r in zip(batch, results) if s.kind == "MC"] == expected
    assert [r for s, r in zip(batch, results) if s.kind != "MC"] == [
        rider.execute(edge_context) for rider in riders
    ]
