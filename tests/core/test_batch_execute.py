"""Cross-query batch execution parity: ``Blend.execute_batch`` /
``repro.core.batch.execute_batch`` must return byte-identical results to
one-at-a-time ``Seeker.execute``, for every batchable modality, on both
storage backends, across mixed and edge-case batches."""

import random

import pytest

from repro import Blend, DataLake, Seekers, Table
from repro.core.batch import execute_batch


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
    """Singleton batches take the solo path but must agree too."""
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
