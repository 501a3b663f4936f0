"""Lake statistics are derived from ``AllTables``, and the derivation is
exact and lazy.

Contract: after a build, after every add / replace / remove, after
``save_delta`` -> ``Blend.load``, after a full save -> ``Blend.load`` and
after ``compact_index``, ``blend.stats`` equals the lake-scan oracle
(:mod:`oracles.stats_scan`) field for field, on both backends, over cells
that hit the tokeniser's hard cases. And the GROUP BY runs only when a
plan needs estimates: a single-modality ``discover`` after a write
derives nothing, a multi-seeker ``run`` derives once.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.stats_scan import lake_statistics
from repro import Blend, Combiners, DataLake, Plan, Seekers, Table
from repro.errors import BlendError
from repro.index.stats import LakeStatistics

CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -3, 7, 2**53 + 1, 2**60]),
    st.sampled_from([0.0, 1.0, 2.5, 7.0, float("nan"), float("inf")]),
    st.sampled_from(["", "  ", "1", "7", "a", "A ", "ß", "中文", "x y", "2.5"]),
)


@st.composite
def tables(draw):
    width = draw(st.integers(min_value=1, max_value=3))
    rows = draw(
        st.lists(st.tuples(*[CELLS] * width), min_size=0, max_size=5)
    )
    return [f"c{i}" for i in range(width)], rows


OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "replace", "remove"]),
        st.integers(min_value=0, max_value=1_000),
        tables(),
    ),
    max_size=6,
)


def _assert_oracle(blend: Blend) -> None:
    assert blend.stats == lake_statistics(blend.lake)


def _apply(blend: Blend, kind: str, pick: int, shape, name: str) -> None:
    live = blend.lake.table_ids()
    if kind == "add" or not live:
        blend.add_table(Table(name, *shape))
    elif kind == "replace":
        blend.replace_table(live[pick % len(live)], Table(name, *shape))
    else:
        blend.remove_table(live[pick % len(live)])


@pytest.mark.parametrize("backend", ["column", "row"])
@given(initial=st.lists(tables(), max_size=4), ops=OPS)
@settings(max_examples=8, deadline=None)
def test_stats_equal_the_lake_scan_through_the_lifecycle(backend, initial, ops):
    lake = DataLake("contract")
    for position, shape in enumerate(initial):
        lake.add(Table(f"t{position}", *shape))
    blend = Blend(lake, backend=backend)
    blend.build_index()
    _assert_oracle(blend)
    with tempfile.TemporaryDirectory() as scratch:
        base = blend.save(Path(scratch) / "base")
        for step, (kind, pick, shape) in enumerate(ops):
            _apply(blend, kind, pick, shape, f"op{step}")
            _assert_oracle(blend)
        blend.save_delta()
        replayed = Blend.load(base)
        _assert_oracle(replayed)
        assert replayed.stats == blend.stats
        full = Blend.load(blend.save(Path(scratch) / "full"))
        _assert_oracle(full)
    blend.compact_index()
    _assert_oracle(blend)


def _count_derivations(monkeypatch) -> list:
    calls: list = []
    derive = LakeStatistics.from_lake.__func__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return derive(cls, *args, **kwargs)

    monkeypatch.setattr(LakeStatistics, "from_lake", classmethod(counted))
    return calls


@pytest.mark.parametrize("backend", ["column", "row"])
def test_stats_derive_only_when_a_plan_needs_estimates(monkeypatch, backend):
    calls = _count_derivations(monkeypatch)
    lake = DataLake("lazy")
    lake.add(Table("t0", ["city", "country"], [("rome", "italy"), ("oslo", "norway")]))
    lake.add(Table("t1", ["city"], [("rome",), ("cairo",)]))
    blend = Blend(lake, backend=backend)
    blend.build_index()
    assert len(calls) == 1  # the build derives eagerly

    blend.add_table(Table("t2", ["city"], [("oslo",), ("rome",)]))
    for modality in ("join", "keyword", "multi_column"):
        query = [("rome", "italy")] if modality == "multi_column" else ["rome", "oslo"]
        blend.discover(query, modality, k=5)
    blend.discover(["rome"], ("join", "keyword"), k=5)  # rank fusion, no estimates
    assert len(calls) == 1

    plan = Plan()
    plan.add("a", Seekers.SC(["rome", "oslo"], k=5))
    plan.add("b", Seekers.SC(["rome", "cairo"], k=5))
    plan.add("both", Combiners.Intersect(k=5), ["a", "b"])
    blend.run(plan)
    assert len(calls) == 2  # one derivation after the write
    blend.run(plan)
    assert len(calls) == 2  # cached until the next write
    blend.remove_table(0)
    blend.run(plan)
    assert len(calls) == 3
    assert blend.stats == lake_statistics(blend.lake)


def test_stats_of_an_unindexed_deployment_raise():
    blend = Blend(DataLake("bare"))
    with pytest.raises(BlendError, match="build_index"):
        blend.stats
