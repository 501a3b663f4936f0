"""Zero-downtime hot-swap: under sustained concurrent load, no request
fails, no request mixes generations (every answer matches what ITS
generation's index returns), and post-swap answers match a fresh build
of the new-generation lake."""

import copy
import threading
import time

import pytest

from repro import Blend, Seekers, Table
from repro.core.results import ResultList, count_partials
from repro.errors import StaleContextError
from repro.serving import BatchScheduler, DeploymentManager

from tests.serving.conftest import build_blend, make_lake

EXTRA_ROWS = [
    ["zanzibar", "tanzania", 5],
    ["berlin", "germany", 7],
    ["paris", "france", 9],
] * 6


def _queries():
    return [
        Seekers.SC(["berlin", "paris", "zanzibar"], k=6),
        Seekers.KW(["tanzania", "germany"], k=5),
        Seekers.MC([("berlin", "germany"), ("zanzibar", "tanzania")], k=6),
    ]


@pytest.fixture(scope="module", params=["column", "row"])
def generations(request):
    """(old blend, new blend, fresh rebuild of the new lake), on each
    storage backend."""
    backend = request.param
    old = build_blend(seed=23, backend=backend)
    new = build_blend(seed=23, backend=backend)
    new.add_table(Table("extra", ["city", "country", "pop"], copy.deepcopy(EXTRA_ROWS)))
    fresh = Blend(make_lake(23, extra_rows=copy.deepcopy(EXTRA_ROWS)), backend=backend)
    fresh.build_index()
    return old, new, fresh


def test_generations_are_distinct(generations):
    old, new, fresh = generations
    assert old.lake.generation != new.lake.generation
    assert new.lake.generation == fresh.lake.generation


def test_swap_under_sustained_load_zero_failures(generations):
    old, new, fresh = generations
    expected = {
        old.lake.generation: [q.execute(old.context()) for q in _queries()],
        new.lake.generation: [q.execute(new.context()) for q in _queries()],
    }
    manager = DeploymentManager(old)
    failures: list[str] = []
    observations: list[tuple[int, int]] = []
    stop = threading.Event()

    with BatchScheduler(
        manager, workers=3, max_batch=16
    ) as scheduler:

        def load(worker_id: int) -> None:
            i = worker_id
            while not stop.is_set():
                queries = _queries()
                qi = i % len(queries)
                try:
                    outcome = scheduler.execute(queries[qi])
                except Exception as exc:  # pragma: no cover - the assertion target
                    failures.append(f"q{qi}: {type(exc).__name__}: {exc}")
                    continue
                observations.append((outcome.generation, qi))
                if outcome.result != expected[outcome.generation][qi]:
                    failures.append(
                        f"q{qi} mixed generations: gen={outcome.generation}"
                    )
                i += 1

        threads = [threading.Thread(target=load, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        time.sleep(0.25)
        report = manager.swap(new)
        time.sleep(0.25)
        stop.set()
        for t in threads:
            t.join()

        assert failures == []
        assert report.drained
        assert report.old_generation == old.lake.generation
        assert report.new_generation == new.lake.generation
        seen_generations = {generation for generation, _ in observations}
        assert seen_generations <= {old.lake.generation, new.lake.generation}
        assert new.lake.generation in seen_generations  # swap actually took

        # Post-swap: every query is served by the new generation and
        # matches a FRESH build of the new-generation lake.
        for qi, query in enumerate(_queries()):
            outcome = scheduler.execute(query)
            assert outcome.generation == new.lake.generation
            assert outcome.result == query.execute(fresh.context())


def test_swap_drains_inflight_before_returning(generations):
    old, new, _ = generations
    manager = DeploymentManager(old)
    release = threading.Event()
    entered = threading.Event()

    class Parked:
        kind = "PARKED"
        k = 1

        def partials(self, context):
            entered.set()
            release.wait(5.0)
            return count_partials([], [])

    with BatchScheduler(manager, workers=1, max_batch=1) as scheduler:
        pending = scheduler.submit(Parked())
        assert entered.wait(5.0)
        old_deployment = manager.current()
        assert old_deployment.inflight == 1

        done = {}

        def do_swap() -> None:
            done["report"] = manager.swap(new)

        swapper = threading.Thread(target=do_swap)
        swapper.start()
        time.sleep(0.1)
        # New arrivals already see the new generation while the old one
        # drains.
        assert manager.current().generation == new.lake.generation
        assert swapper.is_alive()  # still draining the parked request
        release.set()
        swapper.join(5.0)
        assert done["report"].drained
        assert old_deployment.inflight == 0
        pending.result()


def test_stale_context_retries_once_transparently(generations):
    old, _, _ = generations
    manager = DeploymentManager(old)
    calls = {"n": 0}
    expected = ResultList([])

    class StaleOnce:
        kind = "FLAKY"
        k = 1

        def partials(self, context):
            calls["n"] += 1
            if calls["n"] == 1:
                raise StaleContextError("raced a swap")
            return count_partials([], [])

    with BatchScheduler(manager, workers=1, max_batch=1) as scheduler:
        outcome = scheduler.execute(StaleOnce())
    assert outcome.result == expected
    assert calls["n"] == 2
    assert scheduler.stats.snapshot()["stale_retries"] == 1


def test_snapshot_swap_roundtrip(generations, tmp_path):
    """The /swap flow's core: load a saved snapshot of the new
    generation and swap it in; answers match the source deployment."""
    old, new, _ = generations
    path = new.save(tmp_path / "snap-v2")
    loaded = Blend.load(path)
    manager = DeploymentManager(old)
    with BatchScheduler(manager, workers=2, max_batch=8) as scheduler:
        report = manager.swap(loaded)
        assert report.new_generation == new.lake.generation
        for query in _queries():
            outcome = scheduler.execute(query)
            assert outcome.generation == new.lake.generation
            assert outcome.result == query.execute(new.context())
