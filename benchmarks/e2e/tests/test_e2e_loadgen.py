"""Open-loop mechanics under a fake clock: the Poisson schedule, lateness
accounting, and joining completion records back to requests."""

import random

import pytest

from blendbench.loadgen import (
    LoadResult,
    RecordingStats,
    Sent,
    inflight_at,
    join_completions,
    poisson_schedule,
    run_open_loop,
)


class FakeTime:
    def __init__(self):
        self.now = 0.0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.now += seconds


class SlowScheduler:
    """``submit`` that takes *cost* seconds of (fake) time."""

    def __init__(self, time, cost):
        self.time, self.cost, self.seen = time, cost, []

    def submit(self, seeker, timeout=None, key=None):
        self.time.now += self.cost
        self.seen.append((seeker.kind, key, timeout))
        return object()


def test_poisson_schedule_is_seeded_sorted_and_has_the_rate():
    first = poisson_schedule(random.Random(5), 200.0, 50.0)
    assert first == poisson_schedule(random.Random(5), 200.0, 50.0)
    assert first != poisson_schedule(random.Random(6), 200.0, 50.0)
    assert first == sorted(first) and 0 <= first[0] and first[-1] < 50.0
    assert len(first) == pytest.approx(200.0 * 50.0, rel=0.05)
    gaps = [b - a for a, b in zip(first, first[1:])]
    mean = sum(gaps) / len(gaps)
    variance = sum((g - mean) ** 2 for g in gaps) / len(gaps)
    assert variance == pytest.approx(mean**2, rel=0.1)  # exponential gaps


def test_open_loop_never_waits_for_answers_and_accounts_lateness():
    time = FakeTime()
    scheduler = SlowScheduler(time, cost=0.004)
    payloads = [{"modality": "kw", "values": [f"v{i}"], "k": 3} for i in range(4)]
    load = run_open_loop(
        scheduler,
        payloads,
        [0.0, 0.001, 0.002, 0.020],
        tags=list("abcd"),
        clock=time.clock,
        sleep=time.sleep,
    )
    assert [s.due for s in load.sent] == pytest.approx([0.0, 0.001, 0.002, 0.020])
    # the generator fell behind on requests 1 and 2, then caught up by sleeping
    assert [s.late for s in load.sent] == pytest.approx([0.0, 0.003, 0.006, 0.0])
    assert [s.before for s in load.sent] == pytest.approx([0.0, 0.004, 0.008, 0.020])
    assert all(s.after == pytest.approx(s.before + 0.004) for s in load.sent)
    assert [s.tag for s in load.sent] == list("abcd")
    assert [kind for kind, _, _ in scheduler.seen] == ["KW"] * 4
    assert load.started == 0.0 and load.finished == pytest.approx(0.024)


def test_payload_can_be_swapped_at_send_time():
    time = FakeTime()
    scheduler = SlowScheduler(time, cost=0.001)
    probe = {"modality": "sc", "values": ["x"], "k": 1}
    load = run_open_loop(
        scheduler,
        [{"modality": "kw", "values": ["a"], "k": 1}] * 2,
        [0.0, 0.5],
        tags=["t0", "t1"],
        payload_at=lambda index, now: (probe, ("probe", now)) if index == 1 else None,
        clock=time.clock,
        sleep=time.sleep,
    )
    assert [kind for kind, _, _ in scheduler.seen] == ["KW", "SC"]
    assert load.sent[0].tag == "t0" and load.sent[1].tag == ("probe", 0.5)


def sent_at(*brackets):
    load = LoadResult()
    for index, (before, after) in enumerate(brackets):
        load.sent.append(Sent(index, before, before, after, pending=None))
    return load


def test_join_attaches_records_and_leaves_the_unanswered_open():
    load = sent_at((0.0, 1.0), (2.0, 3.0), (4.0, 5.0))
    # request 1 never completed; a record from before the load is ignored
    join_completions(load, [(4.2, 12.0), (0.5, 10.0), (-3.0, 1.0)])
    assert [s.done for s in load.sent] == [10.0, None, 12.0]
    assert load.unjoined == 1
    assert inflight_at(load, 4.5) == 3 and inflight_at(load, 10.5) == 2
    assert inflight_at(load, 12.0) == 1


def test_join_resolves_a_record_drifting_into_the_next_bracket():
    load = sent_at((0.0, 1.0), (2.0, 2.000004), (2.000005, 2.000009))
    # request 1's recovered submit instant drifted 6 us, into request 2's bracket
    join_completions(load, [(0.5, 10.0), (2.000006, 11.0), (2.000007, 12.0)])
    assert [s.done for s in load.sent] == [10.0, 11.0, 12.0]
    assert load.unjoined == 0


def test_recording_stats_recovers_the_submit_instant():
    ticks = iter([105.0, 207.5])
    stats = RecordingStats(clock=lambda: next(ticks))
    stats.record_completed("SC", 5.0)
    stats.record_completed("KW", 0.5)
    assert stats.completions == [(100.0, 105.0), (207.0, 207.5)]
    assert stats.completed == 2 and stats.snapshot()["by_modality"] == {"SC": 1, "KW": 1}
