"""Open-loop load generation against ``BatchScheduler.submit``.

One generator thread sends requests on a precomputed Poisson schedule
whether or not earlier ones have completed, so a stall shows up as queue
wait in later requests instead of silently thinning the load. Latency is
timed from the instant a request was *due*; how late the generator itself
ran is reported separately.

``PendingQuery`` only offers a blocking ``result()``, so completion
instants come from :class:`RecordingStats`, a ``ServingStats`` subclass
handed to the scheduler's public ``stats=`` argument: ``record_completed``
fires on the worker with the submit->complete latency, ``now - latency``
recovers the request's submit instant, and :func:`join_completions`
bisects that into the generator's disjoint ``[before_submit,
after_submit]`` intervals. Answers and errors are collected with
``result()`` after the run (the outcome is held by the request), so no
harvester thread competes for the interpreter lock while load is applied.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.serving.server import build_seeker
from repro.serving.stats import ServingStats

# A request not answered within this many seconds of being due missed its
# deadline and counts as failed.
REQUEST_TIMEOUT = 30.0


def poisson_schedule(rng: random.Random, rate: float, duration: float) -> list[float]:
    """Arrival offsets in ``[0, duration)`` with exponential gaps."""
    offsets: list[float] = []
    at = rng.expovariate(rate)
    while at < duration:
        offsets.append(at)
        at += rng.expovariate(rate)
    return offsets


class RecordingStats(ServingStats):
    """``ServingStats`` that also keeps each completion's instants."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        super().__init__()
        self._now = clock
        self.completions: list[tuple[float, float]] = []  # (submit instant, done instant)

    def record_completed(self, modality: str, latency_seconds: float) -> None:
        done = self._now()
        self.completions.append((done - latency_seconds, done))
        super().record_completed(modality, latency_seconds)


@dataclass
class Sent:
    """One request as the generator saw it."""

    index: int
    due: float
    before: float
    after: float
    pending: Any
    tag: Any = None  # what the caller needs to check the answer
    done: Optional[float] = None  # joined completion instant
    result: Any = None
    error: Optional[BaseException] = None

    @property
    def late(self) -> float:
        return self.before - self.due


@dataclass
class LoadResult:
    sent: list[Sent] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0  # when the last request was submitted
    unjoined: int = 0


def run_open_loop(
    scheduler,
    payloads: Sequence[dict],
    schedule: Sequence[float],
    *,
    tags: Optional[Sequence[Any]] = None,
    payload_at: Optional[Callable[[int, float], Optional[tuple[dict, Any]]]] = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> LoadResult:
    """Submit ``payloads[i]`` at ``start + schedule[i]`` for every *i*,
    never waiting for an answer. ``payload_at(i, now)`` (when given) may
    return a replacement ``(payload, tag)`` at send time -- the freshness
    probes of ``serve_churn`` depend on what has been acknowledged by
    then."""
    out = LoadResult()
    out.started = start = clock()
    for index, offset in enumerate(schedule):
        due = start + offset
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        payload = payloads[index]
        tag = tags[index] if tags is not None else None
        if payload_at is not None:
            swapped = payload_at(index, clock())
            if swapped is not None:
                payload, tag = swapped
        seeker, key = build_seeker(payload)
        before = clock()
        pending = scheduler.submit(seeker, timeout=REQUEST_TIMEOUT, key=key)
        after = clock()
        out.sent.append(Sent(index, due, before, after, pending, tag))
    out.finished = clock()
    return out


def collect_outcomes(load: LoadResult) -> None:
    """Fetch every request's outcome or error (blocks only for the tail
    still in flight)."""
    for sent in load.sent:
        try:
            sent.result = sent.pending.result().result
        except Exception as exc:  # noqa: BLE001 -- every failure is counted, none re-raised
            sent.error = exc


def join_completions(load: LoadResult, completions: Sequence[tuple[float, float]]) -> None:
    """Attach each completion record to the request it belongs to.

    A record's recovered submit instant lies inside that request's
    ``[before, after]`` bracket -- give or take the few microseconds
    between the scheduler reading its clock and the recorder reading its
    own. If that skew pushes a record into the *next* request's bracket
    (two submits microseconds apart), the collision is resolved by moving
    the earlier record one bracket back. Requests left without a record
    keep ``done=None``."""
    befores = [sent.before for sent in load.sent]
    claimed: dict[int, float] = {}
    for submitted, done in sorted(completions):
        slot = bisect_right(befores, submitted) - 1
        if slot < 0:
            continue  # completed before this load started: not ours
        if slot in claimed:
            if slot - 1 >= 0 and slot - 1 not in claimed:
                claimed[slot - 1] = claimed[slot]
            else:
                continue
        claimed[slot] = done
    for slot, done in claimed.items():
        load.sent[slot].done = done
    load.unjoined = sum(1 for sent in load.sent if sent.done is None)


def inflight_at(load: LoadResult, instant: float) -> int:
    """Requests submitted but not completed at *instant*."""
    submitted = sum(1 for sent in load.sent if sent.before <= instant)
    completed = sum(1 for sent in load.sent if sent.done is not None and sent.done <= instant)
    return submitted - completed
