"""Admission control and cross-query batching for the serving tier.

Requests enter one queue; a pool of workers pulls them off. An idle
worker starts a request the moment it arrives; a worker that comes free
takes the queue's head plus every same-modality request that queued up
behind it while the pool was busy, and runs them as ONE
``Blend.execute_batch_partials`` call -- a single index scan for an
SC/KW batch, one stacked super-key pass and one combined validation for
an MC batch. Batches therefore form from backlog alone, exactly when
there is load to amortise, and no worker ever sleeps on a request it
holds. Identical requests (same query, same k) coalesce further:
executed once, answered many times.

Deadlines are per-request and enforced at both ends: a worker drops a
request whose deadline passed while it sat queued (clean
:class:`RequestTimeoutError`, the worker moves on untouched), and the
caller's ``result()`` stops waiting at the deadline even if a worker is
still busy elsewhere. A request that both sides race to finish is
finalized exactly once.

``StaleContextError`` -- a request racing a hot-swap -- triggers one
transparent retry against a fresh lease (the flipped pointer), invisible
to the caller.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Hashable, Optional, Sequence

from ..core.results import ResultList, SeekerPartials, merge_partials
from ..core.seekers import Seeker
from ..errors import RequestTimeoutError, ServingError, StaleContextError
from .deployment import DeploymentManager
from .stats import ServingStats

DEFAULT_MAX_BATCH = 32


@dataclass(frozen=True)
class QueryOutcome:
    """A completed request: its ranking, the snapshot generation that
    served it, and how many requests shared its batch."""

    result: ResultList
    generation: int
    batch_size: int


class _Request:
    __slots__ = (
        "seeker",
        "key",
        "deadline",
        "submitted",
        "event",
        "lock",
        "finalized",
        "outcome",
        "error",
    )

    def __init__(
        self,
        seeker: Seeker,
        deadline: Optional[float],
        key: Optional[Hashable],
    ) -> None:
        self.seeker = seeker
        self.key = key
        self.deadline = deadline
        self.submitted = time.monotonic()
        self.event = threading.Event()
        self.lock = threading.Lock()
        self.finalized = False
        self.outcome: Optional[QueryOutcome] = None
        self.error: Optional[BaseException] = None

    def finalize(
        self,
        outcome: Optional[QueryOutcome] = None,
        error: Optional[BaseException] = None,
    ) -> bool:
        """First caller wins; losers learn the request was already done."""
        with self.lock:
            if self.finalized:
                return False
            self.finalized = True
            self.outcome = outcome
            self.error = error
        self.event.set()
        return True

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


class PendingQuery:
    """Caller-side handle for one submitted request."""

    def __init__(self, request: _Request, stats: ServingStats) -> None:
        self._request = request
        self._stats = stats

    def result(self) -> QueryOutcome:
        """Block until the request completes or its deadline passes.

        Raises :class:`RequestTimeoutError` on deadline, or whatever
        per-request error execution produced.
        """
        request = self._request
        if request.deadline is None:
            request.event.wait()
        else:
            request.event.wait(max(request.deadline - time.monotonic(), 0.0))
            if not request.event.is_set():
                # We hit the deadline -- but a worker may finalize in
                # this very instant; finalize() arbitrates.
                if request.finalize(
                    error=RequestTimeoutError(
                        f"{request.seeker.kind} request missed its deadline"
                    )
                ):
                    self._stats.record_timeout()
        if request.error is not None:
            raise request.error
        assert request.outcome is not None
        return request.outcome


class BatchScheduler:
    """The worker pool plus batching queue over a deployment manager.

    *workers* threads serve the queue; *max_batch* bounds how many
    queued same-modality requests one worker takes at once (a batch's
    memory and tail latency). The batch size itself is not configured:
    it is whatever backlog the queue holds when a worker comes free.
    """

    def __init__(
        self,
        manager: DeploymentManager,
        stats: Optional[ServingStats] = None,
        workers: int = 2,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> None:
        if workers < 1:
            raise ServingError("scheduler needs at least one worker")
        if max_batch < 1:
            raise ServingError("max_batch must be >= 1")
        self.manager = manager
        self.stats = stats if stats is not None else ServingStats()
        self.max_batch = max_batch
        self._queue: deque[_Request] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"blend-serve-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- submission ------------------------------------------------------------------

    def submit(
        self,
        seeker: Seeker,
        timeout: Optional[float] = None,
        key: Optional[Hashable] = None,
    ) -> PendingQuery:
        """Enqueue *seeker*; returns immediately with a handle.

        *timeout* is seconds from now to the request's deadline. *key*,
        when given, identifies the query semantically (same key = same
        answer): concurrent duplicates execute once.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        request = _Request(seeker, deadline, key)
        with self._cond:
            if self._closed:
                raise ServingError("scheduler is shut down")
            self._queue.append(request)
            self._cond.notify()
        return PendingQuery(request, self.stats)

    def execute(
        self,
        seeker: Seeker,
        timeout: Optional[float] = None,
        key: Optional[Hashable] = None,
    ) -> QueryOutcome:
        """Blocking convenience: ``submit(...).result()``."""
        return self.submit(seeker, timeout, key).result()

    def close(self) -> None:
        """Stop accepting work, fail whatever is still queued, join the
        workers."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            leftovers = list(self._queue)
            self._queue.clear()
            self._cond.notify_all()
        for request in leftovers:
            request.finalize(error=ServingError("scheduler is shut down"))
        for thread in self._workers:
            thread.join()

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- worker side -----------------------------------------------------------------

    def _worker_loop(self) -> None:
        while (batch := self._take_batch()) is not None:
            batch = [request for request in batch if self._admit(request)]
            if batch:
                self._run_batch(batch)

    def _take_batch(self) -> Optional[list[_Request]]:
        """The one place a worker blocks: wait for the queue to be
        non-empty, pop its head, and sweep what is already queued for
        requests of the head's modality, up to ``max_batch``. Whatever
        arrives later is the next free worker's batch. ``None`` means
        closed and drained."""
        with self._cond:
            while not self._queue:
                if self._closed:
                    return None
                self._cond.wait()
            batch = [self._queue.popleft()]
            kind = batch[0].seeker.kind
            skipped: list[_Request] = []
            while self._queue and len(batch) < self.max_batch:
                request = self._queue.popleft()
                (batch if request.seeker.kind == kind else skipped).append(request)
            self._queue.extendleft(reversed(skipped))
        return batch

    def _admit(self, request: _Request) -> bool:
        """Deadline check at dequeue: a request that aged out while
        queued fails without ever touching a worker's execution state."""
        if request.expired(time.monotonic()):
            if request.finalize(
                error=RequestTimeoutError(
                    f"{request.seeker.kind} request expired in queue"
                )
            ):
                self.stats.record_timeout()
            return False
        return True

    def _run_batch(self, batch: list[_Request]) -> None:
        """Execute one batch against a leased deployment and finalize
        every request. Identical keys coalesce; a batch-level failure
        falls back to per-request execution so one poisoned query cannot
        take its neighbours down."""
        self.stats.record_batch(len(batch))
        # Coalesce identical queries: first request per key executes.
        unique: list[_Request] = []
        followers: dict[int, list[_Request]] = {}
        by_key: dict[Hashable, int] = {}
        for request in batch:
            if request.key is not None and request.key in by_key:
                followers.setdefault(by_key[request.key], []).append(request)
            else:
                if request.key is not None:
                    by_key[request.key] = len(unique)
                unique.append(request)
        coalesced = len(batch) - len(unique)
        if coalesced:
            self.stats.record_coalesced(coalesced)

        seekers = [request.seeker for request in unique]
        for attempt in (0, 1):
            with self.manager.lease() as deployment:
                generation = deployment.generation
                try:
                    parts: list[Optional[SeekerPartials]] = list(
                        deployment.blend.execute_batch_partials(seekers)
                    )
                    errors: list[Optional[BaseException]] = [None] * len(unique)
                    break
                except StaleContextError as stale:
                    # Raced a hot-swap: retry ONCE against a fresh lease
                    # (the next lease() sees the flipped pointer). A
                    # second stale in a row fails the requests, never
                    # the worker.
                    if attempt == 1:
                        parts = [None] * len(unique)
                        errors = [stale] * len(unique)
                        break
                    self.stats.record_stale_retry()
                except Exception:
                    # Isolate the offending request: run the batch's
                    # members one at a time, capturing per-request
                    # failures.
                    parts, errors = self._run_individually(deployment, seekers)
                    break

        batch_size = len(batch)
        for i, request in enumerate(unique):
            part, error = parts[i], errors[i]
            result: Optional[ResultList] = None
            if error is None and part is not None:
                try:
                    result = merge_partials([part], request.seeker.k)
                except Exception as exc:
                    error = exc
            recipients = [request] + followers.get(i, [])
            for recipient in recipients:
                self._deliver(recipient, result, error, generation, batch_size)

    def _run_individually(
        self, deployment: Any, seekers: Sequence[Seeker]
    ) -> tuple[list[Optional[SeekerPartials]], list[Optional[BaseException]]]:
        parts: list[Optional[SeekerPartials]] = [None] * len(seekers)
        errors: list[Optional[BaseException]] = [None] * len(seekers)
        for i, seeker in enumerate(seekers):
            try:
                parts[i] = seeker.partials(deployment.blend.context())
            except Exception as exc:  # per-request isolation
                errors[i] = exc
        return parts, errors

    def _deliver(
        self,
        request: _Request,
        result: Optional[ResultList],
        error: Optional[BaseException],
        generation: int,
        batch_size: int,
    ) -> None:
        if error is not None or result is None:
            error = error or ServingError("request produced no result")
            if request.finalize(error=error):
                self.stats.record_error()
            return
        outcome = QueryOutcome(result, generation, batch_size)
        if request.finalize(outcome=outcome):
            self.stats.record_completed(
                request.seeker.kind, time.monotonic() - request.submitted
            )
