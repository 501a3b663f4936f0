"""Snapshot deployments and zero-downtime hot-swap.

A :class:`ServingDeployment` wraps one read-only :class:`Blend` (usually
``Blend.load``-ed from a snapshot, workers sharing its mmap) plus an
in-flight reference count. The :class:`DeploymentManager` holds the
*current* deployment behind a single attribute -- an atomic pointer under
CPython -- so the swap protocol is:

1. load (or build) the new generation beside the old,
2. ``warm()`` it so no reader ever races lazy first-touch state,
3. flip the pointer (new arrivals lease the new generation),
4. retire the old deployment and wait for its in-flight count to drain,
5. drop the last reference -- the GC unmaps the old snapshot's buffers.

In-flight requests against the old generation run to completion against
their leased deployment; nothing is cancelled and nothing observes a
half-swapped state. A request that raced the flip and was built against
the old context gets ``StaleContextError`` from ``ensure_fresh`` and is
transparently retried once against the new lease by the scheduler.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from ..core.system import Blend
from ..errors import ServingError

# How long a swap waits for the retired generation's in-flight requests;
# stragglers still complete and release, only the wait is bounded.
DRAIN_TIMEOUT_S = 30.0


class ServingDeployment:
    """One served snapshot generation with in-flight request accounting.

    Wrapping a :class:`Blend` makes it read-only for good: its lifecycle
    methods and ``compact_index`` raise
    :class:`~repro.errors.ReadOnlyDeploymentError`, so readers never see
    it change (new state arrives only through :meth:`DeploymentManager.swap`).
    Wrapping also warms it (``Blend.warm``): every lazy read structure is
    built before the first reader, so concurrent readers never race on
    first touch.
    """

    def __init__(self, blend: Blend) -> None:
        blend._served = True
        blend.warm()
        self.blend = blend
        self.generation = blend.lake.generation
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._inflight = 0
        self._retired = False

    def acquire(self) -> bool:
        """Register an in-flight request. False once retired -- callers
        must re-lease from the manager (the pointer has moved on)."""
        with self._lock:
            if self._retired:
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        with self._lock:
            self._inflight -= 1
            if self._retired and self._inflight == 0:
                self._drained.notify_all()

    def retire_and_drain(self) -> bool:
        """Refuse new leases, then wait for in-flight requests to finish.
        Returns True when fully drained within ``DRAIN_TIMEOUT_S``."""
        with self._lock:
            self._retired = True
            deadline = time.monotonic() + DRAIN_TIMEOUT_S
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._drained.wait(remaining)
            return True

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight


@dataclass(frozen=True)
class SwapReport:
    """What a hot-swap did: generations, drain outcome, wall time."""

    old_generation: int
    new_generation: int
    drained: bool
    seconds: float


class DeploymentManager:
    """The atomic current-deployment pointer plus the swap protocol.

    ``lease()`` is the only read path: it pins a deployment for the span
    of one request. Swaps serialize among themselves (``_swap_lock``) but
    never block readers -- the flip is one attribute store.
    """

    def __init__(self, blend: Blend) -> None:
        self._current = ServingDeployment(blend)
        self._swap_lock = threading.Lock()

    def current(self) -> ServingDeployment:
        return self._current

    @contextmanager
    def lease(self) -> Iterator[ServingDeployment]:
        """Pin the current deployment for one request.

        The acquire loop covers the one race that exists: between reading
        the pointer and registering in-flight, a swap may retire the read
        deployment; acquire then fails and the loop re-reads the moved
        pointer. A live pointer is never retired, so this terminates.
        """
        while True:
            deployment = self._current
            if deployment.acquire():
                break
        try:
            yield deployment
        finally:
            deployment.release()

    def swap(self, blend: Blend) -> SwapReport:
        """Deploy *blend* with zero downtime (steps 1-5 above).

        Raises :class:`ServingError` if the replacement is not indexed.
        Returns once the old generation has drained (or
        ``DRAIN_TIMEOUT_S`` expired)."""
        if not getattr(blend, "_indexed", False):
            raise ServingError("cannot deploy a Blend without a built index")
        with self._swap_lock:
            started = time.monotonic()
            replacement = ServingDeployment(blend)
            old = self._current
            self._current = replacement
            drained = old.retire_and_drain()
            return SwapReport(
                old_generation=old.generation,
                new_generation=replacement.generation,
                drained=drained,
                seconds=time.monotonic() - started,
            )
