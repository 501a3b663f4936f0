"""Serving metrics: counters and latency/batch-size distributions.

One :class:`ServingStats` instance is shared by the scheduler's workers
and the HTTP stats endpoint; every mutation happens under one lock (the
critical sections are a few arithmetic ops, far cheaper than the seeker
work between them).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Optional

# Latency reservoir size: large enough for stable p99 estimates over a
# bench run, bounded so a long-lived server cannot grow without limit.
_LATENCY_WINDOW = 8192


class ServingStats:
    """Thread-safe request metrics for one server lifetime.

    Latencies are kept in a bounded window (most recent
    ``_LATENCY_WINDOW`` requests); percentiles are computed on demand.
    Batch sizes feed a histogram keyed by exact size -- ``max_batch``
    bounds a batch, so it bounds the key space too.
    """

    def __init__(self, clock=None) -> None:
        import time

        self._lock = threading.Lock()
        self._clock = clock if clock is not None else time.monotonic
        self._started = self._clock()
        self._latencies: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._batch_sizes: dict[int, int] = {}
        self._by_modality: dict[str, int] = {}
        self.completed = 0
        self.timeouts = 0
        self.errors = 0
        self.stale_retries = 0
        self.swaps = 0
        self.coalesced = 0

    # -- recording (called by scheduler workers) -----------------------------------

    def record_batch(self, size: int) -> None:
        with self._lock:
            self._batch_sizes[size] = self._batch_sizes.get(size, 0) + 1

    def record_completed(self, modality: str, latency_seconds: float) -> None:
        with self._lock:
            self.completed += 1
            self._by_modality[modality] = self._by_modality.get(modality, 0) + 1
            self._latencies.append(latency_seconds)

    def record_coalesced(self, count: int = 1) -> None:
        with self._lock:
            self.coalesced += count

    def record_timeout(self) -> None:
        with self._lock:
            self.timeouts += 1

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    def record_stale_retry(self) -> None:
        with self._lock:
            self.stale_retries += 1

    def record_swap(self) -> None:
        with self._lock:
            self.swaps += 1

    # -- reporting -----------------------------------------------------------------

    def snapshot(self, plan_cache: Optional[dict[str, Any]] = None) -> dict[str, Any]:
        """One consistent view of every metric, JSON-ready.

        *plan_cache* is the current deployment's
        ``Database.plan_cache_stats()``, passed in by the server so the
        stats module stays ignorant of deployments.
        """
        with self._lock:
            elapsed = max(self._clock() - self._started, 1e-9)
            latencies = sorted(self._latencies)
            out: dict[str, Any] = {
                "uptime_seconds": elapsed,
                "completed": self.completed,
                "timeouts": self.timeouts,
                "errors": self.errors,
                "stale_retries": self.stale_retries,
                "swaps": self.swaps,
                "coalesced": self.coalesced,
                "queries_per_sec": self.completed / elapsed,
                "by_modality": dict(self._by_modality),
                "batch_size_histogram": {
                    str(size): count
                    for size, count in sorted(self._batch_sizes.items())
                },
                "latency_ms": {
                    "p50": _percentile(latencies, 0.50) * 1e3,
                    "p99": _percentile(latencies, 0.99) * 1e3,
                },
            }
        if plan_cache is not None:
            hits = plan_cache.get("hits", 0)
            misses = plan_cache.get("misses", 0)
            lookups = hits + misses
            out["plan_cache"] = dict(
                plan_cache, hit_rate=(hits / lookups) if lookups else 0.0
            )
        return out


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[rank]
