"""Background compaction: fold the delta layer into a new base generation.

The streaming-ingest write path (:mod:`repro.snapshot`) keeps the base
snapshot frozen forever -- mutations accumulate in delta segments
(storage) and ``delta.json`` (disk). Reads stay O(base + delta), but the
delta share of every query grows with ingest, so a long-lived deployment
periodically *compacts*: rebuild a clean single-segment base from
base + delta, then hand it to the serving tier through the existing
:meth:`DeploymentManager.swap` flip-and-drain. Requests never fail and
never block -- in-flight queries drain against the old generation while
new arrivals lease the compacted one.

:func:`compact_snapshot` is the mechanism (one directory in, one
directory out, usable from a cron job or a coordinator);
:class:`SnapshotCompactor` is the policy for one served deployment: each
:meth:`~SnapshotCompactor.compact_once` call, made on the writer's own
schedule, checks the delta fraction, compacts past a threshold and
swaps. Sharded deployments compact per shard through
:meth:`~repro.serving.sharded.ShardCoordinator.compact_shard` instead --
each shard flips independently, so the fleet never compacts in lockstep.

Compaction output satisfies the rebuild-parity invariant: the compacted
storage is byte-identical to a from-scratch ``build_index()`` on the
final lake, so swapping a compacted generation is observationally a
no-op for queries.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..core.system import Blend
from ..errors import ServingError
from .deployment import DeploymentManager, SwapReport


def compact_snapshot(source: Union[str, Path], destination: Union[str, Path]) -> Blend:
    """Rebuild the base+delta snapshot at *source* into a clean
    single-generation snapshot at *destination*.

    Loads the source (replaying its delta layer), forces physical
    compaction of the maintained relations (tombstones dropped, delta
    segments folded, dictionaries re-encoded -- after which storage is
    byte-identical to a from-scratch build on the final lake), and
    writes a full snapshot with no delta layer. Returns the compacted
    deployment, already based on *destination* -- ready to
    :meth:`DeploymentManager.swap` in (which makes it read-only), or to
    keep ingesting against.

    The source directory is left untouched: until the caller flips
    traffic to *destination*, the old generation keeps serving.
    """
    blend = Blend.load(source)
    blend.compact_index()
    blend.save(destination, incremental="never")
    return blend


@dataclass(frozen=True)
class CompactionReport:
    """One completed compaction cycle: what was folded, where the new
    generation lives, and how the serving flip went."""

    source: str
    destination: str
    delta_fraction: float
    delta_rows: int
    deleted_rows: int
    seconds: float
    swap: Optional[SwapReport]


class SnapshotCompactor:
    """The compaction policy for one served deployment.

    Each :meth:`compact_once` call reads the manager's current
    deployment; once the delta share of storage crosses *threshold* (or
    with ``force=True``), it

    1. persists the live delta (``save_delta`` -- O(delta)),
    2. rebuilds a clean generation under *output_root*
       (``gen-0001``, ``gen-0002``, ...),
    3. swaps it in through the manager's flip-and-drain.

    The served deployment must carry a base snapshot (be ``load``-ed
    from or ``save``-d to disk) -- a purely in-memory deployment has
    nothing to fold. The served blend is read-only: new state comes from
    a writer that saves deltas into the same base, and runs
    ``compact_once`` from its own loop (the sharded tier holds its routing
    lock for the span of a cycle).
    """

    def __init__(
        self,
        manager: DeploymentManager,
        output_root: Union[str, Path],
        threshold: float = 0.25,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ServingError(f"threshold must be in (0, 1], got {threshold}")
        self.manager = manager
        self.output_root = Path(output_root)
        self.threshold = threshold
        self.reports: list[CompactionReport] = []

    def _next_generation_dir(self) -> Path:
        self.output_root.mkdir(parents=True, exist_ok=True)
        taken = [
            int(entry.name[4:])
            for entry in self.output_root.glob("gen-*")
            if entry.name[4:].isdigit()
        ]
        return self.output_root / f"gen-{max(taken, default=0) + 1:04d}"

    def compact_once(self, force: bool = False) -> Optional[CompactionReport]:
        """Run one compaction cycle if the threshold is crossed (or
        *force*). Returns the report, or ``None`` when below threshold
        or when the served generation moved on mid-cycle (someone else
        swapped -- the stale rebuild is discarded, never deployed)."""
        deployment = self.manager.current()
        blend = deployment.blend
        stats = blend.delta_stats()
        if not force and stats["delta_fraction"] < self.threshold:
            return None
        base = blend._snapshot_base
        if base is None:
            raise ServingError(
                "cannot compact a deployment with no base snapshot; "
                "save() it to disk first"
            )
        started = time.monotonic()
        blend.save_delta()
        destination = self._next_generation_dir()
        compacted = compact_snapshot(base.path, destination)
        if self.manager.current() is not deployment:
            # Superseded mid-cycle: another swap landed while we were
            # rebuilding. Deploying our rebuild now would silently drop
            # whatever that swap shipped, so discard it instead.
            shutil.rmtree(destination, ignore_errors=True)
            return None
        swap = self.manager.swap(compacted)
        report = CompactionReport(
            source=base.path,
            destination=str(destination),
            delta_fraction=stats["delta_fraction"],
            delta_rows=stats["delta_rows"],
            deleted_rows=stats["deleted_rows"],
            seconds=time.monotonic() - started,
            swap=swap,
        )
        self.reports.append(report)
        return report
