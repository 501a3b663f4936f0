"""Discovery-as-a-service: the concurrent serving tier (ROADMAP item 1).

Layers, bottom up:

* :mod:`repro.serving.deployment` -- one served snapshot generation with
  in-flight accounting, and the atomic-pointer hot-swap protocol.
* :mod:`repro.serving.scheduler` -- admission queue + worker pool that
  coalesces same-modality requests into :func:`repro.core.batch`
  cross-query kernel calls, with per-request deadlines and transparent
  stale-context retry across swaps.
* :mod:`repro.serving.stats` -- thread-safe q/s, latency percentiles,
  batch-size histogram.
* :mod:`repro.serving.server` -- the stdlib HTTP front end
  (``/query``, ``/stats``, ``/health``, ``/swap``).
* :mod:`repro.serving.sharded` -- scatter-gather over K shard workers
  (each a ``Blend`` behind one op loop, on a thread or in a child
  process, reached over the same pipe), merging per-shard partials into
  rankings byte-identical to single-process execution.
* :mod:`repro.serving.compaction` -- background folding of the
  streaming-ingest delta layer into clean base generations, deployed
  through the hot-swap protocol (solo) or per-shard routing (sharded).
"""

from .compaction import CompactionReport, SnapshotCompactor, compact_snapshot
from .deployment import DeploymentManager, ServingDeployment, SwapReport
from .scheduler import BatchScheduler, PendingQuery, QueryOutcome
from .server import BlendServer, build_seeker
from .sharded import ShardCoordinator, ShardWorker
from .stats import ServingStats

__all__ = [
    "BatchScheduler",
    "BlendServer",
    "CompactionReport",
    "DeploymentManager",
    "PendingQuery",
    "QueryOutcome",
    "ServingDeployment",
    "ServingStats",
    "ShardCoordinator",
    "ShardWorker",
    "SnapshotCompactor",
    "SwapReport",
    "build_seeker",
    "compact_snapshot",
]
