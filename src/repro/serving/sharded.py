"""Scatter-gather sharded serving: many shards, one ranking.

A lake too large for one box is split with
:meth:`~repro.lake.datalake.DataLake.shard_plan` and saved as K
independent shard snapshots (:func:`repro.snapshot.save_sharded`). Each
shard keeps its tables at their *global* id slots, so shard workers emit
:class:`~repro.core.results.SeekerPartials` whose table ids need no
translation, and the coordinator's
:func:`~repro.core.results.merge_partials` over K gathered partials is
*the same function* a solo seeker runs over one -- scatter-gather results
are byte-identical to single-process execution by construction, for
every seeker modality.

Three pieces:

* :class:`LocalShardWorker` -- one shard served in-process: a
  :class:`~repro.serving.deployment.DeploymentManager` plus its own
  :class:`~repro.serving.scheduler.BatchScheduler` (the PR 6 batching
  tier), answering ``partials`` requests and single-shard lifecycle ops.
* :class:`ProcessShardWorker` -- the same contract over a
  ``multiprocessing`` pipe: a child process loads its shard snapshot and
  runs a :class:`LocalShardWorker` loop, so shards scale past the GIL
  (and, with a network transport in place of the pipe, past one box).
* :class:`ShardCoordinator` -- broadcasts each seeker to every shard,
  gathers partials, runs the global merge; routes lifecycle ops to the
  single owning shard by stable table id and stamps every mutation with
  a new generation so stale readers fail fast
  (:class:`~repro.errors.StaleContextError`), mirroring the
  single-process context protocol.

Failure semantics: a lifecycle op touches exactly one shard, so
concurrent queries observe either the whole pre-state or the whole
post-state of that shard (the worker's scheduler retries stale contexts
across the mutation); the coordinator's generation stamp lets callers
pin a multi-query session to one consistent view. A worker that dies
mid-request surfaces the transport error to the caller -- the
coordinator never silently drops a shard from the merge, which would
break the byte-parity contract.
"""

from __future__ import annotations

import multiprocessing
import threading
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from ..core.results import ResultList, SeekerPartials, merge_partials
from ..core.seekers import Seeker
from ..core.system import Blend
from ..errors import LakeError, ServingError, SnapshotError, StaleContextError
from ..lake.table import Table
from ..snapshot import read_shard_manifest
from .deployment import DeploymentManager
from .scheduler import DEFAULT_MAX_BATCH, BatchScheduler

__all__ = [
    "LocalShardWorker",
    "ProcessShardWorker",
    "ShardCoordinator",
]


def _mp_context():
    """Fork when available (cheap; the parent's scheduler threads hold no
    locks the child touches -- the child never runs parent threads), else
    the platform default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class LocalShardWorker:
    """One shard served in-process behind the PR 6 batching tier.

    The worker owns a :class:`DeploymentManager` (so the shard can be
    hot-swapped independently) and a :class:`BatchScheduler`: a
    coordinator batch is enqueued whole and reaches the kernels as one
    call per modality, and concurrent coordinator queries that queue up
    behind a busy worker join the next batch *per shard*. The
    coordinator speaks a tiny op protocol --
    ``send(op, payload)`` then ``recv()`` -- split in two phases so a
    broadcast overlaps across workers instead of serialising.
    """

    def __init__(
        self,
        blend: Blend,
        *,
        workers: int = 2,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> None:
        self.manager = DeploymentManager(blend)
        self.scheduler = BatchScheduler(
            self.manager, workers=workers, max_batch=max_batch
        )
        self._pending: Optional[tuple[str, Any]] = None

    # -- two-phase op protocol -------------------------------------------------

    def send(self, op: str, payload: Any = None) -> None:
        """Start one op. ``partials`` ops are submitted to the scheduler
        and complete asynchronously; everything else runs inline (still
        cheap) with the outcome parked for :meth:`recv`."""
        if self._pending is not None:
            raise ServingError("shard worker already has an op in flight")
        if op == "partials":
            try:
                handles = self.scheduler.submit_many(payload, partials=True)
            except BaseException as exc:  # scheduler closed, bad seeker, ...
                self._pending = ("error", exc)
                return
            self._pending = ("partials", handles)
            return
        try:
            self._pending = ("value", self._apply(op, payload))
        except BaseException as exc:
            self._pending = ("error", exc)

    def recv(self) -> Any:
        """Finish the op started by :meth:`send`; raises what it raised."""
        if self._pending is None:
            raise ServingError("shard worker has no op in flight")
        tag, value = self._pending
        self._pending = None
        if tag == "error":
            raise value
        if tag == "partials":
            return [handle.result().partials for handle in value]
        return value

    def request(self, op: str, payload: Any = None) -> Any:
        """``send`` + ``recv`` in one step (single-worker convenience)."""
        self.send(op, payload)
        return self.recv()

    # -- op implementations ----------------------------------------------------

    def _apply(self, op: str, payload: Any) -> Any:
        blend = self.manager.current().blend
        if op == "add":
            table_id, table = payload
            return blend.add_table(table, table_id=table_id)
        if op == "remove":
            blend.remove_table(payload)
            return None
        if op == "replace":
            table_id, table = payload
            blend.replace_table(table_id, table)
            return None
        if op == "swap":
            replacement = Blend.load(payload)
            self.manager.swap(replacement)
            return self.manager.current().blend.lake.table_ids()
        if op == "table_ids":
            return blend.lake.table_ids()
        if op == "stats":
            return self.scheduler.stats.snapshot()
        if op == "save_delta":
            # Persist this shard's mutations since its base snapshot
            # (O(delta)); returns the snapshot path written, which is
            # what the coordinator compacts from.
            return str(blend.save_delta(payload))
        if op == "delta_stats":
            return blend.delta_stats()
        raise ServingError(f"unknown shard worker op: {op!r}")

    def close(self) -> None:
        self.scheduler.close()


def _shard_worker_main(
    conn,
    snapshot_path: str,
    verify: bool,
    workers: int,
    max_batch: int,
) -> None:
    """Child-process loop: load the shard snapshot, then serve ops off
    the pipe until ``close`` or EOF. Every reply is ``("ok", value)`` or
    ``("err", exception)`` so the parent re-raises faithfully."""
    try:
        blend = Blend.load(snapshot_path, verify=verify)
        worker = LocalShardWorker(blend, workers=workers, max_batch=max_batch)
    except BaseException as exc:
        conn.send(("err", exc))
        return
    conn.send(("ok", "ready"))
    try:
        while True:
            try:
                op, payload = conn.recv()
            except EOFError:
                break
            if op == "close":
                conn.send(("ok", None))
                break
            try:
                worker.send(op, payload)
                conn.send(("ok", worker.recv()))
            except BaseException as exc:
                try:
                    conn.send(("err", exc))
                except Exception:  # unpicklable exception: downgrade
                    conn.send(("err", ServingError(f"{type(exc).__name__}: {exc}")))
    finally:
        worker.close()
        conn.close()


class ProcessShardWorker:
    """One shard served by a child process, same op contract as
    :class:`LocalShardWorker`.

    The child loads its shard snapshot itself (snapshots are the
    handoff format -- nothing heavyweight crosses the pipe) and wraps a
    :class:`LocalShardWorker`; the parent ships ops and gets back
    partials / exceptions. Seekers, tables, and
    :class:`SeekerPartials` all pickle cleanly by design.
    """

    def __init__(
        self,
        snapshot_path: Union[str, Path],
        *,
        verify: bool = True,
        workers: int = 2,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> None:
        ctx = _mp_context()
        self._conn, child_conn = ctx.Pipe()
        self._process = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, str(snapshot_path), verify, workers, max_batch),
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        self._closed = False
        status, payload = self._conn.recv()  # startup handshake
        if status == "err":
            self._process.join()
            self._closed = True
            raise payload

    def send(self, op: str, payload: Any = None) -> None:
        if self._closed:
            raise ServingError("shard worker process is closed")
        self._conn.send((op, payload))

    def recv(self) -> Any:
        try:
            status, payload = self._conn.recv()
        except EOFError:
            self._closed = True
            raise ServingError("shard worker process died mid-request")
        if status == "err":
            raise payload
        return payload

    def request(self, op: str, payload: Any = None) -> Any:
        self.send(op, payload)
        return self.recv()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._conn.send(("close", None))
            self._conn.recv()
        except (BrokenPipeError, EOFError, OSError):
            pass
        self._conn.close()
        self._process.join(timeout=10)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join()


class ShardCoordinator:
    """Scatter-gather front end over K shard workers.

    Queries broadcast to every shard (each table lives wholly in one, so
    no shard can be skipped) and gather into one
    :func:`merge_partials` call -- the identical ranking tail a solo
    seeker runs, which is what makes coordinator results byte-identical
    to single-process execution. Lifecycle ops route to the single
    owning shard via the stable table-id map; the coordinator allocates
    global ids so sharded and solo deployments assign the same id to the
    same insertion sequence.

    Every mutation bumps :attr:`generation`; ``execute(...,
    generation=g)`` raises :class:`StaleContextError` when the view *g*
    was stamped against has since changed -- the same protocol
    single-process seeker contexts follow, carried through the
    coordinator.
    """

    def __init__(
        self,
        workers: Sequence[Any],
        *,
        routing: Optional[dict[int, int]] = None,
        next_table_id: Optional[int] = None,
    ) -> None:
        if not workers:
            raise ServingError("coordinator needs at least one shard worker")
        self.workers = list(workers)
        self._lock = threading.RLock()
        if routing is None:
            routing = {}
            for shard, worker in enumerate(self.workers):
                for table_id in worker.request("table_ids"):
                    if int(table_id) in routing:
                        raise ServingError(
                            f"table id {table_id} appears on shards "
                            f"{routing[int(table_id)]} and {shard}"
                        )
                    routing[int(table_id)] = shard
        self._routing = dict(routing)
        if next_table_id is None:
            next_table_id = max(self._routing, default=-1) + 1
        self._next_table_id = int(next_table_id)
        self._generation = 0
        self._closed = False
        # Per-shard snapshot directory (known after load()/swap_shard;
        # None for workers handed in without one) -- what compact_shard
        # reads the base+delta from.
        self._shard_paths: list[Optional[str]] = [None] * len(self.workers)

    # -- loading ---------------------------------------------------------------

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        *,
        processes: bool = False,
        backend: Optional[str] = None,
        verify: bool = True,
        workers: int = 2,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> "ShardCoordinator":
        """Spin up one worker per shard of a
        :func:`repro.snapshot.save_sharded` directory and wire the
        coordinator's routing table from its manifest. ``processes=True``
        gives each shard its own child process."""
        manifest = read_shard_manifest(path)
        if backend is not None and backend != manifest["backend"]:
            raise SnapshotError(
                f"sharded snapshot backend is {manifest['backend']!r}, "
                f"expected {backend!r}"
            )
        root = Path(path)
        shard_workers: list[Any] = []
        try:
            for name in manifest["shards"]:
                if processes:
                    shard_workers.append(
                        ProcessShardWorker(
                            root / name, verify=verify, workers=workers,
                            max_batch=max_batch,
                        )
                    )
                else:
                    shard_workers.append(
                        LocalShardWorker(
                            Blend.load(root / name, verify=verify),
                            workers=workers, max_batch=max_batch,
                        )
                    )
        except BaseException:
            for worker in shard_workers:
                worker.close()
            raise
        routing = {
            int(table_id): shard
            for table_id, shard in manifest["table_shard"].items()
        }
        coordinator = cls(
            shard_workers,
            routing=routing,
            next_table_id=manifest["next_table_id"],
        )
        coordinator._shard_paths = [str(root / name) for name in manifest["shards"]]
        return coordinator

    # -- querying --------------------------------------------------------------

    @property
    def generation(self) -> int:
        """Bumped by every lifecycle op and shard swap."""
        return self._generation

    @property
    def num_shards(self) -> int:
        return len(self.workers)

    def table_shard(self, table_id: int) -> int:
        """Which shard owns *table_id* (raises :class:`LakeError` like a
        solo lake would for an unknown id)."""
        return self._owner(table_id)

    def execute(
        self, seeker: Seeker, generation: Optional[int] = None
    ) -> ResultList:
        """Scatter *seeker* to every shard, gather, global-merge."""
        return self.execute_batch([seeker], generation=generation)[0]

    def execute_batch(
        self, seekers: Sequence[Seeker], generation: Optional[int] = None
    ) -> list[ResultList]:
        """Broadcast a batch: one ``partials`` round-trip per shard for
        the whole batch, then one merge per seeker. Shards answer
        concurrently (each behind its own scheduler / process)."""
        if self._closed:
            raise ServingError("coordinator is closed")
        if generation is not None and generation != self._generation:
            raise StaleContextError(
                f"coordinator generation is {self._generation}, "
                f"request was stamped against {generation}"
            )
        seekers = list(seekers)
        if not seekers:
            return []
        for worker in self.workers:
            worker.send("partials", seekers)
        gathered: list[list[SeekerPartials]] = [
            worker.recv() for worker in self.workers
        ]
        return [
            merge_partials([parts[i] for parts in gathered], seeker.k)
            for i, seeker in enumerate(seekers)
        ]

    # -- lifecycle: routed to the owning shard ---------------------------------

    def _owner(self, table_id: int) -> int:
        shard = self._routing.get(int(table_id))
        if shard is None:
            raise LakeError(f"unknown table id: {table_id}")
        return shard

    def add_table(self, table: Table, shard: Optional[int] = None) -> int:
        """Add *table* to one shard (least-loaded by table count unless
        pinned) under a coordinator-allocated global id -- the same id a
        solo deployment would assign for the same insertion sequence."""
        with self._lock:
            if shard is None:
                loads = [0] * len(self.workers)
                for owner in self._routing.values():
                    loads[owner] += 1
                shard = loads.index(min(loads))
            elif not 0 <= shard < len(self.workers):
                raise ServingError(f"no such shard: {shard}")
            table_id = self._next_table_id
            self.workers[shard].request("add", (table_id, table))
            self._next_table_id += 1
            self._routing[table_id] = shard
            self._generation += 1
            return table_id

    def remove_table(self, table_id: int) -> None:
        with self._lock:
            shard = self._owner(table_id)
            self.workers[shard].request("remove", int(table_id))
            del self._routing[int(table_id)]
            self._generation += 1

    def replace_table(self, table_id: int, table: Table) -> None:
        with self._lock:
            shard = self._owner(table_id)
            self.workers[shard].request("replace", (int(table_id), table))
            self._generation += 1

    def swap_shard(self, shard: int, snapshot_path: Union[str, Path]) -> list[int]:
        """Hot-swap one shard to a new snapshot (zero downtime: the
        worker's :class:`DeploymentManager` drains in-flight queries on
        the old generation while new ones hit the replacement). Returns
        the shard's table ids after the swap; routing follows."""
        with self._lock:
            if not 0 <= shard < len(self.workers):
                raise ServingError(f"no such shard: {shard}")
            new_ids = [
                int(table_id)
                for table_id in self.workers[shard].request(
                    "swap", str(snapshot_path)
                )
            ]
            for table_id in new_ids:
                owner = self._routing.get(table_id)
                if owner is not None and owner != shard:
                    raise ServingError(
                        f"swap would place table id {table_id} on shard "
                        f"{shard}, but shard {owner} already owns it"
                    )
            self._routing = {
                table_id: owner
                for table_id, owner in self._routing.items()
                if owner != shard
            }
            for table_id in new_ids:
                self._routing[table_id] = shard
            self._next_table_id = max(
                self._next_table_id, max(new_ids, default=-1) + 1
            )
            self._shard_paths[shard] = str(snapshot_path)
            self._generation += 1
            return new_ids

    def shard_delta_stats(self, shard: int) -> dict[str, Any]:
        """One shard's base-vs-delta storage occupancy (see
        :meth:`repro.Blend.delta_stats`) -- the per-shard compaction
        trigger input."""
        if not 0 <= shard < len(self.workers):
            raise ServingError(f"no such shard: {shard}")
        return self.workers[shard].request("delta_stats")

    def compact_shard(
        self, shard: int, destination: Union[str, Path], verify: bool = True
    ) -> list[int]:
        """Fold one shard's delta layer into a clean snapshot generation
        at *destination* and hot-swap the shard onto it.

        Three steps under the routing lock (mutations wait; queries keep
        flowing -- the scatter path never takes this lock): the worker
        persists its live delta into its base directory (O(delta)),
        the coordinator rebuilds a compacted generation beside it
        (:func:`~repro.serving.compaction.compact_snapshot`), and the
        shard flips through its own :class:`DeploymentManager` with the
        usual drain. Each shard compacts independently -- the fleet
        never pauses in lockstep. Returns the shard's table ids after
        the swap."""
        from .compaction import compact_snapshot

        with self._lock:
            if not 0 <= shard < len(self.workers):
                raise ServingError(f"no such shard: {shard}")
            source = self._shard_paths[shard]
            source = self.workers[shard].request("save_delta", source)
            compact_snapshot(source, destination, verify=verify)
            return self.swap_shard(shard, destination)

    # -- observability / teardown ----------------------------------------------

    def table_ids(self) -> list[int]:
        """All live table ids across shards, ascending."""
        return sorted(self._routing)

    def stats(self) -> dict[str, Any]:
        """Per-shard scheduler stats plus coordinator counters."""
        return {
            "generation": self._generation,
            "num_shards": len(self.workers),
            "num_tables": len(self._routing),
            "shards": [worker.request("stats") for worker in self.workers],
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            worker.close()

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
