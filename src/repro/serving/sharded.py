"""Scatter-gather sharded serving: many shards, one ranking.

A lake too large for one box is split with
:meth:`~repro.lake.datalake.DataLake.shard_plan` and saved as K
independent shard snapshots (:func:`repro.snapshot.save_sharded`). Each
shard keeps its tables at their *global* id slots, so the partials it
emits need no translation, and the coordinator's
:func:`~repro.core.results.merge_partials` over K gathered partials is
*the same function* a solo seeker runs over one -- scatter-gather results
are byte-identical to single-process execution by construction, for
every seeker modality.

* :class:`ShardWorker` -- one shard: a :class:`~repro.core.system.Blend`
  behind one op loop (:func:`_serve`), on a daemon thread or in a child
  process. Both transports pickle every op and reply over the same
  ``multiprocessing`` Pipe, so the in-thread one exercises the exact
  wire format a child process (or, later, a socket) carries.
* :class:`ShardCoordinator` -- scatters each seeker batch to every shard,
  gathers, merges; routes lifecycle ops to the owning shard by stable
  table id and stamps every mutation with a new generation so stale
  readers fail fast (:class:`~repro.errors.StaleContextError`).

Failure semantics: a shard answers one op at a time, so a query sees the
whole pre- or post-state of a mutation, and a shard swap blocks only that
shard, for the length of its snapshot load. Concurrent callers serialise
per coordinator: each wire round trip (a scatter plus its gather, or one
lifecycle request) holds the wire lock and reads every reply it sent for
before raising, so no caller ever reads another's reply. A shard whose
thread or process is gone raises
:class:`~repro.errors.ShardUnavailableError` naming it -- a shard is
never silently dropped from a merge.
"""

from __future__ import annotations

import multiprocessing
import threading
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from ..core.results import ResultList, SeekerPartials, merge_partials
from ..core.seekers import Seeker
from ..core.system import Blend
from ..errors import (
    LakeError, ServingError, ShardUnavailableError, SnapshotError, StaleContextError,
)
from ..lake.table import Table
from ..snapshot import read_shard_manifest

__all__ = ["ShardCoordinator", "ShardWorker"]


def _mp_context():
    """Fork when available (cheap; the child runs only :func:`_serve`,
    never a parent thread, so no lock a parent thread held is touched),
    else the platform default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _load(path: str) -> Blend:
    blend = Blend.load(path)
    blend.warm()  # before the first op: no reader races first-touch state
    return blend


def _apply(blend: Blend, op: str, payload: Any) -> Any:
    if op == "partials":
        return blend.execute_batch_partials(payload)
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
    if op == "table_ids":
        return blend.lake.table_ids()
    if op == "save_delta":  # the snapshot path written: what compact_shard folds
        return str(blend.save_delta(payload))
    if op == "delta_stats":
        return blend.delta_stats()
    raise ServingError(f"unknown shard worker op: {op!r}")


def _reply(conn, status: str, value: Any) -> None:
    try:
        conn.send((status, value))
    except OSError:
        raise
    except Exception as exc:  # the reply does not pickle: send what it was
        detail = f"{type(value).__name__}: {value}"[:200]
        conn.send(("err", ServingError(f"shard reply does not pickle ({exc}): {detail}")))


def _serve(conn, snapshot_path: str) -> None:
    """The shard: load and warm *snapshot_path*, then answer ops off
    *conn* in arrival order until ``close`` or the client hangs up. A
    ``swap`` op loads and warms the new snapshot, then rebinds the
    shard's blend. Every reply is ``("ok", value)`` or
    ``("err", exception)`` so the client re-raises faithfully."""
    with conn:
        try:
            try:
                blend = _load(snapshot_path)
            except Exception as exc:
                _reply(conn, "err", exc)
                return
            _reply(conn, "ok", "ready")
            while (request := conn.recv())[0] != "close":
                op, payload = request
                try:
                    if op == "swap":
                        blend = _load(payload)
                        value = blend.lake.table_ids()
                    else:
                        value = _apply(blend, op, payload)
                except Exception as exc:
                    _reply(conn, "err", exc)
                else:
                    _reply(conn, "ok", value)
            _reply(conn, "ok", None)
        except (EOFError, OSError):  # the client hung up
            pass


class ShardWorker:
    """Client end of one shard's op loop.

    ``process=False`` runs :func:`_serve` on a daemon thread,
    ``process=True`` in a child process; the shard loads its own snapshot
    (snapshots are the handoff format -- nothing heavyweight crosses the
    pipe). ``send`` / ``recv`` are split so a coordinator's broadcast
    overlaps across shards; ``recv`` re-raises the error an op raised,
    and a broken transport raises :class:`ShardUnavailableError`.
    """

    def __init__(self, snapshot_path: Union[str, Path], *, process: bool = False) -> None:
        ctx = _mp_context()
        self._conn, child_conn = ctx.Pipe()
        args = (child_conn, str(snapshot_path))
        if process:
            self._runner = ctx.Process(target=_serve, args=args, daemon=True)
        else:
            self._runner = threading.Thread(target=_serve, args=args, daemon=True)
        self._runner.start()
        if process:
            child_conn.close()  # the child holds its own copy
        try:
            self.recv()  # startup handshake: "ready", or the load error
        except BaseException:
            self.close()
            raise

    def send(self, op: str, payload: Any = None) -> None:
        try:
            self._conn.send((op, payload))
        except OSError as exc:
            raise ShardUnavailableError(f"shard worker is gone ({exc!r})") from exc

    def recv(self) -> Any:
        try:
            status, value = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardUnavailableError(f"shard worker died mid-request ({exc!r})") from exc
        if status == "err":
            raise value
        return value

    def request(self, op: str, payload: Any = None) -> Any:
        self.send(op, payload)
        return self.recv()

    def close(self) -> None:
        if self._conn.closed:
            return
        try:
            self._conn.send(("close", None))
            self._conn.recv()
        except (EOFError, OSError):  # the loop is already gone
            pass
        self._conn.close()
        self._runner.join(timeout=10)
        if self._runner.is_alive() and not isinstance(self._runner, threading.Thread):
            self._runner.terminate()
            self._runner.join()


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
        self._lock = threading.RLock()  # routing: one lifecycle op at a time
        self._wire = threading.Lock()  # one round trip on the wire at a time
        self._closed = False
        if routing is None:
            routing = {}
            shards = range(len(self.workers))
            for shard, table_ids in enumerate(self._round_trip(shards, "table_ids")):
                for table_id in table_ids:
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
    ) -> "ShardCoordinator":
        """Spin up one :class:`ShardWorker` per shard of a
        :func:`repro.snapshot.save_sharded` directory and wire the
        coordinator's routing table from its manifest. ``processes=True``
        gives each shard its own child process, else its own thread."""
        manifest = read_shard_manifest(path)
        if backend is not None and backend != manifest["backend"]:
            raise SnapshotError(
                f"sharded snapshot backend is {manifest['backend']!r}, "
                f"expected {backend!r}"
            )
        root = Path(path)
        shard_workers: list[ShardWorker] = []
        try:
            for name in manifest["shards"]:
                shard_workers.append(ShardWorker(root / name, process=processes))
        except BaseException:
            for worker in shard_workers:
                worker.close()
            raise
        routing = {int(table_id): shard for table_id, shard in manifest["table_shard"].items()}
        coordinator = cls(shard_workers, routing=routing, next_table_id=manifest["next_table_id"])
        coordinator._shard_paths = [str(root / name) for name in manifest["shards"]]
        return coordinator

    # -- the wire --------------------------------------------------------------

    def _round_trip(self, shards: Sequence[int], op: str, payload: Any = None) -> list[Any]:
        """Send *op* to each of *shards*, then read the reply of every
        shard it reached before raising the first failure -- so no reply
        is left queued for the next request. Holds the wire lock
        throughout: concurrent callers take turns."""
        with self._wire:
            if self._closed:
                raise ServingError("coordinator is closed")
            failure: Optional[BaseException] = None
            reached: list[int] = []
            for shard in shards:
                try:
                    self.workers[shard].send(op, payload)
                except Exception as exc:
                    failure = self._name_shard(shard, exc)
                    break
                reached.append(shard)
            replies = []
            for shard in reached:
                try:
                    replies.append(self.workers[shard].recv())
                except Exception as exc:
                    failure = failure or self._name_shard(shard, exc)
            if failure is not None:
                try:
                    raise failure
                finally:
                    failure = None  # no frame <-> traceback cycle for the GC to tear down
            return replies

    @staticmethod
    def _name_shard(shard: int, exc: Exception) -> Exception:
        if isinstance(exc, ShardUnavailableError):
            error = ShardUnavailableError(f"shard {shard}: {exc}")
            error.__cause__ = exc
            return error
        return exc

    def _request(self, shard: int, op: str, payload: Any = None) -> Any:
        if not 0 <= shard < len(self.workers):
            raise ServingError(f"no such shard: {shard}")
        return self._round_trip([shard], op, payload)[0]

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
        """Broadcast a batch: one ``partials`` round trip per shard for
        the whole batch (one ``execute_batch_partials`` call there), then
        one merge per seeker. Shards compute concurrently."""
        if generation is not None and generation != self._generation:
            raise StaleContextError(
                f"coordinator generation is {self._generation}, "
                f"request was stamped against {generation}"
            )
        seekers = list(seekers)
        if not seekers:
            return []
        gathered: list[list[SeekerPartials]] = self._round_trip(
            range(len(self.workers)), "partials", seekers
        )
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
            table_id = self._next_table_id
            self._request(shard, "add", (table_id, table))
            self._next_table_id += 1
            self._routing[table_id] = shard
            self._generation += 1
            return table_id

    def remove_table(self, table_id: int) -> None:
        with self._lock:
            shard = self._owner(table_id)
            self._request(shard, "remove", int(table_id))
            del self._routing[int(table_id)]
            self._generation += 1

    def replace_table(self, table_id: int, table: Table) -> None:
        with self._lock:
            shard = self._owner(table_id)
            self._request(shard, "replace", (int(table_id), table))
            self._generation += 1

    def swap_shard(self, shard: int, snapshot_path: Union[str, Path]) -> list[int]:
        """Hot-swap one shard to a new snapshot: the shard loads and warms
        it, then rebinds, while the other shards keep answering (queries
        wait only for this shard's load). Returns the shard's table ids
        after the swap; routing follows."""
        with self._lock:
            new_ids = [int(tid) for tid in self._request(shard, "swap", str(snapshot_path))]
            for table_id in new_ids:
                owner = self._routing.get(table_id)
                if owner is not None and owner != shard:
                    raise ServingError(
                        f"swap would place table id {table_id} on shard "
                        f"{shard}, but shard {owner} already owns it"
                    )
            self._routing = {t: o for t, o in self._routing.items() if o != shard}
            for table_id in new_ids:
                self._routing[table_id] = shard
            self._next_table_id = max(self._next_table_id, max(new_ids, default=-1) + 1)
            self._shard_paths[shard] = str(snapshot_path)
            self._generation += 1
            return new_ids

    def shard_delta_stats(self, shard: int) -> dict[str, Any]:
        """One shard's base-vs-delta storage occupancy (see
        :meth:`repro.Blend.delta_stats`) -- the per-shard compaction
        trigger input."""
        return self._request(shard, "delta_stats")

    def compact_shard(self, shard: int, destination: Union[str, Path]) -> list[int]:
        """Fold one shard's delta layer into a clean snapshot generation
        at *destination* and hot-swap the shard onto it.

        Three steps under the routing lock (mutations wait; queries keep
        flowing -- the scatter path never takes this lock): the worker
        persists its live delta into its base directory (O(delta)),
        the coordinator rebuilds a compacted generation beside it
        (:func:`~repro.serving.compaction.compact_snapshot`), and the
        shard swaps onto it. Each shard compacts independently -- the
        fleet never pauses in lockstep. Returns the shard's table ids
        after the swap."""
        from .compaction import compact_snapshot

        with self._lock:
            if not 0 <= shard < len(self.workers):
                raise ServingError(f"no such shard: {shard}")
            source = self._request(shard, "save_delta", self._shard_paths[shard])
            compact_snapshot(source, destination)
            return self.swap_shard(shard, destination)

    # -- observability / teardown ----------------------------------------------

    def table_ids(self) -> list[int]:
        """All live table ids across shards, ascending."""
        return sorted(self._routing)

    def stats(self) -> dict[str, Any]:
        """Coordinator counters (per-shard storage occupancy is
        :meth:`shard_delta_stats`)."""
        return {
            "generation": self._generation,
            "num_shards": len(self.workers),
            "num_tables": len(self._routing),
        }

    def close(self) -> None:
        """Stop every shard; waits for an in-flight round trip first."""
        with self._wire:
            if self._closed:
                return
            self._closed = True
            for worker in self.workers:
                worker.close()

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
