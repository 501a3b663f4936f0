"""The open-loop workloads: ``serve_steady`` and ``serve_churn``.

Both serve a ``Blend.load``-ed mmap snapshot through
``DeploymentManager`` + ``BatchScheduler(workers=2)`` and receive a
Poisson request stream (50 % SC / 35 % KW / 15 % MC, a fifth of it from a
50-query hot set) from one generator thread. ``serve_steady`` is
read-only; ``serve_churn`` adds one mutator thread that streams tables in
and out, persists deltas and compacts + hot-swaps beside the reads.

The rates are fixed constants, calibrated once on the seed commit on the
2-core reference box (README, "Calibration"): the reference rate is rung
2 of ``RATE_LADDER``; the seed commit passes it and fails rung 4. It sits
at a fifth of the knee on purpose: nearer to saturation, queueing turns
the box's 20 % speed drift into 40 % latency drift.
"""

from __future__ import annotations

import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.core.system import Blend
from repro.lake.datalake import DataLake
from repro.serving.compaction import SnapshotCompactor
from repro.serving.deployment import DeploymentManager
from repro.serving.scheduler import BatchScheduler
from repro.serving.server import build_seeker

from . import lakegen
from .lakegen import Inputs
from .loadgen import (
    REQUEST_TIMEOUT,
    LoadResult,
    RecordingStats,
    collect_outcomes,
    inflight_at,
    join_completions,
    poisson_schedule,
    run_open_loop,
)
from .measure import median, percentile
from .oracle import answers_digest, hit_pairs
from .workloads import (
    UNTRACED_SHARE,
    LifecycleDriver,
    RunConfig,
    RunResult,
    peak_rss_mb,
    repeat_setup,
    pooled_numbers,
)

RATE_LADDER = (75.0, 150.0, 450.0, 900.0)  # requests per second
REFERENCE_RATE = RATE_LADDER[1]
LATENCY_LIMIT = 0.100  # seconds, on p95 timed from the due instant
WARMUP_SECONDS = 0.5  # discarded burst at the reference rate before timing
WORKERS = 2

CHURN_PERIOD = 0.100  # seconds between lifecycle ops
# Seconds between publishes (save_delta + hot-swap, then compaction + swap):
# four full cycles inside the 10 s the manifest runs, none near either end.
CHURN_PUBLISH_PERIOD = 2.2
PROBE_SHARE = 0.10  # of reads are read-your-writes probes
SWAP_WINDOW = 0.050  # seconds either side of a flip
STALL_DRAIN = 0.25  # seconds after a publish + compaction that its backlog may take to drain


@dataclass
class Served:
    """A deployment taking traffic."""

    directory: Path
    manager: DeploymentManager
    scheduler: BatchScheduler
    stats: RecordingStats

    def close(self) -> None:
        self.scheduler.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def start_serving(config: RunConfig, lake: DataLake) -> Served:
    """Set-up of the serve workloads: build -> save -> load (mmap) ->
    warm -> scheduler start."""
    directory = config.tmp_dir("serve")
    built = Blend(lake, backend="column")
    built.build_index()
    built.save(directory / "base")
    manager = DeploymentManager(Blend.load(directory / "base"))  # warms
    stats = RecordingStats()
    scheduler = BatchScheduler(manager, stats=stats, workers=WORKERS)
    return Served(directory, manager, scheduler, stats)


class Stream:
    """The request stream of one run, consumed slice by slice."""

    def __init__(self, inputs: Inputs, rng: random.Random, count: int) -> None:
        self._payloads = lakegen.serve_payloads(inputs, rng, count)
        self._cursor = 0

    def take(self, count: int) -> list[dict]:
        taken = [
            self._payloads[(self._cursor + i) % len(self._payloads)] for i in range(count)
        ]
        self._cursor += count
        return taken


@dataclass
class Slice:
    """One stretch of open-loop load and what came back."""

    rate: float
    load: LoadResult
    # (due - start, latency from due) of every answered request
    timed: list[tuple[float, float]] = field(default_factory=list)
    wall: float = 0.0
    failed: int = 0

    @property
    def latencies(self) -> list[float]:
        return [latency for _, latency in self.timed]

    def verdict(self) -> dict[str, Any]:
        """Does this rate hold? p95-from-due within the limit, at most
        1 % failed, and no growing backlog (in flight at the end at most
        twice the mid-slice count, with a floor for near-empty queues)."""
        ordered = sorted(self.latencies)
        p95 = percentile(ordered, 0.95) if ordered else float("inf")
        sent = len(self.load.sent)
        middle = inflight_at(self.load, (self.load.started + self.load.finished) / 2)
        at_end = inflight_at(self.load, self.load.finished)
        ok = (
            p95 <= LATENCY_LIMIT
            and self.failed <= 0.01 * sent
            and at_end <= max(2 * middle, 8)
        )
        return {"rate": self.rate, "ok": ok, "p95_ms": p95 * 1e3, "sent": sent}


def drive_slice(
    served: Served,
    stream: Stream,
    rate: float,
    seconds: float,
    rng: random.Random,
    payload_at=None,
) -> Slice:
    """Apply Poisson load at *rate* for *seconds*, wait for the tail, and
    join completions to requests. Each request is tagged with the payload
    it was built from, for the answer check."""
    schedule = poisson_schedule(rng, rate, seconds)
    payloads = stream.take(len(schedule))
    first = len(served.stats.completions)
    load = run_open_loop(
        served.scheduler,
        payloads,
        schedule,
        tags=[("static", payload) for payload in payloads],
        payload_at=payload_at,
    )
    collect_outcomes(load)
    join_completions(load, served.stats.completions[first:])
    out = Slice(rate, load)
    last = load.finished
    for sent in load.sent:
        if sent.error is not None:
            out.failed += 1
            continue
        if sent.done is None:
            continue  # answered, but its completion record could not be joined
        last = max(last, sent.done)
        latency = sent.done - sent.due
        if latency > REQUEST_TIMEOUT:
            out.failed += 1
        else:
            out.timed.append((sent.due - load.started, latency))
    out.wall = last - load.started
    return out


def second_edges(seconds: float) -> list[float]:
    """Edges of one-second slices over a phase of *seconds*."""
    count = max(1, round(seconds))
    return [i * seconds / count for i in range(count + 1)]


def check_answers(
    result: RunResult,
    slices: list[Slice],
    blend: Blend,
    retired: Optional[dict[tuple[int, int], float]] = None,
) -> str:
    """Every static answer must equal direct ``seeker.execute`` on the
    deployment (one direct execution per distinct query); every probe
    must contain the table it was sent to find, unless a publish that
    dropped that table (*retired*: entry -> instant) began before the
    probe was answered. Returns the digest of the distinct expected
    answers."""
    retired = retired or {}
    context = blend.context()
    expected: dict[Any, list] = {}
    for piece in slices:
        for sent in piece.load.sent:
            if sent.error is not None:
                # already counted by drive_slice; keep the reason
                result.fail(0, f"request #{sent.index}: {type(sent.error).__name__}: {sent.error}")
                continue
            kind, detail = sent.tag
            if kind == "probe":
                gone_at = retired.get(detail)
                still_published = gone_at is None or (
                    sent.done is not None and sent.done < gone_at
                )
                if still_published and detail[0] not in {hit.table_id for hit in sent.result}:
                    result.fail(1, f"probe #{sent.index} missed acknowledged table {detail[0]}")
                continue
            seeker, key = build_seeker(detail)
            if key not in expected:
                expected[key] = hit_pairs(seeker.execute(context))
            if hit_pairs(sent.result) != expected[key]:
                result.fail(
                    1, f"request #{sent.index} ({detail['modality']}) differs from direct execution"
                )
    return answers_digest(expected.values())


def account(result: RunResult, slices: list[Slice], traced: list[Slice]) -> None:
    """Fold the slices' counts and latencies into *result*."""
    for piece in slices:
        result.op_latencies += piece.latencies
        result.timed_wall += piece.wall
    for piece in traced:
        result.traced_latencies += piece.latencies
        result.traced_wall += piece.wall
    every = slices + traced
    result.attempted = sum(len(piece.load.sent) for piece in every)
    result.failed += sum(piece.failed for piece in every)
    answered = sum(len(piece.latencies) for piece in slices)
    if result.timed_wall:
        result.ops_per_s = answered / result.timed_wall
    lateness = sorted(sent.late for piece in every for sent in piece.load.sent)
    result.extras["loadgen.sent"] = (float(result.attempted), "count")
    result.extras["loadgen.late_p95_ms"] = (percentile(lateness, 0.95) * 1e3, "ms")
    result.extras["loadgen.unjoined"] = (
        float(sum(piece.load.unjoined for piece in every)),
        "count",
    )


def scheduler_rows(stats: RecordingStats) -> dict[str, tuple[float, str]]:
    """What the scheduler counted about itself over the run."""
    snapshot = stats.snapshot()
    histogram = {int(size): count for size, count in snapshot["batch_size_histogram"].items()}
    batches = sum(histogram.values())
    requests = sum(size * count for size, count in histogram.items())
    return {
        "serving.scheduler.batch_size_mean": (requests / batches if batches else 0.0, "count"),
        "serving.scheduler.coalesced_frac": (
            snapshot["coalesced"] / requests if requests else 0.0,
            "ratio",
        ),
        "serving.scheduler.timeouts": (float(snapshot["timeouts"]), "count"),
        "serving.scheduler.stale_retries": (float(snapshot["stale_retries"]), "count"),
        "serving.scheduler.errors": (float(snapshot["errors"]), "count"),
    }


# -- serve_steady --------------------------------------------------------------------


def run_serve_steady(config: RunConfig, inputs: Inputs) -> RunResult:
    """Read-only serving at the reference rate. A traced run instead
    walks the whole rate ladder (after an untraced reference slice) and
    reports the highest rung that holds as ``max_ok_rate``."""
    result = RunResult(lake_cells=inputs.cells)
    served, result.setup_seconds = repeat_setup(
        config, inputs.lake, lambda lake: start_serving(config, lake), Served.close
    )
    rng = random.Random(config.seed + 401)
    tracing = config.tracing
    try:
        stream = Stream(inputs, rng, int(max(RATE_LADDER) * config.seconds) + 64)
        drive_slice(served, stream, REFERENCE_RATE, WARMUP_SECONDS, rng)
        untraced_seconds = config.seconds * (UNTRACED_SHARE if tracing else 1.0)
        main = drive_slice(served, stream, REFERENCE_RATE, untraced_seconds, rng)
        pooled_numbers(result, main.timed, second_edges(untraced_seconds))
        slices = [main]
        traced: list[Slice] = []
        if tracing:
            rung_seconds = (config.seconds - untraced_seconds) / len(RATE_LADDER)
            with tracing.active():
                for rate in RATE_LADDER:
                    traced.append(drive_slice(served, stream, rate, rung_seconds, rng))
            rungs = [piece.verdict() for piece in traced]
            holding = [rung["rate"] for rung in rungs if rung["ok"]]
            result.extras["max_ok_rate"] = (max(holding, default=0.0), "req/s")
            for position, rung in enumerate(rungs, start=1):
                result.extras[f"ladder.rung{position}.p95_ms"] = (rung["p95_ms"], "ms")
                result.extras[f"ladder.rung{position}.ok"] = (float(rung["ok"]), "bool")
        result.peak_rss_mb = peak_rss_mb()
        account(result, slices, traced)
        if tracing:
            # Only the reference rung is comparable with the untraced slice.
            result.traced_latencies = traced[RATE_LADDER.index(REFERENCE_RATE)].latencies
        result.extras.update(scheduler_rows(served.stats))
        result.digest = check_answers(result, slices + traced, served.manager.current().blend)
    finally:
        served.close()
    return result


# -- serve_churn ---------------------------------------------------------------------


class Mutator(threading.Thread):
    """The write side of ``serve_churn``, on one thread.

    Mutating a *served* ``Blend`` in place races with the scheduler's
    readers on the seed commit (an ``IndexError`` out of the column store
    and missed rows were both observed at scale 1.0), so writes follow
    the race-free protocol the serving tier documents: a private writer
    deployment on the same snapshot directory takes one lifecycle op
    every *period* seconds; every *publish_period* seconds it persists
    with ``save_delta`` and a fresh ``Blend.load`` of the directory is
    hot-swapped in (the tables become searchable -- and are acknowledged
    -- here); the compactor then folds the delta into a new generation
    and swaps again, and the writer re-bases onto that generation.
    Everything runs from this one loop, as the compactor's contract asks
    of a solo deployment.

    A publish + compaction is ~0.75 s of work on this lake, much of it
    under the interpreter lock, and what it does to the reads that arrive
    meanwhile is chaotic: in one run the four cycles' p90 ran from 28 to
    121 ms. Those reads are answered, checked and counted, but their
    latency is reported apart (``publish_window_p90_ms``, per-layer) and
    the gated latency metrics of ``serve_churn`` are taken over the reads
    due *outside* the publish windows (``stalled``): a deployment that is
    being written to, between its stalls.

    Publishes and compactions follow the clock, not a delta-fraction
    threshold: how many writes fit between two stalls depends on the
    machine, and a threshold would turn that into a different number of
    compaction cycles -- and so a different latency distribution -- from
    run to run."""

    def __init__(
        self,
        served: Served,
        seed: int,
        period: float = CHURN_PERIOD,
        publish_period: float = CHURN_PUBLISH_PERIOD,
        recorder=None,
    ) -> None:
        super().__init__(name="bench-mutator", daemon=True)
        self.served = served
        self.period = period
        self.publish_period = publish_period
        self.base = served.directory / "base"
        self.writer = Blend.load(self.base)
        # The threshold is never consulted: cycles are forced on schedule.
        self.compactor = SnapshotCompactor(
            served.manager, served.directory / "gens", threshold=1.0
        )
        # static_share=0: static tables never change, so static reads keep
        # a static oracle.
        self.driver = LifecycleDriver(
            self.writer.lake.table_ids(), random.Random(seed), static_share=0.0
        )
        self.recorder = recorder
        self.stop_event = threading.Event()
        self.write_latencies: list[float] = []
        self.publish_seconds: list[float] = []
        self.unpublished: list[tuple[int, int]] = []
        self.acknowledged: list[tuple[int, int]] = []  # (table id, churn index), newest last
        self.published: set[tuple[int, int]] = set()  # entries the served state holds
        self.retired: dict[tuple[int, int], float] = {}  # entry -> start of the publish dropping it
        self.flips: list[float] = []  # instants a swap completed
        self.windows: list[tuple[float, float]] = []  # publish + compaction, start to end
        self.delta_fraction_peak = 0.0
        self.error: Optional[BaseException] = None

    def stalled(self, instant: float) -> bool:
        """Was a publish + compaction under way at *instant*, or within
        ``STALL_DRAIN`` seconds before it?"""
        return any(start <= instant <= end + STALL_DRAIN for start, end in self.windows)

    def run(self) -> None:
        try:
            self._loop()
        except Exception as exc:  # noqa: BLE001 -- reported by the workload, never lost
            self.error = exc

    def _loop(self) -> None:
        clock = time.monotonic
        next_write = clock() + self.period
        next_publish = clock() + self.publish_period
        while not self.stop_event.wait(max(0.0, next_write - clock())):
            before = clock()
            if self.recorder is not None:
                with self.recorder.span("bench.write"):
                    kind, table_id, index = self.driver.apply(self.writer)
            else:
                kind, table_id, index = self.driver.apply(self.writer)
            self.write_latencies.append(clock() - before)
            if kind != "remove":
                self.unpublished.append((table_id, index))
            if clock() >= next_publish:
                self._publish()
                next_publish += self.publish_period
            # write slots that passed during a publish are skipped, not made up
            next_write = max(next_write + self.period, clock())

    def _publish(self) -> None:
        clock = time.monotonic
        started = clock()
        live = set(self.driver.live)
        for entry in self.published - live:
            self.retired[entry] = started
        self.published = live
        self.writer.save_delta()
        fresh = Blend.load(self.base)
        self.served.manager.swap(fresh)
        self.flips.append(clock())
        self.publish_seconds.append(clock() - started)
        self.acknowledged.extend(entry for entry in self.unpublished if entry in live)
        self.unpublished.clear()
        self.delta_fraction_peak = max(
            self.delta_fraction_peak, fresh.delta_stats()["delta_fraction"]
        )
        report = self.compactor.compact_once(force=True)
        if report is not None:
            self.flips.append(clock())
            self.base = Path(report.destination)
            self.writer = Blend.load(self.base)
        self.windows.append((started, clock()))

    def stop(self) -> None:
        self.stop_event.set()
        self.join()

    def probe_at(self, rng: random.Random):
        """A ``payload_at`` hook: with probability ``PROBE_SHARE`` swap a
        read for a keyword probe of the newest acknowledged table."""

        def payload_at(index: int, now: float):
            if rng.random() >= PROBE_SHARE or not self.acknowledged:
                return None
            entry = self.acknowledged[-1]
            probe = {"modality": "kw", "values": lakegen.churn_probe(entry[1]), "k": 10}
            return probe, ("probe", entry)

        return payload_at

    def rows(self, slices: list[Slice]) -> dict[str, tuple[float, str]]:
        """The write-side numbers of a churn phase."""
        out = {
            "write_p50_ms": (median(self.write_latencies) * 1e3, "ms"),
            "writes": (float(len(self.write_latencies)), "count"),
            "publish_s_p50": (
                median(self.publish_seconds) if self.publish_seconds else 0.0,
                "s",
            ),
            "serving.compaction.cycles": (float(len(self.compactor.reports)), "count"),
            "compaction_s_p50": (
                median([r.seconds for r in self.compactor.reports])
                if self.compactor.reports
                else 0.0,
                "s",
            ),
            "serving.compaction.delta_fraction_peak": (self.delta_fraction_peak, "ratio"),
        }
        answered = [
            sent for piece in slices for sent in piece.load.sent if sent.done is not None
        ]
        window = sorted(
            sent.done - sent.due
            for sent in answered
            if any(abs(sent.before - flip) <= SWAP_WINDOW for flip in self.flips)
        )
        if window:
            out["serving.deployment.swap_window_p95_ms"] = (
                percentile(window, 0.95) * 1e3,
                "ms",
            )
        stalled = sorted(sent.done - sent.due for sent in answered if self.stalled(sent.due))
        if stalled:
            out["publish_window_p90_ms"] = (percentile(stalled, 0.90) * 1e3, "ms")
            out["publish_window_share"] = (len(stalled) / len(answered), "ratio")
        return out


def run_serve_churn(config: RunConfig, inputs: Inputs) -> RunResult:
    """Writes beside reads: the ``serve_steady`` mix at the reference
    rate while tables stream in and out, deltas persist, and the
    compactor folds + hot-swaps. One read in ten is a freshness probe
    that must see the newest table whose publish had returned when the
    probe was submitted (unless a later publish, begun before the probe
    was answered, dropped that table again)."""
    result = RunResult(lake_cells=inputs.cells)
    served, result.setup_seconds = repeat_setup(
        config, inputs.lake, lambda lake: start_serving(config, lake), Served.close
    )
    rng = random.Random(config.seed + 503)
    tracing = config.tracing
    try:
        stream = Stream(inputs, rng, int(REFERENCE_RATE * config.seconds * 1.5) + 64)
        drive_slice(served, stream, REFERENCE_RATE, WARMUP_SECONDS, rng)
        mutator = Mutator(
            served, config.seed + 521, recorder=tracing.recorder if tracing else None
        )
        payload_at = mutator.probe_at(random.Random(config.seed + 509))
        slices: list[Slice] = []
        traced: list[Slice] = []
        untraced_seconds = config.seconds * (UNTRACED_SHARE if tracing else 1.0)
        mutator.start()
        try:
            main = drive_slice(
                served, stream, REFERENCE_RATE, untraced_seconds, rng, payload_at
            )
            slices.append(main)
            if tracing:
                with tracing.active():
                    traced.append(
                        drive_slice(
                            served,
                            stream,
                            REFERENCE_RATE,
                            config.seconds - untraced_seconds,
                            rng,
                            payload_at,
                        )
                    )
        finally:
            mutator.stop()
        # Reads due while a publish + compaction was under way (or
        # draining) are reported apart -- see Mutator.stalled.
        quiet = [
            (offset, latency)
            for offset, latency in main.timed
            if not mutator.stalled(main.load.started + offset)
        ]
        pooled_numbers(result, quiet, second_edges(untraced_seconds))
        result.peak_rss_mb = peak_rss_mb()
        account(result, slices, traced)
        if mutator.error is not None:
            result.fail(result.attempted, f"mutator died: {mutator.error!r}")
        result.extras.update(scheduler_rows(served.stats))
        result.extras.update(mutator.rows(slices + traced))
        result.digest = check_answers(
            result, slices + traced, served.manager.current().blend, mutator.retired
        )
        result.failed = min(result.failed, result.attempted)
    finally:
        served.close()
    return result
