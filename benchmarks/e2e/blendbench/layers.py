"""Per-layer rows of a traced run.

:class:`Tracing` installs the outside-in probes (one span name per public
function of a layer) for the traced part of a workload. After the
workload, :func:`run_battery` drives a short, fixed battery over a small
lake of its own that touches *every* layer once -- build, semantic
vectors, each seeker, batching, plans, snapshots, the scheduler, the HTTP
front door, lifecycle ops, compaction and hot-swap -- so that every row
has samples on every workload. :func:`layer_rows` then reduces the pooled
spans (workload + battery) to the named rows: where the workload
exercises a layer its spans dominate the pool; where it bypasses one, the
row is the battery's and should not move.

Rows are ``<layer>.<part>.<metric>``; a row whose probe target no longer
exists is reported ``unavailable`` and left out of the result.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from repro.core.system import Blend
from repro.serving.deployment import DeploymentManager
from repro.serving.scheduler import BatchScheduler
from repro.serving.server import BlendServer, build_seeker

from . import lakegen
from .lakegen import K
from .loadgen import RecordingStats
from .measure import median, percentile, supported_percentile
from .spans import Recorder, Span, self_times

BATTERY_SCALE = 0.15
BATTERY_QUERIES = 12  # direct queries per modality
BATTERY_CHURN_SECONDS = 1.2
BATTERY_CHURN_PERIOD = 0.03
BATTERY_PUBLISH_PERIOD = 0.45


def _lake_cells(blend: Blend) -> int:
    return sum(table.num_rows * table.num_columns for table in blend.lake)


def _directory_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def _combiner_seconds(args: tuple, kwargs: dict, result: Any) -> float:
    plan = args[1] if len(args) > 1 else kwargs["plan"]
    return sum(
        run.seconds for name, run in result.node_runs.items() if plan.node(name).is_combiner
    )


# (kind, module, [class,] attribute, span name, count_of)
_PROBES: list[tuple] = [
    ("fn", "repro.lake.table", "normalize_tokens", "lake.normalize",
     lambda a, k, r: len(a[0])),
    ("fn", "repro.index.xash", "xash_batch", "index.xash", lambda a, k, r: len(a[0])),
    ("fn", "repro.index.alltables", "build_alltables", "index.build",
     lambda a, k, r: r.num_index_rows),
    ("method", "repro.index.stats", "LakeStatistics", "from_lake", "index.stats", None),
    ("method", "repro.core.system", "Blend", "enable_semantic", "index.vectors", None),
    ("fn", "repro.index.alltables", "index_table", "index.add", None),
    ("fn", "repro.index.alltables", "deindex_table", "index.remove", None),
    ("fn", "repro.index.alltables", "reindex_table", "index.replace", None),
    ("method", "repro.core.system", "Blend", "compact_index", "index.compact",
     lambda a, k, r: a[0].db.num_rows(a[0].index_config.table_name)),
    ("method", "repro.engine.database", "Database", "plan", "engine.plan", None),
    ("method", "repro.engine.database", "Database", "execute", "engine.exec",
     lambda a, k, r: (len(r.rows), r.stats.plan_cache_hit)),
    ("method", "repro.engine.database", "Database", "execute_columnar", "engine.exec",
     lambda a, k, r: (len(r), r.stats.plan_cache_hit)),
    ("method", "repro.core.seekers", "KeywordSeeker", "partials", "core.seekers.kw", None),
    ("method", "repro.core.seekers", "SingleColumnSeeker", "partials", "core.seekers.sc", None),
    ("method", "repro.core.seekers", "CorrelationSeeker", "partials", "core.seekers.corr", None),
    ("method", "repro.core.seekers", "MultiColumnSeeker", "partials", "core.seekers.mc", None),
    ("method", "repro.core.seekers", "MultiColumnSeeker", "fetch_candidate_arrays",
     "core.seekers.mc_fetch", lambda a, k, r: len(r[0])),
    ("method", "repro.core.seekers", "MultiColumnSeeker", "superkey_filter_batch",
     "core.seekers.mc_filter", lambda a, k, r: (len(a[1]), len(r[0]))),
    ("method", "repro.core.seekers", "MultiColumnSeeker", "validate_batch",
     "core.seekers.mc_validate", lambda a, k, r: (len(a[1]), len(r[0]))),
    ("fn", "repro.core.results", "merge_partials", "core.results.merge",
     lambda a, k, r: len(r)),
    ("fn", "repro.core.results", "fuse_rankings", "core.hybrid.fuse", None),
    ("method", "repro.core.system", "Blend", "execute_batch", "core.batch",
     lambda a, k, r: len(r)),
    ("method", "repro.core.system", "Blend", "execute_batch_partials", "core.batch",
     lambda a, k, r: len(r)),
    ("method", "repro.core.semantic", "SemanticSeeker", "partials", "core.semantic.scan", None),
    ("fn", "repro.core.grammar", "parse_plan", "core.grammar.parse", None),
    ("method", "repro.core.system", "Blend", "plan_for", "core.optimizer.plan",
     lambda a, k, r: len(r.rewrites)),
    ("method", "repro.core.system", "Blend", "run", "core.executor.run", _combiner_seconds),
    ("fn", "repro.snapshot", "save_blend", "snapshot.save",
     lambda a, k, r: (_directory_bytes(r), _lake_cells(a[0]))),
    ("fn", "repro.snapshot", "load_blend", "snapshot.load", None),
    ("fn", "repro.snapshot", "save_blend_delta", "snapshot.save_delta", None),
    ("method", "repro.serving.scheduler", "BatchScheduler", "execute",
     "serving.scheduler.execute", None),
    ("fn", "repro.serving.server", "build_seeker", "serving.server.build_seeker", None),
    ("method", "repro.serving.deployment", "DeploymentManager", "swap",
     "serving.deployment.swap", None),
    ("method", "repro.serving.compaction", "SnapshotCompactor", "compact_once",
     "serving.compaction.compact", lambda a, k, r: r is not None),
]


class Tracing:
    """The recorder of one traced run plus the probes that feed it."""

    def __init__(self) -> None:
        self.recorder = Recorder()

    @contextmanager
    def active(self) -> Iterator[Recorder]:
        """Install every probe for the duration of the block (blocks do
        not nest)."""
        for kind, *spec in _PROBES:
            install = self.recorder.patch_function if kind == "fn" else self.recorder.patch_method
            install(*spec)
        try:
            yield self.recorder
        finally:
            self.recorder.restore()


# -- the battery --------------------------------------------------------------------


class Battery:
    """A short, fixed tour of every layer on a small lake of its own.

    Sections run in order and share state, but each is isolated: one that
    raises (a later change removed what it calls) is noted in
    ``recorder.unavailable`` and costs its rows, not the run. Rows that
    are direct measurements rather than span reductions land in
    ``extras``."""

    def __init__(self, tracing: Tracing, config) -> None:
        self.tracing = tracing
        self.recorder = tracing.recorder
        self.config = config
        self.extras: dict[str, tuple[float, str]] = {}
        self.inputs = lakegen.compose_lake(config.seed + 9001, BATTERY_SCALE)
        self.rng = random.Random(config.seed + 9002)
        self.directory = config.tmp_dir("battery")
        self.schedulers: list[BatchScheduler] = []

    def run(self) -> dict[str, tuple[float, str]]:
        sections: list[Callable[[], None]] = [
            self.build,
            self.value_queries,
            self.uncached_planning,
            self.batching,
            self.snapshots,
            self.scheduler_overhead,
            self.churn,
            self.http,
            self.semantic_and_plans,  # last: a semantic index makes every load rebuild its graph
        ]
        try:
            with self.tracing.active():
                for section in sections:
                    try:
                        section()
                    except Exception as exc:  # noqa: BLE001 -- isolation is the point
                        self.recorder.unavailable[f"battery.{section.__name__}"] = repr(exc)
        finally:
            for scheduler in self.schedulers:
                scheduler.close()
            shutil.rmtree(self.directory, ignore_errors=True)
        return self.extras

    def build(self) -> None:
        self.blend = Blend(self.inputs.lake, backend="column")
        self.blend.build_index()
        self.blend.warm()
        self.batch = [
            build_seeker({"modality": "sc", "values": q, "k": K})[0]
            for q in self.inputs.sc[:16]
        ]

    def _discover(self, pools: dict) -> None:
        for modality, pool in pools.items():
            for query in pool[:BATTERY_QUERIES]:
                self.blend.discover(query, modalities=(modality,), k=K)

    def value_queries(self) -> None:
        inputs = self.inputs
        self._discover(
            {
                "keyword": inputs.kw,
                "join": inputs.sc,
                "correlation": inputs.corr,
                "multi_column": inputs.mc,
            }
        )

    def semantic_and_plans(self) -> None:
        """The semantic extension, then each plan shape once."""
        from .workloads import composite_ops

        self.blend.enable_semantic()
        self._discover({"semantic": self.inputs.sc, "hybrid": self.inputs.sc})
        for _, op, _ in composite_ops(self.inputs, self.rng)[:12]:
            op(self.blend)

    def uncached_planning(self) -> None:
        """SQL text the parse and plan caches have never seen."""
        seeker = self.batch[0]
        template = seeker.sql().format(index=self.blend.index_config.table_name)
        for i in range(BATTERY_QUERIES):
            self.blend.db.plan(
                template.replace(":fetch", str(1000 + i)), {"q": seeker.tokens}
            )

    def batching(self) -> None:
        """Cross-query batching against one-by-one execution."""
        clock = time.perf_counter
        context = self.blend.context()
        started = clock()
        for member in self.batch:
            member.execute(context)
        serial = clock() - started
        started = clock()
        self.blend.execute_batch(self.batch)
        batched = clock() - started
        self.extras["core.batch.kernel_ms_per_query"] = (batched / len(self.batch) * 1e3, "ms")
        self.extras["core.batch.speedup_vs_serial"] = (serial / batched, "ratio")

    def snapshots(self) -> None:
        """Save, cold load, first query before any ``warm()``, and the
        size of an incremental save."""
        clock = time.perf_counter
        base = self.directory / "base"
        self.blend.save(base)
        self.loaded = Blend.load(base)
        started = clock()
        self.loaded.discover(self.inputs.sc[0], modalities=("join",), k=K)
        self.extras["snapshot.cold_first_query_ms"] = ((clock() - started) * 1e3, "ms")
        before = _directory_bytes(base)
        added = [lakegen.churn_table(10_000 + i) for i in range(5)]
        for table in added:
            self.loaded.add_table(table)
        self.loaded.save_delta()
        cells = sum(table.num_rows * table.num_columns for table in added)
        self.extras["snapshot.delta_bytes_per_cell"] = (
            (_directory_bytes(base) - before) / cells,
            "B/cell",
        )

    def scheduler_overhead(self) -> None:
        """``scheduler.execute`` at concurrency 1 against direct
        execution of the same queries (includes the batch window)."""
        from .serving import Served

        clock = time.perf_counter
        manager = DeploymentManager(self.loaded)
        stats = RecordingStats()
        scheduler = BatchScheduler(manager, stats=stats, workers=2)
        self.schedulers.append(scheduler)
        self.served = Served(self.directory, manager, scheduler, stats)
        context = self.loaded.context()
        direct, self.scheduled = [], []
        for member in self.batch[:BATTERY_QUERIES]:
            started = clock()
            member.execute(context)
            direct.append(clock() - started)
            started = clock()
            scheduler.execute(member)
            self.scheduled.append(clock() - started)
        self.extras["serving.scheduler.overhead_ms_p50"] = (
            (median(self.scheduled) - median(direct)) * 1e3,
            "ms",
        )

    def churn(self) -> None:
        """A short open-loop phase with lifecycle ops, ``save_delta``,
        compaction and hot-swap beside the reads."""
        from .serving import Mutator, Stream, account, drive_slice, scheduler_rows
        from .workloads import RunResult

        seed = self.config.seed
        mutator = Mutator(
            self.served,
            seed + 9003,
            period=BATTERY_CHURN_PERIOD,
            publish_period=BATTERY_PUBLISH_PERIOD,
            recorder=self.recorder,
        )
        mutator.start()
        try:
            piece = drive_slice(
                self.served,
                Stream(self.inputs, self.rng, 400),
                100.0,
                BATTERY_CHURN_SECONDS,
                self.rng,
                mutator.probe_at(random.Random(seed + 9004)),
            )
        finally:
            mutator.stop()
        if mutator.error is not None:
            raise mutator.error
        scratch = RunResult()
        account(scratch, [], [piece])
        self.extras.update(scratch.extras)
        self.extras.update(scheduler_rows(self.served.stats))
        self.extras.update(mutator.rows([piece]))

    def http(self) -> None:
        """Sequential ``POST /query`` on one keep-alive connection."""
        clock = time.perf_counter
        over_http = []
        with BlendServer(self.blend, workers=2) as server:
            host, port = server.address
            connection = http.client.HTTPConnection(host, port, timeout=30)
            try:
                for query in self.inputs.sc[:BATTERY_QUERIES]:
                    body = json.dumps({"modality": "sc", "values": query, "k": K})
                    started = clock()
                    connection.request(
                        "POST", "/query", body, {"Content-Type": "application/json"}
                    )
                    response = connection.getresponse()
                    payload = response.read()
                    over_http.append(clock() - started)
                    if response.status != 200:
                        raise RuntimeError(f"POST /query -> {response.status}: {payload!r}")
            finally:
                connection.close()
        self.extras["serving.server.http_overhead_ms_p50"] = (
            (median(over_http) - median(self.scheduled)) * 1e3,
            "ms",
        )


# -- reducing spans to rows ------------------------------------------------------------


def layer_rows(
    tracing: Tracing,
    extras: dict[str, tuple[float, str]],
) -> dict[str, tuple[float, str]]:
    """Every per-layer row this run can report, as ``name -> (value,
    unit)``. *extras* are direct measurements (the caller lets workload
    rows win over the battery's)."""
    spans = tracing.recorder.spans
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    rows: dict[str, tuple[float, str]] = {}

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    def put(name: str, value: Optional[float], unit: str) -> None:
        if value is not None:
            rows[name] = (float(value), unit)

    def busy(name: str) -> Optional[float]:
        found = named(name)
        return sum(own[id(span)] for span in found) if found else None

    def p50(values: list[float], scale: float) -> Optional[float]:
        return median(values) * scale if values else None

    def self_p50(name: str, scale: float) -> Optional[float]:
        return p50([own[id(span)] for span in named(name)], scale)

    def total_p50(name: str, scale: float) -> Optional[float]:
        return p50([span.duration for span in named(name)], scale)

    def child_p50(name: str, parent: str, scale: float) -> Optional[float]:
        return p50(
            [
                span.duration
                for span in named(name)
                if span.parent is not None and span.parent.name == parent
            ],
            scale,
        )

    def ratio(name: str) -> Optional[float]:
        pairs = [span.count for span in named(name) if span.count]
        entered = sum(pair[0] for pair in pairs)
        return sum(pair[1] for pair in pairs) / entered if entered else None

    # lake, index
    normalize = busy("lake.normalize")
    put("lake.normalize.busy_s", normalize, "s")
    if normalize:
        cells = sum(span.count for span in named("lake.normalize"))
        put("lake.normalize.cells_per_s", cells / normalize, "1/s")
    put("index.build.busy_s", busy("index.build"), "s")
    if named("index.build"):
        largest = max(named("index.build"), key=lambda span: span.count)
        put("index.build.rows", largest.count, "count")
        put("index.build.rows_per_s", largest.count / largest.duration, "1/s")
    outer_xash = [
        span for span in named("index.xash")
        if span.parent is None or span.parent.name != "index.xash"
    ]
    if outer_xash:
        seconds = sum(span.duration for span in outer_xash)
        put("index.xash.tokens_per_s", sum(span.count for span in outer_xash) / seconds, "1/s")
    put("index.stats.busy_s", busy("index.stats"), "s")
    put("index.vectors.busy_s", busy("index.vectors"), "s")
    put("index.maintain.add_ms_p50", total_p50("index.add", 1e3), "ms")
    put("index.maintain.remove_ms_p50", total_p50("index.remove", 1e3), "ms")
    put("index.maintain.replace_ms_p50", total_p50("index.replace", 1e3), "ms")
    put("index.compact.busy_s", busy("index.compact"), "s")
    if named("index.compact"):
        put(
            "index.compact.rows_rewritten",
            sum(span.count for span in named("index.compact")),
            "count",
        )

    # engine
    put("engine.plan.us_p50", total_p50("engine.plan", 1e6), "us")
    executed = named("engine.exec")
    if executed:
        put(
            "engine.plan_cache.hit_rate",
            sum(1 for span in executed if span.count[1]) / len(executed),
            "ratio",
        )
    put("engine.exec.kw_ms_p50", child_p50("engine.exec", "core.seekers.kw", 1e3), "ms")
    put("engine.exec.sc_ms_p50", child_p50("engine.exec", "core.seekers.sc", 1e3), "ms")
    put("engine.exec.corr_ms_p50", child_p50("engine.exec", "core.seekers.corr", 1e3), "ms")
    put("engine.exec.mc_join_ms_p50", child_p50("engine.exec", "core.seekers.mc_fetch", 1e3), "ms")
    hits = sum(span.count for span in named("core.results.merge"))
    if hits:
        sql_rows = sum(span.count[0] for span in executed)
        put("engine.exec.rows_per_result", sql_rows / hits, "ratio")

    # core
    for kind in ("kw", "sc", "corr"):
        put(f"core.seekers.{kind}_ms_p50", self_p50(f"core.seekers.{kind}", 1e3), "ms")
    for phase in ("mc_fetch", "mc_filter", "mc_validate"):
        put(f"core.seekers.{phase}_ms_p50", self_p50(f"core.seekers.{phase}", 1e3), "ms")
    put("core.seekers.mc_filter_pass_ratio", ratio("core.seekers.mc_filter"), "ratio")
    put("core.seekers.mc_validate_pass_ratio", ratio("core.seekers.mc_validate"), "ratio")
    put("core.results.merge_us_p50", self_p50("core.results.merge", 1e6), "us")
    put("core.semantic.scan_ms_p50", self_p50("core.semantic.scan", 1e3), "ms")
    put("core.hybrid.fuse_us_p50", self_p50("core.hybrid.fuse", 1e6), "us")
    put("core.grammar.parse_us_p50", self_p50("core.grammar.parse", 1e6), "us")
    put("core.optimizer.plan_us_p50", self_p50("core.optimizer.plan", 1e6), "us")
    plans = named("core.optimizer.plan")
    if plans:
        put(
            "core.optimizer.rewrites_per_plan",
            sum(span.count for span in plans) / len(plans),
            "count",
        )
    put("core.executor.run_ms_p50", total_p50("core.executor.run", 1e3), "ms")
    combining = [span.count for span in named("core.executor.run") if span.count]
    put("core.executor.node_self_ms_p50", p50(combining, 1e3), "ms")

    # snapshot
    put("snapshot.save_s", total_p50("snapshot.save", 1.0), "s")
    put("snapshot.load_s", total_p50("snapshot.load", 1.0), "s")
    put("snapshot.save_delta_ms_p50", total_p50("snapshot.save_delta", 1e3), "ms")
    saves = [span.count for span in named("snapshot.save") if span.count]
    if saves:
        size, cells = max(saves)
        put("snapshot.bytes", size, "B")
        put("snapshot.bytes_per_cell", size / cells, "B/cell")

    # serving
    put("serving.server.build_seeker_us_p50", total_p50("serving.server.build_seeker", 1e6), "us")
    put("serving.deployment.swap_s_p50", total_p50("serving.deployment.swap", 1.0), "s")
    cycles = [span for span in named("serving.compaction.compact") if span.count]
    if cycles:
        put("serving.compaction.busy_s", sum(span.duration for span in cycles), "s")

    for name, (value, unit) in extras.items():
        rows[name] = (float(value), unit)
    return rows


def coverage(tracing: Tracing, traced_wall: float) -> Optional[float]:
    """Share of a closed loop's traced wall time that the layers' self
    times account for (the harness's own ``bench.*`` spans excluded).
    ``None`` on the open loops: their requests run on the scheduler's
    worker threads, under no ``bench.op`` root."""
    if traced_wall <= 0:
        return None
    own = self_times(tracing.recorder.spans)
    inside = 0.0
    for span in tracing.recorder.spans:
        root = span
        while root.parent is not None:
            root = root.parent
        if root.name == "bench.op" and not span.name.startswith("bench."):
            inside += own[id(span)]
    return inside / traced_wall if inside else None


def tail_row(latencies: list[float]) -> Optional[tuple[float, float]]:
    """The highest percentile the sample supports, as ``(percent, ms)``."""
    q = supported_percentile(len(latencies))
    if q is None:
        return None
    return q * 100, percentile(sorted(latencies), q) * 1e3
