"""The six workloads.

Every workload calls only the facade later clean-ups keep (``Blend``,
``build_index``, ``discover``, ``run``, ``save`` / ``load`` /
``save_delta``, the lifecycle methods, ``parse_plan``, the Table-III plan
builders, ``DeploymentManager``, ``BatchScheduler.submit``,
``SnapshotCompactor``), times a phase for ``seconds`` of wall clock, and
checks every answer outside the timed region. The open-loop pair lives in
:mod:`blendbench.serving`.

A traced run splits the timed phase: a quarter runs untraced (the
reference for ``trace.overhead_frac``), the rest under the span recorder.
"""

from __future__ import annotations

import gc
import importlib
import random
import resource
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.core import tasks
from repro.core.grammar import parse_plan
from repro.core.system import Blend, union_search_plan
from repro.index.alltables import IndexConfig
from repro.lake.datalake import DataLake
from repro.lake.table import Table

from . import lakegen
from .lakegen import K, Inputs
from .measure import Calibrator, geomean, median, percentile
from .oracle import LakeOracle, answers_digest, check_topk, hit_pairs

SETUP_REPEATS = 3  # set-up runs this often per run; setup_s is the median
UNTRACED_SHARE = 0.25  # of a traced run's timed phase
WARMUP_SHARE = 0.25  # a closed loop's discarded first pass is capped at this share
TRIMMED_SLICES = 0.3  # open loops: share of time slices dropped as machine stalls
INGEST_OPS = 120  # ingest: lifecycle ops per pass
SAVE_DELTA_EVERY = 20  # ingest: lifecycle ops between incremental saves
COMPOSITE_INPUTS = 20  # distinct inputs per plan shape at scale 1.0 (~1.7 s per pass)

_CACHED_MODULES = ("repro.index.xash", "repro.baselines.embeddings", "repro.engine.database")


@dataclass
class RunConfig:
    workload: str
    seed: int
    seconds: float
    scale: float
    tmp_root: Path
    tracing: Any = None  # blendbench.layers.Tracing for a traced run
    setup_repeats: int = SETUP_REPEATS
    calibrator: Calibrator = field(default_factory=Calibrator)

    def tmp_dir(self, label: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=self.tmp_root))


@dataclass
class RunResult:
    """What a workload hands back to the runner."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)  # first few reasons
    # the end-to-end numbers (see closed_numbers / pooled_numbers)
    op_geomean: float = 0.0  # seconds
    op_p90: float = 0.0  # seconds
    ops_per_s: float = 0.0
    samples: int = 0  # latencies behind op_geomean / op_p90
    # every timed execution, as measured
    op_latencies: list[float] = field(default_factory=list)  # seconds, untraced
    traced_latencies: list[float] = field(default_factory=list)
    timed_wall: float = 0.0
    traced_wall: float = 0.0
    setup_seconds: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    lake_cells: int = 0
    digest: str = ""
    extras: dict[str, tuple[float, str]] = field(default_factory=dict)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.failures) < 5:
            self.failures.append(reason)


# -- shared scaffolding -----------------------------------------------------------


def copy_lake(lake: DataLake) -> DataLake:
    """Fresh ``Table`` objects over the same rows: no set-up repeat may
    inherit the token / type-inference caches an earlier one filled."""
    fresh = DataLake(lake.name)
    for table in lake:
        fresh.add(Table(table.name, table.columns, table.rows))
    return fresh


def reset_process_caches() -> None:
    """Clear the process-wide memo caches (token hashes, embeddings,
    parsed SQL) so each set-up repeat pays what a fresh process pays."""
    for name in _CACHED_MODULES:
        try:
            module = importlib.import_module(name)
        except ImportError:
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def repeat_setup(
    config: RunConfig,
    lake: DataLake,
    make: Callable[[DataLake], Any],
    teardown: Callable[[Any], None],
) -> tuple[Any, list[float]]:
    """Run *make* ``setup_repeats`` times on fresh copies of *lake*;
    returns the last product (earlier ones are torn down) and every
    repeat's wall time. Copying the lake is input preparation and is not
    timed."""
    seconds: list[float] = []
    product = None
    for _ in range(config.setup_repeats):
        if product is not None:
            teardown(product)
            product = None
        fresh = copy_lake(lake)
        reset_process_caches()
        gc.collect()
        config.calibrator.sample("setup")
        with config.tracing.active() if config.tracing else nullcontext():
            started = time.perf_counter()
            product = make(fresh)
            seconds.append(time.perf_counter() - started)
    config.calibrator.sample("setup")
    return product, seconds


def build_direct(lake: DataLake, semantic: bool = False) -> Blend:
    blend = Blend(lake, backend="column", index_config=IndexConfig(semantic=semantic))
    blend.build_index()
    blend.warm()
    return blend


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_numbers(
    result: RunResult, executions: Sequence[tuple[int, float]], slowdown: float
) -> None:
    """End-to-end numbers of a closed loop from ``(op, latency)`` pairs,
    divided by the machine's *slowdown* during the phase.

    The box this runs on slows down by 10-25 % for seconds at a time
    (README, "Noise"); a plain statistic over every execution inherits
    that. Every distinct op runs once per pass, passes are seconds apart,
    so each op's *fastest* execution is its latency on the undisturbed
    machine -- the classic best-of-k timing.

    The op mixes are deliberately multi-modal (cheap keyword probes next
    to 20 ms feature-discovery plans), so a median would sit in whichever
    class straddles the middle, jump with the seed, and ignore every other
    class. ``op_geomean`` is the geometric mean of the per-op latencies:
    every class moves it in proportion. ``op_p90`` is their 90th
    percentile (the tail of the query mix, not of the machine) and
    ``ops_per_s`` is what one caller completes per second at those
    latencies."""
    best: dict[int, float] = {}
    for index, latency in executions:
        if latency < best.get(index, float("inf")):
            best[index] = latency
    ordered = sorted(best.values())
    result.op_geomean = geomean(ordered) / slowdown
    result.op_p90 = percentile(ordered, 0.90) / slowdown
    result.ops_per_s = len(ordered) / sum(ordered) * slowdown
    result.samples = len(ordered)
    result.extras["raw.op_geomean_ms"] = (geomean(ordered) * 1e3, "ms")
    result.extras["machine.slowdown"] = (slowdown, "ratio")


def pooled_numbers(
    result: RunResult, timed: Sequence[tuple[float, float]], edges: Sequence[float]
) -> None:
    """``op_geomean`` / ``op_p90`` of an open loop from ``(offset,
    latency)`` pairs. A request cannot be repeated in the same queue
    state, so best-of-k is not available; instead the run is cut into the
    slices ``[edges[i], edges[i+1])``, the slowest ``TRIMMED_SLICES`` of
    them (by their own geometric mean) are dropped -- that is where the
    machine stalled -- and the rest are pooled.

    Not divided by the machine's slowdown: at a fifth of saturation an
    open loop's latency is set by the batch window, thread wake-ups and
    interpreter-lock hand-offs rather than by instruction throughput, and
    scaling it made eight runs spread wider (35 %) than leaving it alone
    (11 %)."""
    slices = []
    for low, high in zip(edges, edges[1:]):
        inside = [latency for offset, latency in timed if low <= offset < high]
        if inside:
            slices.append(inside)
    slices.sort(key=geomean)
    kept = slices[: max(1, len(slices) - int(TRIMMED_SLICES * len(slices)))]
    pool = sorted(latency for inside in kept for latency in inside)
    result.op_geomean = geomean(pool)
    result.op_p90 = percentile(pool, 0.90)
    result.samples = len(pool)


@dataclass
class LoopSample:
    latencies: list[float] = field(default_factory=list)
    answers: list[tuple[int, Any]] = field(default_factory=list)  # (op index, result)
    wall: float = 0.0

    def executions(self) -> list[tuple[int, float]]:
        return [(index, latency) for (index, _), latency in zip(self.answers, self.latencies)]


def closed_loop(
    num_ops: int,
    run_op: Callable[[int], Any],
    seconds: float,
    rng: random.Random,
    *,
    max_passes: Optional[int] = None,
    recorder=None,
    between_passes: Optional[Callable[[], None]] = None,
) -> LoopSample:
    """One caller issuing the next op only after the previous one
    returned: shuffled passes over the ops until *seconds* have elapsed
    (or *max_passes* are done). Under a recorder every op is a root
    ``bench.op`` span with its own request id. *between_passes* runs
    before each pass, off the ops' clocks (its time does extend the
    phase's wall time)."""
    sample = LoopSample()
    if recorder is not None:
        plain = run_op

        def run_op(index: int) -> Any:
            recorder.set_request(len(sample.latencies))
            with recorder.span("bench.op"):
                return plain(index)

    order = list(range(num_ops))
    clock = time.perf_counter
    started = clock()
    deadline = started + seconds
    passes = 0
    running = True
    while running and (max_passes is None or passes < max_passes):
        if between_passes is not None:
            between_passes()
        rng.shuffle(order)
        for index in order:
            before = clock()
            result = run_op(index)
            after = clock()
            sample.latencies.append(after - before)
            sample.answers.append((index, result))
            if after >= deadline:
                running = False
                break
        passes += 1
    sample.wall = clock() - started
    return sample


def run_closed_workload(
    config: RunConfig,
    result: RunResult,
    num_ops: int,
    run_op: Callable[[int], Any],
) -> list[tuple[int, Any]]:
    """Warm-up pass, then the timed phase (split untraced / traced on a
    traced run). Returns every timed ``(op index, answer)``."""
    rng = random.Random(config.seed + 101)
    closed_loop(num_ops, run_op, WARMUP_SHARE * config.seconds, rng, max_passes=1)
    tracing = config.tracing
    untraced_seconds = config.seconds * (UNTRACED_SHARE if tracing else 1.0)
    def calibrate() -> None:
        config.calibrator.sample("timed")

    sample = closed_loop(num_ops, run_op, untraced_seconds, rng, between_passes=calibrate)
    calibrate()
    result.op_latencies = sample.latencies
    result.timed_wall = sample.wall
    closed_numbers(result, sample.executions(), config.calibrator.slowdown("timed"))
    answers = sample.answers
    if tracing:
        with tracing.active():
            traced = closed_loop(
                num_ops,
                run_op,
                config.seconds - untraced_seconds,
                rng,
                recorder=tracing.recorder,
            )
        result.traced_latencies = traced.latencies
        result.traced_wall = traced.wall
        answers = answers + traced.answers
    result.attempted = len(answers)
    result.peak_rss_mb = peak_rss_mb()
    return answers


def check_answers(
    result: RunResult,
    answers: Sequence[tuple[int, Any]],
    labels: Sequence[str],
    verdict: Callable[[int, list[tuple[int, float]]], Optional[str]],
) -> None:
    """Every execution of one op must return the same ranking, and that
    ranking must pass *verdict*. Failures count per execution."""
    by_op: dict[int, list[list[tuple[int, float]]]] = {}
    for index, answer in answers:
        by_op.setdefault(index, []).append(hit_pairs(answer))
    canonical = []
    for index in sorted(by_op):
        runs = by_op[index]
        first = runs[0]
        canonical.append(first)
        drifted = sum(1 for other in runs[1:] if other != first)
        if drifted:
            result.fail(drifted, f"{labels[index]} #{index}: answer changed between passes")
        reason = verdict(index, first)
        if reason is not None:
            result.fail(len(runs) - drifted, f"{labels[index]} #{index}: {reason}")
    result.digest = answers_digest(canonical)


# -- value_seek ----------------------------------------------------------------------


def run_value_seek(config: RunConfig, inputs: Inputs) -> RunResult:
    """KW, SC and C through ``Blend.discover``: the single-scan SQL
    seekers, one caller."""
    result = RunResult(lake_cells=inputs.cells)
    blend, result.setup_seconds = repeat_setup(
        config, inputs.lake, build_direct, lambda blend: None
    )
    # Half of each pool: a pass must take ~2 s so that every op runs
    # about four times in the 8 s phase (closed_numbers keeps the fastest).
    ops: list[tuple[str, Any]] = (
        [("keyword", q) for q in inputs.kw[::2]]
        + [("join", q) for q in inputs.sc[::2]]
        + [("correlation", q) for q in inputs.corr[::2]]
    )

    def run_op(index: int):
        modality, query = ops[index]
        return blend.discover(query, modalities=(modality,), k=K).output

    answers = run_closed_workload(config, result, len(ops), run_op)
    oracle = LakeOracle(inputs.lake.items())

    def verdict(index: int, hits) -> Optional[str]:
        modality, query = ops[index]
        if modality == "keyword":
            return check_topk(hits, oracle.keyword_scores(query), K)
        if modality == "join":
            return check_topk(hits, oracle.join_scores(query), K)
        return None  # correlation: pinned by the digest

    check_answers(result, answers, [op[0] for op in ops], verdict)
    return result


# -- mc_seek -------------------------------------------------------------------------


def run_mc_seek(config: RunConfig, inputs: Inputs) -> RunResult:
    """Multi-column joins through ``Blend.discover``: candidate fetch,
    XASH super-key filter and validation dominate."""
    result = RunResult(lake_cells=inputs.cells)
    blend, result.setup_seconds = repeat_setup(
        config, inputs.lake, build_direct, lambda blend: None
    )
    queries = inputs.mc[::2]  # every size and family, ~1.5 s per pass

    def run_op(index: int):
        return blend.discover(queries[index], modalities=("multi_column",), k=K).output

    answers = run_closed_workload(config, result, len(queries), run_op)
    oracle = LakeOracle(inputs.lake.items())
    check_answers(
        result,
        answers,
        ["multi_column"] * len(queries),
        lambda index, hits: check_topk(hits, oracle.multi_column_scores(queries[index]), K),
    )
    return result


# -- composite -----------------------------------------------------------------------


def composite_ops(
    inputs: Inputs, rng: random.Random
) -> list[tuple[str, Callable[[Blend], Any], Optional[int]]]:
    """Plan-API and grammar forms of the Table III tasks plus hybrid and
    semantic discovery, ``COMPOSITE_INPUTS`` distinct inputs per shape,
    as ``(label, op, twin)``: *twin* is the index of the plan-API op a
    grammar op must agree with (the feature shape has none -- the grammar
    cannot express the C seeker's ``min_qcr``). Plans are built inside the
    op: a user's request starts from values, not from a pre-built (and
    pre-warmed) plan object."""
    per_shape = max(3, round(COMPOSITE_INPUTS * inputs.scale))
    width2 = inputs.mc_families[2]
    ops: list[tuple[str, Callable[[Blend], Any], Optional[int]]] = []

    def add(label: str, plan_of: Callable[[], Any], twin: Optional[int] = None) -> int:
        ops.append((label, lambda blend: blend.run(plan_of(), optimize=True).output, twin))
        return len(ops) - 1

    for i in range(per_shape):
        family = width2[i % len(width2)]
        rows = rng.sample(family, 24)
        positive, negative, examples = rows[:12], rows[12:16], rows[16:24]
        lookups = [row[0] for row in rng.sample(family, min(len(family), 32))]
        twin = add(
            "plan.negative",
            lambda p=positive, n=negative: tasks.negative_examples_plan(p, n, k=K),
        )
        add(
            "grammar.negative",
            lambda p=positive, n=negative: parse_plan(
                "\\(MC($pos), MC($neg))", {"pos": p, "neg": n}, k=K
            ),
            twin,
        )
        twin = add(
            "plan.imputation", lambda e=examples, q=lookups: tasks.imputation_plan(e, q, k=K)
        )
        add(
            "grammar.imputation",
            lambda e=examples, q=lookups: parse_plan(
                "∩(MC($examples), SC($queries))", {"examples": e, "queries": q}, k=K
            ),
            twin,
        )

        keys, targets = inputs.corr[i % len(inputs.corr)]
        features = [[t * 1.0 for t in targets], [t + 0.1 for t in targets]]
        join_rows = inputs.corr_planted[i % len(inputs.corr_planted)]
        add(
            "plan.feature",
            lambda j=join_rows, ks=keys, t=targets, f=features: tasks.feature_discovery_plan(
                j, ks, t, f, k=K
            ),
        )
        add(
            "grammar.feature",
            lambda j=join_rows, ks=keys, t=targets, f=features: parse_plan(
                "∩(\\(\\(C($t, k=30), C($f0, k=30), k=30), C($f1, k=30), k=30),"
                " MC($join, k=30))",
                {"t": (ks, t), "f0": (ks, f[0]), "f1": (ks, f[1]), "join": j},
                k=K,
            ),
        )

        example_table = Table(
            f"mo_query_{i}", ["key", "target"], list(zip(keys[:30], targets[:30]))
        )
        keywords = list(keys[:3])
        twin = add(
            "plan.multi_objective",
            lambda kw=keywords, ex=example_table: tasks.multi_objective_plan_no_imputation(
                kw, ex, "key", "target", k=K
            ),
        )
        add(
            "grammar.multi_objective",
            lambda kw=keywords, ks=keys, t=targets: parse_plan(
                "∪(KW($kw), Counter(SC($c0, k=100), SC($c1, k=100)), C($corr), k=40)",
                {"kw": kw, "c0": ks[:30], "c1": t[:30], "corr": (ks[:30], t[:30])},
                k=K,
            ),
            twin,
        )

        source = inputs.union_tables[i % len(inputs.union_tables)]
        picked = sorted(rng.sample(range(source.num_rows), min(source.num_rows, 12)))
        union_query = Table(
            f"union_query_{i}", source.columns, [source.rows[r] for r in picked]
        )
        twin = add("plan.union", lambda q=union_query: union_search_plan(q, k=K))
        columns = {
            f"c{position}": union_query.column_values(column)
            for position, column in enumerate(union_query.columns)
        }
        expression = (
            "Counter(" + ", ".join(f"SC(${name}, k=100)" for name in columns) + f", k={K})"
        )
        add("grammar.union", lambda e=expression, c=columns: parse_plan(e, c, k=K), twin)

        values = inputs.sc[i % len(inputs.sc)]
        topic = inputs.kw[i % len(inputs.kw)][:4]
        ops.append((
            "discover.hybrid",
            lambda blend, v=values, t=topic: blend.discover(
                v, modalities=("hybrid",), k=K, about=t
            ).output,
            None,
        ))
        ops.append((
            "discover.semantic",
            lambda blend, v=values: blend.discover(v, modalities=("semantic",), k=K).output,
            None,
        ))
    return ops


def run_composite(config: RunConfig, inputs: Inputs) -> RunResult:
    """Pipelines: optimizer, executor, grammar, hybrid fusion and the
    semantic scan carry work no single-seeker workload touches."""
    result = RunResult(lake_cells=inputs.cells)
    blend, result.setup_seconds = repeat_setup(
        config,
        inputs.lake,
        lambda lake: build_direct(lake, semantic=True),
        lambda blend: None,
    )
    ops = composite_ops(inputs, random.Random(config.seed + 211))
    answers = run_closed_workload(
        config, result, len(ops), lambda index: ops[index][1](blend)
    )
    first_answer: dict[int, list[tuple[int, float]]] = {}
    for index, answer in answers:
        first_answer.setdefault(index, hit_pairs(answer))

    def verdict(index: int, hits) -> Optional[str]:
        twin = ops[index][2]
        if twin is not None and twin in first_answer and first_answer[twin] != hits:
            return f"grammar answer differs from its plan-API twin (op #{twin})"
        return None

    check_answers(result, answers, [op[0] for op in ops], verdict)
    return result


# -- ingest --------------------------------------------------------------------------


@dataclass
class ColdDeploy:
    built: Blend
    loaded: Blend
    directory: Path


def cold_deploy(config: RunConfig, lake: DataLake) -> ColdDeploy:
    """The offline side end to end: build -> save -> load -> warm."""
    directory = config.tmp_dir("deploy")
    built = Blend(lake, backend="column")
    built.build_index()
    built.save(directory / "base")
    loaded = Blend.load(directory / "base")
    loaded.warm()
    return ColdDeploy(built, loaded, directory)


def drop_deploy(deploy: ColdDeploy) -> None:
    shutil.rmtree(deploy.directory, ignore_errors=True)


class LifecycleDriver:
    """A seeded add / replace / remove stream (a third each) over churn
    tables; ``static_share`` of the replace / remove ops hit a table of
    the static lake instead, so the frozen base collects tombstones as
    well as delta rows."""

    def __init__(
        self, static_ids: Sequence[int], rng: random.Random, static_share: float = 0.5
    ) -> None:
        self._rng = rng
        self._static = list(static_ids)
        self._static_share = static_share  # of replace/remove ops that hit the static lake
        rng.shuffle(self._static)
        self.live: list[tuple[int, int]] = []  # (table id, churn index), oldest first
        self.next_index = 0

    def _fresh(self) -> tuple[int, Table]:
        index = self.next_index
        self.next_index += 1
        return index, lakegen.churn_table(index)

    def apply(self, blend: Blend, keep: int = 8) -> tuple[str, int, int]:
        """One lifecycle op on *blend*; returns ``(kind, table id, churn
        index)`` of the table now live (``-1`` index for a removal)."""
        roll = self._rng.random()
        old_enough = len(self.live) > keep
        if roll < 1 / 3 or not old_enough:
            index, table = self._fresh()
            table_id = blend.add_table(table)
            self.live.append((table_id, index))
            return "add", table_id, index
        use_static = self._static and self._rng.random() < self._static_share
        if roll < 2 / 3:
            index, table = self._fresh()
            table_id = self._static.pop() if use_static else self.live.pop(0)[0]
            blend.replace_table(table_id, table)
            self.live.append((table_id, index))
            return "replace", table_id, index
        table_id = self._static.pop() if use_static else self.live.pop(0)[0]
        blend.remove_table(table_id)
        return "remove", table_id, -1


def probe_answers(blend: Blend, inputs: Inputs, churn_indexes: Sequence[int]) -> list:
    """A fixed battery spanning static and streamed-in vocabulary."""
    answers = []
    for query in inputs.kw[:8]:
        answers.append(hit_pairs(blend.discover(query, modalities=("keyword",), k=K).output))
    for query in inputs.sc[:8]:
        answers.append(hit_pairs(blend.discover(query, modalities=("join",), k=K).output))
    for query in inputs.mc[:6]:
        answers.append(hit_pairs(blend.discover(query, modalities=("multi_column",), k=K).output))
    for index in churn_indexes:
        answers.append(
            hit_pairs(
                blend.discover(lakegen.churn_probe(index), modalities=("keyword",), k=K).output
            )
        )
    return answers


def run_ingest(config: RunConfig, inputs: Inputs) -> RunResult:
    """The offline side: cold deploys (this is ``setup_s``), then passes
    of one fixed ``INGEST_OPS``-long lifecycle sequence, each on a fresh
    load of the frozen base, with ``save_delta`` every
    ``SAVE_DELTA_EVERY`` ops; then a restart from base + delta,
    compaction, a full save and a restart from that, each of which must
    answer like the live index.

    The sequence is replayed from the same state every pass so that each
    position is one repeatable op: like the closed query loops, the
    reported latency of a position is its fastest execution."""
    result = RunResult(lake_cells=inputs.cells)
    deploy, result.setup_seconds = repeat_setup(
        config, inputs.lake, lambda lake: cold_deploy(config, lake), drop_deploy
    )
    base = deploy.directory / "base"
    static_ids = deploy.loaded.lake.table_ids()
    tracing = config.tracing
    recorder = tracing.recorder if tracing else None
    clock = time.perf_counter
    executions: list[tuple[int, float]] = []
    saves: list[tuple[int, float]] = []

    def one_pass(latencies: list[float], traced: bool) -> tuple[Blend, LifecycleDriver]:
        config.calibrator.sample("timed")
        blend = Blend.load(base, delta=False)
        blend.warm()
        driver = LifecycleDriver(static_ids, random.Random(config.seed + 307))
        for position in range(INGEST_OPS):
            before = clock()
            if traced:
                recorder.set_request(position)
                with recorder.span("bench.op"):
                    driver.apply(blend)
            else:
                driver.apply(blend)
            after = clock()
            latencies.append(after - before)
            executions.append((position, after - before))
            if (position + 1) % SAVE_DELTA_EVERY == 0:
                blend.save_delta()
                saves.append((position, clock() - after))
        return blend, driver

    def passes(
        seconds: float, latencies: list[float], traced: bool
    ) -> tuple[float, tuple[Blend, LifecycleDriver]]:
        """Whole passes until *seconds* are up; the wall time spent and
        the last pass's deployment."""
        started = clock()
        while True:
            live = one_pass(latencies, traced)
            if clock() - started >= seconds:
                return clock() - started, live

    untraced_seconds = config.seconds * (UNTRACED_SHARE if tracing else 1.0)
    result.timed_wall, (blend, driver) = passes(untraced_seconds, result.op_latencies, False)
    if tracing:
        with tracing.active():
            result.traced_wall, (blend, driver) = passes(
                config.seconds - untraced_seconds, result.traced_latencies, True
            )
    config.calibrator.sample("timed")
    slowdown = config.calibrator.slowdown("timed")
    closed_numbers(result, executions, slowdown)
    best_saves: dict[int, float] = {}
    for position, seconds in saves:
        best_saves[position] = min(seconds, best_saves.get(position, float("inf")))
    # lifecycle ops per second of one caller, periodic persistence included
    result.ops_per_s = INGEST_OPS / (
        INGEST_OPS / result.ops_per_s + sum(best_saves.values()) / slowdown
    )
    result.attempted = len(executions)
    result.peak_rss_mb = peak_rss_mb()

    # Acknowledged writes survive a restart: base + replayed delta first,
    # then the compacted full snapshot, each against the live index.
    probes = [index for _, index in driver.live[-6:]]
    live = probe_answers(blend, inputs, probes)
    restarted = Blend.load(base)
    if probe_answers(restarted, inputs, probes) != live:
        result.fail(result.attempted, "restart from base+delta answers differently")
    with tracing.active() if tracing else nullcontext():
        blend.compact_index()
        blend.save(deploy.directory / "compacted", incremental="never")
    if probe_answers(blend, inputs, probes) != live:
        result.fail(result.attempted, "compaction changed answers")
    restarted = Blend.load(deploy.directory / "compacted")
    if probe_answers(restarted, inputs, probes) != live:
        result.fail(result.attempted, "restart from the compacted snapshot answers differently")
    result.failed = min(result.failed, result.attempted)
    result.digest = answers_digest(live)
    result.extras["save_delta_ms_p50"] = (median(best_saves.values()) * 1e3, "ms")
    drop_deploy(deploy)
    return result
