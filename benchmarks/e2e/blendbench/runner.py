"""Run one workload in this process and shape its result."""

from __future__ import annotations

import json
import os
import platform
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import WORKLOADS, lakegen, layers, serving, workloads
from .measure import median

ROOT = Path(__file__).resolve().parents[3]
MANIFEST = ROOT / "BENCHMARK.json"
SCRATCH = ROOT / ".bench_tmp"  # snapshots and traces: inside the checkout, git-ignored
SMOKE_SCALE = 0.08
SMOKE_SECONDS = 0.6

RUNNERS = {
    "value_seek": workloads.run_value_seek,
    "mc_seek": workloads.run_mc_seek,
    "composite": workloads.run_composite,
    "serve_steady": serving.run_serve_steady,
    "serve_churn": serving.run_serve_churn,
    "ingest": workloads.run_ingest,
}
assert tuple(RUNNERS) == WORKLOADS


def load_manifest() -> Optional[dict]:
    if not MANIFEST.is_file():
        return None
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@dataclass
class Report:
    """One run, ready to print, to write to a result file, or to test."""

    workload: str
    seed: int
    seconds: float
    trace: int
    lake_cells: int
    attempted: int
    failed: int
    failures: list[str]
    digest: str
    metrics: dict[str, dict]  # what the manifest declares for this mode
    informational: dict[str, dict] = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)  # declared rows without a value
    unavailable: dict[str, str] = field(default_factory=dict)  # probe -> reason

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def summary(self) -> dict:
        """The contract's last line."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in self.metrics.items()
            },
        }

    def result_file(self) -> dict:
        section = "layers" if self.trace else "metrics"
        other = "metrics" if self.trace else "layers"
        return {
            "env": environment(self.seed, self.lake_cells),
            "workload": self.workload,
            "seconds": self.seconds,
            "trace": self.trace,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "answers_digest": self.digest,
            section: self.metrics,
            other: {},
            "informational": self.informational,
            "claim": None,
        }


def head_commit() -> str:
    """The checked-out commit, read from ``.git`` without spawning git
    (the driver's checkout is not a repository: ``unknown`` there)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, lake_cells: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": head_commit(),
        "seed": seed,
        "lake_cells": lake_cells,
    }


def end_to_end_metrics(result: workloads.RunResult, setup_slowdown: float) -> dict[str, dict]:
    """The gated metrics; every time is at the reference box's nominal
    speed (``measure.Calibrator``)."""
    return {
        "setup_s": {
            "value": median(result.setup_seconds) / setup_slowdown,
            "unit": "s",
            "n": len(result.setup_seconds),
        },
        "op_geomean_ms": {"value": result.op_geomean * 1e3, "unit": "ms", "n": result.samples},
        "ops_per_s": {"value": result.ops_per_s, "unit": "1/s", "n": result.attempted},
        "peak_rss_mb": {"value": result.peak_rss_mb, "unit": "MiB", "n": 1},
    }


def execute(
    workload: str,
    seed: int,
    seconds: float,
    trace: int = 0,
    smoke: bool = False,
) -> Report:
    """Generate the inputs for *seed*, run *workload*, check its answers
    and (``trace=1``) reduce the traced run to per-layer rows."""
    scale = SMOKE_SCALE if smoke else 1.0
    SCRATCH.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    tracing = layers.Tracing() if trace else None
    try:
        config = workloads.RunConfig(
            workload=workload,
            seed=seed,
            seconds=seconds,
            scale=scale,
            tmp_root=tmp_root,
            tracing=tracing,
            setup_repeats=1 if (trace or smoke) else workloads.SETUP_REPEATS,
        )
        result = RUNNERS[workload](config, lakegen.compose_lake(seed, scale))
        if tracing:
            rows = traced_rows(tracing, config, result)
            tracing.recorder.dump_jsonl(SCRATCH / f"trace-{workload}.jsonl")
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    manifest = load_manifest()
    if tracing:
        emitted = {name: {"value": value, "unit": unit} for name, (value, unit) in rows.items()}
        section = "per_layer"
    else:
        setup_slowdown = config.calibrator.slowdown("setup")
        result.extras["op_p90_ms"] = (result.op_p90 * 1e3, "ms")
        result.extras["raw.setup_s"] = (median(result.setup_seconds), "s")
        result.extras["machine.slowdown_setup"] = (setup_slowdown, "ratio")
        emitted = end_to_end_metrics(result, setup_slowdown)
        emitted.update(
            {name: {"value": v, "unit": u} for name, (v, u) in result.extras.items()}
        )
        section = "end_to_end"
    declared = (
        [row["name"] for row in manifest[section]] if manifest is not None else list(emitted)
    )
    return Report(
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=trace,
        lake_cells=result.lake_cells,
        attempted=result.attempted,
        failed=result.failed,
        failures=result.failures,
        digest=result.digest,
        metrics={name: emitted[name] for name in declared if name in emitted},
        informational={name: m for name, m in emitted.items() if name not in declared},
        missing=[name for name in declared if name not in emitted],
        unavailable=dict(tracing.recorder.unavailable) if tracing else {},
    )


def traced_rows(
    tracing: layers.Tracing, config: workloads.RunConfig, result: workloads.RunResult
) -> dict[str, tuple[float, str]]:
    """Battery, then the pooled spans reduced to rows; the workload's own
    direct measurements win over the battery's."""
    covered = layers.coverage(tracing, result.traced_wall)
    config.calibrator.sample("timed")
    extras = layers.Battery(tracing, config).run()
    extras.update(result.extras)
    # The per-layer rows are raw times; this is what to divide them by.
    extras["machine.slowdown"] = (config.calibrator.slowdown("timed"), "ratio")
    if result.op_latencies and result.traced_latencies:
        extras["trace.overhead_frac"] = (
            median(result.traced_latencies) / median(result.op_latencies) - 1.0,
            "ratio",
        )
    if covered is not None:
        extras["trace.coverage_frac"] = (covered, "ratio")
    tail = layers.tail_row(result.op_latencies + result.traced_latencies)
    if tail is not None:
        extras["op_tail_ms"] = (tail[1], "ms")
        extras["op_tail_percentile"] = (tail[0], "%")
    return layers.layer_rows(tracing, extras)
