#!/usr/bin/env python3
"""Compare two sets of benchmark results under the manifest's bounds.

    python3 benchmarks/e2e/compare.py A B
    python3 benchmarks/e2e/compare.py --spread A

``A`` (the parent) and ``B`` (the change) are each a result file written
by ``run.py --out``, an aggregate written by ``run.py --repeat N
--out-dir D``, or a directory of such files. For every end-to-end metric
of every workload the medians are compared in the metric's direction:

* **unresolved** -- either side's own quartile spread (Q3 - Q1 over the
  median) exceeds the bound, so the pair cannot tell a regression from
  noise; never reported as unchanged;
* **REGRESSED** -- B's median is worse than A's by more than the bound;
* **gain** -- paired runs only (both sides hold the same >= 10 runs, in
  order): B wins at least nine tenths of the pairs, ties counting for
  neither, and the medians differ by more than A's own quartile distance;
* **ok** otherwise.

One row per workload; exit status 1 if any pair regressed or is
unresolved. ``--spread`` prints each metric's run-to-run spread of one set
against its bound and a third of it (the acceptance criterion for the
benchmark itself).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from blendbench.measure import quartile_spread  # noqa: E402

MANIFEST = HERE.parents[1] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: Path) -> dict[str, dict[str, list[float]]]:
    """``workload -> metric -> values`` (one value per run, in order)."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out: dict[str, dict[str, list[float]]] = {}
    for file in files:
        body = json.loads(file.read_text(encoding="utf-8"))
        metrics = out.setdefault(body["workload"], {})
        if "runs" in body:
            for run in body["runs"]:
                for name, value in (run.get("metrics") or run.get("layers") or {}).items():
                    metrics.setdefault(name, []).append(value)
        else:
            for name, metric in (body.get("metrics") or body.get("layers") or {}).items():
                metrics.setdefault(name, []).append(metric["value"])
    return out


def judge(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """Verdict and B's relative change in the *worse* direction."""
    mid_a, mid_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (mid_b - mid_a) / abs(mid_a)
    spreads = [s for s in (quartile_spread(a), quartile_spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        return "unresolved", worse
    if worse > bound:
        return "REGRESSED", worse
    if len(a) == len(b) >= MIN_PAIRS:
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
        q1, _, q3 = statistics.quantiles(a, n=4)
        if wins >= WIN_SHARE * len(a) and abs(mid_b - mid_a) > q3 - q1:
            return "gain", worse
    return "ok", worse


def compare(a_path: Path, b_path: Path) -> int:
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    a, b = load(a_path), load(b_path)
    bad = 0
    for workload in (w["name"] for w in manifest["workloads"]):
        if workload not in a or workload not in b:
            print(f"{workload:<13} missing from {'A' if workload not in a else 'B'}")
            continue
        cells = []
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            if name not in a[workload] or name not in b[workload]:
                cells.append(f"{name}=absent")
                continue
            verdict, worse = judge(
                a[workload][name], b[workload][name], metric["better"], metric["bound"]
            )
            bad += verdict in ("REGRESSED", "unresolved")
            cells.append(f"{name}={verdict}({worse:+.1%} worse, bound {metric['bound']:.0%})")
        runs = f"n={len(next(iter(a[workload].values())))}/{len(next(iter(b[workload].values())))}"
        print(f"{workload:<13} {runs:<8} " + "  ".join(cells))
    print(
        "no regression, nothing unresolved" if not bad else f"{bad} pair(s) regressed or unresolved"
    )
    return 1 if bad else 0


def spread(path: Path) -> int:
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    results = load(path)
    over = 0
    for workload in (w["name"] for w in manifest["workloads"]):
        if workload not in results:
            continue
        cells = []
        for metric in manifest["end_to_end"]:
            values = results[workload].get(metric["name"], [])
            found = quartile_spread(values)
            if found is None:
                cells.append(f"{metric['name']}=n/a")
                continue
            mark = "" if found <= metric["bound"] / 3 else "*" if found <= metric["bound"] else "!"
            over += mark == "!" and metric["name"] != "setup_s"
            cells.append(
                f"{metric['name']}={statistics.median(values):.5g} "
                f"spread {found:.1%}{mark} (bound {metric['bound']:.0%})"
            )
        print(f"{workload:<13} " + "  ".join(cells))
    print("'*' above a third of the bound, '!' above the bound")
    return 1 if over else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--spread":
        return spread(Path(argv[1]))
    if len(argv) == 2:
        return compare(Path(argv[0]), Path(argv[1]))
    sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
