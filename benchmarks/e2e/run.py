#!/usr/bin/env python3
"""Run the end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload value_seek --seed 71 --seconds 8 --trace 0

runs one workload in this process, checks every answer, prints every
end-to-end metric by name with its unit (``--trace 1``: every per-layer
row instead) and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``. The exit status is 0
only when every operation succeeded and every answer checked out.

    --all                    every workload, each in a fresh process
    --repeat N --out-dir D   N seeds per workload, aggregated into D/<workload>.json
    --smoke                  a small lake and a short phase
    --out FILE               also write the self-describing result file
    --validate-manifest      check BENCHMARK.json, statically and against --smoke runs
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SEED = 71


def bootstrap() -> None:
    """Make ``repro`` (the program under test, straight from ``src/``)
    and ``blendbench`` importable; refuse to run without the program."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: nothing to benchmark: {source / 'repro'} is missing\n")
        raise SystemExit(2)
    for path in (str(source), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--out-dir")
    parser.add_argument("--validate-manifest", action="store_true")
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> int:
    """One workload, this process."""
    bootstrap()
    from blendbench import WORKLOADS, runner

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"run.py: --workload must be one of {', '.join(WORKLOADS)}\n")
        return 2
    seconds = args.seconds
    if seconds is None:
        manifest = runner.load_manifest()
        seconds = runner.SMOKE_SECONDS if args.smoke or manifest is None else float(
            manifest["run_seconds"]
        )
    report = runner.execute(args.workload, args.seed, seconds, args.trace, args.smoke)

    print(f"# workload={report.workload} seed={report.seed} seconds={seconds:g} "
          f"trace={report.trace} lake_cells={report.lake_cells} "
          f"answers_digest={report.digest}")
    for name, metric in report.metrics.items():
        count = f"   n={metric['n']}" if "n" in metric else ""
        print(f"{name:<44} {metric['value']:>16.6g} {metric['unit']}{count}")
    for name in report.missing:
        print(f"{name:<44} {'unavailable':>16}")
    for name, metric in report.informational.items():
        print(f"  {name:<42} {metric['value']:>16.6g} {metric['unit']}   (not in the manifest)")
    for probe, reason in sorted(report.unavailable.items()):
        print(f"# probe {probe} unavailable: {reason}")
    print(f"failed_frac {report.failed / max(1, report.attempted):.6f} "
          f"({report.failed} of {report.attempted})")
    for reason in report.failures:
        print(f"# FAILED: {reason}")
    if args.out:
        Path(args.out).write_text(
            json.dumps(report.result_file(), indent=1) + "\n", encoding="utf-8"
        )
    print(json.dumps(report.summary()))
    return 0 if report.correct else 1


def child(workload: str, args: argparse.Namespace, seed: int, out: Path | None) -> int:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(args.trace)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    if out is not None:
        command += ["--out", str(out)]
    return subprocess.run(command, check=False).returncode


def run_many(args: argparse.Namespace) -> int:
    """Several workloads and/or seeds, each run in a fresh process."""
    bootstrap()
    from blendbench import WORKLOADS
    from blendbench.measure import summarize

    names = list(WORKLOADS) if args.all or not args.workload else [args.workload]
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    status = 0
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for round_index in range(max(1, args.repeat)):
        for name in names:  # interleaved, as the driver runs them
            seed = args.seed + round_index
            raw = out_dir / f".{name}-{seed}.json" if out_dir is not None else None
            status = max(status, child(name, args, seed, raw))
            if raw is not None and raw.is_file():
                runs[name].append(json.loads(raw.read_text(encoding="utf-8")))
                raw.unlink()
    section = "layers" if args.trace else "metrics"
    for name, results in runs.items():
        if out_dir is None or not results:
            continue
        values: dict[str, list[float]] = {}
        for one in results:
            for metric, body in one[section].items():
                values.setdefault(metric, []).append(body["value"])
        aggregate = {
            "env": {k: v for k, v in results[0]["env"].items() if k != "seed"},
            "workload": name,
            "seconds": results[0]["seconds"],
            "trace": args.trace,
            "units": {m: b["unit"] for m, b in results[0][section].items()},
            "runs": [
                {
                    "seed": one["env"]["seed"],
                    "correct": one["correct"],
                    "attempted": one["attempted"],
                    "failed": one["failed"],
                    "answers_digest": one["answers_digest"],
                    section: {m: b["value"] for m, b in one[section].items()},
                }
                for one in results
            ],
            "summary": {metric: summarize(sample) for metric, sample in values.items()},
            "claim": None,
        }
        (out_dir / f"{name}.json").write_text(
            json.dumps(aggregate, indent=1) + "\n", encoding="utf-8"
        )
    return status


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.validate_manifest:
        bootstrap()
        from blendbench.manifest import validate

        problems = validate(ROOT, run_smoke=True)
        for problem in problems:
            print(f"manifest: {problem}")
        print("manifest: ok" if not problems else f"manifest: {len(problems)} problem(s)")
        return 1 if problems else 0
    if args.all or args.repeat or args.out_dir:
        return run_many(args)
    if not args.workload:
        sys.stderr.write("run.py: give --workload <name>, --all, or --validate-manifest\n")
        return 2
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
