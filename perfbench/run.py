"""puiseuxpath benchmark: run one workload, or all of them, and report.

    python3 perfbench/run.py --workload sdo-exact --seconds 55 --trace 0
    python3 perfbench/run.py --workload all            # every workload, table

Run from the root of a checkout; the program is imported from its ``src``.
Each workload runs alone in a fresh single-threaded worker process
(worker.py, BLAS/OpenMP threads = 1). Set-up is measured from spawning a
worker to the worker's report that inputs are built; it is taken in
SETUPS set-up-only workers plus the measuring worker, and the median is
reported. With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a separate
traced run. The lines before it state the machine, the seed, the pass
times, failed items, and the input properties read from the outputs.
A missing or broken program makes the run exit with code 1 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402

WORKLOAD_NAMES = ("sdo-builtin", "sdo-exact", "curves", "guard")
DEFAULT_SEED = 20240817
SETUPS = 4
DEADLINE_S = 170.0
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
OUT_DIR = Path(".perfbench_out")


class BenchError(RuntimeError):
    pass


def _worker(workload: str, args: list[str], deadline: float) -> tuple[float, dict]:
    """Start one worker, wait for it; return its spawn time and result."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PUISEUXPATH_")}
    env.update(SINGLE_THREAD)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           *args]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload} worker did not finish in time") from err
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} worker printed no result")
    return spawned, json.loads(lines[-1])


def _machine(result: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": result["python"],
        "numpy": result["numpy"],
        "isolation": "the workload ran alone, in one fresh single-threaded"
                     " worker process (BLAS/OpenMP threads = 1)",
        "profiling": "no system-wide profiler or hardware counter was used;"
                     " spans come from wrappers the benchmark installs",
    }


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Set up SETUPS + 1 times, run the workload once; return the report."""
    deadline = time.monotonic() + DEADLINE_S
    base = ["--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    for _ in range(SETUPS):
        spawned, res = _worker(workload, [*base, "--setup-only"], deadline)
        setups.append(res["ready"] - spawned)
    extra = ["--trace", str(trace)]
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        extra += ["--spans", str(OUT_DIR / f"spans-{workload}-{seed}.jsonl")]
    spawned, res = _worker(workload, [*base, *extra], deadline)
    setups.append(res["ready"] - spawned)
    walls = res["walls"]
    if trace:
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "workload": workload,
        "seed": seed,
        "seed_used": res["seed_used"],
        "machine": _machine(res),
        "setups_s": setups,
        "pass_walls_s": walls,
        "traced": bool(trace),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "facts": res["facts"],
        "metrics": metrics,
    }


def _details(report: dict) -> list[str]:
    """Human-readable lines printed before the result line."""
    r = report
    lines = [
        f"workload {r['workload']}  seed {r['seed']}"
        f" ({'drawn from' if r['seed_used'] else 'not used by'} the inputs)"
        f"  traced {r['traced']}",
        "machine " + json.dumps(r["machine"], sort_keys=True),
        f"set-ups (s): {', '.join(f'{s:.4f}' for s in r['setups_s'])}",
        f"{'traced ' if r['traced'] else ''}passes: {len(r['pass_walls_s'])}"
        "  pass walls (s): "
        + ", ".join(f"{w:.4f}" for w in r["pass_walls_s"]),
        f"fail_ratio = {r['failed']}/{r['attempted']}",
        "facts " + json.dumps(r["facts"], sort_keys=True),
    ]
    facts = r["facts"]
    if "canonical_coordinates" in facts:
        lines.append(f"certified_ratio = {facts['certified']}/"
                     f"{facts['canonical_coordinates']}")
    lines += [f"FAILED {f}" for f in r["failures"]]
    return lines


def _result_line(report: dict) -> str:
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    })


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in turn; prints each metric by name and unit."""
    reports = []
    for name in WORKLOAD_NAMES:
        report = measure(name, seed, seconds, trace)
        print("\n".join(_details(report)), flush=True)
        reports.append(report)
    print()
    print(f"{'workload':<12} {'metric':<44} {'value':>14} unit")
    for r in reports:
        for metric, m in r["metrics"].items():
            print(f"{r['workload']:<12} {metric:<44} {m['value']:>14.6g}"
                  f" {m['unit']}")
        print(f"{r['workload']:<12} {'fail_ratio':<44}"
              f" {r['failed'] / r['attempted']:>14.6g} ratio"
              f" ({r['failed']}/{r['attempted']})")
        facts = r["facts"]
        if "canonical_coordinates" in facts:
            print(f"{r['workload']:<12} {'certified_ratio':<44}"
                  f" {facts['certified'] / facts['canonical_coordinates']:>14.6g}"
                  f" ratio ({facts['certified']}/"
                  f"{facts['canonical_coordinates']})")
    return 0 if all(r["failed"] == 0 for r in reports) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="puiseuxpath benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True,
                    choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        report = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    print("\n".join(_details(report)))
    print(_result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
