"""One workload in one fresh process; prints a JSON result as its last line.

Started by run.py, never imported by it. The worker imports puiseuxpath
from the ``src`` directory of the checkout it sits in, builds the
workload's inputs, reports when it became ready (the end of set-up), and
then runs passes over the items as a closed loop: one client, each item
starts when the previous one returned.

Untraced (``--trace 0``): passes repeat while the next one, at the median
pass time so far, is predicted to end within ``--seconds``; the first pass
always runs. Traced (``--trace 1``): untraced passes for the
first half of the time (for the overhead figure), then traced passes under
the same rule; each loop runs at least one pass. ``--setup-only`` stops
after set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    """Import puiseuxpath from this checkout's src, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import puiseuxpath

    where = Path(puiseuxpath.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"puiseuxpath was imported from {where}, "
                          f"not from {SRC}")


def run_pass(items, first: dict, failures: list, pass_no: int,
             tracer=None) -> tuple[float, list]:
    """One closed-loop pass; returns its wall time and the outcomes.

    A raised exception, a failed output check or an observable output that
    differs from the item's first pass counts as one failed item.
    """
    from workloads import Outcome

    outcomes = []
    t0 = time.perf_counter()
    for item in items:
        if tracer is not None:
            tracer.item = f"{pass_no}:{item.label}"
        try:
            oc = item.run()
        except Exception as err:  # a failed item must not end the run
            oc = Outcome("", f"{type(err).__name__}: {err}")
        if oc.problem is None:
            seen = first.setdefault(item.label, oc.observable)
            if seen != oc.observable:
                oc = oc._replace(problem="output differs from the first pass")
        if oc.problem is not None:
            failures.append(f"pass {pass_no} {item.label}: {oc.problem}")
        outcomes.append(oc)
    return time.perf_counter() - t0, outcomes


def run_loop(items, seconds: float, first: dict, failures: list,
             start_no: int, tracer=None, t_start=None):
    """Passes until ``seconds`` from t_start; see the module docstring."""
    t_start = time.perf_counter() if t_start is None else t_start
    walls, outcomes = [], []
    while True:
        wall, oc = run_pass(items, first, failures, start_no + len(walls),
                            tracer)
        walls.append(wall)
        outcomes.append(oc)
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(walls) > seconds:
            return walls, outcomes


def _facts(outcomes_by_pass) -> dict:
    """Input properties read from the first pass's outputs."""
    facts = [oc.facts for oc in outcomes_by_pass[0] if oc.facts]
    out = {}
    if any("certified" in f for f in facts):
        routes: dict[str, int] = {}
        for f in facts:
            for r in f["routes"]:
                routes[r] = routes.get(r, 0) + 1
        out["certified"] = sum(f["certified"] for f in facts)
        out["canonical_coordinates"] = sum(f["coordinates"] for f in facts)
        out["routes"] = routes
        out["rho"] = [f["rho"] for f in facts]
    if any("deg_kept" in f for f in facts):
        out["deg_kept"] = sum(f["deg_kept"] for f in facts)
        out["curves"] = len(facts)
    if any("cap" in f for f in facts):
        out["guard_cap"] = max(f["cap"] for f in facts)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write traced spans here (JSON lines)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_program()
    import numpy

    from tracing import Tracer, per_layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    os.environ.update(workload.env)
    items = workload.build(args.seed)
    result = {"ready": time.monotonic(),
              "seed_used": workload.uses_seed,
              "numpy": numpy.__version__,
              "python": sys.version.split()[0]}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    first: dict[str, str] = {}
    failures: list[str] = []
    t_start = time.perf_counter()
    if args.trace:
        untraced, _ = run_loop(items, args.seconds / 2, first, failures, 0)
        tracer = Tracer()
        tracer.install()
        try:
            walls, outcomes = run_loop(items, args.seconds, first, failures,
                                       len(untraced), tracer, t_start)
        finally:
            tracer.uninstall()
        result["per_layer"] = per_layer_metrics(
            tracer, len(walls), sum(walls),
            statistics.median(walls) - statistics.median(untraced))
        if args.spans:
            tracer.write_spans(args.spans)
        passes = len(walls) + len(untraced)
    else:
        walls, outcomes = run_loop(items, args.seconds, first, failures, 0)
        passes = len(walls)
    result.update(
        walls=walls,
        attempted=passes * len(items),
        failed=len(failures),
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        facts=_facts(outcomes),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
