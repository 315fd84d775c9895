"""Self-test of the benchmark: tracing must change nothing observable.

    python3 perfbench/selftest.py

1. Self-time arithmetic on a synthetic span set with a recursive span
   (central_point calling itself, as its bridge does).
2. The tracer wraps every binding of each layer function and restores
   them all; a real central_point bridge nests under its caller.
3. For each workload, a traced run with no time budget makes one untraced
   and one traced pass; CLI stdout, branch renderings and guard messages
   must be identical and every output check must pass. This step takes
   about two minutes.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracing import LAYERS, PACKAGE, Tracer, per_layer_metrics, self_times  # noqa: E402


def check_arithmetic() -> None:
    spans = [
        ["cli.main", 0.0, 10.0, -1, "a"],
        ["sdo.trace_path", 1.0, 6.0, 0, "a"],
        ["sdo.central_point", 1.5, 5.0, 1, "a"],
        ["sdo.central_point", 2.0, 3.0, 2, "a"],  # bridge, nested
        ["sdo.central_point", 3.0, 4.5, 2, "a"],  # bridge, nested
        ["sdo.fit_order", 7.0, 8.0, 0, "a"],
        ["puiseux.expand", 11.0, 12.0, -1, "b"],
    ]
    own, calls, roots = self_times(spans)
    expected = {"cli.main": 4.0, "sdo.trace_path": 1.5,
                "sdo.central_point": 3.5, "sdo.fit_order": 1.0,
                "puiseux.expand": 1.0}
    assert dict(own) == expected, own
    assert calls["sdo.central_point"] == 3, calls
    assert roots == 11.0 and sum(own.values()) == roots

    tracer = Tracer()
    tracer.spans.extend(spans)
    m = per_layer_metrics(tracer, passes=2, traced_wall=13.0, overhead_s=0.5)
    assert m["sdo.central_point.self_s"] == 1.75, m
    assert m["sdo.central_point.calls"] == 1.5, m
    assert m["other.self_s"] == 1.0, m
    assert m["trace.overhead_s"] == 0.5 and m["trace.passes"] == 2, m


def _bindings(original) -> list[tuple[str, str]]:
    return [(name, key) for name, mod in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
            for key, value in vars(mod).items() if value is original]


def check_install() -> None:
    import puiseuxpath.cli  # noqa: F401  (load every module that binds)
    from puiseuxpath import polynomials, sdo

    originals = {}
    for mod_name, attr in LAYERS:
        owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        originals[(mod_name, attr)] = (owner, leaf, vars(owner)[leaf])
    before = {k: _bindings(fn) for k, (_, _, fn) in originals.items()}
    assert before[("sdo", "fit_order")], before

    tracer = Tracer()
    tracer.install()
    try:
        for key, (owner, leaf, fn) in originals.items():
            assert _bindings(fn) == [], (key, _bindings(fn))
            assert vars(owner)[leaf] is not fn, key
        assert polynomials.BiPoly.gcd.__wrapped__ is originals[
            ("polynomials", "BiPoly.gcd")][2]
        sdo.central_point(sdo.builtin_instance("identity_3"), 1e-3)
    finally:
        tracer.uninstall()
    after = {k: _bindings(fn) for k, (_, _, fn) in originals.items()}
    assert after == before, "uninstall did not restore every binding"

    names = [s[0] for s in tracer.spans]
    assert names.count("sdo.central_point") >= 3, names
    outer = names.index("sdo.central_point")
    nested = [s for s in tracer.spans[outer + 1:] if s[3] == outer]
    assert nested and all(s[0] == "sdo.central_point" for s in nested), nested


def check_workloads() -> list[str]:
    """A traced run with no time budget: one untraced, one traced pass.

    Both passes share the byte-identity check, so any output that tracing
    changed is reported as a failed item.
    """
    problems = []
    for name in run.WORKLOAD_NAMES:
        report = run.measure(name, run.DEFAULT_SEED, 0, trace=1)
        print(f"{name}: {report['attempted']} items,"
              f" failures {report['failures']}", flush=True)
        if report["failed"]:
            problems.append(name)
    return problems


def main() -> int:
    if not __debug__:
        raise SystemExit("run without -O: the checks are assert statements")
    check_arithmetic()
    print("self-time arithmetic: ok", flush=True)
    check_install()
    print("tracer install/uninstall and recursive nesting: ok", flush=True)
    problems = check_workloads()
    if problems:
        print("traced and untraced runs differ on: " + ", ".join(problems))
        return 1
    print("traced and untraced runs agree on every workload")
    return 0


if __name__ == "__main__":
    sys.exit(main())
