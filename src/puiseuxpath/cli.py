"""Command-line front end.

Subcommands:

* polygon    lower Newton polygon of a plane curve P(mu, V)
* expand     Puiseux branches of a plane curve at mu = 0
* rho-curve  reparametrization exponent of one coordinate from its curve
* trace      numeric central-path trace of an SDO instance
* rho-sdo    reparametrization exponent of an SDO instance
* verify     finite-difference boundedness check of t -> v(t^rho)

Every subcommand takes --format {text,json,csv}. Output is deterministic:
identical invocations produce byte-identical bytes on stdout. Exit codes:
0 success, 1 stdout closed before the output was written (e.g. piped
into head), 2 bad input (unknown flag, unparsable polynomial, missing
file), 3 a computation refused to finish (degree cap, iteration guard,
match ambiguity, solver failure); the message names the failing stage.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .curve import (
    expand_curve,
    match_branches,
    normalize_curve,
    rho_for_coordinate,
)
from .errors import InputError, PuiseuxPathError
from .pipeline import compute_rho_sdo
from .polynomials import parse_bipoly
from .puiseux import expand, newton_polygon, render_branch
from .sdo import (
    central_point,
    load_instance,
    mu_grid,
    trace_path,
    verify_reparametrization,
)

__all__ = ["main"]


def _print(out, *parts):
    out.write(" ".join(str(p) for p in parts) + "\n")


def _dump_json(out, payload):
    out.write(json.dumps(payload, indent=2) + "\n")


def _g(x) -> str:
    """Stable short rendering for floats in text tables."""
    return format(float(x), ".12g")


# ---------------------------------------------------------------------------
# curve-side commands


def cmd_polygon(args, out) -> int:
    p = parse_bipoly(args.poly)
    segments = newton_polygon(p)
    if args.format == "json":
        _dump_json(out, [
            {
                "j0": s.j0, "m0": int(s.m0), "j1": s.j1, "m1": int(s.m1),
                "gamma": str(s.gamma), "beta": str(s.beta),
                "edge_poly": s.edge_poly.render("T"),
            }
            for s in segments
        ])
    elif args.format == "csv":
        _print(out, "j0,m0,j1,m1,gamma,beta")
        for s in segments:
            _print(out, f"{s.j0},{s.m0},{s.j1},{s.m1},{s.gamma},{s.beta}")
    else:
        for s in segments:
            _print(out, f"edge ({s.j0},{s.m0}) -> ({s.j1},{s.m1})"
                        f"  gamma={s.gamma}  beta={s.beta}"
                        f"  edge_poly={s.edge_poly.render('T')}")
        _print(out, f"edges: {len(segments)}")
    return 0


def cmd_expand(args, out) -> int:
    p = parse_bipoly(args.poly)
    branches = expand(p, max_extra_terms=args.terms)
    if args.format == "json":
        _dump_json(out, [
            {"q": b.q, "exact": b.exact, "branch": render_branch(b)}
            for b in branches
        ])
    elif args.format == "csv":
        _print(out, "index,q,exact,branch")
        for i, b in enumerate(branches):
            _print(out, f"{i},{b.q},{int(b.exact)},{render_branch(b)}")
    else:
        for i, b in enumerate(branches):
            _print(out, f"[{i}] {render_branch(b)}")
        _print(out, f"branches: {len(branches)}")
    return 0


def cmd_rho_curve(args, out) -> int:
    p = parse_bipoly(args.poly)
    nc = normalize_curve(p)
    branches = expand_curve(nc, max_extra_terms=args.terms)
    matched = match_branches(branches, args.limit, tol=args.tol,
                             theta=nc.theta)
    rho_i = rho_for_coordinate(matched)
    flags = ["matched" if b in matched else "-" for b in branches]
    if args.format == "json":
        _dump_json(out, {
            "rho_i": rho_i,
            "limit": str(args.limit),
            "branches": [
                {"q": b.q, "matched": f == "matched",
                 "branch": render_branch(b)}
                for b, f in zip(branches, flags)
            ],
        })
    elif args.format == "csv":
        _print(out, "index,q,matched,branch")
        for i, (b, f) in enumerate(zip(branches, flags)):
            _print(out, f"{i},{b.q},{int(f == 'matched')},{render_branch(b)}")
        _print(out, f"rho_i = {rho_i}")
    else:
        for i, (b, f) in enumerate(zip(branches, flags)):
            _print(out, f"[{i}] {render_branch(b)}  {f}")
        _print(out, f"rho_i = {rho_i}")
    return 0


# ---------------------------------------------------------------------------
# instance-side commands


def _trace_of(args):
    inst = load_instance(args.instance)
    return inst, trace_path(inst, args.mu_start, args.mu_end, args.ratio,
                            tol=args.tol)


def cmd_trace(args, out) -> int:
    if args.rho is not None and args.rho < 1:
        raise InputError("--rho must be a positive integer")
    if args.format == "csv" and args.rho is not None:
        # plot data for the reparametrized path t -> v(t^rho): solve at
        # t^rho for t on the trace's geometric grid
        inst = load_instance(args.instance)
        points, warm, head = [], None, "t"
        for t in mu_grid(args.mu_start, args.mu_end, args.ratio, args.tol):
            warm = central_point(inst, t ** args.rho, tol=args.tol, start=warm)
            points.append((t, warm))
    else:
        inst, tr = _trace_of(args)
        points, head = [(s.mu, s) for s in tr.samples], "mu"
    labels = inst.coordinate_labels()
    if args.format == "csv":
        _print(out, ",".join([head]
                             + [f"coord_{i}" for i in range(inst.dim)]
                             + ["residual"]))
        for x, s in points:
            row = [repr(float(x))]
            row += [repr(float(v)) for v in s.coords]
            row.append(repr(float(s.residual)))
            _print(out, ",".join(row))
    elif args.format == "json":
        _dump_json(out, {
            "instance": inst.name,
            "mus": [float(s.mu) for s in tr.samples],
            "limits": {labels[i]: float(tr.limits[i])
                       for i in range(inst.dim)},
            "widths": {labels[i]: float(tr.widths[i])
                       for i in range(inst.dim)},
            "orders": {labels[i]: (str(q) if q is not None else None)
                       for i, q in sorted(tr.order_estimates.items())},
        })
    else:
        _print(out, f"instance {inst.name}: n={inst.n} m={inst.m}"
                    f" samples={len(tr.samples)}"
                    f" mu={_g(tr.samples[0].mu)}..{_g(tr.samples[-1].mu)}")
        _print(out, f"{'coordinate':<12} {'limit':>18} {'width':>12} order")
        for i in range(inst.dim):
            q = tr.order_estimates.get(i)
            _print(out, f"{labels[i]:<12} {_g(tr.limits[i]):>18}"
                        f" {_g(tr.widths[i]):>12}"
                        f" {q if q is not None else '-'}")
    return 0


def cmd_rho_sdo(args, out) -> int:
    inst, tr = _trace_of(args)
    report = compute_rho_sdo(inst, trace=tr)
    if args.format == "json":
        _dump_json(out, {"instance": inst.name, **report.as_dict()})
    elif args.format == "csv":
        _print(out, "label,route,rho_i,order,curve")
        for d in report.details:
            _print(out, ",".join([
                d["label"], d["route"], str(d["rho_i"]),
                d.get("order") or "-", d.get("curve", "-").replace(",", ";"),
            ]))
        _print(out, f"rho = {report.rho}")
    else:
        _print(out, f"{'coordinate':<12} {'route':<10} {'rho_i':>5}  curve")
        for d in report.details:
            _print(out, f"{d['label']:<12} {d['route']:<10}"
                        f" {d['rho_i']:>5}  {d.get('curve', '-')}")
        _print(out, f"rho = {report.rho}")
        _print(out, f"note: {report.optimality_note}")
    return 0


def cmd_verify(args, out) -> int:
    inst = load_instance(args.instance)
    report = verify_reparametrization(inst, args.rho,
                                      window=tuple(args.window),
                                      tol=args.tol)
    verdict = "bounded" if report.bounded else "unbounded"
    worst = [i for i, ok in enumerate(report.coordinate_bounded) if not ok]
    labels = inst.coordinate_labels()
    if args.format == "json":
        _dump_json(out, {
            "instance": inst.name,
            "rho": report.rho,
            "bounded": report.bounded,
            "unbounded_coordinates": [labels[i] for i in worst],
            "growth": {labels[i]: float(report.growth[i])
                       for i in range(inst.dim)},
            "t_levels": [float(t) for t in report.t_levels],
        })
    elif args.format == "csv":
        _print(out, "level,t,max_d1,max_d2")
        for lvl, t in enumerate(report.t_levels):
            _print(out, f"{lvl},{repr(float(t))},"
                        f"{repr(float(report.d1[lvl].max()))},"
                        f"{repr(float(report.d2[lvl].max()))}")
        _print(out, f"verdict: {verdict}")
    else:
        _print(out, f"rho = {report.rho}  levels = {len(report.t_levels)}")
        _print(out, f"{'level':<6} {'t':>12} {'max|d1|':>14} {'max|d2|':>14}")
        for lvl, t in enumerate(report.t_levels):
            _print(out, f"{lvl:<6} {_g(t):>12}"
                        f" {_g(report.d1[lvl].max()):>14}"
                        f" {_g(report.d2[lvl].max()):>14}")
        if worst:
            _print(out, "unbounded:",
                   " ".join(labels[i] for i in worst))
        _print(out, f"verdict: {verdict}")
    return 0


# ---------------------------------------------------------------------------
# wiring


def _rational(text: str) -> Fraction:
    """An exact rational flag value; a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


# The largest --terms. A series costs more than its length: at 200 terms
# V^5 - 2*mu*V^2 + mu^3 took 83 s (README, Limits).
MAX_TERMS = 100
_TERMS_HELP = (f"extra series terms per branch, at most {MAX_TERMS}; expand at"
               f" {MAX_TERMS} takes about 0.3 s on V^2 - mu - mu^2 and 12 s on"
               " V^5 - 2*mu*V^2 + mu^3")


def _count(text: str) -> int:
    """A --terms value: an integer from 0 to MAX_TERMS."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {text!r}")
    if value > MAX_TERMS:
        raise argparse.ArgumentTypeError(
            f"must be at most {MAX_TERMS}: {text!r}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused after it."""
    top = argparse.ArgumentParser(
        prog="puiseuxpath",
        description="Puiseux expansions of plane curves and"
                    " reparametrization exponents of SDO central paths",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def fmt(p):
        p.add_argument("--format", choices=("text", "json", "csv"),
                       default="text", help="output format")

    p = sub.add_parser("polygon", help="lower Newton polygon of a curve")
    p.add_argument("--poly", required=True, help="polynomial in mu and V"
                   " (aliases X/T/Y accepted)")
    fmt(p)
    p.set_defaults(run=cmd_polygon)

    p = sub.add_parser("expand", help="Puiseux branches at mu = 0")
    p.add_argument("--poly", required=True)
    p.add_argument("--terms", type=_count, default=4, help=_TERMS_HELP)
    fmt(p)
    p.set_defaults(run=cmd_expand)

    p = sub.add_parser("rho-curve",
                       help="exponent for one coordinate curve")
    p.add_argument("--poly", required=True)
    p.add_argument("--limit", type=_rational, required=True,
                   help="observed coordinate limit (rational)")
    p.add_argument("--tol", type=_rational, default=Fraction(1, 10**6),
                   help="center matching tolerance")
    p.add_argument("--terms", type=_count, default=4, help=_TERMS_HELP)
    fmt(p)
    p.set_defaults(run=cmd_rho_curve)

    def grid(p):
        p.add_argument("--instance", required=True,
                       help="instance file or builtin name")
        p.add_argument("--mu-start", type=float, default=1.0)
        p.add_argument("--mu-end", type=float, default=1e-8)
        p.add_argument("--ratio", type=float, default=0.5)
        p.add_argument("--tol", type=float, default=1e-11)

    p = sub.add_parser("trace", help="trace the central path")
    grid(p)
    p.add_argument("--rho", type=int, default=None,
                   help="with --format csv, emit (t, v(t^rho)) plot data")
    fmt(p)
    p.set_defaults(run=cmd_trace)

    p = sub.add_parser("rho-sdo", help="exponent for an SDO instance")
    grid(p)
    fmt(p)
    p.set_defaults(run=cmd_rho_sdo)

    p = sub.add_parser("verify",
                       help="boundedness of d/dt v(t^rho) near t = 0")
    p.add_argument("--instance", required=True)
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--window", type=float, nargs=2, default=(1e-3, 0.25),
                   metavar=("LO", "HI"))
    p.add_argument("--tol", type=float, default=1e-14)
    fmt(p)
    p.set_defaults(run=cmd_verify)
    return top


def _discard_stdout() -> None:
    """Point the stdout descriptor at devnull, so the final flush succeeds."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    except (OSError, ValueError):
        pass  # a stdout without a descriptor has nothing left to flush
    finally:
        os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.run(args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe: the rest of the output is unwanted
        _discard_stdout()
        return 1
    except InputError as err:
        print(f"error [{err.component}]: {err}", file=sys.stderr)
        return 2
    except PuiseuxPathError as err:
        print(f"error [{err.component}]: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
