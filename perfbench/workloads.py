"""The four benchmark workloads: inputs, the calls they make, output checks.

Each workload builds a list of items from the seed. An item's ``run``
calls into puiseuxpath and returns an Outcome: the observable output
(CLI stdout, branch renderings or a guard message), a problem string when
the output check failed, and facts read from the output. The runner adds
one more check: an item's observable output must be byte-identical in
every pass.

Library calls go through module attributes (``curve.normalize_curve``, not
a name bound here) so that a traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from typing import Callable, NamedTuple

from puiseuxpath import cli, curve, puiseux
from puiseuxpath.errors import IterationGuardError
from puiseuxpath.polynomials import BiPoly, parse_bipoly

AC9_SEED = 20240817
BUILTIN_RHO = {"identity_3": 1, "elliptope_3": 2, "kl02_3": 2, "kl02_4": 4,
               "kl02_5": 8}
CURVE_COUNT = 60
GUARD_CURVE = "(V^2 - mu - mu^2)^2"
_NONZERO = [c for c in range(-10, 11) if c]


class Outcome(NamedTuple):
    observable: str
    problem: str | None = None
    facts: dict | None = None


class Item(NamedTuple):
    label: str
    run: Callable[[], Outcome]


class Workload(NamedTuple):
    name: str
    env: dict
    uses_seed: bool
    build: Callable[[int], list]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """cli.main in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def _rho_sdo(instance: str) -> tuple[str, str | None, dict]:
    code, out, err = run_cli(["rho-sdo", "--instance", instance,
                              "--format", "json"])
    if code != 0:
        return out, f"rho-sdo exit {code}: {err.strip()}", {}
    report = json.loads(out)
    details = report["details"]
    facts = {
        "rho": report["rho"],
        "certified": sum(1 for d in details if d["certified"]),
        "coordinates": len(details),
        "routes": [d["route"] for d in details],
    }
    if report["rho"] != BUILTIN_RHO[instance]:
        return out, (f"rho {report['rho']}, expected "
                     f"{BUILTIN_RHO[instance]}"), facts
    return out, None, facts


def _sdo_builtin_item(instance: str) -> Outcome:
    out, problem, facts = _rho_sdo(instance)
    if problem:
        return Outcome(out, problem, facts)
    code, vout, err = run_cli(["verify", "--instance", instance,
                               "--rho", str(facts["rho"])])
    if code != 0:
        return Outcome(out + vout, f"verify exit {code}: {err.strip()}", facts)
    if not vout.endswith("verdict: bounded\n"):
        return Outcome(out + vout, "verify did not print bounded", facts)
    return Outcome(out + vout, None, facts)


def _sdo_exact_item() -> Outcome:
    return Outcome(*_rho_sdo("kl02_4"))


def sdo_builtin(seed: int) -> list[Item]:
    return [Item(name, lambda name=name: _sdo_builtin_item(name))
            for name in BUILTIN_RHO]


def sdo_exact(seed: int) -> list[Item]:
    return [Item("kl02_4", _sdo_exact_item)]


def ac9_supports(count: int) -> list[list[tuple[int, int]]]:
    """Supports of the first ``count`` curves of the AC9 generator."""
    rng = random.Random(AC9_SEED)
    out = []
    while len(out) < count:
        d = {}
        for _ in range(rng.randint(3, 6)):
            d[(rng.randint(0, 8), rng.randint(0, 8))] = rng.choice(_NONZERO)
        if max(j for j, _ in d) < 1:
            continue  # AC9 skips curves without V
        out.append(sorted(d))
    return out


def random_curves(seed: int, count: int = CURVE_COUNT) -> list[BiPoly]:
    """AC9's sparse supports with coefficients drawn from ``seed``.

    The supports (3-6 terms, degrees <= 8) are those of the AC9 suite; the
    coefficients are fresh draws from +-1..+-10. Cost depends mostly on the
    support, so runs with different seeds measure comparable work.
    """
    rng = random.Random(seed)
    return [BiPoly.from_dict({m: Fraction(rng.choice(_NONZERO)) for m in s})
            for s in ac9_supports(count)]


def _curve_item(p: BiPoly) -> Outcome:
    nc = curve.normalize_curve(p)
    branches = curve.expand_curve(nc)
    rendered = "\n".join(puiseux.render_branch(b) for b in branches)
    total = sum(b.conjugate_count * b.multiplicity for b in branches)
    facts = {"deg_kept": nc.normalized.deg_v == p.deg_v}
    if total != nc.normalized.deg_v:
        return Outcome(rendered, (f"branches cover {total} roots, normalized"
                                  f" deg_V is {nc.normalized.deg_v}"), facts)
    return Outcome(rendered, None, facts)


def curves(seed: int) -> list[Item]:
    return [Item(f"curve{k}", lambda p=p: _curve_item(p))
            for k, p in enumerate(random_curves(seed))]


def _guard_item(p: BiPoly) -> Outcome:
    cap = 4 * p.deg_mu * p.deg_v ** 2
    try:
        branches = puiseux.expand(p)
    except IterationGuardError as err:
        msg = str(err)
        facts = {"cap": cap}
        if f"the {cap}-substitution budget" not in msg:
            return Outcome(msg, f"guard message does not name {cap}", facts)
        return Outcome(msg, None, facts)
    return Outcome(f"{len(branches)} branches",
                   "expand returned instead of tripping the guard")


def guard(seed: int) -> list[Item]:
    p = parse_bipoly(GUARD_CURVE)
    return [Item("guard", lambda: _guard_item(p))]


WORKLOADS = {
    w.name: w for w in (
        Workload("sdo-builtin", {}, False, sdo_builtin),
        Workload("sdo-exact", {"PUISEUXPATH_DEGREE_CAP": "100000"}, False, sdo_exact),
        Workload("curves", {}, True, curves),
        Workload("guard", {}, False, guard),
    )
}
