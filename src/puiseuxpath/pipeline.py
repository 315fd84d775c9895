"""End-to-end reparametrization exponent for SDO instances.

Glues the numeric tracer to the exact curve machinery: trace the central
path, eliminate each coordinate down to a plane curve, expand the curve at
mu = 0, keep the branches whose centers sit inside the traced limit
interval, and fold the ramification indices into one exponent rho such
that mu -> v(mu^rho) is analytic at mu = 0.

Coordinates that never move contribute rho_i = 1 without any symbolic
work.  When elimination blows past the degree cap the coordinate falls
back on the fitted decay order (rho_i = its denominator), and the report
is downgraded to "order-fit-heuristic" because nothing exact backs it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .curve import (
    RhoReport,
    aggregate_rho,
    expand_curve,
    match_branches,
    normalize_curve,
    rho_for_coordinate,
)
from .elimination import (
    canonical_coordinates,
    eliminate_coordinate,
    release_resultants,
)
from .errors import (
    ConstantCoordinateError,
    EliminationBlowUpError,
    ExtraneousVanishingError,
    InsufficientSamplesError,
    PuiseuxPathError,
)
from .polynomials import BiPoly, render_bipoly
from .sdo import SDOInstance, TraceResult, fit_order, trace_path

__all__ = ["compute_rho_sdo"]

# Limit intervals narrower than this are widened before matching; the
# extrapolated limit is only good to solver tolerance anyway.
_MIN_HALF_WIDTH = 1e-9


def _attribute(err: PuiseuxPathError, label: str) -> PuiseuxPathError:
    err.args = (f"coordinate {label}: {err.args[0]}",) if err.args else (
        f"coordinate {label}",)
    return err


def compute_rho_sdo(
    inst: SDOInstance,
    trace: TraceResult | None = None,
    curves: dict[int, BiPoly] | None = None,
) -> RhoReport:
    """Compute the reparametrization exponent of inst's central path.

    trace defaults to trace_path(inst).  curves maps a coordinate index
    to a user-supplied polynomial vanishing on that coordinate's graph,
    bypassing elimination there (the validation gate still applies
    through the matching step).  Only the canonical coordinates (upper
    triangle of X, y, upper triangle of S) are processed; the rest are
    mirror images.

    Equal curves, which for eliminants means equal up to a factor in
    Q[mu], are normalized and expanded once per call: coordinates often
    share one, and only matching against each limit is repeated. The
    instance's resultant memo is released when the call returns or raises.

    Each curve is expanded with no terms past a branch's simple root
    (more only where theta > 0 asks for them): a simple root settles q,
    and matching reads only q and the center at exponent theta, so later
    terms change nothing here (see ``expand_curve``). The matched
    branches in ``per_coordinate`` therefore stop at that point.

    Returns a RhoReport whose details list one dict per canonical
    coordinate: route taken ("constant", "eliminated", "supplied",
    "order-fit"), traced limit and interval width, fitted decay order,
    rho_i, and the order-vs-ramification cross-check. A coordinate is
    certified only when its matched branches share one q and, where an
    order was fitted, that order's denominator divides q.
    """
    try:
        return _compute_rho_sdo(inst, trace, curves)
    finally:
        release_resultants(inst)


def _compute_rho_sdo(inst, trace, curves) -> RhoReport:
    if trace is None:
        trace = trace_path(inst)
    labels = inst.coordinate_labels()

    per_coordinate = []
    details = []
    expansions: dict[BiPoly, tuple] = {}
    any_fallback = False
    all_certified = True

    for i in canonical_coordinates(inst):
        label = labels[i]
        limit = float(trace.limits[i])
        width = float(trace.widths[i])
        entry = {"index": i, "label": label, "limit": limit, "width": width}

        try:
            order = fit_order(trace, i)
        except ConstantCoordinateError:
            entry.update(route="constant", order=None, rho_i=1,
                         certified=True, cross_check=None)
            per_coordinate.append((i, (), 1))
            details.append(entry)
            continue
        except InsufficientSamplesError:
            order = None
        entry["order"] = str(order) if order is not None else None

        supplied = curves.get(i) if curves else None
        if supplied is not None:
            P = supplied
            route = "supplied"
        else:
            try:
                P = eliminate_coordinate(inst, i, trace=trace)
                route = "eliminated"
            except (EliminationBlowUpError, ExtraneousVanishingError) as err:
                if order is None:
                    raise _attribute(err, label)
                # no exact curve in reach: trust the fitted decay order
                any_fallback = True
                entry.update(route="order-fit", rho_i=order.denominator,
                             certified=False, cross_check=None,
                             exact_failure=str(err))
                per_coordinate.append((i, (), order.denominator))
                details.append(entry)
                continue

        try:
            expansion = expansions.get(P)
            if expansion is None:
                nc = normalize_curve(P)
                expansion = expansions[P] = nc, expand_curve(
                    nc, max_extra_terms=0)
            nc, branches = expansion
            lim = Fraction(limit)
            half = Fraction(max(width, _MIN_HALF_WIDTH))
            matched = match_branches(branches, (lim - half, lim + half),
                                     theta=nc.theta)
            rho_i = rho_for_coordinate(matched)
        except PuiseuxPathError as err:
            raise _attribute(err, label)

        # the path's branch is among the matched ones, so one shared q
        # is its ramification index
        certified = len({b.q for b in matched}) == 1

        cross = None
        if order is not None:
            q_lcm = math.lcm(*(b.q for b in matched))
            ok = q_lcm % order.denominator == 0
            # a decay order the curve cannot produce: the curve or the
            # trace is off, and nothing is certified
            certified = certified and ok
            cross = (f"fit order {order}: denominator "
                     f"{'divides' if ok else 'DOES NOT divide'} "
                     f"matched index lcm {q_lcm}")
        all_certified = all_certified and certified
        entry.update(route=route, rho_i=rho_i, certified=certified,
                     cross_check=cross, curve=render_bipoly(P))
        per_coordinate.append((i, tuple(matched), rho_i))
        details.append(entry)

    rho = aggregate_rho([r for _, _, r in per_coordinate])
    if any_fallback:
        note = "order-fit-heuristic"
    elif all_certified:
        note = "irreducible-certified"
    else:
        note = "product-fallback"
    return RhoReport(per_coordinate, rho, note, details=details)
