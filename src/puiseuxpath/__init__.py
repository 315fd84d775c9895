"""Exact Puiseux expansions of plane curves over Q and reparametrization
exponents for SDO central paths.

The package has two halves that meet in :func:`compute_rho_sdo`:

* exact arithmetic: polynomials over Q, algebraic numbers in dynamic
  field towers, Newton polygon / Puiseux expansion, curve normalization
  and ramification bookkeeping;
* numerics: a small interior-point central-path tracer with limit and
  convergence-order estimation, plus exact coordinate elimination
  validated against the traced path.
"""

from .curve import (
    NormalizedCurve,
    RhoReport,
    aggregate_rho,
    expand_curve,
    limit_center,
    match_branches,
    normalize_curve,
    rho_for_coordinate,
)
from .elimination import canonical_coordinates, central_system, eliminate_coordinate
from .errors import InputError, PuiseuxPathError
from .pipeline import compute_rho_sdo
from .polynomials import BiPoly, UniPoly, parse_bipoly, render_bipoly
from .puiseux import (
    Branch,
    PolygonSegment,
    expand,
    newton_polygon,
    reconstruct_residual,
    render_branch,
)
from .sdo import (
    SDOInstance,
    builtin_instance,
    central_point,
    fit_order,
    fit_order_raw,
    load_instance,
    trace_path,
    verify_reparametrization,
)

__all__ = [
    "BiPoly",
    "Branch",
    "InputError",
    "NormalizedCurve",
    "PolygonSegment",
    "PuiseuxPathError",
    "RhoReport",
    "SDOInstance",
    "UniPoly",
    "aggregate_rho",
    "builtin_instance",
    "canonical_coordinates",
    "central_point",
    "central_system",
    "compute_rho_sdo",
    "eliminate_coordinate",
    "expand",
    "expand_curve",
    "fit_order",
    "fit_order_raw",
    "limit_center",
    "load_instance",
    "match_branches",
    "newton_polygon",
    "normalize_curve",
    "parse_bipoly",
    "reconstruct_residual",
    "render_bipoly",
    "render_branch",
    "rho_for_coordinate",
    "trace_path",
    "verify_reparametrization",
]

__version__ = "0.1.0"
