"""Curve-level pipeline around the expansion engine.

Takes a raw defining polynomial P(mu, V), prepares it so the expansion
near mu = 0 sees only bounded simple roots, matches branch centers against
an observed coordinate limit (``AlgebraicNumber.within`` decides each
one), and turns ramification indices into the reparametrization exponent
rho.
"""

import math
from fractions import Fraction

from .algebraic import AlgebraicNumber, rational_number
from .errors import (
    ComputationError,
    DegenerateInputError,
    InputError,
    NoMatchError,
)
from .polynomials import BiPoly, UniPoly
from .puiseux import Branch, expand

__all__ = [
    "NormalizedCurve",
    "RhoReport",
    "aggregate_rho",
    "expand_curve",
    "limit_center",
    "match_branches",
    "normalize_curve",
    "rho_for_coordinate",
]

DEFAULT_MATCH_TOL = Fraction(1, 10**6)


class NormalizedCurve:
    """A curve prepared for expansion.

    ``normalized`` is primitive (see ``BiPoly.primitive``), square-free
    in V, and all of its roots near mu = 0 are bounded.  ``theta`` and
    ``alpha`` record the rescale V -> V/mu^theta (cleared by mu^alpha)
    that bounded the roots, so a root s(mu) of ``normalized``
    corresponds to the original root s(mu)/mu^theta.
    """

    __slots__ = ("original", "normalized", "theta", "alpha")

    def __init__(self, original: BiPoly, normalized: BiPoly, theta: int,
                 alpha: int):
        self.original = original
        self.normalized = normalized
        self.theta = theta
        self.alpha = alpha

    def __repr__(self):
        return f"NormalizedCurve(theta={self.theta}, alpha={self.alpha})"


class RhoReport:
    """Per-coordinate ramification data and the aggregate exponent.

    ``per_coordinate`` holds (coordinate index, matched branches, rho_i)
    triples; ``rho`` is their lcm. From ``compute_rho_sdo`` the matched
    branches stop where their q is settled, with further series terms
    only where they were needed to reach exponent theta.

    ``optimality_note`` is "irreducible-certified" when every matched
    branch of each coordinate has one q, so every exponent is exactly the
    local ramification index, "product-fallback" when some exponent is
    only a feasible product of candidate indices, and
    "order-fit-heuristic" when any coordinate had to fall back on a
    numeric decay fit with no exact curve behind it.

    ``details`` is optional per-coordinate bookkeeping (route taken, limit,
    cross-checks) attached by the instance-level pipeline.
    """

    __slots__ = ("per_coordinate", "rho", "optimality_note", "details")

    def __init__(self, per_coordinate, rho: int, optimality_note: str,
                 details=None):
        self.per_coordinate = tuple(per_coordinate)
        self.rho = rho
        self.optimality_note = optimality_note
        self.details = details

    def as_dict(self) -> dict:
        out = {
            "rho": self.rho,
            "optimality_note": self.optimality_note,
            "coordinates": [
                {
                    "index": idx,
                    "q": sorted(b.q for b in matched),
                    "rho_i": rho_i,
                }
                for idx, matched, rho_i in self.per_coordinate
            ],
        }
        if self.details is not None:
            out["details"] = self.details
        return out

    def __repr__(self):
        return f"RhoReport(rho={self.rho}, note={self.optimality_note})"


def _mu_shift(p: UniPoly, s: int) -> UniPoly:
    if s >= 0:
        return p.shift(s)
    return p.exact_div(UniPoly((0,) * (-s) + (1,)))


def normalize_curve(p: BiPoly) -> NormalizedCurve:
    """Content removal, boundedness rescale, and square-free part.

    The rescale exponent theta is the smallest nonnegative integer such
    that mu^alpha P(mu, V/mu^theta) is a polynomial whose leading
    V-coefficient has a nonzero constant term (alpha is then forced).
    That condition keeps every root of the result bounded as mu -> 0.
    """
    if p.is_zero() or p.deg_v < 1:
        raise DegenerateInputError(
            "normalization needs a curve of positive degree in V"
        )
    q = p.primitive()
    d = q.deg_v
    orders = {
        j: q.coeff_v(j).order()
        for j in range(d + 1)
        if not q.coeff_v(j).is_zero()
    }
    od = orders[d]
    theta = max(
        0,
        math.ceil(Fraction(od, d)),
        *(
            math.ceil(Fraction(od - oj, d - j))
            for j, oj in orders.items()
            if j < d
        ),
    )
    alpha = theta * d - od
    if theta or alpha:
        q = BiPoly(
            [_mu_shift(q.coeff_v(j), alpha - j * theta) for j in range(d + 1)]
        )
    return NormalizedCurve(p, q.separable_part(), theta, alpha)


def _covers_theta(b: Branch, theta: int) -> bool:
    if theta == 0 or b.exact:
        return True
    return bool(b.terms) and b.terms[-1][0] >= theta


def expand_curve(nc: NormalizedCurve,
                 max_extra_terms: int = 4) -> list[Branch]:
    """Expand the normalized curve far enough to read original limits.

    The curve is expanded once with max_extra_terms terms past each
    branch's simple root. When theta > 0 the original coordinate limit is
    the series coefficient at exponent theta, so every non-terminating
    branch must be computed at least that far; while one falls short, the
    budget doubles (from 1 when it was 0), up to seven doublings past the
    larger of 4 and max_extra_terms.

    Extra terms never change a branch's q. Once the root is simple, the
    lcm of the exponent denominators equals the grid scale: a segment of
    slope u/w in lowest terms adds an exponent whose numerator is prime
    to w, and every later term lies on that grid. So 0 extra terms gives
    the same branches, q, multiplicities, centers and iterations_used as
    any other budget; only the series length and a termination seen
    within it (``exact``) differ. At theta = 0 matching reads only the
    first term. A negative max_extra_terms raises InputError from expand.
    """
    k = max_extra_terms
    last = max(4, k) << 7
    while True:
        branches = expand(nc.normalized, max_extra_terms=k)
        if all(_covers_theta(b, nc.theta) for b in branches):
            return branches
        if k >= last:
            raise ComputationError(
                f"branch series did not reach exponent theta={nc.theta} "
                f"within {k} extra terms"
            )
        k = max(1, 2 * k)


def limit_center(branch: Branch, theta: int = 0) -> AlgebraicNumber | None:
    """Limit of the original coordinate mu^-theta s(mu), None if unbounded.

    The series exponents increase, so a leading exponent below theta means
    the original root blows up; otherwise the limit is the coefficient at
    exponent theta (zero when the series skips it).
    """
    if branch.terms and branch.terms[0][0] < theta:
        return None
    for e, c in branch.terms:
        if e == theta:
            return c
        if e > theta:
            return rational_number(0, branch.tower)
    if branch.exact:
        return rational_number(0, branch.tower)
    raise ComputationError(
        "branch series truncated before the rescale exponent; "
        "expand with more terms"
    )


def _as_interval(limit_value) -> tuple[Fraction, Fraction]:
    if isinstance(limit_value, (tuple, list)):
        lo, hi = Fraction(limit_value[0]), Fraction(limit_value[1])
    else:
        lo = hi = Fraction(limit_value)
    if lo > hi:
        lo, hi = hi, lo
    return lo, hi


def match_branches(branches, limit_value, tol=DEFAULT_MATCH_TOL,
                   theta: int = 0) -> list[Branch]:
    """Branches whose center can sit within tol of the limit interval.

    Centers are taken in original coordinates (exponent-theta coefficient);
    unbounded branches never match.  A center whose enclosure straddles the
    tolerance boundary after full refinement raises rather than guessing.
    """
    lo, hi = _as_interval(limit_value)
    tol = Fraction(tol)
    if tol < 0:
        raise InputError("tolerance must be nonnegative")
    out = []
    for b in branches:
        c = limit_center(b, theta)
        if c is not None and c.within(lo, hi, tol):
            out.append(b)
    return out


def is_irreducible_over_Cmu(nc: NormalizedCurve, branches) -> bool:
    """Full-degree ramification of one branch certifies irreducibility.

    A degree-d curve splits over the Puiseux field into branches whose
    conjugate counts sum to d, so q = d forces a single orbit. The
    pipeline certifies by its one-q rule instead, which covers this case
    because such a branch is the only one to match; the function is kept
    because the perfbench tracer wraps it by name.
    """
    d = nc.normalized.deg_v
    return any(b.q == d for b in branches)


def rho_for_coordinate(matched) -> int:
    """Product of the distinct ramification indices among matched branches."""
    matched = list(matched)
    if not matched:
        raise NoMatchError(
            "no branch center matched the coordinate limit; "
            "check the limit estimate or loosen the tolerance"
        )
    return math.prod(sorted({b.q for b in matched}))


def aggregate_rho(per_coordinate) -> int:
    """lcm of the per-coordinate exponents."""
    values = [int(v) for v in per_coordinate]
    if not values:
        raise ValueError("aggregate_rho needs at least one coordinate")
    return math.lcm(*values)
