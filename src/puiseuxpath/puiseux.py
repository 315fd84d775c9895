"""Newton polygons and Puiseux expansions of plane curves over Q.

The expansion engine follows the classical polygon iteration: pick a
segment of slope gamma, take a root a of its edge polynomial, substitute
V = mu^gamma (a + V') and repeat on the renormalized polynomial.  Working
exponents are kept as exact fractions on a common grid (1/L)Z instead of
rescaling the parameter, so every recorded exponent is an exponent of the
actual series in mu.  Once the working root becomes simple the branch is
analytic in mu^(1/q) with q = lcm of the exponent denominators seen so
far, and up to ``max_extra_terms`` more terms are collected by linear
steps; with none, a branch stops where its q is settled.

The iteration is one loop over an explicit stack of open polygon nodes,
so a repeated factor, whose root keeps multiplicity 2 until the guard
stops it, never deepens the interpreter stack.  Branches come out depth
first: segments by increasing gamma, and on each segment the edge roots
in ``AlgebraicNumber.order_key`` order.  ``render_branch`` prints each
coefficient with ``AlgebraicNumber.render``, as certified digits.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebraic import (
    AlgebraicNumber,
    FieldTower,
    el_add,
    el_div,
    el_from_rational,
    el_is_zero,
    el_lift,
    el_mul,
    el_neg,
    el_one,
    el_scale,
    el_zero,
    nth_root_representative,
    rational_number,
    roots_with_multiplicity,
)
from .errors import (
    DegenerateInputError,
    ExpansionError,
    InputError,
    IterationGuardError,
)
from .polynomials import BiPoly, UniPoly, lower_hull

__all__ = [
    "Branch",
    "PolygonSegment",
    "expand",
    "newton_polygon",
    "reconstruct_residual",
    "render_branch",
]


# ---------------------------------------------------------------------------
# sparse series in mu with tower coefficients
#
# Exponents are stored as integers in units of 1/L for a per-node scale L,
# so dictionary keys stay cheap to hash and the polygon hull is pure
# integer geometry.  Picking a segment of denominator w refines the grid
# to L*w, which is the same bookkeeping as substituting mu -> mu^w in the
# classical algorithm.


def gp_from_unipoly(p: UniPoly, depth: int, scale: int = 1) -> dict:
    return {
        k * scale: el_from_rational(depth, c)
        for k, c in enumerate(p.c)
        if c != 0
    }


def gp_lift(a: dict, from_depth: int, to_depth: int) -> dict:
    if from_depth == to_depth:
        return a
    return {e: el_lift(c, from_depth, to_depth) for e, c in a.items()}


def gp_rescale(a: dict, f: int) -> dict:
    if f == 1:
        return a
    return {e * f: c for e, c in a.items()}


def gp_order(tw: FieldTower, depth: int, a: dict) -> int | None:
    """Smallest exponent with a nonzero coefficient; prunes zero entries."""
    for e in sorted(a):
        if el_is_zero(tw, depth, a[e]):
            del a[e]
        else:
            return e
    return None


def gp_is_zero(tw: FieldTower, depth: int, a: dict) -> bool:
    return gp_order(tw, depth, a) is None


def gp_coeff(tw: FieldTower, depth: int, a: dict, e: int):
    """Coefficient at exponent e, or None when absent or provably zero."""
    c = a.get(e)
    if c is None:
        return None
    if el_is_zero(tw, depth, c):
        del a[e]
        return None
    return c


# ---------------------------------------------------------------------------
# polygons


class PolygonSegment:
    """One edge of the lower Newton polygon.

    gamma is the candidate exponent (negated slope), beta the common value
    of m + gamma*j along the edge, and edge_poly collects the coefficients
    of the support points on the edge as a polynomial in T^(j - j0).
    """

    __slots__ = ("j0", "j1", "m0", "m1", "gamma", "beta", "edge_poly")

    def __init__(self, j0, m0, j1, m1, edge_poly):
        self.j0 = j0
        self.m0 = m0
        self.j1 = j1
        self.m1 = m1
        self.gamma = Fraction(m0 - m1, j1 - j0)
        self.beta = Fraction(m0) + self.gamma * j0
        self.edge_poly = edge_poly

    def __repr__(self):
        return (
            f"PolygonSegment(({self.j0},{self.m0})->({self.j1},{self.m1}), "
            f"gamma={self.gamma}, edge={self.edge_poly.render('T')})"
        )


def newton_polygon(p: BiPoly) -> list[PolygonSegment]:
    """Lower Newton polygon of p, segments ordered by increasing gamma.

    Points are (j, ord_mu p_j) over the V-degrees j with p_j != 0.  Raises
    DegenerateInputError when the support has fewer than two distinct
    V-degrees (a mu-scaled monomial in V carries no polygon).
    """
    coeffs = [gp_from_unipoly(p.coeff_v(j), 0) for j in range(p.deg_v + 1)]
    segs = []
    for gamma, j0, m0, j1, m1 in _grid_hull_segments(FieldTower(), 0, coeffs):
        edge = []
        for j in range(j0, j1 + 1):
            m = m0 - gamma * (j - j0)
            c = coeffs[j].get(m.numerator) if m.denominator == 1 else None
            edge.append(c if c is not None else 0)
        segs.append(PolygonSegment(j0, m0, j1, m1, UniPoly(edge)))
    if not segs:
        raise DegenerateInputError(
            "Newton polygon needs at least two V-degrees in the support"
        )
    return segs


def _grid_hull_segments(tw, depth, coeffs: list[dict]):
    """Hull segments (slope, j0, m0, j1, m1) by increasing slope.

    The slope is (m0 - m1)/(j1 - j0) in grid units: the true gamma times
    the node's grid scale.
    """
    pts = []
    for j, q in enumerate(coeffs):
        m = gp_order(tw, depth, q)
        if m is not None:
            pts.append((j, m))
    if len(pts) < 2:
        return []
    hull = lower_hull(pts)
    segs = [
        (Fraction(m0 - m1, j1 - j0), j0, m0, j1, m1)
        for (j0, m0), (j1, m1) in zip(hull, hull[1:])
    ]
    segs.sort(key=lambda s: s[0])
    return segs


# ---------------------------------------------------------------------------
# branches


class Branch:
    """One Puiseux branch, conjugates collapsed into a representative.

    terms are (exponent, coefficient) pairs with exponents in (1/q)Z and
    nonzero algebraic coefficients, lowest exponent first.  q is the
    ramification index; the branch stands for q conjugate sheets, so the
    conjugate counts over all branches of a separable curve sum to deg_V.
    iterations_used counts guarded polygon substitutions only; the
    post-stabilization terms come from a loop bounded by max_extra_terms.
    exact reports only a termination seen within the terms computed: a
    series cut short may still end a few terms later.
    """

    __slots__ = (
        "terms",
        "q",
        "conjugate_count",
        "exact",
        "iterations_used",
        "tower",
        "multiplicity",
    )

    def __init__(self, terms, q, exact, iterations_used, tower,
                 multiplicity=1):
        self.terms = terms
        self.q = q
        self.conjugate_count = q
        self.exact = exact
        self.iterations_used = iterations_used
        self.tower = tower
        self.multiplicity = multiplicity

    @property
    def center(self) -> AlgebraicNumber:
        if self.terms and self.terms[0][0] == 0:
            return self.terms[0][1]
        return rational_number(0, self.tower)

    def __repr__(self):
        return render_branch(self)


def _exp_str(e: Fraction) -> str:
    if e.denominator == 1:
        return str(e.numerator)
    return f"({e})"


def render_branch(b: Branch) -> str:
    parts = []
    for e, c in b.terms:
        cs = c.render()
        if e == 0:
            parts.append(cs)
        elif e == 1:
            parts.append(f"{cs}*mu")
        else:
            parts.append(f"{cs}*mu^{_exp_str(e)}")
    series = " + ".join(parts) if parts else "0"
    if b.exact:
        series += " (exact)"
    return f"center={b.center.render()} q={b.q} series={series}"


# ---------------------------------------------------------------------------
# the expansion engine


def _substitute(tw, depth, coeffs: list[dict], gamma_u: int,
                beta_u: int, a) -> list[dict]:
    """mu^-beta P(mu, mu^gamma (a + V)) with exponents in grid units.

    gamma_u and beta_u are gamma and beta multiplied by the grid scale, so
    every exponent shift is an integer.
    """
    d = len(coeffs) - 1
    apow = [el_one(depth)]
    for _ in range(d):
        apow.append(el_mul(tw, depth, apow[-1], a))
    out: list[dict] = [dict() for _ in range(d + 1)]
    for j, pj in enumerate(coeffs):
        if not pj:
            continue
        shift = gamma_u * j - beta_u
        for i in range(j + 1):
            acc = out[i]
            if i == j:
                # factor is a^0 * C(j, j) = 1
                for e, c in pj.items():
                    k = e + shift
                    cur = acc.get(k)
                    acc[k] = c if cur is None else el_add(depth, cur, c)
                continue
            f = el_scale(depth, apow[j - i], math.comb(j, i))
            for e, c in pj.items():
                k = e + shift
                prod = el_mul(tw, depth, c, f)
                cur = acc.get(k)
                acc[k] = prod if cur is None else el_add(depth, cur, prod)
    return out


def _term_lcm(terms) -> int:
    return math.lcm(*(e.denominator for e, _ in terms))


def _continue_stabilized(tw, depth, coeffs, scale, prefix, terms,
                         max_extra, used) -> Branch:
    """Collect up to max_extra more terms of a branch with a simple root.

    A simple working root keeps the (0, m0) -> (1, 0) polygon segment, so
    each further term is a linear solve with no new ramification.  used is
    the guard count so far, recorded as the branch's iterations_used.
    """
    exact = False
    for _ in range(max_extra):
        m0 = gp_order(tw, depth, coeffs[0])
        if m0 is None:
            exact = True
            break
        c1 = gp_coeff(tw, depth, coeffs[1], 0)
        if c1 is None:
            raise ExpansionError(
                "stabilized branch lost its simple-root certificate"
            )
        c0 = coeffs[0][m0]
        a = el_neg(depth, el_div(tw, depth, c0, c1))
        # bounded by max_extra and certified to terminate: no guard tick
        coeffs = _substitute(tw, depth, coeffs, m0, m0, a)
        prefix = prefix + Fraction(m0, scale)
        terms = terms + [(prefix, AlgebraicNumber(tw, depth, a))]
    else:
        # one more look: the series may have terminated exactly
        if gp_is_zero(tw, depth, coeffs[0]):
            exact = True
    return Branch(
        terms=terms,
        q=_term_lcm(terms),
        exact=exact,
        iterations_used=used,
        tower=tw,
        multiplicity=1,
    )


def expand(p: BiPoly, max_extra_terms: int = 4) -> list[Branch]:
    """All bounded Puiseux branches of p(mu, V) = 0 around mu = 0.

    Returns one representative per conjugacy class; segments with negative
    gamma (poles as mu -> 0) are skipped.  Branches come depth first: at
    each polygon node the exact branch of a V-power factor, then the
    children of its segments by increasing gamma, and within a segment its
    edge roots in ``AlgebraicNumber.order_key`` order.  Raises
    IterationGuardError when the polygon iteration fails to stabilize
    within 4*deg_mu*deg_V^2 substitutions, which is the signature of a
    repeated factor in V.

    A simple root fixes q: every later term lies on the grid its branch
    has reached, so max_extra_terms only lengthens the series. It must be
    nonnegative; 0 stops each branch where its q is settled.
    """
    if max_extra_terms < 0:
        raise InputError(
            f"max_extra_terms must be nonnegative, got {max_extra_terms}"
        )
    if p.is_zero():
        raise DegenerateInputError("cannot expand the zero polynomial")
    if p.deg_v < 1:
        raise DegenerateInputError("input has no V dependence")
    limit = 4 * max(1, p.deg_mu) * p.deg_v**2
    used = 0
    out: list[Branch] = []
    coeffs = [gp_from_unipoly(p.coeff_v(j), 0, 1) for j in range(p.deg_v + 1)]
    # open nodes (tw, depth, coeffs, scale, prefix, terms) and finished
    # branches; a node's children go on in reverse so they pop in order
    stack: list = [(FieldTower(), 0, coeffs, 1, Fraction(0), [])]
    while stack:
        node = stack.pop()
        if isinstance(node, Branch):
            out.append(node)
            continue
        tw, depth, coeffs, scale, prefix, terms = node
        # V-power factor: the accumulated series itself is an exact root
        k = 0
        while k < len(coeffs) and gp_is_zero(tw, depth, coeffs[k]):
            k += 1
        if k == len(coeffs):
            raise ExpansionError("working polynomial collapsed to zero")
        if k > 0:
            out.append(Branch(
                terms=terms,
                q=_term_lcm(terms),
                exact=True,
                iterations_used=used,
                tower=tw,
                multiplicity=k,
            ))
            coeffs = coeffs[k:]
            if len(coeffs) == 1:
                continue
        children = []
        for slope, j0, m0, j1, m1 in _grid_hull_segments(tw, depth, coeffs):
            # gamma = 0 picks the branch center, so only the root node
            # (no terms yet) takes it
            if slope < 0 or (slope == 0 and terms):
                continue
            u, w_eff = slope.numerator, slope.denominator
            gamma = Fraction(u, w_eff * scale)
            phi = []
            for t in range((j1 - j0) // w_eff + 1):
                j = j0 + t * w_eff
                c = gp_coeff(tw, depth, coeffs[j], m0 - t * u)
                phi.append(c if c is not None else el_zero(depth))
            for xi, mult in roots_with_multiplicity(phi, tower=tw):
                used += 1
                if used > limit:
                    raise IterationGuardError(
                        f"expansion exceeded the {limit}-substitution "
                        "budget; the input is likely not square-free in V"
                    )
                a_num = nth_root_representative(xi, w_eff)
                tw2 = a_num.tower
                depth2 = max(depth, a_num.depth)
                a_el = el_lift(a_num.rep, a_num.depth, depth2)
                lifted = [gp_rescale(gp_lift(c, depth, depth2), w_eff)
                          for c in coeffs]
                # on the refined grid both gamma and beta are integers
                beta_u = m0 * w_eff + u * j0
                child = (
                    tw2, depth2,
                    _substitute(tw2, depth2, lifted, u, beta_u, a_el),
                    scale * w_eff, prefix + gamma,
                    terms + [(prefix + gamma,
                              AlgebraicNumber(tw2, depth2, a_el))],
                )
                # a simple root is finished before its later siblings
                # open, which fixes the count its iterations_used records
                if mult == 1:
                    child = _continue_stabilized(*child, max_extra_terms,
                                                 used)
                children.append(child)
        stack.extend(reversed(children))
    return out


# ---------------------------------------------------------------------------
# residual diagnostics


def reconstruct_residual(p: BiPoly, branch: Branch,
                         n_terms: int | None = None) -> Fraction | float:
    """mu-order of P(mu, s(mu)) for the truncated branch series s.

    Replays the branch's substitutions: for each term (e_k, c_k) it
    substitutes V = mu^(e_k - e_(k-1)) (c_k + V) with beta 0, on the grid
    of the terms' common denominator, and reads the order of the V-free
    part.  Returns float('inf') when the truncation satisfies the curve
    exactly.  More terms can only raise the order, which is the practical
    check that the expansion really converges to a root.
    """
    terms = branch.terms if n_terms is None else branch.terms[:n_terms]
    tw = branch.tower
    depth = tw.height
    scale = _term_lcm(terms)
    coeffs = [gp_from_unipoly(p.coeff_v(j), depth, scale)
              for j in range(p.deg_v + 1)]
    last = Fraction(0)
    for e, c in terms:
        coeffs = _substitute(tw, depth, coeffs, int((e - last) * scale), 0,
                             el_lift(c.rep, c.depth, depth))
        last = e
    order = gp_order(tw, depth, coeffs[0])
    return float("inf") if order is None else Fraction(order, scale)
