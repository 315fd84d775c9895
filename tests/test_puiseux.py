"""Newton polygon and Puiseux expansion tests.

Golden curves: the cusp and nodal cubic, a reducible Weierstrass quintic
with two branches sharing the center, the 3-elliptope central-path cubic
(whose series coefficients are pinned exactly, radicals included), and a
repeated-factor curve that must trip the iteration guard.
"""

import math
import random
from fractions import Fraction

import pytest

from puiseuxpath.errors import DegenerateInputError, IterationGuardError
from puiseuxpath.polynomials import BiPoly, UniPoly, parse_bipoly
from puiseuxpath.puiseux import (
    expand,
    newton_polygon,
    reconstruct_residual,
    render_branch,
)

rat = Fraction

CUSP = parse_bipoly("V^2 - mu^3")
NODAL = parse_bipoly("V^2 - mu^3 - mu^2")
# central-path cubic of the 3-elliptope X_12 coordinate
F_ELL = parse_bipoly("2*T^3 + (2 - 1/2*mu)*T^2 - (mu + 2)*T - 2")
# F_ELL recentered at T = -1
G_ELL = parse_bipoly("2*T^3 - (4 + 1/2*mu)*T^2 + 1/2*mu")
# reducible Weierstrass polynomial (Y^3 - X^2)(Y^2 - X^3)
W_CURVE = parse_bipoly("Y^5 - X^3*Y^3 - X^2*Y^2 + X^5")
QUINTIC = parse_bipoly(
    "Y^5 - 4*Y^4 + 4*Y^3 + 2*X^2*Y^2 - X*Y^2 + 2*X^2*Y + 2*X*Y + X^4 + X^3"
)


def half_binom(j: int) -> Fraction:
    """Binomial coefficient C(1/2, j)."""
    num = Fraction(1)
    for i in range(j):
        num *= Fraction(1, 2) - i
    return num / math.factorial(j)


def by_center(branches, r):
    picks = [b for b in branches if b.center.as_rational() == r]
    assert picks, f"no branch centered at {r}"
    return picks


class TestNewtonPolygon:
    def test_cusp_polygon(self):
        segs = newton_polygon(CUSP)
        assert len(segs) == 1
        s = segs[0]
        assert (s.j0, s.m0, s.j1, s.m1) == (0, 3, 2, 0)
        assert s.gamma == rat(3, 2)
        assert s.beta == 3
        assert s.edge_poly == UniPoly([-1, 0, 1])

    def test_recentered_elliptope_polygon(self):
        segs = newton_polygon(G_ELL)
        assert [s.gamma for s in segs] == [0, rat(1, 2)]
        flat, half = segs
        assert (flat.j0, flat.j1) == (2, 3)
        assert flat.edge_poly == UniPoly([-4, 2])
        assert (half.j0, half.j1) == (0, 2)
        assert half.beta == 1
        # lattice gap at j = 1 contributes nothing
        assert half.edge_poly == UniPoly([rat(1, 2), 0, -4])

    def test_quintic_polygon(self):
        segs = newton_polygon(QUINTIC)
        assert [s.gamma for s in segs] == [0, rat(1, 2), 2]
        assert [(s.j0, s.j1) for s in segs] == [(3, 5), (1, 3), (0, 1)]

    def test_weierstrass_polygon(self):
        segs = newton_polygon(W_CURVE)
        assert [s.gamma for s in segs] == [rat(2, 3), rat(3, 2)]

    def test_negative_gamma_reported(self):
        segs = newton_polygon(parse_bipoly("mu*V - 1"))
        assert [s.gamma for s in segs] == [-1]

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInputError):
            newton_polygon(parse_bipoly("mu^2*V^3"))
        with pytest.raises(DegenerateInputError):
            newton_polygon(BiPoly())
        with pytest.raises(DegenerateInputError):
            newton_polygon(parse_bipoly("mu^4 + 1"))

    def test_support_lies_above_every_segment(self):
        rng = random.Random(7)
        for _ in range(40):
            d = {}
            for _ in range(rng.randrange(3, 9)):
                j = rng.randrange(0, 5)
                k = rng.randrange(0, 5)
                d[(j, k)] = rat(rng.randrange(-9, 10))
            p = BiPoly.from_dict(d)
            try:
                segs = newton_polygon(p)
            except DegenerateInputError:
                continue
            for s in segs:
                for (j, k) in p.to_dict():
                    assert k + s.gamma * j >= s.beta


class TestExactBranches:
    def test_cusp_branch(self):
        branches = expand(CUSP)
        assert len(branches) == 1
        b = branches[0]
        assert b.q == 2
        assert b.conjugate_count == 2
        assert b.exact
        assert [(e, c.as_rational()) for e, c in b.terms] == [(rat(3, 2), 1)]
        assert b.center.as_rational() == 0
        assert b.tower.height == 0
        assert b.iterations_used == 1
        assert render_branch(b) == "center=0 q=2 series=1*mu^(3/2) (exact)"

    def test_weierstrass_branches(self):
        branches = expand(W_CURVE)
        assert sorted(b.q for b in branches) == [2, 3]
        assert sum(b.conjugate_count for b in branches) == 5
        for b in branches:
            assert b.exact
            assert len(b.terms) == 1
            e, c = b.terms[0]
            assert c.as_rational() == 1
            assert e == (rat(2, 3) if b.q == 3 else rat(3, 2))

    def test_v_factor_gives_zero_branch(self):
        branches = expand(parse_bipoly("V^2 - mu*V"))
        assert len(branches) == 2
        zero, lin = branches
        assert zero.terms == [] and zero.exact and zero.q == 1
        assert lin.exact
        assert [(e, c.as_rational()) for e, c in lin.terms] == [(1, 1)]

    def test_mixed_exact_branches(self):
        # (V^2 - mu^3)(V - mu), separable with two exact branch types
        p = parse_bipoly("(V^2 - mu^3)*(V - mu)")
        branches = expand(p)
        assert sorted(b.q for b in branches) == [1, 2]
        assert sum(b.conjugate_count for b in branches) == 3
        for b in branches:
            assert b.exact


class TestNodalCubic:
    def test_two_unramified_branches(self):
        branches = expand(NODAL)
        assert len(branches) == 2
        assert all(b.q == 1 for b in branches)
        assert all(not b.exact for b in branches)

    def test_sqrt_series_coefficients(self):
        # V = s*mu*sqrt(1 + mu), coefficients are C(1/2, j)
        for b in expand(NODAL):
            s = b.terms[0][1].as_rational()
            assert s in (1, -1)
            assert [(e, c.as_rational()) for e, c in b.terms] == [
                (j + 1, s * half_binom(j)) for j in range(5)
            ]

    def test_residual_orders(self):
        # the two branches separate at order 1, so the residual of a
        # k-term truncation has order (next exponent) + 1
        b = by_center(expand(NODAL), 0)[0]
        for k in range(1, 5):
            assert reconstruct_residual(NODAL, b, k) == b.terms[k][0] + 1
        assert reconstruct_residual(NODAL, b) == 7


class TestElliptopeCubic:
    def test_branch_layout(self):
        branches = expand(F_ELL)
        assert [b.center.as_rational() for b in branches] == [-1, 1]
        assert [b.q for b in branches] == [2, 1]
        assert sum(b.conjugate_count for b in branches) == 3

    def test_unramified_branch_series(self):
        b = by_center(expand(F_ELL), 1)[0]
        assert [(e, c.as_rational()) for e, c in b.terms] == [
            (0, 1),
            (1, rat(3, 16)),
            (2, rat(3, 256)),
            (3, rat(-15, 16384)),
            (4, rat(-15, 262144)),
        ]

    def test_ramified_branch_series(self):
        b = by_center(expand(F_ELL), -1)[0]
        assert b.q == 2
        assert [e for e, _ in b.terms] == [
            0, rat(1, 2), 1, rat(3, 2), 2, rat(5, 2)
        ]
        c = {e: x for e, x in b.terms}
        assert c[rat(0)].as_rational() == -1
        assert c[rat(1)].as_rational() == rat(1, 32)
        assert c[rat(2)].as_rational() == rat(-3, 512)
        # c_(1/2) is the positive root of 8 c^2 = 1
        c1 = c[rat(1, 2)]
        assert c1.depth == 1
        assert (c1 * c1 - rat(1, 8)).is_zero()
        assert c1.box(40).re.lo > 0
        # exact radical ratios of the mu^(3/2) and mu^(5/2) terms
        assert (c[rat(3, 2)] + c1 * rat(11, 256)).is_zero()
        assert (c[rat(5, 2)] + c1 * rat(121, 131072)).is_zero()

    def test_recentered_curve_matches(self):
        branches = expand(G_ELL)
        assert sum(b.conjugate_count for b in branches) == 3
        b2 = by_center(branches, 2)[0]
        assert [(e, c.as_rational()) for e, c in b2.terms] == [
            (0, 2),
            (1, rat(3, 16)),
            (2, rat(3, 256)),
            (3, rat(-15, 16384)),
            (4, rat(-15, 262144)),
        ]
        bq2 = [b for b in branches if b.q == 2][0]
        c1 = bq2.terms[0][1]
        assert bq2.terms[0][0] == rat(1, 2)
        assert (c1 * c1 - rat(1, 8)).is_zero()

    def test_residual_orders_track_branch_separation(self):
        branches = expand(F_ELL)
        ram = by_center(branches, -1)[0]
        # the conjugate pair separates at order 1/2
        for k in range(1, 6):
            assert (
                reconstruct_residual(F_ELL, ram, k)
                == ram.terms[k][0] + rat(1, 2)
            )
        assert reconstruct_residual(F_ELL, ram) == rat(7, 2)
        flat = by_center(branches, 1)[0]
        for k in range(1, 5):
            assert reconstruct_residual(F_ELL, flat, k) == flat.terms[k][0]
        assert reconstruct_residual(F_ELL, flat) == 5

    def test_max_extra_terms(self):
        b = by_center(expand(F_ELL, max_extra_terms=2), 1)[0]
        assert len(b.terms) == 3


class TestQuintic:
    def test_double_center_ramification(self):
        branches = expand(QUINTIC)
        assert sum(b.conjugate_count for b in branches) == 5
        at_zero = by_center(branches, 0)
        assert sorted(b.q for b in at_zero) == [1, 2]
        at_two = by_center(branches, 2)
        assert sum(b.conjugate_count for b in at_two) == 2

    def test_ramified_branch_leading_term(self):
        b = [x for x in by_center(expand(QUINTIC), 0) if x.q == 2][0]
        e, c = b.terms[0]
        assert e == rat(1, 2)
        # leading coefficient squares to -1/2
        assert (c * c + rat(1, 2)).is_zero()

    def test_unramified_branch_leading_term(self):
        b = [x for x in by_center(expand(QUINTIC), 0) if x.q == 1][0]
        assert b.terms[0][0] == 2


class TestGuards:
    def test_repeated_factor_trips_iteration_guard(self):
        p = parse_bipoly("((1 + mu)*V^2 - mu^3)^2")
        with pytest.raises(IterationGuardError):
            expand(p)

    def test_degenerate_expansion_inputs(self):
        with pytest.raises(DegenerateInputError):
            expand(BiPoly())
        with pytest.raises(DegenerateInputError):
            expand(parse_bipoly("mu^2 + 1"))

    def test_pole_branches_are_skipped(self):
        assert expand(parse_bipoly("mu*V - 1")) == []

    @pytest.mark.parametrize("poly, used", [
        # two multiplicity-2 children, each continued as a lone node
        ("(((V-1)^2 - mu)^2 - mu^5)*(((V+1)^2 - 2*mu)^2 - mu^5)",
         [4, 5, 7, 8]),
        ("(V^2 - 2)^2 - mu*V^3", [3, 4]),
        ("2*T^3 + (2 - 1/2*mu)*T^2 - (mu + 2)*T - 2", [3, 2]),
    ])
    def test_iterations_used(self, poly, used):
        # the guard count when each branch was finished: it pins the order
        # in which the polygon nodes are opened, which no output shows
        assert [b.iterations_used for b in expand(parse_bipoly(poly))] == used


class TestRandomCurves:
    def test_conjugate_counts_sum_to_degree(self):
        # monic in V with constant lead: every branch stays bounded, so
        # the collapsed conjugates of a separable curve account for all
        # deg_V sheets
        rng = random.Random(11)
        done = 0
        while done < 12:
            dv = rng.randrange(2, 5)
            d = {(dv, 0): rat(1)}
            for j in range(dv):
                for k in range(4):
                    if rng.random() < 0.45:
                        d[(j, k)] = rat(rng.randrange(-5, 6))
            p = BiPoly.from_dict(d).separable_part()
            if p.deg_v < 2:
                continue
            branches = expand(p)
            assert sum(b.conjugate_count for b in branches) == p.deg_v
            for b in branches:
                if not b.exact:
                    r = reconstruct_residual(p, b, 1)
                    assert r > b.terms[0][0]
            done += 1
