"""Curve pipeline: normalization, matching, and rho aggregation.

Hand-checked fixtures:

* mu*V - 1 forces theta = 1 (root 1/mu); the rescaled curve is V - 1 and
  its branch is unbounded in the original coordinate.
* mu*V^2 - V + mu has roots ~mu and ~1/mu; theta = 1, alpha = 1 rescales
  it to V^2 - V + mu^2, whose gamma = 2 branch maps back to the bounded
  original root ~mu (limit 0).
* The elliptope cubic has centers -1 (q = 2) and 1 (q = 1); a limit near
  -1 matches only the ramified branch.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puiseuxpath.curve import (
    NormalizedCurve,
    RhoReport,
    aggregate_rho,
    expand_curve,
    is_irreducible_over_Cmu,
    limit_center,
    match_branches,
    normalize_curve,
    rho_for_coordinate,
)
from puiseuxpath.errors import (
    AmbiguousMatchError,
    DegenerateInputError,
    InputError,
    NoMatchError,
)
from puiseuxpath.polynomials import BiPoly, UniPoly, parse_bipoly
from puiseuxpath.puiseux import expand

CUSP = parse_bipoly("V^2 - mu^3")
NODAL = parse_bipoly("V^2 - mu^3 - mu^2")
F_ELL = parse_bipoly("2*T^3 + (2 - 1/2*mu)*T^2 - (mu + 2)*T - 2")
W_CURVE = parse_bipoly("Y^5 - X^3*Y^3 - X^2*Y^2 + X^5")
QUINTIC = parse_bipoly(
    "Y^5 - 4*Y^4 + 4*Y^3 + 2*X^2*Y^2 - X*Y^2 + 2*X^2*Y + 2*X*Y + X^4 + X^3"
)
POLE_LINE = parse_bipoly("mu*V - 1")
MIXED = parse_bipoly("mu*V^2 - V + mu")
# theta = 6: the first expansion falls short of the limit's exponent
RETRY_THETA6 = parse_bipoly(
    "(3*mu^7 + 9*mu^6)*V^8 - 7*V^7 + 3*mu^8*V^4 - 6*mu^2*V^2 + 9*mu^2"
)
NAMED_CURVES = {
    "cusp": CUSP,
    "nodal": NODAL,
    "elliptope": F_ELL,
    "weierstrass": W_CURVE,
    "quintic": QUINTIC,
    "pole_line": POLE_LINE,
    "mixed": MIXED,
    "retry_theta6": RETRY_THETA6,
    "double_sqrt2": parse_bipoly("(V^2 - 2)^2 - mu*V^3"),
    "sqrt2_times_cusp": parse_bipoly("(V^2 - 2)*(V^3 - mu) + mu^2"),
    "imaginary_centers": parse_bipoly("(V^2 + 1)*(V^2 - 2*mu) - mu^2*V"),
    "two_double_centers": parse_bipoly(
        "(((V-1)^2 - mu)^2 - mu^5)*(((V+1)^2 - 2*mu)^2 - mu^5)"
    ),
}
# the acceptance suite's random curves: up to six terms of degree 0..8
# in V and in mu, coefficients in -10..10
AC9_CURVES = st.dictionaries(
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
    st.sampled_from([Fraction(c) for c in range(-10, 11) if c]),
    min_size=1, max_size=6,
).map(BiPoly.from_dict).filter(lambda p: p.deg_v >= 1)


class TestNormalizeCurve:
    def test_already_normal_curve_is_untouched(self):
        f = F_ELL.primitive()
        assert f == parse_bipoly("4*T^3 + (4 - mu)*T^2 - (2*mu + 4)*T - 4")
        nc = normalize_curve(f)
        assert nc.theta == 0 and nc.alpha == 0
        assert nc.normalized is f
        # a rational multiple normalizes to the same curve
        nc = normalize_curve(F_ELL)
        assert nc.normalized == f
        assert nc.original is F_ELL

    def test_content_removal(self):
        p = parse_bipoly("mu^2*V^2 - mu^2")
        nc = normalize_curve(p)
        assert nc.normalized == parse_bipoly("V^2 - 1")
        assert nc.theta == 0 and nc.alpha == 0

    def test_pole_line_rescale(self):
        nc = normalize_curve(POLE_LINE)
        assert nc.theta == 1 and nc.alpha == 0
        assert nc.normalized == parse_bipoly("V - 1")

    def test_mixed_curve_rescale(self):
        nc = normalize_curve(MIXED)
        assert nc.theta == 1 and nc.alpha == 1
        assert nc.normalized == parse_bipoly("V^2 - V + mu^2")

    def test_square_free_part(self):
        p = parse_bipoly("(V - mu)^2 * (V + 1)")
        nc = normalize_curve(p)
        assert nc.normalized == parse_bipoly("(V - mu)*(V + 1)")

    def test_bounded_leading_coefficient(self):
        # the whole point of the rescale: lc gains a nonzero constant term
        for p in (POLE_LINE, MIXED, parse_bipoly("mu^3*V^2 + mu*V + 1 + mu")):
            nc = normalize_curve(p)
            assert nc.normalized.lc_v().order() == 0

    def test_idempotent(self):
        for p in (CUSP, POLE_LINE, MIXED, parse_bipoly("mu^2*V^2 - mu^2")):
            once = normalize_curve(p)
            twice = normalize_curve(once.normalized)
            assert twice.normalized == once.normalized
            assert twice.theta == 0 and twice.alpha == 0

    def test_degenerate_inputs_raise(self):
        with pytest.raises(DegenerateInputError):
            normalize_curve(BiPoly([]))
        with pytest.raises(DegenerateInputError):
            normalize_curve(parse_bipoly("mu^2 + 1"))

    def test_random_curves_normalize_clean(self):
        rng = random.Random(23)
        checked = 0
        while checked < 10:
            dv = rng.randint(1, 3)
            dm = rng.randint(0, 2)
            coeffs = {}
            for j in range(dv + 1):
                for i in range(dm + 1):
                    c = rng.randint(-3, 3)
                    if c:
                        coeffs[(j, i)] = Fraction(c)
            if not any(j == dv for (j, _) in coeffs):
                coeffs[(dv, rng.randint(0, dm))] = Fraction(1)
            p = BiPoly.from_dict(coeffs)
            if p.is_zero() or p.deg_v < 1:
                continue
            nc = normalize_curve(p)
            assert nc.normalized.primitive() == nc.normalized
            g = nc.normalized.gcd(nc.normalized.derivative_v())
            assert g.deg_v == 0
            assert nc.normalized.lc_v().order() == 0
            branches = expand(nc.normalized)
            assert sum(b.conjugate_count for b in branches) == nc.normalized.deg_v
            checked += 1


class TestLimitCenter:
    def test_theta_zero_matches_branch_center(self):
        for p in (CUSP, NODAL, F_ELL):
            for b in expand(p):
                c = limit_center(b, 0)
                assert (c - b.center).is_zero()

    def test_pole_branch_is_unbounded(self):
        nc = normalize_curve(POLE_LINE)
        (b,) = expand_curve(nc)
        assert limit_center(b, nc.theta) is None

    def test_mixed_curve_bounded_branch(self):
        nc = normalize_curve(MIXED)
        branches = expand_curve(nc)
        centers = [limit_center(b, nc.theta) for b in branches]
        bounded = [c for c in centers if c is not None]
        assert len(bounded) == 1 and len(centers) == 2
        assert bounded[0].as_rational() == 0

    def test_coefficient_at_theta_is_the_limit(self):
        # roots 2 + mu (limit 2) and 1/mu (unbounded); theta = 1 turns the
        # first into the series 2*mu + mu^2, read off at exponent theta
        p = parse_bipoly("(V - 2 - mu)*(mu*V - 1)")
        nc = normalize_curve(p)
        assert nc.theta == 1
        branches = expand_curve(nc)
        centers = [limit_center(b, nc.theta) for b in branches]
        vals = sorted(c.as_rational() for c in centers if c is not None)
        assert vals == [2]


class TestMatchBranches:
    def test_elliptope_limit_picks_ramified_branch(self):
        branches = expand(F_ELL)
        matched = match_branches(
            branches, (Fraction(-1) - Fraction(1, 10**6),
                       Fraction(-1) + Fraction(1, 10**6)))
        assert len(matched) == 1
        assert matched[0].q == 2

    def test_scalar_limit_value(self):
        branches = expand(F_ELL)
        matched = match_branches(branches, -1)
        assert [b.q for b in matched] == [2]
        matched = match_branches(branches, 1)
        assert [b.q for b in matched] == [1]

    def test_cusp_limit_zero_single_branch(self):
        branches = expand(CUSP)
        assert len(match_branches(branches, 0)) == 1

    def test_double_center_matches_both(self):
        branches = expand(QUINTIC)
        matched = match_branches(branches, 0)
        assert sorted(b.q for b in matched) == [1, 2]

    def test_tolerance_boundary(self):
        branches = expand(F_ELL)
        near = Fraction(-1) + Fraction(1, 2 * 10**6)
        far = Fraction(-1) + Fraction(1, 10**4)
        assert len(match_branches(branches, near)) == 1
        assert match_branches(branches, far) == []
        assert len(match_branches(branches, far, tol=Fraction(1, 10**3))) == 1

    def test_theta_shifted_matching(self):
        nc = normalize_curve(MIXED)
        branches = expand_curve(nc)
        matched = match_branches(branches, 0, theta=nc.theta)
        assert len(matched) == 1
        assert matched[0].q == 1

    def test_irrational_center_decided(self):
        branches = expand(parse_bipoly("V^2 - 2"))
        # sqrt(2) to 40 digits: comfortably separable from the interval
        approx = Fraction(math.isqrt(2 * 10**80), 10**40)
        matched = match_branches(branches, approx, tol=Fraction(1, 10**30))
        assert len(matched) == 1
        assert matched[0].center.box(64).re.lo > 0

    def test_unresolvable_straddle_raises(self):
        branches = expand(parse_bipoly("V^2 - 2"))
        pos = [b for b in branches if b.center.box(64).re.lo > 0]
        # a 300-digit approximation sits closer than any certificate we allow
        approx = Fraction(math.isqrt(2 * 10**600), 10**300)
        with pytest.raises(AmbiguousMatchError):
            match_branches(pos, approx, tol=0)

    def test_complex_centers_never_match_real_interval(self):
        branches = expand(parse_bipoly("V^2 + 1"))
        assert match_branches(branches, (-2, 2)) == []


class TestIrreducibility:
    def test_cusp_irreducible(self):
        nc = normalize_curve(CUSP)
        assert is_irreducible_over_Cmu(nc, expand_curve(nc))

    def test_nodal_reducible(self):
        nc = normalize_curve(NODAL)
        assert not is_irreducible_over_Cmu(nc, expand_curve(nc))

    def test_elliptope_reducible(self):
        nc = normalize_curve(F_ELL)
        assert not is_irreducible_over_Cmu(nc, expand_curve(nc))

    def test_constant_factor_split_reducible(self):
        nc = normalize_curve(parse_bipoly("V^2 - 2"))
        assert not is_irreducible_over_Cmu(nc, expand_curve(nc))


class TestRho:
    def test_single_ramified_match(self):
        branches = match_branches(expand(F_ELL), -1)
        assert rho_for_coordinate(branches) == 2

    def test_distinct_product(self):
        branches = match_branches(expand(QUINTIC), 0)
        assert rho_for_coordinate(branches) == 2

    def test_duplicate_q_counted_once(self):
        branches = match_branches(expand(NODAL), 0)
        assert len(branches) == 2
        assert rho_for_coordinate(branches) == 1

    def test_empty_match_raises(self):
        with pytest.raises(NoMatchError):
            rho_for_coordinate([])

    def test_aggregate_examples(self):
        assert aggregate_rho([1, 2, 2]) == 2
        assert aggregate_rho([1, 2, 4]) == 4
        assert aggregate_rho([2, 3]) == 6
        with pytest.raises(ValueError):
            aggregate_rho([])

    def test_aggregate_permutation_invariant(self):
        rng = random.Random(5)
        values = [1, 2, 4, 3, 6, 2]
        base = aggregate_rho(values)
        for _ in range(10):
            rng.shuffle(values)
            assert aggregate_rho(values) == base

    def test_rho_makes_exponents_integral(self):
        for p in (CUSP, NODAL, F_ELL, W_CURVE, QUINTIC):
            branches = expand(p)
            rho = aggregate_rho([rho_for_coordinate([b]) for b in branches])
            for b in branches:
                for e, _ in b.terms:
                    assert (rho * e).denominator == 1

    def test_report_shape(self):
        branches = match_branches(expand(F_ELL), -1)
        report = RhoReport([(0, branches, 2)], 2, "irreducible-certified")
        d = report.as_dict()
        assert d["rho"] == 2
        assert d["coordinates"][0]["q"] == [2]
        assert "rho=2" in repr(report)


def _element(c):
    return None if c is None else (c.depth, c.rep)


def _settled(b):
    """What a branch has fixed once its root is simple."""
    lead = b.terms[0][0] if b.terms else None
    return (b.q, b.multiplicity, b.iterations_used, lead,
            _element(b.center), [lvl.poly for lvl in b.tower.levels])


class TestExtraTermsChangeNothingSettled:
    """Terms past a simple root only lengthen the series: the branch list,
    q, multiplicity, center, leading exponent and iterations_used come out
    the same with none, which is what rho-sdo expands with."""

    def check(self, p):
        nc = normalize_curve(p)
        short = expand(nc.normalized, max_extra_terms=0)
        full = expand(nc.normalized, max_extra_terms=4)
        assert [_settled(b) for b in short] == [_settled(b) for b in full]
        for b, f in zip(short, full):
            prefix = [(e, _element(c)) for e, c in f.terms[:len(b.terms)]]
            assert [(e, _element(c)) for e, c in b.terms] == prefix
        # the limits rho-sdo matches against are the same too
        short = expand_curve(nc, max_extra_terms=0)
        full = expand_curve(nc, max_extra_terms=4)
        assert [_settled(b) for b in short] == [_settled(b) for b in full]
        assert ([_element(limit_center(b, nc.theta)) for b in short]
                == [_element(limit_center(b, nc.theta)) for b in full])

    @pytest.mark.parametrize("name", NAMED_CURVES)
    def test_named_curves(self, name):
        self.check(NAMED_CURVES[name])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(AC9_CURVES)
    def test_random_curves(self, p):
        self.check(p)

    def test_no_extra_terms_still_reach_theta(self):
        nc = normalize_curve(RETRY_THETA6)
        assert nc.theta == 6
        # with no extra terms some branch stops short of exponent 6
        short = expand(nc.normalized, max_extra_terms=0)
        assert any(not b.exact and b.terms[-1][0] < 6 for b in short)
        branches = expand_curve(nc, max_extra_terms=0)
        assert all(b.exact or b.terms[-1][0] >= 6 for b in branches)
        matched = match_branches(branches, 0, theta=nc.theta)
        assert rho_for_coordinate(matched) == 7

    @pytest.mark.parametrize("terms", [-1, -3])
    def test_negative_budget_is_bad_input(self, terms):
        with pytest.raises(InputError, match="nonnegative"):
            expand(CUSP, max_extra_terms=terms)
        with pytest.raises(InputError, match="nonnegative"):
            expand_curve(normalize_curve(CUSP), max_extra_terms=terms)
