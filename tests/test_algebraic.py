"""Tests for exact algebraic-number arithmetic and certified root isolation."""

import math
import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from puiseuxpath import algebraic, puiseux
from puiseuxpath.algebraic import (
    AlgebraicNumber,
    Box,
    FieldTower,
    _fb_add,
    _fb_has_zero,
    _fb_horner,
    _fb_mul,
    _fb_point,
    _fb_recip,
    _fb_rescale,
    _fb_sub,
    _isq,
    el_box,
    el_from_rational,
    el_lift,
    field_op,
    isolate_roots,
    rational_nth_root,
    rational_number,
    roots_with_multiplicity,
    tp_squarefree_monic,
)
from puiseuxpath.errors import AmbiguousMatchError
from puiseuxpath.polynomials import UniPoly, parse_bipoly


def rat(a, b=1):
    return Fraction(a, b)


def poly(*coeffs):
    return UniPoly([rat(c) if not isinstance(c, Fraction) else c for c in coeffs])


# ---------------------------------------------------------------------------
# fixed-point box kernels against exact rational arithmetic

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=1000)
complexes = st.tuples(rationals, rationals)
scales = st.integers(min_value=0, max_value=80)
pads = st.integers(min_value=0, max_value=3)


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def enclose(z, s, pad=0):
    """Fixed-point box around the exact complex rational z, widened by pad."""
    re, im = _fb_point(z[0], s), _fb_point(z[1], s)
    return (re[0] - pad, re[1] + pad, im[0] - pad, im[1] + pad)


def holds(fb, s, z):
    return Box(fb, s).contains_point(*z)


class TestBoxes:
    def test_interval_mul_signs(self):
        c = _fb_mul((-2, 3, 0, 0), (-1, 4, 0, 0), 0)
        assert c == (-8, 12, 0, 0)

    def test_interval_square_straddle(self):
        assert _isq(-3, 2) == (0, 9)
        assert _isq(-3, -2) == (4, 9)

    def test_recip_requires_sign(self):
        with pytest.raises(ZeroDivisionError):
            _fb_recip((-1, 1, -1, 1), 0)
        s = 8
        r = Box(_fb_recip((2 << s, 4 << s, 0, 0), s), s)
        assert r.re.lo <= rat(1, 4) and r.re.hi >= rat(1, 2)
        assert r.im.lo == 0 and r.im.hi == 0

    def test_round_out_widens(self):
        b = (_fb_point(rat(1, 3), 40)[0], _fb_point(rat(2, 3), 40)[1], 0, 0)
        r = Box(_fb_rescale(b, 40, 8), 8)
        assert r.re.lo <= rat(1, 3) and r.re.hi >= rat(2, 3)
        assert r.re.lo.denominator <= 256 and r.re.hi.denominator <= 256
        # moving to a finer scale is exact
        back = Box(_fb_rescale(r.fb, 8, 40), 40)
        assert back.re.lo == r.re.lo and back.re.hi == r.re.hi

    @settings(deadline=None)
    @given(complexes, complexes, scales, pads, pads)
    def test_add_sub_contain_exact(self, x, y, s, px, py):
        a, b = enclose(x, s, px), enclose(y, s, py)
        assert holds(_fb_add(a, b), s, (x[0] + y[0], x[1] + y[1]))
        assert holds(_fb_sub(a, b), s, (x[0] - y[0], x[1] - y[1]))

    @settings(deadline=None)
    @given(complexes, complexes, scales, pads, pads)
    def test_box_mul_matches_complex(self, x, y, s, px, py):
        a, b = enclose(x, s, px), enclose(y, s, py)
        assert holds(_fb_mul(a, b, s), s, cmul(x, y))

    @settings(deadline=None)
    @given(complexes, complexes, scales, pads)
    def test_box_div_contains_quotient(self, x, y, s, py):
        b = enclose(y, s, py)
        assume(not _fb_has_zero(b))
        n2 = y[0] ** 2 + y[1] ** 2
        inv = (y[0] / n2, -y[1] / n2)
        r = _fb_recip(b, s)
        assert holds(r, s, inv)
        assert holds(_fb_mul(enclose(x, s), r, s), s, cmul(x, inv))

    @settings(deadline=None)
    @given(st.lists(complexes, min_size=1, max_size=6), complexes, scales,
           pads)
    def test_horner_contains_exact(self, cs, z, s, pad):
        exact = (Fraction(0), Fraction(0))
        for c in reversed(cs):
            exact = cmul(exact, z)
            exact = (exact[0] + c[0], exact[1] + c[1])
        got = _fb_horner([enclose(c, s) for c in cs], enclose(z, s, pad), s)
        assert holds(got, s, exact)


# ---------------------------------------------------------------------------
# rational helpers


class TestRationalRoots:
    def test_rational_sqrt(self):
        assert rational_nth_root(rat(9, 4), 2) == rat(3, 2)
        assert rational_nth_root(rat(1, 8), 2) is None
        assert rational_nth_root(rat(-4), 2) is None
        assert rational_nth_root(rat(0), 2) == 0

    def test_rational_nth_root(self):
        assert rational_nth_root(rat(27, 8), 3) == rat(3, 2)
        assert rational_nth_root(rat(-27, 8), 3) == rat(-3, 2)
        assert rational_nth_root(rat(-4), 2) is None
        assert rational_nth_root(rat(16, 81), 4) == rat(2, 3)
        assert rational_nth_root(rat(5), 2) is None

    def test_rational_roots_against_sympy(self):
        # products of rational linear factors and irreducible quadratics,
        # multiplicities 1-3: the rational roots and their multiplicities
        # must be sympy's
        T = sp.Symbol("T")
        rng = random.Random(20261018)
        for _ in range(25):
            factors = []
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.7:
                    num = rng.choice([-1, 1]) * rng.randint(0, 30)
                    f = rng.randint(1, 12) * T - num
                else:
                    # T^2 + b*T + c with a discriminant that is no square
                    while True:
                        b, c = rng.randint(-6, 6), rng.randint(-9, 9)
                        disc = b * b - 4 * c
                        if disc < 0 or math.isqrt(disc) ** 2 != disc:
                            break
                    f = T**2 + b * T + c
                factors.append(f ** rng.randint(1, 3))
            expr = sp.expand(sp.Mul(*factors))
            coeffs = sp.Poly(expr, T).all_coeffs()[::-1]
            p = UniPoly([Fraction(int(c.p), int(c.q)) for c in coeffs])
            ours = {r.as_rational(): m for r, m in roots_with_multiplicity(p)
                    if r.as_rational() is not None}
            theirs = {Fraction(int(r.p), int(r.q)): m
                      for r, m in sp.roots(sp.Poly(expr, T), filter="Q").items()}
            assert ours == theirs, expr


# ---------------------------------------------------------------------------
# roots with multiplicity


class TestRoots:
    def test_cubic_with_double_root(self):
        # 2T^3 + 2T^2 - 2T - 2 = 2(T-1)(T+1)^2
        rts = roots_with_multiplicity(poly(-2, -2, 2, 2))
        vals = sorted((r.as_rational(), m) for r, m in rts)
        assert vals == [(rat(-1), 2), (rat(1), 1)]

    def test_pure_square(self):
        rts = roots_with_multiplicity(poly(0, 0, 1))
        assert len(rts) == 1
        r, m = rts[0]
        assert r.as_rational() == 0 and m == 2

    def test_quadratic_irrational_pair(self):
        # -4T^2 + 1/2 has roots +/- sqrt(8)/8
        rts = roots_with_multiplicity(UniPoly([rat(1, 2), rat(0), rat(-4)]))
        assert len(rts) == 2
        approx = math.sqrt(8) / 8
        for (r, m), sign in zip(rts, (-1, 1)):
            assert m == 1
            assert r.as_rational() is None
            b = r.box(40)
            assert abs(float(b.re.mid) - sign * approx) < 1e-9
            assert b.im.contains_zero()

    def test_multiplicity_structure_nested(self):
        # (T^2 - 2)^2 (T - 3)
        p2 = poly(-2, 0, 1)
        p = p2 * p2 * poly(-3, 1)
        rts = roots_with_multiplicity(p)
        assert sum(m for _, m in rts) == 5
        mults = sorted(m for _, m in rts)
        assert mults == [1, 2, 2]

    def test_complex_roots_counted(self):
        # T^4 - 1: roots 1, -1, i, -i
        rts = roots_with_multiplicity(poly(-1, 0, 0, 0, 1))
        assert len(rts) == 4
        rational_vals = sorted(
            r.as_rational() for r, _ in rts if r.as_rational() is not None
        )
        assert rational_vals == [rat(-1), rat(1)]
        imag = [r for r, _ in rts if r.as_rational() is None]
        assert len(imag) == 2
        for r in imag:
            b = r.box(40)
            assert b.re.contains_zero()
            assert not b.im.contains_zero()

    def test_ordering_is_by_re_then_im(self):
        rts = roots_with_multiplicity(poly(-1, 0, 0, 0, 1))
        keys = [r.order_key() for r, _ in rts]
        assert keys == sorted(keys)
        # equal real parts must order by im, not by enclosure noise
        q4, h3 = 2 ** 0.25, math.sqrt(3) / 2
        a, b = -0.0609196606, 0.4544615629
        cases = [
            (poly(1, 0, 1), [-1j, 1j]),
            (poly(-2, 0, 0, 0, 1), [-q4, -q4 * 1j, q4 * 1j, q4]),
            (poly(1, 0, 0, 0, 0, 0, 1),
             [complex(-h3, -0.5), complex(-h3, 0.5), -1j, 1j,
              complex(h3, -0.5), complex(h3, 0.5)]),
            (poly(1, 1, 5, 2),
             [-2.378160679, complex(a, -b), complex(a, b)]),
        ]
        for p, expected in cases:
            got = []
            for r, _ in roots_with_multiplicity(p):
                bx = r.box(40)
                got.append(complex(float(bx.re.mid), float(bx.im.mid)))
            assert len(got) == len(expected)
            for z, w in zip(got, expected):
                assert abs(z - w) < 1e-9

    def test_rational_root_extraction_with_big_coeffs(self):
        # (3T - 7)(5T + 2)(T^2 + T + 1)
        p = poly(-7, 3) * poly(2, 5) * poly(1, 1, 1)
        rts = roots_with_multiplicity(p)
        rational_vals = sorted(
            r.as_rational() for r, _ in rts if r.as_rational() is not None
        )
        assert rational_vals == [rat(-2, 5), rat(7, 3)]
        assert sum(m for _, m in rts) == 4

    def test_rational_root_with_large_leading_coefficient(self):
        # (10^30 T - 10^30 - 1)(T^2 + 1): the root 1 + 10^-30 is closer to
        # 1 than the width of its isolating box, so the box is bisected
        # below 10^-30 before the one candidate k/10^30 is tested
        p = poly(-10**30 - 1, 10**30) * poly(1, 0, 1)
        rts = roots_with_multiplicity(p)
        assert [r.as_rational() for r, _ in rts][2] == 1 + rat(1, 10**30)
        assert sum(r.as_rational() is None for r, _ in rts) == 2

    @pytest.mark.parametrize("c", [Fraction(1, 10**30), Fraction(1, 10**60)])
    def test_tiny_real_roots_rank_by_real_part(self, c):
        # roots +-sqrt(c) far below 2^-32 still rank by their real parts
        (neg, _), (pos, _) = roots_with_multiplicity(poly(-c, 0, 1))
        assert neg.box(64).re.hi < 0 < pos.box(64).re.lo

    def test_root_boxes_contain_true_roots(self):
        rng = random.Random(11)
        for _ in range(10):
            coeffs = [rat(rng.randint(-6, 6)) for _ in range(5)]
            coeffs.append(rat(rng.randint(1, 6)))
            p = UniPoly(coeffs)
            rts = roots_with_multiplicity(p)
            assert sum(m for _, m in rts) == p.degree
            for r, _ in rts:
                b = r.box(52)
                # numeric check: polynomial is tiny at the box midpoint
                z = complex(float(b.re.mid), float(b.im.mid))
                val = sum(float(c) * z**k for k, c in enumerate(p.c))
                scale = max(abs(float(c)) for c in p.c)
                assert abs(val) < 1e-8 * scale * max(1.0, abs(z)) ** p.degree

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            roots_with_multiplicity(poly(5))


# ---------------------------------------------------------------------------
# field arithmetic on towers


class TestFieldOps:
    def test_sqrt2_squares_to_two(self):
        rts = roots_with_multiplicity(poly(-2, 0, 1))
        r = next(r for r, _ in rts if float(r.box(30).re.mid) > 0)
        sq = field_op(r, r, "mul")
        assert sq.as_rational() == 2
        diff = sq - rational_number(2)
        assert diff.is_zero()

    def test_sqrt8_over_8_satisfies_8c2_minus_1(self):
        rts = roots_with_multiplicity(UniPoly([rat(1, 2), rat(0), rat(-4)]))
        c = rts[1][0]
        val = rational_number(8) * c * c - rational_number(1)
        assert val.is_zero()

    def test_conjugate_sum_cancels(self):
        # (1 + sqrt 2) + (1 - sqrt 2) = 2, computed in one tower
        rts = roots_with_multiplicity(poly(-2, 0, 1))
        r = rts[1][0]
        a = rational_number(1, r.tower) + r
        b = rational_number(1, r.tower) - r
        s = a + b
        assert s.as_rational() == 2

    def test_division_and_inverse(self):
        rts = roots_with_multiplicity(poly(-2, 0, 1))
        r = rts[1][0]
        inv = rational_number(1) / r
        # 1/sqrt(2) = sqrt(2)/2
        assert (inv - r / rational_number(2)).is_zero()

    def test_divide_by_zero_raises(self):
        rts = roots_with_multiplicity(poly(-2, 0, 1))
        r = rts[1][0]
        z = r - r
        assert z.is_zero()
        with pytest.raises(ZeroDivisionError):
            _ = rational_number(1) / z

    def test_mixed_tower_rejected(self):
        a = roots_with_multiplicity(poly(-2, 0, 1))[1][0]
        b = roots_with_multiplicity(poly(-3, 0, 1))[1][0]
        with pytest.raises(ValueError):
            field_op(a, b, "add")

    def test_rationals_mix_with_any_tower(self):
        a = roots_with_multiplicity(poly(-2, 0, 1))[1][0]
        out = a + 1 - 1
        assert (out - a).is_zero()

    def test_box_tracks_value(self):
        a = roots_with_multiplicity(poly(-2, 0, 1))[1][0]
        v = (a + 1) * (a - 1)  # = 1
        assert v.as_rational() == 1
        b = v.box(60)
        assert b.contains_point(rat(1), rat(0))
        assert b.width <= rat(1, 2**60)


# ---------------------------------------------------------------------------
# nested towers and zero tests through extensions


class TestTowerNesting:
    def _sqrt_of(self, base: AlgebraicNumber) -> AlgebraicNumber:
        coeffs = [-base, rational_number(0, base.tower),
                  rational_number(1, base.tower)]
        rts = roots_with_multiplicity(coeffs, tower=base.tower)
        # pick the root with positive real part
        for r, _ in rts:
            if float(r.box(30).re.mid) > 0:
                return r
        raise AssertionError("no positive root found")

    def test_sqrt_of_sqrt2(self):
        s2 = roots_with_multiplicity(poly(-2, 0, 1))[1][0]
        s4 = self._sqrt_of(s2)  # 2^(1/4)
        square = s4 * s4
        assert (square * square).as_rational() == 2
        # s4^2 is sqrt(2) itself, which is irrational, so s4 has degree 4;
        # s2's representation carries over verbatim onto s4's tower
        assert square.as_rational() is None
        assert (square - AlgebraicNumber(s4.tower, s2.depth, s2.rep)).is_zero()

    def test_zero_recognition_deep(self):
        s2 = roots_with_multiplicity(poly(-2, 0, 1))[1][0]
        s4 = self._sqrt_of(s2)
        # s2 lives on the parent tower; its representation carries over
        # verbatim onto the extension
        neg_s2 = AlgebraicNumber(s4.tower, s2.depth, (-s2).rep)
        lifted = field_op(s4 * s4, neg_s2, "add")
        assert lifted.is_zero()

    def test_golden_identity(self):
        # phi root of T^2 - T - 1: phi^2 = phi + 1
        phi = roots_with_multiplicity(poly(-1, -1, 1))[1][0]
        assert (phi * phi - phi - 1).is_zero()
        assert float(phi.box(40).re.mid) == pytest.approx(1.6180339887, abs=1e-8)


# ---------------------------------------------------------------------------
# lazy splitting: a level whose polynomial factors is cut down to the factor
# of its generator the first time an element turns out to be a zero divisor


def _split_spy():
    return mock.patch.object(algebraic, "tw_choose_is_root",
                             wraps=algebraic.tw_choose_is_root)


class TestLazySplit:
    @staticmethod
    def _sqrt2_on_quartic():
        # T^4 - 10*T^2 + 16 = (T^2 - 2)(T^2 - 8); its roots sort as
        # -2*sqrt2, -sqrt2, sqrt2, 2*sqrt2
        g = roots_with_multiplicity(poly(16, 0, -10, 0, 1))[2][0]
        assert len(g.tower.levels[0].poly) == 5
        assert 1.41 < float(g.box(30).re.mid) < 1.42
        return g

    def test_inverse_splits_off_the_other_factor(self):
        g = self._sqrt2_on_quartic()
        with _split_spy() as spy:
            inv = 1 / (g * g - 8)
        assert spy.called
        assert inv.as_rational() == rat(-1, 6)
        assert len(g.tower.levels[0].poly) == 3

    def test_inverse_of_a_hidden_zero_raises(self):
        g = self._sqrt2_on_quartic()
        with _split_spy() as spy, pytest.raises(ZeroDivisionError):
            _ = 1 / (g * g - 2)
        assert spy.called

    def test_expansion_splits_through_zero_test(self):
        # the V^2 - 8 + mu factor meets roots of the product's edge
        # polynomial on a quartic level: the zero test splits that level
        with _split_spy() as spy:
            branches = puiseux.expand(
                parse_bipoly("(V^2 - 2)*(V^2 - 8 + mu)"))
        assert spy.called
        assert [b.q for b in branches] == [1, 1, 1, 1]
        exact = [b for b in branches if b.exact]
        assert len(exact) == 2
        for b in exact:
            [(e, c)] = b.terms
            assert e == 0 and (c * c - 2).is_zero()
        for b in branches:
            if b.exact:
                continue
            (e0, c0), (e1, c1) = b.terms[:2]
            assert (e0, e1) == (0, 1)
            assert (c0 * c0 - 8).is_zero()
            assert (c1 + 1 / (2 * c0)).is_zero()


# ---------------------------------------------------------------------------
# isolation internals


class TestIsolation:
    def test_isolation_boxes_disjoint(self):
        tw = FieldTower()
        p = [el_from_rational(0, c) for c in poly(-1, 0, 0, 0, 1).c]
        boxes = isolate_roots(tw, 0, p)
        assert len(boxes) == 4
        for i in range(4):
            for j in range(i + 1, 4):
                assert boxes[i].disjoint(boxes[j])

    def test_real_roots_on_axis(self):
        tw = FieldTower()
        p = [el_from_rational(0, c) for c in poly(-2, 0, 1).c]
        boxes = isolate_roots(tw, 0, p)
        assert len(boxes) == 2
        for b in boxes:
            assert b.im.contains_zero()

    @pytest.mark.parametrize("c", [0, -3, rat(5, 7)])
    def test_linear_polynomials(self, c):
        boxes = isolate_roots(FieldTower(), 0, [c, 1])
        assert len(boxes) == 1 and boxes[0].contains_point(-c)

    def test_clustered_roots_separate(self):
        # roots at 0, 1/128, and 5
        p = poly(0, 1) * UniPoly([rat(-1, 128), rat(1)]) * poly(-5, 1)
        rts = roots_with_multiplicity(p)
        vals = sorted(r.as_rational() for r, _ in rts)
        assert vals == [rat(0), rat(1, 128), rat(5)]

    def test_el_box_hits_requested_width(self):
        rts = roots_with_multiplicity(poly(-2, 0, 1))
        r = rts[1][0]
        b = el_box(r.tower, r.depth, r.rep, 100)
        assert b.width <= rat(1, 2**100)
        lo, hi = b.re.lo, b.re.hi
        assert lo * lo <= 2 <= hi * hi

    def test_render_prints_certified_digits(self):
        rts = roots_with_multiplicity(poly(-2, 0, 1))
        assert [r.render() for r, _ in rts] == ["-1.414213562", "1.414213562"]
        assert repr(rts[1][0]) == "1.414213562"
        rts = roots_with_multiplicity(poly(1, 0, 1))
        assert [r.render() for r, _ in rts] == ["(0-1i)", "(0+1i)"]
        assert rational_number(rat(5, 3)).render() == "5/3"

    def test_within_decides_or_raises(self):
        s2 = roots_with_multiplicity(poly(-2, 0, 1))[1][0]
        tol = rat(1, 10**6)
        assert s2.within(rat(141421, 10**5), rat(141422, 10**5), tol)
        assert not s2.within(rat(1), rat(14142, 10**4), tol)
        assert rational_number(rat(3, 2)).within(rat(1), rat(1), rat(1, 2))
        assert not rational_number(rat(3, 2)).within(rat(1), rat(1), rat(1, 3))
        # a 300-digit approximation sits closer than any certificate allows
        approx = Fraction(math.isqrt(2 * 10**600), 10**300)
        with pytest.raises(AmbiguousMatchError, match=r"^center 1\.414213562 "):
            s2.within(approx, approx, rat(0))


# ---------------------------------------------------------------------------
# root isolation against mpmath.polyroots at 50 digits


@contextmanager
def _reversed_isolation():
    """isolate_roots handing back its boxes in reverse order."""
    def reversed_boxes(tw, depth, p):
        return isolate_roots(tw, depth, p)[::-1]

    with mock.patch.object(algebraic, "isolate_roots", reversed_boxes):
        yield


def _sqrt_tower(d):
    """sqrt(d) as the positive root of T^2 - d, on its own depth-1 tower."""
    return roots_with_multiplicity(poly(-d, 0, 1))[1][0]


def _mp(x):
    return mpmath.mpf(x.numerator) / x.denominator


def _holds(box, z):
    # a box may shrink to the exact root (e.g. -1 + i), which polyroots
    # only approximates
    eps = mpmath.mpf(10) ** -40 * max(1, abs(z))
    return (_mp(box.re.lo) - eps <= z.real <= _mp(box.re.hi) + eps
            and _mp(box.im.lo) - eps <= z.imag <= _mp(box.im.hi) + eps)


def _same_root(a, b):
    return not a.box(64).disjoint(b.box(64))


def _rational_c(max_exp):
    """Rationals of either sign with magnitude in [2^-20, 2^max_exp)."""
    return st.builds(
        lambda sign, m, e: sign * Fraction(m, 1000) * Fraction(2) ** e,
        st.sampled_from((1, -1)),
        st.integers(min_value=1000, max_value=1999),
        st.integers(min_value=-20, max_value=max_exp - 1),
    )


small_q = st.fractions(min_value=-50, max_value=50, max_denominator=7)

# a + b*sqrt(d), a depth-1 tower element
tower_c = st.tuples(st.sampled_from((2, 3, 5)), small_q, small_q.filter(bool))

# ("binomial", n, c): T^n + c with c rational or a tower element
binomials = st.tuples(st.just("binomial"), st.integers(2, 8),
                      st.one_of(_rational_c(40), tower_c))
# ("integer", coefficients lowest first)
integer_polys = st.tuples(
    st.just("integer"),
    st.builds(lambda low, lead: (*low, lead),
              st.lists(st.integers(-20, 20), min_size=2, max_size=10),
              st.sampled_from([c for c in range(-20, 21) if c])),
)
# ("tower", d, ((a_j, b_j) for j < n)): T^n + sum (a_j + b_j*sqrt(d)) T^j
tower_polys = st.tuples(
    st.just("tower"), st.sampled_from((2, 3, 5)),
    st.lists(st.tuples(small_q, small_q), min_size=2, max_size=4).map(tuple),
)


def _case(case):
    """(tower, depth, monic AlgebraicNumber coefficients lowest first,
    the same coefficients at 50 digits highest first)."""
    with mpmath.workdps(50):
        if case[0] == "integer":
            tw, depth = FieldTower(), 0
            cs = UniPoly([Fraction(c) for c in case[1]]).monic().c
            return (tw, depth, [rational_number(c, tw) for c in cs],
                    [_mp(Fraction(c)) for c in reversed(cs)])
        if case[0] == "tower":
            _, d, pairs = case
            gen = _sqrt_tower(d)
            root = mpmath.sqrt(d)
            coeffs = [a + b * gen for a, b in pairs]
            coeffs.append(rational_number(1, gen.tower))
            vals = [_mp(a) + _mp(b) * root for a, b in pairs] + [1]
            return gen.tower, 1, coeffs, vals[::-1]
        _, n, c = case
        if isinstance(c, tuple):
            d, a, b = c
            gen = _sqrt_tower(d)
            tw, depth, cn = gen.tower, 1, a + b * gen
            cval = _mp(a) + _mp(b) * mpmath.sqrt(d)
        else:
            tw, depth = FieldTower(), 0
            cn, cval = rational_number(c, tw), _mp(Fraction(c))
        coeffs = ([cn] + [rational_number(0, tw)] * (n - 1)
                  + [rational_number(1, tw)])
        return tw, depth, coeffs, [1] + [0] * (n - 1) + [cval]


def _raw(depth, coeffs):
    return [el_lift(x.rep, x.depth, depth) for x in coeffs]


def _squarefree(tw, depth, p):
    factors = tp_squarefree_monic(tw, depth, p)
    return len(factors) == 1 and factors[0][1] == 1


def _polyroots(vals):
    """mpmath.polyroots at 50 digits, on the polynomial rescaled so that
    its roots have modulus about 1 (its stopping test is absolute)."""
    with mpmath.workdps(50):
        r = max(abs(v) ** (mpmath.mpf(1) / i)
                for i, v in enumerate(vals) if i and v)
        zs = mpmath.polyroots([v / r**i for i, v in enumerate(vals)],
                              maxsteps=1000, extraprec=1000)
        return [z * r for z in zs]


def _check_isolation(tw, depth, p, vals):
    n = len(p) - 1
    boxes = isolate_roots(tw, depth, p)
    assert len(boxes) == n
    for i in range(n):
        for j in range(i):
            assert boxes[i].disjoint(boxes[j])
    zs = _polyroots(vals)
    with mpmath.workdps(50):
        for bx in boxes:
            assert sum(_holds(bx, z) for z in zs) == 1


@contextmanager
def _counting_certificates():
    """Whether each ``_certify`` call inside the block succeeded."""
    outcomes = []
    certify = algebraic._certify

    def counted(*args):
        boxes = certify(*args)
        outcomes.append(boxes is not None)
        return boxes

    with mock.patch.object(algebraic, "_certify", counted):
        yield outcomes


class TestBinomialIsolation:
    @settings(max_examples=40, deadline=None)
    @given(case=binomials)
    @example(case=("binomial", 2, Fraction(1999, 1000) * 2**39))
    @example(case=("binomial", 8, Fraction(-1999, 1000) * 2**39))
    @example(case=("binomial", 8, Fraction(1, 2**20)))
    @example(case=("binomial", 2, Fraction(-1, 2**20)))
    # roots far below 2^-32
    @example(case=("binomial", 2, Fraction(-3, 2**70)))
    @example(case=("binomial", 2, Fraction(-5, 10**25)))
    def test_boxes_isolate_the_roots(self, case):
        tw, depth, coeffs, vals = _case(case)
        p = _raw(depth, coeffs)
        assume(_squarefree(tw, depth, p))
        with _counting_certificates() as outcomes:
            _check_isolation(tw, depth, p, vals)
        assert outcomes == [True]  # the first precision settled every root

    # These two constants once sent T^2 + c from the binomial closed form
    # to the quadtree: on the absolute 2^-96 grid 3*2^-70 is exact and
    # 5*10^-25 is known to about 16 bits.  No fallback remains: the seeds
    # read each constant to float precision relative to its size, and the
    # first certificate settles both roots.
    @pytest.mark.parametrize("c, exact", [
        (Fraction(-3, 2**70), True),
        (Fraction(-5, 10**25), False),
    ])
    def test_fallback_to_the_quadtree(self, c, exact):
        tw, p = FieldTower(), [c, 0, 1]
        b = el_box(tw, 0, c, 64).fb
        assert (b[0] == b[1]) == exact
        (j, e, m), _ = algebraic._coefficient_floats(tw, 0, p)
        assert j == 0 and m.imag == 0
        assert abs(Fraction(m.real) * Fraction(2) ** e - c) <= abs(c) / 2**52
        with _counting_certificates() as outcomes:
            boxes = isolate_roots(tw, 0, p)
        assert outcomes == [True]
        assert len(boxes) == 2 and boxes[0].disjoint(boxes[1])
        with mpmath.workdps(50):
            z = mpmath.sqrt(_mp(-c))
            assert sorted(_holds(b, z) for b in boxes) == [False, True]
            assert sorted(_holds(b, -z) for b in boxes) == [False, True]


class TestRootIsolation:
    @settings(max_examples=60, deadline=None)
    @given(case=st.one_of(integer_polys, tower_polys))
    # a cluster: T^3 - 2T^2 + (1 - 10^-12)T, roots 0 and 1 +- 10^-6
    @example(case=("integer", (0, 10**12 - 1, -2 * 10**12, 10**12)))
    def test_boxes_isolate_the_roots(self, case):
        tw, depth, coeffs, vals = _case(case)
        p = _raw(depth, coeffs)
        assume(_squarefree(tw, depth, p))
        _check_isolation(tw, depth, p, vals)

    @pytest.mark.parametrize("case", [
        # roots far from the unit circle
        ("binomial", 3, Fraction(10**400)),
        ("integer", (1536, 1, 0, 0, 0, 0, 0, 0, 1)),
        # one root of modulus 7e33 and six of 3.4e-9: q's coefficients
        # that fix the six lie near 2^-840, far below 64 bits of precision
        ("integer", (-1, 8000, 0, -2 * 10**23, -7 * 10**12, -7 * 10**34,
                     -7 * 10**50, 10**17)),
        # 0.56 +- 0.80i beside -5.5 and -51859: seeded one hull edge at a
        # time, the pair would start on (and never leave) the real axis
        ("integer", (805666, -807898, 674447, 155591, 3)),
    ], ids=["cubic_10e400", "octic_t_1536", "moduli_3e-9_and_7e33",
            "pair_near_real_axis"])
    def test_hard_inputs_return(self, case):
        tw, depth, coeffs, vals = _case(case)
        _check_isolation(tw, depth, _raw(depth, coeffs), vals)

    @settings(max_examples=30, deadline=None)
    @given(case=st.one_of(binomials, integer_polys))
    @example(case=("binomial", 2, Fraction(-3, 2**70)))
    @example(case=("binomial", 2, Fraction(-1, 10**30)))
    @example(case=("binomial", 4, Fraction(-1, 10**60)))
    @example(case=("binomial", 2, Fraction(3)))
    def test_choices_ignore_isolation_order(self, case):
        tw, depth, coeffs, _ = _case(case)
        assume(_squarefree(tw, depth, _raw(depth, coeffs)))
        roots = roots_with_multiplicity(coeffs)
        with _reversed_isolation():
            again = roots_with_multiplicity(coeffs)
        assert [m for _, m in roots] == [m for _, m in again]
        assert all(_same_root(x, y) for (x, _), (y, _) in zip(roots, again))
        if case[0] == "binomial":
            xi, n = -coeffs[0], case[1]
            rep = algebraic.nth_root_representative(xi, n)
            with _reversed_isolation():
                assert _same_root(rep, algebraic.nth_root_representative(xi, n))
