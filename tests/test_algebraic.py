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
    _isolate_attempt,
    _isolate_binomial,
    _isolate_quadtree,
    _isq,
    el_box,
    el_from_rational,
    el_lift,
    field_op,
    isolate_roots,
    minimal_polynomial,
    rational_nth_root,
    rational_number,
    rational_sqrt,
    roots_with_multiplicity,
)
from puiseuxpath.polynomials import UniPoly


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
        assert rational_sqrt(rat(9, 4)) == rat(3, 2)
        assert rational_sqrt(rat(1, 8)) is None
        assert rational_sqrt(rat(-4)) is None
        assert rational_sqrt(rat(0)) == 0

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
# minimal polynomials


class TestMinimalPolynomial:
    def test_rational_exact(self):
        mp = minimal_polynomial(rational_number(rat(3, 4)))
        assert mp == UniPoly([rat(-3, 4), rat(1)])

    def test_sqrt2_divides(self):
        r = roots_with_multiplicity(poly(-2, 0, 1))[1][0]
        mp = minimal_polynomial(r)
        target = poly(-2, 0, 1)
        q, rem = mp.divmod(target)
        assert rem.is_zero()
        assert q.degree == mp.degree - 2

    def test_sqrt8_over_8_divides(self):
        c = roots_with_multiplicity(UniPoly([rat(1, 2), rat(0), rat(-4)]))[1][0]
        mp = minimal_polynomial(c)
        target = UniPoly([rat(-1), rat(0), rat(8)]).monic()
        _, rem = mp.divmod(target)
        assert rem.is_zero()

    def test_annihilates_numerically(self):
        rts = roots_with_multiplicity(poly(-1, -1, 0, 1))  # T^3 - T - 1
        for r, _ in rts:
            mp = minimal_polynomial(r)
            b = r.box(50)
            z = complex(float(b.re.mid), float(b.im.mid))
            val = sum(float(c) * z**k for k, c in enumerate(mp.c))
            assert abs(val) < 1e-9

    def test_monic_and_squarefree(self):
        r = roots_with_multiplicity(poly(-2, 0, 1))[1][0]
        mp = minimal_polynomial(r)
        assert mp.lc() == 1
        assert mp.gcd(mp.derivative()).degree == 0


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
        fourth = s4.pow(4)
        assert fourth.as_rational() == 2
        mp = minimal_polynomial(s4)
        _, rem = mp.divmod(poly(-2, 0, 0, 0, 1))
        assert rem.is_zero()

    def test_zero_recognition_deep(self):
        s2 = roots_with_multiplicity(poly(-2, 0, 1))[1][0]
        s4 = self._sqrt_of(s2)
        # s2 lives on the parent tower; migrate it onto the extension
        lifted = field_op(s4.pow(2), (-s2).on_tower(s4.tower), "add")
        assert lifted.is_zero()

    def test_golden_identity(self):
        # phi root of T^2 - T - 1: phi^2 = phi + 1
        phi = roots_with_multiplicity(poly(-1, -1, 1))[1][0]
        assert (phi * phi - phi - 1).is_zero()
        assert float(phi.box(40).re.mid) == pytest.approx(1.6180339887, abs=1e-8)


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

    def test_render_mentions_poly_and_box(self):
        r = roots_with_multiplicity(poly(-2, 0, 1))[1][0]
        s = r.render()
        assert s.startswith("root(")
        assert "re=" in s and "im=" in s
        assert rational_number(rat(5, 3)).render() == "5/3"


# ---------------------------------------------------------------------------
# closed-form isolation of binomials T^n + c, against the quadtree


def _quadtree_isolate(tw, depth, p):
    """isolate_roots without the closed form, kept as the oracle."""
    return _isolate_quadtree(tw, depth, p, len(p) - 1)


@contextmanager
def _quadtree_only():
    with mock.patch.object(algebraic, "isolate_roots", _quadtree_isolate), \
            mock.patch.object(puiseux, "isolate_roots", _quadtree_isolate):
        yield


@contextmanager
def _counting_attempts():
    calls = []

    def counted(*args):
        calls.append(args[3])
        return _isolate_attempt(*args)

    with mock.patch.object(algebraic, "_isolate_attempt", counted):
        yield calls


def _sqrt_tower(d):
    """sqrt(d) as the positive root of T^2 - d, on its own depth-1 tower."""
    return roots_with_multiplicity(poly(-d, 0, 1))[1][0]


def _mp(x):
    return mpmath.mpf(x.numerator) / x.denominator


def _holds(box, z):
    return (_mp(box.re.lo) <= z.real <= _mp(box.re.hi)
            and _mp(box.im.lo) <= z.imag <= _mp(box.im.hi))


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


# a + b*sqrt(d), a depth-1 tower element
tower_c = st.tuples(
    st.sampled_from((2, 3, 5)),
    st.fractions(min_value=-50, max_value=50, max_denominator=7),
    st.fractions(min_value=-50, max_value=50, max_denominator=7).filter(bool),
)


def _binomial(n, c):
    """(tower, depth, coefficients as AlgebraicNumbers, c at 50 digits)."""
    if isinstance(c, tuple):
        d, a, b = c
        gen = _sqrt_tower(d)
        tw, depth, cn = gen.tower, 1, a + b * gen
        with mpmath.workdps(50):
            cval = _mp(a) + _mp(b) * mpmath.sqrt(d)
    else:
        tw, depth = FieldTower(), 0
        cn = rational_number(c, tw)
        with mpmath.workdps(50):
            cval = _mp(c)
    coeffs = ([cn] + [rational_number(0, tw)] * (n - 1)
              + [rational_number(1, tw)])
    return tw, depth, coeffs, cval


class TestBinomialIsolation:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=2, max_value=8),
           c=st.one_of(_rational_c(40), tower_c))
    @example(n=2, c=Fraction(1999, 1000) * 2**39)
    @example(n=8, c=Fraction(-1999, 1000) * 2**39)
    @example(n=8, c=Fraction(1, 2**20))
    @example(n=2, c=Fraction(-1, 2**20))
    def test_boxes_isolate_the_roots(self, n, c):
        tw, depth, coeffs, cval = _binomial(n, c)
        p = [el_lift(x.rep, x.depth, depth) for x in coeffs]
        with _counting_attempts() as attempts:
            boxes = isolate_roots(tw, depth, p)
        assert attempts == []  # the closed form settled every root
        assert len(boxes) == n
        for i in range(n):
            for j in range(i):
                assert boxes[i].disjoint(boxes[j])
        with mpmath.workdps(50):
            zs = mpmath.polyroots([1] + [0] * (n - 1) + [cval],
                                  maxsteps=200, extraprec=200)
            for bx in boxes:
                assert sum(_holds(bx, z) for z in zs) == 1

    # the quadtree settles these within its first 64-bit attempt; past
    # degree 4 or |c| = 2^20 it grows slow, and at degree 8 with
    # |c| >= 2^10 it exceeds its cell budget
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=2, max_value=4),
           c=st.one_of(_rational_c(20), tower_c))
    def test_choices_match_the_quadtree(self, n, c):
        _, _, coeffs, _ = _binomial(n, c)
        xi = -coeffs[0]
        fast = puiseux._w_root_representative(xi, n)
        fast_roots = roots_with_multiplicity(coeffs)
        with _quadtree_only():
            slow = puiseux._w_root_representative(xi, n)
            slow_roots = roots_with_multiplicity(coeffs)
        assert _same_root(fast, slow)
        assert [m for _, m in fast_roots] == [m for _, m in slow_roots]
        assert all(_same_root(x, y)
                   for (x, _), (y, _) in zip(fast_roots, slow_roots))

    @pytest.mark.parametrize("c, certified", [
        # both roots of T^2 - 3*2^-70 certify, but they round to re = 0 on
        # the order_key grid and share im = 0, so their ranking is not fixed
        (Fraction(-3, 2**70), True),
        # at the 2^-96 scale 5*10^-25 is known to 16 bits, too few for the
        # seeds to land in their boxes, so the certificate fails
        (Fraction(-5, 10**25), False),
    ])
    def test_fallback_to_the_quadtree(self, c, certified):
        p = [c, 0, 1]
        with mock.patch.object(algebraic, "_ranks_fixed", lambda *a: True):
            unranked = _isolate_binomial(FieldTower(), 0, p, 2)
        assert (unranked is not None) == certified
        with _counting_attempts() as attempts:
            boxes = isolate_roots(FieldTower(), 0, p)
        assert attempts  # the quadtree ran
        assert len(boxes) == 2 and boxes[0].disjoint(boxes[1])
        with mpmath.workdps(50):
            z = mpmath.sqrt(_mp(-c))
            assert sorted(_holds(b, z) for b in boxes) == [False, True]
            assert sorted(_holds(b, -z) for b in boxes) == [False, True]

    def test_constant_beyond_float_range_is_declined(self):
        assert _isolate_binomial(FieldTower(), 0, [10**400, 0, 0, 1], 3) \
            is None
