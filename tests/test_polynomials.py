"""Exact polynomial arithmetic: gcd, content, separable part, resultants.

Derived expected values were frozen from independent oracles: a naive
pseudo-remainder sequence for the gcd degree chain, hand-expanded Sylvester
determinants for the resultants (cross-checked with sympy below).
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from puiseuxpath import polynomials
from puiseuxpath.polynomials import (
    BiPoly,
    UniPoly,
    parse_bipoly,
    qdiv,
    render_bipoly,
)


def P(text):
    return parse_bipoly(text)


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------


def test_parse_simple():
    p = P("Y^2 - X^3")
    assert p.deg_v == 2
    assert p.to_dict() == {(2, 0): Fraction(1), (0, 3): Fraction(-1)}


def test_parse_rational_coeffs():
    p = P("2*T^3 + (2 - 1/2*mu)*T^2 - (mu + 2)*T - 2")
    assert p.coeff_v(3) == UniPoly([2])
    assert p.coeff_v(2) == UniPoly([2, Fraction(-1, 2)])
    assert p.coeff_v(1) == UniPoly([-2, -1])
    assert p.coeff_v(0) == UniPoly([-2])


def test_parse_aliases_and_implicit_mult():
    assert P("y^2 - x^3") == P("V^2 - mu^3")
    assert P("2mu") == P("2*mu")
    assert P("(V-1)(V+1)") == P("V^2 - 1")


def test_parse_errors():
    from puiseuxpath.errors import ParseError

    with pytest.raises(ParseError):
        P("Y^2 +")
    with pytest.raises(ParseError):
        P("w^2 - 1")
    with pytest.raises(ParseError):
        P("Y^(1/2)")


def test_render_round_trip():
    texts = [
        "2*T^3 + (2 - 1/2*mu)*T^2 - (mu + 2)*T - 2",
        "Y^2 - X^3",
        "mu^2*V + mu^3",
        "V^5 - mu^3*V^3 - mu^2*V^2 + mu^5",
    ]
    for t in texts:
        p = P(t)
        assert parse_bipoly(render_bipoly(p)) == p


def test_unipoly_basics():
    p = UniPoly([1, 0, -2])  # -2 mu^2 + 1
    q = UniPoly([0, 1])
    assert (p * q).c == (0, 1, 0, -2)
    assert p.eval(Fraction(1, 2)) == Fraction(1, 2)
    quo, rem = p.divmod(q)
    assert quo == UniPoly([0, -2]) and rem == UniPoly([1])


# ---------------------------------------------------------------------------
# gcd
# ---------------------------------------------------------------------------


def test_gcd_repeated_factor():
    # gcd of P and dP/dV for P = (V-1)^2 (V+1)^2 contains (V-1)(V+1)
    p = P("(V-1)^2 * (V+1)^2")
    g = p.gcd(p.derivative_v())
    assert g == P("V^2 - 1")


def test_gcd_cusp_squarefree():
    assert P("Y^2 - X^3").gcd(P("2*Y")) == BiPoly.const(1)


def test_gcd_weierstrass_degree_zero():
    # frozen from the naive pseudo-remainder sequence: V-degrees 5,4,3,2,1,0
    # so the last nonzero remainder is constant in V
    w = P("Y^5 - X^3*Y^3 - X^2*Y^2 + X^5")
    g = w.gcd(w.derivative_v())
    assert g.deg_v == 0


def test_gcd_common_factor_with_mu():
    p = P("(V - mu) * (V + mu^2)")
    q = P("(V - mu) * (V - 1)")
    assert p.gcd(q) == P("V - mu")


def test_gcd_matches_sympy_on_random_inputs():
    # cross-check the subresultant route against an independent implementation
    rng = random.Random(20260816)
    X, Y = sp.symbols("X Y")
    for _ in range(25):
        d = {}
        for _k in range(rng.randint(2, 5)):
            d[(rng.randint(0, 3), rng.randint(0, 3))] = Fraction(rng.randint(-5, 5))
        common = {(1, 0): Fraction(1), (0, 1): Fraction(rng.randint(-3, 3))}
        a = BiPoly.from_dict(d)
        c = BiPoly.from_dict(common)
        if a.is_zero() or a.deg_v < 1:
            continue
        p, q = a * c, c * c
        ours = p.gcd(q)
        sa = sum(x * Y**j * X**k for (j, k), x in p.to_dict().items())
        sb = sum(x * Y**j * X**k for (j, k), x in q.to_dict().items())
        theirs = sp.gcd(sp.Poly(sa, Y, domain=sp.QQ.frac_field(X)),
                        sp.Poly(sb, Y, domain=sp.QQ.frac_field(X)))
        assert ours.deg_v == sp.Poly(theirs, Y).degree()


# ---------------------------------------------------------------------------
# separable part / content
# ---------------------------------------------------------------------------


def test_separable_strip_multiplicity():
    p = P("(V - mu)^2 * (V + 1)")
    assert p.separable_part() == P("(V - mu) * (V + 1)")


def test_separable_matches_sympy_sqf_part():
    # products with repeated factors against sympy's square-free part,
    # taken primitive in V because separable_part drops the content in mu
    rng = random.Random(20261018)
    X, Y = sp.symbols("X Y")

    def to_sympy(p):
        return sum(x * Y**j * X**k for (j, k), x in p.to_dict().items())

    checked = 0
    for _ in range(20):
        p = BiPoly.const(1)
        for mult in rng.sample((1, 1, 2, 3), rng.randint(2, 3)):
            d = {(rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-4, 4))
                 for _k in range(rng.randint(2, 4))}
            d[(rng.randint(1, 2), rng.randint(0, 1))] = Fraction(rng.choice((-3, -1, 1, 2)))
            f = BiPoly.from_dict(d)
            for _m in range(mult):
                p = p * f
        if p.deg_v < 1:
            continue
        ours = to_sympy(p.separable_part())
        _, theirs = sp.Poly(sp.sqf_part(to_sympy(p)), Y).primitive()
        ratio = sp.cancel(ours / theirs.as_expr())
        assert ratio.is_Rational and ratio != 0
        checked += 1
    assert checked >= 15


def test_separable_elliptope_cubic_unchanged():
    f = P("2*T^3 + (2 - 1/2*mu)*T^2 - (mu + 2)*T - 2")
    s = f.separable_part()
    # square-free already: only the primitive scaling, by 2, applies
    assert s == f.primitive() == P("4*T^3 + (4 - mu)*T^2 - (2*mu + 4)*T - 4")
    assert f.exact_div(s) == BiPoly.const(Fraction(1, 2))


def test_separable_cusp_unchanged():
    p = P("Y^2 - X^3")
    assert p.separable_part() == p


def test_content_and_primitive():
    # the content P / P.primitive() is constant in V
    for text, content, prim in [
        ("mu*V^2 + mu^2*V", "mu", "V^2 + mu*V"),
        ("mu^2*V + mu^3", "mu^2", "V + mu"),
        ("-3*mu^2*V + 6*mu^3", "-3*mu^2", "V - 2*mu"),
        ("2*T^3 + (2 - 1/2*mu)*T^2 - (mu + 2)*T - 2", "1/2",
         "4*T^3 + (4 - mu)*T^2 - (2*mu + 4)*T - 4"),
        ("(2/3 - 2/3*mu)*V + 4/3*mu - 4/3", "2/3 - 2/3*mu", "V - 2"),
        ("-7", "-7", "1"),
    ]:
        q = P(text).primitive()
        assert q == P(prim)
        assert P(text).exact_div(q) == P(content)
    q = P("V^2 + mu*V")
    assert q.primitive() is q
    assert BiPoly().primitive() == BiPoly()


def test_content_reconstructs():
    rng = random.Random(7)
    for _ in range(50):
        d = {
            (rng.randint(0, 4), rng.randint(0, 4)): Fraction(
                rng.randint(-10, 10), rng.randint(1, 10)
            )
            for _ in range(rng.randint(1, 6))
        }
        p = BiPoly.from_dict(d)
        if p.is_zero():
            continue
        q = p.primitive()
        c = p.exact_div(q)
        assert c.deg_v == 0 and q * c == p


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------


def res(p, q):
    """The resultant in V of two nonzero BiPolys, by the shared routine."""
    return polynomials.resultant(p.cv, q.cv)


def test_resultant_linear_substitution():
    r = res(P("Y - 1"), P("Y^2 - X"))
    assert r == UniPoly([1, -1])  # 1 - X


def test_resultant_two_quadratics():
    # hand oracle: 4x4 Sylvester determinant reduces to 4 X^2
    r = res(P("Y^2 - X"), P("Y^2 + X"))
    assert r == UniPoly([0, 0, 4])


def test_resultant_cusp_derivative():
    # hand oracle: det [[1,0,-X^3],[2,0,0],[0,2,0]] = -4 X^3
    r = res(P("Y^2 - X^3"), P("2*Y"))
    assert r == UniPoly([0, 0, 0, -4])


def test_resultant_swapped_variable():
    # (V - mu^2, mu - V^2) with mu and V exchanged, so the resultant in V
    # eliminates the original mu: classical iterated-substitution value
    r = res(P("mu - V^2"), P("V - mu^2"))
    assert r == UniPoly([0, 1, 0, 0, -1])  # mu - mu^4 in the remaining variable


def test_resultant_vanishes_iff_common_root():
    # resultant(P,Q)(mu0) = 0 iff gcd(P(mu0), Q(mu0)) nonconstant
    rng = random.Random(99)
    p = P("(V - mu) * (V + 2)")
    q = P("(V - mu^2) * (V - 3)")
    r = res(p, q)
    for _ in range(20):
        mu0 = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        pv = p.eval_mu(mu0)
        qv = q.eval_mu(mu0)
        nontrivial = pv.gcd(qv).degree >= 1
        assert (r.eval(mu0) == 0) == nontrivial


def test_resultant_matches_sylvester_determinant_random():
    # independent oracle: assemble the Sylvester matrix (rows of P's
    # coefficients first, then rows of Q's) and evaluate its determinant
    # with sympy's matrix engine
    rng = random.Random(5)
    X = sp.symbols("X")
    for _ in range(15):
        d1 = {
            (rng.randint(0, 3), rng.randint(0, 2)): Fraction(rng.randint(-4, 4))
            for _ in range(3)
        }
        d2 = {
            (rng.randint(0, 3), rng.randint(0, 2)): Fraction(rng.randint(-4, 4))
            for _ in range(3)
        }
        a, b = BiPoly.from_dict(d1), BiPoly.from_dict(d2)
        if a.deg_v < 1 or b.deg_v < 1:
            continue

        def upoly(u):
            return sum(sp.Rational(x) * X**k for k, x in enumerate(u.c))

        m, n = a.deg_v, b.deg_v
        arow = [upoly(a.coeff_v(m - k)) for k in range(m + 1)]
        brow = [upoly(b.coeff_v(n - k)) for k in range(n + 1)]
        mat = []
        for i in range(n):
            mat.append([0] * i + arow + [0] * (m + n - m - 1 - i))
        for i in range(m):
            mat.append([0] * i + brow + [0] * (m + n - n - 1 - i))
        det = sp.expand(sp.Matrix(mat).det())
        expect = sp.Poly(det, X).all_coeffs()[::-1] if det != 0 else []
        ours = res(a, b)
        assert ours == UniPoly([Fraction(sp.Rational(v)) for v in expect])


# ---------------------------------------------------------------------------
# determinism / purity
# ---------------------------------------------------------------------------


def test_operations_are_pure_and_deterministic():
    p = P("(V - mu)^2 * (V + 1)")
    snapshot = p.to_dict()
    p.separable_part()
    p.gcd(p.derivative_v())
    p.primitive()
    assert p.to_dict() == snapshot
    a = p.separable_part()
    b = p.separable_part()
    assert a == b and render_bipoly(a) == render_bipoly(b)


# ---------------------------------------------------------------------------
# integer coefficients: int when integral, Fraction otherwise, never float
# ---------------------------------------------------------------------------

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)
bipolys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), rationals, min_size=1, max_size=5
).map(BiPoly.from_dict)


def _exact_kind(x):
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _flat(p):
    return list(p.c) if isinstance(p, UniPoly) else [x for u in p.cv for x in u.c]


@contextmanager
def _recording_prs():
    """Collect every element the subresultant sequence takes or makes."""
    seen = []
    prem, prs = polynomials._prem, polynomials._subresultant_prs

    def record_prem(a, b):
        r = prem(a, b)
        seen.extend([*a, *b, *r])
        return r

    def record_prs(a, b):
        out = prs(a, b)
        last, tail, h, _ = out
        seen.extend([*last, *tail, h])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polynomials, "_prem", record_prem)
        mp.setattr(polynomials, "_subresultant_prs", record_prs)
        yield seen


class TestIntegerKernel:
    def test_qdiv(self):
        assert qdiv(6, 3) == 2 and type(qdiv(6, 3)) is int
        assert qdiv(-7, 2) == Fraction(-7, 2)
        assert qdiv(Fraction(3, 2), Fraction(1, 2)) == 3
        assert type(qdiv(Fraction(3, 2), Fraction(1, 2))) is int
        assert qdiv(1, Fraction(2, 3)) == Fraction(3, 2)
        with pytest.raises(ZeroDivisionError):
            qdiv(1, 0)
        with pytest.raises(TypeError):
            qdiv(1.0, 2)

    def test_coefficients_normalize(self):
        u = UniPoly([Fraction(4, 2), Fraction(1, 3), 5])
        assert [type(x) for x in u.c] == [int, Fraction, int]
        assert type(u.monic().c[0]) is Fraction
        assert type(UniPoly([3, 6]).monic().c[0]) is Fraction
        assert type(UniPoly([3, 6]).divmod(UniPoly([3]))[0].c[1]) is int
        with pytest.raises(TypeError):
            UniPoly([0.5])

    @settings(deadline=None, max_examples=60)
    @given(bipolys, bipolys, bipolys)
    def test_gcd_and_separable_part_run_on_int(self, a, b, c):
        p, q = a * c, b * c
        with _recording_prs() as seen:
            g = p.gcd(q)
            s = p.separable_part()
        # the sequence starts from denominator-free primitive parts
        assert all(type(x) is int for u in seen for x in u.c)
        assert all(_exact_kind(x) for x in _flat(g) + _flat(s))

    @settings(deadline=None, max_examples=60)
    @given(bipolys, bipolys)
    def test_resultant_coefficients_stay_exact(self, a, b):
        assume(not a.is_zero() and not b.is_zero())
        assume(a.deg_v >= 1 or b.deg_v >= 1)
        with _recording_prs() as seen:
            r = res(a, b)
        assert all(_exact_kind(x) for u in seen for x in u.c)
        assert all(_exact_kind(x) for x in r.c)


# ---------------------------------------------------------------------------
# the canonical form: primitive parts, and gcds over Q(mu)
# ---------------------------------------------------------------------------

unipolys = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(UniPoly).filter(
    lambda u: not u.is_zero())


def _sympy_expr(p, X, Y):
    return sum(sp.Rational(x.numerator, x.denominator) * Y**j * X**k
               for (j, k), x in p.to_dict().items())


class TestPrimitive:
    @settings(deadline=None, max_examples=100)
    @given(bipolys, unipolys, rationals)
    def test_one_form_per_zero_set(self, p, c, r):
        assume(not p.is_zero())
        q = p.primitive()
        assert q.primitive() is q
        # unchanged by a nonzero factor in Q[mu] or in Q
        assert (p * BiPoly([c])).primitive() == q
        assert p.scale(r).primitive() == q
        # coprime int coefficients and a positive lead
        cs = [x for u in q.cv for x in u.c]
        assert all(type(x) is int for x in cs)
        assert math.gcd(*cs) == 1 and q.lc_v().lc() > 0
        assert p.exact_div(q).deg_v == 0

    @settings(deadline=None, max_examples=60)
    @given(bipolys, bipolys, bipolys, unipolys, unipolys)
    def test_gcd_ignores_contents_and_divides(self, a, b, c, c1, c2):
        a, b = a * c, b * c
        g = a.gcd(b)
        assert (a * BiPoly([c1])).gcd(b * BiPoly([c2])) == g
        assert g.primitive() == g
        for p in (a, b):
            if not p.is_zero():
                p.exact_div(g)  # raises unless g divides p in Q[mu][V]
        s = a.separable_part()
        assert s.primitive() == s

    @settings(deadline=None, max_examples=40)
    @given(bipolys, bipolys, bipolys)
    def test_gcd_matches_sympy_over_q_mu(self, a, b, c):
        # up to a unit of Q(mu)[V], that is a nonzero factor free of V
        a, b = a * c, b * c
        assume(not a.is_zero() and not b.is_zero())
        X, Y = sp.symbols("X Y")
        field = sp.QQ.frac_field(X)
        theirs = sp.gcd(sp.Poly(_sympy_expr(a, X, Y), Y, domain=field),
                        sp.Poly(_sympy_expr(b, X, Y), Y, domain=field))
        ratio = sp.cancel(_sympy_expr(a.gcd(b), X, Y) / theirs.as_expr())
        assert ratio != 0 and not ratio.has(Y)
