"""Exact elimination: the central-path system projected to plane curves.

Hand-checked fixtures:

* identity instance: X = I, y = 1 - mu, S = mu*I, so X_11 eliminates to
  V - 1, S_11 to V - mu, and y to (V - 1)(V - 1 + mu) (the resultant
  chain drags in a co-centered extraneous branch at V = 1).
* elliptope X_12: the exact path satisfies
  2T^3 + (2 - mu/2)T^2 - (mu + 2)T - 2 = 0, so the eliminant must be
  divisible by that cubic.
* kl02 n = 3: the path has x_12 = y_1 = 0 identically, x_02 = -y_2 and
  2 y_2^2 = mu, y_3 = 3mu/2 (substitute into X*S = mu*I and read off
  the diagonal), so the minimal curves below come out in closed form.
* S-pin instance: A = (E00, E01 + E10), b = (1, 0), C = [[0, 1], [1, 1]].
  The primal rows force X_01 = 0, so X and S are diagonal on the path:
  X = diag(1, mu), y = (-mu, 1), S = diag(mu, 1). Its S_01 = 1 - y_1 is
  zero on the path without being the zero polynomial.
* random instances: ``_random_instance(seed)`` draws a small instance
  whose X = I is feasible. ``data/eliminants_random.txt`` holds the
  eliminant or error of every canonical coordinate of seeds 1000-1059,
  without the seeds the constructor rejects and four whose chains take
  seconds. Their chains mix linear and higher-degree pivots.
"""

import math
import random
import re
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from puiseuxpath import elimination
from puiseuxpath.elimination import (
    MPoly,
    _float_evaluator,
    _strip,
    canonical_coordinates,
    central_system,
    eliminate_coordinate,
)
from puiseuxpath.errors import (
    EliminationBlowUpError,
    ExtraneousVanishingError,
    InputError,
    PuiseuxPathError,
)
from puiseuxpath.polynomials import BiPoly, parse_bipoly, resultant
from puiseuxpath.sdo import (
    SDOInstance,
    elliptope_instance,
    identity_instance,
    kl02_instance,
    trace_path,
)

F_ELL = parse_bipoly("2*T^3 + (2 - 1/2*mu)*T^2 - (mu + 2)*T - 2")
RANDOM_GOLDEN = Path(__file__).parent / "data" / "eliminants_random.txt"
# seeds 1000-1059 whose slowest coordinate takes seconds to eliminate
SLOW_SEEDS = {1008, 1033, 1039, 1049}


class TestMPoly:
    def test_arithmetic(self):
        x = MPoly.variable(3, 1)
        y = MPoly.variable(3, 2)
        p = x * x - y.scale(Fraction(2))  # x^2 - 2y
        assert p.deg(1) == 2 and p.deg(2) == 1
        assert p.terms[(0, 2, 0)] == 1
        assert p.terms[(0, 0, 1)] == -2

    def test_pow(self):
        x = MPoly.variable(2, 1)
        p = (x + MPoly.const(2, 1)) ** 3  # (x + 1)^3
        assert p.terms[(0, 2)] == 3
        assert p.terms[(0, 0)] == 1

    def test_coeffs_in(self):
        x = MPoly.variable(2, 1)
        p = (x * x).scale(Fraction(2)) + MPoly.const(2, 5)
        lo, mid, hi = p.coeffs_in(1)
        assert lo.terms == {(0, 0): 5}
        assert mid.is_zero()
        assert hi.terms == {(0, 0): 2}

    def test_exact_div(self):
        x = MPoly.variable(3, 1)
        y = MPoly.variable(3, 2)
        mu = MPoly.variable(3, 0)
        a = x * x - y.scale(Fraction(1, 3)) + mu
        b = x * y + mu * mu - MPoly.const(3, 2)
        assert (a * b).exact_div(b).terms == a.terms
        assert (a * b).exact_div(a).terms == b.terms
        five = MPoly.const(3, 5)
        assert (a * b).exact_div(five).terms == (a * b).scale(Fraction(1, 5)).terms

    def test_exact_div_keeps_int_coefficients(self):
        x = MPoly.variable(3, 1)
        y = MPoly.variable(3, 2)
        mu = MPoly.variable(3, 0)
        a = x * x.scale(3) - y + mu.scale(2)
        b = x * y - mu * mu.scale(4) + MPoly.const(3, 6)
        for q in ((a * b).exact_div(b), (a * b).exact_div(a)):
            assert all(type(c) is int for c in q.terms.values())
        third = (a * b).exact_div(MPoly.const(3, 3))
        assert third.terms[(0, 3, 1)] == 1  # 3 x^3 y / 3
        assert type(third.terms[(0, 3, 1)]) is int
        assert third.terms[(0, 1, 2)] == Fraction(-1, 3)

    @settings(deadline=None, max_examples=100)
    @given(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool),
        min_size=1, max_size=6,
    ))
    def test_strip_gives_coprime_ints(self, terms):
        p = MPoly(3, terms)
        out = _strip(p)
        assert all(type(c) is int for c in out.terms.values())
        assert math.gcd(*out.terms.values()) == 1
        # out is p / mu^k times one positive rational
        k = min(e[0] for e in p.terms)
        assert min(e[0] for e in out.terms) == 0
        ratios = {Fraction(c) / out.terms[(e[0] - k,) + e[1:]]
                  for e, c in p.terms.items()}
        assert len(ratios) == 1 and ratios.pop() > 0

    def test_exact_div_raises_on_remainder(self):
        x = MPoly.variable(3, 1)
        y = MPoly.variable(3, 2)
        one = MPoly.const(3, 1)
        # the first two quotient terms divide, the remainder 1 + y^2 does not
        with pytest.raises(ArithmeticError):
            (x * x + one).exact_div(x + y)
        with pytest.raises(ArithmeticError):
            (x * x + y).exact_div(x)


class TestSharedResultant:
    """The shared resultant on MPoly coefficient lists, against sympy.

    Four variables (mu, x, y, z); x is eliminated. sympy.resultant is
    always asked with the higher degree first and the swap sign
    (-1)^(deg f * deg g) applied here: for deg f < deg g, both odd,
    sympy 1.14 returns the negated Sylvester determinant.
    """

    NV = 4
    SYMS = sp.symbols("mu x y z")
    W = 1

    def to_sympy(self, p):
        return sum(
            sp.Rational(c.numerator, c.denominator)
            * sp.Mul(*(s**k for s, k in zip(self.SYMS, e)))
            for e, c in p.terms.items()
        )

    def from_sympy(self, expr):
        if expr == 0:
            return MPoly(self.NV)
        poly = sp.Poly(expr, *self.SYMS)
        return MPoly(
            self.NV,
            {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()},
        )

    def random_poly(self, rng, deg_w, spread=2):
        terms = {}
        for k in range(deg_w + 1):
            for _ in range(rng.randint(1, 2) if k == deg_w else rng.randint(0, 2)):
                e = [rng.randint(0, spread) for _ in range(self.NV)]
                e[self.W] = k
                terms[tuple(e)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                           rng.randint(1, 2))
        return MPoly(self.NV, terms)

    def check(self, f, g):
        x = self.SYMS[self.W]
        m, n = f.deg(self.W), g.deg(self.W)
        ours = resultant(f.coeffs_in(self.W), g.coeffs_in(self.W))
        F, G = self.to_sympy(f), self.to_sympy(g)
        if m < n:
            expect = (-1) ** (m * n) * sp.resultant(G, F, x)
        else:
            expect = sp.resultant(F, G, x)
        assert ours.terms == self.from_sympy(sp.expand(expect)).terms
        return ours

    def test_random_against_sympy(self):
        rng = random.Random(20240817)
        for _ in range(25):
            f = self.random_poly(rng, rng.randint(1, 3))
            g = self.random_poly(rng, rng.randint(1, 3))
            if f.deg(self.W) < 1 or g.deg(self.W) < 1:
                continue
            self.check(f, g)

    def test_shared_factor_gives_zero(self):
        rng = random.Random(7)
        for _ in range(5):
            c = self.random_poly(rng, 1)
            f = self.random_poly(rng, 1) * c
            g = self.random_poly(rng, 2) * c
            assert self.check(f, g).is_zero()

    def test_degree_zero_operand(self):
        rng = random.Random(11)
        for _ in range(5):
            f = self.random_poly(rng, 0)
            g = self.random_poly(rng, 3)
            ours = self.check(f, g)
            assert ours.terms == (f**3).terms
            assert self.check(g, f).terms == ours.terms

    def test_constant_linear_pivot_is_a_substitution(self):
        # for g = c1*x + c0 with a constant c1, res(f, g) is
        # (-c1)^m f(-c0/c1): the resultant step does the substitution's work
        rng = random.Random(17)
        x = self.SYMS[self.W]
        for _ in range(10):
            m = rng.randint(1, 3)
            f = self.random_poly(rng, m)
            c0 = self.random_poly(rng, 0)
            c1 = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
            pivot = MPoly.variable(self.NV, self.W).scale(c1) + c0
            ours = resultant(f.coeffs_in(self.W), pivot.coeffs_in(self.W))
            c1s = sp.Rational(c1.numerator, c1.denominator)
            expect = (-c1s) ** m * self.to_sympy(f).subs(x, -self.to_sympy(c0) / c1s)
            assert ours.terms == self.from_sympy(sp.expand(expect)).terms

    def test_odd_degrees_swapped(self):
        # deg f < deg g, both odd: the routine swaps its operands and must
        # restore the Sylvester sign, which the explicit matrix confirms
        rng = random.Random(13)
        x = self.SYMS[self.W]
        for m, n in ((1, 3), (1, 5), (3, 5)):
            f = self.random_poly(rng, m, spread=1)
            g = self.random_poly(rng, n, spread=1)
            ours = self.check(f, g)
            fc = sp.Poly(self.to_sympy(f), x).all_coeffs()
            gc = sp.Poly(self.to_sympy(g), x).all_coeffs()
            rows = [[0] * i + fc + [0] * (n - 1 - i) for i in range(n)]
            rows += [[0] * i + gc + [0] * (m - 1 - i) for i in range(m)]
            det = sp.expand(sp.Matrix(rows).det(method="berkowitz"))
            assert ours.terms == self.from_sympy(det).terms


class TestCentralSystem:
    def test_counts(self):
        inst = elliptope_instance()
        rows, coords = central_system(inst)
        k = inst.n * (inst.n + 1) // 2
        assert len(rows) == inst.m + inst.n * inst.n
        assert len(coords) == inst.dim
        # mu, the upper triangle of X, y and V; S is affine in y
        assert {p.nv for p in rows + coords} == {2 + k + inst.m}

    def test_identity_path_is_a_zero(self):
        # substitute X = I, y = 1 - mu; every equation vanishes, S = mu*I
        inst = identity_instance(3)
        rows, coords = central_system(inst)
        syms = sp.symbols(f"u0:{coords[0].nv}")
        mu = syms[0]
        subs = {}
        for i in range(3):
            for j in range(i, 3):
                (w,) = coords[3 * i + j].variables()
                subs[syms[w]] = 1 if i == j else 0
        (w,) = coords[9].variables()
        subs[syms[w]] = 1 - mu

        def at_path(p):
            expr = sp.Add(*(
                sp.Rational(c.numerator, c.denominator)
                * sp.Mul(*(s**k for s, k in zip(syms, e)))
                for e, c in p.terms.items()
            ))
            return sp.expand(expr.subs(subs))

        for p in rows:
            assert at_path(p) == 0
        for i in range(3):
            for j in range(3):
                assert at_path(coords[10 + 3 * i + j]) == (mu if i == j else 0)

    def test_canonical_coordinates(self):
        inst = identity_instance(3)
        assert canonical_coordinates(inst) == [
            0, 1, 2, 4, 5, 8, 9, 10, 11, 12, 14, 15, 18,
        ]

    def test_mirrored_x_entries_share_one_unknown(self):
        inst = identity_instance(3)
        _, coords = central_system(inst)
        unknowns = set()
        for i in range(3):
            for j in range(3):
                x = coords[3 * i + j]
                assert x.terms == coords[3 * j + i].terms
                (w,) = x.variables()
                unknowns.add(w)
        # row-major upper triangle, right after mu
        assert coords[1].variables() == {2}
        assert unknowns == set(range(1, 7))


def _trace(inst):
    """A short trace of inst, enough for the zero pins and the gate."""
    return trace_path(inst, 1.0, 1e-6, 0.25)


class TestEliminateCoordinate:
    def test_identity_x11(self):
        inst = identity_instance(3)
        assert eliminate_coordinate(inst, 0, _trace(inst)) == parse_bipoly(
            "V - 1"
        )

    def test_identity_s11(self):
        inst = identity_instance(3)
        assert eliminate_coordinate(inst, 10, _trace(inst)) == parse_bipoly(
            "V - mu"
        )

    def test_identity_y(self):
        inst = identity_instance(3)
        P = eliminate_coordinate(inst, 9, _trace(inst))
        assert P == parse_bipoly("V^2 + (mu - 2)*V + (1 - mu)")
        # the true branch 1 - mu is a factor
        assert P.pseudo_rem(parse_bipoly("V - 1 + mu")).is_zero()

    def test_elliptope_x12_divisible_by_cubic(self):
        inst = elliptope_instance()
        P = eliminate_coordinate(inst, 1, _trace(inst))
        assert P.deg_v == 5
        assert P.pseudo_rem(F_ELL).is_zero()

    def test_kl02_3_exact_curves(self):
        inst = kl02_instance(3)
        tr = trace_path(inst, 1.0, 1e-8, 0.5)
        assert eliminate_coordinate(inst, 10, trace=tr) == parse_bipoly(
            "2*V^2 - mu"
        )  # y_2
        assert eliminate_coordinate(inst, 2, trace=tr) == parse_bipoly(
            "2*V^2 - mu"
        )  # X_13
        assert eliminate_coordinate(inst, 11, trace=tr) == parse_bipoly(
            "V - 3/2*mu"
        )  # y_3

    def test_identically_zero_coordinate(self):
        # kl02 X_12 vanishes along the whole path
        inst = kl02_instance(3)
        assert eliminate_coordinate(inst, 5, _trace(inst)) == parse_bipoly("V")

    def test_kl02_4_blows_up_fast(self):
        inst = kl02_instance(4)
        tr = _trace(inst)
        with pytest.raises(EliminationBlowUpError, match="cap"):
            eliminate_coordinate(inst, 17, tr)

    def test_degree_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("PUISEUXPATH_DEGREE_CAP", "4")
        inst = elliptope_instance()
        tr = _trace(inst)
        with pytest.raises(EliminationBlowUpError):
            eliminate_coordinate(inst, 1, tr)

    @pytest.mark.parametrize("raw", ["abc", "0", "-3"])
    def test_degree_cap_env_malformed(self, monkeypatch, raw):
        monkeypatch.setenv("PUISEUXPATH_DEGREE_CAP", raw)
        inst = elliptope_instance()
        tr = _trace(inst)
        with pytest.raises(InputError, match="PUISEUXPATH_DEGREE_CAP"):
            eliminate_coordinate(inst, 1, tr)

    def test_validation_gate(self):
        # a trace that disagrees with the instance must be rejected
        inst = identity_instance(3)
        tr = trace_path(inst, 1.0, 1e-6, 0.25)
        values = tr.values.copy()
        values[:, 9] += 0.3
        fake = SimpleNamespace(samples=tr.samples, values=values)
        with pytest.raises(ExtraneousVanishingError, match="misses"):
            eliminate_coordinate(inst, 9, trace=fake)

    def test_s_pin_instance_curves(self):
        # S_01 = 1 - y_1 is the only known zero pin that is not a single
        # unknown; every canonical curve is linear in V
        inst = SDOInstance([[[1, 0], [0, 0]], [[0, 1], [1, 0]]], [1, 0],
                           [[0, 1], [1, 1]], name="s_pin")
        tr = _trace(inst)
        curves = [eliminate_coordinate(inst, c, tr)
                  for c in canonical_coordinates(inst)]
        assert curves == [parse_bipoly(t) for t in (
            "V - 1", "V", "V - mu", "V + mu", "V - 1", "V - mu", "V", "V - 1")]

    def test_out_of_range_coordinate(self):
        inst = identity_instance(2)
        tr = _trace(inst)
        with pytest.raises(InputError):
            eliminate_coordinate(inst, 99, tr)

    @settings(deadline=None, max_examples=200)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            st.fractions(min_value=-50, max_value=50,
                         max_denominator=40).filter(bool),
            min_size=1, max_size=8,
        ),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    @example({(1, 0): 1, (0, 2): Fraction(-3, 7)}, 5e-324, 2.5e-308)
    @example({(3, 1): Fraction(1, 3), (0, 0): 2}, 1e300, -1.7e-300)
    @example({(4, 4): 1}, 1e200, 1e200)
    def test_float_evaluator_matches_fraction_eval(self, terms, mu, v):
        # the validation gate's int evaluation rounds exactly like the
        # Fraction one, overflow included
        P = BiPoly.from_dict(terms)

        def outcome(f):
            try:
                return repr(f())
            except OverflowError:
                return "OverflowError"

        got = outcome(lambda: _float_evaluator(P)(mu, v))
        want = outcome(lambda: float(P.eval(Fraction(mu), Fraction(v))))
        assert got == want

    def test_system_is_built_once_per_instance(self, monkeypatch):
        built = []
        real = elimination.central_system
        monkeypatch.setattr(elimination, "central_system",
                            lambda inst: built.append(inst) or real(inst))
        inst = identity_instance(3)
        tr = _trace(inst)
        for c in canonical_coordinates(inst):
            eliminate_coordinate(inst, c, tr)
        assert built == [inst]

    @pytest.mark.parametrize("make,cap", [
        (elliptope_instance, None),
        (lambda: kl02_instance(4), "100000"),
    ], ids=["elliptope_3", "kl02_4_raised_cap"])
    def test_shared_caches_do_not_depend_on_order(self, monkeypatch, make, cap):
        # one instance eliminates every coordinate in reverse order; each
        # outcome must match a fresh instance that eliminates only it
        if cap is not None:
            monkeypatch.setenv("PUISEUXPATH_DEGREE_CAP", cap)
        shared = make()
        tr = _trace(shared)

        def outcome(inst, c):
            try:
                return eliminate_coordinate(inst, c, tr)
            except PuiseuxPathError as e:
                return type(e), str(e)

        coords = canonical_coordinates(shared)
        got = {c: outcome(shared, c) for c in reversed(coords)}
        assert got == {c: outcome(make(), c) for c in coords}


def _random_instance(seed: int) -> SDOInstance:
    """A small instance with integer data for which X = I is feasible.

    Each entry of each symmetric A_i is, with probability 1/2, an integer
    in [-2, 2]; b_i = tr A_i and C = I + sum y0_i A_i for an integer y0.
    """
    rng = random.Random(seed)
    n = rng.choice([2, 2, 3])
    m = rng.randint(1, n * (n + 1) // 2 - 1)
    A = []
    for _ in range(m):
        Ai = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.5:
                    Ai[i][j] = Ai[j][i] = rng.randint(-2, 2)
        A.append(Ai)
    y0 = [rng.randint(-1, 1) for _ in range(m)]
    b = [sum(Ai[i][i] for i in range(n)) for Ai in A]
    C = [[int(i == j) + sum(y0[k] * A[k][i][j] for k in range(m))
          for j in range(n)] for i in range(n)]
    return SDOInstance(A, b, C, name=f"r{seed}")


def _random_golden() -> dict[int, dict[str, str]]:
    out: dict[int, dict[str, str]] = {}
    for line in RANDOM_GOLDEN.read_text().splitlines():
        name, label, text = re.fullmatch(r"r(\d+) (\S+): (.*)", line).groups()
        out.setdefault(int(name), {})[label] = text
    return out


class TestRandomInstances:
    GOLDEN = _random_golden()

    def test_golden_seeds_are_every_accepted_seed(self):
        accepted = []
        for seed in range(1000, 1060):
            try:
                _random_instance(seed)
            except InputError:
                continue
            accepted.append(seed)
        assert sorted(self.GOLDEN) == [s for s in accepted if s not in SLOW_SEEDS]

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_eliminants_match_golden(self, seed):
        # a curve may differ from its golden line by a nonzero rational
        # factor; an error must keep its class and message
        inst = _random_instance(seed)
        tr = trace_path(inst)
        labels = inst.coordinate_labels()
        golden = self.GOLDEN[seed]
        coords = canonical_coordinates(inst)
        assert sorted(golden) == sorted(labels[c] for c in coords)
        for c in coords:
            expect = golden[labels[c]]
            try:
                P = eliminate_coordinate(inst, c, tr)
            except PuiseuxPathError as e:
                assert f"{type(e).__name__}: {e}" == expect, labels[c]
                continue
            G = parse_bipoly(expect)
            assert P.deg_v == G.deg_v, labels[c]
            scaled = P.scale(G.lc_v().lc()) - G.scale(P.lc_v().lc())
            assert scaled.is_zero(), labels[c]
