"""Exact polynomial arithmetic over the rationals.

Two dense representations drive everything downstream: ``UniPoly`` for
polynomials in a single variable over Q, and ``BiPoly`` for polynomials in
a parameter (written ``mu``) and a dependent variable (written ``V``), held
as a vector of ``UniPoly`` coefficients indexed by V-degree.

A coefficient is an ``int`` when it is integral and a ``Fraction``
otherwise, so integer polynomials run on machine-fast integer arithmetic
without a gcd per operation.  Every coefficient division goes through
``qdiv``, which keeps that rule and can never produce a float.

All operations are pure: every method returns a fresh object and never
mutates its operands, so values can be shared freely.  Gcds in Q[mu][V]
and resultants share one subresultant pseudo-remainder sequence, which
keeps intermediate coefficient growth polynomial instead of exponential
and divides only exactly; a resultant with an operand of degree 1 is a
Horner sum instead.  Both run on coefficient lists over any exact ring,
so the multivariate eliminations of ``elimination`` use them too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ParseError


def exact(x):
    """x as a polynomial coefficient: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def qdiv(a, b):
    """Exact quotient a / b of two coefficients, normalized by ``exact``.

    Two ints divide by ``divmod`` and make a ``Fraction`` only when a
    remainder is left; ``int / int`` would give a float.
    """
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return exact(a / b)


def lower_hull(pts: list[tuple]) -> list[tuple]:
    """Lower convex hull of points sorted by x with distinct x."""
    hull: list[tuple] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


class UniPoly:
    """Dense univariate polynomial over Q.

    Coefficients are stored low degree first with no trailing zeros, each
    an int when integral and a Fraction otherwise; the zero polynomial is
    the empty tuple and reports degree -1.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [x if type(x) is int else exact(x) for x in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.c = tuple(cs)

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(x) -> "UniPoly":
        return UniPoly([x])

    @staticmethod
    def var() -> "UniPoly":
        return UniPoly([0, 1])

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return not self.c

    def lc(self) -> int | Fraction:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.c[-1] if self.c else 0

    def order(self) -> int | None:
        """Smallest exponent with a nonzero coefficient; None if zero."""
        for k, x in enumerate(self.c):
            if x != 0:
                return k
        return None

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, x in enumerate(b):
            out[k] += x
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-x for x in self.c])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.c, other.c
        if not a or not b:
            return UniPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        return UniPoly(out)

    def scale(self, r) -> "UniPoly":
        r = exact(r)
        return UniPoly([r * x for x in self.c])

    def shift(self, k: int) -> "UniPoly":
        """Multiply by the k-th power of the variable."""
        if self.is_zero():
            return self
        return UniPoly((0,) * k + self.c)

    def __pow__(self, n: int) -> "UniPoly":
        result = UniPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """Quotient and remainder in Q[x]."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.c)
        d = other.degree
        lb = other.lc()
        quot = [0] * max(0, len(rem) - d)
        for k in range(len(rem) - 1, d - 1, -1):
            q = qdiv(rem[k], lb)
            if q == 0:
                continue
            quot[k - d] = q
            for j, y in enumerate(other.c):
                rem[k - d + j] -= q * y
        return UniPoly(quot), UniPoly(rem)

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ArithmeticError("division was expected to be exact")
        return q

    def derivative(self) -> "UniPoly":
        return UniPoly([k * x for k, x in enumerate(self.c)][1:])

    def eval(self, x) -> int | Fraction:
        x = exact(x)
        acc = 0
        for coef in reversed(self.c):
            acc = acc * x + coef
        return acc

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(qdiv(1, self.lc()))

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd in Q[x]."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    # -- comparison / rendering ----------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def render(self, var: str = "mu") -> str:
        return _render_terms(
            [(x, {var: k} if k else {}) for k, x in enumerate(self.c) if x != 0]
        )

    def __repr__(self):
        return f"UniPoly({self.render()})"


def _render_coeff_exp(coeff: Fraction, powers: dict[str, int]) -> str:
    parts = []
    if not powers or abs(coeff) != 1:
        parts.append(str(abs(coeff)))
    for var, k in powers.items():
        parts.append(var if k == 1 else f"{var}^{k}")
    return "*".join(parts) if parts else "1"


def _render_terms(terms: list[tuple[Fraction, dict[str, int]]]) -> str:
    """Render (coefficient, {var: power}) terms, highest degree first."""
    if not terms:
        return "0"
    out = []
    for coeff, powers in reversed(terms):
        body = _render_coeff_exp(coeff, powers)
        if not out:
            out.append(body if coeff > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(out)


class BiPoly:
    """Polynomial in Q[mu][V], stored as UniPoly coefficients by V-degree.

    ``cv[j]`` is the coefficient of V^j, a polynomial in mu.  Trailing zero
    coefficients are trimmed, so ``deg_v`` is exact; the zero polynomial
    has ``deg_v == -1``.
    """

    __slots__ = ("cv",)

    def __init__(self, coeffs: Iterable[UniPoly] = ()):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.cv = tuple(cs)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(x) -> "BiPoly":
        return BiPoly([UniPoly.const(x)])

    @staticmethod
    def from_dict(d: dict[tuple[int, int], Fraction]) -> "BiPoly":
        """Build from {(v_exp, mu_exp): coefficient}."""
        if not d:
            return BiPoly()
        dv = max(j for j, _ in d)
        cols: list[dict[int, Fraction]] = [{} for _ in range(dv + 1)]
        for (j, k), x in d.items():
            cols[j][k] = cols[j].get(k, 0) + exact(x)
        out = []
        for col in cols:
            if col:
                n = max(col) + 1
                out.append(UniPoly([col.get(k, 0) for k in range(n)]))
            else:
                out.append(UniPoly())
        return BiPoly(out)

    # -- structure -------------------------------------------------------

    @property
    def deg_v(self) -> int:
        return len(self.cv) - 1

    @property
    def deg_mu(self) -> int:
        return max((p.degree for p in self.cv if not p.is_zero()), default=-1)

    def is_zero(self) -> bool:
        return not self.cv

    def coeff_v(self, j: int) -> UniPoly:
        return self.cv[j] if 0 <= j < len(self.cv) else UniPoly()

    def lc_v(self) -> UniPoly:
        return self.cv[-1] if self.cv else UniPoly()

    def to_dict(self) -> dict[tuple[int, int], Fraction]:
        return {
            (j, k): x
            for j, p in enumerate(self.cv)
            for k, x in enumerate(p.c)
            if x != 0
        }

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "BiPoly") -> "BiPoly":
        a, b = self.cv, other.cv
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, p in enumerate(b):
            out[j] = out[j] + p
        return BiPoly(out)

    def __neg__(self) -> "BiPoly":
        return BiPoly([-p for p in self.cv])

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        a, b = self.cv, other.cv
        if not a or not b:
            return BiPoly()
        out = [UniPoly() for _ in range(len(a) + len(b) - 1)]
        for i, p in enumerate(a):
            if p.is_zero():
                continue
            for j, q in enumerate(b):
                if q.is_zero():
                    continue
                out[i + j] = out[i + j] + p * q
        return BiPoly(out)

    def scale_mu(self, p: UniPoly) -> "BiPoly":
        return BiPoly([q * p for q in self.cv])

    def scale(self, r) -> "BiPoly":
        return BiPoly([q.scale(r) for q in self.cv])

    def derivative_v(self) -> "BiPoly":
        return BiPoly([p.scale(j) for j, p in enumerate(self.cv)][1:])

    def eval_mu(self, x) -> UniPoly:
        """Substitute a rational for mu, leaving a polynomial in V."""
        return UniPoly([p.eval(x) for p in self.cv])

    def eval(self, mu, v) -> int | Fraction:
        acc = 0
        v = exact(v)
        for p in reversed(self.cv):
            acc = acc * v + p.eval(mu)
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.cv == other.cv

    def __hash__(self):
        return hash(self.cv)

    def __repr__(self):
        return f"BiPoly({render_bipoly(self)})"

    # -- content / normalization -------------------------------------------

    def content_and_primitive(self) -> tuple[UniPoly, "BiPoly"]:
        """Split off the content in Q[mu].

        The content is the monic gcd of the V-coefficients (the monic
        convention pushes any overall rational scale into the primitive
        part).  Returns (content, primitive) with P = content * primitive.
        A unit content returns P itself: when some V-coefficient is a
        nonzero constant, and as soon as the running gcd is one.
        """
        one = UniPoly.const(1)
        if self.is_zero() or any(p.degree == 0 for p in self.cv):
            return one, self
        g = UniPoly()
        for p in self.cv:
            g = g.gcd(p)
            if g.degree == 0:
                return one, self
        return g, BiPoly([p.exact_div(g) for p in self.cv])

    def _denominators_cleared(self) -> "BiPoly":
        """The multiple by the lcm of the denominators: integral coefficients."""
        den = math.lcm(*(x.denominator for p in self.cv for x in p.c))
        return self if den == 1 else self.scale(den)

    def sign_normalized(self) -> "BiPoly":
        """Flip the global sign so the leading V-coefficient has positive lead."""
        if not self.is_zero() and self.lc_v().lc() < 0:
            return -self
        return self

    def lead_normalized(self) -> "BiPoly":
        """Scale by a rational unit so the leading coefficient's lead is 1.

        Canonicalizes results defined only up to a rational factor (gcds).
        """
        if self.is_zero():
            return self
        return self.scale(qdiv(1, self.lc_v().lc()))

    def normalized(self) -> "BiPoly":
        """Primitive, sign-normalized copy (canonical up to nothing)."""
        _, prim = self.content_and_primitive()
        return prim.sign_normalized()

    # -- division and gcd -----------------------------------------------------

    def exact_div(self, other: "BiPoly") -> "BiPoly":
        """Exact division in Q[mu][V]; raises if the division leaves a remainder."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.cv)
        db = other.deg_v
        lb = other.lc_v()
        quot = [UniPoly() for _ in range(max(0, len(rem) - db))]
        for k in range(len(rem) - 1, db - 1, -1):
            if rem[k].is_zero():
                continue
            q, r = rem[k].divmod(lb)
            if not r.is_zero():
                raise ArithmeticError("division was expected to be exact")
            quot[k - db] = q
            for j, y in enumerate(other.cv):
                rem[k - db + j] = rem[k - db + j] - q * y
        if any(not p.is_zero() for p in rem):
            raise ArithmeticError("division was expected to be exact")
        return BiPoly(quot)

    def gcd(self, other: "BiPoly") -> "BiPoly":
        """Gcd in Q[mu][V].

        Computed by the subresultant pseudo-remainder sequence on primitive
        parts cleared of denominators, so the sequence stays in Z[mu][V]
        and runs on int coefficients; the content gcd is a plain monic gcd
        in Q[mu].  The result is primitive and sign-normalized.
        """
        if self.is_zero():
            return other.normalized().lead_normalized()
        if other.is_zero():
            return self.normalized().lead_normalized()
        ca, pa = self.content_and_primitive()
        cb, pb = other.content_and_primitive()
        cont = ca.gcd(cb)
        if pa.deg_v < pb.deg_v:
            pa, pb = pb, pa
        if pb.deg_v > 0:
            last, tail, _, _ = _subresultant_prs(
                pa._denominators_cleared().cv, pb._denominators_cleared().cv
            )
            if not tail:
                # the sequence ended on a zero remainder: its last nonzero
                # element is the gcd up to content
                _, prim = BiPoly(last).content_and_primitive()
                return prim.scale_mu(cont).lead_normalized()
        # a constant-in-V operand or remainder: only the contents can match
        return BiPoly([cont]).lead_normalized()

    def separable_part(self) -> "BiPoly":
        """Same roots in V, each with multiplicity one.

        P / gcd(P, dP/dV), made primitive and sign-normalized.
        """
        if self.deg_v <= 0:
            return self.normalized()
        g = self.gcd(self.derivative_v())
        quot = self.exact_div(g) if g.deg_v > 0 else self
        return quot.normalized()


# ---------------------------------------------------------------------------
# subresultant pseudo-remainder sequence
# ---------------------------------------------------------------------------
#
# The routines below work on coefficient lists, low degree first, with a
# nonzero last entry.  The coefficients may come from any exact integral
# domain whose elements offer ``*``, ``-``, ``**``, ``is_zero()`` and an
# ``exact_div`` that raises on a remainder: ``UniPoly`` for Q[mu][V] and the
# sparse multivariate ``MPoly`` of the elimination module both qualify.


def _prem(a: Sequence, b: Sequence) -> list:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b."""
    lb = b[-1]
    r = list(a)
    owed = len(a) - len(b) + 1  # factors of lc(b) the definition asks for
    while r and len(r) >= len(b):
        lr = r.pop()
        k = len(r) + 1 - len(b)
        r = [c * lb for c in r]
        for j, c in enumerate(b[:-1]):
            r[k + j] = r[k + j] - lr * c
        while r and r[-1].is_zero():
            r.pop()
        owed -= 1
    if owed > 0 and r:
        scale = lb**owed
        r = [c * scale for c in r]
    return r


def _subresultant_prs(a: Sequence, b: Sequence) -> tuple[list, list, object, int]:
    """Subresultant PRS of a and b, with deg a >= deg b >= 1.

    Collins and Brown-Traub's sequence as in Cohen, *A Course in
    Computational Algebraic Number Theory*, Algorithm 3.3.7: each
    pseudo-remainder is divided exactly by g * h^delta, which keeps
    coefficient growth polynomial.  Runs until the next element is zero
    or constant and returns ``(last, tail, h, sign)``: ``last`` is the
    final element of positive degree, ``tail`` that zero (empty) or
    constant element, ``h`` the subresultant scale and ``sign`` the
    product of (-1)^(deg * deg) over the steps, as the resultant needs.
    """
    a, b = list(a), list(b)
    g = h = b[-1] ** 0  # the ring's one
    sign = 1
    first = True  # g * h^delta is the ring's one on the first step
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) & (len(b) - 1) & 1:
            sign = -sign
        r = _prem(a, b)
        if not first:
            r = [c.exact_div(g * h**delta) for c in r]
        first = False
        a, b = b, r
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = (g**delta).exact_div(h ** (delta - 1))
    return a, b, h, sign


def _linear_resultant(f: Sequence, g: Sequence):
    """Resultant of f, of degree m >= 1, and g = g1*w + g0, rows of f first.

    res(f, g) = (-1)^m g1^m f(-g0/g1) = (-1)^m sum_i f_i (-g0)^i g1^(m-i),
    evaluated by homogeneous Horner: H = f_m, then H = H*(-g0) + f_i*g1^(m-i)
    for i = m-1, ..., 0.
    """
    m = len(f) - 1
    g0, g1 = g
    neg_g0 = -g0
    acc = f[m]
    power = g1
    for i in range(m - 1, -1, -1):
        acc = acc * neg_g0
        if not f[i].is_zero():
            acc = acc + f[i] * power
        if i:
            power = power * g1
    return -acc if m & 1 else acc


def resultant(f: Sequence, g: Sequence):
    """Determinant of the Sylvester matrix of f and g, rows of f first.

    ``f`` and ``g`` are nonzero coefficient lists, low degree first, over
    any ring that ``_subresultant_prs`` accepts.  A degree-0 operand gives
    the other operand's degree as a power of its constant.  A degree-1
    operand g = g1*w + g0 gives (-1)^m sum_i f_i (-g0)^i g1^(m-i) by
    homogeneous Horner, with no pseudo-division; if f is the linear
    operand, the two swap and the swap's sign (-1)^(mn) applies.  Every
    other pair runs the subresultant sequence.
    """
    m, n = len(f) - 1, len(g) - 1
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    sign = 1
    if m < n:
        f, g, m, n = g, f, n, m
        if m & n & 1:
            sign = -1
    if n == 1:
        res = _linear_resultant(f, g)
    else:
        last, tail, h, s = _subresultant_prs(f, g)
        if not tail:
            return f[-1] - f[-1]  # the ring's zero: f and g share a factor
        d = len(last) - 1
        res = tail[0] ** d
        if d > 1:
            res = res.exact_div(h ** (d - 1))
        sign *= s
    return res if sign > 0 else -res


# ---------------------------------------------------------------------------
# parsing / rendering
# ---------------------------------------------------------------------------

_PARAM_NAMES = {"mu", "x"}
_DEP_NAMES = {"v", "y", "t"}


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[tuple[str, str]] = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.toks.append(("num", text[i:j]))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(("name", text[i:j]))
                i = j
                continue
            if ch in "+-*/^()":
                self.toks.append((ch, ch))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r} in polynomial")
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def next(self) -> tuple[str, str]:
        if self.pos >= len(self.toks):
            raise ParseError("unexpected end of polynomial")
        tok = self.toks[self.pos]
        self.pos += 1
        return tok


def parse_bipoly(text: str) -> BiPoly:
    """Parse polynomial text into a ``BiPoly``.

    The grammar covers integer and rational literals, the parameter
    (``mu``, alias ``X``), the dependent variable (``V``, aliases ``Y``
    and ``T``), ``+ - * ^`` and parentheses, e.g.::

        2*T^3 + (2 - 1/2*mu)*T^2 - (mu + 2)*T - 2

    Adjacent factors multiply implicitly (``2mu`` means ``2*mu``).
    """
    toks = _Tokens(text)
    poly = _parse_sum(toks)
    if toks.pos != len(toks.toks):
        kind, val = toks.toks[toks.pos]
        raise ParseError(f"unexpected {val!r} after polynomial")
    return poly


def _parse_sum(toks: _Tokens) -> BiPoly:
    acc = _parse_product(toks)
    while toks.peek() in ("+", "-"):
        op, _ = toks.next()
        rhs = _parse_product(toks)
        acc = acc + rhs if op == "+" else acc - rhs
    return acc


def _parse_product(toks: _Tokens) -> BiPoly:
    acc = _parse_factor(toks)
    while True:
        nxt = toks.peek()
        if nxt == "*":
            toks.next()
            acc = acc * _parse_factor(toks)
        elif nxt in ("num", "name", "("):
            acc = acc * _parse_factor(toks)
        else:
            return acc


def _parse_factor(toks: _Tokens) -> BiPoly:
    if toks.peek() == "-":
        toks.next()
        return -_parse_factor(toks)
    if toks.peek() == "+":
        toks.next()
        return _parse_factor(toks)
    base = _parse_atom(toks)
    while toks.peek() == "^":
        toks.next()
        kind, val = toks.next()
        if kind != "num":
            raise ParseError("exponent must be a nonnegative integer")
        e = int(val)
        acc = BiPoly.const(1)
        for _ in range(e):
            acc = acc * base
        base = acc
    if toks.peek() == "/":
        save = toks.pos
        toks.next()
        kind, val = toks.next()
        if kind == "num":
            if not int(val):
                raise ParseError("division by zero")
            base = base.scale(Fraction(1, int(val)))
        else:
            toks.pos = save
    return base


def _parse_atom(toks: _Tokens) -> BiPoly:
    kind, val = toks.next()
    if kind == "num":
        return BiPoly.const(Fraction(int(val)))
    if kind == "name":
        low = val.lower()
        if low in _PARAM_NAMES:
            return BiPoly([UniPoly.var()])
        if low in _DEP_NAMES:
            return BiPoly([UniPoly(), UniPoly.const(1)])
        raise ParseError(
            f"unknown variable {val!r}: use mu/X for the parameter, V/Y/T for the unknown"
        )
    if kind == "(":
        inner = _parse_sum(toks)
        kind, val = toks.next()
        if kind != ")":
            raise ParseError("unbalanced parenthesis")
        return inner
    raise ParseError(f"unexpected {val!r} in polynomial")


def render_bipoly(p: BiPoly) -> str:
    """Deterministic text form, highest V-degree first."""
    if p.is_zero():
        return "0"
    chunks = []
    for j in range(p.deg_v, -1, -1):
        cj = p.coeff_v(j)
        if cj.is_zero():
            continue
        nonzero = [x for x in cj.c if x != 0]
        if j == 0:
            body = cj.render()
            if len(nonzero) > 1:
                body = f"({body})"
            chunk = body
        else:
            vpart = "V" if j == 1 else f"V^{j}"
            if len(nonzero) == 1:
                k = cj.order()
                coeff = cj.c[k]
                powers = {"mu": k, "V": j} if k else {"V": j}
                body = _render_coeff_exp(coeff, powers)
                chunk = body if coeff > 0 else f"-{body}"
            else:
                chunk = f"({cj.render()})*{vpart}"
        chunks.append(chunk)
    out = chunks[0]
    for chunk in chunks[1:]:
        if chunk.startswith("-"):
            out += " - " + chunk[1:]
        else:
            out += " + " + chunk
    return out
