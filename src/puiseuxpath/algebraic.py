"""Exact arithmetic with algebraic numbers over towers of extensions of Q.

A tower is a chain Q = K_0 < K_1 < ... < K_h where each K_{j+1} is
K_j[T]/(f_j) for a monic square-free f_j, together with a certified complex
box isolating the intended root of f_j.  Because the f_j are only known to
be square-free (not irreducible), the quotients are etale algebras rather
than fields; zero tests and inversions lazily discover factorizations and
replace f_j by the factor whose root stays inside the stored box.  All
facts established before such a refinement remain true afterwards, so
callers never need to re-run earlier decisions.

Tower life cycle: a tower grows only in ``_extend``, which clones it once
per root box and appends one level to each clone; a level's polynomial
changes only in ``_split_level``, which keeps the factor that the level's
box still isolates a root of; and boxes refine by interval Newton only.

Element representation: depth 0 is a rational number under the scalar rule
of ``polynomials.exact`` (an int when integral, else a Fraction, with every
division through ``qdiv``); depth t >= 1 is a list of depth-(t-1) elements
(coefficients of powers of the level-(t-1) generator, lowest first).  Lists
are never mutated in place; every operation builds fresh ones.

Enclosures are fixed-point complex boxes: a 4-tuple (re_lo, re_hi, im_lo,
im_hi) of integers at a scale 2^-s, with every product rounded outward, so
each box is a certified enclosure while all arithmetic runs on native ints.
A tower keeps its generator boxes at one scale that only grows; moving a
box to a finer scale is an exact shift.

Every root box comes from one isolator, ``isolate_roots``: numpy seeds,
Aberth polishing in fixed point, an interval Newton certificate.  Rational
roots are recognized exactly inside their boxes, and ``order_key`` ranks
roots by real part, rounded relative to its binade, then imaginary part.

Only this module reads an enclosure.  ``AlgebraicNumber.render`` prints
a number as certified decimal digits and ``AlgebraicNumber.within``
decides whether it lies near a real interval, so other modules ask the
number and never look at its box.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import AmbiguousMatchError, PrecisionExhaustedError
from .polynomials import UniPoly, exact, lower_hull, qdiv

__all__ = [
    "AlgebraicNumber",
    "FieldTower",
    "field_op",
    "nth_root_representative",
    "rational_number",
    "rational_nth_root",
    "roots_with_multiplicity",
]

# cap on refinement rounds per certification
_REFINE_CAP = 256

# root isolation: precision doublings from 64 bits, Aberth sweeps per attempt
_ISOLATE_ATTEMPTS = 8
_POLISH_SWEEPS = 32

# enclosure width 2^-bits that ``AlgebraicNumber.order_key`` starts from
_ORDER_BITS = 64

# enclosure widths 2^-bits that ``render`` and ``within`` try, in turn
_PRINT_BITS = (48, 96, 192, 384)
_MATCH_BITS = (48, 96, 192, 384, 768)


class _RefineStall(Exception):
    """Internal: box refinement needs tighter coefficient enclosures."""


class _Axis:
    """One side of a Box as the exact interval [lo, hi]."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int, s: int):
        self.lo = Fraction(lo, 1 << s)
        self.hi = Fraction(hi, 1 << s)

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi


class Box:
    """Certified complex box: fixed-point corners ``fb`` at scale 2^-``s``."""

    __slots__ = ("fb", "s")

    def __init__(self, fb: tuple, s: int):
        self.fb = fb
        self.s = s

    def __repr__(self):
        re, im = self.re, self.im
        return f"Box(re=[{re.lo}, {re.hi}], im=[{im.lo}, {im.hi}])"

    @property
    def re(self) -> _Axis:
        return _Axis(self.fb[0], self.fb[1], self.s)

    @property
    def im(self) -> _Axis:
        return _Axis(self.fb[2], self.fb[3], self.s)

    @property
    def width(self) -> Fraction:
        return Fraction(_fb_width(self.fb), 1 << self.s)

    def contains_point(self, re, im=0) -> bool:
        x, y = self.re, self.im
        return x.lo <= re <= x.hi and y.lo <= im <= y.hi

    def disjoint(self, o: "Box") -> bool:
        s = max(self.s, o.s)
        return _fb_disjoint(_fb_rescale(self.fb, self.s, s),
                            _fb_rescale(o.fb, o.s, s))


class _Level:
    __slots__ = ("poly", "box")

    def __init__(self, poly: list, box: tuple):
        self.poly = poly
        self.box = box  # fixed-point, at the tower's scale


class FieldTower:
    """Mutable chain of monic square-free extensions with isolating boxes."""

    def __init__(self):
        self.levels: list[_Level] = []
        self._prec = 0
        self._scale = 0

    @property
    def height(self) -> int:
        return len(self.levels)

    def clone(self) -> "FieldTower":
        t = FieldTower()
        # element lists are never mutated, so sharing them is safe
        t.levels = [_Level(lvl.poly, lvl.box) for lvl in self.levels]
        t._prec = self._prec
        t._scale = self._scale
        return t

    def extend(self, poly: list, box: Box) -> int:
        """Append a level defined by a monic tower polynomial and a root box.

        ``poly`` has coefficients at the current top depth, lowest first,
        with leading coefficient exactly one.  Returns the new depth.
        """
        if len(poly) < 2:
            raise ValueError("defining polynomial must have degree >= 1")
        self._raise_scale(box.s)
        fb = _fb_rescale(box.fb, box.s, self._scale)
        self.levels.append(_Level(list(poly), fb))
        self._prec = 0
        return len(self.levels)

    def degree_product(self) -> int:
        return math.prod(len(lvl.poly) - 1 for lvl in self.levels)

    # ---- enclosure machinery ----

    def _raise_scale(self, s: int) -> None:
        """Move every generator box to the finer scale 2^-s (exact)."""
        if s <= self._scale:
            return
        for lvl in self.levels:
            lvl.box = _fb_rescale(lvl.box, self._scale, s)
        self._scale = s

    def box_raw(self, depth: int, e, s: int) -> tuple:
        """Fixed-point enclosure at scale 2^-s from the boxes on file."""
        gens = [_fb_rescale(lvl.box, self._scale, s)
                for lvl in self.levels[:depth]]
        return _fb_enclose(gens, depth, el_reduce(self, depth, e), s)

    def ensure_prec(self, bits: int) -> None:
        """Refine every generator box to width at most 2^-bits."""
        if bits <= self._prec:
            return
        extra = 32
        h = len(self.levels)
        for _ in range(_REFINE_CAP):
            # level j aims at 2^-(bits + extra*(h - j)); the scale keeps
            # extra - 8 guard bits below the finest of those targets (24 on
            # the first try), so a stall near a root where |f'| is tiny
            # gains guard bits on every retry
            self._raise_scale(bits + extra * h + extra - 8)
            try:
                for j in range(h):
                    self._refine_level(j, bits + extra * (h - j))
                self._prec = bits
                return
            except _RefineStall:
                extra *= 2
        raise PrecisionExhaustedError(
            f"could not refine tower boxes to 2^-{bits}"
        )

    def _refine_level(self, j: int, tbits: int) -> None:
        lvl = self.levels[j]
        s = self._scale
        target = 1 << (s - tbits)
        if _fb_width(lvl.box) <= target:
            return
        cfix = [self.box_raw(j, c, s) for c in lvl.poly]
        dfix = _fb_derivative(cfix)
        b = lvl.box
        rounds = 0
        while _fb_width(b) > target:
            rounds += 1
            if rounds > _REFINE_CAP:
                raise PrecisionExhaustedError(
                    f"refinement cap hit at tower level {j}"
                )
            k = _fb_newton_step(cfix, dfix, b, s)
            b2 = None if k is None else _fb_intersect(k, b)
            # a step that no longer cuts an eighth wants tighter
            # coefficient boxes, which ensure_prec retries with
            if b2 is None or 8 * _fb_width(b2) >= 7 * _fb_width(b):
                raise _RefineStall
            b = b2
            lvl.box = b


# ---------------------------------------------------------------------------
# element operations (depth 0 = int or Fraction as ``polynomials.exact``
# leaves it, depth t = list of depth t-1)


def el_zero(depth: int):
    return 0 if depth == 0 else []


def el_one(depth: int):
    return 1 if depth == 0 else [el_one(depth - 1)]


def el_from_rational(depth: int, r):
    r = exact(r)
    return r if depth == 0 else [el_from_rational(depth - 1, r)]


def el_lift(e, from_depth: int, to_depth: int):
    for _ in range(to_depth - from_depth):
        e = [e]
    return e


def el_reduce(tw: FieldTower, depth: int, e):
    """Canonical representative with degree below the defining polynomial."""
    if depth == 0:
        return e
    f = tw.levels[depth - 1].poly
    n = len(f) - 1
    e = [el_reduce(tw, depth - 1, c) for c in e]
    if len(e) <= n:
        return e
    # long division by the monic f, keeping only the remainder
    e = list(e)
    for k in range(len(e) - 1, n - 1, -1):
        c = e[k]
        if _is_structural_zero(depth - 1, c):
            continue
        for i in range(n):
            e[k - n + i] = el_sub(
                depth - 1, e[k - n + i], el_mul_raw(tw, depth - 1, c, f[i])
            )
        e[k] = el_zero(depth - 1)
    return [el_reduce(tw, depth - 1, c) for c in e[:n]]


def _is_structural_zero(depth: int, e) -> bool:
    if depth == 0:
        return e == 0
    return all(_is_structural_zero(depth - 1, c) for c in e)


def el_add(depth: int, a, b):
    if depth == 0:
        return a + b
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else el_zero(depth - 1)
        y = b[i] if i < len(b) else el_zero(depth - 1)
        out.append(el_add(depth - 1, x, y))
    return out


def el_neg(depth: int, a):
    if depth == 0:
        return -a
    return [el_neg(depth - 1, c) for c in a]


def el_sub(depth: int, a, b):
    return el_add(depth, a, el_neg(depth, b))


def el_mul_raw(tw: FieldTower, depth: int, a, b):
    """Product without the final reduction (used inside el_reduce)."""
    if depth == 0:
        return a * b
    if not a or not b:
        return []
    out = [el_zero(depth - 1) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if _is_structural_zero(depth - 1, x):
            continue
        for j, y in enumerate(b):
            out[i + j] = el_add(
                depth - 1, out[i + j], el_mul_raw(tw, depth - 1, x, y)
            )
    return out


def el_mul(tw: FieldTower, depth: int, a, b):
    if depth == 0:
        return a * b
    return el_reduce(tw, depth, el_mul_raw(tw, depth, a, b))


def el_scale(depth: int, a, r: int):
    if depth == 0:
        return a * r
    return [el_scale(depth - 1, c, r) for c in a]


def el_is_zero(tw: FieldTower, depth: int, e) -> bool:
    if depth == 0:
        return e == 0
    e = el_reduce(tw, depth, e)
    a = _tp_trim(tw, depth - 1, list(e))
    if not a:
        return True
    if len(a) == 1:
        return False
    g = _tp_gcd_monic(tw, depth - 1, a, tw.levels[depth - 1].poly)
    return len(g) > 1 and _split_level(tw, depth - 1, g)


def el_inv(tw: FieldTower, depth: int, e):
    if depth == 0:
        if e == 0:
            raise ZeroDivisionError("inverse of zero")
        return qdiv(1, e)
    e = el_reduce(tw, depth, e)
    a = _tp_trim(tw, depth - 1, list(e))
    if not a:
        raise ZeroDivisionError("inverse of zero")
    if len(a) == 1:
        return [el_inv(tw, depth - 1, a[0])]
    while True:
        g, s = _tp_half_ext_gcd(tw, depth - 1, a, tw.levels[depth - 1].poly)
        if len(g) == 1:
            return el_reduce(tw, depth, s)
        if _split_level(tw, depth - 1, g):
            raise ZeroDivisionError("element vanished on branch refinement")
        a = _tp_trim(tw, depth - 1, a)
        if not a:
            raise ZeroDivisionError("element vanished on branch refinement")
        if len(a) == 1:
            return [el_inv(tw, depth - 1, a[0])]


def el_div(tw: FieldTower, depth: int, a, b):
    return el_mul(tw, depth, a, el_inv(tw, depth, b))


def el_to_rational(tw: FieldTower, depth: int, e) -> int | Fraction | None:
    if depth == 0:
        return e
    e = el_reduce(tw, depth, e)
    for c in e[1:]:
        if not el_is_zero(tw, depth - 1, c):
            return None
    if not e:
        return 0
    return el_to_rational(tw, depth - 1, e[0])


def el_box(tw: FieldTower, depth: int, e, bits: int) -> Box:
    """Enclosure of width at most 2^-bits, at scale 2^-(bits + 32)."""
    s = bits + 32
    want = max(bits + 16, 48)
    for _ in range(_REFINE_CAP):
        b = tw.box_raw(depth, e, s)
        if _fb_width(b) <= 1 << 32:
            return Box(b, s)
        tw.ensure_prec(want)
        want = want * 2
    raise PrecisionExhaustedError("element enclosure did not converge")


def _split_level(tw: FieldTower, j: int, g: list) -> bool:
    """Cut level j's polynomial f to g or to f/g, whichever the generator
    is a root of; True when it is g.  g is a monic proper factor of f."""
    lvl = tw.levels[j]
    q = _tp_exact_div(tw, j, lvl.poly, g)
    is_root = tw_choose_is_root(tw, j, g, q)
    lvl.poly = list(g if is_root else q)
    return is_root


def tw_choose_is_root(tw: FieldTower, j: int, d: list, q: list) -> bool:
    """True when level j's generator is a root of d rather than of q."""
    bits = max(tw._prec, 32)
    for _ in range(_REFINE_CAP):
        s = tw._scale
        b = tw.levels[j].box
        dz = _fb_has_zero(_fb_horner([tw.box_raw(j, c, s) for c in d], b, s))
        qz = _fb_has_zero(_fb_horner([tw.box_raw(j, c, s) for c in q], b, s))
        if dz != qz:
            return dz
        if not dz and not qz:
            raise PrecisionExhaustedError(
                "isolating box lost the generator root"
            )
        bits *= 2
        tw.ensure_prec(bits)
    raise PrecisionExhaustedError("branch selection did not converge")


# ---------------------------------------------------------------------------
# polynomials with tower-element coefficients (plain lists, lowest first)


def _tp_trim(tw: FieldTower, depth: int, p: list) -> list:
    p = list(p)
    while p and el_is_zero(tw, depth, p[-1]):
        p.pop()
    return p


def _tp_mul(tw: FieldTower, depth: int, a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [el_zero(depth) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = el_add(depth, out[i + j], el_mul(tw, depth, x, y))
    return out


def _tp_derivative(depth: int, p: list) -> list:
    return [el_scale(depth, p[i], i) for i in range(1, len(p))]


def _tp_divmod(tw: FieldTower, depth: int, a: list, b: list):
    b = _tp_trim(tw, depth, b)
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    binv = el_inv(tw, depth, b[-1])
    r = list(a)
    q = [el_zero(depth) for _ in range(max(0, len(a) - len(b) + 1))]
    for k in range(len(a) - len(b), -1, -1):
        c = el_mul(tw, depth, r[k + len(b) - 1], binv)
        q[k] = c
        for i in range(len(b)):
            r[k + i] = el_sub(depth, r[k + i], el_mul(tw, depth, c, b[i]))
    return q, _tp_trim(tw, depth, r[: len(b) - 1])


def _tp_exact_div(tw: FieldTower, depth: int, a: list, b: list) -> list:
    q, r = _tp_divmod(tw, depth, a, b)
    if r:
        raise ArithmeticError("division was not exact")
    return q


def _tp_monic(tw: FieldTower, depth: int, p: list) -> list:
    p = _tp_trim(tw, depth, p)
    if not p:
        return p
    inv = el_inv(tw, depth, p[-1])
    out = [el_mul(tw, depth, c, inv) for c in p[:-1]]
    out.append(el_one(depth))
    return out


def _tp_gcd_monic(tw: FieldTower, depth: int, a: list, b: list) -> list:
    a = _tp_trim(tw, depth, a)
    b = _tp_trim(tw, depth, b)
    while b:
        _, r = _tp_divmod(tw, depth, a, b)
        a, b = b, r
    return _tp_monic(tw, depth, a)


def _tp_half_ext_gcd(tw: FieldTower, depth: int, a: list, b: list):
    """Monic g = gcd(a, b) and s with s*a = g (mod b)."""
    r0, r1 = _tp_trim(tw, depth, a), _tp_trim(tw, depth, b)
    s0, s1 = [el_one(depth)], []
    while r1:
        q, r = _tp_divmod(tw, depth, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, el_sub(depth + 1, s0, _tp_mul(tw, depth, q, s1))
    inv = el_inv(tw, depth, r0[-1])
    g = [el_mul(tw, depth, c, inv) for c in r0[:-1]] + [el_one(depth)]
    s = [el_mul(tw, depth, c, inv) for c in s0]
    return g, s


def tp_squarefree_monic(tw: FieldTower, depth: int, p: list):
    """Yun decomposition of a monic polynomial: list of (factor, mult)."""
    dp = _tp_derivative(depth, p)
    a = _tp_gcd_monic(tw, depth, p, dp)
    b = _tp_exact_div(tw, depth, p, a)
    c = _tp_exact_div(tw, depth, dp, a)
    out = []
    i = 1
    while len(b) > 1:
        t = el_sub(depth + 1, c, _tp_derivative(depth, b))
        g = _tp_gcd_monic(tw, depth, b, _tp_trim(tw, depth, t))
        if len(g) > 1:
            out.append((g, i))
        b = _tp_exact_div(tw, depth, b, g)
        c = _tp_exact_div(tw, depth, _tp_trim(tw, depth, t), g)
        i += 1
        if i > len(p) + 1:
            raise ArithmeticError("square-free decomposition did not settle")
    return out


# ---------------------------------------------------------------------------
# certified root isolation


def isolate_roots(tw: FieldTower, depth: int, p: list) -> list[Box]:
    """Disjoint certified boxes, one per distinct root of monic square-free p.

    Approximate, then certify, as in MPSolve: ``_seeds`` approximates the
    roots of U = T/2^k, 2^k about the largest root modulus, with numpy;
    ``_polish`` refines them with Aberth sweeps in fixed point at 2^-s;
    ``_certify`` proves each box holds exactly one root.  A box for U at
    2^-s is the box for T at 2^-(s-k).  A failed certificate doubles the
    precision and polishes the last approximations again.
    """
    p = _tp_trim(tw, depth, p)
    n = len(p) - 1
    if n < 1:
        return []
    k, prec, zs = _seeds(_coefficient_floats(tw, depth, p), n)
    for _ in range(_ISOLATE_ATTEMPTS):
        s = prec + 32
        cfix = []
        for j, c in enumerate(p):
            t = s - k * (n - j)  # c_j's corners at 2^-t are q_j's at 2^-s
            b = el_box(tw, depth, c, max(t - 32, 16))
            cfix.append(_fb_rescale(b.fb, b.s, t))
        radii = _polish(cfix, zs, s, prec)
        boxes = _certify(cfix, zs, radii, s)
        if boxes is not None:
            out = max(s - k, 0)  # scale 2^-(s-k), made nonnegative
            return [Box(_fb_rescale(b, s - k, out), out) for b in boxes]
        prec *= 2
        zs = [_fb_rescale(z, s, prec + 32) for z in zs]
    raise PrecisionExhaustedError(
        f"root isolation failed for degree {n} polynomial"
    )


# Fixed-point kernels: boxes are (re_lo, re_hi, im_lo, im_hi) integer
# 4-tuples at a scale 2^-s that the caller passes along.


def _fb_point(x, s: int) -> tuple:
    """The rational x rounded outward onto the 2^-s grid."""
    return ((x.numerator << s) // x.denominator,
            -((-x.numerator << s) // x.denominator), 0, 0)


def _fb_enclose(gens: list[tuple], d: int, x, s: int) -> tuple:
    """Box of the depth-d element x, with generator boxes gens at 2^-s."""
    if d == 0:
        return _fb_point(x, s)
    if not x:
        return (0, 0, 0, 0)
    return _fb_horner([_fb_enclose(gens, d - 1, c, s) for c in x],
                      gens[d - 1], s)


def _fb_rescale(b: tuple, s_from: int, s_to: int) -> tuple:
    """b at scale 2^-s_to: exact when finer, rounded outward when coarser."""
    k = s_to - s_from
    if k >= 0:
        return (b[0] << k, b[1] << k, b[2] << k, b[3] << k)
    k = -k
    return (b[0] >> k, -((-b[1]) >> k), b[2] >> k, -((-b[3]) >> k))


def _fb_add(a: tuple, b: tuple) -> tuple:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def _fb_sub(a: tuple, b: tuple) -> tuple:
    return (a[0] - b[1], a[1] - b[0], a[2] - b[3], a[3] - b[2])


def _imm(alo, ahi, blo, bhi):
    ps = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return min(ps), max(ps)


def _fb_mul(a: tuple, b: tuple, s: int) -> tuple:
    arl, arh, ail, aih = a
    brl, brh, bil, bih = b
    p1l, p1h = _imm(arl, arh, brl, brh)
    p2l, p2h = _imm(ail, aih, bil, bih)
    p3l, p3h = _imm(arl, arh, bil, bih)
    p4l, p4h = _imm(ail, aih, brl, brh)
    rl, rh = p1l - p2h, p1h - p2l
    il, ih = p3l + p4l, p3h + p4h
    return (rl >> s, -((-rh) >> s), il >> s, -((-ih) >> s))


def _isq(lo, hi):
    if lo >= 0:
        return lo * lo, hi * hi
    if hi <= 0:
        return hi * hi, lo * lo
    m = max(-lo, hi)
    return 0, m * m


def _fb_recip(b: tuple, s: int) -> tuple:
    rl, rh, il, ih = b
    q1l, q1h = _isq(rl, rh)
    q2l, q2h = _isq(il, ih)
    alo, ahi = q1l + q2l, q1h + q2h  # |z|^2 at scale 2s
    if alo <= 0:
        raise ZeroDivisionError("box reciprocal straddles zero")
    q = 1 << (4 * s)
    inv_lo = q // ahi
    inv_hi = -((-q) // alo)  # 1/|z|^2 at scale 2s
    # conj(z) / |z|^2
    c1l, c1h = _imm(rl, rh, inv_lo, inv_hi)
    c2l, c2h = _imm(-ih, -il, inv_lo, inv_hi)
    sh = 2 * s
    return (c1l >> sh, -((-c1h) >> sh), c2l >> sh, -((-c2h) >> sh))


def _fb_has_zero(b: tuple) -> bool:
    return b[0] <= 0 <= b[1] and b[2] <= 0 <= b[3]


def _fb_width(b: tuple) -> int:
    return max(b[1] - b[0], b[3] - b[2])


def _fb_mid_point(b: tuple) -> tuple:
    rm = (b[0] + b[1]) >> 1
    im = (b[2] + b[3]) >> 1
    return (rm, rm, im, im)


def _fb_strictly_inside(a: tuple, b: tuple) -> bool:
    return b[0] < a[0] and a[1] < b[1] and b[2] < a[2] and a[3] < b[3]


def _fb_intersect(a: tuple, b: tuple) -> tuple | None:
    rl, rh = max(a[0], b[0]), min(a[1], b[1])
    il, ih = max(a[2], b[2]), min(a[3], b[3])
    if rl > rh or il > ih:
        return None
    return (rl, rh, il, ih)


def _fb_disjoint(a: tuple, b: tuple) -> bool:
    return a[1] < b[0] or b[1] < a[0] or a[3] < b[2] or b[3] < a[2]


def _fb_horner(cs: list[tuple], b: tuple, s: int) -> tuple:
    acc = cs[-1]
    for c in reversed(cs[:-1]):
        acc = _fb_add(_fb_mul(acc, b, s), c)
    return acc


def _fb_derivative(cs: list[tuple]) -> list[tuple]:
    return [(b[0] * i, b[1] * i, b[2] * i, b[3] * i)
            for i, b in enumerate(cs)][1:]


def _fb_newton_step(cfix, dfix, b: tuple, s: int) -> tuple | None:
    """One interval Newton step; None when the derivative box straddles 0."""
    fp = _fb_horner(dfix, b, s)
    if _fb_has_zero(fp):
        return None
    m = _fb_mid_point(b)
    fm = _fb_horner(cfix, m, s)
    return _fb_sub(m, _fb_mul(fm, _fb_recip(fp, s), s))


def _fb_tighten(cfix, dfix, b: tuple, s: int, rounds: int, target: int) -> tuple:
    for _ in range(rounds):
        if _fb_width(b) <= target:
            break
        k = _fb_newton_step(cfix, dfix, b, s)
        if k is None:
            break
        b2 = _fb_intersect(k, b)
        if b2 is None or _fb_width(b2) >= _fb_width(b):
            break
        b = b2
    return b


def _coefficient_floats(tw, depth, p) -> list[tuple[int, int, complex]]:
    """(j, E, m) with c_j = m·2^E to 64 bits, |m| about 1, for each c_j != 0.

    A c_j whose enclosure holds 0 is tested exactly, then refined.
    """
    out = []
    for j, c in enumerate(p):
        if _is_structural_zero(depth, c):
            continue
        bits = 64
        b = el_box(tw, depth, c, bits)
        if _fb_has_zero(b.fb) and el_is_zero(tw, depth, c):
            continue
        while _fb_has_zero(b.fb):
            bits *= 2
            b = el_box(tw, depth, c, bits)
        e = max(map(abs, b.fb)).bit_length() - 1 - b.s
        if e < 0:
            b = el_box(tw, depth, c, 64 - e)
        fb, unit = b.fb, Fraction(2) ** -(b.s + e + 1)  # midpoint / 2^e
        out.append((j, e, complex((fb[0] + fb[1]) * unit,
                                  (fb[2] + fb[3]) * unit)))
    return out


def _seeds(coeffs: list[tuple[int, int, complex]], n: int):
    """(k, prec, zs): the scale 2^k, the first precision, and point boxes
    zs approximating the roots of U = T/2^k at 2^-(prec+32).

    An edge j1 -> j2 of the upper hull of the points (j, E_j) stands for
    j2 - j1 roots of modulus about 2^((E_j1 - E_j2)/(j2 - j1)) (Bini's
    starting points).  Edges within 2^16 in modulus of a group's smallest
    join that group, whose roots ``numpy.roots`` finds from its terms
    j1..j2 alone, rescaled to modulus about 1.  One group covers the usual polynomial;
    it also keeps a pair near the real axis (edges at r/2 and 2r) in one
    call, since Aberth keeps real seeds of a real polynomial real.  prec
    holds 64 bits of every hull coefficient q_j = c_j·2^(-k(n-j)).
    """
    hull = lower_hull([(j, -e) for j, e, _ in coeffs])
    seeds = [(0j, 0)] * hull[0][0]  # p(0) = 0

    def slope(a, b):
        return (b[1] - a[1]) / (b[0] - a[0])

    ends, low = hull[:1], None  # low: the group's smallest edge slope
    for a, b in zip(hull, hull[1:]):
        if low is not None and slope(a, b) - low >= 16:
            ends.append(a)
            low = None
        if low is None:
            low = slope(a, b)
    ends += hull[1:][-1:]
    for (j1, v1), (j2, v2) in zip(ends, ends[1:]):
        e = round(slope((j1, v1), (j2, v2)))
        vals = [0j] * (j2 - j1 + 1)
        for j, ej, m in coeffs:
            if j1 <= j <= j2:
                sh = ej + v1 + e * (j - j1)  # c_j·2^(e·j) / 2^(E_j1 + e·j1)
                vals[j - j1] = complex(math.ldexp(m.real, sh),
                                       math.ldexp(m.imag, sh))
        seeds += [(complex(z), e) for z in np.roots(vals[::-1])]
    k = max((e + math.frexp(abs(z))[1] for z, e in seeds if z), default=0)
    prec = 64 + max(0, max(k * (n - j) + v for j, v in hull))
    s = prec + 32
    zs: list[tuple] = []
    for z, e in seeds:
        unit = Fraction(2) ** (s + e - k)
        re, im = int(Fraction(z.real) * unit), int(Fraction(z.imag) * unit)
        while (re, re, im, im) in zs:  # Aberth needs distinct points
            im += 1 << (s - 40)
        zs.append((re, re, im, im))
    return k, prec, zs


def _polish(cfix: list[tuple], zs: list[tuple], s: int, prec: int) -> list:
    """Aberth sweeps in box arithmetic on the coefficient boxes: each z_i
    moves in place by the midpoint of w = N/(1 - N·sum_{j != i}
    1/(z_i - z_j)), N = q(z_i)/q'(z_i), until no move exceeds 2^16 times
    the noise: the width of its w, or the boxes' width 2^-prec.  Returns
    each z_i's last move or noise, whichever is larger (None if unknown).
    """
    dfix = _fb_derivative(cfix)
    one = (1 << s, 1 << s, 0, 0)
    radii = [None] * len(zs)
    for _ in range(_POLISH_SWEEPS):
        settled = True
        for i, z in enumerate(zs):
            try:
                newton = _fb_mul(_fb_horner(cfix, z, s),
                                 _fb_recip(_fb_horner(dfix, z, s), s), s)
                sigma = (0, 0, 0, 0)
                for j, y in enumerate(zs):
                    if j != i:
                        sigma = _fb_add(sigma, _fb_recip(_fb_sub(z, y), s))
                den = _fb_sub(one, _fb_mul(newton, sigma, s))
                w = _fb_mul(newton, _fb_recip(den, s), s)
            except ZeroDivisionError:
                continue
            m = _fb_mid_point(w)
            zs[i] = _fb_sub(z, m)
            radii[i] = max(abs(m[0]), abs(m[2]), _fb_width(w))
            if radii[i] > max(_fb_width(w), 1 << (s - prec)) << 16:
                settled = False
        if settled:
            break
    return radii


def _certify(cfix: list[tuple], zs: list[tuple], radii: list,
             s: int) -> list[tuple] | None:
    """Tightened boxes around zs that each hold exactly one root, or None.

    The box around z_i reaches 2^8 times its ``_polish`` radius, but at
    most an eighth of the distance to the nearest z_j, so the boxes are
    disjoint; each must map strictly inside itself under the interval
    Newton step.
    """
    if None in radii:
        return None
    dfix = _fb_derivative(cfix)
    out = []
    for i, (z, r) in enumerate(zip(zs, radii)):
        h = min([max(r, 1) << 8]
                + [max(abs(z[0] - y[0]), abs(z[2] - y[2])) >> 3
                   for j, y in enumerate(zs) if j != i])
        b = (z[0] - h, z[0] + h, z[2] - h, z[2] + h)
        nb = _fb_newton_step(cfix, dfix, b, s)
        if nb is None or not _fb_strictly_inside(nb, b):
            return None
        out.append(_fb_tighten(cfix, dfix, nb, s, rounds=64,
                               target=max(1, _fb_width(b) >> 20)))
    return out


# ---------------------------------------------------------------------------
# rational helpers


def _int_nth_root(n: int, k: int) -> int | None:
    if n < 0:
        return None
    if n in (0, 1):
        return n
    lo, hi = 0, 1
    while hi**k <= n:
        hi <<= 1
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo if lo**k == n else None


def rational_nth_root(r, k: int) -> int | Fraction | None:
    """Exact real k-th root of a rational when one exists, else None."""
    r = exact(r)
    if k <= 0:
        raise ValueError("root index must be positive")
    neg = r < 0
    if neg and k % 2 == 0:
        return None
    rn = _int_nth_root(abs(r.numerator), k)
    rd = _int_nth_root(r.denominator, k)
    if rn is None or rd is None:
        return None
    out = qdiv(rn, rd)
    return -out if neg else out


# ---------------------------------------------------------------------------
# public number type


def _digits(iv: _Axis, last: bool) -> str | None:
    """The .10g digits of a real enclosure, or None while they are unsettled.

    An enclosure of zero is unsettled like any other until the last
    refinement step, where it prints as 0 and the midpoint stands in for
    digits that still differ between the endpoints.
    """
    if iv.contains_zero():
        return "0" if last else None
    lo, hi = f"{float(iv.lo):.10g}", f"{float(iv.hi):.10g}"
    if lo == hi:
        return lo
    return f"{float(iv.mid):.10g}" if last else None


class AlgebraicNumber:
    """Element of a tower, with enclosure and exact-decision support."""

    __slots__ = ("tower", "depth", "rep", "_box", "_box_bits")

    def __init__(self, tower: FieldTower, depth: int, rep):
        self.tower = tower
        self.depth = depth
        self.rep = rep
        self._box = None
        self._box_bits = -1

    @staticmethod
    def generator(tower: FieldTower) -> "AlgebraicNumber":
        d = tower.height
        if d == 0:
            raise ValueError("tower has no extension levels")
        rep = [el_zero(d - 1), el_one(d - 1)]
        return AlgebraicNumber(tower, d, rep)

    def box(self, bits: int = 48) -> Box:
        if self._box is None or self._box_bits < bits:
            self._box = el_box(self.tower, self.depth, self.rep, bits)
            self._box_bits = bits
        return self._box

    def is_zero(self) -> bool:
        return el_is_zero(self.tower, self.depth, self.rep)

    def as_rational(self) -> int | Fraction | None:
        return el_to_rational(self.tower, self.depth, self.rep)

    def __add__(self, other):
        return field_op(self, _coerce(self, other), "add")

    def __radd__(self, other):
        return field_op(_coerce(self, other), self, "add")

    def __sub__(self, other):
        return field_op(self, _coerce(self, other), "sub")

    def __rsub__(self, other):
        return field_op(_coerce(self, other), self, "sub")

    def __mul__(self, other):
        return field_op(self, _coerce(self, other), "mul")

    def __rmul__(self, other):
        return field_op(_coerce(self, other), self, "mul")

    def __truediv__(self, other):
        return field_op(self, _coerce(self, other), "div")

    def __rtruediv__(self, other):
        return field_op(_coerce(self, other), self, "div")

    def __neg__(self):
        return AlgebraicNumber(
            self.tower, self.depth, el_neg(self.depth, self.rep)
        )

    def order_key(self) -> tuple[Fraction, Fraction]:
        """(re, im) of the box midpoint, re rounded to _ORDER_BITS//2 + 1
        significant bits from an enclosure 16 bits finer than that grid.

        Noise stays below the grid, and binade edges lie on every grid,
        so equal real parts tie and fall to im, ascending; re is 0 when
        its enclosure holds 0 once the box excludes 0.
        """
        bits = _ORDER_BITS
        b = self.box(bits)
        if _fb_has_zero(b.fb) and self.is_zero():
            return (Fraction(0), Fraction(0))
        while _fb_has_zero(b.fb):
            b = self.box(2 * self._box_bits)
        lo, hi = b.fb[0], b.fb[1]
        if lo <= 0 <= hi:
            return (Fraction(0), b.im.mid)
        e = min(abs(lo), abs(hi)).bit_length() - 1 - b.s  # 2^e <= |re|
        need = bits // 2 + 16 - e
        if need > bits:
            b = self.box(need)
        mid2 = b.fb[0] + b.fb[1]  # re at scale 2^-(s+1)
        sh = max(abs(mid2).bit_length() - 1 - bits // 2, 0)
        re = Fraction(round(Fraction(mid2, 1 << sh)) << sh, 2 << b.s)
        return (re, b.im.mid)

    def render(self) -> str:
        """The rational itself, else certified .10g digits: re, or
        (re+imi) when the imaginary part is not certified zero."""
        r = self.as_rational()
        if r is not None:
            return str(r)
        for bits in _PRINT_BITS:
            b = self.box(bits)
            last = bits == _PRINT_BITS[-1]
            re, im = _digits(b.re, last), _digits(b.im, last)
            if re is not None and im is not None:
                break
        if im == "0":
            return re
        sign = "" if im.startswith("-") else "+"
        return f"({re}{sign}{im}i)"

    def within(self, lo: Fraction, hi: Fraction, tol: Fraction) -> bool:
        """Whether the number lies within tol of the real interval [lo, hi].

        Refines the enclosure until it falls wholly inside or wholly
        outside the tolerance band, and raises AmbiguousMatchError when it
        still straddles the band's edge at the finest width.
        """
        r = self.as_rational()
        if r is not None:
            return lo - tol <= r <= hi + tol
        for bits in _MATCH_BITS:
            b = self.box(bits)
            re, im = b.re, b.im
            if re.lo > hi + tol or re.hi < lo - tol or im.lo > tol or im.hi < -tol:
                return False
            if (lo - tol <= re.lo and re.hi <= hi + tol
                    and -tol <= im.lo and im.hi <= tol):
                return True
        raise AmbiguousMatchError(
            f"center {self.render()} cannot be accepted or rejected against "
            f"[{lo}, {hi}] at tolerance {tol}"
        )

    def __repr__(self):
        return self.render()


def _coerce(like: AlgebraicNumber, x) -> AlgebraicNumber:
    if isinstance(x, AlgebraicNumber):
        return x
    return AlgebraicNumber(like.tower, 0, exact(x))


def rational_number(r, tower: FieldTower | None = None) -> AlgebraicNumber:
    return AlgebraicNumber(tower or FieldTower(), 0, exact(r))


def field_op(x: AlgebraicNumber, y: AlgebraicNumber, op: str) -> AlgebraicNumber:
    """Arithmetic on numbers sharing a tower (rationals mix with anything)."""
    if x.tower is not y.tower and x.depth > 0 and y.depth > 0:
        raise ValueError("operands live on different towers")
    tower = x.tower if x.depth >= y.depth else y.tower
    depth = max(x.depth, y.depth)
    a = el_lift(x.rep, x.depth, depth)
    b = el_lift(y.rep, y.depth, depth)
    if op == "add":
        rep = el_add(depth, a, b)
    elif op == "sub":
        rep = el_sub(depth, a, b)
    elif op == "mul":
        rep = el_mul(tower, depth, a, b)
    elif op == "div":
        rep = el_div(tower, depth, a, b)
    else:
        raise ValueError(f"unknown field operation {op!r}")
    return AlgebraicNumber(tower, depth, el_reduce(tower, depth, rep))


# ---------------------------------------------------------------------------
# roots


def _roots_of_rational_poly(tw, depth, p: UniPoly, mult, out):
    """Isolate the roots of p, split off the rational ones exactly, and
    extend towers by the quotient on the boxes of the rest."""
    if p.degree == 1:
        out.append((rational_number(qdiv(-p.c[0], p.c[1]), tw), mult))
        return
    den = math.lcm(*(c.denominator for c in p.c))
    ints = [int(c * den) for c in p.c]
    an = abs(ints[-1]) // math.gcd(*ints)
    rest = []
    quotient = p
    tp = [el_from_rational(depth, c) for c in p.monic().c]
    for bx in isolate_roots(tw, depth, tp):
        r = _rational_root_in(p, an, bx)
        if r is None:
            rest.append(bx)
        else:
            out.append((rational_number(r, tw), mult))
            quotient = quotient.exact_div(UniPoly([-r, 1]))
    if rest:
        tq = [el_from_rational(depth, c) for c in quotient.monic().c]
        out += [(g, mult) for g in _extend(tw, tq, rest)]


def _rational_root_in(p: UniPoly, an: int, box: Box):
    """The rational root of p in box (which holds one root), or None.

    a_n·r is an integer for a rational root r of the primitive integer
    multiple of p, so once exact bisection on sign changes narrows the
    real segment of box below 1/a_n, one k/a_n is left to test.
    """
    if not box.im.contains_zero():
        return None
    lo, hi = box.re.lo, box.re.hi
    flo = p.eval(lo)
    if flo == 0:
        return lo
    while (hi - lo) * an >= 1:
        mid = (lo + hi) / 2
        fm = p.eval(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    k = math.ceil(lo * an)
    if k <= hi * an and p.eval(Fraction(k, an)) == 0:
        return Fraction(k, an)
    return None


def _extend(tw: FieldTower, tp: list, boxes: list[Box]) -> list:
    """The generators of one clone of tw per box, each extended by tp
    (coefficients at the top depth) and that box."""
    out = []
    for bx in boxes:
        branch = tw.clone()
        branch.extend(tp, bx)
        out.append(AlgebraicNumber.generator(branch))
    return out


def nth_root_representative(xi: AlgebraicNumber, w: int) -> AlgebraicNumber:
    """Deterministic w-th root of xi: exact rational when possible, else
    the root that ``AlgebraicNumber.order_key`` ranks last, i.e. the
    largest real part and, among equal real parts, the largest imaginary
    part (``+i*sqrt(c)`` for ``T^2 = -c``)."""
    if w == 1:
        return xi
    tw = xi.tower
    r = xi.as_rational()
    if r is not None:
        rr = rational_nth_root(r, w)
        if rr is not None:
            return rational_number(rr, tw)
    # tower extensions want their defining polynomial at the top depth
    depth = tw.height
    rep = el_lift(el_reduce(tw, xi.depth, xi.rep), xi.depth, depth)
    poly = [el_neg(depth, rep)] + [el_zero(depth)] * (w - 1) + [el_one(depth)]
    roots = _extend(tw, poly, isolate_roots(tw, depth, poly))
    return max(roots, key=AlgebraicNumber.order_key)


def roots_with_multiplicity(
    p, tower: FieldTower | None = None
) -> list[tuple[AlgebraicNumber, int]]:
    """All distinct roots of p with multiplicities, deterministically ordered.

    ``p`` is a UniPoly over Q, a list of AlgebraicNumber coefficients
    (lowest first) on a shared tower, or a list of raw tower elements when
    ``tower`` is given.  Roots extending the base field come back on their
    own cloned towers; multiplicities sum to deg p.
    """
    if isinstance(p, UniPoly):
        tw = tower or FieldTower()
        depth = tw.height
        coeffs = [el_from_rational(depth, c) for c in p.c]
    elif p and isinstance(p[0], AlgebraicNumber):
        tw = tower or p[0].tower
        depth = max(c.depth for c in p)
        coeffs = [el_lift(c.rep, c.depth, depth) for c in p]
    else:
        if tower is None:
            raise ValueError("raw coefficient lists need an explicit tower")
        tw = tower
        depth = tw.height
        coeffs = list(p)
    coeffs = _tp_trim(tw, depth, coeffs)
    if len(coeffs) <= 1:
        raise ValueError("constant polynomial has no well-defined root set")
    monic = _tp_monic(tw, depth, coeffs)
    out: list[tuple[AlgebraicNumber, int]] = []
    for factor, mult in tp_squarefree_monic(tw, depth, monic):
        if el_is_zero(tw, depth, factor[0]):
            out.append((rational_number(0, tw), mult))
            factor = factor[1:]
            if len(factor) == 1:
                continue
        rats = [el_to_rational(tw, depth, c) for c in factor]
        if all(r is not None for r in rats):
            _roots_of_rational_poly(tw, depth, UniPoly(rats), mult, out)
        elif len(factor) == 2:
            root = el_neg(depth, el_div(tw, depth, factor[0], factor[1]))
            out.append((AlgebraicNumber(tw, depth, root), mult))
        else:
            out += [(g, mult) for g in
                    _extend(tw, factor, isolate_roots(tw, depth, factor))]
    total = sum(m for _, m in out)
    if total != len(coeffs) - 1:
        raise ArithmeticError(
            f"root multiplicities sum to {total}, expected {len(coeffs) - 1}"
        )
    out.sort(key=lambda rm: rm[0].order_key())
    return out
