"""Exact elimination of central-path coordinates down to plane curves.

The central-path equations for an instance form a polynomial system in
mu, the entries of X and the multipliers y; S = C - sum_i y_i A_i is an
affine form in y, not an unknown. For one chosen coordinate this module
adds a row V - (coordinate), eliminates every unknown but mu and V, and
returns a nonzero P in Q[mu, V] vanishing along the path, ready for the
curve pipeline. One loop removes the unknowns by resultants, one unknown
per step. An unknown with a constant linear pivot c1*w + c0 goes first:
the resultant of f, of degree m in w, with the pivot is
(-c1)^m f(-c0/c1), the exact substitution up to a constant. Otherwise
the lowest-degree unknown goes next. A step whose f or pivot has degree
1 in w, most of them, takes the degree-1 case of
``polynomials.resultant``: a homogeneous Horner sum with no
pseudo-division. The other steps run the subresultant sequence. Degrees
are capped so hopeless instances fail fast instead of filling memory.

The equations are ``MPoly``s on packed monomials. An exponent vector is
one int with a 64-bit field per variable and mu's field on top, so a
product of two terms is one integer addition and integer order is lex
order. For a cap D, no exponent of a resultant step reaches 2D^2(D + 1).
That is below the fields' guard bits for every cap that ``degree_cap``
admits, D <= 2^20; ``MPoly`` derives the bound.

Every coordinate of an instance starts from the same system and often
repeats the same steps, so the first ``eliminate_coordinate`` call stores
the stripped rows on the instance together with a memo from each step
(f, pivot, unknown) to its stripped resultant. Later coordinates reuse
both, and each distinct step is computed once per pass over the
coordinates. The rows live as long as the instance; the memo lives until
``release_resultants``, which ``compute_rho_sdo`` calls when it returns.
The memo compares polynomials by their exact term sets, which is sound
because an ``MPoly`` is never mutated after construction.
"""

from __future__ import annotations

import math
import os
from struct import pack, unpack

import numpy as np

from .errors import (
    EliminationBlowUpError,
    ExtraneousVanishingError,
    InputError,
)
from .polynomials import BiPoly, exact, qdiv, resultant

__all__ = ["MPoly", "central_system", "eliminate_coordinate", "canonical_coordinates"]

# a coordinate whose traced values never leave this band is treated as
# identically zero on the path
_ZERO_COORD_TOL = 1e-9
# largest residual, relative to the coefficient norm, that the eliminant
# may leave on the traced samples
_VALIDATION_TOL = 1e-6
# MPoly packs each exponent into a 64-bit field whose top bit is a guard
_FIELD = (1 << 64) - 1
_GUARD = 1 << 63
_GUARD_FIELD = _GUARD.to_bytes(8, "big")
# the largest per-variable degree cap whose resultant steps the exponent
# fields provably hold (the bound is derived in ``MPoly``'s docstring)
MAX_DEGREE_CAP = 2**20


def degree_cap() -> int:
    """Per-variable degree cap for exact coordinate elimination.

    PUISEUXPATH_DEGREE_CAP overrides the default of 64 with a positive
    integer up to MAX_DEGREE_CAP.
    """
    raw = os.environ.get("PUISEUXPATH_DEGREE_CAP")
    if raw is None:
        return 64
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise InputError(
            f"PUISEUXPATH_DEGREE_CAP must be a positive integer, got {raw!r}"
        )
    if value > MAX_DEGREE_CAP:
        raise InputError(
            f"PUISEUXPATH_DEGREE_CAP must be at most {MAX_DEGREE_CAP}, got {raw!r}"
        )
    return value


class MPoly:
    """Sparse polynomial over Q in nv variables, on packed monomials.

    A term's exponent vector is packed into one Python int: variable i
    takes the 64-bit field at bit 64*(nv - 1 - i), so mu (variable 0, by
    convention of the callers here) sits in the top field and the integer
    order of the keys is the lex order of the exponent vectors, mu first.
    Multiplying two terms adds their keys; ``exact_div`` tests that one
    term divides another with one subtraction from the key with every
    field's top bit, its guard bit, set: a field that would go negative
    borrows its guard bit. An exponent stays below 2^63, the guard bit.
    Coefficients are an int when integral and a Fraction otherwise (see
    ``polynomials.exact``), so the integer systems of the elimination run
    on int arithmetic.

    Only this class knows the packing. ``MPoly(nv, terms)`` and
    ``to_dict`` speak exponent tuples. An MPoly is never mutated after
    construction: every operation builds a new one with all its terms at
    once. So the per-variable degree vector is computed once, on first
    use, and the hash, which ``_dedup`` and the elimination memo use,
    once too.

    No exponent reaches a guard bit. Let every operand of a resultant
    step have degree at most D in each variable: the rows of the central
    system have degree at most 2, and the cap gate of
    ``eliminate_coordinate`` makes D >= 2 and checks every resultant
    against D before it joins the system. For f and g of degrees m, n <= D
    in the eliminated variable, every element of the subresultant
    sequence, and each g and h it keeps, is a subresultant or one of its
    coefficients: a minor of the Sylvester matrix with n - j rows of f and
    m - j of g, so of degree E <= (m + n)D <= 2D^2 in any other variable.
    A pseudo-remainder multiplies its dividend by at most m factors of a
    leading coefficient, so it and its partial results have degree at
    most (m + 1)E <= 2D^2(D + 1); so do the powers g^delta and h^(d-1)
    and the divisors g*h^delta. An exact
    division never exceeds the degree of its dividend: each of its
    intermediate terms is the product of a term of the quotient and one
    of the divisor. The degree-1 case of ``polynomials.resultant`` stays
    within D + mD, the degree-0 case within D^2. So no exponent of a step
    exceeds 2D^2(D + 1), which is below 2^62 for D <= 2^20, and
    ``degree_cap`` rejects a cap above 2^20. Where no cap applies, two
    checks still stop an overflow: a product that would set a guard bit
    raises OverflowError, and a division whose remainder would set one
    raises ArithmeticError, as an exact division never does.
    """

    __slots__ = ("nv", "_guards", "_terms", "_degs", "_hash")

    def __init__(self, nv: int, terms: dict | None = None):
        fmt = f">{nv}Q"
        packed = {}
        for e, c in (terms or {}).items():
            if len(e) != nv or not all(0 <= k < _GUARD for k in e):
                raise ValueError(f"exponent {e!r} is not {nv} integers in [0, 2^63)")
            if c:
                packed[int.from_bytes(pack(fmt, *e), "big")] = exact(c)
        self.nv = nv
        self._guards = int.from_bytes(_GUARD_FIELD * nv, "big")
        self._terms = packed
        self._degs = None
        self._hash = None

    def _new(self, terms: dict, degs: tuple | None = None) -> "MPoly":
        """An MPoly in the variables of self, on packed terms."""
        out = object.__new__(MPoly)
        out.nv = self.nv
        out._guards = self._guards
        out._terms = terms
        out._degs = degs
        out._hash = None
        return out

    @classmethod
    def const(cls, nv: int, value) -> "MPoly":
        return cls(nv, {(0,) * nv: value})

    @classmethod
    def variable(cls, nv: int, idx: int) -> "MPoly":
        e = [0] * nv
        e[idx] = 1
        return cls(nv, {tuple(e): 1})

    def to_dict(self) -> dict:
        """The terms as {exponent tuple: coefficient}."""
        fmt, size = f">{self.nv}Q", self.nv << 3
        return {unpack(fmt, e.to_bytes(size, "big")): c
                for e, c in self._terms.items()}

    def coefficients(self):
        """The nonzero coefficients, in no particular order."""
        return self._terms.values()

    def __eq__(self, other) -> bool:
        return (isinstance(other, MPoly) and self.nv == other.nv
                and self._terms == other._terms)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def is_zero(self) -> bool:
        return not self._terms

    def _degrees(self) -> tuple:
        """The per-variable degrees, -1 for zero; stored for later calls."""
        if not self._terms:
            degs = (-1,) * self.nv
        else:
            fmt, size = f">{self.nv}Q", self.nv << 3
            vecs = [unpack(fmt, e.to_bytes(size, "big")) for e in self._terms]
            degs = vecs[0] if len(vecs) == 1 else tuple(map(max, *vecs))
        self._degs = degs
        return degs

    def deg(self, var: int) -> int:
        return (self._degs or self._degrees())[var]

    def max_degree(self) -> int:
        return max(self._degs or self._degrees())

    def variables(self) -> set[int]:
        return {i for i, k in enumerate(self._degs or self._degrees()) if k > 0}

    def is_const_linear_in(self, var: int) -> bool:
        """Whether self = c*x + (terms free of x), x the variable var, c in Q."""
        if self.deg(var) != 1:
            return False
        shift = (self.nv - 1 - var) << 6
        field = _FIELD << shift
        return [e for e in self._terms if e & field] == [1 << shift]

    def __add__(self, other: "MPoly") -> "MPoly":
        out = dict(self._terms)
        for e, c in other._terms.items():
            cur = out.get(e)
            if cur is None:
                out[e] = c
            else:
                s = cur + c
                if s:
                    out[e] = s if type(s) is int else exact(s)
                else:
                    del out[e]
        return self._new(out)

    def __neg__(self) -> "MPoly":
        return self._new({e: -c for e, c in self._terms.items()}, self._degs)

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        guards = self._guards
        out: dict = {}
        pairs = other._terms.items()
        for e1, c1 in self._terms.items():
            for e2, c2 in pairs:
                e = e1 + e2
                c = c1 * c2
                cur = out.get(e)
                if cur is None:
                    if e & guards:
                        raise OverflowError("an exponent reached 2^63")
                    out[e] = c if type(c) is int else exact(c)
                else:
                    s = cur + c
                    if s:
                        out[e] = s if type(s) is int else exact(s)
                    else:
                        del out[e]
        return self._new(out)

    def scale(self, r) -> "MPoly":
        r = exact(r)
        if not r:
            return self._new({})
        return self._new({e: exact(c * r) for e, c in self._terms.items()},
                         self._degs)

    def __pow__(self, k: int) -> "MPoly":
        out = self._new({0: 1})
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def exact_div(self, other: "MPoly") -> "MPoly":
        """Exact quotient; raises ArithmeticError if a remainder is left.

        Classical division by the lex-leading term of ``other``. Integer
        coefficients divide by ``qdiv``, so a quotient stays int unless a
        coefficient really leaves a remainder.
        """
        if not other._terms:
            raise ZeroDivisionError("polynomial division by zero")
        guards = self._guards
        lead = max(other._terms)
        lc = other._terms[lead]
        pairs = other._terms.items()
        rem = dict(self._terms)
        quot = {}
        while rem:
            e = max(rem)
            # every field keeps its guard bit iff lead divides e
            qe = (e | guards) - lead
            if qe & guards != guards:
                raise ArithmeticError("division was expected to be exact")
            qe ^= guards
            qc = qdiv(rem[e], lc)
            quot[qe] = qc
            for e2, c2 in pairs:
                t = qe + e2
                if t & guards:
                    raise ArithmeticError("division was expected to be exact")
                s = rem.get(t, 0) - qc * c2
                if s:
                    rem[t] = s if type(s) is int else exact(s)
                else:
                    del rem[t]
        return self._new(quot)

    def coeffs_in(self, var: int) -> list["MPoly"]:
        """Coefficients as polynomials in the other variables, ascending."""
        shift = (self.nv - 1 - var) << 6
        field = _FIELD << shift
        buckets: list[dict] = [{} for _ in range(self.deg(var) + 1)]
        for e, c in self._terms.items():
            k = e & field
            buckets[k >> shift][e ^ k] = c
        return [self._new(b) for b in buckets]

    def without_mu_power(self, num: int, den: int) -> "MPoly":
        """±self * num / den, divided by the largest power of mu dividing it.

        The sign makes the lex-leading coefficient positive. Every
        coefficient c must make c * num / den an integer, as it is
        computed as c.numerator * (num // c.denominator) // den.
        """
        if not self._terms:
            return self
        if self._terms[max(self._terms)] < 0:
            den = -den
        top = (self.nv - 1) << 6
        low = min(self._terms) >> top
        drop = low << top
        terms = {e - drop: c.numerator * (num // c.denominator) // den
                 for e, c in self._terms.items()}
        degs = self._degs
        return self._new(terms, degs and (degs[0] - low,) + degs[1:])

    def to_bipoly(self, var: int) -> BiPoly:
        """This polynomial in mu and V = variable var, divided by V^k.

        k is the lowest exponent of var. Every other variable must be
        absent.
        """
        top = (self.nv - 1) << 6
        shift = (self.nv - 1 - var) << 6
        vs = {e: (e >> shift) & _FIELD for e in self._terms}
        vmin = min(vs.values())
        return BiPoly.from_dict({(vs[e] - vmin, e >> top): c
                                 for e, c in self._terms.items()})

    def __repr__(self):
        return f"MPoly(nv={self.nv}, {len(self._terms)} terms)"


def _strip(p: MPoly) -> MPoly:
    """Remove the rational content and any common mu power.

    mu never vanishes along the path, so dividing an equation by mu^k
    keeps its zero set there; nothing else may be cancelled safely. The
    result has coprime int coefficients and a positive lex-leading one,
    so an equation and its negation strip to the same polynomial.
    """
    if p.is_zero():
        return p
    cs = p.coefficients()
    g = math.gcd(*(c.numerator for c in cs))
    den = math.lcm(*(c.denominator for c in cs))
    # c / (g / den) = c.numerator * (den / c.denominator) / g, all integral
    return p.without_mu_power(den, g)


def central_system(inst) -> tuple[list[MPoly], list[MPoly]]:
    """Polynomial equations of the central path of one instance.

    The unknowns are mu, the upper triangle of X in row-major order (a
    mirrored entry shares its unknown), the multipliers y, and a last
    unknown V for the coordinate to isolate. S is not an unknown: on the
    path S = C - sum_i y_i A_i, so each entry is an affine polynomial in
    y. Returns the m primal rows A_i . X - b_i followed by the n^2 rows
    of X S - mu I in (p, q) order, and the polynomial of every flat
    (vec X, y, vec S) coordinate.
    """
    n, m = inst.n, inst.m
    k = n * (n + 1) // 2
    nv = k + m + 2
    A = [[[int(v) for v in row] for row in Ai] for Ai in inst.A]
    b = [int(v) for v in inst.b]
    C = [[int(v) for v in row] for row in inst.C]
    X = [[None] * n for _ in range(n)]
    for t, (p, q) in enumerate((p, q) for p in range(n) for q in range(p, n)):
        X[p][q] = X[q][p] = MPoly.variable(nv, 1 + t)
    y = [MPoly.variable(nv, 1 + k + i) for i in range(m)]
    S = [[MPoly.const(nv, C[p][q]) for q in range(n)] for p in range(n)]
    rows = []
    for i in range(m):
        row = MPoly.const(nv, -b[i])
        for p in range(n):
            for q in range(n):
                S[p][q] = S[p][q] - y[i].scale(A[i][p][q])
                row = row + X[p][q].scale(A[i][p][q])
        rows.append(row)
    mu = MPoly.variable(nv, 0)
    for p in range(n):
        for q in range(n):
            row = mu.scale(-1) if p == q else MPoly.const(nv, 0)
            for t in range(n):
                row = row + X[p][t] * S[t][q]
            rows.append(row)
    coords = [e for r in X for e in r] + y + [e for r in S for e in r]
    return rows, coords


def canonical_coordinates(inst) -> list[int]:
    """Flat coordinate indices with symmetric duplicates removed."""
    n, m = inst.n, inst.m
    out = [i * n + j for i in range(n) for j in range(i, n)]
    out += [n * n + i for i in range(m)]
    out += [n * n + m + i * n + j for i in range(n) for j in range(i, n)]
    return out


class _System:
    """The stripped central system of one instance and its resultant memo.

    ``rows`` are the nonzero rows of ``central_system`` after ``_strip``,
    ``coords`` its coordinate polynomials, and ``resultants`` maps a step
    (f, pivot, unknown) to the stripped resultant of f and the pivot in
    that unknown.
    """

    __slots__ = ("rows", "coords", "resultants")

    def __init__(self, inst):
        rows, self.coords = central_system(inst)
        self.rows = [_strip(p) for p in rows if not p.is_zero()]
        self.resultants: dict[tuple, MPoly] = {}


def _system(inst) -> _System:
    if inst._elimination is None:
        inst._elimination = _System(inst)
    return inst._elimination


def release_resultants(inst) -> None:
    """Drop the resultant memo of inst; its stripped rows are kept."""
    if inst._elimination is not None:
        inst._elimination.resultants = {}


def _dedup(eqs: list[MPoly]) -> list[MPoly]:
    seen = set()
    out = []
    for e in eqs:
        if e not in seen:
            seen.add(e)
            out.append(e)
    return out


def _pivot(eqs: list[MPoly], elim: set[int]) -> tuple[MPoly, int] | None:
    """The next pivot equation and the unknown it eliminates, or None.

    A constant linear pivot comes first: the first equation, in list
    order, with an unknown of degree 1 and a constant coefficient, at its
    lowest such unknown. Otherwise the unknown of least degree, then
    fewest equations, then lowest index, with its equation of least
    degree, then fewest terms.
    """
    for eq in eqs:
        for w in sorted(eq.variables() & elim):
            if eq.is_const_linear_in(w):
                return eq, w
    present: dict[int, list[MPoly]] = {}
    for eq in eqs:
        for w in eq.variables() & elim:
            present.setdefault(w, []).append(eq)
    if not present:
        return None
    w = min(
        present,
        key=lambda v: (min(e.deg(v) for e in present[v]), len(present[v]), v),
    )
    return min(present[w], key=lambda e: (e.deg(w), len(e.coefficients()))), w


def _traced_zeros(trace) -> np.ndarray:
    """Which coordinates the trace never moves out of the zero band.

    Each column's largest magnitude is rounded to a float before the
    compare, as the band is a float: in long double, a value just above
    1e-9 can round to 1e-9.
    """
    peak = np.max(np.abs(trace.values), axis=0).astype(float)
    return peak <= _ZERO_COORD_TOL


def _float_evaluator(P: BiPoly):
    """A function giving float(P(mu, v)) at floats mu, v, in int arithmetic.

    With mu = a/b and v = c/d exactly (``float.as_integer_ratio``), deg_mu
    dm, deg_v dv and D the lcm of P's denominators, D b^dm d^dv P(mu, v)
    is an integer. One int true division then gives the value, rounded
    correctly just as ``float(Fraction)`` rounds it. P must be nonzero.
    """
    dm, dv = P.deg_mu, P.deg_v
    coeffs = P.to_dict()
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    terms = [(j, k, c.numerator * (den // c.denominator))
             for (j, k), c in coeffs.items()]

    def value(mu: float, v: float) -> float:
        a, b = mu.as_integer_ratio()
        c, d = v.as_integer_ratio()
        mus = [a**k * b ** (dm - k) for k in range(dm + 1)]
        vs = [c**j * d ** (dv - j) for j in range(dv + 1)]
        num = sum(x * mus[k] * vs[j] for j, k, x in terms)
        return num / (den * b**dm * d**dv)

    return value


def _validate(P: BiPoly, coordinate: int, trace) -> None:
    norm = 1.0 + sum(abs(float(c)) for c in P.to_dict().values())
    value = _float_evaluator(P)
    worst = 0.0
    for s, v in zip(trace.samples, trace.values[:, coordinate]):
        worst = max(worst, abs(value(float(s.mu), float(v))))
    if worst / norm > _VALIDATION_TOL:
        raise ExtraneousVanishingError(
            f"eliminant misses the traced path: residual {worst / norm:.2e}"
            f" above {_VALIDATION_TOL:g}"
        )


def eliminate_coordinate(inst, coordinate: int, trace) -> BiPoly:
    """Project the central-path system onto (mu, one coordinate).

    The system gets the rows V - (coordinate) and, for every other
    canonical coordinate the trace shows to be zero, the coordinate
    itself. One loop of resultants then removes every unknown but mu and
    V, in the order ``_pivot`` picks; its constant linear pivots, mostly
    of the primal block, go first. The surviving polynomials are reduced
    to a single square-free P in Q[mu, V], which is checked against a
    numeric trace before it is returned.

    The first call on an instance builds ``central_system`` once and
    stores its stripped rows, with a memo of the resultant steps, on the
    instance (``inst._elimination``); later calls reuse both and build
    only the isolating row and the pins. A step with the same f, pivot
    and unknown as an earlier one, from any coordinate, takes its
    resultant from the memo. The rows live as long as the instance, the
    memo until ``release_resultants``.
    """
    cap = degree_cap()
    hard = inst.n * (inst.n + 1) // 2 - 1
    if 2 ** (hard + 1) > cap:
        raise EliminationBlowUpError(
            f"projected resultant degree 2^{hard + 1} exceeds the cap {cap};"
            " raise PUISEUXPATH_DEGREE_CAP to force the attempt"
        )
    system = _system(inst)
    coords = system.coords
    if not 0 <= coordinate < len(coords):
        raise InputError(f"coordinate {coordinate} out of range for this instance")
    zero = _traced_zeros(trace)
    if zero[coordinate]:
        # the graph of an identically-zero coordinate is the zero set of V
        return BiPoly.from_dict({(1, 0): 1})
    nv = coords[0].nv
    target = nv - 1
    # Coordinates the trace shows to be identically zero are pinned by a
    # row of their own. Without this, a path living on the zero set of a
    # coordinate leaves every equation divisible by it and the chain
    # degrades to 0 = 0. The final validation gate still checks the outcome.
    pins = [coords[c] for c in canonical_coordinates(inst)
            if c != coordinate and zero[c]]
    isolate = MPoly.variable(nv, target) - coords[coordinate]
    eqs = [_strip(p) for p in [isolate, *pins] if not p.is_zero()]
    eqs += system.rows
    elim = set(range(1, target))
    memo = system.resultants

    # the pivot is used up; every other equation with w gives way, where
    # it stands, to its resultant with the pivot (the list order decides
    # the later pivots, and with them which extraneous factors survive)
    while (choice := _pivot(eqs, elim)) is not None:
        pivot, w = choice
        g = None
        new = []
        for f in eqs:
            if f is pivot:
                continue
            if f.deg(w):
                key = (f, pivot, w)
                r = memo.get(key)
                if r is None:
                    if g is None:
                        g = pivot.coeffs_in(w)
                    r = memo[key] = _strip(resultant(f.coeffs_in(w), g))
                f = r
                if f.max_degree() > cap:
                    raise EliminationBlowUpError(
                        f"degree {f.max_degree()} after eliminating a variable"
                        f" exceeds the cap {cap}"
                    )
            if not f.is_zero():
                new.append(f)
        eqs = _dedup(new)
        elim.discard(w)
        if not eqs:
            raise ExtraneousVanishingError(
                "elimination emptied the system before isolating the coordinate"
            )

    finals = [e for e in eqs if e.deg(target) > 0]
    if not finals:
        raise ExtraneousVanishingError(
            "no equation involving the coordinate survived elimination"
        )
    bips = [e.to_bipoly(target) for e in finals]
    bips.sort(key=lambda p: (p.deg_v, p.deg_mu))
    P = bips[0]
    for q in bips[1:]:
        if P.deg_v == 1:
            break
        P = P.gcd(q)
    P = P.separable_part()
    if P.deg_v < 1:
        raise ExtraneousVanishingError(
            "the surviving eliminant does not depend on the coordinate"
        )
    _validate(P, coordinate, trace)
    return P
