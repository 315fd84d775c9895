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
the lowest-degree unknown goes next. Degrees are capped so hopeless
instances fail fast instead of filling memory.

Every coordinate of an instance starts from the same system and often
repeats the same steps, so the first ``eliminate_coordinate`` call stores
the stripped rows on the instance together with a memo from each step
(f, pivot, unknown) to its stripped resultant. Later coordinates reuse
both, and each distinct step is computed once per instance. The memo is
keyed by exact term sets, which is sound because an ``MPoly`` is never
mutated after construction.
"""

from __future__ import annotations

import math
from operator import add

import numpy as np

from .config import degree_cap
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


class MPoly:
    """Sparse polynomial over Q in a fixed tuple of variables.

    Terms map exponent tuples to nonzero coefficients, each an int when
    integral and a Fraction otherwise (see ``polynomials.exact``), so the
    integer systems of the elimination run on int arithmetic. Variable 0
    is always mu by convention of the callers here.

    An MPoly is never mutated after construction: the operations return
    new objects, and the few that build one by hand fill ``terms`` right
    after ``MPoly(nv)``. ``key`` and the elimination memo rely on this.
    """

    __slots__ = ("nv", "terms", "_key")

    def __init__(self, nv: int, terms: dict | None = None):
        self.nv = nv
        self._key = None
        clean = {}
        if terms:
            for e, c in terms.items():
                if c:
                    clean[e] = exact(c)
        self.terms = clean

    @classmethod
    def const(cls, nv: int, value) -> "MPoly":
        return cls(nv, {(0,) * nv: value})

    @classmethod
    def variable(cls, nv: int, idx: int) -> "MPoly":
        e = [0] * nv
        e[idx] = 1
        return cls(nv, {tuple(e): 1})

    def key(self) -> frozenset:
        """The exact term set, computed once: equal keys, equal polynomials."""
        if self._key is None:
            self._key = frozenset(self.terms.items())
        return self._key

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0,) * self.nv in self.terms)

    def deg(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def max_degree(self) -> int:
        if not self.terms:
            return -1
        return max(max(e) for e in self.terms)

    def variables(self) -> set[int]:
        out: set[int] = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    out.add(i)
        return out

    def __add__(self, other: "MPoly") -> "MPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            cur = out.get(e)
            if cur is None:
                out[e] = c
            else:
                s = cur + c
                if s:
                    out[e] = s if type(s) is int else exact(s)
                else:
                    del out[e]
        res = MPoly(self.nv)
        res.terms = out
        return res

    def __neg__(self) -> "MPoly":
        res = MPoly(self.nv)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                cur = out.get(e)
                if cur is None:
                    out[e] = c if type(c) is int else exact(c)
                else:
                    s = cur + c
                    if s:
                        out[e] = s if type(s) is int else exact(s)
                    else:
                        del out[e]
        res = MPoly(self.nv)
        res.terms = out
        return res

    def scale(self, r) -> "MPoly":
        r = exact(r)
        res = MPoly(self.nv)
        if r:
            res.terms = {e: exact(c * r) for e, c in self.terms.items()}
        return res

    def __pow__(self, k: int) -> "MPoly":
        out = MPoly.const(self.nv, 1)
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
        if not other.terms:
            raise ZeroDivisionError("polynomial division by zero")
        lead = max(other.terms)
        lc = other.terms[lead]
        rem = dict(self.terms)
        quot = {}
        while rem:
            e = max(rem)
            qe = tuple(a - b for a, b in zip(e, lead))
            if min(qe) < 0:
                raise ArithmeticError("division was expected to be exact")
            qc = qdiv(rem[e], lc)
            quot[qe] = qc
            for e2, c2 in other.terms.items():
                t = tuple(map(add, qe, e2))
                s = rem.get(t, 0) - qc * c2
                if s:
                    rem[t] = s if type(s) is int else exact(s)
                else:
                    del rem[t]
        res = MPoly(self.nv)
        res.terms = quot
        return res

    def coeffs_in(self, var: int) -> list["MPoly"]:
        """Coefficients as polynomials in the other variables, ascending."""
        d = self.deg(var)
        buckets: list[dict] = [{} for _ in range(d + 1)]
        for e, c in self.terms.items():
            k = e[var]
            stripped = e[:var] + (0,) + e[var + 1 :]
            buckets[k][stripped] = c
        out = []
        for b in buckets:
            p = MPoly(self.nv)
            p.terms = b
            out.append(p)
        return out

    def __repr__(self):
        return f"MPoly(nv={self.nv}, {len(self.terms)} terms)"


def _strip(p: MPoly) -> MPoly:
    """Remove the rational content and any common mu power.

    mu never vanishes along the path, so dividing an equation by mu^k
    keeps its zero set there; nothing else may be cancelled safely. The
    result has coprime int coefficients.
    """
    if not p.terms:
        return p
    g = math.gcd(*(c.numerator for c in p.terms.values()))
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    mu_min = min(e[0] for e in p.terms)
    out = MPoly(p.nv)
    # c / (g / den) = c.numerator * (den / c.denominator) / g, all integral
    out.terms = {
        (e[0] - mu_min,) + e[1:]: c.numerator * (den // c.denominator) // g
        for e, c in p.terms.items()
    }
    return out


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
    (f key, pivot key, unknown) to the stripped resultant of f and the
    pivot in that unknown.
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


def _dedup(eqs: list[MPoly]) -> list[MPoly]:
    seen = set()
    out = []
    for e in eqs:
        key = e.key()
        if key not in seen:
            seen.add(key)
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
            if eq.deg(w) == 1 and eq.coeffs_in(w)[1].is_const():
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
    return min(present[w], key=lambda e: (e.deg(w), len(e.terms))), w


def _traced_zero(trace, coordinate: int) -> bool:
    return float(np.max(np.abs(trace.values[:, coordinate]))) <= _ZERO_COORD_TOL


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
    resultant from the memo. Both live as long as the instance.
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
    if _traced_zero(trace, coordinate):
        # the graph of an identically-zero coordinate is the zero set of V
        return BiPoly.from_dict({(1, 0): 1})
    nv = coords[0].nv
    target = nv - 1
    # Coordinates the trace shows to be identically zero are pinned by a
    # row of their own. Without this, a path living on the zero set of a
    # coordinate leaves every equation divisible by it and the chain
    # degrades to 0 = 0. The final validation gate still checks the outcome.
    pins = [coords[c] for c in canonical_coordinates(inst)
            if c != coordinate and _traced_zero(trace, c)]
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
                key = (f.key(), pivot.key(), w)
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
    bips = []
    for e in finals:
        vmin = min(t[target] for t in e.terms)
        d = {}
        for t, c in e.terms.items():
            d[(t[target] - vmin, t[0])] = c
        bips.append(BiPoly.from_dict(d))
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
