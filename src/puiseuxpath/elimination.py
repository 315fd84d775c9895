"""Exact elimination of central-path coordinates down to plane curves.

The central-path equations for an instance form a polynomial system in
mu, the entries of X and S, and the multipliers y. For one chosen
coordinate this module eliminates every other unknown and returns a
nonzero P in Q[mu, V] vanishing along the path, ready for the curve
pipeline. Linear unknowns are removed by exact substitution first;
the rest fall to iterated resultants with the lowest-degree variable
picked at each step. Degrees are capped so hopeless instances fail
fast instead of filling memory.
"""

from __future__ import annotations

import math
from fractions import Fraction
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
    """

    __slots__ = ("nv", "terms")

    def __init__(self, nv: int, terms: dict | None = None):
        self.nv = nv
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

    def substitute(self, var: int, expr: "MPoly") -> "MPoly":
        coeffs = self.coeffs_in(var)
        if not coeffs:
            return self
        acc = coeffs[-1]
        for k in range(len(coeffs) - 2, -1, -1):
            acc = acc * expr + coeffs[k]
        return acc

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


def _pair_index(n: int) -> dict[tuple[int, int], int]:
    out = {}
    for i in range(n):
        for j in range(i, n):
            out[(i, j)] = len(out)
    return out


def central_system(inst) -> tuple[list[MPoly], dict]:
    """Polynomial equations of the central path of one instance.

    Variables are mu, then the upper-triangle entries of X, then y,
    then the upper-triangle entries of S. Returns the equations and a
    layout dict with the variable indices.
    """
    n, m = inst.n, inst.m
    pairs = _pair_index(n)
    k = len(pairs)
    nv = 1 + 2 * k + m

    def xvar(i, j):
        return 1 + pairs[(min(i, j), max(i, j))]

    def yvar(i):
        return 1 + k + i

    def svar(i, j):
        return 1 + k + m + pairs[(min(i, j), max(i, j))]

    A = [[[int(v) for v in row] for row in Ai] for Ai in inst.A]
    b = [int(v) for v in inst.b]
    C = [[int(v) for v in row] for row in inst.C]
    polys: list[MPoly] = []
    for i in range(m):
        terms: dict = {}
        for p in range(n):
            for q in range(p, n):
                a = A[i][p][q] * (2 if p != q else 1)
                if a:
                    e = [0] * nv
                    e[xvar(p, q)] = 1
                    terms[tuple(e)] = a
        if b[i]:
            terms[(0,) * nv] = -b[i]
        polys.append(MPoly(nv, terms))
    for p in range(n):
        for q in range(p, n):
            terms = {}
            for i in range(m):
                if A[i][p][q]:
                    e = [0] * nv
                    e[yvar(i)] = 1
                    terms[tuple(e)] = A[i][p][q]
            e = [0] * nv
            e[svar(p, q)] = 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + 1
            if C[p][q]:
                terms[(0,) * nv] = -C[p][q]
            polys.append(MPoly(nv, {e: c for e, c in terms.items() if c}))
    for p in range(n):
        for q in range(n):
            terms = {}
            for t in range(n):
                e = [0] * nv
                xi = xvar(p, t)
                si = svar(t, q)
                e[xi] += 1
                e[si] += 1
                key = tuple(e)
                terms[key] = terms.get(key, 0) + 1
            if p == q:
                e = [0] * nv
                e[0] = 1
                key = tuple(e)
                terms[key] = terms.get(key, 0) - 1
            polys.append(MPoly(nv, {e: c for e, c in terms.items() if c}))
    layout = {
        "nv": nv,
        "k": k,
        "xvar": xvar,
        "yvar": yvar,
        "svar": svar,
    }
    return polys, layout


def coordinate_variable(inst, coordinate: int, layout: dict) -> int:
    """Variable index of a flat (vec X, y, vec S) coordinate."""
    n, m = inst.n, inst.m
    nsq = n * n
    if 0 <= coordinate < nsq:
        i, j = divmod(coordinate, n)
        return layout["xvar"](i, j)
    if nsq <= coordinate < nsq + m:
        return layout["yvar"](coordinate - nsq)
    if nsq + m <= coordinate < 2 * nsq + m:
        i, j = divmod(coordinate - nsq - m, n)
        return layout["svar"](i, j)
    raise InputError(f"coordinate {coordinate} out of range for this instance")


def canonical_coordinates(inst) -> list[int]:
    """Flat coordinate indices with symmetric duplicates removed."""
    n, m = inst.n, inst.m
    out = [i * n + j for i in range(n) for j in range(i, n)]
    out += [n * n + i for i in range(m)]
    out += [n * n + m + i * n + j for i in range(n) for j in range(i, n)]
    return out


def _dedup(eqs: list[MPoly]) -> list[MPoly]:
    seen = set()
    out = []
    for e in eqs:
        key = frozenset(e.terms.items())
        if key not in seen:
            seen.add(key)
            out.append(e)
    return out


def _substitute_all(eqs: list[MPoly], w: int, expr: MPoly) -> list[MPoly]:
    """Substitute w := expr in every equation; drop zeros and duplicates."""
    return _dedup([q for q in (_strip(e.substitute(w, expr)) for e in eqs)
                   if not q.is_zero()])


def _linear_pivot(eqs: list[MPoly], elim: set[int]):
    """First (equation index, variable, value) with a constant linear pivot.

    Equations are scanned in order and each one's variables in increasing
    index; the value solves the equation for the variable.
    """
    for ei, eq in enumerate(eqs):
        for w in sorted(v for v in eq.variables() if v in elim):
            if eq.deg(w) != 1:
                continue
            c0, c1 = eq.coeffs_in(w)
            if c1.is_const():
                lead = c1.terms[(0,) * eq.nv]
                return ei, w, c0.scale(qdiv(-1, lead))
    return None


def _validate(P: BiPoly, coordinate: int, trace) -> None:
    norm = 1.0 + sum(abs(float(c)) for c in P.to_dict().values())
    worst = 0.0
    for s, v in zip(trace.samples, trace.values[:, coordinate]):
        val = P.eval(Fraction(float(s.mu)), Fraction(float(v)))
        worst = max(worst, abs(float(val)))
    if worst / norm > _VALIDATION_TOL:
        raise ExtraneousVanishingError(
            f"eliminant misses the traced path: residual {worst / norm:.2e}"
            f" above {_VALIDATION_TOL:g}"
        )


def eliminate_coordinate(inst, coordinate: int, trace) -> BiPoly:
    """Project the central-path system onto (mu, one coordinate).

    Exact linear substitutions clear the dual and primal blocks, then
    iterated resultants remove the remaining unknowns, lowest degree
    first. The surviving polynomials are reduced to a single square-free
    P in Q[mu, V], which is checked against a numeric trace before it is
    returned.
    """
    cap = degree_cap()
    hard = inst.n * (inst.n + 1) // 2 - 1
    if 2 ** (hard + 1) > cap:
        raise EliminationBlowUpError(
            f"projected resultant degree 2^{hard + 1} exceeds the cap {cap};"
            " raise PUISEUXPATH_DEGREE_CAP to force the attempt"
        )
    polys, layout = central_system(inst)
    target = coordinate_variable(inst, coordinate, layout)
    if float(np.max(np.abs(trace.values[:, coordinate]))) <= _ZERO_COORD_TOL:
        # the graph of an identically-zero coordinate is the zero set of V
        return BiPoly.from_dict({(1, 0): 1})
    nv = layout["nv"]
    eqs = [_strip(p) for p in polys if not p.is_zero()]
    elim = set(range(1, nv))
    elim.discard(target)

    # Coordinates the trace shows to be identically zero are pinned before
    # any resultant runs. Without this, a path living on the zero set of a
    # variable leaves every equation divisible by it and the chain degrades
    # to 0 = 0. The final validation gate still checks the outcome.
    zero = MPoly.const(nv, 0)
    for c in canonical_coordinates(inst):
        w = coordinate_variable(inst, c, layout)
        if w == target or w not in elim:
            continue
        if float(np.max(np.abs(trace.values[:, c]))) <= _ZERO_COORD_TOL:
            eqs = _substitute_all(eqs, w, zero)
            elim.discard(w)

    # exact substitutions for variables with a constant linear pivot; the
    # pivot equation is used up by its substitution
    while (pivot := _linear_pivot(eqs, elim)) is not None:
        ei, w, expr = pivot
        eqs = _substitute_all(eqs[:ei] + eqs[ei + 1:], w, expr)
        elim.discard(w)

    # iterated resultants on what is left
    while True:
        present: dict[int, list[MPoly]] = {}
        for eq in eqs:
            for w in eq.variables():
                if w in elim:
                    present.setdefault(w, []).append(eq)
        if not present:
            break
        w = min(
            present,
            key=lambda v: (min(e.deg(v) for e in present[v]), len(present[v]), v),
        )
        occ = present[w]
        pivot = min(occ, key=lambda e: (e.deg(w), len(e.terms)))
        new = []
        for f in occ:
            if f is pivot:
                continue
            r = _strip(resultant(f.coeffs_in(w), pivot.coeffs_in(w)))
            if r.is_zero():
                # shared factor with the pivot; another partner may still
                # extract independent information from f
                for g in occ:
                    if g is f or g is pivot:
                        continue
                    r = _strip(resultant(f.coeffs_in(w), g.coeffs_in(w)))
                    if not r.is_zero():
                        break
                if r.is_zero():
                    continue
            if r.max_degree() > cap:
                raise EliminationBlowUpError(
                    f"degree {r.max_degree()} after eliminating a variable"
                    f" exceeds the cap {cap}"
                )
            new.append(r)
        eqs = _dedup([e for e in eqs if e.deg(w) <= 0] + new)
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
