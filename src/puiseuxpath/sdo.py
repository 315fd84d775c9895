"""Semidefinite instances and central-path numerics.

For min <C, X> subject to <A_i, X> = b_i and X positive semidefinite,
the central point at mu > 0 solves

    <A_i, X> = b_i,    sum_i y_i A_i + S = C,    X S = mu I.

Newton's method is applied to the symmetrized complementarity block
(XS + SX)/2 - mu I so iterates stay symmetric, with a
fraction-to-the-boundary line search keeping X and S positive definite.
The residuals, the test that stops at res <= tol, the iterates and the
line search run in numpy extended precision, so traces stay clean well
below mu = 1e-6.  Each Newton step is solved in IEEE double, on CPython
floats: only the residual must be accurate, and each step corrects the
error the one before it left, as in mixed-precision iterative refinement
(Moler, Iterative refinement in floating point, JACM 14(2), 1967;
Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 12).
Python's float arithmetic rounds the same on every x86-64 host, which a
BLAS-backed solve would not.

The Newton system (size m + n(n+1); on the builtins 12-22 % of its
entries are nonzero) is solved by partial-pivot elimination that visits
only the entries its pattern can fill (Duff, Erisman & Reid, Direct
Methods for Sparse Matrices).  As in sparse direct solvers that analyse
a pattern once and refactor each new matrix of it (Davis & Palamadai
Natarajan, Algorithm 907: KLU, ACM TOMS 37(3), 2010), the symbolic work
is done once per instance: every nonzero mask of the complementarity
entries gets a trie of plans keyed by the pivot row chosen at each
column, and each Newton step picks its pivots again and follows the
trie, planning a new branch only where a pivot differs.  A slot the plan
holds but a step leaves at +0 changes no bit, so on a finite system the
pivots and roundings are those of dense double elimination and every
step is bit for bit what the dense solver gives; a pivot or a step that
is not finite fails the solve.  _solve_planned states the rules that
keep it so.  The residuals come from the constraint matrices stacked
once per instance, with the roundings of the per-matrix loop.

Coordinates of a sample are ordered as vec(X) row-major, then y, then
vec(S) row-major, for a total length of m + 2 n^2.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np

from .errors import (
    ConstantCoordinateError,
    InfeasibleInstanceError,
    InputError,
    InsufficientSamplesError,
    ParseError,
    SolveFailureError,
)

__all__ = [
    "SDOInstance",
    "CentralPathSample",
    "TraceResult",
    "ReparametrizationReport",
    "identity_instance",
    "elliptope_instance",
    "kl02_instance",
    "builtin_instance",
    "load_instance",
    "central_point",
    "trace_path",
    "fit_order",
    "fit_order_raw",
    "verify_reparametrization",
]

_LD = np.longdouble
_PAD = np.zeros(1, dtype=_LD)


def _check_tol(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise InputError(f"tol must be finite and positive, got {tol!r}")


def _sym_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


class SDOInstance:
    """One semidefinite problem with integer data.

    n is the matrix size, m the number of constraints. A holds the m
    constraint matrices, b the right-hand side, C the cost matrix.
    """

    __slots__ = ("n", "m", "A", "b", "C", "name", "_newton", "_elimination")

    def __init__(self, A, b, C, name: str = "instance"):
        C_arr = np.array(C, dtype=_LD)
        if C_arr.ndim != 2 or C_arr.shape[0] != C_arr.shape[1]:
            raise InputError("C must be a square matrix")
        n = C_arr.shape[0]
        A_arr = [np.array(Ai, dtype=_LD) for Ai in A]
        b_arr = np.array(b, dtype=_LD)
        m = len(A_arr)
        if m == 0:
            raise InputError("need at least one constraint matrix")
        if b_arr.shape != (m,):
            raise InputError(f"b must have {m} entries, got shape {b_arr.shape}")
        for idx, Ai in enumerate(A_arr):
            if Ai.shape != (n, n):
                raise InputError(f"A[{idx}] must be {n}x{n}")
            if not np.array_equal(Ai, Ai.T):
                raise InputError(f"A[{idx}] is not symmetric")
        if not np.array_equal(C_arr, C_arr.T):
            raise InputError("C is not symmetric")
        stacked = np.array([Ai.ravel() for Ai in A_arr], dtype=np.float64)
        if np.linalg.matrix_rank(stacked) != m:
            raise InputError("constraint matrices are linearly dependent")
        self.n = n
        self.m = m
        self.A = A_arr
        self.b = b_arr
        self.C = C_arr
        self.name = name
        self._newton = None  # _NewtonLayout, built by the first Newton step
        # elimination._System, built by the first eliminate_coordinate
        self._elimination = None

    @property
    def dim(self) -> int:
        """Length of the coordinate vector (vec X, y, vec S)."""
        return self.m + 2 * self.n * self.n

    def coordinate_labels(self) -> list[str]:
        n = self.n
        labels = [f"X[{i},{j}]" for i in range(n) for j in range(n)]
        labels += [f"y[{i}]" for i in range(self.m)]
        labels += [f"S[{i},{j}]" for i in range(n) for j in range(n)]
        return labels

    def to_text(self) -> str:
        def rows(M):
            return "\n".join(
                " ".join(str(int(v)) for v in row) for row in np.asarray(M)
            )

        parts = [f"# {self.name}", f"{self.n} {self.m}"]
        for Ai in self.A:
            parts.append(rows(Ai))
        parts.append(" ".join(str(int(v)) for v in self.b))
        parts.append(rows(self.C))
        return "\n".join(parts) + "\n"

    @classmethod
    def from_text(cls, text: str, name: str = "instance") -> "SDOInstance":
        tokens: list[str] = []
        for line in text.splitlines():
            body = line.split("#", 1)[0]
            tokens.extend(body.split())
        pos = 0

        def take(count: int) -> list[int]:
            nonlocal pos
            if pos + count > len(tokens):
                raise ParseError("instance text ended early")
            out = []
            for tok in tokens[pos : pos + count]:
                try:
                    out.append(int(tok))
                except ValueError:
                    raise ParseError(f"expected an integer, got {tok!r}") from None
            pos += count
            return out

        n, m = take(2)
        if n <= 0 or m <= 0:
            raise ParseError("matrix size and constraint count must be positive")
        A = []
        for _ in range(m):
            flat = take(n * n)
            A.append([flat[i * n : (i + 1) * n] for i in range(n)])
        b = take(m)
        flat = take(n * n)
        C = [flat[i * n : (i + 1) * n] for i in range(n)]
        if pos != len(tokens):
            raise ParseError(f"{len(tokens) - pos} trailing tokens in instance text")
        return cls(A, b, C, name=name)


def identity_instance(n: int = 3) -> SDOInstance:
    """tr X = n with identity cost; the central path is X = I, S = mu I."""
    if n < 1:
        raise InputError("matrix size must be at least 1")
    eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    return SDOInstance([eye], [n], eye, name=f"identity_{n}")


def elliptope_instance() -> SDOInstance:
    """Correlation-matrix feasible set with cost 4 X12 - 4 X13 - 2 X23.

    Unit diagonal is forced by the three constraints; the cost matrix
    halves each coefficient because <C, X> counts off-diagonal pairs
    twice.
    """
    A = [
        [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
    ]
    b = [1, 1, 1]
    C = [[0, 2, -2], [2, 0, -1], [-2, -1, 0]]
    return SDOInstance(A, b, C, name="elliptope_3")


def kl02_instance(n: int = 4) -> SDOInstance:
    """Arrow-pattern family whose dual slack decays like mu^(2^-(n-2)).

    The dual variable y fills the slack matrix

        S(y) = [[1,   y_1, y_2, ..., y_{n-1}],
                [y_1, y_2, 0,   ..., 0      ],
                [y_2, 0,   y_3, ..., 0      ],
                ...
                [y_{n-1}, 0, ..., 0, y_n    ]]

    and the objective maximizes -y_n, so b = -e_n and C = E_11. Toward
    mu = 0 the coordinates collapse at staggered fractional rates, the
    slowest being y_2.
    """
    if n < 3:
        raise InputError("arrow family needs matrix size at least 3")

    def zeros():
        return [[0] * n for _ in range(n)]

    A = []
    for j in range(1, n):
        Aj = zeros()
        Aj[0][j] = Aj[j][0] = -1
        if j >= 2:
            Aj[j - 1][j - 1] = -1
        A.append(Aj)
    An = zeros()
    An[n - 1][n - 1] = -1
    A.append(An)
    b = [0] * (n - 1) + [-1]
    C = zeros()
    C[0][0] = 1
    return SDOInstance(A, b, C, name=f"kl02_{n}")


def builtin_instance(name: str) -> SDOInstance:
    """Look up a named instance like identity_3, elliptope_3 or kl02_4."""
    base = name.strip()
    if base in ("elliptope", "elliptope_3"):
        return elliptope_instance()
    for prefix, builder in (("identity", identity_instance), ("kl02", kl02_instance)):
        if base == prefix:
            return builder()
        if base.startswith(prefix + "_"):
            try:
                size = int(base[len(prefix) + 1 :])
            except ValueError:
                break
            return builder(size)
    raise InputError(f"unknown builtin instance {name!r}")


def load_instance(path_or_name: str) -> SDOInstance:
    """Parse an instance file, or fall back to a builtin name.

    A path that exists on disk wins; otherwise the basename without its
    extension is tried against the builtin registry.
    """
    if os.path.exists(path_or_name):
        try:
            with open(path_or_name, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as err:
            raise InputError(
                f"cannot read instance {path_or_name!r}: "
                f"{getattr(err, 'strerror', None) or err}"
            ) from err
        stem = os.path.splitext(os.path.basename(path_or_name))[0]
        return SDOInstance.from_text(text, name=stem)
    stem = os.path.splitext(os.path.basename(path_or_name))[0]
    return builtin_instance(stem)


class CentralPathSample:
    """One solved central point: matrices, multipliers and the residual."""

    __slots__ = ("mu", "X", "y", "S", "residual")

    def __init__(self, mu, X, y, S, residual):
        self.mu = float(mu)
        self.X = X
        self.y = y
        self.S = S
        self.residual = float(residual)

    @property
    def coords(self) -> np.ndarray:
        return np.concatenate((self.X.ravel(), self.y, self.S.ravel()))

    def duality_gap(self) -> float:
        return float(np.trace(self.X @ self.S))

    def __repr__(self):
        return f"CentralPathSample(mu={self.mu:.3e}, residual={self.residual:.2e})"


def _interior(X, S) -> bool:
    """Whether X and S are both positive definite, by one batched Cholesky."""
    try:
        np.linalg.cholesky(np.array((X, S), dtype=np.float64))
    except np.linalg.LinAlgError:
        return False
    return True


def _plan(rows):
    """A plan for systems whose nonzeros lie where those of rows do.

    It is the pattern, each row's nonzero columns, and the root of an
    empty trie of plans (see _solve_planned).
    """
    pattern = tuple(tuple(j for j, v in enumerate(row) if v) for row in rows)
    return pattern, _node(pattern, 0)


def _node(pat, col):
    """A trie node for column col: the rows that may hold it, no branches."""
    return tuple(i for i in range(col, len(pat)) if col in pat[i]), {}


def _plan_column(pat, col, p):
    """Eliminate column col of the symbolic pattern pat with pivot row p.

    pat holds a set of columns per row position and is updated in place:
    rows p and col swap, and every target row gains the pivot row's
    columns.  Returns the targets, the rows below col that hold it, and
    the pivot row's columns right of col, ascending.
    """
    pat[col], pat[p] = pat[p], pat[col]
    cols = tuple(sorted(j for j in pat[col] if j > col))
    targets = tuple(i for i in range(col + 1, len(pat)) if col in pat[i])
    for t in targets:
        pat[t].update(cols)
    return targets, cols


def _solve_planned(rows, rhs, plan):
    """Solve the system with these dense rows by partial-pivot elimination.

    rows[r] is a list holding the entries of row r as Python floats, rhs
    is a float64 array, and no entry may be -0 outside the rhs.  The
    lists are consumed: the rhs joins them as column len(rhs).  plan
    comes from _plan on rows with this system's nonzero pattern or a
    larger one.  Its trie has a node per column and pivot prefix holding
    the candidate rows, the ones that may hold the column; a branch per
    pivot row chosen there holds the target rows and the pivot row's
    columns.  Each column picks its pivot again and follows the matching
    branch.  A pivot the trie has not seen grows a new branch, planned
    symbolically from the pattern by replaying the pivots before it.  The
    solution comes back as an np.longdouble array.

    The arithmetic is IEEE double.  A pivot, or its reciprocal, that is
    not finite raises SolveFailureError, and so does a solution that is
    not finite.  Otherwise the solution is bit for bit that of dense
    float64 elimination on [M | rhs] (tests/test_sdo.py keeps that solver
    as the oracle):

    * the pivot is the first candidate with the largest |a|, as argmax
      takes it.  A NaN candidate, which argmax would take first, fails
      the solve; no candidate, or a zero maximum, is a singular system;
    * a row is updated when f = a[r, col] * (1 / pivot) is not 0, so an f
      that underflows skips it, as it does the dense row;
    * an entry becomes a - f * v.  Since x - y is -0 only when x is, no
      entry becomes -0.  A slot the plan leaves out holds +0, so the
      dense update at such a slot of the pivot row, a - f * 0, leaves a
      as it was; a slot the plan holds but this system leaves at +0 is
      never a pivot, gives f = 0 in its column and adds +0 - f * v,
      which the dense update adds too, as |a| <= |pivot| keeps f
      finite;
    * every rhs entry is stored, as it may hold -0, so every updated row
      updates it;
    * back-substitution sums a[row, j] * x[j] in ascending j from +0, one
      rounding per term.  A sum from +0 is never -0, so the left-out
      terms, each a signed zero times a finite x, change nothing.
    """
    pattern, node = plan
    size = len(rhs)
    for row, bi in zip(rows, rhs.tolist()):
        row.append(bi)
    path = []  # the pivots of the planned columns so far
    pat = None  # the symbolic pattern, replayed once the trie runs out
    ucols = []
    for col in range(size):
        p = None
        top = 0.0
        for i in node[0]:
            v = abs(rows[i][col])
            if v > top:
                p, top = i, v
            elif v != v:
                raise SolveFailureError("Newton pivot nan is not finite")
        if p is None:
            raise SolveFailureError("Newton system is singular")
        prow = rows[p]
        rows[col], rows[p] = prow, rows[col]
        pivot = prow[col]
        inv = 1 / pivot
        # x - x == 0 exactly when x is finite
        if not (pivot - pivot == 0 and inv - inv == 0):
            raise SolveFailureError(
                f"Newton pivot {pivot!r} or its reciprocal is not finite")
        branches = node[1]
        branch = branches.get(p)
        if branch is None:
            if pat is None:
                pat = [set(r) for r in pattern]
                for c, q in enumerate(path):
                    _plan_column(pat, c, q)
            targets, cols = _plan_column(pat, col, p)
            nxt = _node(pat, col + 1) if col + 1 < size else None
            branch = branches[p] = targets, cols, nxt
        path.append(p)
        targets, cols, node = branch
        for t in targets:
            row = rows[t]
            f = row[col] * inv
            if f != 0:
                for j in cols:
                    row[j] = row[j] - f * prow[j]
                row[size] = row[size] - f * prow[size]
        ucols.append(cols)
    x = [0.0] * size
    for i in range(size - 1, -1, -1):
        row = rows[i]
        acc = 0.0
        for j in ucols[i]:
            acc = acc + row[j] * x[j]
        x[i] = (row[size] - acc) / row[i]
    x = np.array(x)
    if not np.isfinite(x).all():
        raise SolveFailureError("Newton step is not finite")
    return x.astype(_LD)


class _NewtonLayout:
    """The constant parts of one instance's Newton system and its plans.

    Unknowns are the upper-triangle entries of dX, then dy, then those of
    dS; equations are the m primal constraints, then the dual and the
    complementarity residuals at the upper-triangle pairs.  template holds
    the rows as dense lists of Python floats with the primal and dual
    entries, which do not depend on the iterate, and +0 elsewhere.  For
    the basis matrix B of pair (u, v) and a row pair (p, q),

        ((B S + S B) / 2)[p, q] = (S[ia] + S[ib]) / 2,

    where ia points at S[v, q] or S[u, q] when p is u or v, ib at S[p, u]
    or S[p, v] when q is v or u, and both otherwise at an appended zero.
    The same gathers on X give ((X B + B X) / 2)[p, q].  Only the pairs
    not both at the zero are kept: ga and gb gather them for every
    complementarity row, its dX entries and then its dS entries, from
    vec S, then vec X, then the zero, and slots gives the row and the
    column of each.  Each entry is summed and halved in long double and
    rounded once to double, the precision of the solve.

    plans maps the nonzero mask of those rounded entries to a plan of
    the elimination (_plan).  Every system with one mask has the same
    pattern, so its trie of pivot paths is built once and reused by
    every later Newton step; a slot it plans but a step's values leave at
    +0 changes no bit (_solve_planned says why).  A3 and Af stack the
    constraint matrices, as (m, n, n) and as m rows of vec A_i, for the
    residuals.
    """

    __slots__ = ("k", "rows", "cols", "flat", "template", "slots", "ga", "gb",
                 "plans", "A3", "Af")

    def __init__(self, inst: SDOInstance):
        n, m = inst.n, inst.m
        pairs = _sym_pairs(n)
        k = len(pairs)
        nn = n * n
        pad = 2 * nn
        template = [[0.0] * (m + 2 * k) for _ in range(m + 2 * k)]
        for c, (u, v) in enumerate(pairs):
            for row, Ai in enumerate(inst.A):
                a = Ai[u, u] if u == v else Ai[u, v] + Ai[v, u]
                if a:
                    template[row][c] = float(a)
            template[m + c][k + m + c] = 1.0
        for idx, Ai in enumerate(inst.A):
            for c, (i, j) in enumerate(pairs):
                if Ai[i, j]:
                    template[m + c][k + idx] = float(Ai[i, j])
        slots, ga, gb = [], [], []
        for r, (p, q) in enumerate(pairs):
            cols, ia, ib = [], [], []
            for c, (u, v) in enumerate(pairs):
                a = v * n + q if p == u else u * n + q if p == v else None
                b = p * n + u if q == v else p * n + v if q == u else None
                if a is not None or b is not None:
                    cols.append(c)
                    ia.append(pad if a is None else a)
                    ib.append(pad if b is None else b)
            slots += [(m + k + r, c) for c in cols + [k + m + c for c in cols]]
            ga += ia + [i if i == pad else nn + i for i in ia]
            gb += ib + [i if i == pad else nn + i for i in ib]
        self.k = k
        self.rows = np.array([i for i, _ in pairs], dtype=np.intp)
        self.cols = np.array([j for _, j in pairs], dtype=np.intp)
        self.flat = self.rows * n + self.cols
        self.template = template
        self.slots = slots
        self.ga = np.array(ga, dtype=np.intp)
        self.gb = np.array(gb, dtype=np.intp)
        self.plans = {}
        self.A3 = np.array(inst.A, dtype=_LD)
        self.Af = self.A3.reshape(m, nn)


def _newton_layout(inst: SDOInstance) -> _NewtonLayout:
    if inst._newton is None:
        inst._newton = _NewtonLayout(inst)
    return inst._newton


def _newton_system(lay: _NewtonLayout, X, S):
    """Rows of the Newton system at (X, S), as dense lists, and their plan."""
    # a matrix product sums from +0, so a -0 entry it selects comes out
    # as +0; adding 0 does the same to the gathered entries
    g = np.concatenate((S.ravel(), X.ravel(), _PAD)) + 0
    # rounded to double once; an entry past its range becomes inf, and one
    # that underflows to -0 becomes +0 by the same addition of 0
    with np.errstate(over="ignore"):
        vals = ((g[lay.ga] + g[lay.gb]) / 2).astype(np.float64) + 0
    rows = [list(row) for row in lay.template]
    for (r, j), v in zip(lay.slots, vals.tolist()):
        rows[r][j] = v
    key = (vals != 0).tobytes()
    plan = lay.plans.get(key)
    if plan is None:
        plan = lay.plans[key] = _plan(rows)
    return rows, plan


def _residual_blocks(inst, lay, X, y, S, mu_eye):
    """The primal, dual and complementarity residuals at (X, y, S).

    Each stacked operation rounds as the per-matrix loop did: a sum over
    one A_i * X, and sum_i y_i A_i as a matrix product from +0.
    """
    rp = (lay.A3 * X).sum(axis=(1, 2)) - inst.b
    Rd = (y @ lay.Af).reshape(inst.n, inst.n) + S - inst.C
    Rc = (X @ S + S @ X) / 2 - mu_eye
    return rp, Rd, Rc


# Newton steps allowed at one mu before central_point gives up
_MAX_NEWTON_ITER = 120


def central_point(
    inst: SDOInstance,
    mu: float,
    tol: float = 1e-11,
    start: CentralPathSample | None = None,
) -> CentralPathSample:
    """Solve the central-path equations at one mu by damped Newton steps.

    A warm start reuses the matrices from a nearby sample. The default
    start is X = S = I, y = 0; if no interior step exists from there the
    instance is reported infeasible.
    """
    if not 0 < mu < math.inf:
        raise InputError("mu must be finite and positive")
    _check_tol(tol)
    n, m = inst.n, inst.m
    if start is None and mu < 1e-2:
        # cold Newton far from the analytic center diverges; walk down
        warm = None
        bridge = 1.0
        while bridge > mu * 1.000001:
            warm = central_point(inst, bridge, tol=max(tol, 1e-10), start=warm)
            bridge *= 0.1
        return central_point(inst, mu, tol=tol, start=warm)
    lay = _newton_layout(inst)
    k = lay.k
    if start is None:
        X = np.eye(n, dtype=_LD)
        y = np.zeros(m, dtype=_LD)
        S = np.eye(n, dtype=_LD)
        cold = True
    else:
        X = start.X.copy()
        y = start.y.copy()
        S = start.S.copy()
        cold = False
    size = m + 2 * k
    mu_eye = _LD(mu) * np.eye(n, dtype=_LD)
    res = np.inf
    for _ in range(_MAX_NEWTON_ITER):
        rp, Rd, Rc = _residual_blocks(inst, lay, X, y, S, mu_eye)
        res = max(
            float(np.abs(rp).max()), float(np.abs(Rd).max()), float(np.abs(Rc).max())
        )
        if res <= tol:
            return CentralPathSample(mu, X, y, S, res)
        F = np.empty(size, dtype=_LD)
        F[:m] = rp
        F[m : m + k] = Rd.ravel()[lay.flat]
        F[m + k :] = Rc.ravel()[lay.flat]
        rows, plan = _newton_system(lay, X, S)
        with np.errstate(over="ignore"):
            rhs = (-F).astype(np.float64)
        step = _solve_planned(rows, rhs, plan)
        dX = np.zeros((n, n), dtype=_LD)
        dS = np.zeros((n, n), dtype=_LD)
        dX[lay.rows, lay.cols] = dX[lay.cols, lay.rows] = step[:k]
        dS[lay.rows, lay.cols] = dS[lay.cols, lay.rows] = step[k + m :]
        dy = step[k : k + m]
        t = 1.0
        while t > 1e-18 and not _interior(X + t * dX, S + t * dS):
            t *= 0.5
        if t <= 1e-18:
            if cold:
                raise InfeasibleInstanceError(
                    f"no interior step from the default start at mu={mu:g}"
                )
            raise SolveFailureError(f"line search collapsed at mu={mu:g}")
        if t < 1.0:
            t *= 0.95
        X = X + t * dX
        X = (X + X.T) / 2
        S = S + t * dS
        S = (S + S.T) / 2
        y = y + t * dy
    raise SolveFailureError(
        f"no convergence at mu={mu:g} after {_MAX_NEWTON_ITER} iterations;"
        f" last residual {res:.3e}"
    )


def _aitken3(x0, x1, x2):
    d1 = x1 - x0
    d2 = x2 - x1
    den = d2 - d1
    if abs(den) <= 1e-30 + 1e-12 * (abs(d1) + abs(d2)):
        return x2
    return x2 - d2 * d2 / den


class TraceResult:
    """A swept central path with per-coordinate limit and order data.

    values is a (samples x dim) array in the vec(X), y, vec(S) order.
    limits and widths give an extrapolated limit per coordinate and the
    disagreement of the last two samples as its interval width.
    order_estimates maps coordinate index to a snapped decay exponent,
    or None where no exponent could be fit; it is fitted on first read,
    since callers that fit the coordinates they need never read it.
    """

    __slots__ = ("instance", "samples", "values", "limits", "widths",
                 "_order_estimates")

    def __init__(self, instance, samples, values, limits, widths):
        self.instance = instance
        self.samples = samples
        self.values = values
        self.limits = limits
        self.widths = widths
        self._order_estimates = None

    @property
    def order_estimates(self) -> dict:
        if self._order_estimates is None:
            estimates = {}
            for i in range(self.instance.dim):
                try:
                    estimates[i] = fit_order(self, i)
                except (ConstantCoordinateError, InsufficientSamplesError):
                    estimates[i] = None
            self._order_estimates = estimates
        return self._order_estimates

    @property
    def mus(self) -> np.ndarray:
        return np.array([s.mu for s in self.samples])

    def __repr__(self):
        return (
            f"TraceResult({self.instance.name}, {len(self.samples)} samples,"
            f" mu in [{self.samples[-1].mu:.2e}, {self.samples[0].mu:.2e}])"
        )


def trace_path(
    inst: SDOInstance,
    mu_start: float = 1.0,
    mu_end: float = 1e-8,
    grid_ratio: float = 0.5,
    tol: float = 1e-11,
) -> TraceResult:
    """Follow the central path down a geometric mu grid with warm starts."""
    # an infinite mu_start never walks down the grid to mu_end
    if not (0 < mu_end < mu_start < math.inf):
        raise InputError("need 0 < mu_end < mu_start < inf")
    if not (0 < grid_ratio < 1):
        raise InputError("grid ratio must lie in (0, 1)")
    _check_tol(tol)
    # a residual at or above the smallest mu does not resolve XS = mu I
    if not tol < mu_end:
        raise InputError(f"tol must lie below mu_end = {mu_end!r}, got {tol!r}")
    mus = []
    kk = 0
    while True:
        mu = mu_start * grid_ratio**kk
        if mu < mu_end * (1 - 1e-12):
            break
        mus.append(mu)
        kk += 1
    samples = []
    prev = None
    for mu in mus:
        prev = central_point(inst, mu, tol=tol, start=prev)
        samples.append(prev)
    values = np.array([s.coords for s in samples], dtype=_LD)
    dim = inst.dim
    limits = np.zeros(dim)
    widths = np.zeros(dim)
    for i in range(dim):
        col = values[:, i].astype(np.float64)
        if len(col) >= 3:
            limits[i] = _aitken3(col[-3], col[-2], col[-1])
        else:
            limits[i] = col[-1]
        if len(col) >= 2:
            widths[i] = max(abs(col[-1] - col[-2]), 10 * tol)
        else:
            widths[i] = 10 * tol
    return TraceResult(inst, samples, values, limits, widths)


_FIT_WINDOW = 12


def fit_order_raw(trace: TraceResult, coordinate: int) -> float:
    """Least-squares slope of log |v_i - limit| against log mu."""
    samples = trace.samples
    if len(samples) < 6:
        raise InsufficientSamplesError(
            f"order fit needs at least 6 samples, trace has {len(samples)}"
        )
    col = trace.values[:, coordinate].astype(np.float64)
    limit = trace.limits[coordinate]
    scale = 1.0 + abs(limit)
    dev = np.abs(col - limit)
    if dev.max() <= 1e-9 * scale:
        raise ConstantCoordinateError(
            f"coordinate {coordinate} is constant along the trace"
        )
    mus = np.array([s.mu for s in samples])
    floor = 1e-12 * scale
    idx = [j for j in range(len(samples)) if dev[j] > floor]
    idx = idx[-_FIT_WINDOW:]
    if len(idx) < 4:
        raise InsufficientSamplesError(
            f"only {len(idx)} resolvable samples for coordinate {coordinate}"
        )
    return _slope(np.log(mus[idx]), np.log(dev[idx]))


def _slope(xs, ys) -> float:
    """Least-squares slope of ys against xs.

    The sums are math.fsum's, rounded once: a float64 @ sums in the order
    of the BLAS kernel numpy loads for the host's CPU, which moves the
    last digit.
    """
    xs = xs - xs.mean()
    return math.fsum(xs * (ys - ys.mean())) / math.fsum(xs * xs)


# largest denominator fit_order snaps a slope to
_ORDER_DENOMINATOR = 16


def fit_order(trace: TraceResult, coordinate: int) -> Fraction:
    """Decay exponent of one coordinate, snapped to a small denominator."""
    slope = fit_order_raw(trace, coordinate)
    return Fraction(slope).limit_denominator(_ORDER_DENOMINATOR)


# heuristic resolution of a solved coordinate, used to floor the
# finite-difference verdicts below
_COORD_RESOLUTION = 1e-12


class ReparametrizationReport:
    """Finite-difference boundedness evidence for v(t^rho) as t -> 0.

    d1 and d2 hold |first| and |second| centered differences per level
    and coordinate. A coordinate is bounded when neither difference grows
    over the last levels beyond slack plus noise floor. growth holds the
    log-log slope of the first difference over the last levels.
    """

    __slots__ = (
        "rho",
        "t_levels",
        "d1",
        "d2",
        "coordinate_bounded",
        "bounded",
        "growth",
    )

    def __init__(self, rho, t_levels, d1, d2, coordinate_bounded, growth):
        self.rho = rho
        self.t_levels = t_levels
        self.d1 = d1
        self.d2 = d2
        self.coordinate_bounded = coordinate_bounded
        self.bounded = bool(all(coordinate_bounded))
        self.growth = growth

    def __repr__(self):
        verdict = "bounded" if self.bounded else "unbounded"
        return f"ReparametrizationReport(rho={self.rho}, {verdict})"


def verify_reparametrization(
    inst: SDOInstance,
    rho: int,
    window: tuple[float, float] = (1e-3, 0.25),
    tol: float = 1e-14,
) -> ReparametrizationReport:
    """Check numerically whether t -> v(t^rho) has bounded derivatives.

    Centered first and second differences are taken at t-levels halving
    from the top of the window down to its bottom. The verdict is
    bounded when the level maxima do not grow over the last three
    levels, up to 5 percent slack and the finite-difference noise floor.
    """
    if rho < 1:
        raise InputError("rho must be a positive integer")
    lo, hi = window
    if not (0 < lo < hi <= 1):
        raise InputError("window must satisfy 0 < lo < hi <= 1")
    _check_tol(tol)
    levels = int(math.floor(math.log2(hi / lo))) + 1
    if levels < 4:
        raise InsufficientSamplesError(
            "window too narrow for a dyadic verdict (needs at least 4 levels)"
        )
    ts = [hi * 2.0**-lvl for lvl in range(levels)]
    dim = inst.dim
    d1 = np.zeros((levels, dim))
    d2 = np.zeros((levels, dim))
    hs = np.zeros(levels)
    warm = None
    for lvl, t in enumerate(ts):
        h = t / 4
        hs[lvl] = h
        gs = []
        for point in (t + h, t, t - h):
            warm = central_point(inst, point**rho, tol=tol, start=warm)
            gs.append(warm.coords.astype(np.float64))
        d1[lvl] = np.abs((gs[0] - gs[2]) / (2 * h))
        d2[lvl] = np.abs((gs[0] - 2 * gs[1] + gs[2]) / (h * h))
    res1 = 2 * _COORD_RESOLUTION / hs
    res2 = 4 * _COORD_RESOLUTION / (hs * hs)
    coordinate_bounded = []
    for i in range(dim):
        ok = True
        for seq, res in ((d1, res1), (d2, res2)):
            M = seq[:, i]
            for lvl in range(levels - 3, levels - 1):
                if M[lvl + 1] > 1.05 * M[lvl] + res[lvl + 1]:
                    ok = False
        coordinate_bounded.append(ok)
    tail = min(4, levels)
    xs = np.log(np.array(ts[-tail:]))
    growth = np.array([_slope(xs, np.log(np.maximum(d1[-tail:, i], 1e-300)))
                       for i in range(dim)])
    return ReparametrizationReport(
        rho, tuple(ts), d1, d2, tuple(coordinate_bounded), growth
    )
