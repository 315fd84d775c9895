"""Semidefinite instances and central-path numerics.

For min <C, X> subject to <A_i, X> = b_i and X positive semidefinite,
the central point at mu > 0 solves

    <A_i, X> = b_i,    sum_i y_i A_i + S = C,    X S = mu I.

Each Newton step is the HKM direction (Helmberg, Rendl, Vanderbei &
Wolkowicz, SIAM J. Optim. 6(2), 1996; Kojima, Shindoh & Hara, SIAM J.
Optim. 7(1), 1997): dX and dS are eliminated from the linearized
equations, which leaves one m x m system M dy = r with
M_ij = tr(A_i X A_j S^-1) (_newton_step).  A fraction-to-the-boundary
line search keeps X and S positive definite.  X and S are one (2, n, n)
stack and stay exactly symmetric: so is each step, and a sum of
symmetric matrices rounds mirrored entries alike.

The residual F, the test that stops at max |F| <= tol (one max, so a
NaN anywhere fails the solve), the iterates, the line search and the
products of each step run in numpy extended precision, so traces stay
clean well below mu = 1e-6.  S^-1 and dy are solved in IEEE double on
CPython floats (_solve): only the residual must be accurate, and each
step corrects the error the one before it left, as in mixed-precision
iterative refinement (Moler, Iterative refinement in floating point,
JACM 14(2), 1967; Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., ch. 12).  Python's float arithmetic rounds the
same on every x86-64 host, and numpy's extended-precision products call
no BLAS, so the traced bits do not depend on the BLAS kernel.  The
residual takes the instance's (m, n, n) constraint stack over full n x n
blocks, with the roundings of the per-matrix loop, and subtracts b, C
and mu I as one shift built once per central_point call.

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
    "mu_grid",
    "trace_path",
    "fit_order",
    "fit_order_raw",
    "verify_reparametrization",
]

_LD = np.longdouble


def _check_tol(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise InputError(f"tol must be finite and positive, got {tol!r}")


def _integers(M, name: str) -> np.ndarray:
    """M as a long-double array whose entries are the integers given.

    The exact chain reads each entry back with int(), so an entry that is
    not finite, not integral or not held exactly by long double (such as
    2^64 + 1) raises InputError naming it.
    """
    raw = np.array(M, dtype=object)
    arr = np.zeros(raw.shape, dtype=_LD)
    flat = arr.reshape(-1)
    for k, v in enumerate(raw.flat):
        try:
            flat[k] = v
            held = int(flat[k]) == v
        except (TypeError, ValueError, OverflowError):
            held = False
        if not held:
            at = ",".join(map(str, np.unravel_index(k, raw.shape)))
            raise InputError(f"{name}[{at}] = {v!r} is not an integer"
                             " that long double holds exactly")
    return arr


class SDOInstance:
    """One semidefinite problem with integer data.

    n is the matrix size, m the number of constraints. A stacks the m
    constraint matrices as one (m, n, n) array, b is the right-hand side,
    C the cost matrix; all three are long double.
    """

    __slots__ = ("n", "m", "A", "b", "C", "name", "_elimination")

    def __init__(self, A, b, C, name: str = "instance"):
        C_arr = _integers(C, "C")
        if C_arr.ndim != 2 or C_arr.shape[0] != C_arr.shape[1]:
            raise InputError("C must be a square matrix")
        n = C_arr.shape[0]
        A_arr = [_integers(Ai, f"A[{idx}]") for idx, Ai in enumerate(A)]
        b_arr = _integers(b, "b")
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
        stack = np.array(A_arr)
        if np.linalg.matrix_rank(stack.reshape(m, -1).astype(np.float64)) != m:
            raise InputError("constraint matrices are linearly dependent")
        self.n = n
        self.m = m
        self.A = stack
        self.b = b_arr
        self.C = C_arr
        self.name = name
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

    def __repr__(self):
        return f"CentralPathSample(mu={self.mu:.3e}, residual={self.residual:.2e})"


def _interior(Z) -> bool:
    """Whether both matrices of the stack Z are positive definite."""
    try:
        np.linalg.cholesky(Z.astype(np.float64))
    except np.linalg.LinAlgError:
        return False
    return True


def _solve(a, b):
    """Solve a x = b on Python floats by Gauss-Jordan elimination.

    a and b are lists of rows, b one column per right-hand side; neither
    is changed.  Each column pivots on its first entry of largest
    magnitude on or below the diagonal, and every other row r subtracts
    f = a[r][col] * (1 / pivot) times the pivot row unless f is 0; then
    x_i is row i's right-hand side over its pivot.  A zero pivot, or a
    pivot or an x_i that is not finite, raises SolveFailureError.
    """
    size = len(a)
    rows = [ra + rb for ra, rb in zip(a, b)]
    width = len(rows[0])
    for col in range(size):
        p, top = col, abs(rows[col][col])
        for i in range(col + 1, size):
            v = abs(rows[i][col])
            if v > top:
                p, top = i, v
        prow = rows[p]
        pivot = prow[col]
        if pivot == 0:
            raise SolveFailureError("Newton system is singular")
        if not math.isfinite(pivot):
            raise SolveFailureError(f"Newton pivot {pivot!r} is not finite")
        rows[col], rows[p] = prow, rows[col]
        inv = 1 / pivot
        cols = range(col + 1, width)
        for row in rows:
            f = row[col] * inv
            if f != 0 and row is not prow:
                for j in cols:
                    row[j] -= f * prow[j]
    x = [[v / row[i] for v in row[size:]] for i, row in enumerate(rows)]
    if not all(math.isfinite(v) for row in x for v in row):
        raise SolveFailureError("Newton step is not finite")
    return x


def _newton_step(A, Af, eye_rows, X, S, F, mu):
    """The HKM Newton step at (X, S) with residual F: (dX, dS) as one
    (2, n, n) stack, and dy.  It solves

        A(dX) = -rp,    sum_i dy_i A_i + dS = -Rd,    dX S + X dS = mu I - X S

    with rp = A(X) - b and Rd = sum_i y_i A_i + S - C read from F as views:

        dS = -Rd - sum_i dy_i A_i,    dX = mu S^-1 - X - X dS S^-1,
        M dy = -rp - A(mu S^-1 - X + X Rd S^-1).

    A is the (m, n, n) constraint stack, Af its m rows of vec A_i, and
    eye_rows the rows of I as lists of floats, the right-hand side of the
    S^-1 solve.  dX is then symmetrized, which keeps A(dX) as the A_i are
    symmetric, and so is S^-1.  The stack is exactly symmetric:
    (dX + dX^T) / 2 rounds mirrored entries alike, and so does dS, a sum
    of symmetric matrices.
    """
    n, m = len(X), len(A)
    rp, Rd = F[:m], F[m : m + n * n].reshape(n, n)
    Sinv = np.array(_solve(S.astype(np.float64).tolist(),
                           eye_rows)).astype(_LD)
    Sinv = (Sinv + Sinv.T) / 2
    M = np.einsum("iab,jba->ij", A, X @ A @ Sinv)
    W = mu * Sinv - X + X @ Rd @ Sinv
    r = -rp - Af @ W.ravel()
    dy = np.array(_solve(M.astype(np.float64).tolist(),
                         [[v] for v in r.astype(np.float64).tolist()]))
    dy = dy.astype(_LD).ravel()
    dS = -Rd - (dy @ Af).reshape(n, n)
    dX = mu * Sinv - X - X @ dS @ Sinv
    return np.array(((dX + dX.T) / 2, dS)), dy


def _residual(A, Af, X, y, S, shift):
    """The primal, dual and complementarity residuals at (X, y, S), with X
    and S exactly symmetric: A(X), then sum_i y_i A_i + S and
    (X S + S X) / 2 as full row-major blocks, minus shift.

    shift holds b, vec C and mu vec I.  Both blocks are exactly symmetric,
    so a max over F sees each pair twice, and each entry rounds as the
    per-matrix loop does: S X is (X S)^T bit for bit, as both sum the same
    products in the same order.
    """
    XS = X @ S
    return np.concatenate((
        (A * X).sum(axis=(1, 2)), y @ Af + S.ravel(),
        ((XS + XS.T) / 2).ravel())) - shift


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
    start is X = S = I, y = 0; a step from there that cannot be formed
    (S or M singular or not finite) or taken (the line search collapses)
    reports the instance infeasible, and from a warm start fails the solve.

    X and S are one (2, n, n) stack Z, symmetrized on entry; it stays
    exactly symmetric, as the HKM step dZ (_newton_step) is and Z + t dZ
    rounds mirrored entries alike.  The
    stopping test is one max over the residual F, so a NaN anywhere fails
    the first step.
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
    # the constants of every step at this mu
    eye = np.eye(n)
    A, Af = inst.A, inst.A.reshape(m, n * n)
    shift = np.concatenate((inst.b, inst.C.ravel(), mu * eye.ravel()))
    eye_rows = eye.tolist()
    cold = start is None
    Z = np.array((np.eye(n, dtype=_LD),) * 2 if cold else (start.X, start.S))
    Z = (Z + Z.transpose(0, 2, 1)) / 2
    y = np.zeros(m, dtype=_LD) if cold else start.y.copy()
    with np.errstate(over="ignore"):
        for _ in range(_MAX_NEWTON_ITER):
            X, S = Z
            F = _residual(A, Af, X, y, S, shift)
            res = float(np.abs(F).max())
            if res <= tol:
                return CentralPathSample(mu, X, y, S, res)
            t = 1.0
            try:
                dZ, dy = _newton_step(A, Af, eye_rows, X, S, F, mu)
                while not _interior(Z + t * dZ):
                    t *= 0.5
                    if t <= 1e-18:
                        raise SolveFailureError(
                            f"line search collapsed at mu={mu:g}")
            except SolveFailureError as err:
                if cold:
                    raise InfeasibleInstanceError(
                        f"no interior step from the default start at mu={mu:g}"
                    ) from err
                raise
            if t < 1.0:
                t *= 0.95
            Z = Z + t * dZ
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


def mu_grid(mu_start: float, mu_end: float, grid_ratio: float,
            tol: float) -> list[float]:
    """The geometric mu grid trace_path solves on, its inputs checked."""
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
    while (mu := mu_start * grid_ratio ** len(mus)) >= mu_end * (1 - 1e-12):
        mus.append(mu)
    return mus


def trace_path(
    inst: SDOInstance,
    mu_start: float = 1.0,
    mu_end: float = 1e-8,
    grid_ratio: float = 0.5,
    tol: float = 1e-11,
) -> TraceResult:
    """Follow the central path down a geometric mu grid with warm starts."""
    samples = []
    prev = None
    for mu in mu_grid(mu_start, mu_end, grid_ratio, tol):
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
    floor = 1e-12 * scale
    idx = [j for j in range(len(samples)) if dev[j] > floor]
    idx = idx[-_FIT_WINDOW:]
    if len(idx) < 4:
        raise InsufficientSamplesError(
            f"only {len(idx)} resolvable samples for coordinate {coordinate}"
        )
    return _slope(np.log(trace.mus[idx]), np.log(dev[idx]))


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
