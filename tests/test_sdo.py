"""Numeric central-path machinery: instances, solver, tracer, verdicts.

Hand-checked fixtures:

* identity instance (A = [I], b = (n), C = I): the central point is
  X = I, y = 1 - mu, S = mu*I for every mu, so limits, decay orders,
  and derivative verdicts are all known in closed form.
* elliptope instance: X_12(mu) is the root of
  2T^3 + (2 - mu/2)T^2 - (mu + 2)T - 2 in (-1, 0); at mu = 1 the root of
  2T^3 + 1.5T^2 - 3T - 2 (bisection oracle below). The other path
  coordinates follow from X*S = mu*I with
  S = C - diag(y), y = (4T - mu, 2/T + 1, 2/T + 1).
* kl02 instance n = 4: coordinate decay orders are the dyadic ladder
  (1/4, 1/2, 3/4, 1) laid out in the table asserted below; the slowest
  coordinate y_2 decays like mu^(1/4).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from puiseuxpath import sdo
from puiseuxpath.errors import (
    ConstantCoordinateError,
    InfeasibleInstanceError,
    InputError,
    InsufficientSamplesError,
    ParseError,
    SolveFailureError,
)
from puiseuxpath.sdo import (
    CentralPathSample,
    SDOInstance,
    _newton_layout,
    _newton_system,
    _plan,
    _solve_planned,
    builtin_instance,
    central_point,
    elliptope_instance,
    fit_order,
    fit_order_raw,
    identity_instance,
    kl02_instance,
    load_instance,
    trace_path,
    verify_reparametrization,
)


def elliptope_root(mu: float) -> float:
    """Bisection on 2T^3 + (2 - mu/2)T^2 - (mu + 2)T - 2 over (-1, 0)."""

    def g(t):
        return 2 * t**3 + (2 - mu / 2) * t**2 - (mu + 2) * t - 2

    lo, hi = -1.0, 0.0
    assert g(lo) > 0 > g(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestInstances:
    def test_identity_shape(self):
        inst = identity_instance(3)
        assert inst.n == 3 and inst.m == 1
        assert np.array_equal(inst.A[0], np.eye(3))
        assert inst.b[0] == 3.0
        assert np.array_equal(inst.C, np.eye(3))
        assert inst.dim == 1 + 2 * 9

    def test_elliptope_shape(self):
        inst = elliptope_instance()
        assert inst.n == 3 and inst.m == 3
        for i in range(3):
            expected = np.zeros((3, 3))
            expected[i, i] = 1.0
            assert np.array_equal(inst.A[i], expected)
        assert list(inst.b) == [1.0, 1.0, 1.0]
        # objective 4x - 4y - 2z with off-diagonal pairs sharing the weight
        assert np.array_equal(
            inst.C, np.array([[0, 2, -2], [2, 0, -1], [-2, -1, 0]], dtype=float)
        )

    def test_kl02_shape(self):
        inst = kl02_instance(4)
        assert inst.n == 4 and inst.m == 4
        # constraint j pins S's arrow entry: S[0,j] = y_j for j < n
        A1 = np.zeros((4, 4))
        A1[0, 1] = A1[1, 0] = -1.0
        assert np.array_equal(inst.A[0], A1)
        A2 = np.zeros((4, 4))
        A2[0, 2] = A2[2, 0] = -1.0
        A2[1, 1] = -1.0
        assert np.array_equal(inst.A[1], A2)
        A4 = np.zeros((4, 4))
        A4[3, 3] = -1.0
        assert np.array_equal(inst.A[3], A4)
        assert list(inst.b) == [0.0, 0.0, 0.0, -1.0]
        E11 = np.zeros((4, 4))
        E11[0, 0] = 1.0
        assert np.array_equal(inst.C, E11)

    def test_asymmetric_constraint_rejected(self):
        A = np.zeros((2, 2))
        A[0, 1] = 1.0
        with pytest.raises(InputError):
            SDOInstance([A], [0.0], np.eye(2))

    def test_dependent_constraints_rejected(self):
        with pytest.raises(InputError):
            SDOInstance([np.eye(2), 2 * np.eye(2)], [2.0, 4.0], np.eye(2))

    def test_text_roundtrip(self):
        for inst in (identity_instance(2), elliptope_instance(), kl02_instance(3)):
            again = SDOInstance.from_text(inst.to_text(), name=inst.name)
            assert again.n == inst.n and again.m == inst.m
            for Ai, Bi in zip(inst.A, again.A):
                assert np.array_equal(Ai, Bi)
            assert np.array_equal(inst.b, again.b)
            assert np.array_equal(inst.C, again.C)

    def test_from_text_with_comments(self):
        text = """
        # tiny instance
        2 1
        1 0  0 1  # A_1 = I
        2
        1 0
        0 1
        """
        inst = SDOInstance.from_text(text, name="tiny")
        assert inst.n == 2 and inst.m == 1
        assert np.array_equal(inst.A[0], np.eye(2))
        assert inst.b[0] == 2.0
        assert np.array_equal(inst.C, np.eye(2))
        assert inst.name == "tiny"

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            SDOInstance.from_text("2 1\n1 0 0 1")  # missing b and C
        with pytest.raises(ParseError):
            SDOInstance.from_text("2 x\n")
        good = identity_instance(2).to_text()
        with pytest.raises(ParseError):
            SDOInstance.from_text(good + " 7")  # trailing token

    def test_builtin_registry(self):
        assert builtin_instance("elliptope").m == 3
        assert builtin_instance("elliptope_3").n == 3
        assert builtin_instance("identity_4").n == 4
        assert builtin_instance("kl02_5").n == 5
        with pytest.raises(InputError):
            builtin_instance("mystery")

    def test_load_instance_builtin_name_with_extension(self):
        inst = load_instance("identity_3.sdo")
        assert inst.n == 3 and inst.m == 1

    def test_load_instance_file_wins(self, tmp_path):
        path = tmp_path / "identity_3.sdo"
        path.write_text(identity_instance(4).to_text())
        assert load_instance(str(path)).n == 4

    def test_load_instance_unknown(self):
        with pytest.raises(InputError):
            load_instance("no_such_instance")

    def test_coordinate_labels(self):
        inst = identity_instance(2)
        labels = inst.coordinate_labels()
        assert len(labels) == inst.dim
        assert labels[0] == "X[0,0]"
        assert labels[4] == "y[0]"
        assert labels[5] == "S[0,0]"


class TestCentralPoint:
    def test_identity_closed_form(self):
        inst = identity_instance(3)
        for mu in (1.0, 0.3, 1e-4):
            s = central_point(inst, mu)
            assert np.allclose(s.X, np.eye(3), atol=1e-9)
            assert abs(s.y[0] - (1 - mu)) < 1e-9
            assert np.allclose(s.S, mu * np.eye(3), atol=1e-9)
            assert s.residual <= 1e-11

    def test_elliptope_at_mu_one(self):
        t = elliptope_root(1.0)
        s = central_point(elliptope_instance(), 1.0)
        assert abs(s.X[0, 1] - t) < 1e-9
        assert abs(s.X[0, 2] + t) < 1e-9
        assert abs(s.X[1, 2] + t * (2 * t + 1) / (t + 2)) < 1e-9
        assert abs(s.y[0] - (4 * t - 1.0)) < 1e-9
        assert abs(s.y[1] - (2 / t + 1)) < 1e-9
        assert abs(s.y[2] - (2 / t + 1)) < 1e-9
        # S = C - sum y_i A_i on the dual feasible path
        S = elliptope_instance().C - np.diag(s.y)
        assert np.allclose(s.S, S, atol=1e-9)

    def test_elliptope_small_mu_tracks_cubic(self):
        mu = 1e-6
        s = central_point(elliptope_instance(), mu)
        assert abs(s.X[0, 1] - elliptope_root(mu)) < 1e-8

    def test_iterates_stay_positive_definite(self):
        s = central_point(elliptope_instance(), 0.01)
        np.linalg.cholesky(s.X.astype(np.float64))
        np.linalg.cholesky(s.S.astype(np.float64))

    def test_duality_gap_identity(self):
        for mu in (1.0, 0.125, 1e-5):
            s = central_point(elliptope_instance(), mu)
            assert abs(s.duality_gap() - 3 * mu) <= 1e-8 * 3

    def test_warm_start(self):
        inst = elliptope_instance()
        a = central_point(inst, 0.5)
        b = central_point(inst, 0.4, start=a)
        assert b.residual <= 1e-11
        assert abs(b.X[0, 1] - elliptope_root(0.4)) < 1e-9

    def test_infeasible_instance_signaled(self):
        bad = SDOInstance([np.eye(3)], [-3.0], np.eye(3), name="infeasible")
        with pytest.raises(InfeasibleInstanceError):
            central_point(bad, 0.5)

    def test_bad_mu(self):
        # an infinite mu used to run every Newton step on NaNs
        for mu in (0.0, math.inf, math.nan):
            with pytest.raises(InputError, match="mu must be finite"):
                central_point(identity_instance(2), mu)

    @pytest.mark.parametrize("tol", [math.inf, -1.0, math.nan, 0.0])
    def test_bad_tol(self, tol):
        inst = identity_instance(2)
        with pytest.raises(InputError, match="tol must be finite and positive"):
            central_point(inst, 0.5, tol=tol)
        with pytest.raises(InputError, match="tol must be finite and positive"):
            trace_path(inst, tol=tol)
        with pytest.raises(InputError, match="tol must be finite and positive"):
            verify_reparametrization(inst, 1, tol=tol)

    def _fails_at_first_solve(self, monkeypatch, entry, name="elliptope_3",
                              block="X", mu=0.25):
        calls = []
        solve = sdo._solve_planned

        def counted(*args):
            calls.append(args)
            return solve(*args)

        inst = builtin_instance(name)
        s = central_point(inst, 0.5)
        X, y, S = s.X.copy(), s.y.copy(), s.S.copy()
        if block == "y":
            y[0] = np.longdouble(entry)
        else:
            M = X if block == "X" else S
            M[0, 1] = M[1, 0] = np.longdouble(entry)
        start = CentralPathSample(0.5, X, y, S, 0.0)
        monkeypatch.setattr(sdo, "_solve_planned", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolveFailureError, match="not finite"):
                central_point(inst, mu, start=start)
        assert len(calls) == 1

    def test_start_past_double_range_fails_without_warning(self, monkeypatch):
        # an iterate entry past float64's range rounds to inf in the double
        # Newton system, a pivot that is not finite: the first solve fails,
        # with no numpy warning on the way
        self._fails_at_first_solve(monkeypatch, "1e400")

    def test_nan_start_fails_at_first_solve(self, monkeypatch):
        # a NaN iterate entry is a NaN pivot candidate, so no NaN step is
        # ever taken
        self._fails_at_first_solve(monkeypatch, "nan")

    @pytest.mark.parametrize("name", ["elliptope_3", "kl02_4"])
    @pytest.mark.parametrize("block", ["S", "y"])
    def test_nan_in_s_or_y_fails_at_first_solve(self, monkeypatch, name, block):
        # the stopping test took max() of three floats, which drops a NaN
        # that is not its first argument, so this solved start came back
        # as converged with residual 0 and a NaN in it
        self._fails_at_first_solve(monkeypatch, "nan", name, block, mu=0.5)

    @pytest.mark.parametrize("mu", [0.5, 0.25])
    def test_start_off_symmetric_comes_back_symmetric(self, mu):
        inst = elliptope_instance()
        s = central_point(inst, 0.5)
        X = s.X.copy()
        X[0, 1] = np.nextafter(X[0, 1], np.longdouble(np.inf))
        assert X[0, 1] != X[1, 0]
        start = CentralPathSample(0.5, X, s.y.copy(), s.S.copy(), 0.0)
        r = central_point(inst, mu, start=start)
        assert _same_bits(r.X, r.X.T) and _same_bits(r.S, r.S.T)

    def test_coords_layout(self):
        s = central_point(identity_instance(2), 0.25)
        v = s.coords
        assert v.shape == (identity_instance(2).dim,)
        assert abs(v[0] - 1.0) < 1e-9  # X[0,0]
        assert abs(v[4] - 0.75) < 1e-9  # y
        assert abs(v[5] - 0.25) < 1e-9  # S[0,0]


@pytest.fixture(scope="module")
def identity_trace():
    return trace_path(identity_instance(3), 1.0, 1e-8, 0.5)


@pytest.fixture(scope="module")
def elliptope_trace():
    return trace_path(elliptope_instance(), 1.0, 1e-8, 0.5)


@pytest.fixture(scope="module")
def kl02_trace():
    return trace_path(kl02_instance(4), 1.0, 1e-8, 0.5)


class TestTracePath:
    def test_grid(self, identity_trace):
        mus = identity_trace.mus
        assert len(mus) == 27
        assert mus[0] == 1.0
        assert all(b < a for a, b in zip(mus, mus[1:]))
        assert mus[-1] >= 1e-8 * (1 - 1e-9)

    def test_identity_limits(self, identity_trace):
        lim = identity_trace.limits
        assert np.allclose(lim[:9].reshape(3, 3), np.eye(3), atol=1e-9)
        assert abs(lim[9] - 1.0) < 1e-9  # y -> 1
        assert np.max(np.abs(lim[10:])) < 1e-7  # S -> 0

    def test_identity_orders(self, identity_trace):
        from fractions import Fraction

        assert identity_trace.order_estimates[9] == Fraction(1)  # y
        assert identity_trace.order_estimates[10] == Fraction(1)  # S[0,0]
        assert identity_trace.order_estimates[0] is None  # constant X[0,0]

    def test_elliptope_limits(self, elliptope_trace):
        lim = elliptope_trace.limits
        X_star = np.array([[1, -1, 1], [-1, 1, -1], [1, -1, 1]], dtype=float)
        assert abs(lim[1] - (-1.0)) < 1e-5
        assert np.max(np.abs(lim[:9].reshape(3, 3) - X_star)) < 1e-4
        assert np.allclose(lim[9:12], [-4.0, -1.0, -1.0], atol=1e-4)

    def test_elliptope_orders(self, elliptope_trace):
        from fractions import Fraction

        half = Fraction(1, 2)
        assert elliptope_trace.order_estimates[1] == half  # X[0,1]
        assert elliptope_trace.order_estimates[9] == half  # y[0]
        assert elliptope_trace.order_estimates[0] is None  # X[0,0] constant

    def test_order_estimates_fit_on_first_read(self, monkeypatch):
        fits = []
        fit_order = sdo.fit_order

        def counted(trace, coordinate):
            fits.append(coordinate)
            return fit_order(trace, coordinate)

        monkeypatch.setattr(sdo, "fit_order", counted)
        inst = elliptope_instance()
        tr = trace_path(inst, 1.0, 1e-8, 0.5)
        assert fits == []
        est = tr.order_estimates
        assert fits == list(range(inst.dim))
        assert tr.order_estimates is est
        assert fits == list(range(inst.dim))
        assert est[1] == fit_order(tr, 1)

    def test_kl02_order_table(self, kl02_trace):
        from fractions import Fraction

        est = kl02_trace.order_estimates
        expected = {
            2: Fraction(3, 4),   # X[0,2]
            3: Fraction(1, 2),   # X[0,3]
            5: Fraction(3, 4),   # X[1,1]
            10: Fraction(1, 2),  # X[2,2]
            11: Fraction(1, 4),  # X[2,3]
            17: Fraction(1, 4),  # y[1]
            18: Fraction(1, 2),  # y[2]
            19: Fraction(1),     # y[3]
            22: Fraction(1, 4),  # S[0,2]
            25: Fraction(1, 4),  # S[1,1]
            35: Fraction(1),     # S[3,3]
        }
        for idx, q in expected.items():
            assert est[idx] == q, f"coordinate {idx}"
        # identically-zero and pinned coordinates never get an exponent
        for idx, limit in ((1, 0.0), (15, 1.0), (20, 1.0)):
            assert est[idx] is None
            assert abs(kl02_trace.limits[idx] - limit) < 1e-6

    def test_gap_identity_on_samples(self, elliptope_trace):
        for s in elliptope_trace.samples:
            gap = float(np.tensordot(s.X, s.S, axes=2))
            assert abs(gap - 3 * s.mu) <= 1e-8 * 3

    def test_residuals_below_tolerance(self, elliptope_trace):
        assert all(s.residual <= 1e-11 for s in elliptope_trace.samples)

    def test_bad_grid(self):
        with pytest.raises(InputError):
            trace_path(identity_instance(2), 1e-4, 1.0, 0.5)
        with pytest.raises(InputError):
            trace_path(identity_instance(2), 1.0, 1e-4, 1.5)
        for start in (math.inf, math.nan):
            with pytest.raises(InputError, match="mu_start < inf"):
                trace_path(identity_instance(2), start, 1e-4, 0.5)
        # a residual as large as the smallest mu does not resolve XS = mu I
        with pytest.raises(InputError, match="tol must lie below mu_end"):
            trace_path(identity_instance(2), 1.0, 1e-4, 0.5, tol=1e-4)


class TestFitOrder:
    def test_raw_slope_near_half(self):
        tr = trace_path(elliptope_instance(), 1.0, 1e-8, 0.5)
        raw = fit_order_raw(tr, 1)
        assert abs(raw - 0.5) < 0.05

    def test_snap_denominator_bound(self):
        tr = trace_path(elliptope_instance(), 1.0, 1e-8, 0.5)
        from fractions import Fraction

        assert fit_order(tr, 1) == Fraction(1, 2)

    def test_constant_coordinate(self):
        tr = trace_path(identity_instance(3), 1.0, 1e-8, 0.5)
        with pytest.raises(ConstantCoordinateError):
            fit_order(tr, 0)

    def test_too_few_samples(self):
        tr = trace_path(identity_instance(3), 1.0, 0.1, 0.5)
        with pytest.raises(InsufficientSamplesError):
            fit_order(tr, 9)


class TestNewtonWork:
    """The Newton solves of one trace and one verify at the true rho.

    A change that costs Newton iterations fails here, not only in the
    benchmark.
    """

    # name -> (rho, solves in trace_path, solves in verify_reparametrization)
    SOLVES = {
        "identity_3": (1, 26, 24),
        "elliptope_3": (2, 102, 100),
        "kl02_3": (2, 100, 99),
        "kl02_4": (4, 110, 122),
        "kl02_5": (8, 111, 108),
    }

    @pytest.mark.parametrize("name", SOLVES)
    def test_solve_counts(self, monkeypatch, name):
        rho, trace_solves, verify_solves = self.SOLVES[name]
        calls = []
        solve = sdo._solve_planned

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(sdo, "_solve_planned", counted)
        trace_path(builtin_instance(name))
        assert len(calls) == trace_solves
        calls.clear()
        verify_reparametrization(builtin_instance(name), rho)
        assert len(calls) == verify_solves


class TestSymmetry:
    """X and S stay exactly symmetric, which the Newton loop rests on."""

    @pytest.mark.parametrize("name", TestNewtonWork.SOLVES)
    def test_builtin_samples_are_symmetric(self, monkeypatch, name):
        samples = []
        solve = sdo.central_point

        def recorded(*args, **kwargs):
            samples.append(solve(*args, **kwargs))
            return samples[-1]

        monkeypatch.setattr(sdo, "central_point", recorded)
        inst = builtin_instance(name)
        trace_path(inst)
        verify_reparametrization(inst, TestNewtonWork.SOLVES[name][0])
        assert len(samples) > 40
        for s in samples:
            assert _same_bits(s.X, s.X.T) and _same_bits(s.S, s.S.T)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_transposed_product_is_bitwise(self, n, data):
        # S X == (X S)^T for symmetric X and S, as both sum the same
        # products in the same order: the residual forms X S alone
        tail = np.longdouble(2) ** -60
        entries = st.one_of(
            st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf]),
            st.builds(lambda v, w, s: (np.longdouble(v) + w * tail) * s,
                      st.floats(-1e4, 1e4), st.floats(-1, 1), _SCALES),
        )

        def symmetric():
            M = np.array(data.draw(st.lists(entries, min_size=n * n,
                                            max_size=n * n)),
                         dtype=np.longdouble).reshape(n, n)
            return _mirror(M)

        X, S = symmetric(), symmetric()
        with np.errstate(all="ignore"):
            assert _same_bits(S @ X, (X @ S).T)


class TestVerifyReparametrization:
    def test_identity_rho_one_exactly_flat(self):
        rep = verify_reparametrization(identity_instance(3), 1)
        assert rep.bounded
        # y = 1 - mu: first derivative is exactly 1, second exactly 0
        assert np.allclose(rep.d1[:, 9], 1.0, atol=1e-6)
        assert rep.d2[:, 9].max() < 1e-5
        assert rep.d1[:, 0].max() < 1e-6  # X[0,0] frozen at 1

    def test_elliptope_rho_one_unbounded(self):
        rep = verify_reparametrization(elliptope_instance(), 1)
        assert not rep.bounded
        assert not rep.coordinate_bounded[1]
        # derivative of a sqrt-like coordinate grows like mu^(-1/2)
        assert abs(rep.growth[1] - (-0.5)) < 0.1

    def test_elliptope_rho_two_bounded(self):
        rep = verify_reparametrization(elliptope_instance(), 2)
        assert rep.bounded

    # numeric end-to-end oracle for the exponents the exact chain reports:
    # rho smooths every coordinate, rho/2 (2 being rho's only prime) does not
    @pytest.mark.parametrize("name, rho", [
        ("kl02_3", 2), ("kl02_4", 4), ("kl02_5", 8),
    ])
    def test_kl02_bounded_at_rho_only(self, name, rho):
        inst = builtin_instance(name)
        assert verify_reparametrization(inst, rho).bounded
        assert not verify_reparametrization(inst, rho // 2).bounded

    def test_input_validation(self):
        with pytest.raises(InputError):
            verify_reparametrization(identity_instance(2), 0)
        with pytest.raises(InputError):
            verify_reparametrization(identity_instance(2), 1, window=(0.5, 0.25))
        with pytest.raises(InsufficientSamplesError):
            verify_reparametrization(identity_instance(2), 1, window=(0.2, 0.25))


# ---------------------------------------------------------------------------
# Newton kernel against the dense code it replaced
#
# _reference_jacobian is the loop-and-matmul assembly the Newton step ran
# first, _reference_residuals the per-matrix residual loop, and
# _dense_solve the dense elimination the Newton step ran before the sparse
# one, in float64 as the step is solved; all are kept as the reference.
# The planned kernel must reproduce them bit for bit (signs of zeros
# included), since the traced values are printed.  The same elimination in
# long double bounds the error of the double step.


def _reference_jacobian(inst, X, S):
    """One basis matrix B per upper-triangle pair, one matmul per block."""
    n, m = inst.n, inst.m
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    k = len(pairs)
    size = m + 2 * k
    J = np.zeros((size, size), dtype=np.longdouble)
    for col, (u, v) in enumerate(pairs):
        B = np.zeros((n, n), dtype=np.longdouble)
        B[u, v] = B[v, u] = 1
        for row, Ai in enumerate(inst.A):
            J[row, col] = (Ai * B).sum()
        M = (B @ S + S @ B) / 2
        J[m + k :, col] = [M[i, j] for i, j in pairs]
        M = (X @ B + B @ X) / 2
        J[m + k :, k + m + col] = [M[i, j] for i, j in pairs]
        J[m : m + k, k + m + col] = [B[i, j] for i, j in pairs]
    for idx, Ai in enumerate(inst.A):
        J[m : m + k, k + idx] = [Ai[i, j] for i, j in pairs]
    return J


def _rounded_jacobian(inst, X, S):
    """The reference Jacobian rounded to float64, with +0 for every zero."""
    with np.errstate(over="ignore"):
        return _reference_jacobian(inst, X, S).astype(np.float64) + 0


def _reference_residuals(inst, X, y, S, mu):
    """The primal, dual and complementarity residuals, one A_i at a time."""
    rp = np.array([(Ai * X).sum() - bi for Ai, bi in zip(inst.A, inst.b)],
                  dtype=np.longdouble)
    Rd = sum(yi * Ai for yi, Ai in zip(y, inst.A)) + S - inst.C
    Rc = (X @ S + S @ X) / 2 - mu * np.eye(inst.n, dtype=np.longdouble)
    return rp, Rd, Rc


def _dense_solve(M, rhs, dtype=np.float64, pivots=None):
    """Solve M x = rhs by partial-pivot elimination in dtype.

    Each column is eliminated with one outer-product update of the
    augmented [M | rhs]: every row subtracts f * (pivot row) with
    f = M[row, col] * (1 / pivot), and rows with f == 0 are left alone.
    The back-substitution goes row by row and sums each row's products in
    ascending order from +0, one rounding each (a float64 matmul would
    take the order of the host's BLAS kernel).  Each pivot and its
    reciprocal are appended to pivots, when given.
    """
    size = len(rhs)
    a = np.empty((size, size + 1), dtype=dtype)
    a[:, :size] = M
    a[:, size] = rhs
    for col in range(size):
        piv = col + int(np.abs(a[col:, col]).argmax())
        if a[piv, col] == 0:
            raise SolveFailureError("Newton system is singular")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
        if pivots is not None:
            pivots += [a[col, col], 1 / a[col, col]]
        f = a[col + 1 :, col] * (1 / a[col, col])
        nz = f.nonzero()[0]
        if nz.size:
            a[col + 1 + nz, col + 1 :] -= np.multiply.outer(f[nz], a[col, col + 1 :])
    x = np.zeros(size, dtype=dtype)
    for row in range(size - 1, -1, -1):
        acc = dtype(0)
        for v in a[row, row + 1 : size] * x[row + 1 :]:
            acc = acc + v
        x[row] = (a[row, size] - acc) / a[row, row]
    return x


def _dense(rows, size):
    M = np.zeros((size, size))
    for r, row in enumerate(rows):
        for j, v in row.items():
            M[r, j] = v
    return M


def _solve_sparse(rows, rhs):
    """Solve the system whose rows map a column to a nonzero float.

    A missing entry is +0, and no entry may be -0; rhs is a float64
    array.  The system is solved by _solve_planned through a plan of its
    own pattern.
    """
    dense = [[0.0] * len(rhs) for _ in rows]
    for full, row in zip(dense, rows):
        for j, v in row.items():
            full[j] = v
    return _solve_planned(dense, rhs, _plan(dense))


def _same_bits(a, b):
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


def _mirror(M):
    """The symmetric matrix with the upper triangle of M."""
    return np.where(np.triu(np.ones(M.shape, dtype=bool)), M, M.T)


def _outcome(solve, rhs):
    with np.errstate(all="ignore"):
        try:
            return solve(rhs.copy())
        except SolveFailureError as err:
            return f"SolveFailureError: {err}"


def _assert_same_as_dense(M, rhs, solve):
    """solve(rhs) keeps the contract of the kernel against the dense oracle.

    Where every pivot of the oracle on M, its reciprocal and the oracle's
    solution are finite, solve returns the oracle's bits; otherwise it
    raises SolveFailureError.  Returns solve's outcome.
    """
    pivots = []
    want = _outcome(lambda b: _dense_solve(M, b, pivots=pivots), rhs)
    got = _outcome(solve, rhs)
    if isinstance(want, str) or not np.isfinite(pivots + list(want)).all():
        assert isinstance(got, str) and got.startswith("SolveFailureError: ")
    else:
        assert isinstance(got, np.ndarray) and got.dtype == np.longdouble
        assert _same_bits(got, want)
    return got


def _assert_same_outcome(rows, rhs):
    """The solve of these column -> value rows agrees with the dense oracle."""
    return _assert_same_as_dense(
        _dense(rows, len(rhs)), rhs,
        lambda b: _solve_sparse([dict(row) for row in rows], b))


def _assert_same_planned(rows, rhs, plan):
    """The solve of these dense rows through plan agrees with the oracle."""
    return _assert_same_as_dense(
        np.array(rows), rhs,
        lambda b: _solve_planned([list(row) for row in rows], b, plan))


BUILTINS = ("identity_3", "elliptope_3", "kl02_3", "kl02_4", "kl02_5")


@pytest.fixture(scope="module")
def newton_systems():
    """Every (X, S, rows) and (rows, rhs, plan) the Newton steps build.

    They are those of trace_path and of verify_reparametrization at the
    true rho on each builtin.
    """
    jacobians, systems = [], []
    newton_system, solve = sdo._newton_system, sdo._solve_planned

    def record_system(lay, X, S):
        rows, plan = newton_system(lay, X, S)
        jacobians.append((lay, X.copy(), S.copy(), [list(r) for r in rows]))
        return rows, plan

    def record_solve(rows, rhs, plan):
        systems.append(([list(r) for r in rows], rhs.copy(), plan))
        return solve(rows, rhs, plan)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdo, "_newton_system", record_system)
        mp.setattr(sdo, "_solve_planned", record_solve)
        instances = {}
        for name in BUILTINS:
            instances[name] = inst = builtin_instance(name)
            trace_path(inst)
            verify_reparametrization(inst, TestNewtonWork.SOLVES[name][0])
    layouts = {id(inst._newton): inst for inst in instances.values()}
    jacobians = [(layouts[id(lay)], X, S, rows) for lay, X, S, rows in jacobians]
    return jacobians, systems


class TestNewtonKernel:
    def test_jacobians_along_builtin_traces(self, newton_systems):
        jacobians, _ = newton_systems
        assert {inst.name for inst, *_ in jacobians} == set(BUILTINS)
        for inst, X, S, rows in jacobians:
            assert _same_bits(np.array(rows), _rounded_jacobian(inst, X, S))

    def test_jacobian_with_signed_zeros(self):
        rng = np.random.default_rng(7)

        def symmetric(n):
            M = rng.standard_normal((n, n)).astype(np.longdouble)
            M[rng.random((n, n)) < 0.4] = -0.0
            M[0, 1] = -0.0
            # entries that round to -0 and to inf in double
            M[rng.random((n, n)) < 0.2] = -(np.longdouble(2) ** -1100)
            M[rng.random((n, n)) < 0.1] = np.longdouble("1e400")
            return _mirror(M)

        for name in BUILTINS:
            inst = builtin_instance(name)
            for _ in range(5):
                X, S = symmetric(inst.n), symmetric(inst.n)
                # under the overflow setting central_point runs it with
                with warnings.catch_warnings(), np.errstate(over="ignore"):
                    warnings.simplefilter("error")
                    rows, _ = _newton_system(_newton_layout(inst), X, S)
                assert all(type(v) is float for row in rows for v in row)
                J = np.array(rows)
                assert not np.signbit(J[J == 0]).any()
                assert _same_bits(J, _rounded_jacobian(inst, X, S))

    def test_captured_newton_solves(self, newton_systems):
        # every step the builtins take is finite, solves without raising
        # and keeps the dense bits
        _, systems = newton_systems
        solves = TestNewtonWork.SOLVES.values()
        assert len(systems) == sum(t + v for _, t, v in solves)
        assert {len(rhs) for _, rhs, _ in systems} == {13, 15, 24, 35}
        for rows, rhs, plan in systems:
            assert rhs.dtype == np.float64
            want = _dense_solve(np.array(rows), rhs)
            got = _solve_planned([list(r) for r in rows], rhs, plan)
            assert _same_bits(got, want)

    def test_double_steps_are_accurate(self, newton_systems):
        # the double step against the long-double solve of the same system:
        # partial pivoting is backward stable, so the normwise relative
        # error stays below size * cond(M) * eps (Higham, Accuracy and
        # Stability of Numerical Algorithms, 2nd ed., Thm. 9.5 and 7.2)
        _, systems = newton_systems
        eps = np.finfo(np.float64).eps
        worst = 0.0
        for rows, rhs, plan in systems:
            M = np.array(rows)
            got = _solve_planned([list(r) for r in rows], rhs, plan)
            want = _dense_solve(M, rhs, dtype=np.longdouble)
            err = float(np.abs(got - want).max() / np.abs(want).max())
            assert err <= len(rhs) * np.linalg.cond(M, np.inf) * eps
            worst = max(worst, err)
        # on the builtins every step keeps 13 digits (worst 4.0e-15)
        assert worst < 1e-13

    def test_line_search_test_is_both_choleskys(self):
        rng = np.random.default_rng(11)

        def pd(M):
            try:
                np.linalg.cholesky(M.astype(np.float64))
            except np.linalg.LinAlgError:
                return False
            return True

        for n in (1, 3, 5):
            for shift in (-1.0, 0.0, 0.5, 3.0):
                for _ in range(5):
                    X, S = (
                        (B + B.T) / 2 + shift * n * np.eye(n, dtype=np.longdouble)
                        for B in rng.standard_normal((2, n, n)).astype(np.longdouble)
                    )
                    if rng.random() < 0.2:
                        X[0, 0] = np.nan
                    assert sdo._interior(np.array((X, S))) == (pd(X) and pd(S))

    def test_random_well_conditioned_solves(self):
        rng = np.random.default_rng(20240817)
        for size in (1, 2, 5, 13, 24, 35, 40):
            for _ in range(4):
                M = rng.standard_normal((size, size))
                M += size * np.eye(size)
                # sparse rows exercise the skipped zero multipliers, and
                # a signed-zero right-hand side the sign rules of the update
                M[(rng.random((size, size)) < 0.5) & ~np.eye(size, dtype=bool)] = 0
                rhs = rng.standard_normal(size)
                rhs[rng.random(size) < 0.3] = -0.0
                rows = [{j: v for j, v in enumerate(row.tolist()) if v}
                        for row in M]
                x = _solve_sparse(rows, rhs)
                assert _same_bits(x, _dense_solve(M, rhs))
                assert np.max(np.abs(M @ x - rhs)) < 1e-15 * size


# Entries are a small mantissa, so pivot magnitudes tie exactly, times a
# row and a column scale.  The scales make multipliers and products that
# underflow, and columns so small (subnormal) that 1 / pivot overflows,
# which fails the solve.
_MANTISSAS = st.sampled_from([1, -1, 2, -2, 3, -0.5, 0.75])
_NORMAL_SCALES = [2.0**e for e in (0, 0, 0, -560, 500)]
_SCALES = st.sampled_from(_NORMAL_SCALES + [2.0**-1050])
# X and S entries: mostly nonzero, so that most drawn systems are regular
_ENTRIES = [0.0] + 2 * [1, -1, 2, -2, 3, -0.5, 0.75]
_RHS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4, 4, width=32))


@st.composite
def _sparse_systems(draw, scales=_SCALES, max_size=9):
    size = draw(st.integers(1, max_size))
    row_scale = draw(st.lists(scales, min_size=size, max_size=size))
    col_scale = draw(st.lists(scales, min_size=size, max_size=size))
    rows = []
    for r in range(size):
        cols = draw(st.sets(st.integers(0, size - 1), max_size=size))
        # + 0 turns a product that underflows to -0 into the +0 the
        # solver requires
        rows.append({j: draw(_MANTISSAS) * row_scale[r] * col_scale[j] + 0
                     for j in sorted(cols)})
    rhs = np.array(draw(st.lists(_RHS, min_size=size, max_size=size)))
    return rows, rhs


@st.composite
def _newton_shaped_systems(draw):
    """The Newton system of a builtin at symmetric X, S from the pool."""
    inst = builtin_instance(draw(st.sampled_from(BUILTINS[:4])))
    n = inst.n

    def symmetric():
        M = np.zeros((n, n), dtype=np.longdouble)
        for i in range(n):
            for j in range(i, n):
                v = draw(st.one_of(st.sampled_from([0.0, -0.0]), _MANTISSAS))
                M[i, j] = M[j, i] = v * draw(_SCALES)
        return M

    rows, _ = _newton_system(_newton_layout(inst), symmetric(), symmetric())
    rows = [{j: v for j, v in enumerate(row) if v} for row in rows]
    rhs = np.array(draw(st.lists(_RHS, min_size=len(rows), max_size=len(rows))))
    return rows, rhs


@pytest.fixture(scope="module")
def kl02_5_systems(newton_systems):
    return [(rows, plan) for rows, rhs, plan in newton_systems[1] if len(rhs) == 35]


class TestSparseSolve:
    """The sparse elimination against the dense oracle, on drawn systems."""

    @settings(max_examples=300, deadline=None)
    @given(_sparse_systems())
    def test_random_sparse_systems(self, system):
        _assert_same_outcome(*system)

    @settings(max_examples=60, deadline=None)
    @given(_newton_shaped_systems())
    def test_newton_shaped_systems(self, system):
        _assert_same_outcome(*system)

    @settings(max_examples=100, deadline=None)
    @given(_sparse_systems(scales=st.sampled_from(_NORMAL_SCALES)), st.data())
    def test_singular_systems(self, system, data):
        # an empty column; with no pivot so small that 1 / pivot overflows
        # no other failure can come first
        rows, rhs = system
        gone = data.draw(st.integers(0, len(rhs) - 1))
        for row in rows:
            row.pop(gone, None)
        assert (_assert_same_outcome(rows, rhs)
                == "SolveFailureError: Newton system is singular")

    @settings(max_examples=150, deadline=None)
    @given(_sparse_systems(), st.data())
    def test_systems_holding_nan(self, system, data):
        # NaNs of either sign, and infinities, in the matrix or the rhs:
        # the solve fails, whatever the values around them
        rows, rhs = system
        size = len(rhs)
        for _ in range(data.draw(st.integers(1, 3))):
            bad = float(data.draw(st.sampled_from(["nan", "-nan", "inf"])))
            r = data.draw(st.integers(0, size - 1))
            j = data.draw(st.integers(-1, size - 1))
            if j < 0:
                rhs[r] = bad
            else:
                rows[r][j] = bad
        assert isinstance(_assert_same_outcome(rows, rhs), str)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_captured_kl02_5_systems(self, kl02_5_systems, data):
        # a captured system with a drawn right-hand side: signed zeros, and
        # magnitudes that tie
        rows, plan = data.draw(st.sampled_from(kl02_5_systems))
        rhs = np.array(data.draw(st.lists(_RHS, min_size=35, max_size=35)))
        _assert_same_planned(rows, rhs, plan)


def _plan_branches(plan):
    """The branches of a plan's trie: one per planned column and pivot prefix."""
    stack, count = [plan[1]], 0
    while stack:
        for _, _, nxt in stack.pop()[1].values():
            count += 1
            if nxt is not None:
                stack.append(nxt)
    return count


class TestPlanReuse:
    """Systems of one Newton layout solved in turn through one cached plan.

    A drawn X, S gives the first system, which plans its pivot path.  The
    others keep its pattern: they change values at the slots it plans,
    so the layout's plan for its mask serves them all, and each must
    match the dense oracle.
    """

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_sequences_through_one_plan(self, data):
        inst = builtin_instance(data.draw(st.sampled_from(BUILTINS)))
        lay = _newton_layout(inst)
        n = inst.n

        def symmetric():
            M = np.zeros((n, n), dtype=np.longdouble)
            for i in range(n):
                for j in range(i, n):
                    M[i, j] = M[j, i] = data.draw(st.sampled_from(_ENTRIES))
            return M

        base, plan = _newton_system(lay, symmetric(), symmetric())
        assert any(p is plan for p in lay.plans.values())
        size = len(base)
        slots = [(r, j) for r, row in enumerate(base) for j, v in enumerate(row) if v]
        two = 2.0

        def solve(rows):
            rhs = np.array(data.draw(st.lists(_RHS, min_size=size, max_size=size)))
            return _assert_same_planned(rows, rhs, plan)

        def scaled(scale, rows=(), cols=()):
            # + 0 keeps a product that underflows from turning into -0
            out = [list(row) for row in base]
            for r in rows:
                out[r] = [v * scale + 0 for v in out[r]]
            for j in cols:
                for row in out:
                    row[j] = row[j] * scale + 0
            return out

        assume(not isinstance(solve(base), str))
        assert _plan_branches(plan) == size
        # the original row each column of the first system pivots on
        order, pivot_rows, node = list(range(size)), [], plan[1]
        for col in range(size):
            (p, (_, _, node)), = node[1].items()
            order[col], order[p] = order[p], order[col]
            pivot_rows.append(order[col])

        def diverge():
            # the row that took column col in the first system, scaled by
            # 2^-60, loses that column unless every other candidate there
            # is 0; before col it only ever lost, so the pivots leave the
            # planned path at col
            before = _plan_branches(plan)
            for col in data.draw(st.permutations(range(size))):
                solve(scaled(two**-60, rows=[pivot_rows[col]]))
                if _plan_branches(plan) > before:
                    return
            assume(False)

        def not_finite():
            # after the planned column 0: NaN or inf on every planned slot
            # of a column, which fails the solve, or a column so small that
            # 1 / pivot overflows
            col = data.draw(st.integers(1, size - 1))
            kind = data.draw(st.sampled_from(["nan", "-nan", "inf", "-inf", "tiny"]))
            if kind == "tiny":
                solve(scaled(two**-1050, cols=[col]))
                return
            rows = [list(row) for row in base]
            for r, j in slots:
                if j == col:
                    rows[r][j] = float(kind)
            assert isinstance(solve(rows), str)

        def underflow():
            # a row scaled up takes column 0 and a row scaled down holds it
            # too, so its multiplier underflows to 0
            cands = [r for r in range(size) if base[r][0]]
            assume(len(cands) >= 2)
            big, small = data.draw(st.permutations(cands))[:2]
            rows = scaled(two**500, rows=[big])
            rows[small] = [v * two**-600 + 0 for v in rows[small]]
            solve(rows)

        def zero():
            r, j = data.draw(st.sampled_from(slots))
            rows = [list(row) for row in base]
            rows[r][j] = 0.0
            solve(rows)

        for case in data.draw(st.permutations([diverge, not_finite, underflow, zero])):
            case()
        assert _plan_branches(plan) > size


class TestResiduals:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(BUILTINS), st.data())
    def test_stacked_residuals_match_per_matrix_loop(self, name, data):
        # at exactly symmetric X and S, as central_point keeps them
        inst = builtin_instance(name)
        lay = _newton_layout(inst)
        n = inst.n
        entries = st.one_of(
            st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf]),
            st.floats(-1e4, 1e4),
            st.builds(lambda v, s: v * s, _MANTISSAS, _SCALES),
        )

        def draw(shape):
            count = int(np.prod(shape))
            values = data.draw(st.lists(entries, min_size=count, max_size=count))
            return np.array(values, dtype=np.longdouble).reshape(shape)

        X, y, S = _mirror(draw((n, n))), draw((inst.m,)), _mirror(draw((n, n)))
        mu = np.longdouble(data.draw(st.floats(1e-12, 1.0)))
        upper = np.triu_indices(n)
        with np.errstate(all="ignore"):
            shift = np.concatenate(
                (inst.b, inst.C[upper], mu * np.eye(n, dtype=np.longdouble)[upper]))
            got = sdo._residual(lay, X, y, S, shift)
            rp, Rd, Rc = _reference_residuals(inst, X, y, S, mu)
        # the blocks are symmetric, so their upper triangles hold every entry
        assert _same_bits(Rd, Rd.T) and _same_bits(Rc, Rc.T)
        assert _same_bits(got, np.concatenate((rp, Rd[upper], Rc[upper])))
