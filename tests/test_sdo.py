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
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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

    def test_constraints_are_one_stack(self):
        inst = kl02_instance(4)
        assert inst.A.shape == (4, 4, 4) and inst.A.dtype == np.longdouble
        assert len(inst.A) == 4 and len(list(inst.A)) == 4
        assert np.array_equal(inst.A[2], np.array(list(inst.A))[2])

    @pytest.mark.parametrize("A, b, C, entry", [
        # C[0,1] = 0.5 is read back as 0 by the exact chain
        ([np.eye(2)], [2], [[1, 0.5], [0.5, 1]], "C[0,1] = 0.5"),
        # 2^70 + 1 rounds to 2^70 in long double
        ([[[1]]], [2**70 + 1], [[1]], f"b[0] = {2**70 + 1}"),
        ([[[1]]], [2**64 + 1], [[1]], f"b[0] = {2**64 + 1}"),
        ([[[1]]], [math.nan], [[1]], "b[0] = nan"),
        ([[[1]]], [1], [[math.inf]], "C[0,0] = inf"),
        ([[[1, 0], [0, 1.5]]], [1], np.eye(2), "A[0][1,1] = 1.5"),
    ], ids=["half", "2^70+1", "2^64+1", "nan", "inf", "fraction_in_A"])
    def test_entries_must_be_exact_integers(self, A, b, C, entry):
        # the exact chain reads each entry back with int(), so an entry it
        # would read as another number is bad input, named in the message
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="is not an integer") as err:
                SDOInstance(A, b, C)
        assert str(err.value).startswith(entry)

    def test_entry_past_the_digit_limit_is_named_by_its_size(self):
        # such an int has no repr, so the message gives its bit length
        with pytest.raises(InputError) as err:
            SDOInstance([[[1]]], [10**5000], [[1]])
        assert str(err.value) == ("b[0] = an integer of 16610 bits is not an"
                                  " integer that long double holds exactly")

    def test_exact_integers_are_kept(self):
        # every integer long double holds, whatever its type
        big = 2**600
        inst = SDOInstance([[[np.int64(3)]]], [np.float64(2**64)],
                           [[2**64 - 1]])
        assert int(inst.b[0]) == 2**64 and int(inst.C[0, 0]) == 2**64 - 1
        assert int(SDOInstance([[[big]]], [big], [[1]]).A[0, 0, 0]) == big
        text = SDOInstance([[[3.0]]], [-6.0], [[1]]).to_text()
        assert text.splitlines()[2:] == ["3", "-6", "1"]

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
            assert abs(float(np.trace(s.X @ s.S)) - 3 * mu) <= 1e-8 * 3

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

    def _fails_at_first_step(self, monkeypatch, entry, name="elliptope_3",
                             block="X", mu=0.25):
        calls = []
        solve = sdo._newton_step

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
        monkeypatch.setattr(sdo, "_newton_step", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolveFailureError, match="not finite"):
                central_point(inst, mu, start=start)
        assert len(calls) == 1

    def test_start_past_double_range_fails_without_warning(self, monkeypatch):
        # an iterate entry past float64's range rounds to inf in the double
        # Schur complement M, a pivot that is not finite: the first step
        # fails, with no numpy warning on the way
        self._fails_at_first_step(monkeypatch, "1e400")

    def test_nan_start_fails_at_first_solve(self, monkeypatch):
        # a NaN iterate entry makes M or the step NaN, which fails the
        # solve, so no NaN step is ever taken
        self._fails_at_first_step(monkeypatch, "nan")

    @pytest.mark.parametrize("name", ["elliptope_3", "kl02_4"])
    @pytest.mark.parametrize("block", ["S", "y"])
    def test_nan_in_s_or_y_fails_at_first_solve(self, monkeypatch, name, block):
        # the stopping test took max() of three floats, which drops a NaN
        # that is not its first argument, so this solved start came back
        # as converged with residual 0 and a NaN in it
        self._fails_at_first_step(monkeypatch, "nan", name, block, mu=0.5)

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

    def test_limits_are_aitken_of_the_last_three_samples(self, kl02_trace):
        # the scalar formula, coordinate by coordinate, as the oracle
        cols = kl02_trace.values[-3:].astype(np.float64).T
        for i, (x0, x1, x2) in enumerate(cols.tolist()):
            d1, d2 = x1 - x0, x2 - x1
            den = d2 - d1
            if abs(den) <= 1e-30 + 1e-12 * (abs(d1) + abs(d2)):
                limit = x2
            else:
                limit = x2 - d2 * d2 / den
            assert kl02_trace.limits[i] == limit, i
            assert kl02_trace.widths[i] == max(abs(x2 - x1), 10 * 1e-11), i

    @pytest.mark.parametrize("mu_end, count", [(0.6, 1), (0.3, 2)])
    def test_short_trace_keeps_its_last_sample(self, mu_end, count):
        # no extrapolation below three samples, no width below two
        tr = trace_path(elliptope_instance(), 1.0, mu_end, 0.5, tol=1e-11)
        assert len(tr.samples) == count
        last = tr.values[-1].astype(np.float64)
        assert np.array_equal(tr.limits, last)
        if count == 1:
            widths = np.full(last.shape, 10 * 1e-11)
        else:
            step = np.abs(last - tr.values[-2].astype(np.float64))
            widths = np.maximum(step, 10 * 1e-11)
        assert np.array_equal(tr.widths, widths)

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

    # name -> (rho, steps in trace_path, steps in verify_reparametrization)
    SOLVES = {
        "identity_3": (1, 26, 24),
        "elliptope_3": (2, 103, 101),
        "kl02_3": (2, 100, 99),
        "kl02_4": (4, 110, 127),
        "kl02_5": (8, 111, 115),
    }

    @pytest.mark.parametrize("name", SOLVES)
    def test_solve_counts(self, monkeypatch, name):
        rho, trace_solves, verify_solves = self.SOLVES[name]
        calls = []
        step = sdo._newton_step

        def counted(*args):
            calls.append(args)
            return step(*args)

        monkeypatch.setattr(sdo, "_newton_step", counted)
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

    @pytest.mark.parametrize("rho", [1, 2])
    def test_verdicts_match_the_per_coordinate_loop(self, rho):
        rep = verify_reparametrization(elliptope_instance(), rho)
        hs = np.array(rep.t_levels) / 4
        res1 = 2 * sdo._COORD_RESOLUTION / hs
        res2 = 4 * sdo._COORD_RESOLUTION / (hs * hs)
        levels = len(rep.t_levels)
        expected = []
        for i in range(rep.d1.shape[1]):
            ok = True
            for seq, res in ((rep.d1, res1), (rep.d2, res2)):
                for lvl in range(levels - 3, levels - 1):
                    if seq[lvl + 1, i] > 1.05 * seq[lvl, i] + res[lvl + 1]:
                        ok = False
            expected.append(ok)
        assert rep.coordinate_bounded == tuple(expected)
        assert (False in expected) == (rho == 1)

    def test_input_validation(self):
        with pytest.raises(InputError):
            verify_reparametrization(identity_instance(2), 0)
        with pytest.raises(InputError):
            verify_reparametrization(identity_instance(2), 1, window=(0.5, 0.25))
        with pytest.raises(InsufficientSamplesError):
            verify_reparametrization(identity_instance(2), 1, window=(0.2, 0.25))


def _degenerate_instance(seed: int) -> SDOInstance:
    """An n = 3 instance with integer data built around a degenerate pair.

    X* = diag(1, 0, 0) and S* = diag(0, 0, 1) are complementary with
    rank X* + rank S* < n.  Each entry of each symmetric A_i (2 to 5 of
    them) is, with probability 1/2, an integer in [-2, 2]; b = A(X*) and
    C = S* + sum_i y0_i A_i for an integer y0, so X* and (y0, S*) are
    feasible.  Nothing makes either side strictly feasible, so many seeds
    have no central path (Wei & Wolkowicz, Generating and measuring
    instances of hard semidefinite programs, Math. Program. 125, 2010).
    """
    rng = random.Random(seed)
    n = 3
    m = rng.randint(2, 5)
    A = []
    for _ in range(m):
        Ai = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.5:
                    Ai[i][j] = Ai[j][i] = rng.randint(-2, 2)
        A.append(Ai)
    y0 = [rng.randint(-1, 1) for _ in range(m)]
    b = [Ai[0][0] for Ai in A]
    C = [[int(i == j == 2) + sum(y0[k] * A[k][i][j] for k in range(m))
          for j in range(n)] for i in range(n)]
    return SDOInstance(A, b, C, name=f"d{seed}")


def _trace_outcome(seed: int) -> str:
    try:
        inst = _degenerate_instance(seed)
    except InputError:
        return "rejected"
    try:
        trace_path(inst)
    except (InfeasibleInstanceError, SolveFailureError) as err:
        return type(err).__name__
    return "traced"


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                    reason="the failures follow x86 80-bit long double")
class TestDegenerateInstances:
    # outcome of trace_path at its defaults -> seeds, for seeds 0-79.
    # Every failure comes at mu = 1 from the default start, on a seed with
    # no strictly feasible point on one side (maximizing the least
    # eigenvalue of X over A(X) = b, or of C - sum_i y_i A_i over y,
    # reaches about 0; on every traced seed both stay positive).  Which
    # of the two errors such a seed gets depends on where the Newton
    # iteration breaks down
    OUTCOMES = {
        "traced": [3, 4, 8, 19, 22, 23, 26, 27, 28, 29, 38, 39, 46, 48, 51,
                   53, 54, 57, 58, 62, 63, 67, 69, 72, 73, 77],
        "InfeasibleInstanceError": [1, 6, 9, 15, 18, 20, 24, 36, 40, 42, 50,
                                    59, 60, 64, 70, 76],
        "SolveFailureError": [2, 5, 7, 10, 11, 14, 21, 31, 32, 34, 37, 43,
                              47, 52, 56, 66, 74, 75, 78, 79],
        "rejected": [0, 12, 13, 16, 17, 25, 30, 33, 35, 41, 44, 45, 49, 55,
                     61, 65, 68, 71],
    }

    def test_trace_outcomes(self):
        got = {}
        for seed in range(80):
            got.setdefault(_trace_outcome(seed), []).append(seed)
        assert got == self.OUTCOMES


# ---------------------------------------------------------------------------
# The HKM Newton step
#
# _reference_residuals is the per-matrix residual loop the stacked
# residual must reproduce bit for bit.  A Newton step is checked against
# the linearized equations it solves, and its Python-float solves against
# numpy's LAPACK solve, kept here as the oracle.


def _reference_residuals(inst, X, y, S, mu):
    """The primal, dual and complementarity residuals, one A_i at a time."""
    rp = np.array([(Ai * X).sum() - bi for Ai, bi in zip(inst.A, inst.b)],
                  dtype=np.longdouble)
    Rd = sum(yi * Ai for yi, Ai in zip(y, inst.A)) + S - inst.C
    Rc = (X @ S + S @ X) / 2 - mu * np.eye(inst.n, dtype=np.longdouble)
    return rp, Rd, Rc


def _same_bits(a, b):
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


def _mirror(M):
    """The symmetric matrix with the upper triangle of M."""
    return np.where(np.triu(np.ones(M.shape, dtype=bool)), M, M.T)


def _constants(inst):
    """The stack A, its rows of vec A_i and I as rows of floats, as
    central_point passes them to _residual and _newton_step."""
    return inst.A, inst.A.reshape(inst.m, -1), np.eye(inst.n).tolist()


def _shift(inst, mu):
    return np.concatenate((inst.b, inst.C.ravel(),
                           mu * np.eye(inst.n, dtype=np.longdouble).ravel()))


def _equation_errors(inst, X, S, F, dZ, dy):
    """Relative errors of A(dX) = -rp and sum_i dy_i A_i + dS = -Rd.

    Each is the largest entry of the equation's residual over the largest
    magnitude it is formed from: A_i applied to |X| + |dX|, and |S| + |dS|
    or |dy_i A_i|.
    """
    n, m = inst.n, inst.m
    dX, dS = dZ
    rp, Rd = F[:m], F[m : m + n * n].reshape(n, n)
    A = inst.A
    primal = np.abs((A * dX).sum(axis=(1, 2)) + rp).max()
    pscale = (np.abs(A) * (np.abs(X) + np.abs(dX))).sum(axis=(1, 2)).max()
    terms = dy[:, None, None] * A
    dual = np.abs(terms.sum(axis=0) + dS + Rd).max()
    dscale = max(np.abs(terms).max(), (np.abs(S) + np.abs(dS)).max())
    return float(primal / pscale), float(dual / dscale)


def _oracle_error(a, b, x):
    """Normwise relative distance of x from np.linalg.solve(a, b), and the
    bound 2 size cond(a) eps on it: both solves are backward stable
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Thm. 9.5 and 7.2)."""
    a, b, x = np.array(a), np.array(b), np.array(x)
    want = np.linalg.solve(a, b)
    err = np.abs(x - want).max() / np.abs(want).max()
    bound = 2 * len(a) * np.linalg.cond(a, np.inf) * np.finfo(np.float64).eps
    return err, bound


BUILTINS = ("identity_3", "elliptope_3", "kl02_3", "kl02_4", "kl02_5")


@pytest.fixture(scope="module")
def newton_steps():
    """Every Newton step of trace_path and of verify_reparametrization at
    the true rho on each builtin.

    Each is (inst, X, S, F, mu, (dZ, dy), solves), where solves holds the
    (a, b, x) of the step's two Python-float solves: S^-1, then dy.
    """
    steps, solves = [], []
    newton_step, solve = sdo._newton_step, sdo._solve

    def record_solve(a, b):
        x = solve(a, b)
        solves.append((a, b, x))
        return x

    def record_step(A, Af, eye_rows, X, S, F, mu):
        # the constants are the instance's stack and its reshaped view
        assert A is inst.A and Af.base is inst.A
        solves.clear()
        step = newton_step(A, Af, eye_rows, X, S, F, mu)
        steps.append((inst, X.copy(), S.copy(), F.copy(), mu, step, list(solves)))
        return step

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdo, "_newton_step", record_step)
        mp.setattr(sdo, "_solve", record_solve)
        for name in BUILTINS:
            inst = builtin_instance(name)
            trace_path(inst)
            verify_reparametrization(inst, TestNewtonWork.SOLVES[name][0])
    return steps


class TestNewtonKernel:
    def test_jacobians_along_builtin_traces(self, newton_steps):
        # the Schur complement M of every step is tr(A_i X A_j S^-1), taken
        # one pair at a time with the step's own S^-1
        assert {inst.name for inst, *_ in newton_steps} == set(BUILTINS)
        for inst, X, S, F, mu, _, solves in newton_steps:
            (_, _, sinv), (M, _, _) = solves
            Sinv = np.array(sinv, dtype=np.longdouble)
            Sinv = (Sinv + Sinv.T) / 2
            want = np.array([[np.trace(Ai @ X @ Aj @ Sinv) for Aj in inst.A]
                             for Ai in inst.A])
            assert np.abs(np.array(M) - want).max() <= 1e-15 * np.abs(want).max()

    def test_captured_newton_solves(self, newton_steps):
        # every step the builtins take is finite, exactly symmetric and
        # solves the primal and dual Newton equations; each made two
        # solves, S^-1 and then dy
        solves = TestNewtonWork.SOLVES.values()
        assert len(newton_steps) == sum(t + v for _, t, v in solves)
        for inst, X, S, F, mu, (dZ, dy), solves in newton_steps:
            for v in (dZ, dy):
                assert v.dtype == np.longdouble and np.isfinite(v).all()
            assert _same_bits(dZ, dZ.transpose(0, 2, 1))
            assert [len(a) for a, _, _ in solves] == [inst.n, inst.m]
            assert max(_equation_errors(inst, X, S, F, dZ, dy)) <= 1e-10

    def test_double_steps_are_accurate(self, newton_steps):
        # each Python-float solve against LAPACK's
        worst = 0.0
        for *_, solves in newton_steps:
            for a, b, x in solves:
                err, bound = _oracle_error(a, b, x)
                assert err <= bound
                worst = max(worst, err)
        # on the builtins every solve keeps 8 digits (worst 4.2e-9, an S^-1
        # of elliptope_3 with condition number 1.6e9)
        assert worst < 1e-8

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(BUILTINS), st.data())
    def test_step_with_signed_zeros(self, name, data):
        # signed zeros, entries that round to -0 or overflow in double, and
        # a NaN: the step is finite or fails the solve, with no warning
        inst = builtin_instance(name)
        n = inst.n
        entries = st.one_of(
            st.sampled_from([0.0, -0.0, -(2.0**-1074)]),
            st.floats(-4, 4),
            st.sampled_from(["1e400", "-1e400", "-1e-400", "nan"]),
        )

        def symmetric():
            values = data.draw(st.lists(entries, min_size=n * n, max_size=n * n))
            return _mirror(np.array(values, dtype=np.longdouble).reshape(n, n))

        X, S = symmetric(), symmetric()
        y = np.zeros(inst.m, dtype=np.longdouble)
        A, Af, eye_rows = _constants(inst)
        F = sdo._residual(A, Af, X, y, S, _shift(inst, 0.5))
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            try:
                dZ, dy = sdo._newton_step(A, Af, eye_rows, X, S, F, 0.5)
            except SolveFailureError:
                return
        for v in (dZ, dy):
            assert v.dtype == np.longdouble and np.isfinite(v).all()

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
        for size in (1, 2, 3, 5, 13, 40):
            for cols in (1, size):
                M = rng.standard_normal((size, size)) + size * np.eye(size)
                B = rng.standard_normal((size, cols))
                x = np.array(sdo._solve(M.tolist(), B.tolist()))
                err, bound = _oracle_error(M, B, x)
                assert err <= bound
                assert np.abs(M @ x - B).max() < 1e-14 * size


# Entries are a small mantissa, so magnitudes tie exactly, times a scale
# that makes products underflow or overflow in double
_MANTISSAS = st.sampled_from([1, -1, 2, -2, 3, -0.5, 0.75])
_SCALES = st.sampled_from([2.0**e for e in (0, 0, 0, -560, 500, -1050)])


def _interior_point(data, n):
    """A drawn positive definite matrix: B B^T / n + delta I."""
    B = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n * n,
                                    max_size=n * n)), dtype=np.longdouble)
    B = B.reshape(n, n)
    delta = np.longdouble(data.draw(st.floats(0.05, 2.0)))
    return B @ B.T / n + delta * np.eye(n, dtype=np.longdouble)


class TestNewtonStep:
    """The HKM step of _newton_step at drawn interior points."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(BUILTINS), st.data())
    def test_step_solves_the_newton_equations(self, name, data):
        inst = builtin_instance(name)
        A, Af, eye_rows = _constants(inst)
        n, m = inst.n, inst.m
        X, S = _interior_point(data, n), _interior_point(data, n)
        y = np.array(data.draw(st.lists(st.floats(-3, 3), min_size=m,
                                        max_size=m)), dtype=np.longdouble)
        mu = data.draw(st.floats(1e-6, 1.0))
        F = sdo._residual(A, Af, X, y, S, _shift(inst, mu))
        solves = []
        solve = sdo._solve

        def record(a, b):
            x = solve(a, b)
            solves.append((a, b, x))
            return x

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sdo, "_solve", record)
            dZ, dy = sdo._newton_step(A, Af, eye_rows, X, S, F, mu)
        assert _same_bits(dZ, dZ.transpose(0, 2, 1))
        assert max(_equation_errors(inst, X, S, F, dZ, dy)) <= 1e-10
        # dy against LAPACK on the step's own M and r
        M, r, x = solves[1]
        want = np.linalg.solve(np.array(M), np.array(r)).ravel()
        assert np.abs(dy - want).max() <= 1e-10 * np.abs(want).max()
        assert _same_bits(dy, np.array(x).astype(np.longdouble).ravel())
        # M is tr(A_i X A_j S^-1), with S^-1 from LAPACK
        Sinv = np.linalg.inv(S.astype(np.float64))
        A64 = [Ai.astype(np.float64) for Ai in A]
        X64 = X.astype(np.float64)
        want = np.array([[np.trace(Ai @ X64 @ Aj @ Sinv) for Aj in A64]
                         for Ai in A64])
        assert np.abs(np.array(M) - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("a, b", [
        ([[0.0]], [[1.0]]),
        ([[1.0, 2.0], [2.0, 4.0]], [[1.0], [0.0]]),
        ([[1.0, 0.0], [3.0, 0.0]], [[1.0], [1.0]]),
        ([[2.0**-1074, 0.0], [0.0, 1.0]], [[1.0], [1.0]]),
        ([[math.nan, 0.0], [0.0, 1.0]], [[1.0], [1.0]]),
        ([[1.0, math.nan], [0.0, 1.0]], [[1.0], [1.0]]),
        ([[math.inf, 0.0], [0.0, 1.0]], [[1.0], [1.0]]),
        ([[1.0, 0.0], [0.0, 1.0]], [[math.nan], [1.0]]),
        ([[1.0, 0.0], [0.0, 1.0]], [[-math.inf], [1.0]]),
        ([[1e-300, 0.0], [0.0, 1.0]], [[1e300], [1.0]]),
    ])
    def test_singular_or_non_finite_systems_fail(self, a, b):
        # never a ZeroDivisionError or a warning: a SolveFailureError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolveFailureError,
                               match="singular|not finite"):
                sdo._solve(a, b)

    @pytest.mark.parametrize("which", ["X", "S"])
    def test_singular_iterate_fails_the_step(self, which):
        # S singular fails its inverse; X = 0 makes M = 0
        inst = elliptope_instance()
        A, Af, eye_rows = _constants(inst)
        X = S = np.eye(3, dtype=np.longdouble)
        if which == "X":
            X = np.zeros((3, 3), dtype=np.longdouble)
        else:
            S = np.diag(np.array([1, 1, 0], dtype=np.longdouble))
        F = sdo._residual(A, Af, X, np.zeros(3, dtype=np.longdouble), S,
                          _shift(inst, 0.5))
        with pytest.raises(SolveFailureError, match="singular"):
            sdo._newton_step(A, Af, eye_rows, X, S, F, 0.5)

    def test_failed_step_from_the_default_start_is_infeasible(self, monkeypatch):
        # as a collapsed line search is: from the default start a step that
        # cannot be formed finds no interior; from a warm start it fails
        def failed(*args):
            raise SolveFailureError("Newton system is singular")

        inst = elliptope_instance()
        warm = central_point(inst, 0.5)
        monkeypatch.setattr(sdo, "_newton_step", failed)
        with pytest.raises(InfeasibleInstanceError,
                           match="no interior step from the default start"):
            central_point(inst, 0.5)
        with pytest.raises(SolveFailureError, match="singular"):
            central_point(inst, 0.25, start=warm)


class TestResiduals:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(BUILTINS), st.data())
    def test_stacked_residuals_match_per_matrix_loop(self, name, data):
        # at exactly symmetric X and S, as central_point keeps them
        inst = builtin_instance(name)
        A, Af, _ = _constants(inst)
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
        with np.errstate(all="ignore"):
            got = sdo._residual(A, Af, X, y, S, _shift(inst, mu))
            rp, Rd, Rc = _reference_residuals(inst, X, y, S, mu)
        # both blocks are exactly symmetric, so the max over the full
        # vector is the max over the upper triangles
        assert _same_bits(Rd, Rd.T) and _same_bits(Rc, Rc.T)
        assert _same_bits(got, np.concatenate((rp, Rd.ravel(), Rc.ravel())))
