"""Instance-level exponent computation, routes and downgrade labels.

Hand-checked expectations:

* identity: only y and the S diagonal move, both analytically, so
  rho = 1. The eliminated y curve carries a co-centered extraneous
  branch; both branches have q = 1, so the certificate holds.
* elliptope: every moving coordinate decays like sqrt(mu) through the
  cubic's ramified branch; rho = 2. y[1] also matches the exact branch
  V = -1 (q = 1), so its q set {1, 2} is not certified.
* kl02 n = 3: exact curves all the way down (2V^2 - mu and friends),
  every one irreducible, so the certificate survives; rho = 2.
* kl02 n = 4: elimination is pre-guarded away and the fitted orders
  (slowest y_2 ~ mu^(1/4)) drive the heuristic answer rho = 4.
* S-pin instance, A = (E00, E01 + E10), b = (1, 0), C = [[0, 1], [1, 1]]:
  X = diag(1, mu), y = (-mu, 1), S = diag(mu, 1), every curve linear,
  so rho = 1, certified.
"""

import pytest

from puiseuxpath import puiseux
from puiseuxpath.curve import RhoReport
from puiseuxpath.errors import EliminationBlowUpError, NoMatchError
from puiseuxpath.pipeline import compute_rho_sdo
from puiseuxpath.polynomials import parse_bipoly
from puiseuxpath.sdo import (
    SDOInstance,
    elliptope_instance,
    identity_instance,
    kl02_instance,
    trace_path,
)

F_ELL = parse_bipoly("2*T^3 + (2 - 1/2*mu)*T^2 - (mu + 2)*T - 2")


def detail_for(report: RhoReport, label: str) -> dict:
    return next(d for d in report.details if d["label"] == label)


def matched_qs(report: RhoReport, label: str) -> list[int]:
    index = detail_for(report, label)["index"]
    matched = next(m for i, m, _ in report.per_coordinate if i == index)
    return sorted(b.q for b in matched)


@pytest.fixture(scope="module")
def elliptope_report():
    return compute_rho_sdo(elliptope_instance())


class TestIdentity:
    def test_rho(self):
        rep = compute_rho_sdo(identity_instance(3))
        assert rep.rho == 1
        assert all(rho_i == 1 for _, _, rho_i in rep.per_coordinate)

    def test_routes(self):
        rep = compute_rho_sdo(identity_instance(3))
        assert detail_for(rep, "X[0,0]")["route"] == "constant"
        y = detail_for(rep, "y[0]")
        assert y["route"] == "eliminated"
        assert y["order"] == "1"
        assert "divides" in y["cross_check"]

    def test_one_shared_q_certifies(self):
        # two matched branches, both q = 1: the path's branch has q = 1
        rep = compute_rho_sdo(identity_instance(3))
        assert matched_qs(rep, "y[0]") == [1, 1]
        assert detail_for(rep, "y[0]")["certified"]
        assert rep.optimality_note == "irreducible-certified"


class TestElliptope:
    def test_rho(self, elliptope_report):
        assert elliptope_report.rho == 2

    def test_moving_coordinates_all_ramified(self, elliptope_report):
        for d in elliptope_report.details:
            if d["route"] == "eliminated":
                assert d["rho_i"] == 2
            else:
                assert d["route"] == "constant" and d["rho_i"] == 1

    def test_mixed_qs_are_not_certified(self, elliptope_report):
        assert matched_qs(elliptope_report, "y[1]") == [1, 2]
        assert not detail_for(elliptope_report, "y[1]")["certified"]
        assert elliptope_report.optimality_note == "product-fallback"

    def test_cross_checks_pass(self, elliptope_report):
        for d in elliptope_report.details:
            if d["cross_check"] is not None:
                assert "DOES NOT" not in d["cross_check"]

    def test_supplied_curve_short_circuits(self):
        rep = compute_rho_sdo(elliptope_instance(), curves={1: F_ELL})
        d = detail_for(rep, "X[0,1]")
        assert d["route"] == "supplied"
        assert d["rho_i"] == 2
        assert d["certified"]
        assert rep.rho == 2

    def test_supplied_curve_that_misses_the_path(self):
        with pytest.raises(NoMatchError, match=r"X\[0,1\]"):
            compute_rho_sdo(
                elliptope_instance(), curves={1: parse_bipoly("V - 5")}
            )

    def test_report_dict(self, elliptope_report):
        d = elliptope_report.as_dict()
        assert d["rho"] == 2
        assert len(d["coordinates"]) == len(elliptope_report.details)
        assert d["details"][0]["label"] == "X[0,0]"


class TestKl02:
    def test_n3_exact_and_certified(self):
        rep = compute_rho_sdo(kl02_instance(3))
        assert rep.rho == 2
        assert rep.optimality_note == "irreducible-certified"
        y2 = detail_for(rep, "y[1]")
        assert y2["route"] == "eliminated"
        assert y2["curve"] == "2*V^2 - mu"
        assert y2["rho_i"] == 2

    def test_n4_heuristic_fallback(self):
        rep = compute_rho_sdo(kl02_instance(4))
        assert rep.rho == 4
        assert rep.optimality_note == "order-fit-heuristic"
        y2 = detail_for(rep, "y[1]")
        assert y2["route"] == "order-fit"
        assert y2["order"] == "1/4"
        assert y2["rho_i"] == 4
        assert "cap" in y2["exact_failure"]

    def test_failed_cross_check_does_not_certify(self):
        # V - mu has the one branch q = 1, but X[1,1] (on V^2 - 2*mu)
        # decays like mu^(1/2): the fitted order contradicts the curve
        rep = compute_rho_sdo(kl02_instance(3),
                              curves={4: parse_bipoly("V - mu")})
        x11 = detail_for(rep, "X[1,1]")
        assert x11["route"] == "supplied"
        assert "DOES NOT divide" in x11["cross_check"]
        assert x11["certified"] is False
        assert rep.optimality_note == "product-fallback"

    def test_n4_without_usable_orders_propagates(self):
        # four samples are too few to fit any order, so the blow-up
        # cannot be absorbed and surfaces with the coordinate named
        short = trace_path(kl02_instance(4), 1.0, 0.1, 0.5)
        with pytest.raises(EliminationBlowUpError, match="coordinate"):
            compute_rho_sdo(kl02_instance(4), trace=short)


class TestSPin:
    def test_rho_and_note(self):
        inst = SDOInstance([[[1, 0], [0, 0]], [[0, 1], [1, 0]]], [1, 0],
                           [[0, 1], [1, 1]], name="s_pin")
        rep = compute_rho_sdo(inst)
        assert rep.rho == 1
        assert rep.optimality_note == "irreducible-certified"


class TestReuse:
    def test_precomputed_trace(self):
        inst = elliptope_instance()
        tr = trace_path(inst, 1.0, 1e-8, 0.5)
        assert compute_rho_sdo(inst, trace=tr).rho == 2

    def test_second_call_on_one_instance_repeats_the_report(self):
        # the resultant memo is dropped when a call returns; the stripped
        # rows stay, and a second call recomputes the same report
        inst = elliptope_instance()
        tr = trace_path(inst)
        first = compute_rho_sdo(inst, trace=tr)
        system = inst._elimination
        assert system.rows and system.resultants == {}
        second = compute_rho_sdo(inst, trace=tr)
        assert inst._elimination is system and system.resultants == {}
        assert second.as_dict() == first.as_dict()


class TestWork:
    def test_branches_stop_once_q_is_settled(self, monkeypatch):
        # rho-sdo reads q and the center at exponent theta, so no branch
        # is expanded past its simple root: 32 substitutions, where four
        # unread extra terms per branch made 120
        calls = 0
        substitute = puiseux._substitute

        def counted(*args):
            nonlocal calls
            calls += 1
            return substitute(*args)

        monkeypatch.setattr(puiseux, "_substitute", counted)
        rep = compute_rho_sdo(elliptope_instance())
        assert rep.rho == 2
        assert calls == 32
