"""Command-line behavior: output shape, exit codes, determinism.

The commands are exercised in-process through main(argv) with captured
stdout; the byte-determinism checks run the installed module in
subprocesses, twice with different hash seeds and under other OpenBLAS
kernels. The golden files under
``tests/data`` pin the stdout of ``rho-sdo --format json`` and of
``verify --format csv`` on the builtin instances byte for byte (and
``rho-sdo`` on kl02_4 at ``PUISEUXPATH_DEGREE_CAP=100000``), and the
``trace_*`` files that of ``trace --format csv``, which prints every
traced sample; their digits are those of x86 80-bit extended precision. The ``curve_*`` files
pin ``polygon --format csv``, ``expand`` and ``rho-curve`` on a list of
curves; that half is exact, so they hold on every platform.
"""

import io
import os
import re
import subprocess
import sys

from pathlib import Path

import numpy as np
import pytest

from puiseuxpath import cli, puiseux
from puiseuxpath.cli import main
from puiseuxpath.curve import DEFAULT_MATCH_TOL

ELL_CUBIC = "2*T^3+(2-1/2*mu)*T^2-(mu+2)*T-2"
DATA = Path(__file__).parent / "data"
BUILTIN_RHO = {"identity_3": 1, "elliptope_3": 2, "kl02_3": 2, "kl02_4": 4,
               "kl02_5": 8}


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


def run_under_blas_kernel(coretype, *argv):
    """The stdout of the CLI in a subprocess that loads this OpenBLAS kernel."""
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
    proc = subprocess.run([sys.executable, "-m", "puiseuxpath.cli", *argv],
                          capture_output=True, env=env, check=True)
    return proc.stdout


class TestCurveCommands:
    def test_rho_curve_elliptope(self, capsys):
        code, cap = run(capsys, "rho-curve", "--poly", ELL_CUBIC,
                        "--limit", "-1")
        assert code == 0
        lines = cap.out.splitlines()
        assert lines[-1] == "rho_i = 2"
        assert any("q=2" in ln and "matched" in ln for ln in lines)

    def test_rho_curve_other_center(self, capsys):
        code, cap = run(capsys, "rho-curve", "--poly", ELL_CUBIC,
                        "--limit", "1")
        assert code == 0
        assert cap.out.splitlines()[-1] == "rho_i = 1"

    def test_expand_cusp(self, capsys):
        code, cap = run(capsys, "expand", "--poly", "Y^2 - X^3")
        assert code == 0
        assert "q=2" in cap.out
        assert "mu^(3/2)" in cap.out
        assert "branches: 1" in cap.out

    def test_polygon_text_and_csv(self, capsys):
        code, cap = run(capsys, "polygon", "--poly", "V^2 - mu^3")
        assert code == 0
        assert "gamma=3/2" in cap.out
        code, cap = run(capsys, "polygon", "--poly", "V^2 - mu^3",
                        "--format", "csv")
        assert code == 0
        lines = cap.out.splitlines()
        assert lines[0] == "j0,m0,j1,m1,gamma,beta"
        assert lines[1] == "0,3,2,0,3/2,3"

    def test_expand_prints_certified_digits(self, capsys):
        # the real part of +-i is exactly zero, not enclosure noise
        code, cap = run(capsys, "expand", "--poly", "V^2 + 1")
        assert code == 0
        assert cap.out.splitlines()[:2] == [
            "[0] center=(0-1i) q=1 series=(0-1i) (exact)",
            "[1] center=(0+1i) q=1 series=(0+1i) (exact)",
        ]

    def test_root_representative_sign_convention(self, capsys):
        # the w-th root kept for T^w = xi has the largest real part and,
        # on a tie, the largest imaginary part: always +i*sqrt(c), never
        # a sign picked by enclosure noise
        form = re.compile(r"series=\(0\+[0-9.]+i\)\*mu\^\(1/2\) \(exact\)$")
        for family in ("V^2 + {}*mu", "V^4 - {}*mu^2", "V^6 + {}*mu^3"):
            for c in range(1, 41):
                code, cap = run(capsys, "expand", "--poly", family.format(c))
                assert code == 0
                assert form.search(cap.out.splitlines()[0]), (family, c, cap.out)

    def test_tiny_coefficients_are_not_printed_as_zero(self, capsys):
        # every branch term is nonzero; on this curve some sit below 2^-48
        # (about 7e-19, 4e-29 and 3e-42), where a 48-bit enclosure still
        # straddles zero
        code, cap = run(capsys, "expand", "--poly",
                        "(V - 1)*(V^2 - 12252240) + mu")
        assert code == 0
        assert cap.out.count("center=") == 3
        assert not re.search(r"(=| \+ )0\*mu", cap.out), cap.out

    def test_rational_center_with_many_divisors(self, capsys):
        code, cap = run(capsys, "expand", "--poly",
                        "(V - 1)*(V^2 - 12252240) + mu")
        assert code == 0
        assert "center=1 q=1 series=1 + 1/12252239*mu + " in cap.out

    def test_tiny_ramified_coefficient_prints_promptly(self):
        # the generator sqrt(-10^-22) has |f'| near 2^-35, below the first
        # refinement's 24 guard bits; each retry must add guard bits, or
        # printing its coefficient stalls on every retry and never ends
        r = subprocess.run(
            [sys.executable, "-m", "puiseuxpath.cli", "expand", "--poly",
             "V^2 + 1/10000000000000000000000*mu"],
            capture_output=True, text=True, timeout=60,
        )
        assert r.returncode == 0
        assert "series=(0+1e-11i)*mu^(1/2) (exact)" in r.stdout

    def test_tiny_roots_keep_largest_real_part(self, capsys):
        code, cap = run(capsys, "expand", "--poly",
                        "V^2 - 5/10000000000000000000000000*mu")
        assert code == 0
        assert "series=7.071067812e-13*mu^(1/2) (exact)" in cap.out

    def test_expand_json(self, capsys):
        import json

        code, cap = run(capsys, "expand", "--poly", "V^2 - mu^3 - mu^2",
                        "--format", "json")
        assert code == 0
        data = json.loads(cap.out)
        assert sorted(b["q"] for b in data) == [1, 1]


class TestInstanceCommands:
    def test_rho_sdo_identity(self, capsys):
        code, cap = run(capsys, "rho-sdo", "--instance", "identity_3.sdo")
        assert code == 0
        assert "rho = 1" in cap.out.splitlines()

    def test_rho_sdo_kl02_4_exact_route_at_raised_cap(self, capsys, monkeypatch):
        # past the a-priori degree gate, kl02_4 runs the full exact chain
        import json
        from collections import Counter

        monkeypatch.setenv("PUISEUXPATH_DEGREE_CAP", "100000")
        code, cap = run(capsys, "rho-sdo", "--instance", "kl02_4",
                        "--format", "json")
        assert code == 0
        data = json.loads(cap.out)
        assert data["rho"] == 4
        routes = Counter(d["route"] for d in data["details"])
        assert routes == {"eliminated": 11, "constant": 10, "order-fit": 3}
        assert sum(d["certified"] for d in data["details"]) == 21
        assert len(data["details"]) == 24

    def test_rho_sdo_malformed_degree_cap_is_bad_input(self, capsys,
                                                       monkeypatch):
        monkeypatch.setenv("PUISEUXPATH_DEGREE_CAP", "abc")
        code, cap = run(capsys, "rho-sdo", "--instance", "elliptope_3")
        assert code == 2
        assert "PUISEUXPATH_DEGREE_CAP" in cap.err

    def test_trace_csv_header(self, capsys):
        code, cap = run(capsys, "trace", "--instance", "identity_3",
                        "--format", "csv")
        assert code == 0
        lines = cap.out.splitlines()
        dim = 1 + 2 * 9
        expected = ",".join(["mu"] + [f"coord_{i}" for i in range(dim)]
                            + ["residual"])
        assert lines[0] == expected
        assert len(lines) == 1 + 27
        assert lines[1].startswith("1.0,")

    def test_trace_reparametrized_plot_data(self, capsys):
        code, cap = run(capsys, "trace", "--instance", "elliptope",
                        "--mu-end", "1e-3", "--rho", "2", "--format", "csv")
        assert code == 0
        lines = cap.out.splitlines()
        assert lines[0].startswith("t,coord_0")
        assert lines[1].startswith("1.0,")

    def test_trace_json(self, capsys):
        import json

        code, cap = run(capsys, "trace", "--instance", "identity_3",
                        "--format", "json")
        assert code == 0
        data = json.loads(cap.out)
        assert data["orders"]["y[0]"] == "1"
        assert abs(data["limits"]["y[0]"] - 1.0) < 1e-9

    def test_verify_identity_bounded(self, capsys):
        code, cap = run(capsys, "verify", "--instance", "identity_3",
                        "--rho", "1")
        assert code == 0
        assert cap.out.splitlines()[-1] == "verdict: bounded"

    def test_verify_elliptope_unbounded(self, capsys):
        code, cap = run(capsys, "verify", "--instance", "elliptope",
                        "--rho", "1", "--window", "0.01", "0.25")
        assert code == 0
        assert cap.out.splitlines()[-1] == "verdict: unbounded"
        assert "X[0,1]" in cap.out


class TestErrors:
    def test_unparsable_polynomial(self, capsys):
        code, cap = run(capsys, "expand", "--poly", "garbage(")
        assert code == 2
        assert "error [parser]" in cap.err

    def test_unknown_instance(self, capsys):
        code, cap = run(capsys, "rho-sdo", "--instance", "missing.sdo")
        assert code == 2
        assert "error [input]" in cap.err

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_instance_path_exits_2(self, capsys, tmp_path, kind):
        # both used to end in a traceback and exit 1, the closed-pipe code
        path = tmp_path
        if kind == "not_utf8":
            path = tmp_path / "bad.sdo"
            path.write_bytes(b"\xff")
        code, cap = run(capsys, "rho-sdo", "--instance", str(path))
        assert code == 2
        assert cap.out == ""
        assert f"error [input]: cannot read instance {str(path)!r}" in cap.err

    def test_instance_entry_past_long_double_exits_2(self, capsys, tmp_path):
        # 2^64 + 1 rounds to 2^64 in long double, so the exact chain would
        # have read another instance
        path = tmp_path / "big.sdo"
        path.write_text("1 1\n1\n18446744073709551617\n1\n")
        code, cap = run(capsys, "rho-sdo", "--instance", str(path))
        assert code == 2
        assert cap.out == ""
        assert ("error [input]: b[0] = 18446744073709551617 is not an integer"
                in cap.err)

    def test_no_matching_branch(self, capsys):
        code, cap = run(capsys, "rho-curve", "--poly", "V - 5*mu",
                        "--limit", "3")
        assert code == 3
        assert "error [matching]" in cap.err

    def test_ambiguous_center_is_printed_in_digits(self, capsys):
        # two centers sit 1e-6 off the real axis, on the tolerance's edge
        code, cap = run(capsys, "rho-curve", "--poly",
                        "(V^2 - 1/1000000000000 - 2)^2 + 4/1000000000000*V^2"
                        " + mu", "--limit", "1.4142135", "--tol", "1/1000000")
        assert code == 3
        assert cap.out == ""
        assert cap.err == (
            "error [matching]: center (1.414213562-1e-06i) cannot be accepted"
            " or rejected against [2828427/2000000, 2828427/2000000] at"
            " tolerance 1/1000000\n")

    def test_match_tol_default_is_the_library_default(self):
        args = cli._build_parser().parse_args(
            ["rho-curve", "--poly", "V", "--limit", "0"])
        assert args.tol is DEFAULT_MATCH_TOL

    def test_missing_instance_path_exits_2(self, capsys, tmp_path):
        # a path with a directory part never falls back to the builtin
        # its file name spells
        path = str(tmp_path / "missing" / "kl02_3.txt")
        code, cap = run(capsys, "rho-sdo", "--instance", path)
        assert code == 2
        assert cap.out == ""
        assert cap.err == (f"error [input]: cannot read instance {path!r}:"
                           " No such file or directory\n")

    def test_negative_match_tol_exits_2(self, capsys):
        # used to end in a ValueError traceback and exit 1
        code, cap = run(capsys, "rho-curve", "--poly", "V^2-mu",
                        "--limit", "0", "--tol", "-1")
        assert code == 2
        assert cap.out == ""
        assert "error [input]: tolerance must be nonnegative" in cap.err

    @pytest.mark.parametrize("fmt", [None, "text", "json"])
    def test_trace_rho_without_csv_exits_2(self, capsys, fmt):
        # --rho used to be dropped silently outside csv, printing the
        # plain trace with exit 0
        argv = ["trace", "--instance", "identity_3", "--rho", "2"]
        code, cap = run(capsys, *argv, *(["--format", fmt] if fmt else []))
        assert code == 2
        assert cap.out == ""
        assert cap.err == "error [input]: --rho needs --format csv\n"

    def test_zero_denominator_in_poly_exits_2(self, capsys):
        # used to end in a ZeroDivisionError traceback and exit 1
        code, cap = run(capsys, "expand", "--poly", "V^2/0")
        assert code == 2
        assert cap.out == ""
        assert "error [parser]: division by zero" in cap.err

    @pytest.mark.parametrize("flag", ["--limit", "--tol"])
    def test_zero_denominator_in_rational_flag_exits_2(self, capsys, flag):
        # argparse let Fraction's ZeroDivisionError through as a traceback
        argv = ["rho-curve", "--poly", "V^2-mu", "--limit", "0", flag, "1/0"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "not a rational number: '1/0'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["expand", "rho-curve"])
    @pytest.mark.parametrize("terms", ["-3", "-1", "two", "101", "1000000000"])
    def test_bad_terms_exits_2(self, capsys, command, terms):
        # a negative count used to be taken as 0 without a word, and a
        # count of 10^9 ran without end
        argv = [command, "--poly", "V^2-mu", "--terms", terms]
        if command == "rho-curve":
            argv += ["--limit", "0"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert "--terms" in cap.err

    @pytest.mark.parametrize("command", ["expand", "rho-curve"])
    def test_largest_terms_runs(self, capsys, command):
        assert cli.MAX_TERMS == 100
        argv = [command, "--poly", "V^2 - mu - mu^2", "--terms", "100"]
        if command == "rho-curve":
            argv += ["--limit", "0"]
        code, cap = run(capsys, *argv)
        assert code == 0
        # one branch, sqrt(mu + mu^2): its leading term and 100 more
        assert cap.out.count("mu^(") == 101
        assert cap.err == ""

    def test_rho_curve_terms_0_prints_no_extra_term(self, capsys):
        # it used to print one extra term, where expand --terms 0 printed none
        argv = ["--poly", ELL_CUBIC, "--terms", "0"]
        code, cap = run(capsys, "rho-curve", *argv, "--limit", "-1")
        assert code == 0
        assert cap.out == (
            "[0] center=-1 q=2 series=-1 + 0.3535533906*mu^(1/2)  matched\n"
            "[1] center=1 q=1 series=1  -\n"
            "rho_i = 2\n"
        )
        code, cap = run(capsys, "expand", *argv)
        assert code == 0
        assert cap.out == (
            "[0] center=-1 q=2 series=-1 + 0.3535533906*mu^(1/2)\n"
            "[1] center=1 q=1 series=1\n"
            "branches: 2\n"
        )

    def test_collapsed_working_polynomial_exits_3(self, capsys, monkeypatch):
        # used to end in an ArithmeticError traceback
        monkeypatch.setattr(puiseux, "gp_is_zero", lambda tw, depth, a: True)
        code, cap = run(capsys, "expand", "--poly", "V^2 - mu - mu^2")
        assert code == 3
        assert cap.out == ""
        assert cap.err == ("error [expansion]: working polynomial "
                           "collapsed to zero\n")

    def test_lost_simple_root_exits_3(self, capsys, monkeypatch):
        # used to end in an ArithmeticError traceback
        substitute = puiseux._substitute

        def drop_linear_constant(*args):
            out = substitute(*args)
            out[1].pop(0, None)
            return out

        monkeypatch.setattr(puiseux, "_substitute", drop_linear_constant)
        code, cap = run(capsys, "rho-curve", "--poly", "V^2 - mu - mu^2",
                        "--limit", "0")
        assert code == 3
        assert cap.out == ""
        assert cap.err == ("error [expansion]: stabilized branch lost its "
                           "simple-root certificate\n")

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--nope", "x"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["rho-sdo", "trace", "verify"])
    @pytest.mark.parametrize("tol", ["inf", "-1", "nan"])
    def test_tol_must_be_finite_and_positive(self, capsys, command, tol):
        # an infinite tol used to accept every start as converged and print
        # rho = 1 for kl02_3, whose rho is 2
        argv = [command, "--instance", "kl02_3", "--tol", tol]
        if command == "verify":
            argv += ["--rho", "1"]
        code, cap = run(capsys, *argv)
        assert code == 2
        assert cap.out == ""
        assert "error [input]: tol must be finite and positive" in cap.err

    @pytest.mark.parametrize("command", ["rho-sdo", "trace"])
    def test_tol_must_lie_below_mu_end(self, capsys, command):
        # a residual of 1e300 took every start as converged, and rho-sdo
        # printed rho = 1 for kl02_3, whose rho is 2
        code, cap = run(capsys, command, "--instance", "kl02_3",
                        "--tol", "1e300")
        assert code == 2
        assert cap.out == ""
        assert "error [input]: tol must lie below mu_end" in cap.err

    def test_infinite_mu_start_exits_2(self, capsys):
        # inf * ratio^k never drops below mu_end, so the grid never ended
        code, cap = run(capsys, "trace", "--instance", "kl02_3",
                        "--mu-start", "inf", "--format", "csv")
        assert code == 2
        assert cap.out == ""
        assert "error [input]: need 0 < mu_end < mu_start < inf" in cap.err

    def test_bad_rho_for_plot_data(self, capsys, monkeypatch):
        # --rho is checked before the path is traced
        def no_trace(*args, **kwargs):
            raise AssertionError("trace_path called")

        monkeypatch.setattr(cli, "trace_path", no_trace)
        code, cap = run(capsys, "trace", "--instance", "identity_3",
                        "--rho", "0", "--format", "csv")
        assert code == 2
        assert cap.out == ""
        assert "error [input]: --rho must be a positive integer" in cap.err


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestBrokenPipe:
    def test_closed_stdout_exits_quietly(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert main(["expand", "--poly", "V^2 + 3*mu"]) == 1
        assert capsys.readouterr().err == ""

    def test_closed_pipe_in_a_subprocess(self):
        # the reader is gone before the first write, as after `| head -1`
        for cmd in (["expand", "--poly", "V^2 + 3*mu"],
                    ["trace", "--instance", "kl02_3", "--format", "csv"]):
            proc = subprocess.Popen(
                [sys.executable, "-m", "puiseuxpath.cli"] + cmd,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert proc.wait(timeout=120) == 1
            assert err == b""


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                    reason="golden digits are those of x86 80-bit long double")
class TestGoldenOutput:
    @pytest.mark.parametrize("name", BUILTIN_RHO)
    def test_rho_sdo_json(self, capsys, monkeypatch, name):
        monkeypatch.delenv("PUISEUXPATH_DEGREE_CAP", raising=False)
        code, cap = run(capsys, "rho-sdo", "--instance", name, "--format", "json")
        assert code == 0
        assert cap.out.encode() == (DATA / f"rho_sdo_{name}.json").read_bytes()

    def test_rho_sdo_kl02_4_json_at_raised_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("PUISEUXPATH_DEGREE_CAP", "100000")
        code, cap = run(capsys, "rho-sdo", "--instance", "kl02_4",
                        "--format", "json")
        assert code == 0
        golden = DATA / "rho_sdo_kl02_4_raised_cap.json"
        assert cap.out.encode() == golden.read_bytes()

    @pytest.mark.parametrize("name, rho", BUILTIN_RHO.items())
    def test_verify_csv(self, capsys, name, rho):
        code, cap = run(capsys, "verify", "--instance", name, "--rho", str(rho),
                        "--format", "csv")
        assert code == 0
        golden = DATA / f"verify_{name}_rho{rho}.csv"
        assert cap.out.encode() == golden.read_bytes()

    @pytest.mark.parametrize("golden, argv", [
        ("trace_kl02_5.csv", ("--instance", "kl02_5")),
        ("trace_elliptope_3.csv", ("--instance", "elliptope_3")),
        ("trace_kl02_4_rho4.csv", ("--instance", "kl02_4", "--rho", "4")),
        ("trace_identity_3.csv", ("--instance", "identity_3")),
        ("trace_kl02_3.csv", ("--instance", "kl02_3")),
        ("trace_kl02_4.csv", ("--instance", "kl02_4")),
    ])
    def test_trace_csv(self, capsys, golden, argv):
        code, cap = run(capsys, "trace", *argv, "--format", "csv")
        assert code == 0
        assert cap.out.encode() == (DATA / golden).read_bytes()

    def test_rho_plot_data_traces_no_plain_path(self, capsys, monkeypatch):
        # the plain path was traced only to read its mu grid
        def no_trace(*args, **kwargs):
            raise AssertionError("trace_path called")

        monkeypatch.setattr(cli, "trace_path", no_trace)
        code, cap = run(capsys, "trace", "--instance", "kl02_4", "--rho", "4",
                        "--format", "csv")
        assert code == 0
        assert cap.out.encode() == (DATA / "trace_kl02_4_rho4.csv").read_bytes()

    def test_trace_csv_under_another_blas_kernel(self):
        # the Newton step is solved on Python floats, so the traced bits do
        # not depend on the BLAS kernel numpy loads for the host's CPU
        out = run_under_blas_kernel("Prescott", "trace", "--instance",
                                    "elliptope_3", "--format", "csv")
        assert out == (DATA / "trace_elliptope_3.csv").read_bytes()

    def test_verify_csv_under_another_blas_kernel(self):
        # kl02_5 forms the largest Schur complements, in long double numpy,
        # which calls no BLAS
        out = run_under_blas_kernel("Prescott", "verify", "--instance",
                                    "kl02_5", "--rho", "8", "--format", "csv")
        assert out == (DATA / "verify_kl02_5_rho8.csv").read_bytes()


# name -> (polynomial, rho-curve limit): the README examples and curves
# whose branches live on towers of depth 1 and 2
GOLDEN_CURVES = {
    "cusp": ("V^2 - mu^3", "0"),
    "readme_cubic": ("2*T^3 + (2 - 1/2*mu)*T^2 - (mu + 2)*T - 2", "-1"),
    "quartic_root": ("V^4 - 7/243*mu", "0"),
    "sextic": ("V^6 + 7*mu^3", "0"),
    "constant_cubic": ("2*V^3 + 5*V^2 + V + 1", "-2.378160679"),
    "double_sqrt2": ("(V^2 - 2)^2 - mu*V^3", "1.414213562"),
    "sqrt2_times_cusp": ("(V^2 - 2)*(V^3 - mu) + mu^2", "0"),
    "quintic": ("V^5 - 2*mu*V^2 + mu^3", "0"),
    "quartic": ("V^4 + mu*V + mu^3", "0"),
    "imaginary_centers": ("(V^2 + 1)*(V^2 - 2*mu) - mu^2*V", "0"),
    # two multiplicity-2 children, each continued on its own as a lone node
    "two_double_centers": (
        "(((V-1)^2 - mu)^2 - mu^5)*(((V+1)^2 - 2*mu)^2 - mu^5)", "1"
    ),
    # theta 6: expand_curve's first pass falls short and doubles once
    "retry_theta6": (
        "(3*mu^7 + 9*mu^6)*V^8 - 7*V^7 + 3*mu^8*V^4 - 6*mu^2*V^2 + 9*mu^2",
        "0",
    ),
}


class TestGoldenCurveOutput:
    """The curve half is exact and fixed-point, so its stdout is pinned
    byte for byte on every platform."""

    @pytest.mark.parametrize("name", GOLDEN_CURVES)
    def test_polygon_csv(self, capsys, name):
        poly, _ = GOLDEN_CURVES[name]
        code, cap = run(capsys, "polygon", "--poly", poly, "--format", "csv")
        assert code == 0
        golden = DATA / f"curve_{name}_polygon.csv"
        assert cap.out.encode() == golden.read_bytes()

    @pytest.mark.parametrize("name", GOLDEN_CURVES)
    def test_expand(self, capsys, name):
        poly, _ = GOLDEN_CURVES[name]
        code, cap = run(capsys, "expand", "--poly", poly)
        assert code == 0
        assert cap.out.encode() == (DATA / f"curve_{name}_expand.txt").read_bytes()

    @pytest.mark.parametrize("name", GOLDEN_CURVES)
    def test_rho_curve(self, capsys, name):
        poly, limit = GOLDEN_CURVES[name]
        code, cap = run(capsys, "rho-curve", "--poly", poly, "--limit", limit)
        assert code == 0
        golden = DATA / f"curve_{name}_rho_curve.txt"
        assert cap.out.encode() == golden.read_bytes()


class TestDeterminism:
    def test_byte_identical_across_processes(self):
        cmds = [
            ["rho-curve", "--poly", ELL_CUBIC, "--limit", "-1"],
            ["rho-sdo", "--instance", "identity_3", "--format", "json"],
        ]
        for cmd in cmds:
            outs = []
            for seed in ("1", "2"):
                env = dict(os.environ, PYTHONHASHSEED=seed)
                r = subprocess.run(
                    [sys.executable, "-m", "puiseuxpath.cli"] + cmd,
                    capture_output=True, env=env, check=True,
                )
                outs.append(r.stdout)
            assert outs[0] == outs[1]

    @pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
    def test_verify_json_under_other_blas_kernels(self, capsys, coretype):
        # each growth slope is summed by math.fsum, not by a BLAS dot
        # product, so its last digit does not follow the host's CPU
        argv = ("verify", "--instance", "kl02_3", "--rho", "2",
                "--format", "json")
        code, cap = run(capsys, *argv)
        assert code == 0
        assert run_under_blas_kernel(coretype, *argv) == cap.out.encode()
