"""Command-line contract: output shapes, exit codes, text/json agreement."""

import cmath
import contextlib
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foursquares
from foursquares import cli, forms, modgroup, numtheory
from foursquares.cli import ANALYTIC_CHECKS, MAX_ORDER, run
from foursquares.numtheory import R4_MAX_N
from foursquares.qseries import format_golden

GOLDEN_DIR = "golden"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestExpand:
    def test_prints_golden_lines(self):
        code, out, _ = invoke(["expand", "theta", "--order", "10"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0: 1"
        assert lines[1] == "1: 2"
        assert len(lines) == 11

    def test_exact_rationals_not_floats(self):
        code, out, _ = invoke(["expand", "phi", "--order", "3"])
        assert code == 0
        assert "10/7" in out
        assert "." not in out

    @pytest.mark.parametrize("name", tuple(cli._SERIES))
    def test_lines_and_json_match_the_golden_format(self, name):
        # expand formats each coefficient once; format_golden is its oracle,
        # and the JSON list holds the text after ": " of each line
        for order in (0, 1, 37, 300):
            lines = format_golden(getattr(forms, cli._SERIES[name])(order)).splitlines()
            code, out, err = invoke(["expand", name, "--order", str(order)])
            assert (code, out.splitlines(), err) == (0, lines, "")
            doc = json.loads(invoke(["expand", name, "--order", str(order), "--format", "json"])[1])
            assert doc["coefficients"] == [line.partition(": ")[2] for line in lines]

    def test_json_round_trips(self):
        code, out, _ = invoke(["expand", "L", "--order", "4", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["coefficients"] == ["1", "-24", "-72", "-96", "-168"]

    def test_golden_comparison(self):
        code, out, _ = invoke(
            ["expand", "theta4", "--order", "60", "--golden-dir", GOLDEN_DIR]
        )
        assert code == 0
        assert out.startswith("PASS")

    def test_golden_mismatch_names_first_bad_coefficient(self, tmp_path):
        lines = Path(GOLDEN_DIR, "phi.txt").read_text().splitlines()
        lines[5] = "5: 7/3"
        (tmp_path / "phi.txt").write_text("\n".join(lines) + "\n")
        argv = ["expand", "phi", "--order", "40", "--golden-dir", str(tmp_path)]
        code, out, _ = invoke(argv)
        assert code == 1
        assert out.startswith("FAIL phi vs ")
        assert "coefficient 5 got 7419742/267995, expected 7/3" in out
        code, out, _ = invoke([*argv, "--format", "json"])
        assert code == 1
        assert json.loads(out)["witness"] == {"n": 5, "got": "7419742/267995", "expected": "7/3"}

    def test_missing_golden_is_usage_error(self):
        code, _, err = invoke(
            ["expand", "theta4", "--order", "10", "--golden-dir", "/nonexistent"]
        )
        assert code == 2
        assert "error" in err

    def test_unknown_series(self):
        code, _, _ = invoke(["expand", "eta", "--order", "10"])
        assert code == 2

    def test_order_ceiling(self):
        code, out, _ = invoke(["expand", "phi", "--order", str(MAX_ORDER)])
        assert code == 0
        assert out.splitlines()[-1].startswith(f"{MAX_ORDER}: ")
        for command, name in (("expand", "phi"), ("verify", "psi-triple")):
            code, out, err = invoke([command, name, "--order", str(MAX_ORDER + 1)])
            assert code == 2 and out == ""
            assert err == f"error: order must be <= {MAX_ORDER}\n"


class TestVerify:
    def test_jacobi_passes(self):
        code, out, _ = invoke(["verify", "jacobi", "--order", "99"])
        assert code == 0
        assert out.startswith("PASS")

    def test_json_matches_text_verdict(self):
        for name in ("jacobi", "ode", "lambert", "proportionality"):
            tcode, tout, _ = invoke(["verify", name, "--order", "50"])
            jcode, jout, _ = invoke(["verify", name, "--order", "50", "--format", "json"])
            assert tcode == jcode == 0
            doc = json.loads(jout)
            assert doc["pass"] is tout.startswith("PASS")

    def test_proportionality_constant(self):
        code, out, _ = invoke(["verify", "proportionality", "--order", "200", "--format", "json"])
        assert code == 0
        assert json.loads(out)["witness"] == "constant = -1/3"

    def test_bad_order_is_usage_error(self):
        code, _, err = invoke(["verify", "jacobi", "--order", "0"])
        assert code == 2
        assert "error" in err


class TestVerifyAnalytic:
    def test_poisson_multi_report(self):
        code, out, _ = invoke(["verify-analytic", "poisson", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert len(doc["reports"]) == 4

    def test_no_poisson_point_is_its_own_image(self):
        # t = 1/(4t) compares theta(it) with itself: error 0 for any theta
        assert all(1 / (4 * t) != t for t in cli.POISSON_POINTS)

    def test_every_poisson_point_detects_a_changed_theta(self, monkeypatch):
        from foursquares import analytic
        real = analytic.theta_eval

        def shifted(tau):  # theta + 1e-10 q
            return real(tau) + 1e-10 * cmath.exp(2j * cmath.pi * tau)

        monkeypatch.setattr(analytic, "theta_eval", shifted)
        code, out, _ = invoke(["verify-analytic", "poisson", "--format", "json"])
        assert code == 1
        assert not any(r["pass"] for r in json.loads(out)["reports"])

    def test_theta_transform_default_point(self):
        code, out, _ = invoke(["verify-analytic", "theta-transform"])
        assert code == 0
        assert "PASS" in out

    def test_quasimodular_with_matrix(self):
        for tau in ("0.1,1.2", "-0.1,1.2"):
            code, out, _ = invoke(
                ["verify-analytic", "quasimodular", "--tau", tau,
                 "--matrix", "[[0,-1],[1,0]]"]
            )
            assert code == 0

    def test_xi_default_runs_with_zero_flags(self):
        code, out, _ = invoke(["verify-analytic", "xi"])
        assert code == 0

    def test_weight1_default(self):
        code, _, _ = invoke(["verify-analytic", "weight1"])
        assert code == 0

    def test_ode_solution_default(self):
        code, _, _ = invoke(["verify-analytic", "ode-solution"])
        assert code == 0

    def test_g4_small_radius(self):
        # the radius comes from the omitted rows' bound: 13 rows at tau = i
        code, out, _ = invoke(
            ["verify-analytic", "g4", "--tau", "0,1", "--tol", "1e-4", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["error"] < 1e-4
        assert doc["witness"].startswith("rows |c|<=13, omitted<=")

    def test_g4_default_tolerance_at_rounding_level(self):
        # the omitted rows' bound is under 1e-17, so rounding sets the tolerance
        code, out, err = invoke(["verify-analytic", "g4", "--format", "json"])
        assert code == 0 and err == ""
        doc = _strict_json(out)
        assert doc["pass"] is True and doc["error"] < doc["tol"] < 1e-14
        assert doc["witness"] == "rows |c|<=12, omitted<=2.7e-18"

    def test_row_sums(self):
        for check in ("row-sum2", "row-sum4"):
            code, out, _ = invoke(["verify-analytic", check, "--tau", "0,1", "--format", "json"])
            assert code == 0
            doc = json.loads(out)
            assert doc["error"] < doc["tol"] < 1e-13

    @pytest.mark.parametrize("tau", ["0.3,1e100", "0.3,1e300"])
    @pytest.mark.parametrize("name", ANALYTIC_CHECKS)
    def test_far_above_the_axis_is_finite_or_usage_error(self, name, tau):
        # (tau + d)^-4 overflows to NaN from about im(tau) = 1e77 and
        # (tau + d)^-2 from 1e154: a check answers in finite numbers or
        # exits 2, in text and in strict JSON.
        def reject(constant):
            raise AssertionError(f"non-finite {constant} in JSON")

        for fmt in ("text", "json"):
            code, out, err = invoke(["verify-analytic", name, "--tau", tau, "--format", fmt])
            assert code in (0, 2)
            assert not re.search(r"\b(nan|inf|infinity)\b", out + err, re.IGNORECASE)
            if code == 2:
                assert out == "" and err.startswith("error: ")
                # every refusal names the height it is about, bar the checks
                # that take no point at all
                assert "im(" in err or "takes no --tau" in err
            elif fmt == "json":
                json.loads(out, parse_constant=reject)

    @pytest.mark.parametrize("name, cause", [
        ("ode-solution", "overflows at im(tau) = 1e+100"),
        ("theta-transform", "at -1/(4 tau), im 2.5e-101, for im(tau) = 1e+100"),
    ])
    def test_far_above_the_axis_names_the_cause(self, name, cause):
        # g's factor exp(-i pi tau / 6) overflows; theta-transform's image
        # -1/(4 tau) falls where |q| rounds to 1
        code, out, err = invoke(["verify-analytic", name, "--tau", "0.3,1e100"])
        assert code == 2 and out == ""
        assert cause in err

    def test_ode_solution_at_rho(self):
        # E4(rho) = 0: g'' and h'' are rounding noise there, and the check passes
        code, out, err = invoke(["verify-analytic", "ode-solution", "--tau", "0.5,0.8660254037844386"])
        assert code == 0 and err == ""
        assert out.startswith("PASS ode-solution")

    @pytest.mark.parametrize("argv", [
        ["g4", "--tau", "0.3,1e-120"],
        ["g4", "--tau", "0.3,1e-300"],
    ])
    def test_cutoff_above_ceiling_is_usage_error(self, argv):
        # G4_lattice would refuse here, as the bound on the rows past the
        # ceiling of 3,000 leaves double range, but M's sum, taken first,
        # already finds |q| rounded to 1
        code, out, err = invoke(["verify-analytic", *argv])
        assert code == 2 and out == ""
        assert f"im(tau) = {argv[-1][4:]} too small" in err

    @pytest.mark.parametrize("argv, cause", [
        (["g4", "--tau", "0.3,1e-10"], "im(tau) = 1e-10 too small for double-precision series evaluation"),
        (["g4", "--tau", "0.3,1e-60"], "im(tau) = 1e-60 too small: |q| >= 1"),
    ], ids=["1e-10", "1e-60"])
    def test_series_refusal_names_the_height(self, argv, cause):
        # the lattice radius and its bound stay in double range at both
        # heights; M's sum then runs out of terms (1e-10) or finds |q|
        # rounded to 1 (1e-60) before any row is summed
        assert invoke(["verify-analytic", *argv]) == (2, "", f"error: {cause}\n")

    def test_series_order_flag_is_unrecognized(self):
        # term counts come from tail bounds, and the row sums take every d
        # through their Euler-Maclaurin tails; there is no flag to raise either
        # nor the lattice radius, which the omitted rows' bound sets
        for name, flag in (("ode-solution", "--series-order"), ("row-sum2", "--row-cutoff"),
                           ("g4", "--lattice-radius")):
            code, out, err = invoke(["verify-analytic", name, flag, "5000"])
            assert code == 2 and out == ""
            assert f"unrecognized arguments: {flag}" in err

    def test_precondition_violation_is_usage_error(self):
        code, _, err = invoke(
            ["verify-analytic", "quasimodular", "--tau", "0.3,1.5",
             "--matrix", "[[1,0],[4,1]]"]
        )
        assert code == 2
        assert "0.05" in err
        for flags in (["--tol", "inf"], ["--tol", "nan"], ["--tau", "nan,1"], ["--tau", "1,inf"]):
            code, out, err = invoke(["verify-analytic", "theta-transform", *flags])
            assert code == 2 and out == ""
            assert "finite" in err

    @pytest.mark.parametrize("argv", [
        ["poisson", "--tau", "0.3,1"],
        ["poisson", "--matrix", "[[1,1],[0,1]]"],
        ["cusp", "--tau", "0.3,1", "--matrix", "[[1,1],[0,1]]"],
        ["theta-transform", "--matrix", "[[1,1],[0,1]]"],
        ["monodromy", "--matrix", "[[0,-1],[1,0]]"],
        ["g4", "--matrix", "[[0,-1],[1,0]]"],
        ["row-sum4", "--matrix", "[[1,1],[0,1]]"],
        ["ode-solution", "--matrix", "[[0,-1],[1,0]]"],
        ["cusp", "--tau", "0.3,1"],
    ])
    def test_flag_the_check_does_not_take_is_usage_error(self, argv):
        code, out, err = invoke(["verify-analytic", *argv])
        assert code == 2 and out == ""
        assert f"verify-analytic {argv[0]} takes no" in err

    def test_monodromy_default(self):
        code, out, err = invoke(["verify-analytic", "monodromy", "--format", "json"])
        assert code == 0 and err == ""
        doc = _strict_json(out)
        assert doc["pass"] is True and doc["identity"] == "monodromy"
        assert doc["error"] < 1e-14
        assert doc["witness"].startswith("F(i)=(0.35054552633136")

    def test_monodromy_names_the_image_below_the_floor(self):
        # -1/tau has im 0.029 for tau = 3.2 + 0.3i
        code, out, err = invoke(["verify-analytic", "monodromy", "--tau", "3.2,0.3"])
        assert code == 2 and out == ""
        assert err.startswith("error: at -1/tau, im 0.029, for im(tau) = 0.3: ")

    def test_xi_outside_group_fails(self):
        code, _, err = invoke(
            ["verify-analytic", "xi", "--matrix", "[[0,-1],[1,0]]"]
        )
        assert code == 1


class TestR4:
    def test_agreement(self):
        code, out, _ = invoke(["r4", "1"])
        assert code == 0
        assert "bruteforce=8" in out and "jacobi=8" in out and "theta4=8" in out

    def test_zero_has_no_jacobi_value(self):
        code, out, _ = invoke(["r4", "0", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["jacobi_formula"] is None
        assert doc["bruteforce"] == 1

    @pytest.mark.parametrize("n, count", [
        (0, 1), (1, 8), (10, 144), (100_000, 93_744), (200_000, 93_744),
    ])
    def test_text_and_json_are_pinned(self, n, count):
        # at even n, r4(n) = 24 sigma(odd part of n): 24 sigma(5^5) at 10^5 and 2 * 10^5
        jacobi = None if n == 0 else count
        line = f"r4({n}): bruteforce={count} jacobi={jacobi or '-'} theta4={count} AGREE\n"
        assert invoke(["r4", str(n)]) == (0, line, "")
        doc = {"command": "r4", "n": n, "bruteforce": count, "jacobi_formula": jacobi,
               "theta4_coefficient": count, "pass": True}
        assert invoke(["r4", str(n), "--format", "json"]) == (0, json.dumps(doc) + "\n", "")

    def test_theta4_coefficient_matches_the_full_fourth_power(self):
        # r4 reads coefficient n of theta^4 over theta^2, each pair {m, n - m}
        # once; the whole of theta^4 is the oracle, at every n <= 2000 (to
        # order n itself up to 500) and at 10^5
        t4 = forms.theta4(2000)
        for n in range(2001):
            coeff = json.loads(invoke(["r4", str(n), "--format", "json"])[1])["theta4_coefficient"]
            assert coeff == t4[n]
            if n <= 500:
                assert coeff == forms.theta4(n)[n]
        doc = json.loads(invoke(["r4", "100000", "--format", "json"])[1])
        assert doc["theta4_coefficient"] == forms.theta4(100_000)[100_000]

    def test_negative_is_usage_error(self):
        code, _, _ = invoke(["r4", "--", "-5"])
        assert code == 2

    def test_above_ceiling_is_usage_error(self):
        code, out, err = invoke(["r4", str(R4_MAX_N + 1)])
        assert code == 2 and out == ""
        assert err == f"error: n must be <= {R4_MAX_N}\n"


class TestReduceTau:
    def test_translation(self):
        code, out, _ = invoke(["reduce-tau", "5.3,2"])
        assert code == 0
        assert "T^-5" in out

    def test_json(self):
        code, out, _ = invoke(["reduce-tau", "0.26,0.05", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["in_domain"] is True
        assert doc["reduced"][1] >= 0.05

    def test_negative_real_part(self):
        code, out, _ = invoke(["reduce-tau", "-6.7,3.4"])
        assert code == 0
        assert "T^7" in out

    def test_bad_tau(self):
        code, _, _ = invoke(["reduce-tau", "1,-1"])
        assert code == 2
        code, _, _ = invoke(["reduce-tau", "fish"])
        assert code == 2
        # the last reduces above the largest float
        for text in ("nan,1", "-inf,1", "0,nan", "0.25,5e-324"):
            code, out, _ = invoke(["reduce-tau", text])
            assert code == 2 and out == ""

    def test_step_limit_is_usage_error(self):
        # Next to the cusp 1/2 the word needs more than MAX_WORD_LETTERS letters.
        code, out, err = invoke(["reduce-tau", "0.5000001,1e-10"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"more than {modgroup.MAX_WORD_LETTERS} letters" in err

    def test_prints_the_exact_image(self):
        # The float reduction once stopped this point at 0.99999962+0.00044i,
        # inside the right disc, and printed in_domain true.
        code, out, _ = invoke(["reduce-tau", "--format", "json", "--",
                               "6.403508726515092,1.7682397015796046e-08"])
        assert code == 0
        doc = json.loads(out)
        assert doc["word"].startswith("U^1472 ") and doc["in_domain"] is True
        assert 3.8e-7 < doc["reduced"][0] < 3.81e-7


class TestDecompose:
    def test_t_generator(self):
        code, out, _ = invoke(["decompose", "--matrix", "[[1,1],[0,1]]"])
        assert code == 0
        assert out.strip() == "T^1"

    def test_membership_failure(self):
        code, _, err = invoke(["decompose", "--matrix", "[[0,-1],[1,0]]"])
        assert code == 1
        assert "mod 4" in err

    def test_malformed_matrix(self):
        code, _, _ = invoke(["decompose", "--matrix", "[[1,1],[0]]"])
        assert code == 2

    def test_non_unimodular(self):
        code, _, _ = invoke(["decompose", "--matrix", "[[2,0],[0,2]]"])
        assert code == 2

    @pytest.mark.parametrize("k", [modgroup.MAX_WORD_LETTERS // 2 + 1, 10**9])
    def test_word_past_ceiling_is_usage_error(self, k):
        # the k-th power of T U^-1 is a word of 2k letters
        power = (modgroup.MAT_T * modgroup.MAT_U.inv()) ** k
        code, out, err = invoke(["decompose", "--matrix", power.format()])
        assert code == 2 and out == ""
        assert err == (f"error: the word for {power.format()} has more than "
                       f"{modgroup.MAX_WORD_LETTERS} letters\n")


class TestIndices:
    def test_values(self):
        code, out, _ = invoke(["indices", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["sl2_z4_order"] == 48
        assert doc["gamma1_4_index"] == 12
        assert doc["gamma1_4_psl_index"] == 6


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite {name} in JSON output")
    return json.loads(text, parse_constant=reject)


# Per row of the command table, (argv, exit code) cases that pass, fail or
# are refused; "{bad}" stands for a golden directory whose phi has one wrong
# coefficient.
_CONTRACT_CASES = {
    "expand": [(["expand", "psi", "--order", "30"], 0),
               (["expand", "theta4", "--order", "60", "--golden-dir", GOLDEN_DIR], 0),
               (["expand", "phi", "--order", "40", "--golden-dir", "{bad}"], 1)],
    "verify": [(["verify", "lambert", "--order", "40"], 0),
               (["verify", "jacobi", "--order", "0"], 2)],
    "verify-analytic": [(["verify-analytic", "poisson"], 0),
                        (["verify-analytic", "quasimodular"], 0),
                        (["verify-analytic", "quasimodular", "--tol", "1e-300"], 1),
                        (["verify-analytic", "poisson", "--tol", "1e-300"], 1),
                        (["verify-analytic", "xi", "--matrix", "[[1,0],[1,1]]"], 1)],
    "r4": [(["r4", "0"], 0), (["r4", "12"], 0)],
    "reduce-tau": [(["reduce-tau", "-6.7,3.4"], 0)],
    "decompose": [(["decompose", "--matrix", "[[-7,2],[-4,1]]"], 0),
                  (["decompose", "--matrix", "[[0,-1],[1,0]]"], 1)],
    "indices": [(["indices"], 0)],
}


@pytest.mark.parametrize("command", cli._COMMANDS)
def test_every_command_keeps_one_contract(command, tmp_path):
    lines = Path(GOLDEN_DIR, "phi.txt").read_text().splitlines()
    lines[5] = "5: 7/3"
    (tmp_path / "phi.txt").write_text("\n".join(lines) + "\n")
    for argv, expected in _CONTRACT_CASES[command]:
        argv = [str(tmp_path) if a == "{bad}" else a for a in argv]
        tcode, tout, terr = invoke(argv)
        jcode, jout, jerr = invoke([*argv, "--format", "json"])
        assert tcode == jcode == expected and terr == jerr, argv
        if jerr:
            # refused: a matrix outside the subgroup (1) or a usage error (2)
            assert jerr.startswith("error: ") and tout == jout == "", argv
            continue
        assert tout and jout.endswith("\n") and jout.count("\n") == 1, argv
        doc = _strict_json(jout)
        reports = doc.get("reports", [doc])
        verdict = all(r.get("pass", r.get("in_domain", True)) for r in reports)
        assert (jcode == 0) is verdict and doc.get("pass", verdict) is verdict, argv


def test_only_run_prints_so_bad_json_exits_2(monkeypatch):
    help_text, arguments, handler = cli._COMMANDS["indices"]

    def nan_payload(args):
        payload, lines, passed = handler(args)
        return {**payload, "ratio": float("nan")}, lines, passed

    monkeypatch.setitem(cli._COMMANDS, "indices", (help_text, arguments, nan_payload))
    code, out, err = invoke(["indices", "--format", "json"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    code, out, _ = invoke(["indices"])
    assert code == 0 and out.startswith("order of SL(2, Z_4): 48")


class TestExitCodeContract:
    def test_no_arguments(self):
        code, _, _ = invoke([])
        assert code == 2

    def test_unknown_subcommand(self):
        code, out, err = invoke(["frobnicate"])
        assert code == 2
        assert out == "" and "invalid choice" in err

    def test_help_exits_zero(self):
        code, out, err = invoke(["--help"])
        assert code == 0
        assert out.startswith("usage: foursquares") and err == ""

    def test_shared_parser_writes_to_each_runs_streams(self):
        # the parser is built once per process; each run still sends
        # argparse's output to that run's own streams
        results = [invoke(argv) for argv in (["r4", "x"], ["--help"], ["r4", "5"])]
        (c1, o1, e1), (c2, o2, e2), (c3, o3, e3) = results
        assert c1 == 2 and o1 == "" and "invalid int value" in e1
        assert c2 == 0 and o2.startswith("usage: foursquares") and e2 == ""
        assert c3 == 0 and o3.startswith("r4(5):") and e3 == ""

    @settings(max_examples=60, deadline=None)
    @given(st.text(min_size=1, max_size=12))
    def test_random_subcommands_never_crash(self, name):
        known = {
            "expand", "verify", "verify-analytic", "r4",
            "reduce-tau", "decompose", "indices",
        }
        code, _, _ = invoke([name])
        if name in known:
            assert code in (0, 1, 2)
        else:
            assert code == 2

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["jacobi", "lagrange", "lambert", "proportionality"]),
        st.integers(-5, 40),
    )
    def test_verify_exit_codes(self, name, order):
        code, out, _ = invoke(["verify", name, "--order", str(order)])
        if order >= 1:
            assert code == 0
            assert out.startswith("PASS")
        else:
            assert code == 2


def _fresh_python(code: str) -> str:
    """The output of code run in a fresh interpreter, where no other test
    has imported anything."""
    src = str(Path(foursquares.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


# The modules of names that a fresh run of the argvs loaded.
_IMPORT_PROBE = """
import io, sys
from foursquares.cli import run
for argv in {argv!r}:
    assert run(argv, out=io.StringIO()) == 0, argv
print(sorted(set({names!r}) & set(sys.modules)))
"""


# No subcommand imports numpy: the package sums in plain floats and ints.
# The cases keep their order, so their ids stay stable.
_ROW_SUMS = ("row-sum2", "row-sum4")


@pytest.mark.parametrize("argvs, loads_numpy", [
    ([["verify", "jacobi", "--order", "20"], ["expand", "psi", "--order", "20"], ["r4", "10"],
      ["decompose", "--matrix", "[[-7,2],[-4,1]]"], ["indices"], ["reduce-tau", "5.3,2"]],
     False),
    ([["r4", "10"], ["verify-analytic", "g4"]], False),
    ([["verify-analytic", "g4"]], False),
    *[([["verify-analytic", check], ["verify-analytic", "g4"]], False) for check in _ROW_SUMS],
    *[([["verify-analytic", check]], False)
      for check in ANALYTIC_CHECKS if check not in ("g4", *_ROW_SUMS)],
    *[([["verify-analytic", check]], False) for check in _ROW_SUMS],
])
def test_numpy_imported_only_by_subcommands_that_use_it(argvs, loads_numpy):
    loaded = _fresh_python(_IMPORT_PROBE.format(argv=argvs, names=("numpy",)))
    assert loaded == str(["numpy"] if loads_numpy else [])


def test_import_probe_sees_numpy():
    # the control for the cases above: the probe reports numpy once
    # something in the process has imported it
    pytest.importorskip("numpy")
    probe = "import numpy\n" + _IMPORT_PROBE.format(argv=[["indices"]], names=("numpy",))
    assert _fresh_python(probe) == "['numpy']"


_NO_FORMS = ("dataclasses", "decimal", "foursquares.forms", "foursquares.qseries", "fractions")
_G_AND_H = ("ode-solution", "weight1", "monodromy")


# Each subcommand imports only the package modules it runs, no process
# imports dataclasses, and verify, expand and r4 import no numpy.  The
# analytic checks, g and h among them, take their tables from `numtheory`,
# so none loads the exact series layer.
_LOAD_CASES = [
    ([["verify", "jacobi", "--order", "20"], ["expand", "psi", "--order", "20"], ["r4", "10"]],
     ("dataclasses", "foursquares.modgroup", "numpy")),
    ([["reduce-tau", "5.3,2"], ["decompose", "--matrix", "[[-7,2],[-4,1]]"], ["indices"],
      *[["verify-analytic", c] for c in ANALYTIC_CHECKS if c not in _G_AND_H]],
     _NO_FORMS),
    ([["verify-analytic", c] for c in _G_AND_H], _NO_FORMS),
]


@pytest.mark.parametrize("argvs, absent", _LOAD_CASES,
                         ids=["exact", "group-and-laws", "weight1-solutions"])
def test_subcommands_load_only_the_modules_they_run(argvs, absent):
    # together the cases run every row of the command table
    assert {argv[0] for case, _ in _LOAD_CASES for argv in case} == set(cli._COMMANDS)
    assert _fresh_python(_IMPORT_PROBE.format(argv=argvs, names=absent)) == "[]"


# The pinned argvs reach phi only at orders 0, 1, 37, 60 and 3001; these are
# the orders the benchmark's exact round asks for.
_PHI_ARGVS = [[*argv, *fmt] for argv in (["expand", "phi", "--order", "300"],
                                         ["expand", "phi", "--order", "100"],
                                         ["verify", "psi-triple", "--order", "100"])
              for fmt in ([], ["--format", "json"])]


@pytest.mark.parametrize("order", [range(6), range(5, -1, -1), (2, 0, 5, 3, 1, 4, 2, 5)])
def test_kept_phi_prints_the_bytes_of_a_cold_run(order, monkeypatch):
    # phi's kept pair and its series (with its Fractions) are met warm in
    # one process; each argv must print what it prints cold
    monkeypatch.setattr(numtheory, "_kept", {})
    for i in order:
        warm = invoke(_PHI_ARGVS[i])
        saved, numtheory._kept = numtheory._kept, {}
        cold = invoke(_PHI_ARGVS[i])
        numtheory._kept = saved
        assert warm == cold and warm[0] == 0, _PHI_ARGVS[i]


TOOLS = Path(__file__).resolve().parent.parent / "tools"
PIN_FILE = TOOLS / "argv_pins.json"


def _replay_tool():
    spec = importlib.util.spec_from_file_location("replay_argvs", TOOLS / "replay_argvs.py")
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    return replay


def test_replay_tool_gives_the_same_bytes_in_both_orders(capsys):
    # tools/replay_argvs.py runs each pinned argv through cli.run forward,
    # then reversed, and exits 1 if any argv's bytes differ between passes.
    replay = _replay_tool()
    assert replay.main([]) == 0
    out = capsys.readouterr().out
    assert "reversed pass differs" not in out
    last = out.splitlines()[-1]
    assert last.endswith("(267 argvs, 2 passes)")
    # --expect turns the run into a gate on the overall digest
    digest = last.split()[1]
    assert replay.main(["--expect", digest]) == 0
    assert "differs" not in capsys.readouterr().out
    wrong = f"{int(digest, 16) ^ 1:064x}"
    assert replay.main(["--expect", wrong]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"overall digest differs from the expected {wrong}")


def test_every_pinned_argv_keeps_its_exit_code_and_bytes(capsys):
    # The byte gate.  A change that alters an argv's output on purpose
    # updates its pin in tools/argv_pins.json from the "pin differs:" line.
    code = _replay_tool().main(["--argvs", str(PIN_FILE)])
    out = capsys.readouterr().out
    assert code == 0, "\n".join(line for line in out.splitlines() if "differs" in line)
    assert out.splitlines()[-1].endswith("(267 argvs, 2 passes)")


def _argparse_prints(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            return True
    return False


def test_pins_hash_exactly_the_argvs_the_package_prints():
    # argparse's usage and help text changes between Python versions, so
    # those argvs pin their exit code only; every other argv pins its bytes.
    pins = json.loads(PIN_FILE.read_text())["pins"]
    recorded = json.loads((TOOLS.parent / "BENCH_18.json").read_text())["outputs"]["argvs"]
    assert [pin["argv"] for pin in pins[: len(recorded)]] == recorded
    assert all(pin["argv"][:2] == ["verify-analytic", "monodromy"] for pin in pins[len(recorded):])
    for pin in pins:
        assert ("sha256" in pin) != _argparse_prints(pin["argv"]), pin["argv"]


def test_pin_check_names_each_argv_that_differs(tmp_path, capsys):
    record = json.loads(PIN_FILE.read_text())
    hashed = next(pin for pin in record["pins"] if "sha256" in pin)
    last = hashed["sha256"][-1]
    hashed["sha256"] = hashed["sha256"][:-1] + ("1" if last == "0" else "0")
    code_only = next(pin for pin in record["pins"] if "sha256" not in pin)
    code_only["code"] += 1
    (tmp_path / "pins.json").write_text(json.dumps(record))
    assert _replay_tool().main(["--argvs", str(tmp_path / "pins.json")]) == 1
    differs = [line for line in capsys.readouterr().out.splitlines() if "differs" in line]
    assert len(differs) == 2 and all(line.startswith("pin differs: ") for line in differs)
    named = {shlex.join(pin["argv"]) for pin in (hashed, code_only)}
    assert {line.split("  ")[2] for line in differs} == named
