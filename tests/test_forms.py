"""Named series construction and the coefficient-exact verifications."""

from fractions import Fraction
from pathlib import Path

import pytest

from foursquares import cli, forms, numtheory, qseries
from foursquares.forms import (
    partition_series,
    phi_by_recursion,
    phi_by_reduction_of_order,
    psi_by_exp,
    psi_by_partition_square,
    psi_by_recursion,
    psi_by_sigma3_recursion,
    series_L,
    series_M,
    theta,
    theta2,
    theta4,
    verify_final_proportionality,
    verify_full_jacobi,
    verify_jacobi,
    verify_lagrange,
    verify_psi_triple,
    verify_ramanujan_ode,
    verify_sigma_lambert,
    _ode_report,
)
from foursquares.numtheory import r4_bruteforce, sigma, sigma3, sigma3_table, sigma_table
from foursquares.qseries import QSeries, parse_golden, recurrence

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


def named_series(name, order):
    """The series `foursquares expand name --order order` prints."""
    return cli._forms_call(cli._SERIES, name, order)


def run_verification(name, order):
    """The report of `foursquares verify name --order order`."""
    return cli._forms_call(cli._VERIFIERS, name, order)


class TestTheta:
    def test_order_zero(self):
        assert theta(0) == QSeries([1])

    def test_first_squares(self):
        t = theta(10)
        assert [int(c) for c in t.coeffs] == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0]

    def test_coefficient_sixteen(self):
        assert theta(16)[16] == 2

    def test_theta4_display_coefficients(self):
        t4 = theta4(9)
        assert [int(c) for c in t4.coeffs] == [1, 8, 24, 32, 24, 48, 96, 64, 24, 104]

    def test_theta4_examples(self):
        t4 = theta4(10)
        assert t4[0] == 1
        assert t4[5] == 48
        assert t4[10] == r4_bruteforce(10) == 144

    def test_theta4_matches_bruteforce(self):
        t4 = theta4(120)
        for n in range(121):
            assert t4[n] == r4_bruteforce(n)

    @pytest.mark.parametrize("ceiling", [numtheory._KEPT_LIMIT, 60])
    def test_kept_powers_are_the_kernel_powers(self, ceiling, monkeypatch):
        # theta2 and theta4 are kept per process; the kernel's powers of theta
        # are the oracle, in any request order, at 0 and above the ceiling
        monkeypatch.setattr(numtheory, "_kept", {})
        monkeypatch.setattr(numtheory, "_KEPT_LIMIT", ceiling)
        for n in (50, 0, 200, 61, 60, 7, 200, 1):
            assert theta2(n) == theta(n) ** 2
            assert theta4(n) == theta(n) ** 4
            assert theta4(n) == theta2(n) * theta2(n)
        assert len(numtheory._kept["theta4"]) == (201 if ceiling > 200 else 61)


class TestEisensteinLikeSeries:
    def test_L_coefficients(self):
        L = series_L(5)
        assert L[0] == 1
        assert L[1] == -24
        assert L[2] == -72  # sigma(2) = 3
        assert all(L[n] == -24 * sigma(n) for n in range(1, 6))

    def test_M_coefficients(self):
        M = series_M(5)
        assert M[0] == 1
        assert M[1] == 240
        assert M[2] == 2160  # sigma3(2) = 9
        assert all(M[n] == 240 * sigma3(n) for n in range(1, 6))


class TestPsiPhi:
    def test_b_values(self):
        psi = psi_by_recursion(6)
        assert [int(c) for c in psi.coeffs] == [1, 2, 5, 10, 20, 36, 65]

    def test_b1_directly(self):
        assert psi_by_recursion(1)[1] == 2  # (2/1) sigma(1) b_0

    def test_alternate_recursion_agrees(self):
        assert psi_by_sigma3_recursion(2)[2] == 5
        assert psi_by_sigma3_recursion(60) == psi_by_recursion(60)

    def test_three_constructions_agree(self):
        order = 120
        ref = psi_by_recursion(order)
        assert psi_by_exp(order) == ref
        assert psi_by_partition_square(order) == ref

    def test_constant_terms(self):
        for builder in (psi_by_recursion, psi_by_exp, psi_by_partition_square):
            assert builder(3)[0] == 1

    def test_partition_square_coefficient_two(self):
        assert psi_by_partition_square(2)[2] == 5  # 2*p(0)p(2) + p(1)^2

    def test_a_values(self):
        phi = phi_by_recursion(5)
        want = [
            Fraction(1),
            Fraction(10, 7),
            Fraction(365, 91),
            Fraction(13610, 1729),
            Fraction(135701, 8645),
            Fraction(7419742, 267995),
        ]
        assert list(phi.coeffs) == want

    def test_reduction_of_order_matches_recursion(self):
        for order in (0, 1, 2, 57, 400):
            assert phi_by_reduction_of_order(order) == phi_by_recursion(order)

    def test_order_zero_is_one(self):
        for builder in (series_L, series_M, psi_by_recursion, psi_by_sigma3_recursion,
                        psi_by_exp, psi_by_partition_square, phi_by_recursion,
                        phi_by_reduction_of_order):
            assert builder(0) == QSeries([1])

    def test_negative_order_rejected(self):
        for builder in (psi_by_partition_square, phi_by_reduction_of_order,
                        theta, series_L, series_M, psi_by_exp):
            with pytest.raises(ValueError, match="order must be >= 0"):
                builder(-1)

    @pytest.mark.parametrize("builder, name", [(theta2, None), (theta4, "theta4"),
                                               (psi_by_partition_square, "psi"),
                                               (phi_by_reduction_of_order, "phi")])
    def test_negative_order_message_comes_before_the_keep(self, builder, name, capsys):
        # the keep's own "limit must be >= 0" never reaches a caller of forms
        for _ in range(2):  # cold, then with the kind kept
            with pytest.raises(ValueError, match="^order must be >= 0$"):
                builder(-1)
            builder(5)
        if name is not None:  # `expand` prints the same text
            assert cli.run(["expand", name, "--order", "-1"]) == 2
            assert capsys.readouterr().err == "error: order must be >= 0\n"

    def test_psi_triple_reports_phi_mismatch(self, monkeypatch):
        real = forms.phi_by_reduction_of_order

        def bumped(order):
            return real(order) + QSeries([0] * 7 + [1], order=order)

        monkeypatch.setattr(forms, "phi_by_reduction_of_order", bumped)
        report = verify_psi_triple(20)
        assert not report.passed
        assert report.witness.startswith("reduction-of-order coefficient 7:")

    def test_a_bounded_by_b(self):
        order = 150
        a = phi_by_recursion(order)
        b = psi_by_recursion(order)
        for n in range(order + 1):
            assert 0 < a[n] <= b[n]

    def test_psi_coefficients_are_integers(self):
        # integrality is asserted inside the constructor; reaching here
        # without ArithmeticError is the point
        psi = psi_by_recursion(200)
        assert all(c.denominator == 1 for c in psi.coeffs)

    def test_psi_recurrence_stays_in_int(self):
        b = recurrence(QSeries(sigma_table(200)), lambda n: (2, n), 200)
        assert all(type(bn) is int for bn in b)
        # the same weight as a pair not in lowest terms stores the same ints
        assert b.stored == recurrence(QSeries(sigma_table(200)), lambda n: (6 * n, 3 * n * n),
                                      200).stored == (b.stored[0], 1)

    def test_psi_and_phi_routes_build_no_fraction(self, monkeypatch):
        # every route verify psi-triple takes runs on ints: with Fraction
        # replaced by a class that cannot be built (isinstance still works),
        # each still gives the series it gives with the real Fraction
        order = 100
        routes = (psi_by_recursion, psi_by_sigma3_recursion, phi_by_recursion, psi_by_exp)
        want = [route(order) for route in routes]

        class NoFraction:
            def __new__(cls, *args, **kwargs):
                raise AssertionError("a Fraction was built")

        monkeypatch.setattr(numtheory, "_kept", {})
        monkeypatch.setattr(forms, "Fraction", NoFraction)
        monkeypatch.setattr(qseries, "Fraction", NoFraction)
        assert [route(order) for route in routes] == want
        assert verify_psi_triple(order).passed

    def test_non_integral_psi_coefficient_raises(self, monkeypatch):
        # with sigma replaced by s_1 = 1, s_k = 0 the recursion gives 2^n/n!
        monkeypatch.setattr(forms, "sigma_table", lambda order: [0, 1] + [0] * (order - 1))
        with pytest.raises(ArithmeticError, match="b_3 = 4/3"):
            psi_by_recursion(3)

    def test_recursions_match_fraction_oracles(self):
        order = 200
        assert phi_by_recursion(order) == _phi_oracle(order)
        assert psi_by_recursion(order) == _psi_oracle(order)


def fresh_phi_series(order):
    """phi_by_reduction_of_order(order) built with nothing kept before or after."""
    kept, numtheory._kept = numtheory._kept, {}
    try:
        return phi_by_reduction_of_order(order)
    finally:
        numtheory._kept = kept


class TestPhiKeep:
    """phi_by_reduction_of_order keeps the series of numtheory's kept pair,
    with the Fractions its coeffs built; every answer must be the series a
    fresh build gives."""

    ORDERS = (0, 1, 2, 10, 99, 100, 299, 300, 301, 600)

    @pytest.fixture(autouse=True)
    def cold(self, monkeypatch):
        monkeypatch.setattr(numtheory, "_kept", {})

    @pytest.fixture(scope="class")
    def reference(self):
        # each series with its Fractions built from its own stored form
        ref = {}
        for order in self.ORDERS:
            series = fresh_phi_series(order)
            num, den = series.stored
            ref[order] = series, tuple(Fraction(c, den) for c in num)
        return ref

    @pytest.mark.parametrize("read_view", [False, True])
    @pytest.mark.parametrize("orders", [(0, 1, 10, 100, 300, 600), (600, 300, 100, 10, 1, 0),
                                        (300, 10, 600, 0, 299, 301, 2, 99, 301, 100)])
    def test_any_request_order(self, orders, read_view, reference):
        got = []
        for order in orders:
            series = phi_by_reduction_of_order(order)
            if read_view:
                assert series.coeffs == reference[order][1]
            assert series == reference[order][0]
            assert series.stored == reference[order][0].stored
            got.append((order, series))
        for order, series in got:
            assert series.coeffs == reference[order][1]
        assert numtheory._kept["phi"][2].order == max(orders)

    def test_the_kept_order_hands_back_the_same_series(self, reference):
        kept = phi_by_reduction_of_order(300)
        assert kept._view is None  # built on the first read, not before
        view = kept.coeffs
        assert phi_by_reduction_of_order(300) is kept and kept.coeffs is view
        smaller = phi_by_reduction_of_order(100)
        assert smaller._view is None  # a smaller order builds its own
        assert smaller.coeffs == reference[100][1]
        assert smaller.stored == reference[100][0].stored
        assert phi_by_reduction_of_order(300) is kept
        assert numtheory._kept["phi"][2] is kept

    def test_only_the_kept_pair_has_its_series_kept(self, reference):
        numtheory.phi_by_reduction(600)
        series = phi_by_reduction_of_order(300)
        assert series == reference[300][0]
        assert phi_by_reduction_of_order(300) is not series
        assert numtheory._kept["phi"][2] is None
        assert phi_by_reduction_of_order(600) is phi_by_reduction_of_order(600)

    def test_above_the_ceiling_is_built_but_not_kept(self, reference, monkeypatch):
        monkeypatch.setattr(numtheory, "_PHI_KEPT_LIMIT", 299)
        kept = phi_by_reduction_of_order(10)
        for order in (300, 600):
            series = phi_by_reduction_of_order(order)
            assert series == reference[order][0] and series.coeffs == reference[order][1]
            assert phi_by_reduction_of_order(order) is not series
        assert numtheory._kept["phi"][2] is kept
        assert phi_by_reduction_of_order(299) is numtheory._kept["phi"][2]


class TestVerifiers:
    @pytest.mark.parametrize("verifier", [
        verify_ramanujan_ode, verify_jacobi, verify_lagrange, verify_full_jacobi,
        verify_sigma_lambert, verify_psi_triple, verify_final_proportionality,
    ], ids=lambda f: f.__name__)
    def test_order_zero_refused(self, verifier):
        with pytest.raises(ValueError, match="^order must be >= 1$"):
            verifier(0)

    def test_ode_small_order(self):
        report = verify_ramanujan_ode(1)
        assert report.passed

    def test_ode_default_scale(self):
        assert verify_ramanujan_ode(120).passed

    def test_ode_negative_control(self):
        # nudging the q-coefficient of L must be caught at index 1
        L = series_L(40)
        bad = QSeries([L[0], L[1] + 1] + [L[n] for n in range(2, 41)])
        report = _ode_report(bad, series_M(40), 40)
        assert not report.passed
        assert report.witness.startswith("coefficient 1:")

    def test_jacobi_values_and_parity(self):
        report = verify_jacobi(99)
        assert report.passed
        t4 = theta4(9)
        diff = [int(c) for c in (t4 - _neg(t4)).coeffs]
        assert [diff[n] for n in (1, 3, 5, 7, 9)] == [16, 64, 96, 128, 208]

    def test_lagrange(self):
        assert verify_lagrange(2000).passed

    def test_full_jacobi(self):
        report = verify_full_jacobi(2000)
        assert report.passed
        t4 = theta4(8)
        assert t4[8] == 24
        assert t4[4] == 24

    def test_sigma_lambert(self):
        report = verify_sigma_lambert(100)
        assert report.passed

    def test_lambert_coefficients(self):
        # spot values through the sigma table route
        assert sigma(6) == 12
        assert sigma(1) == 1

    def test_proportionality(self):
        report = verify_final_proportionality(999)
        assert report.passed
        assert "constant = -1/3" in report.witness

    def test_proportionality_leading_coefficients(self):
        assert Fraction(16) == Fraction(-1, 3) * -48
        assert Fraction(64) == Fraction(-1, 3) * (-48 * sigma(3))

    def test_psi_triple(self):
        assert verify_psi_triple(120).passed

    def test_verify_rejects_bad_order(self):
        for name in ("jacobi", "ode", "psi-triple"):
            with pytest.raises(ValueError):
                run_verification(name, 0)

    def test_unknown_verification(self):
        with pytest.raises(ValueError):
            run_verification("nonsense", 10)

    def test_reports_are_deterministic(self):
        first = verify_jacobi(60)
        second = verify_jacobi(60)
        assert first == second


class TestFailureWitnesses:
    """Each failing verifier names its first witness, pinned character for
    character through a deliberately broken input."""

    @staticmethod
    def _bump(monkeypatch, name, coeff, degree):
        real = getattr(forms, name)
        monkeypatch.setattr(forms, name, lambda order: real(order)
                            + QSeries([0] * degree + [coeff], order=order))

    def _failure(self, verifier, order):
        report = verifier(order)
        assert not report.passed
        assert report.order == order
        assert report.error is None and report.tol is None
        return report.witness

    def test_lagrange_zero_coefficient(self, monkeypatch):
        self._bump(monkeypatch, "theta4", -64, 7)  # r4(7) = 64
        assert self._failure(verify_lagrange, 20) == "coefficient 7: got 0, expected > 0"

    def test_psi_triple_nonpositive_b(self, monkeypatch):
        # every psi construction agrees on the broken b_3 = 10 - 40
        for name in ("psi_by_recursion", "psi_by_exp", "psi_by_partition_square",
                     "psi_by_sigma3_recursion"):
            self._bump(monkeypatch, name, -40, 3)
        assert self._failure(verify_psi_triple, 20) == "b_3 = -30 is not positive"

    def test_psi_triple_a_above_b(self, monkeypatch):
        for name in ("phi_by_recursion", "phi_by_reduction_of_order"):
            self._bump(monkeypatch, name, 100, 5)
        a5 = phi_by_recursion(20)[5] + 100
        b5 = psi_by_recursion(20)[5]
        assert self._failure(verify_psi_triple, 20) == f"a_5 = {a5} outside (0, b_5 = {b5}]"

    @pytest.mark.parametrize("shift", ["to b", "past b", "to 0"])
    def test_psi_triple_bound_is_exact_at_its_ends(self, monkeypatch, shift):
        # the bound is tested on a's numerators over its common denominator:
        # a_5 = b_5 passes, a hair past b_5 or a_5 = 0 fails
        a5, b5 = phi_by_recursion(20)[5], psi_by_recursion(20)[5]
        new = {"to b": b5, "past b": b5 + Fraction(1, 7**30), "to 0": 0}[shift]
        for name in ("phi_by_recursion", "phi_by_reduction_of_order"):
            self._bump(monkeypatch, name, new - a5, 5)
        if shift == "to b":
            assert verify_psi_triple(20).passed
        else:
            assert self._failure(verify_psi_triple, 20) == f"a_5 = {new} outside (0, b_5 = {b5}]"

    def test_psi_triple_psi_mismatch(self, monkeypatch):
        b = psi_by_recursion(20)
        self._bump(monkeypatch, "psi_by_exp", 1, 4)
        assert (self._failure(verify_psi_triple, 20)
                == f"exp-construction coefficient 4: got {b[4] + 1}, expected {b[4]}")

    def test_full_jacobi_mismatch_where_four_divides(self, monkeypatch):
        # r4(12) = 8 * (sigma(12) - 4 sigma(3)) = 8 * (28 - 16)
        self._bump(monkeypatch, "theta4", 1, 12)
        assert self._failure(verify_full_jacobi, 20) == "coefficient 12: got 97, expected 96"

    def test_proportionality_vanishing_right_side(self, monkeypatch):
        monkeypatch.setattr(forms, "series_L", lambda order: QSeries([1], order=order))
        assert (self._failure(verify_final_proportionality, 30)
                == "right side vanishes identically; no constant to derive")

    def test_proportionality_mismatch(self, monkeypatch):
        # the odd part doubles theta^4's 48 + 1 at n = 5; -1/3 * 2 * -144 = 96
        self._bump(monkeypatch, "theta4", 1, 5)
        assert self._failure(verify_final_proportionality, 30) == "coefficient 5: got 98, expected 96"

    def test_series_identity_mismatch(self, monkeypatch):
        # the sieve is the Lambert side, so a wrong table is what was got
        monkeypatch.setattr(forms, "sigma_table", lambda order: [0, 2] + [0] * (order - 1))
        assert self._failure(verify_sigma_lambert, 10) == "coefficient 1: got 2, expected 1"

    def test_lambert_mismatch_in_trial_division(self, monkeypatch):
        # sigma(n) by trial division is the other side: a wrong sigma(7) fails
        monkeypatch.setattr(forms, "sigma", lambda n: sigma(n) + (n == 7))
        assert self._failure(verify_sigma_lambert, 10) == "coefficient 7: got 8, expected 9"


class TestNamedLookup:
    @pytest.mark.parametrize("order", [0, 1, 2, 300, 1024])
    def test_psi_phi_match_recursions(self, order):
        assert named_series("psi", order) == psi_by_recursion(order)
        assert named_series("phi", order) == phi_by_recursion(order)

    def test_all_names_build(self):
        for name in ("theta", "theta4", "L", "M", "psi", "phi", "P"):
            s = named_series(name, 8)
            assert s.order == 8

    def test_partition_series(self):
        assert [int(c) for c in partition_series(6).coeffs] == [1, 1, 2, 3, 5, 7, 11]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_series("eta", 5)


class TestGoldenFiles:
    @pytest.mark.parametrize("name", ["theta4", "L", "M", "psi", "phi"])
    def test_expansion_matches_golden(self, name):
        golden = parse_golden((GOLDEN_DIR / f"{name}.txt").read_text())
        assert golden.order == 100
        assert named_series(name, 100) == golden


def _psi_oracle(order):
    """The Fraction loop psi_by_recursion ran before the shared recurrence."""
    sig = sigma_table(order)
    b = [Fraction(1)]
    for n in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += sig[k] * b[n - k]
        bn = 2 * acc / n
        if bn.denominator != 1:
            raise ArithmeticError(f"b_{n} = {bn} is not an integer")
        b.append(bn)
    return QSeries(b)


def _phi_oracle(order):
    """The Fraction loop phi_by_recursion ran before the shared recurrence."""
    sig3 = sigma3_table(order)
    a = [Fraction(1)]
    for n in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += sig3[k] * a[n - k]
        a.append(10 * acc / (n * (6 * n + 1)))
    return QSeries(a)


def _neg(series):
    from foursquares.qseries import substitute_neg

    return substitute_neg(series)
