"""Floating-point checks: evaluators agree across routes, laws hold, and the
stated preconditions actually reject what they claim to."""

import cmath
import math
import random
import re
import tracemalloc
from fractions import Fraction
from operator import add, attrgetter

import numpy as np
import pytest

from foursquares import analytic, forms
from foursquares.analytic import (
    MAX_LATTICE_RADIUS,
    EvalConfig,
    G4_lattice,
    G4_series,
    L_eval,
    M_eval,
    check_G4_expansion,
    check_G4_transform,
    check_L_quasimodular,
    check_Xi_invariance,
    check_cusp_boundedness,
    check_monodromy,
    check_ode_solution,
    check_poisson,
    check_row_sum2,
    check_row_sum4,
    check_theta_transform,
    check_weight1_invariance,
    g_eval,
    h_eval,
    theta_eval,
)
from foursquares.modgroup import IDENTITY, MAT_S, MAT_T, MAT_U, Mat2Z, MembershipError
from foursquares.numtheory import sigma3_table, sigma_table

TU = MAT_T * MAT_U


def q_of(tau):
    return cmath.exp(2j * math.pi * tau)


def eval_qseries(series, q):
    """Horner evaluation of an exact series at a complex point, in a loop of
    the tests' own, so that no evaluator is its own oracle."""
    acc = 0j
    for c in reversed(series.coeffs):
        acc = acc * q + float(c)
    return acc


U = 2.0**-53


def full_shell_lattice(tau, R):
    """The weight-4 lattice sum over the square max(|c|,|d|) <= R, with
    every one of the 8r points of each shell: the numpy route that the
    rows of `G4_lattice` replaced, kept as its oracle."""
    total = 0j
    for r in range(1, R + 1):
        full = np.arange(-r, r + 1)
        inner = np.arange(-(r - 1), r)
        z = np.concatenate(
            (
                r * tau + full,
                -r * tau + full,
                inner * tau + r,
                inner * tau - r,
            )
        )
        z2 = z * z
        total += np.sum(1.0 / (z2 * z2))
    return complex(total)


def shell_tail_bound(tau, R):
    """sum over max(|c|,|d|) > R of |c tau + d|^-4: with l the least
    eigenvalue of the form |c tau + d|^2 = (c, d) [[|tau|^2, x], [x, 1]]
    (c, d)^T, each of the 8r points of shell r has |c tau + d|^2 >= l r^2,
    so the tail is at most sum_(r>R) 8 r^-3 / l^2 <= 4 / (l^2 R^2)."""
    a, x = abs(tau) ** 2, tau.real
    least = ((a + 1) - math.sqrt((a - 1) ** 2 + 4 * x * x)) / 2
    return 4.0 / (least**2 * R**2)


def streamed_row_sum(tau, power, cutoff):
    """sum over |d| <= cutoff of (tau+d)^-power in blocks of pair terms
    (tau+d)^-power + (tau-d)^-power, each block's real and imaginary parts
    summed by math.fsum, and the sum of the moduli of its terms: the
    streamed route that the Euler-Maclaurin tails of `_row_sum_left`
    replaced, kept as its oracle.  Its rounding is at most (4 power + 4) u
    times that sum of moduli; its truncation, below."""
    fsum, real, imag, block = math.fsum, attrgetter("real"), attrgetter("imag"), 4096
    head = tau**-power
    re, im, moduli = [head.real], [head.imag], abs(head)
    for lo in range(1, cutoff + 1, block):
        ds = range(lo, min(lo + block, cutoff + 1))
        plus = [(tau + d) ** -power for d in ds]
        minus = [(tau - d) ** -power for d in ds]
        moduli += sum(map(abs, plus)) + sum(map(abs, minus))
        pair = list(map(add, plus, minus))
        re.append(fsum(map(real, pair)))
        im.append(fsum(map(imag, pair)))
    return complex(fsum(re), fsum(im)), moduli


def row_tail_bound(tau, power, cutoff):
    """sum over |d| > cutoff of |tau+d|^-power <= 2 (D - |x|)^(1-power) /
    (power - 1), D = cutoff > |x| = |re tau|, against the integral."""
    return 2.0 * (cutoff - abs(tau.real)) ** (1 - power) / (power - 1)


def row_reference(mpmath, tau, power):
    """The row sum over all d of (tau+d)^-power in closed form, never the
    q-expansion: pi^2 csc^2(pi tau) for power 2 and its second derivative
    over 6, (pi^4/3)(3 csc^4 - 2 csc^2)(pi tau), for power 4."""
    csc2 = 1 / mpmath.sin(mpmath.pi * mpmath.mpc(tau)) ** 2
    if power == 2:
        return mpmath.pi**2 * csc2
    return mpmath.pi**4 * (3 * csc2**2 - 2 * csc2) / 3


def lattice_reference(mpmath, tau):
    """G4 = 2 zeta(4) + 2 sum_(c>=1) row4(c tau), rows in closed form,
    summed until a row falls below 1e-45 of the total."""
    total, tau = 2 * mpmath.zeta(4), mpmath.mpc(tau)
    for c in range(1, 10_000):
        row = row_reference(mpmath, c * tau, 4)
        total += 2 * row
        if abs(row) < mpmath.mpf(10) ** -45 * abs(total):
            return total
    raise AssertionError("lattice reference did not converge")


class TestThetaEval:
    def test_limit_at_high_imaginary_part(self):
        assert abs(theta_eval(50j) - 1.0) < 1e-15

    def test_positive_on_imaginary_axis(self):
        value = theta_eval(0.5j)
        assert abs(value.imag) < 1e-15
        assert value.real > 1

    def test_two_evaluation_paths_agree(self):
        tau = 0.3 + 0.8j
        series_path = eval_qseries(forms.theta(80), q_of(tau))
        direct = theta_eval(tau)
        assert abs(series_path - direct) < 1e-12

    def test_translation_invariance(self):
        tau = 0.37 + 0.9j
        assert abs(theta_eval(tau) - theta_eval(tau + 1)) < 1e-14

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            theta_eval(1 - 0.5j)


class TestLMeval:
    def test_limit_is_one(self):
        assert abs(L_eval(60j) - 1.0) < 1e-14
        assert abs(M_eval(60j) - 1.0) < 1e-14

    def test_real_on_imaginary_axis(self):
        assert abs(L_eval(1j).imag) < 1e-15
        assert abs(M_eval(1j).imag) < 1e-15

    def test_periodicity(self):
        tau = 0.21 + 0.7j
        assert abs(L_eval(tau) - L_eval(tau + 1)) < 1e-14
        assert abs(M_eval(tau) - M_eval(tau + 1)) < 1e-13

    def test_matches_exact_series(self):
        tau = 0.1 + 1.1j
        horner = eval_qseries(forms.series_L(120), q_of(tau))
        assert abs(horner - L_eval(tau)) < 1e-12

    def test_small_imaginary_part_rejected(self):
        with pytest.raises(ValueError):
            L_eval(0.5 + 1e-4j)


@pytest.mark.parametrize("evaluate", [L_eval, theta_eval, g_eval])
@pytest.mark.parametrize("tau", [
    complex(math.nan, 1), complex(0.3, math.nan), complex(0.3, math.inf), complex(-math.inf, 1),
])
def test_non_finite_tau_rejected(evaluate, tau):
    with pytest.raises(ValueError, match="finite"):
        evaluate(tau)


@pytest.mark.parametrize("evaluate", [theta_eval, L_eval, M_eval])
@pytest.mark.parametrize("tau, cause", [
    (0.3 + 1e-10j, "im(tau) = 1e-10 too small for double-precision series evaluation"),
    (0.3 + 1e-60j, "im(tau) = 1e-60 too small: |q| >= 1"),
], ids=["1e-10", "1e-60"])
def test_series_refusals_name_the_height(evaluate, tau, cause):
    # at 1e-10 the terms fall too slowly for the term cap; at 1e-60 |q|
    # rounds to 1, for theta's own loop and for the dense sums alike
    with pytest.raises(ValueError, match=re.escape(cause)):
        evaluate(tau)


@pytest.mark.parametrize("evaluate", [theta_eval, L_eval, M_eval, G4_series])
@pytest.mark.parametrize("tau", [0.25 + 1.1j, -0.375 + 0.3j])
def test_evaluators_are_exactly_periodic(evaluate, tau):
    # q is taken at tau - round(re tau), exactly, so a shift by 2^20 (exact
    # here, as re tau + 2^20 is a double) changes no bit of the value
    assert evaluate(tau + 2**20) == evaluate(tau)


def dot_sum(table, q):
    """sum c_k q^k as one numpy dot product against the powers of q: the
    oracle for :func:`analytic._horner`."""
    return complex(np.dot(table, np.power(q, np.arange(len(table)))))


# (table, log of a bound on its coefficients) for each dense sum: the
# evaluators' tail bounds, and the row sums' m^3
SUM_TABLES = {
    "sigma": (analytic._sigma_np, lambda m: math.log(24.0) + 2.0 * math.log(m)),
    "sigma3": (analytic._sigma3_np, analytic._sigma3_tail),
    "psi": (analytic._psi_np, analytic._weight1_bound),
    "phi": (analytic._phi_np, analytic._weight1_bound),
    "m^3": (lambda n: [float(m**3) for m in range(n + 1)], lambda m: 3.0 * math.log(m)),
}


def exact_coefficients(name, order):
    """The exact coefficients of a table, as ints or Fractions."""
    if name == "sigma":
        return sigma_table(order)
    if name == "sigma3":
        return sigma3_table(order)
    if name == "psi":
        return forms.psi_by_partition_square(order).coeffs
    if name == "phi":
        return forms.phi_by_reduction_of_order(order).coeffs
    return [m**3 for m in range(order + 1)]


class TestWeight1Tables:
    @pytest.mark.parametrize("n", [256, 1024])
    def test_bit_identical_to_recursions(self, n):
        # each float is the correctly rounded exact coefficient, whichever
        # construction supplies it
        assert analytic._psi_np(n) == tuple(map(float, forms.psi_by_recursion(n).coeffs))
        assert analytic._phi_np(n) == tuple(map(float, forms.phi_by_recursion(n).coeffs))


class TestHorner:
    TABLES = ("_sigma_np", "_sigma3_np", "_psi_np", "_phi_np")

    @pytest.mark.parametrize("n", [256, 1024, 2048])
    @pytest.mark.parametrize("name", TABLES)
    def test_matches_dot_product_within_rounding(self, name, n):
        # Horner's error is at most a small multiple of n u sum |c_k| |q|^k
        # (Higham, Accuracy and Stability of Numerical Algorithms, ch. 5).
        table = getattr(analytic, name)(n)
        assert len(table) == n + 1
        magnitudes = np.abs(np.array(table))
        rng = random.Random(f"{name}-{n}")
        u = 2.0**-53
        for _ in range(20):
            tau = complex(rng.uniform(-0.5, 0.5), math.exp(rng.uniform(math.log(0.01), math.log(3.0))))
            q = q_of(tau)
            scale = float(np.dot(magnitudes, abs(q) ** np.arange(n + 1)))
            assert abs(analytic._horner(table, q)[0] - dot_sum(table, q)) <= 4 * n * u * scale

    @pytest.mark.parametrize("name", SUM_TABLES)
    def test_cut_is_the_least_that_meets_the_criterion(self, name):
        # N meets coeff_bound(N) |q|^N < 1e-18 and N - 1 does not; size is
        # the power-of-two rule's cut, the one the tables are cached at
        _, bound = SUM_TABLES[name]
        fits = lambda n, logq: bound(n) + n * logq < math.log(1e-18)
        for im in (0.01, 0.05, 0.1, 0.3, 1.0, 3.0, 10.0):
            logq = -2 * math.pi * im
            n, size = analytic._terms_needed(math.exp(logq), bound, im)
            assert fits(n, logq) and n <= size
            assert n == 1 or not fits(n - 1, logq)
            assert size == next(s for s in (256 << k for k in range(7)) if fits(s, logq))

    @pytest.mark.parametrize("name", SUM_TABLES)
    def test_exact_cut_agrees_with_the_power_of_two_sum(self, name):
        # the power-of-two sum over all of table(size), kept as the oracle of
        # the sum cut at N: the two differ by the terms past N, which the
        # stated bound covers, and by both roundings
        table, bound = SUM_TABLES[name]
        rng = random.Random(f"cut-{name}")
        for _ in range(20):
            tau = complex(rng.uniform(-0.5, 0.5), math.exp(rng.uniform(math.log(0.05), math.log(3.0))))
            q = analytic._q_from_tau(tau)
            _, size = analytic._terms_needed(abs(q), bound, tau.imag)
            full, mu = analytic._horner(table(size), q)
            got, stated = analytic._truncated_sum(tau, table, bound)
            assert abs(got - full) <= stated + 1.01 * U * mu

    @pytest.mark.parametrize("start, stop, num", [
        (1.0, 20.0, 11), (0.0, 1.0, 11), (0.0, 1.0, 101), (0.05, 0.5, 10), (0.2, 5.0, 25),
    ])
    def test_linspace_matches_numpy_bit_for_bit(self, start, stop, num):
        # the grids of check_cusp_boundedness, and one wider grid
        assert analytic._linspace(start, stop, num) == np.linspace(start, stop, num).tolist()


class TestPoisson:
    def test_self_dual_point(self):
        assert check_poisson(0.5).error == 0.0

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0])
    def test_machine_precision(self, t):
        report = check_poisson(t)
        assert report.passed
        assert report.error < 1e-13

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            check_poisson(0.0)

    def test_raises_where_the_sum_cannot_reach_its_tail(self):
        # at t = 1e-9, 2 exp(-2 pi t n^2) reaches rounding level only near
        # n = 8e4, past the term cap: a sum cut at the cap is not the sum
        with pytest.raises(ValueError, match="too small"):
            check_poisson(1e-9)


class TestThetaTransform:
    @pytest.mark.parametrize("tau", [0.5j, 0.3 + 0.7j, 2j])
    def test_examples(self, tau):
        report = check_theta_transform(tau)
        assert report.passed
        assert report.error < 1e-12

    def test_fixed_point(self):
        # tau = i/2 is fixed by tau -> -1/(4 tau)
        fixed = -1 / (4 * 0.5j)
        assert abs(fixed - 0.5j) < 1e-15


class TestRowSums:
    def test_weight4_tail(self):
        report = check_row_sum4(1j)
        assert report.passed
        assert report.error < 1e-10

    def test_weight2_slow_tail(self):
        # the tail past any cutoff D is about 2/D, and the Euler-Maclaurin
        # tails carry all of it
        report = check_row_sum2(1j)
        assert report.passed
        assert report.error < 1e-14

    @pytest.mark.parametrize("tau", [0.1 + 0.1j, 0.05 + 0.05j])
    def test_weight4_near_real_axis(self, tau):
        # the right side grows to about 1e4 here; an error of about 2e-16
        # of it is rounding, which the tolerance covers
        report = check_row_sum4(tau)
        assert report.passed
        assert 1e-12 < report.error < report.tol < 1e-7

    @pytest.mark.parametrize("tau", [0.3 + 1.1j, 0.1 + 0.1j, -0.4 + 0.05j, 0.02 + 0.3j,
                                     0.3 + 0.002j, 0.3 + 0.001j, 12345.3 + 1.1j])
    @pytest.mark.parametrize("power, coeff", [(2, -4 * math.pi**2), (4, 8 * math.pi**4 / 3)])
    def test_rounding_bound_against_reference(self, tau, power, coeff):
        # each side lies within its own bound of a 40-digit reference, the
        # left of its closed form and the right of the same truncated sum,
        # and the float difference of the sides within the check's bound;
        # far from re 0 both sides are taken at tau - round(re tau), where
        # exp(2 pi i tau) would lose about 1e-12 of its phase
        mpmath = pytest.importorskip("mpmath")
        err, bound = analytic._row_sum_error(tau, power, coeff)
        left, left_bound = analytic._row_sum_left(tau, power)
        q = analytic._q_from_tau(tau)
        terms, _ = analytic._terms_needed(abs(q), lambda m: (power - 1) * math.log(m), tau.imag)
        total, mu = analytic._horner([float(m ** (power - 1)) for m in range(terms + 1)], q)
        with mpmath.workdps(40):
            row = row_reference(mpmath, tau, power)
            q = mpmath.exp(2j * mpmath.pi * mpmath.mpc(tau))
            right, qm = mpmath.mpc(0), mpmath.mpc(1)
            for m in range(1, terms + 1):
                qm *= q
                right += m ** (power - 1) * qm
            left_error = abs(mpmath.mpc(left) - row)
            right_error = abs(mpmath.mpc(total) - right)
            exact = abs(row - coeff * right)
        assert left_error <= left_bound
        assert right_error <= 1.01 * U * mu
        assert abs(err - exact) <= bound

    @pytest.mark.parametrize("tau, a_priori", [(0.3 + 0.002j, 0.23), (0.3 + 0.001j, 7.3)])
    def test_weight4_tolerance_near_real_axis(self, tau, a_priori):
        # Horner's a-priori bound 4 n u |coeff| sum m^3 |q|^m gave these
        # tolerances; the running bound is at least 100 times tighter
        report = check_row_sum4(tau)
        assert report.passed
        assert report.tol < a_priori / 100

    @pytest.mark.parametrize("im", [0.002, 0.01, 0.1, 1.0])
    def test_weight2_window_changes_nothing_beyond_rounding(self, im, monkeypatch):
        # the Euler-Maclaurin tails carry more or less of the row as the
        # window moves, and the sums agree within their two bounds
        tau = 0.3 + 1j * im
        results = []
        for window in (16, 48, 200):
            monkeypatch.setattr(analytic, "_ROW_WINDOW", window)
            results.append(analytic._row_sum_left(tau, 2))
        for (a, bound_a), (b, bound_b) in zip(results, results[1:]):
            assert abs(a - b) <= bound_a + bound_b

    @pytest.mark.parametrize("tau", [0.3 + 1.1j, 0.1 + 0.1j, 0.3 + 0.002j])
    @pytest.mark.parametrize("power", [2, 4])
    def test_left_moduli_below_their_majorant(self, tau, power):
        # the running bound weighs the moduli of the window's terms by
        # (4 power + 8) u and those of the tails' terms by 260 u; both sums
        # stay below the majorant of the whole row's moduli
        _, bound = analytic._row_sum_left(tau, power)
        assert bound <= (4 * power + 8 + 260) * U * moduli_majorant(tau, power)

    @pytest.mark.parametrize("cutoff", [1, 4095, 4096, 4097, 3 * 4096 + 5])
    @pytest.mark.parametrize("power", [2, 4])
    def test_left_side_matches_the_array_sum(self, cutoff, power):
        # the streamed fsum over |d| <= cutoff, as an oracle across its
        # block edges: it differs from the full row by at most its tail,
        # and the two sums by that plus both rounding bounds
        tau = 0.3 + 1.1j
        oracle, moduli = streamed_row_sum(tau, power, cutoff)
        got, bound = analytic._row_sum_left(tau, power)
        assert abs(got - oracle) <= bound + (4 * power + 4) * U * moduli + row_tail_bound(
            tau, power, cutoff)

    def test_left_side_memory_is_flat(self):
        # a row holds its window's terms and nothing that grows with the
        # point; the streamed sum it replaced held 2 * 4096 terms at a time
        tracemalloc.start()
        try:
            for tau in (0.3 + 1.1j, 0.3 + 0.002j, 0.5 + 10j):
                analytic._row_sum_left(tau, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**15

    def test_single_term_regime(self):
        # far up the cylinder the right side is one geometric term
        tau = 0.5 + 10j
        q = q_of(tau)
        rhs = -4 * math.pi**2 * q
        report = check_row_sum2(tau)
        assert report.passed
        assert abs(rhs) < 1e-25  # the identity is all tail here


def moduli_majorant(tau, power):
    """sum over all d of |tau+d|^-power <= its peak y^-power plus its
    integral c y^(1-power), y = im(tau), at every cutoff."""
    y = tau.imag
    c = math.sqrt(math.pi) * math.gamma((power - 1) / 2) / math.gamma(power / 2)
    return y**-power + c * y ** (1 - power)


def lattice_moduli(tau):
    """sum over (c, d) != (0, 0) of |c tau + d|^-4 <= 2 zeta(4) +
    pi zeta(3) / y^3 + 2 zeta(4) / y^4: each row c != 0 is at most the
    integral pi/(2 |c|^3 y^3) of its summand plus its peak (|c| y)^-4."""
    y, zeta3, zeta4 = tau.imag, 1.2020569031595942, math.pi**4 / 90
    return 2 * zeta4 + math.pi * zeta3 / y**3 + 2 * zeta4 / y**4


def geometric_sum(q, weight):
    """sum m^weight q^m, summed until the next term falls below rounding:
    the oracle for the row sums' right side, :func:`analytic._truncated_sum`
    over the table m^weight."""
    acc = 0j
    absq = abs(q)
    for m in range(1, 20_001):
        acc += (m**weight) * q**m
        if (m**weight) * absq**m < 1e-20 * max(1.0, abs(acc)):
            return acc
    raise ValueError("im(tau) too small")


class TestRowSumRight:
    @pytest.mark.parametrize("weight", [1, 3])
    def test_matches_geometric_loop_within_rounding(self, weight):
        # the same Horner bound as TestHorner, over the terms actually summed
        rng = random.Random(f"row-sum-right-{weight}")
        u = 2.0**-53
        bound = lambda m: weight * math.log(m)
        table = lambda n: [float(m**weight) for m in range(n + 1)]
        for _ in range(24):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 3.0))
            q = q_of(tau)
            n, _ = analytic._terms_needed(abs(q), bound, tau.imag)
            scale = sum(m**weight * abs(q) ** m for m in range(1, n + 1))
            # sum_(m>n) m^w |q|^m <= (n+1)^w |q|^(n+1) / (1 - r), r the first ratio
            r = ((n + 2) / (n + 1)) ** weight * abs(q)
            tail = (n + 1) ** weight * abs(q) ** (n + 1) / (1.0 - r)
            got, stated = analytic._truncated_sum(tau, table, bound)
            assert abs(got - geometric_sum(q, weight)) <= 4 * n * u * scale + tail
            assert tail <= stated


class TestG4:
    def test_lattice_matches_series_at_i(self):
        report = check_G4_expansion(1j)
        assert report.passed
        assert report.error < 1e-5

    def test_real_at_purely_imaginary_tau(self):
        value, *_ = G4_lattice(2j, EvalConfig(lattice_radius=400))
        assert abs(value.imag) < 1e-10 * abs(value)

    @pytest.mark.parametrize("tau", [0.3 + 1.1j, 1j, 0.1 + 0.5j, -0.45 + 0.06j, 0.2 + 3j])
    @pytest.mark.parametrize("R", [1, 2, 3, 50, 400])
    def test_half_lattice_matches_full_shells(self, tau, R):
        # rows |c| <= R against the square of shells max(|c|,|d|) <= R: each
        # misses the full sum by at most its stated bound; the shells, by
        # their tail and their rounding (8u a term, log2(8R) u in numpy's
        # pairwise sum of a shell, R u for adding up R shells)
        got, bound, *_ = G4_lattice(tau, EvalConfig(lattice_radius=R))
        want = full_shell_lattice(tau, R)
        shells_rounding = (24 + R) * U * lattice_moduli(tau)
        assert abs(got - want) <= bound + shell_tail_bound(tau, R) + shells_rounding

    def test_rows_converge_at_rounding_level(self):
        # at Im 1.1 the rows past the chosen R = 12 are below 1e-17, so the
        # first 3,000 rows summed here give the same sum within rounding
        tau = 0.3 + 1.1j
        rows = [analytic._row_sum_left(c * tau, 4)[0] for c in range(1, 3001)]
        large = 2 * (math.fsum([math.pi**4 / 90, *(r.real for r in rows)])
                     + 1j * math.fsum(r.imag for r in rows))
        small, *_ = G4_lattice(tau, EvalConfig(lattice_radius=3000))
        assert abs(small - large) < 1e-15 * abs(large)

    @pytest.mark.parametrize("y, radius", [(1.1, 12), (0.5, 26), (0.1, 141), (0.01, 1595)])
    def test_radius_is_the_least_that_meets_the_target(self, y, radius):
        got, omitted = analytic._lattice_radius(y, 3000)
        assert (got, omitted <= analytic._LATTICE_TARGET) == (radius, True)
        # one row fewer, forced by the ceiling, misses the target
        assert analytic._lattice_radius(y, radius - 1)[1] > analytic._LATTICE_TARGET

    @pytest.mark.parametrize("tau", [0.3 + 1.1j, 0.1 + 0.1j, 0.3 + 1e-3j])
    def test_sum_reports_the_radius_and_bound_it_used(self, tau):
        # the check's witness reads R and the omitted rows' bound from the
        # sum itself, which took them from the tail bound under the ceiling
        *_, radius, omitted = G4_lattice(tau)
        assert (radius, omitted) == analytic._lattice_radius(tau.imag, 3000)
        assert check_G4_expansion(tau).witness == f"rows |c|<={radius}, omitted<={omitted:.1e}"

    @pytest.mark.parametrize("y", [1e-3, 1e-5])
    def test_bound_never_above_the_moduli_bound_where_the_ceiling_binds(self, y):
        # the bound of the rows |c| > 3000 from their moduli alone, which
        # G4_lattice added at every point before R came from the tail bound
        radius, omitted = analytic._lattice_radius(y, 3000)
        assert radius == 3000
        assert omitted <= math.pi / (2 * 3000**2 * y**3) + 2 / (3 * 3000**3 * y**4)

    @pytest.mark.parametrize("tau, height", [
        (0.3 + 1e-300j, "1e-300"), (0.3 + 1e-120j, "1e-120"), (0.3 + 1e80j, "1e+80")])
    def test_heights_beyond_double_range_raise_naming_them(self, tau, height):
        # near the axis the omitted rows' bound leaves double range (y^3 or
        # y^4 underflowed in it once, a ZeroDivisionError); far above it a
        # row's terms do
        with pytest.raises(ValueError, match=rf"im\(tau\) = {re.escape(height)}"):
            G4_lattice(tau)

    def test_one_wrong_row_fails_the_check(self, monkeypatch):
        # row 1 is about a quarter of |G4| at the default tau: 1e-12 of it
        # is far above a tolerance at rounding level
        assert check_G4_expansion(0.3 + 1.1j).passed
        row_sum = analytic._row_sum_left

        def scaled(t, power):
            value, bound = row_sum(t, power)
            return value * (1 + 1e-12) if t.imag == 1.1 else value, bound

        monkeypatch.setattr(analytic, "_row_sum_left", scaled)
        report = check_G4_expansion(0.3 + 1.1j)
        assert not report.passed and report.error > 10 * report.tol

    @pytest.mark.parametrize("m", [MAT_S, MAT_T])
    def test_weight4_law_series_path(self, m):
        report = check_G4_transform(0.2 + 1.1j, m)
        assert report.passed
        assert report.error < 1e-10

    def test_translation_degenerates_to_periodicity(self):
        report = check_G4_transform(0.2 + 1.1j, MAT_T)
        assert report.error < 1e-13

    def test_series_value_scale(self):
        # pi^4/45 times a number close to 1 at tau = 2i
        val = G4_series(2j)
        assert abs(val - math.pi**4 / 45) < 0.01


class TestReferenceTier:
    """Each row and lattice sum against a 40-digit reference built from
    closed-form rows (csc^2 and its second derivative), never from the
    q-expansion that the checks compare them with."""

    @pytest.mark.parametrize("tau", [0.3 + 1.1j, 0.1 + 0.1j, 0.05 + 0.05j, 0.3 + 0.002j])
    @pytest.mark.parametrize("power", [2, 4])
    def test_row_within_its_stated_bound(self, tau, power):
        mpmath = pytest.importorskip("mpmath")
        got, bound = analytic._row_sum_left(tau, power)
        with mpmath.workdps(40):
            row = row_reference(mpmath, tau, power)
            error = float(abs(mpmath.mpc(got) - row))
        assert error <= bound
        assert error <= 1e-15 * float(abs(row))

    @pytest.mark.parametrize("name", SUM_TABLES)
    def test_sum_within_its_stated_bound(self, name):
        # the whole series with exact coefficients at the exact q, at 40
        # digits, lies within the bound _truncated_sum returns: the tail, the
        # running rounding bound, and the rounding of q and of the tables
        mpmath = pytest.importorskip("mpmath")
        table, bound = SUM_TABLES[name]
        # past this order every term is below 1e-45 at im 0.05
        order = next(n for n in range(1, 5000) if bound(n) - 0.1 * math.pi * n < math.log(1e-45))
        coeffs = exact_coefficients(name, order)
        with mpmath.workdps(40):
            cs = [mpmath.mpf(c.numerator) / c.denominator if hasattr(c, "denominator") else
                  mpmath.mpf(c) for c in coeffs]
            for im in (0.05, 0.1, 0.5, 1.0, 2.0):
                for re in (0.0, 0.1, 0.3):
                    tau = complex(re, im)
                    got, stated = analytic._truncated_sum(tau, table, bound)
                    q = mpmath.exp(2j * mpmath.pi * mpmath.mpc(tau))
                    want = mpmath.polyval(cs[::-1], q)
                    assert float(abs(mpmath.mpc(got) - want)) <= stated, (name, tau)

    @pytest.mark.parametrize("tau", [0.05j, 0.1 + 0.05j, 0.3 + 0.1j, 0.1 + 0.5j, 1j, 0.3 + 2j])
    def test_xi_within_its_stated_bound(self, tau):
        # the odd part, summed once in q^2, against L(tau) - L(tau + 1/2) at
        # 40 digits, each L summed to below 1e-45
        mpmath = pytest.importorskip("mpmath")
        s, stated = analytic._truncated_sum(2 * tau, analytic._odd_sigma, analytic._xi_tail)
        order = next(n for n in range(1, 5000) if 2 * math.log(n) - 2 * math.pi * tau.imag * n < -104)
        sig = sigma_table(order)
        with mpmath.workdps(40):
            L = lambda z: 1 - 24 * mpmath.polyval([mpmath.mpf(c) for c in sig[::-1]],
                                                   mpmath.exp(2j * mpmath.pi * z))
            t = mpmath.mpc(tau)
            xi = L(t) - L(t + mpmath.mpf(0.5))
            q = mpmath.exp(2j * mpmath.pi * t)
            assert float(abs(mpmath.mpc(s) - xi / (-48 * q))) <= stated
            # and the combination itself, with the rounding of -48 q s and the
            # error of q, (1.35 |2 pi t| + 3) u relative, t = tau - round(re tau)
            got = analytic._xi_combination(tau)
            e = 4 + 1.35 * 2 * math.pi * abs(tau - round(tau.real)) + 3
            assert float(abs(mpmath.mpc(got) - xi)) <= 48 * float(abs(q)) * (stated + e * U * abs(s))

    def test_row_bound_covers_every_row(self):
        # C_m Y^(1-s), least over m, against the row in closed form on a
        # seeded grid; it is traced without the row identity or the
        # q-expansion.  It is blind to re t, so it is tight where the row
        # barely depends on it, within 8 times |row| from Y = 0.5 to 2
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random("lattice-row-bound")
        points = [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 10.0)) for _ in range(40)]
        with mpmath.workdps(40):
            for t in points + [0.3 + 0.05j, 0.5 + 10j]:
                bound = min(cm * t.imag ** (1 - s) for s, cm in analytic._ROW_BOUNDS)
                row = float(abs(row_reference(mpmath, t, 4)))
                assert row <= bound, t
                if 0.5 <= t.imag <= 2:
                    assert bound <= 8.5 * row, t

    @pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j, 0.3 + 1.2j, 0.1 + 0.1j])
    def test_lattice_within_its_stated_bound(self, tau):
        # the omitted rows, traced without the row identity, are bounded
        # under 1e-17, so rounding sets the bound; the sum lands at that level
        mpmath = pytest.importorskip("mpmath")
        got, bound, *_ = G4_lattice(tau)
        with mpmath.workdps(40):
            want = lattice_reference(mpmath, tau)
            error = float(abs(mpmath.mpc(got) - want))
        assert error <= bound
        assert error <= 1e-15 * float(abs(want))


class TestQuasimodular:
    def test_translation_is_exact_periodicity(self):
        report = check_L_quasimodular(0.3 + 1.1j, MAT_T)
        assert report.passed
        assert report.error < 1e-14

    def test_inversion(self):
        report = check_L_quasimodular(0.1 + 1.2j, MAT_S)
        assert report.passed
        assert report.error < 1e-9

    def test_generic_level_element(self):
        # c = 4 representative, at a point clearing the im(A tau) floor
        report = check_L_quasimodular(0.1 + 0.4j, MAT_U)
        assert report.passed
        assert report.error < 1e-8

    def test_floor_rejects_deep_points(self):
        # the stated example point 0.3 + 1.5i pushes U tau below the floor
        with pytest.raises(ValueError):
            check_L_quasimodular(0.3 + 1.5j, MAT_U)


class TestXiInvariance:
    def test_translation(self):
        report = check_Xi_invariance(0.1 + 0.5j, MAT_T)
        assert report.passed
        assert report.error < 1e-14

    def test_u_generator(self):
        report = check_Xi_invariance(0.1 + 0.4j, MAT_U)
        assert report.passed
        assert report.error < 1e-8

    def test_composite_element(self):
        report = check_Xi_invariance(0.05 + 0.35j, TU)
        assert report.passed
        assert report.error < 1e-8

    def test_rejects_outside_level_group(self):
        with pytest.raises(MembershipError):
            check_Xi_invariance(0.1 + 0.5j, MAT_S)

    def test_floor_enforced(self):
        with pytest.raises(ValueError, match=r"^im\(A tau\) must stay >= 0.05"):
            check_Xi_invariance(0.2 + 1.3j, MAT_U)
        # tau itself below 0.05 is refused before its image is formed
        with pytest.raises(ValueError, match=r"^im\(tau\) must stay >= 0.05"):
            check_Xi_invariance(0.1 + 0.049j, MAT_T)


class TestGandH:
    def test_h_at_i_nonzero(self):
        assert abs(h_eval(1j)) > 0.1

    @pytest.mark.parametrize("tau", [0.1 + 0.02j, 0.1 + 0.012j])
    @pytest.mark.parametrize("evaluate", [g_eval, h_eval])
    def test_raise_where_rounding_eats_the_digits(self, evaluate, tau):
        # g was off by 1.1e-7 at 0.1+0.02i and by 2.1 at 0.1+0.012i; the
        # sum's bound passes 1e-10 of it there, and the evaluators raise
        with pytest.raises(ValueError, match=r"im\(tau\) = 0\.0[12]+ too small"):
            evaluate(tau)

    def test_floor_leaves_the_law_points_alone(self):
        # at Im 0.05 the bound is about 3.5e-12 of the sum, and the laws
        # workload stays above Im 0.1
        assert abs(g_eval(0.1 + 0.05j)) > 0 and abs(h_eval(0.1 + 0.05j)) > 0

    def test_g_overflow_names_im_tau(self):
        # exp(-i pi tau / 6) leaves double range from im(tau) ~ 1356
        with pytest.raises(ValueError, match=r"im\(tau\) = 1e\+100"):
            g_eval(0.3 + 1e100j)

    def test_g_translation_eigenvalue(self):
        tau = 0.2 + 1.3j
        lhs = g_eval(tau - 1)
        rhs = cmath.exp(1j * math.pi / 6) * g_eval(tau)
        assert abs(lhs - rhs) < 1e-12


def eta4_integral(mpmath):
    """(pi/3) int_1^oo eta(it)^4 dt: F(i) for F = h/g, as F' = (pi i/3) eta^4
    and F vanishes at the cusp i oo; eta from mpmath's q-Pochhammer symbol."""
    eta4 = lambda t: (mpmath.exp(-mpmath.pi * t / 12) * mpmath.qp(mpmath.exp(-2 * mpmath.pi * t))) ** 4
    return mpmath.pi / 3 * mpmath.quad(eta4, [1, mpmath.inf])


class TestMonodromy:
    def test_default_point(self):
        report = check_monodromy(0.3 + 1.1j)
        assert report.passed
        assert report.error < 1e-14
        assert report.tol == 1e-9

    def test_f_at_i_against_the_eta4_integral(self):
        mpmath = pytest.importorskip("mpmath")
        f_i = complex(check_monodromy(0.3 + 1.1j).witness.removeprefix("F(i)="))
        with mpmath.workdps(40):
            assert abs(mpmath.mpc(f_i) - eta4_integral(mpmath)) < 1e-15

    def test_seeded_grid(self):
        # Re in [-0.5, 0.5], Im log-uniform in [0.1, 3], kept where -1/tau
        # also clears Im 0.1
        rng = random.Random("monodromy")
        points = [complex(rng.uniform(-0.5, 0.5), 0.1 * 30.0 ** rng.random()) for _ in range(300)]
        points = [t for t in points if (-1 / t).imag >= 0.1]
        assert len(points) > 100
        for tau in points:
            report = check_monodromy(tau)
            assert report.passed, report.describe()
            assert report.error < 1e-14, report.describe()

    @pytest.mark.parametrize("name, mutate", [
        ("h_eval", lambda f: lambda t: f(t) + 1e-6),
        ("g_eval", lambda f: lambda t: f(t) * cmath.exp(-1j * math.pi * t * 1e-6)),
    ], ids=["h-plus-constant", "g-exponent"])
    def test_fails_outside_the_span(self, monkeypatch, name, mutate):
        # h + 1e-6, and g with exponent -i pi tau (1/6 + 1e-6): neither is in
        # span{g, h}, and each fails the laws
        monkeypatch.setattr(analytic, name, mutate(getattr(analytic, name)))
        report = check_monodromy(0.3 + 1.1j)
        assert not report.passed
        assert report.error > 1e-8

    def test_scaled_h_passes(self, monkeypatch):
        monkeypatch.setattr(analytic, "h_eval", lambda t: (0.7 - 2.1j) * h_eval(t))
        report = check_monodromy(0.3 + 1.1j)
        assert report.passed
        assert report.error < 1e-14

    def test_s_law_holds_for_any_basis_of_the_span(self, monkeypatch):
        # F(i) moves with the basis, so h -> a h + b g keeps the S law.  The
        # T law tells h from g by their eigenvalues exp(+-i pi/6), so b g is
        # given h's eigenvalue at tau + 1, the one point the check takes with
        # round(re) = 1: there the check sees the S law alone
        a, b, w = 0.7 - 2.1j, 0.4 + 1.3j, cmath.exp(1j * math.pi / 3)
        mixed = lambda t: a * h_eval(t) + b * g_eval(t) * w ** round(t.real)
        monkeypatch.setattr(analytic, "h_eval", mixed)
        for tau in (0.3 + 1.1j, -0.2 + 0.8j, 0.45 + 1.5j):
            report = check_monodromy(tau)
            assert report.passed, report.describe()
            assert report.error < 1e-14
        # and with the plain a h + b g, the T law fails
        monkeypatch.setattr(analytic, "h_eval", lambda t: a * h_eval(t) + b * g_eval(t))
        assert not check_monodromy(0.3 + 1.1j).passed


class TestOdeSolution:
    @pytest.mark.parametrize("tau", [1.5j, 2j])
    def test_termwise_residuals(self, tau):
        report = check_ode_solution(tau)
        assert report.passed
        assert report.error < 1e-9

    def test_passes_at_law_workload_points(self):
        # drawn as the benchmark's laws workload draws them: Re in [-0.5, 1],
        # Im log-uniform in (0.1, 3]
        rng = random.Random("ode-solution-laws")
        for _ in range(200):
            tau = complex(rng.uniform(-0.5, 1.0), 0.1 * 30.0 ** rng.random())
            if tau.imag > 0.1:
                report = check_ode_solution(tau)
                assert report.passed, report.describe()
                assert report.witness.startswith("residual g=")

    def test_requires_comfortable_height(self):
        with pytest.raises(ValueError):
            check_ode_solution(0.05j)

    @pytest.mark.parametrize("tau", [0.5 + 0.8660254037844386j, 0.5 + 0.28867513459481287j])
    def test_passes_where_e4_vanishes(self, tau):
        # rho = exp(i pi / 3) and its image rho / (rho + 1): E4 is zero there,
        # so the termwise second derivatives, (pi^2/36) E4 g and E4 h, sum to
        # rounding noise; only g and h carry the relative floor
        report = check_ode_solution(tau)
        assert report.passed, report.describe()
        assert report.error < 1e-13


class TestWeight1:
    def test_identity_reduces_to_ode(self):
        report = check_weight1_invariance(1.3j, IDENTITY)
        assert report.passed
        assert report.error < 1e-13

    def test_translation(self):
        report = check_weight1_invariance(1.3j, MAT_T)
        assert report.passed
        assert report.error < 1e-13

    def test_inversion(self):
        report = check_weight1_invariance(0.2 + 1.4j, MAT_S)
        assert report.passed
        assert report.error < 1e-13

    def test_floor_enforced(self):
        with pytest.raises(ValueError):
            check_weight1_invariance(0.05 + 12j, MAT_S)

    def test_image_where_e4_vanishes(self):
        # [[1, 0], [-1, 1]] takes rho / (rho + 1) to rho, where g'' sums to noise
        report = check_weight1_invariance(0.5 + 0.28867513459481287j, Mat2Z(1, 0, -1, 1))
        assert report.passed, report.describe()
        assert report.error < 1e-13

    def test_close_to_real_axis(self):
        # S moves 0.0236 + 0.1144i far up (im 8.4); a finite difference
        # through the Moebius map missed here by 5.7e-2
        report = check_weight1_invariance(0.0236 + 0.1144j, MAT_S)
        assert report.passed
        assert report.error < 1e-10


def fraction_image(m, tau):
    """(m tau - k, c tau + d) from tau's exact value in rationals, k the
    nearest integer to re(m tau) (ties down), each rounded once."""
    x, y = Fraction(tau.real), Fraction(tau.imag)
    size = (m.c * x + m.d) ** 2 + (m.c * y) ** 2
    re = ((m.a * x + m.b) * (m.c * x + m.d) + m.a * m.c * y * y) / size
    k = math.ceil(re - Fraction(1, 2))
    return (complex(float(re - k), float(y / size)),
            complex(float(m.c * x + m.d), float(m.c * y)))


LAW_CHECKS = (check_G4_transform, check_L_quasimodular, check_Xi_invariance,
              check_weight1_invariance)
BASES = {"I": IDENTITY, "T": MAT_T, "U": MAT_U, "S": MAT_S, "TU": TU}


def seeded_law_cases(count=30):
    """(tau, T^k A0, A0) with |k| up to 10^18 and tau on a grid whose image
    under A0 clears the weight-1 floor (Im 0.1), the highest of the checks."""
    rng = random.Random("law-shifts")
    grid = [complex(re, im) for re in (-0.45, -0.25, -0.1, 0.2, 0.45) for im in (0.3, 0.5, 0.8)]
    cases = []
    for _ in range(count):
        base = BASES[rng.choice(sorted(BASES))]
        tau = rng.choice([t for t in grid if fraction_image(base, t)[0].imag >= 0.1])
        k = rng.choice((1, -1)) * rng.randint(0, 10 ** rng.randint(0, 18))
        cases.append((tau, MAT_T**k * base, base))
    return cases


class TestLawsAtLargeEntries:
    """A law check moves tau exactly and reduces A tau mod 1, so a large
    matrix entry costs no accuracy: each check's error is that of the
    matrix with the T^k shift taken off."""

    @pytest.mark.parametrize("check, tau, m", [
        (check_Xi_invariance, 0.1 + 0.5j, Mat2Z(1, 10**8, 0, 1)),
        (check_L_quasimodular, 0.3 + 1.1j, Mat2Z(1, 10**10, 0, 1)),
        (check_L_quasimodular, 0.3 + 1.1j, Mat2Z(100000001, 100000000, 1, 1)),
        (check_L_quasimodular, 100000000.3 + 1.1j, Mat2Z(1, -10**8, 3, -299999999)),
        (check_weight1_invariance, 0.3 + 1.1j, Mat2Z(1, 10**16, 0, 1)),
    ])
    def test_large_entries_pass(self, check, tau, m):
        report = check(tau, m)
        assert report.passed, report.describe()
        assert report.error < 1e-13

    def test_shift_drops_out(self):
        for tau, m, base in seeded_law_cases():
            for check in LAW_CHECKS:
                if check is check_Xi_invariance and base is MAT_S:
                    continue  # S is not upper-triangular mod 4
                report = check(tau, m)
                assert report.passed, report.describe()
                assert report.error == check(tau, base).error, (check.__name__, tau, m)

    def test_image_is_the_exact_image_rounded_once(self):
        points = [(tau, m) for tau, m, _ in seeded_law_cases()]
        edges = [5e-324 + 1j, 0.3 + 5e-324j, -2.5e-320 + 0.7j, 1e300 + 0.5j,
                 0.5 + 1e300j, -1e300 + 3e300j]
        rng = random.Random("image-edges")
        for tau in edges:
            for base in BASES.values():
                k = rng.choice((1, -1)) * rng.randint(0, 10**18)
                points += [(tau, base), (tau, MAT_T**k * base)]
        for tau, m in points:
            atau, j = analytic._image(m, tau, floor=0.0)
            assert (atau, j) == fraction_image(m, tau), (tau, m)
            assert -0.5 <= atau.real <= 0.5


class TestCusp:
    def test_bounded_periodic_and_powerful(self):
        report = check_cusp_boundedness()
        assert report.passed
        assert report.error < 1e-8
        assert "control defect" in report.witness

    def test_fails_on_its_control_below_tolerance(self, monkeypatch):
        # a control that stays periodic means the sweep could not see a defect
        monkeypatch.setattr(analytic, "_single_term_tilde", lambda tilde: 0j)
        report = check_cusp_boundedness()
        assert report.error < report.tol
        assert not report.passed
        assert "control defect=0.000e+00 (must exceed 0.001)" in report.witness

    def test_single_term_control_is_large(self):
        from foursquares.analytic import _single_term_tilde

        pt = 0.3 + 1j
        defect = abs(_single_term_tilde(pt + 1) - _single_term_tilde(pt))
        assert defect > 1e-3


class TestConcurrency:
    def test_checks_are_pure_under_thread_fanout(self):
        # same inputs from four threads must agree bit for bit
        from concurrent.futures import ThreadPoolExecutor

        tau = 0.3 + 0.9j
        with ThreadPoolExecutor(max_workers=4) as pool:
            values = list(pool.map(lambda _: L_eval(tau), range(8)))
            reports = list(pool.map(lambda _: check_theta_transform(tau), range(8)))
        assert len(set(values)) == 1
        assert len({r.error for r in reports}) == 1


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="lattice_radius must be positive"):
            EvalConfig(lattice_radius=0)
        with pytest.raises(TypeError):
            EvalConfig(row_cutoff=200_000)  # the row sums have no cutoff
        with pytest.raises(ValueError):
            EvalConfig(tol=-1.0)

    def test_cutoff_ceilings(self):
        # validated before anything of that size is allocated
        EvalConfig(lattice_radius=MAX_LATTICE_RADIUS)
        with pytest.raises(ValueError, match="lattice_radius"):
            EvalConfig(lattice_radius=MAX_LATTICE_RADIUS + 1)

    def test_tolerance_override(self):
        cfg = EvalConfig(tol=0.5)
        report = check_poisson(1.0, cfg)
        assert report.tol == 0.5

    @pytest.mark.parametrize("tol", [1e-15, 1e-3])
    def test_tolerance_sets_verdict_only(self, tol):
        # term counts come from tail bounds, never from the tolerance
        for check, args in ((check_theta_transform, (0.1 + 0.9j,)),
                            (check_L_quasimodular, (0.1 + 1.2j, MAT_S)),
                            (check_cusp_boundedness, ())):
            default = check(*args)
            override = check(*args, EvalConfig(tol=tol))
            assert override.error == default.error
            assert override.passed == (default.error < tol)

    def test_determinism(self):
        a = check_theta_transform(0.3 + 0.7j)
        b = check_theta_transform(0.3 + 0.7j)
        assert a == b
