"""The named q-series and every coefficient-exact identity check.

Constructors for the series in play:

    theta     sum over all integers n of q^(n^2)
    theta2    theta squared, the kernel's theta * theta
    theta4    theta2 squared; coefficient n counts the ordered four-square
              representations of n
    series_L  1 - 24 * sum sigma(n) q^n
    series_M  1 + 240 * sum sigma3(n) q^n
    psi       the weight-1 density factor P(q)^2 by Euler's pentagonal recurrence,
              checked by the sigma and sigma3 recursions (exp runs the sigma one)
    phi       the companion solution's series by reduction of order, from
              numtheory's ints: P(q)^2 times the term-by-term integral of
              prod (1-q^n)^4, checked against the sigma3 recursion
    partition_series   P(q) = sum p(k) q^k

The verify_* functions re-derive both sides of an identity through
independent routes and compare them exactly through the order the caller
gives, reporting the first failing coefficient index on mismatch.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .numtheory import (
    _kept_prefix,
    partitions_table,
    phi_by_reduction,
    psi_table,
    sigma,
    sigma3_table,
    sigma_table,
)
from .qseries import QSeries, exp0, qderiv, recurrence, substitute_neg
from .report import CheckReport


def theta(order: int) -> QSeries:
    """Coefficient n is 2 if n is a positive perfect square, 1 if n = 0, else 0."""
    if order < 0:
        raise ValueError("order must be >= 0")
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for k in range(1, math.isqrt(order) + 1):
        coeffs[k * k] = 2
    return QSeries._of(coeffs)


def theta2(order: int) -> QSeries:
    """theta * theta by the series kernel, kept per process; `foursquares r4` reads it."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return QSeries._of(_kept_prefix("theta2", order, lambda n: (theta(n) ** 2).coeffs))


def theta4(order: int) -> QSeries:
    """theta2 * theta2 by the kernel, kept per process; coefficient n counts
    four-square representations."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return QSeries._of(_kept_prefix("theta4", order, lambda n: (theta2(n) ** 2).coeffs))


def series_L(order: int) -> QSeries:
    if order < 0:
        raise ValueError("order must be >= 0")
    return QSeries._of([1] + [-24 * s for s in sigma_table(order)[1:]])


def series_M(order: int) -> QSeries:
    if order < 0:
        raise ValueError("order must be >= 0")
    return QSeries._of([1] + [240 * s for s in sigma3_table(order)[1:]])


def partition_series(order: int) -> QSeries:
    """P(q), the generating function of the partition numbers."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return QSeries._of(partitions_table(order))


def psi_by_recursion(order: int) -> QSeries:
    """psi from b_0 = 1, b_n = (2/n) * sum_{k=1}^{n} sigma(k) b_{n-k}.

    The coefficients are provably integers; a non-integral value would
    falsify that, so it raises rather than warns.
    """
    b = recurrence(QSeries._of(sigma_table(order)), lambda n: Fraction(2, n), order)
    for n, bn in enumerate(b.coeffs):
        if bn.denominator != 1:
            raise ArithmeticError(f"b_{n} = {bn} is not an integer")
    return b


def psi_by_sigma3_recursion(order: int) -> QSeries:
    """psi from the alternate recursion b_n = 10/(n(6n-1)) sum sigma3(k) b_{n-k}.

    Agreement with :func:`psi_by_recursion` is exactly the formal content of
    the Ramanujan differential identity.
    """
    return recurrence(QSeries._of(sigma3_table(order)),
                      lambda n: Fraction(10, n * (6 * n - 1)), order)


def psi_by_exp(order: int) -> QSeries:
    """psi as exp(2 * sum sigma(n)/n q^n).  exp0 solves its q d/dq equation by
    :func:`psi_by_recursion`'s recurrence, so this is that route, not a third."""
    if order < 0:
        raise ValueError("order must be >= 0")
    sig = sigma_table(order)
    arg = QSeries([0] + [Fraction(2 * sig[n], n) for n in range(1, order + 1)])
    return exp0(arg)


def psi_by_partition_square(order: int) -> QSeries:
    """psi as P(q)^2, kept per process (numtheory.psi_table)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return QSeries._of(psi_table(order))


def phi_by_recursion(order: int) -> QSeries:
    """phi from a_0 = 1, a_n = 10/(n(6n+1)) sum sigma3(k) a_{n-k}; exact rationals."""
    return recurrence(QSeries._of(sigma3_table(order)),
                      lambda n: Fraction(10, n * (6 * n + 1)), order)


def phi_by_reduction_of_order(order: int) -> QSeries:
    """phi as P(q)^2 * sum e_n q^n/(6n+1), where sum e_n q^n = prod (1-q^n)^4.

    Reduction of order: h = g * integral of 1/g^2, and 1/g^2 = eta^4 =
    q^(1/6) prod (1-q^n)^4, so integrating term by term in tau divides
    e_n by n + 1/6.  The ints come from :func:`numtheory.phi_by_reduction`.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    return QSeries._of(*phi_by_reduction(order))


# ----------------------------------------------------------------- verifiers

def first_mismatch(got: QSeries, want: QSeries, upto: int):
    """Index and value pair of the first disagreement up to `upto`, or None."""
    if got.truncated(upto) == want.truncated(upto):
        return None
    for n in range(upto + 1):
        if got[n] != want[n]:
            return n, got[n], want[n]
    return None


def _mismatch(got: QSeries, want: QSeries, order: int,
              label: str = "coefficient") -> str | None:
    """The witness text of the first disagreement up to `order`, or None."""
    bad = first_mismatch(got, want, order)
    return None if bad is None else "{} {}: got {}, expected {}".format(label, *bad)


def _exact_report(identity: str, order: int, failure: str | None = None,
                  note: str | None = None) -> CheckReport:
    """The pass rule of every exact check: it passes iff no failure was
    found.  The witness is the failure, or on a pass the optional note."""
    return CheckReport(identity=identity, passed=failure is None, order=order,
                       witness=failure or note)


def _ode_report(L: QSeries, M: QSeries, order: int) -> CheckReport:
    defect = 12 * qderiv(L) - L * L + M
    return _exact_report("ramanujan-ode", order, _mismatch(defect, QSeries.zero(order), order))


def verify_ramanujan_ode(order: int) -> CheckReport:
    """12 q dL/dq - L^2 + M must vanish identically to the given order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return _ode_report(series_L(order), series_M(order), order)


def verify_jacobi(order: int) -> CheckReport:
    """theta^4(q) - theta^4(-q) has coefficient 16*sigma(n) at odd n, 0 at even n."""
    if order < 1:
        raise ValueError("order must be >= 1")
    t4 = theta4(order)
    diff = t4 - substitute_neg(t4)
    sig = sigma_table(order)
    want = QSeries._of([0] + [16 * sig[n] if n % 2 else 0 for n in range(1, order + 1)])
    return _exact_report("jacobi-odd-part", order, _mismatch(diff, want, order))


def verify_lagrange(order: int) -> CheckReport:
    """Every theta^4 coefficient for n >= 1 is strictly positive."""
    if order < 1:
        raise ValueError("order must be >= 1")
    t4 = theta4(order)
    n = next((n for n in range(1, order + 1) if t4[n] <= 0), None)
    return _exact_report("lagrange-positivity", order,
                         None if n is None else f"coefficient {n}: got {t4[n]}, expected > 0")


def verify_full_jacobi(order: int) -> CheckReport:
    """theta^4 coefficient n equals 8 * sum of divisors of n not divisible by 4,
    which is sigma(n) - 4 sigma(n/4): the others are 4e with e | n/4."""
    if order < 1:
        raise ValueError("order must be >= 1")
    t4 = theta4(order)
    sig = sigma_table(order)
    want = QSeries._of([1] + [8 * (sig[n] - (0 if n % 4 else 4 * sig[n // 4]))
                              for n in range(1, order + 1)])
    return _exact_report("full-jacobi-formula", order, _mismatch(t4, want, order))


def verify_sigma_lambert(order: int) -> CheckReport:
    """sum sigma(n) q^n equals the Lambert sum of n q^n / (1 - q^n), which
    expands as sum_n sum_j n q^(nj): the sieve of `sigma_table`, checked
    against sigma(n) by trial division."""
    if order < 1:
        raise ValueError("order must be >= 1")
    want = QSeries._of([0] + [sigma(n) for n in range(1, order + 1)])
    return _exact_report("sigma-lambert", order,
                         _mismatch(QSeries._of(sigma_table(order)), want, order))


def verify_psi_triple(order: int) -> CheckReport:
    """All constructions of psi agree, coefficients are positive integers,
    both constructions of phi agree, and the companion coefficients satisfy
    0 < a_n <= b_n throughout."""
    if order < 1:
        raise ValueError("order must be >= 1")
    by_rec = psi_by_recursion(order)
    a = phi_by_recursion(order)
    for name, other, ref in (
        ("exp-construction", psi_by_exp(order), by_rec),
        ("partition-square", psi_by_partition_square(order), by_rec),
        ("sigma3-recursion", psi_by_sigma3_recursion(order), by_rec),
        ("reduction-of-order", phi_by_reduction_of_order(order), a),
    ):
        if failure := _mismatch(other, ref, order, f"{name} coefficient"):
            return _exact_report("psi-triple", order, failure)
    a_num, den = a.stored  # a_n = a_num[n] / den; b_n is an int (psi_by_recursion checks)
    for n, (an, bn) in enumerate(zip(a_num, by_rec.coeffs)):
        if bn <= 0:
            return _exact_report("psi-triple", order, f"b_{n} = {by_rec[n]} is not positive")
        if not 0 < an <= bn * den:
            return _exact_report("psi-triple", order,
                                 f"a_{n} = {a[n]} outside (0, b_{n} = {by_rec[n]}]")
    return _exact_report("psi-triple", order)


def verify_final_proportionality(order: int) -> CheckReport:
    """theta^4(q) - theta^4(-q) is a constant multiple of L(q) - L(-q).

    The constant is computed from the leading nonzero coefficients, never
    hard-coded, then checked across every index.  (It comes out to -1/3.)
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    t4 = theta4(order)
    lhs = t4 - substitute_neg(t4)
    L = series_L(order)
    rhs = L - substitute_neg(L)
    lead = next((n for n in range(order + 1) if rhs[n] != 0), None)
    if lead is None:
        return _exact_report("final-proportionality", order,
                             "right side vanishes identically; no constant to derive")
    ratio = Fraction(lhs[lead], rhs[lead])
    return _exact_report("final-proportionality", order, _mismatch(lhs, ratio * rhs, order),
                         note=f"constant = {ratio}")
