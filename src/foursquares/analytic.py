"""Floating-point evaluation on the upper half plane and numerical checks
of the transformation laws.

Every function here evaluates q-series at q = exp(2 pi i tau) in double
precision, with truncation points chosen from explicit tail bounds, and
compares two independently computed sides of an identity.  Summation
orders are fixed (increasing |n|; lattice rows by increasing |c|, added
exactly rounded), so every reported error is deterministic for a given
configuration and point.

Series evaluation needs |q| bounded away from 1.  Checks that move points
with a group element reject images below the documented floor (im >= 0.05,
or 0.1 for the second-derivative checks), g and h raise where rounding may
reach 1e-10 of their sum, and the cusp sweep, closer to the real axis,
relies on the adaptive term count.

One Horner loop sums every dense q-series and returns it with a bound, its
tail plus a running rounding bound (Higham, *Accuracy and Stability of
Numerical Algorithms*, §5.1).  A lattice row sums (tau+d)^-k over a window
of d and both tails past it by the Euler-Maclaurin formula, so the row sums
and :func:`G4_lattice` need no cutoff in d and carry rounding-level bounds.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from functools import lru_cache, partial
from operator import attrgetter
from typing import TYPE_CHECKING

from .numtheory import phi_by_reduction, psi_table, sigma3_table, sigma_table
from .report import CheckReport, MembershipError, Record

if TYPE_CHECKING:
    from .modgroup import Mat2Z

_PI = math.pi
_U = 2.0**-53  # unit roundoff of a double
_REAL, _IMAG = attrgetter("real"), attrgetter("imag")

# Hard ceiling on adaptive series truncation: it bounds each table's size
# and each sum's time, not its accuracy.  Rounding eats the weight-1 sums'
# digits well above it, so g and h raise where their sum's bound passes
# _WEIGHT1_FLOOR of it, under ode-solution's 1e-9 (ROADMAP item 3).
_MAX_TERMS, _WEIGHT1_FLOOR = 20_000, 1e-10

# Default tolerances of the checks whose error is a rounding residual: laws
# sit at 1e-8 or better (double precision, |q| <= exp(-2 pi * 0.05) worst
# case).  The row sums and the lattice sum take theirs from remainder, tail
# and rounding bounds at call time.  See each check for the trace.
TOLERANCES = {
    "poisson-summation": 1e-13,
    "theta-transformation": 1e-10,
    "g4-weight4-law": 1e-10,
    "quasimodular-law": 1e-8,
    "xi-invariance": 1e-8,
    # g and h raise where their sum's bound passes 1e-10 of it: so F(i) is within
    # 2e-10 relative, and each normalised relation within 3e-10 plus rounding
    "monodromy": 1e-9,
    "ode-solution": 1e-9,
    "weight1-invariance": 1e-5,
    "cusp-boundedness": 1e-8,
}

# Side conditions of the cusp check.
CUSP_MODULUS_BOUND = 1e3
CUSP_CONTROL_THRESHOLD = 1e-3

# Ceiling on the lattice radius R, which G4_lattice takes from its tail bound
# (see _lattice_radius); the default 3000 binds below about im 0.0055.  Time is
# linear in R: 0.17 s at R = 10^4 and 0.001+0.001i (2-core VM, Python 3.11.7).
MAX_LATTICE_RADIUS = 10_000

# Half-width of the window of d that every row sums term by term before the
# Euler-Maclaurin tails (see _row_sum_left), in the row-sum checks and in
# G4_lattice alike.  At 16 a row's remainder stays under 7.6e-6 of its own
# rounding bound at weight 2 and 3.9e-4 at weight 4 (worst near im 7.3).
_ROW_WINDOW = 16

# Per even power k, _row_sum_left's tail coefficients beta_r =
# B_2r (k)_(2r-1) / (2r)!, r = 1..8, (k)_r the rising factorial, and its
# remainder constant 2 |B_16| (k)_16 / (16! (k + 15)), rounded once from ints.
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510))
_TAILS = {k: ([num * math.prod(range(k, k + 2 * r - 1)) / (den * math.factorial(2 * r))
               for r, (num, den) in enumerate(_BERNOULLI, 1)],
              2 * 3617 * math.prod(range(k, k + 16)) / (510 * math.factorial(16) * (k + 15)))
          for k in (2, 4)}
# (s, C_m), s = 4 + 2m, m = 1..8: a weight-4 row of im Y is at most C_m Y^(1-s),
# C_m = |B_2m| (4)_2m / (2m)! = |beta_m| (2m + 3) times sqrt(pi) Gamma(m + 3/2) /
# Gamma(m + 2) (see _lattice_radius).  The omitted rows' bound must meet
# _LATTICE_TARGET, about 0.5% of the 16u zeta(4) of rounding every lattice sum carries.
_ROW_BOUNDS = [(4 + 2 * m, abs(beta) * (2 * m + 3) * math.sqrt(_PI) * math.gamma(m + 1.5)
                / math.gamma(m + 2)) for m, beta in enumerate(_TAILS[4][0], 1)]
_LATTICE_TARGET = 1e-17


class EvalConfig(Record):
    """What the checks may vary: a ceiling on the lattice radius R and an
    optional tolerance override (None = per-check default).

    Truncation points come from bounds, never from here: series term counts
    from tails (:func:`_truncated_sum`, :func:`theta_eval`), the row sums
    take every d (:func:`_row_sum_left`) and R the omitted rows' bound
    (:func:`_lattice_radius`), so tol changes verdicts only.
    """

    __slots__ = ("lattice_radius", "tol")

    def __init__(self, lattice_radius: int = 3000, tol: float | None = None):
        if lattice_radius <= 0:
            raise ValueError("lattice_radius must be positive")
        if lattice_radius > MAX_LATTICE_RADIUS:
            raise ValueError(f"lattice_radius must be <= {MAX_LATTICE_RADIUS}")
        if tol is not None and not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"tol must be positive and finite (got {tol})")
        self.lattice_radius, self.tol = lattice_radius, tol


DEFAULT_CONFIG = EvalConfig()


def _require_uhp(tau: complex) -> complex:
    tau = complex(tau)
    if not cmath.isfinite(tau):
        raise ValueError(f"tau must be finite (got {tau})")
    if tau.imag <= 0:
        raise ValueError("tau must satisfy im(tau) > 0")
    return tau


def _q_from_tau(tau: complex) -> complex:
    """exp(2 pi i tau), taken at tau - round(re tau): exact (Sterbenz's
    lemma), so q's phase loses no 2 pi |re tau| u to a large re tau, and
    every evaluator through here gives the same bits at tau and tau + k
    whenever tau + k is itself exact."""
    return cmath.exp(2j * _PI * (tau - round(tau.real)))


@lru_cache(maxsize=None)
def _sigma_np(limit: int) -> tuple[float, ...]:
    return tuple(map(float, sigma_table(limit)))


@lru_cache(maxsize=None)
def _sigma3_np(limit: int) -> tuple[float, ...]:
    return tuple(map(float, sigma3_table(limit)))


def _terms_needed(absq: float, log_coeff_bound, y: float) -> tuple[int, int]:
    """(N, size): size, the tables' cache key, is the least of 256, 512, ...
    with coeff_bound(size) absq^size < 1e-18, and N the least n that meets
    it, by bisection; or raise, naming y = im(tau).  log_coeff_bound bounds log
    |c_n|, with coeff_bound(n+1)/coeff_bound(n) never growing: all n >= N meet it."""
    if absq >= 1.0:
        raise ValueError(f"im(tau) = {y:g} too small: |q| >= 1")
    logq = math.log(absq) if absq > 0 else -math.inf
    fits = lambda n: log_coeff_bound(n) + n * logq < math.log(1e-18)
    size = 256
    while size <= _MAX_TERMS:
        if fits(size):
            return 1 + bisect_left(range(1, size), True, key=fits), size
        size *= 2
    raise ValueError(f"im(tau) = {y:g} too small for double-precision series evaluation")


def _truncated_sum(tau: complex, table, log_coeff_bound) -> tuple[complex, float]:
    """sum c_n q^n at q = exp(2 pi i tau) over n <= N, c = table(size), (N,
    size) from :func:`_terms_needed`, and a bound on its distance from the
    series at tau: the tail B(N+1) |q|^(N+1) / (1 - r), B = exp(log_coeff_bound)
    and r = B(N+2) |q| / B(N+1) < 1 the largest later ratio; Horner's 1.01 u
    mu (:func:`_horner`); and (e + 2) u (mu - |y_0|) / 4 = (e + 2) u sum_(k>=1)
    |q|^k |y_k|, over both e u |sum k c_k q^k|, from q's error, e = 1.35 |2 pi
    t| + 3 (pi, 2 pi t and exp rounded; t = tau - round(re tau)), and u sum_(k>=1)
    |c_k q^k|, from rounding the tables' c_k (c_0 is exact)."""
    q = _q_from_tau(tau)
    absq = abs(q)
    n, size = _terms_needed(absq, log_coeff_bound, tau.imag)
    value, mu = _horner(table(size)[:n + 1], q)
    head = log_coeff_bound(n + 1)
    tail = math.exp(head) * absq ** (n + 1) / (1.0 - math.exp(log_coeff_bound(n + 2) - head) * absq)
    e = 1.35 * 2.0 * _PI * abs(tau - round(tau.real)) + 3.0
    return value, tail + _U * (1.01 * mu + (e + 2.0) * (mu - abs(value)) / 4.0)


def _horner(coeffs, q: complex) -> tuple[complex, float]:
    """sum c_k q^k by Horner's rule, from the highest power down, and mu, a
    bound on its rounding in units of u (Higham §5.1, Algorithm 5.1, made
    complex): y q rounds by at most sqrt(2) gamma_2 |y q| <= 3u |y q| (§3.6)
    and adding the real c by u |y q + c|, so y_k is off by at most u mu_k,
    mu_k = |q| (mu_(k+1) + 3 |y_(k+1)|) + |y_k|, to first order."""
    absq = abs(q)
    acc, mu, prev = 0j, 0.0, 0.0
    for c in reversed(coeffs):
        acc = acc * q + c
        mu = absq * (mu + 3.0 * prev) + (prev := abs(acc))
    return acc, mu


# ---------------------------------------------------------------- evaluators

def theta_eval(tau: complex) -> complex:
    """Direct summation of 1 + 2 sum q^(n^2) over increasing n.

    Lacunary, so it sums about sqrt(N) terms rather than going through
    :func:`_truncated_sum`; it stops once the last term 2|q|^(n^2) drops
    below 1e-16 (1 - |q|), which puts the geometric tail bound
    2|q|^(n^2)/(1-|q|) at rounding level.
    """
    tau = _require_uhp(tau)
    q = _q_from_tau(tau)
    absq = abs(q)
    if absq >= 1.0:
        raise ValueError(f"im(tau) = {tau.imag:g} too small: |q| >= 1")
    cutoff = 1e-16 * (1.0 - absq)
    acc = 1.0 + 0j
    qp = 1.0 + 0j  # q^(n^2), advanced by the odd power q^(2n-1)
    odd = q
    q2 = q * q
    for _ in range(_MAX_TERMS):
        qp *= odd
        odd *= q2
        acc += 2.0 * qp
        if 2.0 * abs(qp) <= cutoff:
            break
    else:
        raise ValueError(f"im(tau) = {tau.imag:g} too small for double-precision series evaluation")
    return acc


def L_eval(tau: complex) -> complex:
    """1 - 24 sum sigma(n) q^n with the term count taken from the tail bound
    24 n^2 |q|^n (sigma(n) <= n^2)."""
    tau = _require_uhp(tau)
    return 1.0 - 24.0 * _truncated_sum(
        tau, _sigma_np, lambda m: math.log(24.0) + 2.0 * math.log(m)
    )[0]


def _sigma3_tail(m: int) -> float:
    return math.log(300.0) + 3.0 * math.log(m)  # log of 300 m^3 >= 240 sigma3(m)


def _M_sum(tau: complex) -> tuple[complex, float]:
    """M at tau and 240 times the bound :func:`_truncated_sum` gives its sum."""
    tau = _require_uhp(tau)
    total, bound = _truncated_sum(tau, _sigma3_np, _sigma3_tail)
    return 1.0 + 240.0 * total, 240.0 * bound


def M_eval(tau: complex) -> complex:
    """1 + 240 sum sigma3(n) q^n; tail bound 300 n^3 |q|^n."""
    return _M_sum(tau)[0]


@lru_cache(maxsize=None)
def _psi_np(order: int) -> tuple[float, ...]:
    return tuple(map(float, psi_table(order)))


@lru_cache(maxsize=None)
def _phi_np(order: int) -> tuple[float, ...]:
    # int true division is correctly rounded: each float is phi_n's own
    num, den = phi_by_reduction(order)
    return tuple(c / den for c in num)


def _weight1_bound(n: int) -> float:
    # psi and phi coefficients grow like exp(2 pi sqrt(n/3)); 3.63 sqrt(n)
    # over-covers both.
    return 3.63 * math.sqrt(n)


def _weight1(sign: int, tau: complex, table, log_coeff_bound=_weight1_bound,
             floor: bool = True) -> complex:
    """exp(sign i pi tau / 6) sum c_n q^n: g (-1, c = psi), h (+1, phi) and
    their second derivatives.  With floor, raise where the sum's bound passes
    _WEIGHT1_FLOOR of its modulus: psi and phi never vanish, but the second
    derivatives' sums, (pi^2/36) E4 times them, vanish where E4 does."""
    tau = _require_uhp(tau)
    total, bound = _truncated_sum(tau, table, log_coeff_bound)
    if floor and not bound <= _WEIGHT1_FLOOR * abs(total):
        raise ValueError(f"im(tau) = {tau.imag:g} too small: the weight-1 sum's bound "
                         f"{bound:.1e} passes {_WEIGHT1_FLOOR:g} of its modulus {abs(total):.1e}")
    try:
        return cmath.exp(sign * 1j * _PI * tau / 6.0) * total
    except OverflowError:
        raise ValueError(f"exp(pi im(tau) / 6) overflows at im(tau) = {tau.imag:g}") from None


def g_eval(tau: complex) -> complex:
    """g(tau) = exp(-i pi tau / 6) * psi(q), the nowhere-zero solution."""
    return _weight1(-1, tau, _psi_np)


def h_eval(tau: complex) -> complex:
    """h(tau) = exp(+i pi tau / 6) * phi(q), the companion solution."""
    return _weight1(1, tau, _phi_np)


def _lattice_radius(y: float, ceiling: int) -> tuple[int, float]:
    """(R, bound on the rows |c| > R) for G4_lattice at im(tau) = y.

    Euler-Maclaurin over all of Z (DLMF 2.10.1, §24.9) leaves a row of im Y
    its remainder alone, as the boundary terms and the integral vanish: at
    most |B_2m| (4)_2m / (2m)! times the beta integral (DLMF 5.12.3) of
    |t + x|^-s, which is C_m Y^(1-s).  So the rows +-c, c > R, Y = c y, sum
    to at most 2 C_m y^(1-s) R^(2-s) / (s - 2).  R is the least radius up to
    ceiling that puts one m's bound under _LATTICE_TARGET, in closed form
    per m.  The bound is the least over m and the moduli bound pi/(2 R^2
    y^3) + 2/(3 R^3 y^4) (a row's integral pi/(2 Y^3) plus its peak Y^-4),
    smaller where the ceiling binds; in logs, and it raises past double range.
    """
    logy, cap, target = math.log(y), math.log(ceiling), math.log(_LATTICE_TARGET)
    arms = [(math.log(2.0 * cm / (s - 2)) + (1 - s) * logy, s - 2) for s, cm in _ROW_BOUNDS]
    radius = max(1, min(ceiling, *(math.ceil(math.exp(min(cap, (a - target) / p)))
                                   for a, p in arms)))
    logr = math.log(radius)
    moduli = math.log(_PI / 2.0 + 2.0 / (3.0 * radius * y)) - 2.0 * logr - 3.0 * logy
    try:
        return radius, math.exp(min(moduli, *(a - p * logr for a, p in arms)))
    except OverflowError:
        raise ValueError(f"im(tau) = {y:g} too small: the bound on the lattice rows past "
                         f"|c| = {radius} leaves the range of double precision") from None


def G4_lattice(tau: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> tuple[complex, float, int, float]:
    """The weight-4 lattice sum over the rows |c| <= R, a bound on its
    distance from the sum over all (c, d) != (0, 0), R and the omitted rows'
    bound.

    Rows c and -c agree and row 0 is 2 zeta(4), so the sum is pi^4/45 + 2
    sum_(c=1..R) row(c tau), each by :func:`_row_sum_left` at c tau - round(c
    re tau), formed in ints from re(tau)'s exact ratio and rounded once.  R
    and the omitted rows' bound come from :func:`_lattice_radius`, under the
    ceiling cfg.lattice_radius; the bound adds twice the rows' bounds, 8u of
    pi^4/90 and sqrt(2) u of the total for the last fsum."""
    tau = _require_uhp(tau)
    y = tau.imag
    radius, omitted = _lattice_radius(y, cfg.lattice_radius)
    num, den = tau.real.as_integer_ratio()
    shift = lambda c: ((2 * c * num + den) % (2 * den) - den) / (2 * den)  # c re tau, mod 1
    rows, bounds = zip(*(_row_sum_left(complex(shift(c), c * y), 4)
                         for c in range(1, radius + 1)))
    zeta4 = _PI**4 / 90.0
    total = 2.0 * complex(math.fsum([zeta4, *map(_REAL, rows)]), math.fsum(map(_IMAG, rows)))
    bound = omitted + 2.0 * (math.fsum(bounds) + 8.0 * _U * zeta4) + 1.5 * _U * abs(total)
    return total, bound, radius, omitted


def G4_series(tau: complex) -> complex:
    """(pi^4 / 45) * M(q), the q-expansion route to the lattice sum."""
    return (_PI**4 / 45.0) * M_eval(tau)


# --------------------------------------------------------------------- checks

def _law_report(identity: str, error: float, cfg: EvalConfig, ok: bool = True,
                default_tol: float | None = None, **where) -> CheckReport:
    """The pass rule of every analytic check: the side condition ok holds
    and the error is below the tolerance, which is cfg.tol when set, else
    the check's default_tol (traced to its bounds at call time), else
    TOLERANCES[identity].  where names what the error was measured at."""
    tol = cfg.tol or default_tol or TOLERANCES[identity]
    return CheckReport(identity=identity, passed=ok and error < tol, error=error, tol=tol, **where)


def _image(m: Mat2Z, tau: complex, floor: float = 0.05) -> tuple[complex, complex]:
    """modgroup.reduced_image, whose shift k drops out of every law (L, M and Xi have
    period 1; g, g'' gain one unit phase); im(A tau) below floor is rejected."""
    from .modgroup import reduced_image
    atau, j = reduced_image(m, tau)
    if atau.imag < floor:
        raise ValueError(f"im(A tau) must stay >= {floor:g} for series evaluation")
    return atau, j


def check_poisson(t: float, cfg: EvalConfig = DEFAULT_CONFIG) -> CheckReport:
    """Gaussian summation identity: sum exp(-2 pi t n^2) = theta(i t) against
    its dual theta(i/(4t)) scaled by 1/sqrt(2t); both summed by
    :func:`theta_eval` to its tail bound."""
    if t <= 0:
        raise ValueError("t must be positive")
    lhs = theta_eval(1j * t)
    rhs = theta_eval(1j / (4.0 * t)) / math.sqrt(2.0 * t)
    return _law_report("poisson-summation", abs(lhs - rhs) / abs(rhs), cfg, witness=f"t={t:g}")


def check_theta_transform(tau: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> CheckReport:
    """theta(-1/4tau)^4 = -4 tau^2 theta(tau)^4, relative error."""
    tau = _require_uhp(tau)
    inv = -1.0 / (4.0 * tau)
    try:
        lhs = theta_eval(inv) ** 4
    except ValueError as exc:
        raise ValueError(f"at -1/(4 tau), im {inv.imag:.3g}, for im(tau) = {tau.imag:g}: {exc}") from None
    rhs = -4.0 * tau * tau * theta_eval(tau) ** 4
    return _law_report("theta-transformation", abs(lhs - rhs) / abs(rhs), cfg, tau=tau)


def _row_sum_left(tau: complex, power: int) -> tuple[complex, float]:
    """The row sum over all d of (tau+d)^-k, k = power even, and a bound
    on its error.  It is 1-periodic, so it is taken at t = tau - round(re
    tau) (exact, by Sterbenz's lemma); math.fsum adds the terms with
    |d| <= _ROW_WINDOW and both tails sum_(j>=0) (z + j)^-k, z = a +- t,
    a = _ROW_WINDOW + 1.  By DLMF 2.10.1 with 8 Bernoulli terms and
    f^(r)(x) = (-1)^r (k)_r (z + x)^(-k-r), a tail is w^(k-1) (1/(k-1) +
    w/2 + sum_r beta_r w^2r), w = 1/z, off by at most |B_16|/16! int |f^(16)|
    (|B~_16(x)| <= |B_16|, DLMF §24.9).  As |z + x| >= x + a - 1/2 and
    >= (x + a - 1/2 + im t)/sqrt(2), that is _TAILS' constant times
    min((a - 1/2)^(1-p), 2^(p/2) (a - 1/2 + im t)^(1-p)) for both tails,
    p = k + 16: about 3e-20 at k = 2 and 5e-21 at k = 4, a = 17.  Rounding,
    to first order in u, with A and B the moduli of the window's and the
    tails' terms, is u ((4k + 8) A + 260 B): t + d is off by 2u relative at
    most, the power by log2 k complex products (2 sqrt(2) u each) and
    CPython's reciprocal (5u), under (4k + 6) u a term; a tail by under
    256 u B (w by 7u; powers and Horner steps add less); fsum rounds each
    part once, sqrt(2) u (A+B).
    """
    betas, remainder = _TAILS[power]
    t, window = tau - round(tau.real), _ROW_WINDOW
    terms = [(t + d) ** -power for d in range(-window, window + 1)]
    a, moduli = window + 1, (4 * power + 8) * math.fsum(map(abs, terms))
    if not math.isfinite(moduli):  # (t + d)^k overflows from im t ~ 1e77 (k = 4)
        raise ValueError(f"the row sum at im(tau) = {t.imag:g} leaves the range of double precision")
    for z in (a + t, a - t):
        w = 1.0 / z
        w2, aw = w * w, abs(w)
        poly, major = 0j, 0.0
        for beta in reversed(betas):
            poly = poly * w2 + beta
            major = major * aw * aw + abs(beta)
        terms.append(w ** (power - 1) * (1.0 / (power - 1) + w * (0.5 + w * poly)))
        moduli += 260 * aw ** (power - 1) * (1.0 / (power - 1) + aw * (0.5 + aw * major))
    value = complex(math.fsum(map(_REAL, terms)), math.fsum(map(_IMAG, terms)))
    p = power + 16
    remainder *= min((a - 0.5) ** (1 - p), 2.0 ** (p / 2) * (a - 0.5 + t.imag) ** (1 - p))
    return value, remainder + _U * moduli


def _row_sum_error(tau: complex, power: int, coeff: float) -> tuple[float, float]:
    """|sum over all d of (tau+d)^-power - coeff sum m^(power-1) q^m|, and
    its bound where the identity holds: the left side's from
    :func:`_row_sum_left`, |coeff| times the right side's from
    :func:`_truncated_sum` over the exact table m^(power-1), and u |coeff S|
    each for the product by coeff and the difference."""
    left, left_bound = _row_sum_left(tau, power)
    w = power - 1
    total, bound = _truncated_sum(tau, lambda n: [float(m**w) for m in range(n + 1)],
                                  lambda m: w * math.log(m))
    return abs(left - coeff * total), left_bound + abs(coeff) * (bound + 2.0 * _U * abs(total))


def check_row_sum2(tau: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> CheckReport:
    """sum over every d of (tau+d)^-2 against -4 pi^2 sum m q^m, absolute
    difference; the tolerance is the traced bound of :func:`_row_sum_error`
    (both sides' rounding, a remainder near 3e-20 and the right side's tail).
    """
    tau = _require_uhp(tau)
    err, bound = _row_sum_error(tau, 2, -4.0 * _PI**2)
    return _law_report("row-sum-weight2", err, cfg, default_tol=bound, tau=tau)


def check_row_sum4(tau: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> CheckReport:
    """sum over every d of (tau+d)^-4 against (8 pi^4 / 3) sum m^3 q^m, with
    the tolerance of :func:`check_row_sum2`: near the real axis the right
    side grows (about 1e4 at 0.1+0.1i), and so does its rounding.
    """
    tau = _require_uhp(tau)
    err, bound = _row_sum_error(tau, 4, 8.0 * _PI**4 / 3.0)
    return _law_report("row-sum-weight4", err, cfg, default_tol=bound, tau=tau)


def check_G4_expansion(tau: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> CheckReport:
    """Lattice sum by rows against the sigma3 q-expansion, relative error.

    The tolerance is the bound of :func:`G4_lattice` (rounding, and omitted
    rows under 1e-17) plus (pi^4/45) 240 times the bound of the sum that
    gives M, relative to the series: 5.3e-15 at the default tau, where R is
    12.  The witness names R and the omitted rows' bound."""
    tau = _require_uhp(tau)
    m, m_bound = _M_sum(tau)
    series = (_PI**4 / 45.0) * m
    lattice, bound, radius, omitted = G4_lattice(tau, cfg)
    tol = (bound + (_PI**4 / 45.0) * m_bound) / abs(series)
    return _law_report("g4-lattice-vs-series", abs(lattice - series) / abs(series), cfg, default_tol=tol,
                       tau=tau, witness=f"rows |c|<={radius}, omitted<={omitted:.1e}")


def check_G4_transform(tau: complex, m: Mat2Z, cfg: EvalConfig = DEFAULT_CONFIG) -> CheckReport:
    """G4(A tau) = (c tau + d)^4 G4(tau) via the series evaluation."""
    tau = _require_uhp(tau)
    atau, j = _image(m, tau)
    lhs = G4_series(atau)
    rhs = j**4 * G4_series(tau)
    return _law_report("g4-weight4-law", abs(lhs - rhs) / abs(rhs), cfg,
                       tau=tau, matrix=m.format())


def check_L_quasimodular(tau: complex, m: Mat2Z, cfg: EvalConfig = DEFAULT_CONFIG) -> CheckReport:
    """L(A tau) = (c tau + d)^2 L(tau) + (6 / pi i) c (c tau + d)."""
    tau = _require_uhp(tau)
    atau, j = _image(m, tau)
    lhs = L_eval(atau)
    rhs = j * j * L_eval(tau) + (6.0 / (_PI * 1j)) * m.c * j
    return _law_report("quasimodular-law", abs(lhs - rhs), cfg, tau=tau, matrix=m.format())


def _odd_sigma(size: int) -> tuple[float, ...]:
    return _sigma_np(2 * size + 1)[1::2]  # sigma(2k + 1), k = 0..size


def _xi_tail(k: int) -> float:
    return math.log(48.0) + 2.0 * math.log(2 * k + 1)  # 48 (2k+1)^2 >= 48 sigma(2k+1)


def _xi_combination(tau: complex) -> complex:
    """L(tau) - L(tau + 1/2) = -48 sum_(n odd) sigma(n) q^n, as q times one
    sum in q^2 = exp(2 pi i (2 tau)): a quarter of two L sums' terms."""
    return -48.0 * _q_from_tau(tau) * _truncated_sum(2.0 * tau, _odd_sigma, _xi_tail)[0]


def check_Xi_invariance(tau: complex, m: Mat2Z, cfg: EvalConfig = DEFAULT_CONFIG) -> CheckReport:
    """(L - L(.+1/2)) transforms with weight 2 under the level-4 group;
    the Jacobian (c tau + d)^-2 cancels the weight exactly."""
    from .modgroup import in_gamma0_4
    tau = _require_uhp(tau)
    if not in_gamma0_4(m):
        raise MembershipError(f"{m.format()} is not upper-triangular mod 4")
    if tau.imag < 0.05:
        raise ValueError("im(tau) must stay >= 0.05 for series evaluation")
    atau, j = _image(m, tau)
    lhs = _xi_combination(atau) / (j * j)
    return _law_report("xi-invariance", abs(lhs - _xi_combination(tau)), cfg,
                       tau=tau, matrix=m.format())


def check_monodromy(tau: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> CheckReport:
    """(g, h)(-1/tau) = (i/tau) (g, 2 F(i) g - h)(tau) and (g, h)(tau + 1) =
    (exp(-i pi/6) g, exp(i pi/6) h)(tau), F(i) = h(i)/g(i).  Each relation errs
    by |lhs - rhs| over |lhs| plus the moduli of rhs's terms; the largest is the
    error.  h -> a h + b g keeps the S law, as F(i) moves with the basis."""
    tau = _require_uhp(tau)
    inv = -1.0 / tau
    try:
        g_inv, h_inv = g_eval(inv), h_eval(inv)
    except ValueError as exc:
        raise ValueError(f"at -1/tau, im {inv.imag:.3g}, for im(tau) = {tau.imag:g}: {exc}") from None
    g, h, s, e = g_eval(tau), h_eval(tau), 1j / tau, cmath.exp(1j * _PI / 6.0)
    f_i = h_eval(1j) / g_eval(1j)
    error = max(abs(lhs - sum(terms)) / (abs(lhs) + sum(map(abs, terms))) for lhs, terms in (
        (g_inv, (s * g,)), (h_inv, (2.0 * f_i * s * g, -s * h)),
        (g_eval(tau + 1.0), (g / e,)), (h_eval(tau + 1.0), (e * h,))))
    return _law_report("monodromy", error, cfg, tau=tau, witness=f"F(i)={f_i!r}")


@lru_cache(maxsize=None)
def _d2_table(sign: int, order: int) -> tuple[float, ...]:
    """c_n f_n^2, f_n = pi (12n + sign) / 6: c = psi for g (sign -1), phi for h (+1)."""
    table = _psi_np if sign < 0 else _phi_np
    return tuple(c * f * f for c, f in
                 zip(table(order), (_PI * (12 * n + sign) / 6.0 for n in range(order + 1))))


def _termwise_second_derivative(sign: int, tau: complex) -> complex:
    """d^2/dtau^2 of g (sign -1) or h (+1) by differentiating each exponential term.

    g(tau) = sum b_n exp(i pi (12n - 1) tau / 6) and h likewise with
    (12n + 1), so the n-th term picks up -(pi (12n -+ 1) / 6)^2, under
    (2 pi (n + 1))^2, by which the tail bound grows.
    """
    return -_weight1(sign, tau, partial(_d2_table, sign),
                     lambda n: _weight1_bound(n) + 2.0 * math.log(2.0 * _PI * (n + 1)),
                     floor=False)


def check_ode_solution(tau: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> CheckReport:
    """Both g and h satisfy y'' + (pi^2/36) M y = 0 at tau.

    y'' is the termwise second derivative of the series form, an exact
    differentiation summed to the same tail bound as y, so the residual
    y'' + (pi^2/36) M y measures rounding only.
    """
    tau = _require_uhp(tau)
    if tau.imag <= 0.1:
        raise ValueError("ode check requires im(tau) > 0.1")
    mval = M_eval(tau)
    g, h = (abs(_termwise_second_derivative(sign, tau) + _PI**2 / 36.0 * mval * func(tau))
            for sign, func in ((-1, g_eval), (1, h_eval)))
    return _law_report("ode-solution", max(g, h), cfg, tau=tau,
                       witness=f"residual g={g:.3e}, h={h:.3e}")


def check_weight1_invariance(
    tau: complex, m: Mat2Z, cfg: EvalConfig = DEFAULT_CONFIG
) -> CheckReport:
    """(c tau + d) g(A tau) is again a solution of the linear equation.

    With j = c tau + d, the chain rule gives (j g(A tau))'' = g''(A tau) / j^3,
    and g'' is differentiated termwise at A tau, so the residual is
    g''(A tau) / j^3 + (pi^2/36) M(tau) j g(A tau).
    """
    tau = _require_uhp(tau)
    atau, j = _image(m, tau, floor=0.1)
    residual = abs(_termwise_second_derivative(-1, atau) / j**3
                   + (_PI**2 / 36.0) * M_eval(tau) * j * g_eval(atau))
    return _law_report("weight1-invariance", residual, cfg, tau=tau, matrix=m.format())


def _xi_tilde(tilde: complex) -> complex:
    """The invariant combination viewed at the cusp: the coordinate change
    tau = -1/(4 tilde) with Jacobian 1/(4 tilde^2)."""
    return _xi_combination(-1.0 / (4.0 * tilde)) / (4.0 * tilde * tilde)


def _single_term_tilde(tilde: complex) -> complex:
    return L_eval(-1.0 / (4.0 * tilde)) / (4.0 * tilde * tilde)


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """num evenly spaced points, the last exactly stop (the tests check them
    against numpy.linspace bit for bit, so the grids match earlier runs)."""
    step = (stop - start) / (num - 1)
    return [start + i * step for i in range(num - 1)] + [stop]


def check_cusp_boundedness(cfg: EvalConfig = DEFAULT_CONFIG) -> CheckReport:
    """Behaviour at the cusp: the combination stays bounded and 1-periodic
    on the rectangle {0 <= x <= 1, 1 <= y <= 20} (plus a dense y = 1 line),
    whereas either L-term alone visibly fails periodicity (the negative
    control)."""
    pts = [complex(x, y) for y in _linspace(1.0, 20.0, 11) for x in _linspace(0.0, 1.0, 11)]
    dense = [complex(x, 1.0) for x in _linspace(0.0, 1.0, 101)]
    values = [(_xi_tilde(pt), _xi_tilde(pt + 1.0)) for pt in pts + dense]
    max_mod, max_defect = max(abs(v) for v, _ in values), max(abs(w - v) for v, w in values)
    control = max(abs(_single_term_tilde(pt + 1.0) - _single_term_tilde(pt)) for pt in dense[::10])
    return _law_report(
        "cusp-boundedness", max_defect, cfg,
        ok=max_mod < CUSP_MODULUS_BOUND and control > CUSP_CONTROL_THRESHOLD,
        witness=f"max modulus={max_mod:.4g} (bound {CUSP_MODULUS_BOUND:g}), "
        f"control defect={control:.3e} (must exceed {CUSP_CONTROL_THRESHOLD:g})")
