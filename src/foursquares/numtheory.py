"""Exact integer arithmetic: divisor sums, the generalised pentagonal numbers,
partition numbers, brute-force four-square counts, and phi's reduction-of-order
ints (verify psi-triple checks them against the sigma3 recursion).

The rest is ground truth for the series modules: plain enumeration and trial
division over arbitrary-precision integers, sharing no code with the series
they check.  r4_bruteforce counts lattice points in two halves: the pairs
(c, d) first, axis and interior points apart so no step is tested, then the
pairs (a, b) they complete, each pair of halves once.  Every value is a pure
function of the arguments.  _kept holds, per process, each kind's largest
build as one immutable value that a larger build replaces whole, so callers
may fan out over n with no coordination: the sigma, sigma3, partition and psi
tables here and forms' theta2 and theta4 up to _KEPT_LIMIT, and phi's
(num, den) pair, with forms' series of it, up to _PHI_KEPT_LIMIT.
"""

from __future__ import annotations

from itertools import product
from math import gcd, isqrt, lcm
from operator import mul
from typing import Sequence

# r4_bruteforce takes about (pi/4) n untested steps and one table of n + 1
# ints (0.03 s and 1.5 MB at n = 2 * 10^5).  `foursquares r4` also reads the
# kernel's theta^2 (forms.theta2, kept up to _KEPT_LIMIT; about n^1.6, Karatsuba
# on packed ints), which sets its cost, and one dot product.  Whole subcommand,
# 2-core VM: 0.17-0.27 s at 10^5, 0.35-0.5 s (21 MB) at 2 * 10^5.
R4_MAX_N = 200_000

# Tables up to the largest analytic asks for under its _MAX_TERMS (sizes
# double from 256 while <= 20,000) are kept; larger ones are built, not kept.
_KEPT_LIMIT = 16_384
# phi is kept through the CLI's --order ceiling (5.1 MiB, and 5.3 more once its
# series' Fractions are read): den has 4.3 bits a term, so analytic's larger
# tables are built, not kept.
_PHI_KEPT_LIMIT = 3000
_kept: dict[str, tuple] = {}


def _kept_prefix(kind: str, limit: int, build) -> list[int]:
    """build(limit) as a fresh list, sliced from the kept tuple of its kind; a
    larger build replaces that tuple whole, so threads need no lock.  Above
    _KEPT_LIMIT, build's own value, not kept."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    table = _kept.get(kind, ())
    if limit >= len(table):
        if limit > _KEPT_LIMIT:
            return build(limit)
        table = _kept[kind] = tuple(build(limit))
    return list(table[:limit + 1])


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending, by trial division."""
    if n <= 0:
        raise ValueError("n must be >= 1")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def sigma(n: int) -> int:
    """Sum of the positive divisors of n."""
    return sum(divisors(n))


def sigma3(n: int) -> int:
    """Sum of the cubes of the positive divisors of n."""
    return sum(d**3 for d in divisors(n))


def sigma_table(limit: int) -> list[int]:
    """[sigma(1..limit)] as a table with sigma_table(N)[n] = sigma(n); index 0 is 0."""
    return _kept_prefix("sigma", limit, lambda n: _divisor_power_table(n, 1))


def sigma3_table(limit: int) -> list[int]:
    """Like :func:`sigma_table` for the cubes of divisors."""
    return _kept_prefix("sigma3", limit, lambda n: _divisor_power_table(n, 3))


def _divisor_power_table(limit: int, power: int) -> list[int]:
    table = [0] * (limit + 1)
    for d in range(1, limit + 1):
        dp = d**power
        for m in range(d, limit + 1, d):
            table[m] += dp
    return table


def pentagonal(limit: int) -> list[tuple[int, int]]:
    """The generalised pentagonal numbers g = k(3k-1)/2 and k(3k+1)/2 <= limit,
    k >= 1, ascending, each with its sign (-1)^k: by Euler's pentagonal number
    theorem, prod (1-q^n) = 1 + sum of sign q^g."""
    # k(3k-1)/2 >= k^2, so every k with a g <= limit has k <= isqrt(limit)
    return [(g, -1 if k & 1 else 1) for k in range(1, isqrt(limit) + 1)
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) if g <= limit]


def euler_quotient(y: Sequence[int]) -> list[int]:
    """x with x * prod (1-q^n) = y through the length of y, by Euler's
    pentagonal recurrence x_n = y_n - sum over the pentagonal (g, sign) of
    sign x_{n-g}: about sqrt(n) additions per coefficient."""
    pents = pentagonal(len(y))
    x: list[int] = []
    for n, total in enumerate(y):
        for g, sign in pents:
            if g > n:
                break
            total = total - x[n - g] if sign > 0 else total + x[n - g]
        x.append(total)
    return x


def partitions_table(limit: int) -> list[int]:
    """[p(0), p(1), ..., p(limit)]: the series 1 / prod (1-q^n)."""
    return _kept_prefix("partitions", limit, lambda n: euler_quotient([1] + [0] * n))


def psi_table(limit: int) -> list[int]:
    """[psi_0, ..., psi_limit]: P(q)^2, the partitions divided once more by prod (1-q^n)."""
    return _kept_prefix("psi", limit, lambda n: euler_quotient(partitions_table(n)))


def phi_by_reduction(limit: int) -> tuple[list[int], int]:
    """(num, den), phi_n = num[n] / den for n <= limit: e = prod (1-q^n)^4 is
    Euler's E times Jacobi's E^3 = sum (-1)^k (2k+1) q^(k(k+1)/2) (Hardy-Wright,
    Thm 357), and the e_n / (6n+1) over their least denominator are divided
    twice by E (see forms.phi_by_reduction_of_order).  The keep is (num, den,
    made), made what _phi_kept_with made of the pair or None.  Below its
    limit, den still comes from e, and it divides the kept den exactly."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    kept_num, kept_den, _ = _kept.get("phi", ((), 1, None))
    if limit + 1 == len(kept_num):
        return list(kept_num), kept_den
    cube = [(k * (k + 1) // 2, -2 * k - 1 if k & 1 else 2 * k + 1) for k in range(isqrt(2 * limit) + 1)]
    e = [0] * (limit + 1)
    for (g, sign), (t, c) in product([(0, 1), *pentagonal(limit)], cube):
        if g + t <= limit:
            e[g + t] += sign * c
    den = lcm(*((6 * n + 1) // gcd(c, 6 * n + 1) for n, c in enumerate(e)))
    if limit < len(kept_num):
        scale = kept_den // den
        return [c // scale for c in kept_num[:limit + 1]], den
    num = euler_quotient(euler_quotient([c * den // (6 * n + 1) for n, c in enumerate(e)]))
    if limit <= _PHI_KEPT_LIMIT:
        _kept["phi"] = (tuple(num), den, None)
    return num, den


def _phi_kept_with(limit: int, make):
    """make(*phi_by_reduction(limit)), kept beside phi's pair while that pair
    is the one at limit and handed out again, so it is made once per process."""
    num, _, made = _kept.get("phi", ((), 1, None))
    if len(num) != limit + 1 or made is None:
        made = make(*phi_by_reduction(limit))
        num, den, _ = _kept.get("phi", ((), 1, None))
        if len(num) == limit + 1:
            _kept["phi"] = (num, den, made)
    return made


def r4_bruteforce(n: int) -> int:
    """Number of ordered quadruples (a,b,c,d) in Z^4 with a^2+b^2+c^2+d^2 = n.

    Enumeration in two halves.  The table r2[m] counts the pairs (c, d) with
    c^2 + d^2 = m: r2[0] = 1, then 4 for each axis point c >= 1 at r2[c^2] (the
    pairs (+-c, 0) and (0, +-c)) and 4 signs for each interior pair c, d >= 1,
    d up to isqrt(n - c^2), so no step is tested.  Each pair (a, b) is completed
    by r2[n - a^2 - b^2] pairs: sum_m r2[m] r2[n - m], read as twice the sum
    over m < n/2, plus r2[n/2]^2 when n is even.  Memory is O(n).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > R4_MAX_N:
        raise ValueError(f"n must be <= {R4_MAX_N}")
    squares = [c * c for c in range(1, isqrt(n) + 1)]
    r2 = [1] + [0] * n
    for cc in squares:
        r2[cc] += 4
        for dd in squares[: isqrt(n - cc)]:
            r2[cc + dd] += 4
    return 2 * sum(map(mul, r2[: (n + 1) // 2], reversed(r2))) + (0 if n & 1 else r2[n // 2] ** 2)


def jacobi_count(n: int) -> int:
    """8 times the sum of the divisors of n not divisible by 4."""
    if n <= 0:
        raise ValueError("n must be >= 1")
    return 8 * sum(d for d in divisors(n) if d % 4 != 0)
