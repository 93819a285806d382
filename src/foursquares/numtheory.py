"""Exact integer arithmetic oracles: divisor sums, partition numbers, and
brute-force four-square representation counts.

Everything here is ground truth for the series modules: plain enumeration
and trial division over arbitrary-precision integers, no clever counting.
All functions are pure; callers may fan out over n with no coordination.
"""

from __future__ import annotations

from math import isqrt
from typing import Sequence

# r4_bruteforce allocates O(n) lookup tables, and the `foursquares r4`
# subcommand around it also forms theta^4 to order n, which costs about n^2.
# Measured for the whole subcommand on a 2-core VM: 1.5 s at n = 10^5,
# 3.9 s (61 MB peak RSS) at 2 * 10^5 and 49 s (189 MB) at 10^6.
R4_MAX_N = 200_000
# Elements (int32) per block of r4_bruteforce's residuals: memory is the O(n)
# tables plus one 1 MB block, and every n <= 1000 is a single block.
_R4_BLOCK = 1 << 18


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
    return _divisor_power_table(limit, 1)


def sigma3_table(limit: int) -> list[int]:
    """Like :func:`sigma_table` for the cubes of divisors."""
    return _divisor_power_table(limit, 3)


def _divisor_power_table(limit: int, power: int) -> list[int]:
    if limit < 0:
        raise ValueError("limit must be >= 0")
    table = [0] * (limit + 1)
    for d in range(1, limit + 1):
        dp = d**power
        for m in range(d, limit + 1, d):
            table[m] += dp
    return table


def euler_quotient(y: Sequence[int]) -> list[int]:
    """x with x * prod (1-q^n) = y through the length of y, by Euler's
    pentagonal recurrence x_n = y_n + sum_{k>=1} (-1)^(k+1) (x_{n-k(3k-1)/2}
    + x_{n-k(3k+1)/2}): about sqrt(n) additions per coefficient."""
    # pentagonal numbers 1, 2, 5, 7, ... (those below len(y) have k^2 < len(y)), sign + or -
    pents = [(k * (3 * k + s) // 2, k & 1)
             for k in range(1, isqrt(len(y)) + 1) for s in (-1, 1)]
    x: list[int] = []
    for n, total in enumerate(y):
        for g, plus in pents:
            if g > n:
                break
            total = total + x[n - g] if plus else total - x[n - g]
        x.append(total)
    return x


def partitions_table(limit: int) -> list[int]:
    """[p(0), p(1), ..., p(limit)]: the series 1 / prod (1-q^n)."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    return euler_quotient([1] + [0] * limit)


def partitions(n: int) -> int:
    """Number of integer partitions of n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return partitions_table(n)[n]


def r4_bruteforce(n: int) -> int:
    """Number of ordered quadruples (a,b,c,d) in Z^4 with a^2+b^2+c^2+d^2 = n.

    Direct enumeration: a, b, c run over the full signed ranges |a|,|b|,|c|
    <= sqrt(n) and the residual n - a^2 - b^2 - c^2 is tested for being a
    perfect square d^2 (counting d and -d).  The loops are batched through
    numpy for speed, in blocks of (a, b) rows so that memory stays O(n), but
    the enumeration is exactly that triple loop.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > R4_MAX_N:
        raise ValueError(f"n must be <= {R4_MAX_N}")
    if n == 0:
        return 1
    import numpy as np

    root = isqrt(n)
    signed_sq = np.arange(-root, root + 1, dtype=np.int32) ** 2
    # residual lookup: number of d with d*d == m (index -1 is the m < 0 sink)
    dcount = np.zeros(n + 2, dtype=np.uint8)
    dcount[0] = 1
    roots = np.arange(1, root + 1, dtype=np.int64)
    dcount[roots * roots] = 2
    ab = (signed_sq[:, None] + signed_sq[None, :]).ravel()
    n_ab = n - ab[ab <= n]
    rows = max(1, _R4_BLOCK // len(signed_sq))
    total = 0
    for start in range(0, len(n_ab), rows):
        rem = n_ab[start:start + rows, None] - signed_sq[None, :]
        np.maximum(rem, -1, out=rem)
        total += int(dcount[rem].sum(dtype=np.int64))
    return total


def jacobi_count(n: int) -> int:
    """8 times the sum of the divisors of n not divisible by 4."""
    if n <= 0:
        raise ValueError("n must be >= 1")
    return 8 * sum(d for d in divisors(n) if d % 4 != 0)
