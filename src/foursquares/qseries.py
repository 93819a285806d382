"""Truncated formal power series in q with exact rational coefficients.

A :class:`QSeries` of order N stores the coefficients of q^0 .. q^N and
represents a series known modulo q^(N+1), as int numerators over one
positive common denominator in lowest terms (the layout of FLINT's
fmpq_poly).  That is the one stored form: every operation is exact and
runs on ints, and a coefficient reads back as an int when the denominator is
1, else as a Fraction.  The tuple of Fractions is built on the first read of
`coeffs` and kept with the series.  Values are immutable and all operations
are pure functions, safe to share across threads.

Arithmetic on two series of orders N1, N2 truncates to min(N1, N2): each
factor is known only through its own order, as in fmpq_poly's truncated
products.
"""

from __future__ import annotations

import math
import operator
from array import array
from fractions import Fraction
from typing import Callable, Iterable, Sequence

Scalar = int | Fraction


class QSeries:
    """A dense truncated power series sum_{n=0}^{order} c_n q^n, held as
    c_n = _num[n] / _den with _den > 0 and gcd(_den, *_num) == 1; _view is
    None until `coeffs` first builds its Fractions."""

    __slots__ = ("_num", "_den", "_view")

    def __init__(self, coeffs: Iterable[Scalar], order: int | None = None):
        cs = list(coeffs)
        exact_ints = all(type(c) is int for c in cs)
        # floats are refused: exact by intent, not by accident of binary representation
        if not exact_ints and any(isinstance(c, float) for c in cs):
            raise TypeError("QSeries coefficients must be exact (int, Fraction, or str)")
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            cs = cs[: order + 1] + [0] * (order + 1 - len(cs))
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        self._den, self._view = 1, None
        if exact_ints:
            self._num = tuple(cs)
        else:
            # over the lcm of lowest-terms denominators, (num, den) is in lowest terms
            fs = [Fraction(c) for c in cs]
            self._den = math.lcm(*(f.denominator for f in fs))
            self._num = tuple(f.numerator * (self._den // f.denominator) for f in fs)

    @classmethod
    def _of(cls, num: Sequence[int], den: int = 1) -> "QSeries":
        """num[n]/den in lowest terms."""
        if den != 1:
            # the last coefficients carry the largest denominators: from there gcd hits 1 soonest
            g = math.gcd(den, *reversed(num))
            if g != 1:
                num, den = [c // g for c in num], den // g
        series = cls.__new__(cls)
        series._num, series._den, series._view = tuple(num), den, None
        return series

    @property
    def order(self) -> int:
        return len(self._num) - 1

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        """Ints when the denominator is 1, else Fractions, built on the first
        read and kept with the series (racing threads build equal tuples)."""
        if self._den == 1:
            return self._num
        if self._view is None:
            self._view = tuple(Fraction(c, self._den) for c in self._num)
        return self._view

    @property
    def stored(self) -> tuple[tuple[int, ...], int]:  # (_num, _den), read-only
        return self._num, self._den

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls([], order=order)

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls([1], order=order)

    def __getitem__(self, n: int) -> Scalar:
        return self._num[n] if self._den == 1 else Fraction(self._num[n], self._den)

    def __len__(self) -> int:
        return len(self._num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def truncated(self, order: int) -> "QSeries":
        """This series rewritten to the given (possibly larger) order."""
        if order < 0:
            raise ValueError("order must be >= 0")
        return self if order == self.order else QSeries._of(
            self._num[: order + 1] + (0,) * (order - self.order), self._den)

    # ---------------------------------------------------------------- ring ops

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        if self._den == other._den:  # one denominator: the sum runs in C through map
            return QSeries._of(tuple(map(operator.add, self._num, other._num)), self._den)
        den = math.lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        return QSeries._of([x * fa + y * fb for x, y in zip(self._num, other._num)], den)

    def __neg__(self) -> "QSeries":
        return QSeries._of(tuple(map(operator.neg, self._num)), self._den)

    def __sub__(self, other: "QSeries") -> "QSeries":
        if isinstance(other, QSeries) and self._den == other._den:
            return QSeries._of(tuple(map(operator.sub, self._num, other._num)), self._den)
        return self + -other if isinstance(other, QSeries) else NotImplemented

    def __mul__(self, other: "QSeries | Scalar") -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return QSeries._of([c * other.numerator for c in self._num],
                               self._den * other.denominator)
        if not isinstance(other, QSeries):
            return NotImplemented
        return QSeries._of(_convolve(self._num, other._num, min(self.order, other.order)),
                           self._den * other._den)

    def __rmul__(self, other: Scalar) -> "QSeries":
        return self.__mul__(other)

    def __pow__(self, k: int) -> "QSeries":
        if type(k) is not int or k < 0:  # bool is an int subclass, and not an exponent
            raise ValueError("exponent must be a non-negative integer")
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return QSeries.one(self.order) if result is None else result

    def __repr__(self) -> str:
        return f"QSeries({list(self.coeffs)!r})"


# The signed `array` typecode of each item size this platform has, smallest
# first (C orders the sizes of b, h, i, l, q).  'i' and 'l' vary in size by
# platform, so sizes, not letters, pick the slot codec.
_SLOT_CODES = {array(code).itemsize: code for code in "bhilq"}
# Byte b's sign extension: 0xff when its top bit is set, else 0.
_SIGN = bytes(255 if b & 0x80 else 0 for b in range(256))


def _restride(data: bytes, old: int, new: int) -> bytes:
    """Slots of `old` bytes as slots of `new` bytes, one extended slice copy per
    byte: low bytes are kept, and added top bytes extend the old top byte's sign."""
    if old == new:
        return data
    out, top = bytearray(len(data) // old * new), data[old - 1 :: old].translate(_SIGN)
    for j in range(new):
        out[j::new] = data[j::old] if j < old else top
    return out


def _convolve(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Coefficients c_0 .. c_n of (sum a_i q^i) * (sum b_j q^j), for ints.

    Kronecker substitution: each factor is packed into one int with a
    w-byte slot per coefficient, so one int product holds c_k in slot k (a
    square packs once).  Slots are signed: each holds the two's complement
    of its value.  By Cauchy-Schwarz, and as c_k is an int, every |c_k| is
    at most isqrt(sum a_i^2 * sum b_j^2), never above max|a| max|b| (n + 1);
    w is the fewest bytes that hold that bound and a sign bit, so nothing
    carries into the next slot.  XOR with H = 2^(8w-1)
    in every slot (Hs) maps a two's-complement x to x + H >= 0, so a packed
    factor is (bytes read as unsigned ^ Hs) - Hs, and the low n + 1 slots
    of (product + Hs) ^ Hs are the c_k in two's complement.  Up to 8 bytes,
    slots convert to and from bytes in C through `array` at the next signed
    item size (1, 2, 4 or 8 bytes), restrided to exactly w bytes by
    `_restride`; wider slots (big coefficients) convert one int at a time.
    Both are linear, where a shift per slot is quadratic.
    """
    square = b is a
    a = a[: n + 1]
    b = a if square else b[: n + 1]
    norm_a = sum(map(operator.mul, a, a))
    norm_b = norm_a if square else sum(map(operator.mul, b, b))
    if norm_a == 0 or norm_b == 0:
        return [0] * (n + 1)
    bound = math.isqrt(norm_a * norm_b)
    width = (bound.bit_length() + 8) // 8
    size, code = next(((size, c) for size, c in _SLOT_CODES.items() if size >= width),
                      (width, ""))
    # H in each of the n + 1 slots (a factor's missing slots read 0, and 0 ^ H - H = 0)
    hs = int.from_bytes((b"\0" * (width - 1) + b"\x80") * (n + 1), "little")

    def pack(xs: Sequence[int]) -> int:
        data = (_restride(array(code, xs).tobytes(), size, width) if code
                else b"".join(x.to_bytes(width, "little", signed=True) for x in xs))
        return (int.from_bytes(data, "little") ^ hs) - hs

    packed = pack(a)
    product = packed * (packed if square else pack(b))
    total = (n + 1) * width
    data = (((product + hs) & ((1 << 8 * total) - 1)) ^ hs).to_bytes(total, "little")
    if code:
        return array(code, _restride(data, width, size)).tolist()
    return [int.from_bytes(data[i : i + width], "little", signed=True)
            for i in range(0, total, width)]


def qderiv(a: QSeries) -> QSeries:
    """The operator q*d/dq: coefficient n is mapped to n*c_n.  Order preserved."""
    return QSeries._of(list(map(operator.mul, range(len(a)), a._num)), a._den)


def exp0(a: QSeries) -> QSeries:
    """Formal exponential of a series with constant term exactly 0.

    Solves qderiv(e) = e*qderiv(a): e_n = 1/n sum_{k=1}^{n} k*a_k*e_{n-k}, the weight (1, n).
    """
    if a._num[0] != 0:
        raise ValueError("exp0 requires constant term exactly 0")
    return recurrence(qderiv(a), lambda n: (1, n), a.order)


def recurrence(s: QSeries, weight: Callable[[int], tuple[int, int]], order: int) -> QSeries:
    """The exact series sum x_n q^n of order `order`, for x_0 = 1 and
    x_n = p/q * sum_{k=1}^{n} s_k x_{n-k}, with weight(n) = (p, q) two ints,
    q > 0, not necessarily in lowest terms; s_0 is never read.

    The work runs in ints: s_k = S_k/ds over the series' own denominator ds,
    and x_k = X_k/D over one running common denominator D, so each sum is
    one dot product of ints.  Step n gives X_n = num/t, with t = ds * q; when
    t does not divide num, D and the stored X_k grow by t/gcd(num, t), the
    least factor that makes X_n an int (a factor common to p and q cancels).
    So D is the lcm of the values' denominators and (X, D) is in lowest terms.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if s.order < order:
        raise ValueError(f"recurrence to order {order} needs s_1 .. s_{order}")
    s_int, ds = s._num[1 : order + 1], s._den
    x, D = [1], 1
    for n in range(1, order + 1):
        p, q = weight(n)
        # reversed(x) runs X_{n-1} .. X_0 against S_1 .. S_n; map stops at n terms
        num = sum(map(operator.mul, reversed(x), s_int)) * p
        t = ds * q
        g = math.gcd(num, t)
        if g != t:
            f = t // g
            D *= f
            x = [xk * f for xk in x]
        x.append(num // g)
    return QSeries._of(x, D)


def substitute_neg(a: QSeries) -> QSeries:
    """The substitution q -> -q: coefficient n negated when n is odd."""
    return QSeries._of([-c if n & 1 else c for n, c in enumerate(a._num)], a._den)


# ------------------------------------------------------------------ text forms

def format_golden(a: QSeries) -> str:
    """Golden-file form: one coefficient per line as "n: p/q", newline-terminated."""
    return "".join(f"{n}: {c}\n" for n, c in enumerate(a.coeffs))


def parse_golden(text: str) -> QSeries:
    """Parse golden-file text back into a series."""
    coeffs: list[Fraction] = []
    for lineno, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line:
            continue
        left, sep, right = line.partition(":")
        if not sep:
            raise ValueError(f"golden line {lineno + 1} lacks ':'")
        n = int(left)
        if n != len(coeffs):
            raise ValueError(f"golden line {lineno + 1} out of sequence (got {n})")
        coeffs.append(Fraction(right.strip()))
    if not coeffs:
        raise ValueError("empty golden text")
    return QSeries(coeffs)
