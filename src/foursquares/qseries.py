"""Truncated formal power series in q with exact rational coefficients.

A :class:`QSeries` of order N stores the coefficients of q^0 .. q^N and
represents a series known modulo q^(N+1).  Coefficients are
:class:`fractions.Fraction` values, so every operation here is exact; no
coefficient is ever stored approximately.  Values are immutable and all
operations are pure functions, safe to share across threads.

Arithmetic on two series of orders N1, N2 truncates to min(N1, N2).  The
one refinement: multiplying by a pure power c*q^k (a series with a single
nonzero coefficient) treats that factor as exact and shifts the other
factor's order up by k, so q * (series of order N) is known through q^(N+1).
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Callable, Iterable, Sequence

# Exact rational coefficient type: arbitrary precision, always in lowest
# terms with positive denominator (guaranteed by the Fraction class).
Rational = Fraction

Scalar = int | Fraction

_ZERO = Fraction(0)


def _exact(value) -> Fraction:
    # floats are refused: every stored coefficient must be exact by intent,
    # not by accident of binary representation
    if isinstance(value, float):
        raise TypeError("QSeries coefficients must be exact (int, Fraction, or str)")
    return Fraction(value)


class QSeries:
    """A dense truncated power series sum_{n=0}^{order} c_n q^n."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar], order: int | None = None):
        cs = [_exact(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            if len(cs) > order + 1:
                cs = cs[: order + 1]
            else:
                cs.extend([_ZERO] * (order + 1 - len(cs)))
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        self._coeffs = tuple(cs)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls([], order=order)

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls([1], order=order)

    @classmethod
    def monomial(cls, coeff: Scalar, degree: int, order: int | None = None) -> "QSeries":
        """The series coeff*q^degree, by default of order exactly `degree`."""
        if degree < 0:
            raise ValueError("degree must be >= 0")
        cs = [_ZERO] * degree + [_exact(coeff)]
        return cls(cs, order=order)

    def __getitem__(self, n: int) -> Fraction:
        return self._coeffs[n]

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def truncated(self, order: int) -> "QSeries":
        """This series rewritten to the given (possibly larger) order."""
        return QSeries(self._coeffs, order=order)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self._coeffs)

    def _monomial_degree(self) -> int | None:
        """Degree k if the series is exactly c*q^k with c != 0, else None."""
        deg = None
        for n, c in enumerate(self._coeffs):
            if c != 0:
                if deg is not None:
                    return None
                deg = n
        return deg

    # ---------------------------------------------------------------- ring ops

    def __add__(self, other: "QSeries | Scalar") -> "QSeries":
        other = _coerce(other, self.order)
        n = min(self.order, other.order)
        return QSeries([self._coeffs[i] + other._coeffs[i] for i in range(n + 1)])

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries([-c for c in self._coeffs])

    def __sub__(self, other: "QSeries | Scalar") -> "QSeries":
        return self + (-_coerce(other, self.order))

    def __rsub__(self, other: Scalar) -> "QSeries":
        return _coerce(other, self.order) - self

    def __mul__(self, other: "QSeries | Scalar") -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return QSeries([c * other for c in self._coeffs])
        if not isinstance(other, QSeries):
            return NotImplemented
        ka = self._monomial_degree()
        kb = other._monomial_degree()
        if ka is not None and kb is not None:
            out_order = min(self.order + kb, other.order + ka)
        elif ka is not None:
            out_order = other.order + ka
        elif kb is not None:
            out_order = self.order + kb
        else:
            out_order = min(self.order, other.order)
        return QSeries(_convolve(self._coeffs, other._coeffs, out_order))

    def __rmul__(self, other: Scalar) -> "QSeries":
        return self.__mul__(other)

    def __pow__(self, k: int) -> "QSeries":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = QSeries.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # ------------------------------------------------------------- formatting

    def __str__(self) -> str:
        return format_series(self)

    def __repr__(self) -> str:
        return f"QSeries({format_series(self)!r})"


def _coerce(x: "QSeries | Scalar", order: int) -> QSeries:
    if isinstance(x, QSeries):
        return x
    if isinstance(x, (int, Fraction)):
        return QSeries([x], order=order)
    raise TypeError(f"cannot combine QSeries with {type(x).__name__}")


def _convolve(a: Sequence[Fraction], b: Sequence[Fraction], n: int) -> list[Fraction]:
    """Exact coefficients c_0 .. c_n of (sum a_i q^i) * (sum b_j q^j).

    Kronecker substitution: each factor, scaled to integers over the common
    denominator of its coefficients and split into its positive and negative
    parts, is packed into one int with a fixed-width slot per coefficient, so
    one int product holds c_k in slot k.  A slot holds the largest sum any
    c_k can reach, so none carries into the next.  Packing and unpacking go
    through bytes, which is linear in the size; a shift per slot is quadratic.
    """
    a, b = a[: n + 1], b[: n + 1]
    da = math.lcm(*(c.denominator for c in a))
    db = math.lcm(*(c.denominator for c in b))
    ia = [c.numerator * (da // c.denominator) for c in a]
    ib = [c.numerator * (db // c.denominator) for c in b]
    if not any(ia) or not any(ib):
        return [_ZERO] * (n + 1)
    bound = max(map(abs, ia)) * max(map(abs, ib)) * min(len(ia), len(ib))
    width = bound.bit_length() // 8 + 1
    size = (n + 1) * width

    def pack(xs: Iterable[int]) -> int:
        return int.from_bytes(b"".join(x.to_bytes(width, "little") for x in xs), "little")

    def unpack(value: int) -> list[int]:
        data = (value & ((1 << 8 * size) - 1)).to_bytes(size, "little")
        return [int.from_bytes(data[i : i + width], "little") for i in range(0, size, width)]

    a_pos, a_neg = pack(max(x, 0) for x in ia), pack(max(-x, 0) for x in ia)
    b_pos, b_neg = pack(max(x, 0) for x in ib), pack(max(-x, 0) for x in ib)
    plus = unpack(a_pos * b_pos + a_neg * b_neg)
    minus = unpack(a_pos * b_neg + a_neg * b_pos)
    return [Fraction(p - m, da * db) for p, m in zip(plus, minus)]


def qderiv(a: QSeries) -> QSeries:
    """The operator q*d/dq: coefficient n is mapped to n*c_n.  Order preserved."""
    return QSeries([n * c for n, c in enumerate(a.coeffs)])


def log1(a: QSeries) -> QSeries:
    """Formal logarithm of a series with constant term exactly 1.

    Uses qderiv(log a) = qderiv(a)/a: the inverse 1/a solves x_0 = 1,
    x_n = -sum_{k=1}^{n} a_k x_{n-k}, and log(a) integrates qderiv(a) * (1/a).
    """
    if a[0] != 1:
        raise ValueError("log1 requires constant term exactly 1")
    inverse = QSeries(recurrence([-c for c in a.coeffs], lambda n: 1, a.order))
    v = qderiv(a) * inverse
    return QSeries([0] + [v[m] / m for m in range(1, a.order + 1)])


def exp0(a: QSeries) -> QSeries:
    """Formal exponential of a series with constant term exactly 0.

    Solves qderiv(e) = e*qderiv(a): n*e_n = sum_{k=1}^{n} k*a_k*e_{n-k}.
    """
    if a[0] != 0:
        raise ValueError("exp0 requires constant term exactly 0")
    return QSeries(recurrence(qderiv(a).coeffs, lambda n: Fraction(1, n), a.order))


def recurrence(
    s: Sequence[Scalar], weight: Callable[[int], Scalar], order: int
) -> list[Scalar]:
    """[x_0, ..., x_order] for x_0 = 1, x_n = weight(n) * sum_{k=1}^{n} s_k x_{n-k}.

    Exact: s needs the entries s_1 .. s_order (s_0 is never read).  Every
    returned value whose denominator is 1 is a plain int.

    The work runs in ints: s_k = S_k/ds over the lcm ds of its denominators,
    and x_k = X_k/D over one running common denominator D, so each sum is
    one dot product of ints.  A step builds a Fraction only when its value
    is not an integer; when that value's denominator brings a factor D
    lacks, D grows by that factor and the stored X_k are rescaled.  A
    recurrence with integral values builds no Fraction at all.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if len(s) <= order:
        raise ValueError(f"recurrence to order {order} needs s_1 .. s_{order}")
    s = s[1 : order + 1]
    ds = math.lcm(*(c.denominator for c in s))
    s_int = [c.numerator * (ds // c.denominator) for c in s]
    out: list[Scalar] = [1]
    x, D = [1], 1
    for n in range(1, order + 1):
        w = weight(n)
        # reversed(x) runs X_{n-1} .. X_0 against S_1 .. S_n; map stops at n terms
        num = sum(map(operator.mul, reversed(x), s_int)) * w.numerator
        den = ds * D * w.denominator
        value, rem = divmod(num, den)
        if rem:
            value = Fraction(num, den)
            q = value.denominator
            if D % q:
                f = q // math.gcd(q, D)
                D *= f
                x = [xk * f for xk in x]
            x.append(value.numerator * (D // q))
        else:
            x.append(value * D)
        out.append(value)
    return out


def substitute_neg(a: QSeries) -> QSeries:
    """The substitution q -> -q: coefficient n negated when n is odd."""
    return QSeries([-c if n & 1 else c for n, c in enumerate(a.coeffs)])


# ------------------------------------------------------------------ text forms
#
# Display format: "c0 + c1*q + c2*q^2 + ..." with every coefficient printed
# (zeros included, so the truncation order round-trips) and rationals as
# "p/q".  Negative coefficients render with a " - " separator.

def format_series(a: QSeries) -> str:
    parts: list[str] = []
    for n, c in enumerate(a.coeffs):
        if n == 0:
            parts.append(str(c))
            continue
        sep = " - " if c < 0 else " + "
        mag = -c if c < 0 else c
        term = f"{mag}*q" if n == 1 else f"{mag}*q^{n}"
        parts.append(sep + term)
    return "".join(parts)


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?P<coeff>\d+(?:/\d+)?)
        (?:\*q(?:\^(?P<exp>\d+))?)?\s*""",
    re.VERBOSE,
)


def parse_series(text: str) -> QSeries:
    """Parse the format produced by :func:`format_series`."""
    text = text.strip()
    if not text:
        raise ValueError("empty series text")
    coeffs: dict[int, Fraction] = {}
    pos = 0
    top = -1
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"malformed series at: {text[pos:pos + 20]!r}")
        value = Fraction(m.group("coeff"))
        if m.group("sign") == "-":
            value = -value
        if "*q" in m.group(0):
            n = int(m.group("exp") or 1)
        else:
            n = 0
        if n in coeffs:
            raise ValueError(f"duplicate coefficient for q^{n}")
        coeffs[n] = value
        top = max(top, n)
        pos = m.end()
    return QSeries([coeffs.get(n, _ZERO) for n in range(top + 1)])


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
