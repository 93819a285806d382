"""Series engine: arithmetic examples, ring axioms, text formats."""

from fractions import Fraction

import math
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foursquares import qseries
from foursquares.forms import theta, theta4
from foursquares.numtheory import jacobi_count
from foursquares.qseries import (
    QSeries,
    exp0,
    format_golden,
    parse_golden,
    qderiv,
    recurrence,
    substitute_neg,
)


def series(*coeffs):
    return QSeries([Fraction(c) if "/" not in str(c) else Fraction(str(c)) for c in coeffs])


def theta_like(order):
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    k = 1
    while k * k <= order:
        coeffs[k * k] = 2
        k += 1
    return QSeries(coeffs)


# Small random series for property tests.
# (the same values as st.fractions(-10, 10, max_denominator=12), drawn
# without its flatmap, which dominated the ring-axiom tests' time)
rationals = st.builds(
    Fraction, st.integers(min_value=-120, max_value=120), st.integers(min_value=1, max_value=12)
).filter(lambda x: abs(x) <= 10)
small_series = st.lists(rationals, min_size=1, max_size=8).map(QSeries)


class TestAdd:
    def test_cancellation(self):
        assert series(1, 1) + series(1, -1) == series(2, 0)

    def test_zero_identity(self):
        t = theta_like(9)
        assert t + QSeries.zero(9) == t

    def test_theta_even_part_against_double_sum(self):
        # independent oracle: coefficient n of theta(q) + theta(-q) is the
        # number of integers m with m^2 = n, doubled when n is even
        t = theta_like(4)
        got = t + substitute_neg(t)
        for n in range(5):
            direct = sum(1 for m in range(-4, 5) if m * m == n)
            expected = 2 * direct if n % 2 == 0 else 0
            assert got[n] == expected
        assert [int(c) for c in got.coeffs] == [2, 0, 0, 0, 4]

    def test_min_order_rule(self):
        a = QSeries([1, 2, 3, 4])
        b = QSeries([1, 1])
        assert (a + b).order == 1

    @pytest.mark.parametrize("combine", [lambda s: s + 1, lambda s: 1 + s, lambda s: s - 1,
                                         lambda s: 1 - s, lambda s: s + Fraction(1, 2)],
                             ids=["s + 1", "1 + s", "s - 1", "1 - s", "s + 1/2"])
    def test_scalars_are_not_added(self, combine):
        # addition and subtraction take only series; scalar * stays
        with pytest.raises(TypeError):
            combine(series(1, 2))


class TestMul:
    def test_difference_of_squares(self):
        got = series(1, 1, 0) * series(1, -1, 0)
        assert got == series(1, 0, -1)

    def test_theta_squared_squared_matches_stated_coefficients(self):
        t2 = theta_like(9) ** 2
        got = t2 * t2
        assert [int(c) for c in got.coeffs] == [1, 8, 24, 32, 24, 48, 96, 64, 24, 104]

    def test_partition_square(self):
        # P(q)^2 through order 6
        p = QSeries([1, 1, 2, 3, 5, 7, 11])
        got = p * p
        assert [int(c) for c in got.coeffs] == [1, 2, 5, 10, 20, 36, 65]

    def test_monomial_shifts_order(self):
        # multiplying by q shifts the coefficients up one place; c q^k is
        # known only through its own order, like any other factor, so the
        # product stops at the smaller order
        a = QSeries([1, 2, 3])
        got = QSeries([0, 1], order=5) * a
        assert got.order == 2
        assert [int(c) for c in got.coeffs] == [0, 1, 2]
        assert QSeries([0, 1]) * a == QSeries([0, 1])

    def test_two_monomials(self):
        got = QSeries([0, 2], order=3) * QSeries([0, 0, 3], order=3)
        assert got.order == 3
        assert got[3] == 6
        assert QSeries([0, 2]) * QSeries([0, 0, 3]) == QSeries.zero(1)


def schoolbook_mul(a, b):
    """The quadratic Fraction product, truncated to the smaller order.

    Reference for the packed-integer kernel behind ``*``.
    """
    out_order = min(a.order, b.order)
    out = [Fraction(0)] * (out_order + 1)
    for i, ai in enumerate(a.coeffs):
        if not ai or i > out_order:
            continue
        for j in range(min(b.order, out_order - i) + 1):
            if b[j]:
                out[i + j] += ai * b[j]
    return QSeries(out)


def bytes_split_convolve(a, b, n):
    """c_0 .. c_n of (sum a_i q^i) * (sum b_j q^j), for ints, by unsigned
    Kronecker substitution: each factor split into its positive and
    negative parts, each part packed by joining per-slot `to_bytes`, one
    int product per sign pair and a slot-by-slot unpack.

    Reference for the signed-slot kernel `qseries._convolve`.
    """
    a, b = a[: n + 1], b[: n + 1]
    if not any(a) or not any(b):
        return [0] * (n + 1)
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = bound.bit_length() // 8 + 1
    size = (n + 1) * width

    def pack(xs):
        return int.from_bytes(b"".join(x.to_bytes(width, "little") for x in xs), "little")

    def unpack(value):
        data = (value & ((1 << 8 * size) - 1)).to_bytes(size, "little")
        return [int.from_bytes(data[i : i + width], "little") for i in range(0, size, width)]

    def split(xs):
        if min(xs) >= 0:
            return pack(xs), 0
        return pack(max(x, 0) for x in xs), pack(max(-x, 0) for x in xs)

    a_pos, a_neg = split(a)
    b_pos, b_neg = (a_pos, a_neg) if b is a else split(b)
    plus = unpack(a_pos * b_pos + a_neg * b_neg)
    if not (a_neg or b_neg):
        return plus
    return list(map(operator.sub, plus, unpack(a_pos * b_neg + a_neg * b_pos)))


# Coefficients for the kernel: small signed rationals with unlike
# denominators, zeros, and integers and fractions near 2^200 that need wide
# slots in the packed product.
_near_2_200 = st.integers(min_value=2**200 - 2**16, max_value=2**200)
kernel_coeffs = st.one_of(
    rationals,
    st.just(Fraction(0)),
    _near_2_200,
    _near_2_200.map(lambda v: -v),
    st.builds(Fraction, _near_2_200, st.integers(min_value=1, max_value=2**64)),
)
kernel_series = st.one_of(
    st.lists(kernel_coeffs, min_size=1, max_size=12).map(QSeries),
    st.integers(min_value=0, max_value=8).map(QSeries.zero),
    st.builds(
        lambda c, degree, extra: QSeries([0] * degree + [c], order=degree + extra),
        kernel_coeffs.filter(bool),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=4),
    ),
)


def _boundary_pair(bits, above):
    """Signed factors whose product's slot bound 3m sits just below 2^bits
    (at 2^bits - 2 for odd bits) or just above it (2^bits + 1), and is
    reached by c_2 = 3m, next to c_1 = -2m: the bound sets the slot width,
    so for bits = 8w - 1 the two sides pack into w and w + 1 bytes."""
    m = (2**bits - 1) // 3 + above
    return QSeries([m, -m, m]), QSeries([1, -1, 1, 0])


def _packing(a, b, n):
    """The product `_convolve(a, b, n)`, the item sizes of the `array` codes
    it packed and unpacked with (empty when the slots are wider than 8 bytes
    and go one int at a time), and the length of every bytes string it read
    as an int."""
    real, codes, lengths = qseries.array, [], []

    def spy(code, *args):
        codes.append(code)
        return real(code, *args)

    class ReadSpy(int):  # stands in for `int` in qseries, to see int.from_bytes
        @staticmethod
        def from_bytes(data, *args, **kwargs):
            lengths.append(len(data))
            return int.from_bytes(data, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qseries, "array", spy)
        mp.setattr(qseries, "int", ReadSpy, raising=False)
        product = qseries._convolve(a, b, n)
    return product, {real(code).itemsize for code in codes}, lengths


def _assert_stride(lengths, n, width):
    """Each packed factor and Hs spans n + 1 slots of exactly `width` bytes;
    slots wider than 8 bytes are also read back one at a time."""
    assert set(lengths) == {(n + 1) * width} | ({width} if width > 8 else set())


def _item_size(width):
    """The `array` item size a slot of `width` bytes packs through, or None."""
    return min((size for size in qseries._SLOT_CODES if size >= width), default=None)


def _max_product_slot_size(a, b):
    """The slot size max|a| max|b| (n + 1) gives for two factors of n + 1
    coefficients, rounded up to an `array` item size where one fits."""
    bound = max(map(abs, a)) * max(map(abs, b)) * len(a)
    width = (bound.bit_length() + 8) // 8
    return _item_size(width) or width


@st.composite
def equal_length_factors(draw):
    """Two int lists of one length, with entries below 2^bits for a drawn
    bits (so every slot fits 8 bytes); b is a itself when drawn, a square."""
    length = draw(st.integers(min_value=1, max_value=40))
    bits = draw(st.integers(min_value=0, max_value=28))
    ints = st.lists(st.integers(min_value=-(2**bits), max_value=2**bits),
                    min_size=length, max_size=length)
    a = draw(ints)
    return a, a if draw(st.booleans()) else draw(ints)


@st.composite
def factors_of_width(draw):
    """A slot width w of 1 to 9 bytes and two int lists of one length L <= 40
    whose Cauchy-Schwarz bound needs exactly w bytes, that is, has 8w - 8 to
    8w - 1 bits.  Entries are at most 2^ba and 2^bb in size, with a_0 =
    +-2^ba and b_0 = +-2^bb, so the bound lies in [2^(ba+bb), L 2^(ba+bb)],
    and ba + bb is 8w - 1 - bit_length(L), one less for a square (b is a
    itself, when drawn) whose total is odd."""
    width = draw(st.integers(min_value=1, max_value=9))
    length = draw(st.integers(min_value=1, max_value=40))
    total = 8 * width - 1 - length.bit_length()
    square = draw(st.booleans())
    ba = total // 2 if square else draw(st.integers(min_value=0, max_value=total))

    def factor(bits):
        rest = st.integers(min_value=-(2**bits), max_value=2**bits)
        return [draw(st.sampled_from([2**bits, -(2**bits)]))] + draw(
            st.lists(rest, min_size=length - 1, max_size=length - 1))

    a = factor(ba)
    return width, a, a if square else factor(total - ba)


# the same object twice: a square packs its one factor once, in 1-byte
# slots and in wide ones
_signed_square = QSeries([-3, 5, 0, -7])
_wide_square = QSeries([2**70, -3, -(2**70)])


class TestMulKernel:
    @settings(max_examples=400, deadline=None)
    @given(kernel_series, kernel_series)
    @example(QSeries([-3, 5, -7]), QSeries([2, -1, 0, 4]))
    @example(QSeries([Fraction(1, 3), Fraction(-2, 5)]), QSeries([Fraction(5, 7), 1]))
    @example(QSeries.zero(4), QSeries([1, 2, 3]))
    @example(QSeries([Fraction(-5, 2)]), QSeries([Fraction(7, 3)]))
    @example(QSeries([0, 0, 0, -2]), QSeries([1, 1, 1]))
    @example(QSeries([2**200, -(2**200)] * 5), QSeries([-(2**200), 2**200 - 1] * 5))
    @example(*_boundary_pair(7, 0))
    @example(*_boundary_pair(7, 1))
    @example(*_boundary_pair(15, 0))
    @example(*_boundary_pair(15, 1))
    @example(*_boundary_pair(31, 0))
    @example(*_boundary_pair(31, 1))
    @example(*_boundary_pair(63, 0))
    @example(*_boundary_pair(63, 1))
    @example(_signed_square, _signed_square)
    @example(_wide_square, _wide_square)
    def test_matches_schoolbook(self, a, b):
        got = a * b
        assert got == schoolbook_mul(a, b)
        n = min(a.order, b.order)
        assert qseries._convolve(a._num, b._num, n) == bytes_split_convolve(a._num, b._num, n)
        want_type = int if got._den == 1 else Fraction
        assert all(type(c) is want_type for c in got.coeffs)

    def test_theta_products_pack_narrow_slots(self):
        # Cauchy-Schwarz bounds theta*theta's coefficients by 89 and the
        # square of theta^2 by 2^15 at order 500, so 1- and 2-byte slots
        # hold them, where max|a| max|b| (n + 1) asked for 2 and 4 bytes
        t = theta(500)
        got, sizes, lengths = _packing(t._num, theta(500)._num, 500)
        assert sizes == {1}
        _assert_stride(lengths, 500, 1)
        t2 = QSeries(got)
        assert t2 == schoolbook_mul(t, t)
        got, sizes, lengths = _packing(t2._num, t2._num, 500)
        assert sizes == {2}
        _assert_stride(lengths, 500, 2)
        assert QSeries(got) == schoolbook_mul(t2, t2)

    @settings(max_examples=300, deadline=None)
    @given(equal_length_factors())
    @example(([1, 2, 0, 2], [1, 2, 0, 2]))
    @example(([0, 0, 0], [5, -3, 1]))
    @example(([2**28] * 40, [-(2**28)] * 40))
    def test_slots_never_wider_than_the_max_product_bound(self, factors):
        a, b = factors
        n = len(a) - 1
        got, sizes, _ = _packing(a, b, n)
        assert got == bytes_split_convolve(a, b, n)
        if not any(a) or not any(b):
            assert sizes == set()
        else:
            assert len(sizes) == 1 and max(sizes) <= _max_product_slot_size(a, b)

    @pytest.mark.parametrize("bits", [7, 15, 23, 31, 39, 47, 55, 63])
    def test_boundary_pairs_straddle_a_slot_size(self, bits):
        # c_2 = 3m = |a|_2 |b|_2: tight under Cauchy-Schwarz as under
        # max*max*len; below 2^bits the slots take exactly (bits + 1) / 8
        # bytes, above it one more, whatever `array` item size packs them
        width = (bits + 1) // 8
        for above in (0, 1):
            a, b = _boundary_pair(bits, above)
            got, sizes, lengths = _packing(a._num, b._num, 2)
            assert got == bytes_split_convolve(a._num, b._num, 2)
            _assert_stride(lengths, 2, width + above)
            assert sizes == ({_item_size(width + above)} if width + above <= 8 else set())
        # -(2^bits - 1) is the most negative value the bound lets a slot of
        # `width` bytes hold: top byte 0x80, so the unpack sign-extends it
        # through _SIGN to the item size, as it does -1's 0xff bytes
        m = 2**bits - 1
        got, _, lengths = _packing([m, 1], [-1, 0], 1)
        assert got == [-m, -1]
        _assert_stride(lengths, 1, width)

    @settings(max_examples=300, deadline=None)
    @given(factors_of_width())
    @example((3, [-(2**11), 2**11 - 1, -1], [2**10, -(2**10), 7]))
    @example((5, [2**18, -(2**18), 1], None))
    @example((9, [-(2**34), 2**34, -5], None))
    def test_every_slot_width_matches_schoolbook(self, case):
        width, a, b = case
        b = a if b is None else b  # None in an example: a square
        n = len(a) - 1
        got, sizes, lengths = _packing(a, b, n)
        assert QSeries(got) == schoolbook_mul(QSeries(a), QSeries(b))
        _assert_stride(lengths, n, width)
        assert sizes == ({_item_size(width)} if width <= 8 else set())

    def test_theta4_at_4000_matches_jacobi(self):
        t4 = theta4(4000)
        assert t4[0] == 1
        assert all(t4[n] == jacobi_count(n) for n in range(1, 4001))


def fraction_recurrence(s, weight, order):
    """The plain Fraction loop for x_0 = 1, x_n = weight(n) sum s_k x_{n-k}.

    Reference for the int-over-common-denominator kernel `recurrence`.
    """
    x = [Fraction(1)]
    for n in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += s[k] * x[n - k]
        x.append(weight(n) * acc)
    return x


def _weight(kind, p, q, late, k):
    """A weight family as int pairs, each scaled by k so that a pair is in
    lowest terms only when k = 1; "late" brings its denominators only from
    n = late on."""
    pair = {
        "int": lambda n: (p, 1),
        "const": lambda n: (p, q),
        "harmonic": lambda n: (p, n * q),
        "late": lambda n: (p, n * q) if n >= late else (p, 1),
    }[kind]
    return lambda n: tuple(k * v for v in pair(n))


def _lowest(weight):
    """The same weight with each pair in lowest terms."""
    def pair(n):
        f = Fraction(*weight(n))
        return f.numerator, f.denominator
    return pair


# Coefficients for the recurrence: signed, zero, integral, and rationals
# with unlike denominators.
recurrence_coeffs = st.one_of(
    rationals,
    st.just(0),
    st.integers(min_value=-50, max_value=50),
    st.builds(
        Fraction, st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=40)
    ),
)


@st.composite
def recurrence_cases(draw):
    order = draw(st.integers(min_value=0, max_value=40))
    s = draw(st.lists(recurrence_coeffs, min_size=order + 1, max_size=order + 1))
    kind = draw(st.sampled_from(["int", "const", "harmonic", "late"]))
    p = draw(st.integers(min_value=-6, max_value=6))
    q = draw(st.integers(min_value=1, max_value=7))
    late = draw(st.integers(min_value=1, max_value=41))
    k = draw(st.sampled_from([1, 1, 2, 3, 12, 2**70]))
    return order, s, (kind, p, q, late, k)


class TestRecurrenceKernel:
    @settings(max_examples=300, deadline=None)
    @given(recurrence_cases())
    @example((6, [0, 1, 3, 4, 7, 6, 12], ("harmonic", 2, 1, 1, 1)))  # psi: all int
    @example((6, [0, 1, 3, 4, 7, 6, 12], ("harmonic", 4, 2, 1, 3)))  # psi as (12, 6n)
    @example((5, [0, 1, 0, 0, 0, 0], ("harmonic", 2, 1, 1, 1)))  # 2^n/n!
    @example((8, [0, Fraction(1, 3), -2, 0, Fraction(5, 7), 1, 0, -1, Fraction(1, 2)],
              ("late", 3, 5, 6, 1)))
    @example((8, [0, Fraction(1, 3), -2, 0, Fraction(5, 7), 1, 0, -1, Fraction(1, 2)],
              ("late", -3, 5, 6, 6)))
    @example((6, [0, 2, 1, 0, 0, 0, 0], ("const", 1, 2, 1, 1)))  # x_3 = 2 after x_2 = 3/2
    @example((6, [0, 2, 1, 0, 0, 0, 0], ("const", 0, 2, 1, 5)))  # p = 0: x_n = 0 for n >= 1
    @example((5, [Fraction(1, 9), Fraction(-1, 2), 3, 0, 1, 1], ("int", -2, 1, 1, 4)))
    @example((0, [7], ("const", 1, 2, 1, 1)))
    @example((4, [0, 0, 0, 0, 0], ("harmonic", 1, 3, 1, 2)))
    def test_matches_fraction_loop(self, case):
        order, s, params = case
        weight = _weight(*params)
        got = recurrence(QSeries(s), weight, order)
        want = fraction_recurrence(s, lambda n: Fraction(*weight(n)), order)
        assert list(got.coeffs) == want
        integral = all(w.denominator == 1 for w in want)
        assert {type(x) for x in got.coeffs} == {int if integral else Fraction}
        # a factor common to p and q changes neither D nor any stored numerator
        assert got.stored == recurrence(QSeries(s), _lowest(weight), order).stored

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            recurrence(QSeries([0, 1]), lambda n: (1, 1), 2)
        with pytest.raises(ValueError):
            recurrence(QSeries([0, 1]), lambda n: (1, 1), -1)


class TestPow:
    def test_theta_fourth_to_order_one(self):
        assert theta_like(1) ** 4 == series(1, 8)

    def test_power_zero(self):
        assert theta_like(5) ** 0 == QSeries.one(5)

    def test_power_one(self):
        assert theta_like(5) ** 1 == theta_like(5)
        assert QSeries([Fraction(1, 3), 2]) ** 1 == QSeries([Fraction(1, 3), 2])

    def test_no_product_by_one(self, monkeypatch):
        calls = []
        kernel = qseries._convolve

        def counting(a, b, n):
            calls.append(n)
            return kernel(a, b, n)

        t = theta(50)
        monkeypatch.setattr(qseries, "_convolve", counting)
        got = t ** 4
        assert calls == [50, 50]
        monkeypatch.undo()
        t2 = schoolbook_mul(t, t)
        assert got == schoolbook_mul(t2, t2)

    def test_binomial_square(self):
        assert QSeries([1, 1, 0]) ** 2 == series(1, 2, 1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            theta_like(3) ** -1

    @pytest.mark.parametrize("exp", [True, False, 2.0])
    def test_non_int_exponents_rejected(self, exp):
        # bool is an int subclass: unchecked, s ** True would be s
        with pytest.raises(ValueError, match="exponent"):
            theta_like(3) ** exp


class TestQderiv:
    def test_constant(self):
        assert qderiv(QSeries.one(4)) == QSeries.zero(4)

    def test_geometric(self):
        assert qderiv(series(1, 1, 1, 1)) == series(0, 1, 2, 3)

    def test_twice_matches_cubes(self):
        # applying q d/dq twice to sum m q^m gives sum m^3 q^m
        base = QSeries([0] + [m for m in range(1, 11)])
        got = qderiv(qderiv(base))
        assert got == QSeries([0] + [m**3 for m in range(1, 11)])


class TestExpLog:
    """exp0, and log through the logarithmic derivative: for a_0 = 0 and
    e_0 = 1, log(e) == a exactly when qderiv(e) == e * qderiv(a)."""

    def test_log_of_one(self):
        assert exp0(QSeries.zero(6)) == QSeries.one(6)

    def test_exp_of_lambert_sum_is_psi(self):
        # exp(2 sum sigma(n)/n q^n) through order 6
        sig = [0, 1, 3, 4, 7, 6, 12]
        arg = QSeries([0] + [Fraction(2 * sig[n], n) for n in range(1, 7)])
        got = exp0(arg)
        assert [int(c) for c in got.coeffs] == [1, 2, 5, 10, 20, 36, 65]

    def test_round_trip(self):
        a = QSeries([0, 1, 1], order=10)
        e = exp0(a)
        assert qderiv(e) == e * qderiv(a)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            exp0(series(1, 1))

    @given(st.lists(rationals, min_size=1, max_size=7))
    def test_exp_log_inverse_property(self, tail):
        a = QSeries([0] + tail)
        e = exp0(a)
        assert e.order == a.order and e[0] == 1
        assert qderiv(e) == e * qderiv(a)


class TestSubstituteNeg:
    def test_parity_rule(self):
        t = theta_like(9)
        got = substitute_neg(t)
        for n in range(10):
            assert got[n] == (-t[n] if n % 2 else t[n])

    @given(small_series)
    def test_involution(self, a):
        assert substitute_neg(substitute_neg(a)) == a

    @given(small_series, small_series)
    def test_ring_homomorphism(self, a, b):
        n = min(a.order, b.order)
        assert substitute_neg(a + b) == substitute_neg(a) + substitute_neg(b)
        assert substitute_neg(a * b) == substitute_neg(a) * substitute_neg(b)

    def test_jacobi_difference_coefficients(self):
        t4 = theta_like(9) ** 4
        got = t4 - substitute_neg(t4)
        odd = [int(got[n]) for n in (1, 3, 5, 7, 9)]
        assert odd == [16, 64, 96, 128, 208]
        assert all(got[n] == 0 for n in (0, 2, 4, 6, 8))


@st.composite
def same_order_series(draw, count):
    """Tuples of series sharing one truncation order (the ring is per-order)."""
    n = draw(st.integers(min_value=0, max_value=7))
    return tuple(
        QSeries(draw(st.lists(rationals, min_size=n + 1, max_size=n + 1)))
        for _ in range(count)
    )


class TestRingAxioms:
    # the laws hold in the ring of series truncated at a fixed order.  At
    # least 1000 random cases in total.
    @settings(max_examples=400, deadline=None)
    @given(same_order_series(count=3))
    def test_mul_axioms(self, abc):
        a, b, c = abc
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=400, deadline=None)
    @given(same_order_series(count=3))
    def test_add_axioms(self, abc):
        a, b, c = abc
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)

    @settings(max_examples=300, deadline=None)
    @given(same_order_series(count=2))
    def test_qderiv_is_a_derivation(self, ab):
        a, b = ab
        assert qderiv(a * b) == qderiv(a) * b + a * qderiv(b)


class TestText:
    @settings(max_examples=200, deadline=None)
    @given(small_series)
    def test_golden_round_trip(self, a):
        assert parse_golden(format_golden(a)) == a

    def test_golden_format(self):
        s = QSeries([1, Fraction(10, 7)])
        assert format_golden(s) == "0: 1\n1: 10/7\n"
        # repr goes through the public constructor, so eval gives the series back
        for t in (s, QSeries([1, -24, 0])):
            assert eval(repr(t)) == t

    def test_golden_sequence_enforced(self):
        with pytest.raises(ValueError):
            parse_golden("0: 1\n2: 3\n")

    @pytest.mark.parametrize("text, message", [
        ("0: 1\n1 2\n", "golden line 2 lacks ':'"),
        ("", "empty golden text"),
        ("\n  \n", "empty golden text"),
    ])
    def test_golden_refusals(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_golden(text)

    def test_golden_blank_lines_skipped(self):
        assert parse_golden("\n0: 1\n\n   \n1: 10/7\n\n") == QSeries([1, Fraction(10, 7)])


class TestExactness:
    def test_no_floats_accepted(self):
        with pytest.raises((TypeError, ValueError)):
            QSeries([0.5])
        with pytest.raises(TypeError):
            QSeries([0, 0, 0.5])

    def test_rational_arithmetic_stays_exact(self):
        a = QSeries([Fraction(1, 3)] * 5)
        b = a * a
        assert b[0] == Fraction(1, 9)
        assert b[4] == Fraction(5, 9)


class TestRepresentation:
    """Int numerators over one denominator, in lowest terms; ints or
    Fractions on access."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(kernel_coeffs, min_size=1, max_size=12),
           st.lists(kernel_coeffs, min_size=1, max_size=12))
    @example([Fraction(2, 4), 1], [Fraction(1, 2), 1])
    @example([Fraction(1, 3), 0], [Fraction(1, 3), 1])
    def test_lowest_terms_and_equality(self, cs, ds):
        a, b = QSeries(cs), QSeries(ds)
        assert a._den > 0 and math.gcd(a._den, *a._num) == 1
        assert a.coeffs == tuple(Fraction(c) for c in cs)
        assert {type(c) for c in a.coeffs} == {int if a._den == 1 else Fraction}
        assert a.coeffs == a.coeffs
        assert all(a[n] == a.coeffs[n] for n in range(len(a)))
        assert (a == b) is (a.coeffs == b.coeffs)
        if a == b:
            assert hash(a) == hash(b)
        for same in (QSeries([str(Fraction(c)) for c in cs]),
                     a * 3 * Fraction(1, 3),
                     a.truncated(a.order + 2).truncated(a.order),
                     a + QSeries.zero(a.order)):
            assert same == a and hash(same) == hash(a)
            assert same._den == a._den and same._num == a._num
        with pytest.raises(TypeError):
            QSeries([*cs, 0.5])

    def test_truncated_reduces_to_lowest_terms(self):
        # truncating away the coefficient that carries the denominator
        a = QSeries([1, Fraction(1, 3)])
        assert a.truncated(0) == QSeries([1])
        assert a.truncated(0)._den == 1 and type(a.truncated(0)[0]) is int
        assert a.truncated(3) == QSeries([1, Fraction(1, 3), 0, 0])
        with pytest.raises(ValueError, match="order must be >= 0"):
            a.truncated(-1)

    def test_fraction_view_is_built_once_and_kept(self):
        s = QSeries([1, Fraction(1, 3), Fraction(-5, 6), 2, Fraction(7, 4)])
        num, den = s.stored
        view = s.coeffs
        assert s.coeffs is view
        assert view == tuple(Fraction(c, den) for c in num)
        assert all(type(c) is Fraction for c in view)

    def test_derived_series_never_inherit_the_view(self):
        s = QSeries([1, Fraction(1, 3), Fraction(-5, 6), 2, Fraction(7, 4)])
        t = QSeries([Fraction(2, 5), 1, 0, Fraction(-1, 9), 3])
        fractions = s.coeffs
        derived = {
            "neg": (-s, [-c for c in fractions]),
            "add": (s + t, [x + y for x, y in zip(fractions, t.coeffs)]),
            "sub": (s - t, [x - y for x, y in zip(fractions, t.coeffs)]),
            "mul": (s * t, [sum(fractions[k] * t[n - k] for k in range(n + 1)) for n in range(5)]),
            "scale": (s * Fraction(3, 2), [Fraction(3, 2) * c for c in fractions]),
            "truncated": (s.truncated(3), list(fractions[:4])),
            "padded": (s.truncated(6), [*fractions, 0, 0]),
            "qderiv": (qderiv(s), [n * c for n, c in enumerate(fractions)]),
            "substitute_neg": (substitute_neg(s), [-c if n & 1 else c for n, c in enumerate(fractions)]),
        }
        for name, (got, want) in derived.items():
            assert got._view is None, name
            assert list(got.coeffs) == want, name

    @settings(max_examples=100, deadline=None)
    @given(st.lists(kernel_coeffs, min_size=1, max_size=12))
    def test_view_changes_no_equality_hash_or_repr(self, cs):
        cold, warm = QSeries(cs), QSeries(cs)
        text = repr(warm)  # builds warm's view, when its den is not 1
        assert cold._view is None
        assert cold == warm and warm == cold and hash(cold) == hash(warm)
        assert repr(cold) == text
        assert eval(text) == cold and hash(eval(text)) == hash(warm)

    @pytest.mark.parametrize("make", [lambda: QSeries([1, 2, -3]), lambda: QSeries._of([4, 0, 5]),
                                      lambda: QSeries([Fraction(4, 2), Fraction(6, 3)])])
    def test_integer_series_hand_back_their_ints(self, make):
        s = make()
        assert s.coeffs is s._num and s.coeffs is s.coeffs
        assert all(type(c) is int for c in s.coeffs)
        assert s._view is None
