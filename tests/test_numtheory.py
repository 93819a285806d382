"""Number-theory oracles, checked against even dumber enumerations."""

import operator
import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foursquares import analytic, cli, forms, numtheory
from foursquares.numtheory import (
    R4_MAX_N,
    divisors,
    euler_quotient,
    jacobi_count,
    partitions_table,
    pentagonal,
    phi_by_reduction,
    psi_table,
    r4_bruteforce,
    sigma,
    sigma3,
    sigma3_table,
    sigma_table,
)
from foursquares.qseries import QSeries


def partitions_by_enumeration(n, max_part=None):
    """Count partitions by explicit recursion over the largest part."""
    if n == 0:
        return 1
    if max_part is None:
        max_part = n
    return sum(
        partitions_by_enumeration(n - k, min(k, n - k)) for k in range(1, min(max_part, n) + 1)
    )


def partitions_by_pentagonal_loop(limit):
    """The pentagonal-number loop partitions_table ran before euler_quotient."""
    p = [0] * (limit + 1)
    p[0] = 1
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def pentagonal_by_loop(limit):
    """The (g, (-1)^k) pairs in the order partitions_by_pentagonal_loop
    visits them, by its loop over k, up to g = limit."""
    pairs = []
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        if g1 > limit:
            break
        sign = 1 if k % 2 else -1
        pairs.append((g1, -sign))
        g2 = k * (3 * k + 1) // 2
        if g2 <= limit:
            pairs.append((g2, -sign))
        k += 1
    return pairs


def divisor_power_sieve(limit, power):
    """sum d^power over d | n for n <= limit, each product d * e visited once."""
    table = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for e in range(1, limit // d + 1):
            table[d * e] += d**power
    return table


def times_euler_product(x):
    """x * prod_{k>=1} (1-q^k) through the length of x, one factor at a time."""
    out = list(x)
    for k in range(1, len(x)):
        out = [c - (out[n - k] if n >= k else 0) for n, c in enumerate(out)]
    return out


def r4_by_triple_loop(n):
    """Count quadruples by a, b, c over the full signed ranges, with d from a
    perfect-square test on the residual."""
    r = isqrt(n)
    total = 0
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            for c in range(-r, r + 1):
                rem = n - a * a - b * b - c * c
                if rem >= 0 and isqrt(rem) ** 2 == rem:
                    total += 1 if rem == 0 else 2
    return total


def r2_by_signed_scan(limit):
    """r2[m] = #{(c, d) in Z^2 : c^2 + d^2 = m} for m <= limit, by scanning
    every signed pair in the square."""
    r = isqrt(limit)
    r2 = [0] * (limit + 1)
    for c in range(-r, r + 1):
        for d in range(-r, r + 1):
            if c * c + d * d <= limit:
                r2[c * c + d * d] += 1
    return r2


def r4_by_quadruple_scan(n):
    """Count quadruples by scanning all four coordinates, no shortcuts."""
    r = isqrt(n)
    return sum(
        1
        for a in range(-r, r + 1)
        for b in range(-r, r + 1)
        for c in range(-r, r + 1)
        for d in range(-r, r + 1)
        if a * a + b * b + c * c + d * d == n
    )


class TestDivisorSums:
    def test_sigma_examples(self):
        assert sigma(1) == 1
        assert sigma(9) == 13
        assert sigma(7) == 8

    def test_sigma3_examples(self):
        assert sigma3(1) == 1
        assert sigma3(2) == 9  # 1 + 8
        assert sigma3(6) == 252  # 1 + 8 + 27 + 216

    def test_rejects_nonpositive(self):
        for bad in (0, -1, -100):
            with pytest.raises(ValueError):
                sigma(bad)
            with pytest.raises(ValueError):
                sigma3(bad)
            with pytest.raises(ValueError):
                jacobi_count(bad)

    def test_tables_match_pointwise(self):
        st1, st3 = sigma_table(200), sigma3_table(200)
        for n in range(1, 201):
            assert st1[n] == sigma(n)
            assert st3[n] == sigma3(n)

    def test_tables_start_at_limit_zero(self):
        # like partitions_table: limit 0 is the bare index-0 slot
        assert sigma_table(0) == sigma3_table(0) == [0]
        for table in (sigma_table, sigma3_table):
            with pytest.raises(ValueError, match="limit must be >= 0"):
                table(-1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 300))
    def test_multiplicative_on_coprime_arguments(self, m, n):
        if gcd(m, n) == 1:
            assert sigma(m * n) == sigma(m) * sigma(n)
            assert sigma3(m * n) == sigma3(m) * sigma3(n)

    def test_divisors_sorted_and_complete(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]


class TestPartitions:
    def test_small_values(self):
        assert partitions_table(6)[0] == 1
        assert partitions_table(5)[5] == 7
        assert partitions_table(6)[6] == 11

    def test_against_enumeration(self):
        assert partitions_table(24) == [partitions_by_enumeration(n) for n in range(25)]

    def test_matches_product_expansion(self):
        # coefficient of q^n in prod 1/(1 - q^k), each factor expanded as a
        # geometric series and multiplied through the series engine
        order = 40
        prod = QSeries.one(order)
        for k in range(1, order + 1):
            factor = QSeries([1 if m % k == 0 else 0 for m in range(order + 1)])
            prod = prod * factor
        table = partitions_table(order)
        assert [int(c) for c in prod.coeffs] == table

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            partitions_table(-1)

    def test_matches_pentagonal_loop(self):
        assert partitions_table(500) == partitions_by_pentagonal_loop(500)
        assert partitions_table(0) == [1]
        with pytest.raises(ValueError):
            partitions_table(-1)


class TestEulerQuotient:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(-(2**240), 2**240) | st.just(0), min_size=1, max_size=60))
    def test_times_euler_product_gives_back_input(self, y):
        assert times_euler_product(euler_quotient(y)) == y


class TestPentagonal:
    def test_matches_pentagonal_loop(self):
        for limit in range(501):
            assert pentagonal(limit) == pentagonal_by_loop(limit)

    def test_signs_give_euler_product(self):
        coeffs = [1] + [0] * 300
        for g, sign in pentagonal(300):
            coeffs[g] = sign
        assert coeffs == times_euler_product([1] + [0] * 300)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pentagonal(-1)


class TestPhiByReduction:
    def test_euler_product_cubed_is_jacobis_series(self):
        # phi_by_reduction reads prod (1-q^n)^3 off Jacobi's identity; the
        # series kernel's cube of Euler's pentagonal series is the oracle
        order = 3000
        euler = [1] + [0] * order
        for g, sign in pentagonal(order):
            euler[g] = sign
        want = [0] * (order + 1)
        k = 0
        while k * (k + 1) // 2 <= order:
            want[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
            k += 1
        assert list((QSeries._of(euler) ** 3).coeffs) == want

    def test_rejects_negative(self):
        # like the kept tables
        with pytest.raises(ValueError, match="limit must be >= 0"):
            phi_by_reduction(-1)


class TestR4:
    def test_base_cases(self):
        assert r4_bruteforce(0) == 1
        assert r4_bruteforce(1) == 8
        assert r4_bruteforce(2) == 24

    def test_against_full_quadruple_scan(self):
        for n in range(40):
            assert r4_bruteforce(n) == r4_by_quadruple_scan(n)

    def test_against_triple_loop(self):
        for n in range(301):
            assert r4_bruteforce(n) == r4_by_triple_loop(n)

    def test_matches_jacobi_formula_at_desk_scale(self):
        for n in range(1, 500):
            assert r4_bruteforce(n) == jacobi_count(n)

    def test_lagrange_at_desk_scale(self):
        assert all(r4_bruteforce(n) >= 1 for n in range(1, 300))

    def test_half_sum_equals_the_full_sum(self):
        # r4_bruteforce sums each unordered pair {m, n - m} once; the full
        # sum over every m, on a table of signed pairs, is its oracle at odd
        # and even n, at n = 0 and at the cap
        r2 = r2_by_signed_scan(2000)
        for n in range(2001):
            assert r4_bruteforce(n) == sum(r2[m] * r2[n - m] for m in range(n + 1))
        r2 = r2_by_signed_scan(R4_MAX_N)
        assert r4_bruteforce(R4_MAX_N) == sum(map(operator.mul, r2, reversed(r2)))

    def test_bounds(self):
        with pytest.raises(ValueError):
            r4_bruteforce(-1)
        with pytest.raises(ValueError):
            r4_bruteforce(R4_MAX_N + 1)
        assert r4_bruteforce(R4_MAX_N) == jacobi_count(R4_MAX_N)

    def test_memory_is_linear(self):
        # the one table of pair counts holds n + 1 entries, about 1.6 MB here
        tracemalloc.start()
        try:
            count = r4_bruteforce(R4_MAX_N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == jacobi_count(R4_MAX_N)
        assert peak < 16 * 2**20

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*(st.integers(-50, 50),) * 4))
    def test_doubling_identity(self, quad):
        a, b, c, d = quad
        lhs = 2 * (a * a + b * b + c * c + d * d)
        rhs = (a + b) ** 2 + (a - b) ** 2 + (c + d) ** 2 + (c - d) ** 2
        assert lhs == rhs


class TestJacobiCount:
    def test_examples(self):
        assert jacobi_count(1) == 8
        assert jacobi_count(2) == 24  # 8 * (1 + 2)
        assert jacobi_count(10) == 144  # 8 * (1 + 2 + 5 + 10)

    def test_multiples_of_four_excluded(self):
        assert jacobi_count(4) == 24  # divisors 1, 2 only
        assert jacobi_count(8) == 24  # divisors 1, 2 only

    def test_equals_sigma_less_four_sigma_of_a_quarter(self):
        # the divisors of n that 4 divides are 4e with e | n/4
        sig = sigma_table(2000)
        for n in range(1, 2001):
            assert jacobi_count(n) == 8 * (sig[n] - (0 if n % 4 else 4 * sig[n // 4]))


def fresh_phi(limit):
    """phi_by_reduction(limit) built with nothing kept before or after."""
    kept, numtheory._kept = numtheory._kept, {}
    try:
        return phi_by_reduction(limit)
    finally:
        numtheory._kept = kept


class TestKeptTables:
    """sigma_table, sigma3_table, partitions_table and psi_table slice one
    tuple kept per kind, and phi_by_reduction keeps one (num, den) pair;
    every answer must be the one a fresh build gives."""

    TABLES = {
        "sigma": (sigma_table, lambda n: divisor_power_sieve(n, 1)),
        "sigma3": (sigma3_table, lambda n: divisor_power_sieve(n, 3)),
        "partitions": (partitions_table, partitions_by_pentagonal_loop),
        # the sigma recursion: no psi_table on its route
        "psi": (psi_table, lambda n: list(forms.psi_by_recursion(n).coeffs)),
    }
    REFERENCE = {kind: ref(3000) for kind, (_, ref) in TABLES.items()}
    PHI_LIMITS = (0, 1, 2, 10, 100, 299, 300, 301, 1200)

    @pytest.fixture(autouse=True)
    def cold(self, monkeypatch):
        # every kind, phi's pair too, lives in the one dict
        monkeypatch.setattr(numtheory, "_kept", {})

    @pytest.fixture(scope="class")
    def phi_reference(self):
        return {limit: fresh_phi(limit) for limit in self.PHI_LIMITS}

    @pytest.mark.parametrize("limits", [(0, 10, 300, 1200), (1200, 300, 10, 0),
                                        (300, 10, 1200, 0, 299, 301, 1, 2, 301)])
    def test_phi_any_request_order(self, limits, phi_reference):
        for limit in limits:
            num, den = phi_by_reduction(limit)
            assert type(num) is list
            # the same pair, not just the same rationals: den is the least over n <= limit
            assert (num, den) == phi_reference[limit]
        assert len(numtheory._kept["phi"][0]) == max(limits) + 1

    def test_phi_mutating_a_result_changes_no_later_one(self, phi_reference):
        for limit in (300, 300, 10, 300):  # built, read whole, read below, read whole
            num, den = phi_by_reduction(limit)
            assert (num, den) == phi_reference[limit]
            num[3] += 1
            num[-1] = 0

    def test_phi_above_the_ceiling_is_built_but_not_kept(self, phi_reference, monkeypatch):
        monkeypatch.setattr(numtheory, "_PHI_KEPT_LIMIT", 299)
        phi_by_reduction(10)
        kept = numtheory._kept["phi"]
        assert phi_by_reduction(300) == phi_reference[300]
        assert phi_by_reduction(1200) == phi_reference[1200]
        assert numtheory._kept["phi"] is kept
        assert phi_by_reduction(299) == phi_reference[299]
        assert len(numtheory._kept["phi"][0]) == 300

    def test_phi_at_the_kept_order_rebuilds_nothing(self, phi_reference, monkeypatch):
        # the kept pair, and the series made of it, are handed out again
        phi_by_reduction(300)

        def refuse(*args):
            raise AssertionError("phi at the kept order was rebuilt")

        monkeypatch.setattr(numtheory, "pentagonal", refuse)
        monkeypatch.setattr(numtheory, "lcm", refuse)
        assert phi_by_reduction(300) == phi_reference[300]
        series = forms.phi_by_reduction_of_order(300)
        assert series.stored == (tuple(phi_reference[300][0]), phi_reference[300][1])
        assert forms.phi_by_reduction_of_order(300) is series

    def test_phi_is_kept_as_one_tuple_in_one_statement(self, phi_reference, monkeypatch):
        # a num, den or series stored apart from the others could be read
        # with another build's: every store under "phi" is one whole tuple
        stores = []

        class Recording(dict):
            def __setitem__(self, key, value):
                stores.append((key, value))
                super().__setitem__(key, value)

        monkeypatch.setattr(numtheory, "_kept", Recording())
        largest = -1
        for limit in (10, 300, 100, 0, 300, 301, 1200, 299):
            del stores[:]
            assert phi_by_reduction(limit) == phi_reference[limit]
            if limit <= largest:
                assert stores == []
                continue
            largest = limit
            assert [key for key, _ in stores] == ["phi"]
            num, den, made = stores[0][1]
            assert type(num) is tuple and made is None
            assert (list(num), den) == phi_reference[limit]
        del stores[:]
        series = forms.phi_by_reduction_of_order(1200)  # the kept pair's order
        [(key, (num, den, made))] = stores
        assert key == "phi" and made is series and (list(num), den) == phi_reference[1200]
        for limit in (1200, 100):  # handed out again, or built and not kept
            del stores[:]
            forms.phi_by_reduction_of_order(limit)
            assert stores == []

    def test_phi_ceiling_is_the_cli_order_ceiling(self):
        assert numtheory._PHI_KEPT_LIMIT == cli.MAX_ORDER

    @pytest.mark.parametrize("kind", TABLES)
    @pytest.mark.parametrize("limits", [(0, 10, 500, 3000), (3000, 500, 10, 0),
                                        (500, 10, 3000, 0), (7, 7, 6, 8, 2999, 3000, 1)])
    def test_any_request_order(self, kind, limits):
        table, _ = self.TABLES[kind]
        for limit in limits:
            got = table(limit)
            assert type(got) is list
            assert got == self.REFERENCE[kind][:limit + 1]
        assert len(numtheory._kept[kind]) == max(limits) + 1

    @pytest.mark.parametrize("kind", TABLES)
    def test_mutating_a_result_changes_no_later_one(self, kind):
        table, _ = self.TABLES[kind]
        first = table(100)
        first[3] += 1
        first.append(5)
        del first[:10]
        assert table(100) == self.REFERENCE[kind][:101]
        assert table(50) == self.REFERENCE[kind][:51]

    @pytest.mark.parametrize("kind", TABLES)
    def test_above_the_ceiling_is_built_but_not_kept(self, kind, monkeypatch):
        table, _ = self.TABLES[kind]
        monkeypatch.setattr(numtheory, "_KEPT_LIMIT", 200)
        table(150)
        kept = numtheory._kept[kind]
        assert table(201) == self.REFERENCE[kind][:202]
        assert table(2500) == self.REFERENCE[kind][:2501]
        assert numtheory._kept[kind] is kept
        assert table(200) == self.REFERENCE[kind][:201]
        assert len(numtheory._kept[kind]) == 201

    def test_above_the_real_ceiling(self):
        sigma_table(10)
        kept = numtheory._kept["sigma"]
        limit = numtheory._KEPT_LIMIT + 1
        assert sigma_table(limit) == divisor_power_sieve(limit, 1)
        assert numtheory._kept["sigma"] is kept

    def test_ceiling_is_the_largest_analytic_table(self):
        sizes = [256 * 2**k for k in range(10) if 256 * 2**k <= analytic._MAX_TERMS]
        assert numtheory._KEPT_LIMIT == max(sizes)

    def test_threads_racing_on_cold_tables(self, phi_reference):
        kinds = [*self.TABLES, "phi", "phi_series"]
        phi_fractions = {limit: tuple(Fraction(c, den) for c in num)
                         for limit, (num, den) in phi_reference.items()}
        failures, deadline = [], time.monotonic() + 2.0

        def worker(seed):
            rng = random.Random(seed)
            while time.monotonic() < deadline:
                kind = rng.choice(kinds)
                if rng.random() < 0.05:
                    numtheory._kept = {}  # start every kind cold again
                if kind == "phi":  # a num read with another build's den would differ
                    limit = rng.choice(self.PHI_LIMITS)
                    ok = phi_by_reduction(limit) == phi_reference[limit]
                elif kind == "phi_series":  # and the kept series' Fractions
                    limit = rng.choice(self.PHI_LIMITS)
                    ok = forms.phi_by_reduction_of_order(limit).coeffs == phi_fractions[limit]
                else:
                    limit = rng.randint(0, 3000)
                    ok = self.TABLES[kind][0](limit) == self.REFERENCE[kind][:limit + 1]
                if not ok:
                    failures.append((kind, limit))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert failures == []
