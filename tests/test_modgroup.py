"""Group algebra, membership, word problem, reduction."""

import math
import random
from fractions import Fraction

import pytest

from foursquares import modgroup
from foursquares.modgroup import (
    DOMAIN_EPS,
    GenWord,
    IDENTITY,
    MAT_S,
    MAT_T,
    MAT_U,
    MAX_WORD_LETTERS,
    Mat2Z,
    MembershipError,
    congruence_indices,
    count_sl2_z4,
    decompose,
    in_fundamental_domain,
    in_gamma0_4,
    in_gamma1_4,
    mobius,
    parse_matrix,
    reduce_to_fundamental,
)


def in_gamma4(m):
    """Congruent to the identity mod 4: the principal level-4 subgroup,
    which nothing in the package tests membership of."""
    return m.a % 4 == 1 and m.d % 4 == 1 and m.b % 4 == 0 and m.c % 4 == 0


def word_inverse(w):
    """The word of the inverse matrix: letters reversed, exponents negated."""
    return GenWord(tuple((g, -e) for g, e in reversed(w.letters)))


def random_gamma1_word(rng, max_len=20, max_exp=5):
    exps = [e for e in range(-max_exp, max_exp + 1) if e != 0]
    letters = [
        (rng.choice("TU"), rng.choice(exps)) for _ in range(rng.randint(0, max_len))
    ]
    return GenWord(letters)


def random_sl2z(rng, max_len=6):
    m = IDENTITY
    for _ in range(rng.randint(0, max_len)):
        if rng.random() < 0.5:
            m = m * MAT_S
        else:
            m = m * Mat2Z(1, rng.randint(-3, 3), 0, 1)
    return m


class TestMat2Z:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            Mat2Z(1, 0, 0, 2)
        with pytest.raises(ValueError):
            Mat2Z(2, 0, 0, 2)

    def test_integer_entries_enforced(self):
        # half-integer translations act on the thrice-punctured sphere but
        # are not elements of this group
        with pytest.raises(TypeError):
            Mat2Z(1, 0.5, 0, 1)

    @pytest.mark.parametrize("entries", [(True, 0, 0, True), (1, False, 0, 1), (1, 0, 0, 1.0)])
    def test_non_int_entries_rejected(self, entries):
        # bool is an int subclass, but Mat2Z(True, 0, 0, True) would print [[True,0],[0,True]]
        with pytest.raises(TypeError, match="integers"):
            Mat2Z(*entries)

    def test_s_and_st_relations(self):
        minus_id = Mat2Z(-1, 0, 0, -1)
        assert MAT_S * MAT_S == minus_id
        assert (MAT_S * MAT_T) ** 3 == minus_id

    @pytest.mark.parametrize("exp", [True, False, 1.5, 2.0, Fraction(2)])
    def test_non_int_powers_rejected(self, exp):
        # bool is an int subclass: unchecked, MAT_T ** True would be MAT_T
        with pytest.raises(TypeError, match="exponent of a matrix"):
            MAT_T ** exp

    def test_powers(self):
        assert MAT_T ** 0 == IDENTITY
        assert MAT_T ** 5 == Mat2Z(1, 5, 0, 1)
        assert MAT_U ** -3 == Mat2Z(1, 0, -12, 1)

    def test_inverse(self):
        for m in (MAT_S, MAT_T, MAT_U, Mat2Z(-7, 2, -4, 1)):
            assert m * m.inv() == IDENTITY
            assert m.inv() * m == IDENTITY

    def test_u_times_t_inverse(self):
        assert MAT_U * MAT_T.inv() == Mat2Z(1, -1, 4, -3)

    def test_parse_format_round_trip(self):
        for m in (MAT_S, MAT_T, MAT_U, Mat2Z(-7, 2, -4, 1)):
            assert parse_matrix(m.format()) == m

    def test_parse_rejects_garbage(self):
        for bad in ("[[1,2],[3]]", "1,0,0,1", "[[a,b],[c,d]]"):
            with pytest.raises(ValueError):
                parse_matrix(bad)


class TestMobius:
    def test_s_fixes_i(self):
        assert abs(mobius(MAT_S, 1j) - 1j) < 1e-15

    def test_t_translates(self):
        assert mobius(MAT_T, 0.25 + 2j) == 1.25 + 2j

    def test_imaginary_part_formula(self):
        tau = 0.3 + 0.8j
        for m in (MAT_S, MAT_U, Mat2Z(-7, 2, -4, 1)):
            image = mobius(m, tau)
            want = tau.imag / abs(m.c * tau + m.d) ** 2
            assert image.imag > 0
            assert abs(image.imag - want) < 1e-15

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            mobius(MAT_T, 1 - 1j)

    @pytest.mark.parametrize("tau", [complex(math.nan, math.nan), complex(0.3, math.nan),
                                     complex(0.3, math.inf), complex(math.inf, 1)])
    def test_rejects_non_finite_tau(self, tau):
        # unchecked, each would act to nan+nanj, or pass inf+1j on as a point
        with pytest.raises(ValueError, match="finite"):
            mobius(MAT_S, tau)

    def test_group_action_composition(self):
        rng = random.Random(2024)
        for _ in range(300):
            a = random_sl2z(rng)
            b = random_sl2z(rng)
            tau = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3))
            lhs = mobius(a, mobius(b, tau))
            rhs = mobius(a * b, tau)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


class TestMembership:
    def test_t_in_gamma1_not_gamma4(self):
        assert in_gamma1_4(MAT_T)
        assert not in_gamma4(MAT_T)

    def test_u_in_gamma1(self):
        assert in_gamma1_4(MAT_U)
        # U is congruent to the identity mod 4, so it sits in all three
        assert in_gamma4(MAT_U)

    def test_minus_identity(self):
        minus_id = Mat2Z(-1, 0, 0, -1)
        assert in_gamma0_4(minus_id)
        assert not in_gamma1_4(minus_id)

    def test_gamma4_inside_gamma1_inside_gamma0(self):
        m = (MAT_U ** 2) * (Mat2Z(1, 4, 0, 1))
        assert in_gamma4(m)
        assert in_gamma1_4(m)
        assert in_gamma0_4(m)

    def test_random_words_stay_in_gamma1(self):
        rng = random.Random(11)
        for _ in range(200):
            w = random_gamma1_word(rng)
            assert in_gamma1_4(w.evaluate())


class TestIndices:
    def test_sl2_z4_order(self):
        assert count_sl2_z4() == 48

    def test_derived_indices(self):
        idx = congruence_indices()
        assert idx["gamma4_index"] == 48
        assert idx["gamma1_4_index"] == 12
        assert idx["gamma1_4_psl_index"] == 6
        assert idx["gamma0_4_index"] == 6


class TestWords:
    def test_empty_word(self):
        assert GenWord().evaluate() == IDENTITY
        assert GenWord().format() == "1"

    def test_single_u(self):
        assert GenWord([("U", 1)]).evaluate() == Mat2Z(1, 0, 4, 1)

    def test_t2_u_inverse(self):
        assert GenWord([("T", 2), ("U", -1)]).evaluate() == Mat2Z(-7, 2, -4, 1)

    def test_normalisation(self):
        w = GenWord([("T", 2), ("T", -2), ("U", 1), ("U", 2)])
        assert w.letters == (("U", 3),)

    @pytest.mark.parametrize("exp", [1.5, 2.0, True, Fraction(2)])
    def test_non_int_exponents_rejected(self, exp):
        # unchecked, ("T", 1.5) would format as "T^1.5" and ("T", True) as "T^True"
        with pytest.raises(TypeError, match="exponent of T"):
            GenWord([("U", 1), ("T", exp)])

    def test_evaluate_matches_the_matrix_product(self):
        # The matrix route that evaluate() replaced, kept as its oracle: the
        # ordered Mat2Z product of T^k = [[1,k],[0,1]] and U^k = [[1,0],[4k,1]].
        def product_of_letters(word):
            result = IDENTITY
            for gen, k in word.letters:
                result = result * (Mat2Z(1, k, 0, 1) if gen == "T" else Mat2Z(1, 0, 4 * k, 1))
            return result

        rng = random.Random(29)
        parabolic = MAT_T * MAT_U.inv()
        words = [GenWord(), *(random_gamma1_word(rng, max_len=40, max_exp=9) for _ in range(300))]
        for k in (1, 2, 7, 40, -3):
            words.append(GenWord([("T", 1), ("U", -1)] * k if k > 0 else [("U", 1), ("T", -1)] * -k))
            assert words[-1].evaluate() == parabolic ** k
        for w in words:
            assert w.evaluate() == product_of_letters(w), w

    def test_inverse(self):
        rng = random.Random(5)
        for _ in range(50):
            w = random_gamma1_word(rng, max_len=8)
            assert GenWord(w.letters + word_inverse(w).letters).evaluate() == IDENTITY
            assert word_inverse(w).evaluate() == w.evaluate().inv()


class TestDecompose:
    def test_generators(self):
        assert decompose(MAT_T).format() == "T^1"
        assert decompose(MAT_U).format() == "U^1"
        assert decompose(IDENTITY).format() == "1"

    def test_stated_example(self):
        word = decompose(Mat2Z(-7, 2, -4, 1))
        assert word.evaluate() == Mat2Z(-7, 2, -4, 1)

    def test_round_trip_random_words(self):
        rng = random.Random(20240809)
        for _ in range(500):
            w = random_gamma1_word(rng)
            m = w.evaluate()
            again = decompose(m)
            assert again.evaluate() == m
            assert in_gamma1_4(again.evaluate())
            assert all(g in ("T", "U") for g, _ in again.letters)

    def test_parabolic_powers(self):
        # T U^-1 is parabolic; its powers force the longest descents
        base = MAT_T * MAT_U.inv()
        m = base ** 40
        word = decompose(m)
        assert word.evaluate() == m

    def test_word_length_ceiling(self):
        # the k-th power of T U^-1 is a word of 2k letters
        base = MAT_T * MAT_U.inv()
        m = base ** (MAX_WORD_LETTERS // 2)
        word = decompose(m)
        assert len(word) == MAX_WORD_LETTERS
        assert word.evaluate() == m
        with pytest.raises(ValueError, match=f"more than {MAX_WORD_LETTERS} letters"):
            decompose(base ** (MAX_WORD_LETTERS // 2 + 1))

    # decompose's words as recorded before its descent ran on four ints: the
    # replay's matrices (tools/replay_argvs.py) and seeded level-4 matrices.
    PINNED_WORDS = [
        ("[[1,1],[0,1]]", "T^1"),
        ("[[-7,2],[-4,1]]", "T^2 U^-1"),
        ("[[2001,-1000],[4000,-1999]]", " ".join(["T^1 U^-1"] * 1000)),
        ("[[1,0],[4,1]]", "U^1"),
        ("[[41,-1],[-204,5]]", "U^-1 T^-1 U^-10"),
        ("[[-63,-1],[64,1]]", "T^-1 U^16"),
        ("[[193,105],[68,37]]", "T^3 U^-2 " + " ".join(["T^1 U^-1"] * 5) + " T^1"),
        ("[[-95,16],[-196,33]]", " ".join(["U^1 T^-1"] * 16) + " U^-1"),
        ("[[21,20],[232,221]]", "U^3 T^-1 U^-5 T^1"),
        ("[[-63,52],[-40,33]]", "T^2 U^-1 T^1 U^-1 T^1 U^-1 T^1 U^1 T^-1"),
        ("[[-27,22],[-232,189]]", "U^2 T^2 U^-1 T^1 U^1 T^-1"),
        ("[[-223,172],[-188,145]]", "T^1 U^1 T^1 U^-1 T^3 U^1 T^-1"),
    ]

    @staticmethod
    def seeded_level4(rng, count, size=60):
        """count matrices [[a,b],[c,d]] with a = 1, c = 0 mod 4, b and d solved for."""
        found = []
        while len(found) < count:
            a, c = 4 * rng.randint(-size, size) + 1, 4 * rng.randint(-size, size)
            if c and math.gcd(a, c) == 1:
                d = pow(a, -1, abs(c))  # ad = 1 mod c; so d = 1 mod 4
                found.append(Mat2Z(a, (a * d - 1) // c, c, d))
        return found

    def test_words_pinned(self):
        seeded = [m.format() for m in self.seeded_level4(random.Random(29), 8)]
        assert seeded == [text for text, _ in self.PINNED_WORDS[4:]]
        for text, word in self.PINNED_WORDS:
            assert decompose(parse_matrix(text)).format() == word, text

    def test_rejects_non_members(self):
        for m in (MAT_S, Mat2Z(-1, 0, 0, -1), Mat2Z(1, 0, 2, 1)):
            with pytest.raises(MembershipError):
                decompose(m)


class TestReduce:
    def test_interior_point_untouched(self):
        reduced, word = reduce_to_fundamental(0.5 + 2j)
        assert word.format() == "1"
        assert reduced == 0.5 + 2j

    def test_pure_translation(self):
        reduced, word = reduce_to_fundamental(5.3 + 2j)
        assert word.format() == "T^-5"
        assert abs(reduced - (0.3 + 2j)) < 1e-12

    def test_disc_point_moves_up(self):
        tau = 0.25 + 0.1j  # inside the left removed disc
        reduced, word = reduce_to_fundamental(tau)
        assert in_fundamental_domain(reduced)
        assert reduced.imag > tau.imag

    def test_random_sweep(self):
        rng = random.Random(77)
        for _ in range(400):
            tau = complex(rng.uniform(-8, 8), 10 ** rng.uniform(-3, 1))
            reduced, word = reduce_to_fundamental(tau)
            mat = word.evaluate()
            assert in_fundamental_domain(reduced)
            assert in_gamma1_4(mat)
            assert abs(mobius(mat, tau) - reduced) <= 1e-9
            if any(gen == "U" for gen, _ in word.letters):
                # disc steps strictly raise the imaginary part; translations
                # leave it alone
                assert reduced.imag >= tau.imag - 1e-12

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            reduce_to_fundamental(0.3 - 1j)


def stepwise_reduce(tau, max_steps, keep_word=True):
    """The reduction as first written, kept as an oracle: it re-forms the
    whole word at every step and stops only after max_steps steps.  That
    costs time quadratic in the word's length; keep_word=False skips the
    word and returns the matrix in its place."""
    if tau.imag <= 0:
        raise ValueError("tau must satisfy im(tau) > 0")
    word = GenWord()
    mat = IDENTITY
    cur = tau
    for _ in range(max_steps):
        shift = -int(cur.real // 1)
        if shift:
            step = GenWord([("T", shift)])
            if keep_word:
                word = GenWord(step.letters + word.letters)
            mat = step.evaluate() * mat
            cur = mobius(mat, tau)
        if abs(cur - 0.25) < 0.25 - DOMAIN_EPS:
            step = GenWord([("U", -1)])
        elif abs(cur - 0.75) < 0.25 - DOMAIN_EPS:
            step = GenWord([("U", 1), ("T", -1)])
        else:
            return cur, word if keep_word else mat
        if keep_word:
            word = GenWord(step.letters + word.letters)
        mat = step.evaluate() * mat
        cur = mobius(mat, tau)
    raise ValueError(f"reduction did not reach D within {max_steps} steps for tau = {tau}")


def exact_image(m, tau):
    """m tau as a pair of rationals, from tau's exact value."""
    x, y = Fraction(tau.real), Fraction(tau.imag)
    size = (m.c * x + m.d) ** 2 + (m.c * y) ** 2
    return ((m.a * x + m.b) * (m.c * x + m.d) + m.a * m.c * y * y) / size, y / size


def exactly_in_domain(m, tau):
    """Whether m tau lies in D, decided in rationals from tau's exact value."""
    re, im = exact_image(m, tau)
    im2 = im * im
    return (0 <= re <= 1 and (re - Fraction(1, 4)) ** 2 + im2 >= Fraction(1, 16)
            and (re - Fraction(3, 4)) ** 2 + im2 >= Fraction(1, 16))


def assert_exactly_reduced(tau, reduced, word):
    """The word's exact image of tau lies in D, and reduced is it rounded."""
    mat = word.evaluate()
    assert in_gamma1_4(mat), tau
    assert exactly_in_domain(mat, tau), tau
    re, im = exact_image(mat, tau)
    assert reduced == complex(float(re), float(im)), tau


# A word of 1,470 letters; the point where the step limit once ran for 20 s
# (it returns to the same matrix through U^-1, T, U T^-1); a point whose
# stepwise reduction ends exactly inside the right disc; and two points where
# im(cur), off by up to 1e-5 relative near a cusp, falls at a disc step while
# the exact height rises.
LONG_WORD_TAU = complex(-9.166660846176946, 1.364472797317715e-05)
CYCLING_TAU = complex(0.5939742584042348, 8.103651583373406e-13)
MISPLACED_TAU = complex(7.388888794580026, 1.5166611242424763e-07)
NOISY_HEIGHT_TAUS = (complex(-9.354748611209336, 1.0457520996905653e-08),
                     complex(-6.928567913357345, 1.5782268774271832e-06))
# Two points whose float reductions took a last step that left them inside
# the right disc, and called the result in D.
FLOAT_MISSTEP_TAUS = (complex(6.403508726515092, 1.7682397015796046e-08),
                      complex(-7.313725516157961, 3.125647899061359e-08))


class TestReduceAgainstStepwise:
    @staticmethod
    def outcome(reduce, tau):
        try:
            reduced, word = reduce(tau)
        except ValueError:
            return None
        return reduced, word.letters

    def test_seeded_points_match_the_oracle(self):
        # Wherever the float oracle reaches D exactly, the words agree; the
        # points then differ only by the oracle's own rounding.
        rng = random.Random(19)
        points = [complex(rng.uniform(-10, 10), 10 ** rng.uniform(-8, 1)) for _ in range(400)]
        for tau in [*points, LONG_WORD_TAU, CYCLING_TAU, *NOISY_HEIGHT_TAUS]:
            reduced, word = reduce_to_fundamental(tau)
            assert_exactly_reduced(tau, reduced, word)
            want = self.outcome(lambda t: stepwise_reduce(t, 20_000), tau)
            if want is not None and exactly_in_domain(GenWord(want[1]).evaluate(), tau):
                assert word.letters == want[1], tau

    def test_deep_points_land_exactly_in_domain(self):
        rng = random.Random(21)
        for _ in range(300):
            tau = complex(rng.uniform(-10, 10), 10 ** rng.uniform(-14, 1))
            assert_exactly_reduced(tau, *reduce_to_fundamental(tau))

    def test_long_word(self):
        _, word = reduce_to_fundamental(LONG_WORD_TAU)
        assert len(word) == 1470
        assert exactly_in_domain(word.evaluate(), LONG_WORD_TAU)

    def test_cycle_stops_at_once(self):
        # Exact steps cannot cycle: the point that once did reduces at once.
        reduced, word = reduce_to_fundamental(CYCLING_TAU)
        assert len(word) == 15
        assert_exactly_reduced(CYCLING_TAU, reduced, word)

    def test_misplaced_point_stops(self):
        # the float oracle stops outside D; the exact reduction does not
        reduced, mat = stepwise_reduce(MISPLACED_TAU, 20_000, keep_word=False)
        assert in_fundamental_domain(reduced)
        assert not exactly_in_domain(mat, MISPLACED_TAU)
        reduced, word = reduce_to_fundamental(MISPLACED_TAU)
        assert len(word) == 18_255
        assert_exactly_reduced(MISPLACED_TAU, reduced, word)

    @pytest.mark.parametrize("tau, first", zip(FLOAT_MISSTEP_TAUS, [("U", 1472), ("U", 1512)]))
    def test_float_missteps_mended(self, tau, first):
        reduced, word = reduce_to_fundamental(tau)
        assert word.letters[0] == first
        assert_exactly_reduced(tau, reduced, word)

    def test_subnormal_height(self):
        tau = complex(0.123456789, 5e-324)
        reduced, word = reduce_to_fundamental(tau)
        assert_exactly_reduced(tau, reduced, word)
        assert 3.8e289 < reduced.imag < 4.0e289

    def test_height_past_float_range(self):
        # U^-1 takes the cusp 1/4 to infinity: im = 1 / (16 * 5e-324)
        with pytest.raises(OverflowError):
            reduce_to_fundamental(complex(0.25, 5e-324))

    @pytest.mark.parametrize("tau", [complex(0.3, math.inf), complex(0.3, math.nan),
                                     complex(math.inf, 1), complex(math.nan, 1)])
    def test_non_finite_rejected(self, tau):
        with pytest.raises(ValueError, match="finite"):
            reduce_to_fundamental(tau)

    def test_word_ceiling(self, monkeypatch):
        monkeypatch.setattr(modgroup, "MAX_WORD_LETTERS", 1000)
        with pytest.raises(ValueError, match="more than 1000 letters"):
            reduce_to_fundamental(LONG_WORD_TAU)


class TestDomainMembership:
    def test_boundary_resolved_inside(self):
        assert in_fundamental_domain(0.0 + 0.5j)
        assert in_fundamental_domain(1.0 + 0.5j)
        assert in_fundamental_domain(0.5 + 0.25j)  # tangent to both discs

    def test_disc_interiors_excluded(self):
        assert not in_fundamental_domain(0.25 + 0.2j)
        assert not in_fundamental_domain(0.75 + 0.2j)

    def test_strip_bounds(self):
        assert not in_fundamental_domain(-0.2 + 1j)
        assert not in_fundamental_domain(1.2 + 1j)

    @pytest.mark.parametrize("tau", [0.5 + 0j, 0.5 - 1e-300j, 0.5 - 1j, 0.0 + 0j])
    def test_real_axis_and_below_excluded(self, tau):
        assert not in_fundamental_domain(tau)

    @pytest.mark.parametrize("tau", [complex(math.nan, math.nan), complex(math.nan, 1),
                                     complex(0.5, math.nan), complex(0.5, math.inf)])
    def test_non_finite_excluded(self, tau):
        # every comparison with NaN is False, so no comparison alone refuses it
        assert not in_fundamental_domain(tau)
