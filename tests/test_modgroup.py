"""Group algebra, membership, word problem, reduction."""

import random

import pytest

from foursquares.modgroup import (
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
    parse_word,
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

    def test_s_and_st_relations(self):
        minus_id = Mat2Z(-1, 0, 0, -1)
        assert MAT_S * MAT_S == minus_id
        assert (MAT_S * MAT_T) ** 3 == minus_id

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

    def test_word_parse_round_trip(self):
        for text in ("1", "T^3", "U^-1", "T^2 U^-1 T^3"):
            assert parse_word(text).format() == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_word("T^2 V^1")

    def test_inverse(self):
        rng = random.Random(5)
        for _ in range(50):
            w = random_gamma1_word(rng, max_len=8)
            assert (w * word_inverse(w)).evaluate() == IDENTITY
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
