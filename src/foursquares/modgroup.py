"""Exact arithmetic in the modular group and its level-4 congruence subgroups.

A :class:`Mat2Z` is a unit-determinant 2x2 integer matrix.  The two
generators in play are

    T = [[1, 1], [0, 1]]        acting as  tau -> tau + 1
    U = [[1, 0], [4, 1]]        acting as  tau -> tau / (4 tau + 1)

which generate the subgroup of matrices congruent to [[1, *], [0, 1]] mod 4.
:func:`decompose` writes any element of that subgroup as a word in T and U
(a :class:`GenWord`), and :func:`reduce_to_fundamental` moves any point of
the upper half plane into the fundamental domain

    D = { s + it : 0 <= s <= 1, |tau - 1/4| >= 1/4, |tau - 3/4| >= 1/4 }

returning the word that certifies the reduction.  Matrices and words are
exact, and so is every step of the reduction: it works on the binary value
of the point in integers and rounds only the point it returns.  Words act
on a matrix's four ints (`_left`) and build one Mat2Z at the end.  Neither
word builder writes past MAX_WORD_LETTERS letters; longer words raise ValueError.
"""

from __future__ import annotations

import cmath
import re
from itertools import product

from .report import MembershipError, Record

# Boundary membership of D is resolved in favour of "inside".
DOMAIN_EPS = 1e-12

# Ceiling on the letters either word builder writes (`decompose`,
# `reduce_to_fundamental`).  The k-th power of T U^-1 needs 2k letters, so a
# `decompose` entry near 10^9 would otherwise run for hours.  At the ceiling,
# writing and evaluating a word take 0.2-0.4 s and 43 MB on a 2-core VM.
MAX_WORD_LETTERS = 200_000


class Mat2Z(Record):
    """Integer matrix [[a, b], [c, d]] with determinant exactly 1."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        self.a, self.b, self.c, self.d = a, b, c, d
        for entry in (a, b, c, d):
            if type(entry) is not int:  # bool is an int subclass, and not an entry
                raise TypeError("matrix entries must be integers")
        if a * d - b * c != 1:
            raise ValueError(f"determinant of {self.format()} is not 1")

    def __mul__(self, other: "Mat2Z") -> "Mat2Z":
        if not isinstance(other, Mat2Z):
            return NotImplemented
        return Mat2Z(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "Mat2Z":
        return Mat2Z(self.d, -self.b, -self.c, self.a)

    def __pow__(self, k: int) -> "Mat2Z":
        if type(k) is not int:  # bool is an int subclass, and not an exponent
            raise TypeError(f"the exponent of a matrix must be an integer (got {k!r})")
        if k < 0:
            return self.inv() ** (-k)
        result = IDENTITY
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def format(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"

    __str__ = format


IDENTITY = Mat2Z(1, 0, 0, 1)
MAT_T = Mat2Z(1, 1, 0, 1)
MAT_U = Mat2Z(1, 0, 4, 1)
MAT_S = Mat2Z(0, -1, 1, 0)

_MATRIX_RE = re.compile(
    r"\[\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\]\s*,\s*\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\]\]"
)


def parse_matrix(text: str) -> Mat2Z:
    """Parse the text format "[[a,b],[c,d]]"."""
    m = _MATRIX_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"malformed matrix text {text!r}; expected [[a,b],[c,d]]")
    return Mat2Z(*(int(g) for g in m.groups()))


def mobius(m: Mat2Z, tau: complex) -> complex:
    """The action (a tau + b) / (c tau + d) on the upper half plane; a non-finite tau raises."""
    if not cmath.isfinite(tau) or tau.imag <= 0:
        raise ValueError(f"tau must be finite with im(tau) > 0 (got {tau})")
    return (m.a * tau + m.b) / (m.c * tau + m.d)


# --------------------------------------------------------------- congruences

def in_gamma1_4(m: Mat2Z) -> bool:
    """Congruent to [[1, *], [0, 1]] mod 4."""
    return m.a % 4 == 1 and m.d % 4 == 1 and m.c % 4 == 0


def in_gamma0_4(m: Mat2Z) -> bool:
    """Congruent to [[*, *], [0, *]] mod 4."""
    return m.c % 4 == 0


def _sl2_z4() -> list[tuple[int, int, int, int]]:
    """The matrices (a, b, c, d) over the integers mod 4 with determinant 1 mod 4."""
    return [(a, b, c, d) for a, b, c, d in product(range(4), repeat=4)
            if (a * d - b * c) % 4 == 1]


def count_sl2_z4() -> int:
    """The order of SL(2, Z_4)."""
    return len(_sl2_z4())


def congruence_indices() -> dict[str, int]:
    """The index computations, all from one enumeration of SL(2, Z_4).

    Reduction mod 4 is onto, so the index of the level-4 principal subgroup
    equals the order of SL(2, Z_4); the other indices divide it by the sizes
    of the corresponding residue subgroups.
    """
    group = _sl2_z4()
    order = len(group)
    gamma1_image = sum(1 for a, _, c, d in group if a == d == 1 and c == 0)
    gamma0_image = sum(1 for _, _, c, _ in group if c == 0)
    return {
        "sl2_z4_order": order,
        "gamma4_index": order,
        "gamma1_4_index": order // gamma1_image,
        "gamma0_4_index": order // gamma0_image,
        # -Id is not in the subgroup, so passing to PSL halves the index.
        "gamma1_4_psl_index": order // gamma1_image // 2,
    }


# --------------------------------------------------------------------- words

def _left(gen: str, k: int, a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """The entries of gen^k [[a, b], [c, d]], for T^k = [[1,k],[0,1]] and U^k = [[1,0],[4k,1]]."""
    if gen == "T":
        return a + k * c, b + k * d, c, d
    return a, b, c + 4 * k * a, d + 4 * k * b


class GenWord(Record):
    """A product of signed powers of T and U, e.g. T^2 U^-1 T^3.

    Normalised on construction: adjacent letters use distinct generators and
    no exponent is zero.  The empty word is the identity.
    """

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        merged: list[tuple[str, int]] = []
        for gen, exp in letters:
            if gen not in ("T", "U"):
                raise ValueError(f"unknown generator {gen!r}")
            if type(exp) is not int:
                raise TypeError(f"the exponent of {gen} must be an integer (got {exp!r})")
            if merged and merged[-1][0] == gen:
                exp += merged.pop()[1]
            if exp:
                merged.append((gen, exp))
        self.letters = tuple(merged)

    def evaluate(self) -> Mat2Z:
        """The ordered product of the letters (exact), folded last first on four ints."""
        a, b, c, d = 1, 0, 0, 1
        for gen, exp in reversed(self.letters):
            a, b, c, d = _left(gen, exp, a, b, c, d)
        return Mat2Z(a, b, c, d)

    def __len__(self) -> int:
        return len(self.letters)

    def format(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(f"{g}^{e}" for g, e in self.letters)

    __str__ = format


def _nearest(p: int, q: int) -> int:
    """Nearest integer to p/q (any nonzero q); ties round down."""
    if q < 0:
        p, q = -p, -q
    quot, rem = divmod(p, q)
    if 2 * rem > q:
        return quot + 1
    return quot


def decompose(m: Mat2Z) -> GenWord:
    """Write a matrix congruent to [[1,*],[0,1]] mod 4 as a word in T and U.

    Euclidean descent on the first column: left-multiplying by U^k adds 4*k*a
    to c, and by T^k adds k*c to a.  Because gcd(a, c) = 1 with a odd and c
    divisible by 4, alternating nearest-integer reductions strictly shrink
    |c| until c = 0, at which point the congruence conditions force the
    remaining matrix to be a pure power of T.  The returned word w satisfies
    w.evaluate() == m exactly.  A word longer than MAX_WORD_LETTERS letters
    raises ValueError before the descent writes past the ceiling.
    """
    if not in_gamma1_4(m):
        raise MembershipError(f"{m.format()} is not congruent to [[1,*],[0,1]] mod 4")
    letters: list[tuple[str, int]] = []
    a, b, c, d = m.a, m.b, m.c, m.d
    gen = "T"
    # Letters alternate U, T, U, ... while c != 0, then one T: a zero step after
    # a nonzero one would need |c| = 2|a|, which 4 | c and odd a rule out.  So
    # no two letters merge, len(letters) is the word's length, and since no two
    # rounds in a row write nothing, the ceiling ends the loop.
    while c or b or a != 1:
        if c:
            gen, k = ("T", -_nearest(a, c)) if gen == "U" else ("U", -_nearest(c, 4 * a))
        elif a != 1:
            # [[a, b], [0, d]] with ad = 1 and a = d = 1 mod 4 has a = 1.
            raise RuntimeError(f"descent left a non-translation remainder for {m.format()}")
        else:
            gen, k = "T", -b
        if k:
            if len(letters) == MAX_WORD_LETTERS:
                raise ValueError(f"the word for {m.format()} has more than "
                                 f"{MAX_WORD_LETTERS} letters")
            # (a, b, c, d) = s_r ... s_1 m, so m = s_1^-1 ... s_r^-1 (a, b, c, d).
            letters.append((gen, -k))
            a, b, c, d = _left(gen, k, a, b, c, d)
    return GenWord(letters)


# ------------------------------------------------------- fundamental domain

def in_fundamental_domain(tau: complex) -> bool:
    """Membership in D, boundary within DOMAIN_EPS included; no non-finite tau is in D."""
    if not cmath.isfinite(tau) or tau.imag <= 0:
        return False
    if tau.real < -DOMAIN_EPS or tau.real > 1 + DOMAIN_EPS:
        return False
    if abs(tau - 0.25) < 0.25 - DOMAIN_EPS:
        return False
    if abs(tau - 0.75) < 0.25 - DOMAIN_EPS:
        return False
    return True


def _binary(tau: complex) -> tuple[int, int, int]:
    """(p, r, s) with tau exactly (p + ir)/s, s a power of two."""
    p, sp = tau.real.as_integer_ratio()
    r, sr = tau.imag.as_integer_ratio()
    s = max(sp, sr)  # both are powers of two
    return p * (s // sp), r * (s // sr), s


def _act(a: int, b: int, c: int, d: int, p: int, r: int, s: int) -> tuple[int, int, int]:
    """(Nr, Dn, x): A tau = (Nr + i rs)/Dn, c tau + d = (x + i cr)/s for tau = (p + ir)/s."""
    x = c * p + d * s
    return (a * p + b * s) * x + a * c * r * r, x * x + (c * r) ** 2, x


def reduced_image(m: Mat2Z, tau: complex) -> tuple[complex, complex]:
    """(A tau - k, c tau + d), k nearest to re(A tau): formed exactly, each rounded once."""
    p, r, s = _binary(tau)
    nr, dn, x = _act(m.a, m.b, m.c, m.d, p, r, s)
    return complex((nr - _nearest(nr, dn) * dn) / dn, r * s / dn), complex(x / s, m.c * r / s)


def reduce_to_fundamental(tau: complex) -> tuple[complex, GenWord]:
    """Move tau into D; returns (tau', w) with tau' = mobius(w.evaluate(), tau).

    Loop: translate the real part into [0, 1) by a power of T; if the point
    is strictly inside the left removed disc apply U^-1, if inside the right
    one apply U T^-1; otherwise stop.  Each disc step strictly raises the
    height im(w tau) = im(tau) / |c tau + d|^2, and only finitely many bottom
    rows (c, d) satisfy that, so the loop terminates.

    Every step is decided exactly, in integers (W. Stein, Modular Forms: A Computational
    Approach, ch. 1): tau is exactly (p + ir)/s, _act gives w tau as
    (Nr + i rs)/Dn, and tau' is that point correctly rounded; the boundary of
    D counts as inside.  A non-finite tau or a word past MAX_WORD_LETTERS
    letters raises ValueError; a tau' too high for a float raises OverflowError.
    """
    if not cmath.isfinite(tau) or tau.imag <= 0:
        raise ValueError(f"tau must be finite with im(tau) > 0 (got {tau})")
    p, r, s = _binary(tau)
    ni = r * s
    applied: list[tuple[str, int]] = []  # letters in the order they act
    a, b, c, d = 1, 0, 0, 1
    while True:
        nr, dn, _ = _act(a, b, c, d, p, r, s)
        shift = -(nr // dn)
        if shift:
            applied.append(("T", shift))
            a, b, nr = a + shift * c, b + shift * d, nr + shift * dn
        norm2 = 2 * (nr * nr + ni * ni)
        if norm2 < nr * dn:
            applied.append(("U", -1))
            c, d = c - 4 * a, d - 4 * b
        elif norm2 - 3 * nr * dn + dn * dn < 0:
            applied += (("T", -1), ("U", 1))
            a, b = a - c, b - d
            c, d = c + 4 * a, d + 4 * b
        else:
            # The word acts last letter first, so it is the reverse.
            return complex(nr / dn, ni / dn), GenWord(reversed(applied))
        if len(applied) > MAX_WORD_LETTERS:
            raise ValueError(f"the reduction of tau = {tau} writes more than "
                             f"{MAX_WORD_LETTERS} letters")
