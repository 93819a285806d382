"""Output checks for every op, with arithmetic of the benchmark's own.

Nothing here imports the package under test.  Each check returns a
:class:`Verdict`: ``ok`` is false when the op failed, and ``wrong`` is true
when the op gave an answer the check can show to be wrong (a coefficient,
a count, a certificate, a decomposition, malformed output, an unexpected
exit code or exception).  An exact identity or a group computation that
reports FAIL is wrong, since it is a theorem.  A floating-point law check
that reports FAIL with a finite error and a consistent verdict is failed but
not wrong: that is the program's own tolerance verdict, and the benchmark
records it rather than second-guessing it.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from gen import GOLDEN_SERIES, MATRICES, mobius, word_matrix

DOMAIN_EPS = 1e-12
REPLAY_TOL = 1e-9

IDENTITIES = {
    "jacobi": "jacobi-odd-part",
    "lagrange": "lagrange-positivity",
    "full-jacobi": "full-jacobi-formula",
    "ode": "ramanujan-ode",
    "psi-triple": "psi-triple",
    "lambert": "sigma-lambert",
    "proportionality": "final-proportionality",
}

INDICES = {
    "sl2_z4_order": 48,
    "gamma4_index": 48,
    "gamma1_4_index": 12,
    "gamma1_4_psl_index": 6,
    "gamma0_4_index": 6,
}


@dataclass(frozen=True)
class Verdict:
    ok: bool
    wrong: bool = False
    reason: str = ""


OK = Verdict(True)


class Tally:
    """Failed and wrong ops, by kind (the reason up to its first colon),
    with the first few examples of each."""

    def __init__(self, keep: int = 3):
        self.failed = self.wrong = 0
        self.kinds: Counter = Counter()
        self.examples: dict[str, list[str]] = {}
        self.keep = keep

    def add(self, verdict: Verdict, label: str) -> None:
        if verdict.ok:
            return
        self.failed += 1
        self.wrong += verdict.wrong
        kind = verdict.reason.split(":")[0]
        self.kinds[kind] += 1
        kept = self.examples.setdefault(kind, [])
        if len(kept) < self.keep:
            kept.append(f"{label}: {verdict.reason}")

    def as_dict(self) -> dict:
        return {"failed": self.failed, "wrong": self.wrong,
                "failure_kinds": dict(self.kinds), "failure_examples": self.examples}


def failed(reason: str) -> Verdict:
    """A FAIL verdict the program reported about itself."""
    return Verdict(False, False, reason)


def wrong(reason: str) -> Verdict:
    return Verdict(False, True, reason)


# ------------------------------------------------------------ reference data

def _divisor_power_sums(limit: int, power: int) -> list[int]:
    table = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            table[m] += d**power
    return table


def _partition_numbers(limit: int) -> list[int]:
    p = [1] + [0] * limit
    for part in range(1, limit + 1):
        for n in range(part, limit + 1):
            p[n] += p[n - part]
    return p


def _square_counts(limit: int, squares: int) -> list[int]:
    """Ordered representations of 0..limit as sums of `squares` squares."""
    # (k^2, number of integers with that square)
    terms = [(k * k, 1 if k == 0 else 2) for k in range(math.isqrt(limit) + 1)]
    out = [1] + [0] * limit
    for _ in range(squares):
        out = [sum(w * out[n - s] for s, w in terms if s <= n) for n in range(limit + 1)]
    return out


def parse_golden_text(text: str) -> list[Fraction]:
    coeffs = []
    for line in text.splitlines():
        if line.strip():
            n, _, value = line.partition(":")
            if int(n) != len(coeffs):
                raise ValueError(f"golden line for q^{n} out of sequence")
            coeffs.append(Fraction(value.strip()))
    return coeffs


class Reference:
    """Expected values, built lazily between ops and cached for the run."""

    def __init__(self, golden_dir: Path):
        self.golden_dir = golden_dir
        self._cache: dict = {}

    def _memo(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def golden(self, name: str) -> list[Fraction]:
        return self._memo(("golden", name), lambda: parse_golden_text(
            (self.golden_dir / f"{name}.txt").read_text()))

    def r4(self, n: int) -> int:
        table = self._cache.get("r4", [])
        if n >= len(table):
            table = self._cache["r4"] = _square_counts(max(n, 2000), 4)
        return table[n]

    def expected_series(self, name: str, order: int):
        """Full expected coefficients where the benchmark can derive them,
        else None (the golden prefix is checked on its own)."""
        def build():
            if name == "theta":
                return _square_counts(order, 1)
            if name == "theta4":
                return [self.r4(n) for n in range(order + 1)]
            if name == "L":
                return [1] + [-24 * s for s in _divisor_power_sums(order, 1)[1:]]
            if name == "M":
                return [1] + [240 * s for s in _divisor_power_sums(order, 3)[1:]]
            if name == "P":
                return _partition_numbers(order)
            if name == "psi":
                p = _partition_numbers(order)
                return [sum(p[i] * p[n - i] for i in range(n + 1)) for n in range(order + 1)]
            return None
        return self._memo(("series", name, order), build)


# --------------------------------------------------------------- JSON forms

def _payload(stdout: str):
    try:
        payload = json.loads(stdout)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _flag(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _check_report(rep: dict) -> Verdict:
    """One CheckReport dict of a float law check."""
    err, tol = rep.get("error"), rep.get("tol")
    if not (_finite(err) and _finite(tol) and tol > 0):
        return wrong(f"{rep.get('identity')}: error {err!r} / tol {tol!r} not finite")
    if rep.get("pass") is True:
        if not err < tol:
            return wrong(f"{rep.get('identity')}: PASS with error {err:.3e} >= tol {tol:.1e}")
        return OK
    if rep.get("pass") is False:
        return failed(f"{rep.get('identity')}: FAIL error={err:.3e} tol={tol:.1e} "
                      f"{rep.get('witness') or ''}".rstrip())
    return wrong(f"{rep.get('identity')}: pass flag {rep.get('pass')!r}")


def _expand(argv, payload, ref: Reference) -> Verdict:
    name, order = argv[1], int(_flag(argv, "--order", 200))
    if "--golden-dir" in argv:
        if payload.get("pass") is not True:
            return wrong(f"expand {name}: golden comparison FAIL {payload.get('witness')}")
        if payload.get("compared_through") != min(order, len(ref.golden(name)) - 1):
            return wrong(f"expand {name}: compared through {payload.get('compared_through')}")
        return OK
    coeffs = payload.get("coefficients")
    if not isinstance(coeffs, list) or len(coeffs) != order + 1:
        return wrong(f"expand {name}: expected {order + 1} coefficients")
    try:
        got = [Fraction(c) for c in coeffs]
    except (TypeError, ValueError):
        return wrong(f"expand {name}: unparsable coefficient")
    if name in GOLDEN_SERIES:
        gold = ref.golden(name)
        for n in range(min(order + 1, len(gold))):
            if got[n] != gold[n]:
                return wrong(f"expand {name}: coefficient {n} is {got[n]}, golden {gold[n]}")
    want = ref.expected_series(name, order)
    if want is not None:
        for n, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return wrong(f"expand {name}: coefficient {n} is {g}, expected {w}")
    return OK


def _r4(argv, payload, ref: Reference) -> Verdict:
    n = int(argv[1])
    want = ref.r4(n)
    routes = (payload.get("bruteforce"), payload.get("theta4_coefficient"),
              payload.get("jacobi_formula"))
    if payload.get("pass") is not True or any(r != want for r in routes):
        return wrong(f"r4: routes {routes} for n={n}, expected {want}")
    return OK


def _parse_word(text: str) -> list[tuple[str, int]]:
    if text.strip() in ("", "1"):
        return []
    letters = []
    for part in text.split():
        gen, _, exp = part.partition("^")
        letters.append((gen, int(exp or 1)))
    return letters


def _parse_matrix(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.replace("[", "").replace("]", "").split(","))


def in_domain(tau: complex) -> bool:
    """0 <= re <= 1 outside the discs |tau - 1/4|, |tau - 3/4| < 1/4 (eps inside)."""
    return (
        tau.imag > 0
        and -DOMAIN_EPS <= tau.real <= 1 + DOMAIN_EPS
        and abs(tau - 0.25) >= 0.25 - DOMAIN_EPS
        and abs(tau - 0.75) >= 0.25 - DOMAIN_EPS
    )


def check_reduction(tau: complex, reduced: complex, letters) -> Verdict:
    """The reduction certificate: in the domain, word in Gamma1(4), replay agrees."""
    try:
        a, b, c, d = word_matrix(letters)
    except (TypeError, ValueError) as exc:
        return wrong(f"reduce: bad word for tau={tau} ({exc})")
    if not in_domain(reduced):
        return wrong(f"reduce: {reduced} from tau={tau} is outside the domain")
    if not (a % 4 == 1 and d % 4 == 1 and c % 4 == 0):
        return wrong(f"reduce: word matrix {(a, b, c, d)} for tau={tau} is not in Gamma1(4)")
    replay = mobius((a, b, c, d), tau)
    if not abs(replay - reduced) <= REPLAY_TOL:
        return wrong(f"reduce: replay {replay} differs from {reduced} for tau={tau}")
    return OK


def check_decomposition(matrix, letters) -> Verdict:
    try:
        got = word_matrix(letters)
    except (TypeError, ValueError) as exc:
        return wrong(f"decompose: bad word for {matrix} ({exc})")
    if got != tuple(matrix):
        return wrong(f"decompose: word for {matrix} evaluates to {got}")
    return OK


def _label(argv: list[str]) -> str:
    """The command, with the check or series name where it has one."""
    named = argv[0] in ("verify", "verify-analytic", "expand")
    return " ".join(argv[:2] if named else argv[:1])


def check_cli(argv: list[str], rc: int, stdout: str, ref: Reference) -> Verdict:
    """A `foursquares ... --format json` run: exit code, JSON and content."""
    payload = _payload(stdout)
    if payload is None:
        return wrong(f"{_label(argv)}: exit {rc}, output is not a JSON object")
    verdict = _check_cli_payload(argv, payload, ref)
    if verdict.ok and rc != 0:
        return wrong(f"{_label(argv)}: exit code {rc} for a passing result")
    if not verdict.ok and rc == 0:
        return wrong(f"{verdict.reason} (exit code 0)")
    return verdict


def _check_cli_payload(argv, payload, ref: Reference) -> Verdict:
    cmd = argv[0]
    if cmd == "verify":
        name, order = argv[1], int(_flag(argv, "--order", 200))
        if payload.get("identity") != IDENTITIES[name] or payload.get("order") != order:
            return wrong(f"verify {name}: report for {payload.get('identity')} "
                         f"at order {payload.get('order')}")
        if payload.get("pass") is not True:
            return wrong(f"verify {name}: FAIL {payload.get('witness')}")
        return OK
    if cmd == "verify-analytic":
        reports = payload.get("reports", [payload])
        verdicts = [_check_report(r) for r in reports]
        bad = [v for v in verdicts if not v.ok]
        if any(v.wrong for v in bad):
            return next(v for v in bad if v.wrong)
        # A FAIL at the command line's own defaults is a wrong answer.
        return wrong(bad[0].reason) if bad else OK
    if cmd == "expand":
        return _expand(argv, payload, ref)
    if cmd == "r4":
        return _r4(argv, payload, ref)
    if cmd == "reduce-tau":
        text = argv[-1]
        re_part, im_part = text.split(",")
        tau = complex(float(re_part), float(im_part))
        try:
            reduced = complex(*payload["reduced"])
            letters = _parse_word(payload["word"])
            matrix = _parse_matrix(payload["matrix"])
        except (KeyError, TypeError, ValueError):
            return wrong(f"reduce-tau: malformed payload for {text}")
        if payload.get("in_domain") is not True or word_matrix(letters) != matrix:
            return wrong(f"reduce-tau: word, matrix and in_domain disagree for {text}")
        return check_reduction(tau, reduced, letters)
    if cmd == "decompose":
        try:
            letters = _parse_word(payload["word"])
        except (KeyError, TypeError, ValueError):
            return wrong("decompose: malformed payload")
        return check_decomposition(_parse_matrix(_flag(argv, "--matrix")), letters)
    if cmd == "indices":
        got = {k: payload.get(k) for k in INDICES}
        return OK if got == INDICES else wrong(f"indices: {got}")
    return wrong(f"unknown command {cmd!r}")


def expected_laws(matrix_name: str) -> list[str]:
    """The law checks one laws op runs for a point with this matrix."""
    a, b, c, d = MATRICES[matrix_name]
    laws = ["theta-transformation", "quasimodular-law", "g4-weight4-law"]
    if c % 4 == 0:
        laws.append("xi-invariance")
    return laws + ["ode-solution", "weight1-invariance"]


def check_laws(matrix_name: str, reports: list[dict]) -> Verdict:
    """Reports of one laws op: every expected law, each consistent."""
    names = [r.get("identity") for r in reports]
    if names != expected_laws(matrix_name):
        return wrong(f"laws {matrix_name}: got reports {names}")
    verdicts = [_check_report(r) for r in reports]
    bad = [v for v in verdicts if not v.ok]
    if not bad:
        return OK
    return next((v for v in bad if v.wrong), bad[0])
