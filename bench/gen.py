"""Seeded input generation for the four workloads.

Everything here is plain Python with one ``random.Random(seed)`` per
workload: no package import, no threads, no clock.  The same seed gives
byte-identical inputs, which :func:`digest` turns into a hash that two runs
can compare.  Each workload's inputs are one *round* of ops, ``inputs["ops"]``,
which a run repeats until its time is up.  Matrices and Mobius images are computed here with integer and
complex arithmetic of the generator's own, so the program under test sees
only the finished inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("exact", "laws", "group", "cli-cold")

SERIES = ("theta", "theta4", "L", "M", "psi", "phi", "P")
GOLDEN_SERIES = ("theta4", "L", "M", "psi", "phi")
VERIFY_LARGE = ("jacobi", "full-jacobi", "lagrange", "proportionality", "ode", "lambert")
VERIFY_ALL = VERIFY_LARGE + ("psi-triple",)
ANALYTIC_ALL = (
    "poisson", "theta-transform", "row-sum2", "row-sum4", "g4",
    "quasimodular", "xi", "ode-solution", "weight1", "cusp",
)

# The matrices of the laws workload, as (a, b, c, d).
MATRICES = {
    "I": (1, 0, 0, 1),
    "T": (1, 1, 0, 1),
    "U": (1, 0, 4, 1),
    "S": (0, -1, 1, 0),
    "TU": (5, 1, 4, 1),
}

# Documented floor of the law checks: im(tau) > 0.1 for the second-derivative
# check, im(A tau) >= 0.1 for the weight-1 check (the others need only 0.05).
LAW_FLOOR = 0.1


def mobius(m: tuple[int, int, int, int], tau: complex) -> complex:
    a, b, c, d = m
    return (a * tau + b) / (c * tau + d)


def word_matrix(letters) -> tuple[int, int, int, int]:
    """The product of T^e = [[1,e],[0,1]] and U^e = [[1,0],[4e,1]] letters."""
    a, b, c, d = 1, 0, 0, 1
    for gen, e in letters:
        if gen == "T":
            b, d = a * e + b, c * e + d
        elif gen == "U":
            a, c = a + 4 * e * b, c + 4 * e * d
        else:
            raise ValueError(f"unknown generator {gen!r}")
    return a, b, c, d


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _random_word(rng: random.Random, max_len: int) -> list[list]:
    exps = [e for e in range(-5, 6) if e]
    return [[rng.choice("TU"), rng.choice(exps)] for _ in range(rng.randint(0, max_len))]


def _matrix_text(m) -> str:
    a, b, c, d = m
    return f"[[{a},{b}],[{c},{d}]]"


def _tau_text(tau: complex) -> str:
    return f"{tau.real!r},{tau.imag!r}"


def _reduce_point(rng: random.Random) -> complex:
    return complex(rng.uniform(-10.0, 10.0), _log_uniform(rng, 1e-5, 10.0))


def _exact(rng: random.Random, tiny: bool) -> dict:
    # The orders keep a round near 2.5 s on a 2-core Xeon VM, so a run
    # repeats each op about twenty times.
    big, triple, small, r4_max, r4_count = (40, 20, 20, 60, 2) if tiny else (500, 100, 300, 700, 8)
    ops = [["verify", v, "--order", str(big)] for v in VERIFY_LARGE]
    ops.append(["verify", "psi-triple", "--order", str(triple)])
    ops += [["expand", s, "--order", str(small)] for s in SERIES]
    # `r4 n` costs about n^2 (the exact theta^4 route), so n is drawn with
    # n^2 uniform, one draw in each of r4_count equal strata: a round's cost
    # stays steady across seeds, and the costs spread evenly rather than
    # leaving a gap at the median op.
    ops += [["r4", str(max(1, round(r4_max * math.sqrt((i + rng.random()) / r4_count))))]
            for i in range(r4_count)]
    rng.shuffle(ops)
    return {"ops": [op + ["--format", "json"] for op in ops]}


def _laws(rng: random.Random, tiny: bool) -> dict:
    pool = 64 if tiny else 4096
    names = sorted(MATRICES)
    ops = []
    ims = []
    while len(ops) < pool:
        tau = complex(rng.uniform(-0.5, 1.0), LAW_FLOOR * 30.0 ** rng.random())
        name = rng.choice(names)
        a_im = mobius(MATRICES[name], tau).imag
        if tau.imag > LAW_FLOOR and a_im >= LAW_FLOOR:
            ops.append([tau.real, tau.imag, name])
            ims += [tau.imag, a_im]
    return {"ops": ops, "warm_ims": warm_ladder(min(ims), max(ims))}


def warm_ladder(lo: float, hi: float) -> list[float]:
    """Im tau values from just below `lo` (the finite-difference steps reach
    1e-4 below a point) to `hi`, 15% apart.  The evaluators' tables are
    keyed by a power-of-two term count that halves no faster than Im tau
    doubles, so evaluating at each rung fills every table the ops use."""
    ladder = [lo - 2e-4]
    while ladder[-1] < hi:
        ladder.append(ladder[-1] * 1.15)
    return ladder


def _group(rng: random.Random, tiny: bool) -> dict:
    pool = 32 if tiny else 2048
    ops = []
    for _ in range(pool):
        tau = _reduce_point(rng)
        ops.append(["reduce", tau.real, tau.imag])
        ops.append(["decompose", _random_word(rng, 60)])
    return {"ops": ops}


def _cli_cold(rng: random.Random, tiny: bool) -> dict:
    if tiny:
        ops = [
            ["verify-analytic", "theta-transform"],
            ["verify", "jacobi", "--order", "20"],
            ["expand", "L", "--order", "20", "--golden-dir", "golden"],
        ]
    else:
        ops = [["verify-analytic", c] for c in ANALYTIC_ALL]
        ops += [["verify", v] for v in VERIFY_ALL]
        ops += [["expand", s, "--order", "100", "--golden-dir", "golden"] for s in GOLDEN_SERIES]
    ops.append(["r4", str(rng.randint(1, 60 if tiny else 1000))])
    ops.append(["decompose", "--matrix", _matrix_text(word_matrix(_random_word(rng, 60)))])
    ops.append(["indices"])
    ops = [op + ["--format", "json"] for op in ops]
    # "--" ends the options: argparse reads a tau such as "-6.7,3.4" as an
    # unknown option otherwise.
    ops.append(["reduce-tau", "--format", "json", "--", _tau_text(_reduce_point(rng))])
    rng.shuffle(ops)
    return {"ops": ops}


_GENERATORS = {"exact": _exact, "laws": _laws, "group": _group, "cli-cold": _cli_cold}


def generate(workload: str, seed: int, tiny: bool = False) -> dict:
    """The inputs of one run: a JSON-ready dict, a pure function of its arguments."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return {"workload": workload, "seed": seed, "tiny": tiny, **_GENERATORS[workload](rng, tiny)}


def encode(inputs: dict) -> bytes:
    """Canonical bytes of the inputs (floats print with repr, so they round-trip)."""
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()


def digest(inputs: dict) -> str:
    return hashlib.sha256(encode(inputs)).hexdigest()
