"""Command-line front end: every verification and computation as a subcommand.

`_COMMANDS` has one row per subcommand: its help text, its arguments and its
handler, and `build_parser` builds the parser from the rows.  A handler
prints nothing; it returns (JSON payload, text lines, passed), the lines as
any iterable, read at most once.  `run` alone prints: one strict JSON
document under `--format json`, else the lines.
Exit codes: 0 when all requested checks pass, 1 on a verification failure
(or a matrix outside the required subgroup), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import json
import re
import sys
from operator import mul
from pathlib import Path

from .report import CheckReport, MembershipError

DEFAULT_TAU = complex(0.3, 1.1)
# The level-4 invariance check needs im(A tau) >= 0.05 for its default
# matrix U, which the shared default tau misses; this point clears it.
XI_DEFAULT_TAU = complex(0.1, 0.5)
POISSON_POINTS = (0.1, 0.5, 1.0, 2.0)

# Every display name the subcommands take, with the name of the function
# that serves it.  Functions are looked up at call time, so a rebound module
# attribute (a tracer, a test double) sees every call, and a module (`forms`
# with `expand`) is imported only when a command runs it.
# expand name -> series constructor in `forms`
_SERIES = {
    "theta": "theta",
    "theta4": "theta4",
    "L": "series_L",
    "M": "series_M",
    "psi": "psi_by_partition_square",
    "phi": "phi_by_reduction_of_order",
    "P": "partition_series",
}
# verify name -> coefficient-exact verifier in `forms`
_VERIFIERS = {
    "jacobi": "verify_jacobi",
    "lagrange": "verify_lagrange",
    "full-jacobi": "verify_full_jacobi",
    "ode": "verify_ramanujan_ode",
    "psi-triple": "verify_psi_triple",
    "lambert": "verify_sigma_lambert",
    "proportionality": "verify_final_proportionality",
}
# verify-analytic name -> (check function in `analytic`, default tau, default
# matrix as a `modgroup` attribute).  A None default means the check takes no
# such argument and rejects the flag.
_ANALYTIC = {
    "poisson": ("check_poisson", None, None),
    "theta-transform": ("check_theta_transform", DEFAULT_TAU, None),
    "row-sum2": ("check_row_sum2", DEFAULT_TAU, None),
    "row-sum4": ("check_row_sum4", DEFAULT_TAU, None),
    "g4": ("check_G4_expansion", DEFAULT_TAU, None),
    "quasimodular": ("check_L_quasimodular", DEFAULT_TAU, "MAT_S"),
    "xi": ("check_Xi_invariance", XI_DEFAULT_TAU, "MAT_U"),
    "ode-solution": ("check_ode_solution", DEFAULT_TAU, None),
    "weight1": ("check_weight1_invariance", DEFAULT_TAU, "MAT_S"),
    "monodromy": ("check_monodromy", DEFAULT_TAU, None),
    "cusp": ("check_cusp_boundedness", None, None),
}
ANALYTIC_CHECKS = tuple(_ANALYTIC)

# Ceiling on expand/verify --order.  At 3000 a whole run takes 5.2-5.6 s for
# `verify psi-triple`, 1.5-1.7 s for `expand phi` and 0.05-0.09 s for every
# other name (2-core Xeon VM, Python 3.11.7).  Near 3250, phi's coefficients
# pass Python's 4300-digit limit on int-to-text conversion.
MAX_ORDER = 3000

# argparse takes only plain negative numbers as positionals or option values;
# without this, a point such as -6.7,3.4 would read as an unknown option.
_NEGATIVE_TAU = re.compile(r"^-(\d|\.\d|[^,]*,)")

USAGE_ERROR = 2


def _parse_tau(text: str) -> complex:
    try:
        re_part, im_part = text.split(",")
        tau = complex(float(re_part), float(im_part))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected tau as re,im (got {text!r})"
        ) from None
    if not cmath.isfinite(tau):
        raise argparse.ArgumentTypeError(f"tau must be finite (got {text!r})")
    if tau.imag <= 0:
        raise argparse.ArgumentTypeError("tau must have positive imaginary part")
    return tau


def _parse_matrix_arg(text: str):
    from . import modgroup
    try:
        return modgroup.parse_matrix(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _forms_call(table: dict, name: str, order: int):
    """The `forms` function that table names for a display name, called at order."""
    if name not in table:
        raise ValueError(f"unknown name {name!r}; expected one of {tuple(table)}")
    if order > MAX_ORDER:
        raise ValueError(f"order must be <= {MAX_ORDER}")
    from . import forms
    return getattr(forms, table[name])(order)


def _reports_result(reports: list[CheckReport]) -> tuple[dict, list[str], bool]:
    """The handler result for reports: one report's JSON, or all and their verdict."""
    passed = all(r.passed for r in reports)
    if len(reports) == 1:
        payload = reports[0].to_json_dict()
    else:
        payload = {"reports": [r.to_json_dict() for r in reports], "pass": passed}
    return payload, [r.describe() for r in reports], passed


def _cmd_expand(args):
    from .forms import first_mismatch
    from .qseries import parse_golden
    series = _forms_call(_SERIES, args.name, args.order)
    payload = {"command": "expand", "name": args.name, "order": args.order}
    if args.golden_dir is None:
        # each coefficient is formatted once; the text lines are built only if printed
        coeffs = payload["coefficients"] = list(map(str, series.coeffs))
        return payload, (f"{n}: {c}" for n, c in enumerate(coeffs)), True
    path = args.golden_dir / f"{args.name}.txt"
    golden = parse_golden(path.read_text())
    upto = min(golden.order, series.order)
    mismatch = first_mismatch(series, golden, upto)
    payload |= {"golden": str(path), "compared_through": upto, "pass": mismatch is None}
    if mismatch is None:
        return payload, [f"PASS {args.name} matches {path} through order {upto}"], True
    n, got, want = mismatch
    payload["witness"] = {"n": n, "got": str(got), "expected": str(want)}
    line = f"FAIL {args.name} vs {path}: coefficient {n} got {got}, expected {want}"
    return payload, [line], False


def _cmd_verify_analytic(args):
    from . import analytic
    cfg = analytic.EvalConfig(tol=args.tol)
    check_name, default_tau, default_matrix = _ANALYTIC[args.name]
    if default_matrix is not None:
        from . import modgroup
        default_matrix = getattr(modgroup, default_matrix)
    check_args = []
    for flag, value, default in (("--tau", args.tau, default_tau),
                                 ("--matrix", args.matrix, default_matrix)):
        if default is not None:
            check_args.append(default if value is None else value)
        elif value is not None:
            raise ValueError(f"verify-analytic {args.name} takes no {flag}")
    check = getattr(analytic, check_name)
    if args.name == "poisson":
        return _reports_result([check(t, cfg) for t in POISSON_POINTS])
    return _reports_result([check(*check_args, cfg)])


def _cmd_r4(args):
    from . import forms
    from .numtheory import jacobi_count, r4_bruteforce
    n = args.n
    brute = r4_bruteforce(n)
    # theta^4's coefficient n is sum_m t2[m] t2[n - m] over theta^2, each pair {m, n - m} once
    t2 = forms.theta2(n).coeffs
    coeff = 2 * sum(map(mul, t2[: (n + 1) // 2], reversed(t2))) + (0 if n & 1 else t2[n // 2] ** 2)
    jacobi = jacobi_count(n) if n >= 1 else None
    agree = brute == coeff and jacobi in (None, brute)
    payload = {"command": "r4", "n": n, "bruteforce": brute, "jacobi_formula": jacobi,
               "theta4_coefficient": coeff, "pass": agree}
    line = f"r4({n}): bruteforce={brute} jacobi={'-' if jacobi is None else jacobi} theta4={coeff} "
    return payload, [line + ("AGREE" if agree else "DISAGREE")], agree


def _cmd_reduce_tau(args):
    from . import modgroup
    reduced, word = modgroup.reduce_to_fundamental(args.tau)
    mat = word.evaluate()
    in_domain = modgroup.in_fundamental_domain(reduced)
    payload = {"command": "reduce-tau", "tau": [args.tau.real, args.tau.imag],
               "reduced": [reduced.real, reduced.imag], "word": word.format(),
               "matrix": mat.format(), "in_domain": in_domain}
    lines = [f"reduced: {reduced.real:.12g} + {reduced.imag:.12g}i",
             f"word: {word.format()}", f"matrix: {mat.format()}"]
    return payload, lines, in_domain


def _cmd_decompose(args):
    from . import modgroup
    word = modgroup.decompose(args.matrix).format()
    return {"command": "decompose", "matrix": args.matrix.format(), "word": word}, [word], True


def _cmd_indices(args):
    from . import modgroup
    idx = modgroup.congruence_indices()
    lines = [
        f"order of SL(2, Z_4): {idx['sl2_z4_order']}",
        f"index of the principal level-4 subgroup: {idx['gamma4_index']}",
        f"index of the [[1,*],[0,1]] subgroup: {idx['gamma1_4_index']}",
        f"  the same subgroup inside PSL(2, Z): {idx['gamma1_4_psl_index']}",
        f"index of the upper-triangular-mod-4 subgroup: {idx['gamma0_4_index']}",
    ]
    return {"command": "indices", **idx}, lines, True


_ORDER_ARG = ("--order", dict(type=int, default=200))

# One row per subcommand: help text, arguments as (name, `add_argument` keywords)
# pairs in help order, and handler.  `build_parser` adds --format to every row.
_COMMANDS = {
    "expand": ("print exact series coefficients", (
        ("name", dict(choices=tuple(_SERIES))),
        _ORDER_ARG,
        ("--golden-dir", dict(type=Path,
                              help="compare against <dir>/<name>.txt instead of printing only")),
    ), _cmd_expand),
    "verify": ("coefficient-exact identity checks", (
        ("name", dict(choices=tuple(_VERIFIERS))),
        _ORDER_ARG,
    ), lambda args: _reports_result([_forms_call(_VERIFIERS, args.name, args.order)])),
    "verify-analytic": ("floating-point law checks", (
        ("name", dict(choices=ANALYTIC_CHECKS)),
        ("--tau", dict(type=_parse_tau)),
        ("--matrix", dict(type=_parse_matrix_arg)),
        ("--tol", dict(type=float)),
    ), _cmd_verify_analytic),
    "r4": ("four-square count three ways", (("n", dict(type=int)),), _cmd_r4),
    "reduce-tau": ("reduce a point into the fundamental domain", (
        ("tau", dict(type=_parse_tau)),
    ), _cmd_reduce_tau),
    "decompose": ("write a matrix as a word in T and U", (
        ("--matrix", dict(type=_parse_matrix_arg, required=True)),
    ), _cmd_decompose),
    "indices": ("congruence subgroup index computations", (), _cmd_indices),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process from `_COMMANDS`; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="foursquares",
        description="Exact and numerical checks for the four-squares apparatus",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, arguments, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, options in arguments:
            p.add_argument(name, **options)
            if options.get("type") is _parse_tau:
                p._negative_number_matcher = _NEGATIVE_TAU
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def run(argv: list[str] | None = None, out=None, err=None) -> int:
    """Parse argv and execute; returns the exit code instead of exiting."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    try:
        payload, lines, passed = _COMMANDS[args.command][-1](args)
        # printed inside the try: a payload strict JSON cannot hold exits 2
        if args.format == "json":
            lines = [json.dumps(payload, allow_nan=False)]
        for line in lines:
            print(line, file=out)
        return 0 if passed else 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 1 if isinstance(exc, MembershipError) else USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
