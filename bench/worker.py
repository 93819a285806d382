"""One benchmark process for the in-process workloads (exact, laws, group).

    python3 bench/worker.py --root DIR --workload W [--setup-only] [--trace]
        [--warm-ims X,Y,...] [--inputs FILE --result FILE (--seconds S | --rounds N)]

Set-up is the package import plus the workload's warm-up; the process then
prints one line ``{"ready": <CLOCK_MONOTONIC seconds>}`` so the parent can
time set-up from spawn.  With ``--setup-only`` it exits there.  Otherwise it
loads the inputs, runs ops one at a time (a closed loop with one client),
checks each op's output between ops, and writes the result file.  Only the
op itself is inside the timed region.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from array import array
from pathlib import Path
from time import perf_counter


def _load_package(root: Path, names, tracer):
    """Import the modules a workload drives (all of them when tracing)."""
    sys.path.insert(0, str(root / "src"))
    if tracer is not None:
        import spans
        mods = spans.install(tracer)
    else:
        import importlib
        mods = {m: importlib.import_module(f"foursquares.{m}") for m in names}
    origin = Path(mods[names[0]].__file__).resolve()
    if root.resolve() / "src" not in origin.parents:
        raise SystemExit(f"foursquares was imported from {origin}, not from {root / 'src'}")
    return mods


def _law_matrices(mg) -> dict:
    return {"I": mg.IDENTITY, "T": mg.MAT_T, "U": mg.MAT_U, "S": mg.MAT_S, "TU": mg.MAT_T * mg.MAT_U}


class Exact:
    """`cli.run` on coefficient-exact commands, in this process."""

    modules = ("cli",)

    def __init__(self, mods, args, tracer):
        self.cli = mods["cli"]
        self.tracer = tracer

    def warm_up(self):
        self.cli.run(["verify", "jacobi", "--order", "10", "--format", "json"],
                     out=io.StringIO(), err=io.StringIO())


    def run(self, argv):
        out = io.StringIO()
        rc = self.cli.run(argv, out=out, err=io.StringIO())
        return rc, out.getvalue()

    def check(self, argv, output, ref):
        import checks
        rc, stdout = output
        if self.tracer is not None:
            self.tracer.add("cli.output_bytes", len(stdout.encode()))
        return checks.check_cli(argv, rc, stdout, ref)

    @staticmethod
    def describe(argv):
        return " ".join(argv[:-2])


class Laws:
    """Every transformation law at one point (tau, A), through `analytic`."""

    modules = ("analytic", "modgroup")

    def __init__(self, mods, args, tracer):
        self.an = mods["analytic"]
        self.mg = mods["modgroup"]
        self.matrices = _law_matrices(self.mg)
        self.warm_ims = [float(x) for x in args.warm_ims.split(",")]

    def warm_up(self):
        for im in self.warm_ims:
            tau = complex(0.0, im)
            for name in ("L_eval", "M_eval", "g_eval", "h_eval"):
                getattr(self.an, name)(tau)


    def run(self, pair):
        an, m = self.an, self.matrices[pair[2]]
        tau = complex(pair[0], pair[1])
        reports = [
            an.check_theta_transform(tau),
            an.check_L_quasimodular(tau, m),
            an.check_G4_transform(tau, m),
        ]
        if self.mg.in_gamma0_4(m):
            reports.append(an.check_Xi_invariance(tau, m))
        reports.append(an.check_ode_solution(tau))
        reports.append(an.check_weight1_invariance(tau, m))
        return reports

    def check(self, pair, reports, ref):
        import checks
        return checks.check_laws(pair[2], [r.to_json_dict() for r in reports])

    @staticmethod
    def describe(pair):
        return f"tau={pair[0]:.6g}{pair[1]:+.6g}i A={pair[2]}"


class Group:
    """Fundamental-domain reduction and the T/U word problem, alternating."""

    modules = ("modgroup",)

    def __init__(self, mods, args, tracer):
        self.mg = mods["modgroup"]

    def warm_up(self):
        self.mg.reduce_to_fundamental(complex(0.3, 1.0))
        self.mg.decompose(self.mg.MAT_T)


    def run(self, op):
        mg = self.mg
        if op[0] == "reduce":
            reduced, word = mg.reduce_to_fundamental(complex(op[1], op[2]))
            return reduced, word.letters
        m = mg.GenWord([tuple(x) for x in op[1]]).evaluate()
        word = mg.decompose(m)
        return m, word.letters, word.evaluate()

    def check(self, op, output, ref):
        import checks
        if op[0] == "reduce":
            reduced, letters = output
            return checks.check_reduction(complex(op[1], op[2]), reduced, letters)
        m, letters, again = output
        entries = (m.a, m.b, m.c, m.d)
        if checks.word_matrix(op[1]) != entries:
            return checks.wrong(f"decompose: {op[1]} evaluated to {entries}")
        if again != m:
            return checks.wrong(f"decompose: re-evaluating {entries} gave {again}")
        return checks.check_decomposition(entries, letters)

    @staticmethod
    def describe(op):
        if op[0] == "reduce":
            return f"reduce tau={op[1]!r}{op[2]:+.6g}i"
        return f"decompose word of {len(op[1])} letters"


WORKLOADS = {"exact": Exact, "laws": Laws, "group": Group}


def run_loop(workload, inputs, root: Path, seconds, rounds, tracer):
    """Closed loop repeating the round of ops: `rounds` times, or else until
    the first round boundary after `seconds`."""
    import checks
    ref = checks.Reference(root / "golden")
    tally = checks.Tally()
    ops = inputs["ops"]
    latencies = array("d")
    start = perf_counter()
    i = 0
    while True:
        if i and i % len(ops) == 0:
            if rounds is not None:
                if i // len(ops) >= rounds:
                    break
            elif perf_counter() - start >= seconds:
                break
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            output = workload.run(op)
        except Exception as exc:  # an op that raises is a failed, wrong op
            latencies.append(perf_counter() - t0)
            verdict = checks.wrong(f"{type(exc).__name__}: {exc}")
        else:
            latencies.append(perf_counter() - t0)
            verdict = workload.check(op, output, ref)
        tally.add(verdict, workload.describe(op))
        i += 1
    return {"latencies": latencies, **tally.as_dict()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", type=Path, required=True)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--warm-ims", default="1.0")
    p.add_argument("--inputs", type=Path)
    p.add_argument("--result", type=Path)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--spans", type=Path, default=None)
    args = p.parse_args(argv)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    cls = WORKLOADS[args.workload]
    mods = _load_package(args.root, cls.modules, tracer)
    workload = cls(mods, args, tracer)
    workload.warm_up()
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    if args.setup_only:
        return 0

    inputs = json.loads(args.inputs.read_text())
    result = run_loop(workload, inputs, args.root, args.seconds, args.rounds, tracer)
    if tracer is not None:
        import spans
        result["trace"] = {**tracer.raw(), **spans.table_info(mods)}
        result["roadmap"] = spans.roadmap_durations(tracer)
        if args.spans is not None:
            tracer.dump(args.spans)
    # Latencies go out as raw doubles: a JSON list of them would grow this
    # process's peak RSS with the op count.
    with open(args.result.with_suffix(".lat"), "wb") as fh:
        result.pop("latencies").tofile(fh)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
