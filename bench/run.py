"""The foursquares benchmark: one command, four workloads, every op checked.

    python3 bench/run.py --workload {exact,laws,group,cli-cold,all}
                         --seed N --seconds S --trace {0,1} [--tiny]

Run it from the root of a checkout; it imports the package from ``src/``.
Inputs come from ``gen.py`` and depend only on the workload and the seed.
Ops run one at a time (a closed loop with one client), and the output of
every op is checked by ``checks.py``.

Each workload's inputs are one round of ops, which a run repeats until the
first round boundary after ``--seconds``.  ``--trace 0`` prints the
end-to-end metrics, measured with no tracing, from each op's fastest
repeat.  ``--trace 1`` runs three rounds untraced and three traced
(``spans.py``), and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object; the lines above it
are the report, with units, sample counts, the run environment and a hash
of the inputs.  Spans and full records go to ``.bench_out/`` in the root.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import checks
import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

SETUP_SAMPLES = 11
# Every child is killed, and the run fails, past this many seconds.
DEADLINE_S = 170.0
TAIL_ABOVE = 10
# A traced run does this many rounds untraced and then traced, so that the
# tracing overhead compares each op's fastest repeat, not one noisy sample.
TRACE_ROUNDS = 3


class BenchError(Exception):
    pass


# ------------------------------------------------------------------ per-layer

def _key(name):
    return lambda raw: raw.get(name, 0)


def _frac(num, den):
    return lambda raw: raw.get(num, 0) / raw[den] if raw.get(den) else 0.0


def _hit_ratio(raw):
    total = raw.get("analytic.tables.hits", 0) + raw.get("analytic.tables.misses", 0)
    return raw.get("analytic.tables.hits", 0) / total if total else 0.0


def _layer_table():
    rows = [
        ("qseries.mul.calls", "count"), ("qseries.mul.self_s", "s"),
        ("qseries.mul.out_coeffs", "count"), ("qseries.pow.calls", "count"),
        ("qseries.init.self_s", "s"), ("qseries.exp0.self_s", "s"),
        ("qseries.golden_io.self_s", "s"),
    ]
    for t in ("sigma_table", "sigma3_table"):
        rows += [(f"numtheory.{t}.calls", "count"), (f"numtheory.{t}.self_s", "s")]
    rows += [
        ("numtheory.partitions_table.self_s", "s"), ("numtheory.r4_bruteforce.calls", "count"),
        ("numtheory.r4_bruteforce.self_s", "s"), ("numtheory.jacobi_count.self_s", "s"),
        ("forms.theta4.calls", "count"), ("forms.theta4.total_s", "s"),
    ]
    rows += [(f"forms.{f}.self_s", "s") for f in
             ("psi_by_recursion", "psi_by_sigma3_recursion", "phi_by_recursion")]
    rows += [(f"forms.{f}.total_s", "s") for f in ("psi_by_exp", "psi_by_partition_square")]
    rows += [(f"forms.{v}.total_s", "s") for v in (
        "verify_jacobi", "verify_lagrange", "verify_full_jacobi", "verify_ramanujan_ode",
        "verify_psi_triple", "verify_sigma_lambert", "verify_final_proportionality")]
    for f in ("theta_eval", "L_eval", "M_eval", "g_eval", "h_eval"):
        rows += [(f"analytic.{f}.calls", "count"), (f"analytic.{f}.self_s", "s")]
    rows += [
        ("analytic.fd_checks.total_s", "s"), ("analytic.tables.misses", "count"),
        ("analytic.G4_lattice.calls", "count"), ("analytic.G4_lattice.self_s", "s"),
        ("analytic.row_sum.self_s", "s"), ("analytic.cusp.total_s", "s"),
        ("modgroup.reduce_to_fundamental.calls", "count"),
        ("modgroup.reduce_to_fundamental.self_s", "s"),
        ("modgroup.decompose.calls", "count"), ("modgroup.decompose.self_s", "s"),
        ("modgroup.decompose.word_letters", "count"),
        ("modgroup.GenWord.evaluate.calls", "count"), ("modgroup.GenWord.evaluate.self_s", "s"),
        ("modgroup.Mat2Z.mul.calls", "count"), ("modgroup.mobius.calls", "count"),
        ("cli.run.calls", "count"), ("cli.run.self_s", "s"), ("cli.output_bytes", "bytes"),
        ("cli.import_s", "s"), ("cli.process_s", "s"),
    ]
    table = [(name, unit, _key(name)) for name, unit in rows]
    table += [
        ("numtheory.sigma_table.repeat_frac", "ratio",
         _frac("numtheory.sigma_table.repeats", "numtheory.sigma_table.calls")),
        ("numtheory.sigma3_table.repeat_frac", "ratio",
         _frac("numtheory.sigma3_table.repeats", "numtheory.sigma3_table.calls")),
        ("forms.theta4.repeat_frac", "ratio", _frac("forms.theta4.repeats", "forms.theta4.calls")),
        ("analytic.tables.hit_ratio", "ratio", _hit_ratio),
        ("analytic.tables.build_s", "s", _key("analytic.tables.total_s")),
        ("modgroup.reduce.steps.sum", "count", _key("modgroup.reduce.steps")),
        ("modgroup.reduce.steps.max", "count", _key("modgroup.reduce.steps.max")),
        ("modgroup.reduce.word_letters.sum", "count", _key("modgroup.reduce.word_letters")),
        ("modgroup.reduce.word_letters.max", "count", _key("modgroup.reduce.word_letters.max")),
    ]
    return table


PER_LAYER = _layer_table()
TRACE_METRICS = (
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
)


def merge_raw(total: dict, part: dict) -> None:
    for key, value in part.items():
        if key.endswith(".max"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


# ------------------------------------------------------------------ processes

def _child_env() -> dict:
    env = dict(os.environ)
    # One client on a small machine: numpy's BLAS must not start threads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Runner:
    """Spawns children one at a time, each bounded by the run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = _child_env()

    def spawn(self, cmd):
        """(exit code, stdout, stderr, spawn time, wall seconds)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("the run exceeded its deadline")
        t0 = time.monotonic()
        with subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            try:
                out, err = proc.communicate(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError(f"{' '.join(map(str, cmd[:4]))} ... exceeded the deadline") from None
        return proc.returncode, out, err, t0, time.monotonic() - t0

    def worker(self, workload, extra):
        cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
               "--workload", workload, *extra]
        rc, out, err, t0, _ = self.spawn(cmd)
        if rc != 0:
            raise BenchError(f"worker for {workload} exited {rc}:\n{err.strip()}")
        ready = next(json.loads(line)["ready"] for line in out.splitlines()
                     if line.startswith('{"ready"'))
        return ready - t0


def _tail(lat_sorted):
    """(value, percentile, samples above) at the highest percentile that
    keeps TAIL_ABOVE samples above it; the maximum when there are too few."""
    n = len(lat_sorted)
    if n <= TAIL_ABOVE:
        return lat_sorted[-1], 100.0, 0
    return lat_sorted[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n, TAIL_ABOVE


def best_per_op(lat, n: int) -> list[float]:
    """Each op's fastest repeat: a run repeats its round of n ops in order,
    so op i of the round took lat[i], lat[i + n], ..."""
    return [min(lat[i::n]) for i in range(min(n, len(lat)))]


def summarize(loop: dict, inputs: dict) -> dict:
    """The end-to-end figures of one loop.

    The host's speed drifts by up to 1.7x for tens of seconds at a time, in
    CPU time as much as in wall time, so the figures are taken from each
    op's fastest repeat in the run (as `timeit` takes the best of its
    repeats): the time the op needs when nothing else slows the machine.
    """
    lat = loop["latencies"]
    if not lat:
        raise BenchError("no op completed")
    ops = inputs["ops"]
    best = best_per_op(lat, len(ops))
    slowest = max(range(len(best)), key=best.__getitem__)
    tail, pct, above = _tail(sorted(lat))
    return {
        "ops": len(lat),
        "round": len(best),
        "repeats": len(lat) / len(ops),
        "failed": loop["failed"],
        "wrong": loop["wrong"],
        "busy_s": sum(lat),
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_tail_ms": best[slowest] * 1e3,
        "slowest_op": ops[slowest],
        "all_p50_ms": statistics.median(lat) * 1e3,
        "all_tail_ms": tail * 1e3,
        "all_tail_pct": pct,
        "all_tail_above": above,
        "failure_kinds": loop["failure_kinds"],
        "failure_examples": loop["failure_examples"],
    }


# ------------------------------------------------------------------ workloads

def _worker_loop(runner, workload, inputs, run_dir, tag, stop, trace):
    inputs_path = run_dir / "inputs.json"
    if not inputs_path.exists():
        inputs_path.write_bytes(gen.encode(inputs))
    result_path = run_dir / f"result-{tag}.json"
    extra = ["--inputs", str(inputs_path), "--result", str(result_path), *stop]
    if workload == "laws":
        extra += ["--warm-ims", ",".join(map(repr, inputs["warm_ims"]))]
    if trace:
        extra += ["--trace", "--spans", str(run_dir / f"spans-{tag}.json")]
    setup = runner.worker(workload, extra)
    loop = json.loads(result_path.read_text())
    latencies = array("d")
    latencies.frombytes(result_path.with_suffix(".lat").read_bytes())
    loop["latencies"] = latencies
    return setup, loop


def _setup_samples(runner, workload, inputs, samples):
    if workload == "cli-cold":
        out = []
        for _ in range(samples):
            rc, _, err, _, wall = runner.spawn([sys.executable, "-c", "import foursquares.cli"])
            if rc != 0:
                raise BenchError(f"import foursquares.cli exited {rc}:\n{err.strip()}")
            out.append(wall)
        return out
    extra = ["--setup-only"]
    if workload == "laws":
        extra += ["--warm-ims", ",".join(map(repr, inputs["warm_ims"]))]
    return [runner.worker(workload, extra) for _ in range(samples)]


def _cli_loop(runner, inputs, run_dir, stop_seconds, max_rounds, trace, tag="run"):
    """cli-cold: the parent is the client; each op is one fresh child."""
    ref = checks.Reference(ROOT / "golden")
    tally = checks.Tally()
    latencies = []
    raw: dict = {}
    roadmap: dict = {}
    start = time.monotonic()
    r = 0
    while True:
        if max_rounds is not None:
            if r >= max_rounds:
                break
        elif r and time.monotonic() - start >= stop_seconds:
            break
        for j, argv in enumerate(inputs["ops"]):
            if trace:
                trace_path = run_dir / f"child-{tag}-{r}-{j}.json"
                cmd = [sys.executable, str(BENCH / "clichild.py"), str(trace_path), *argv]
            else:
                cmd = [sys.executable, "-m", "foursquares.cli", *argv]
            rc, out, err, _, wall = runner.spawn(cmd)
            latencies.append(wall)
            stderr = f" [stderr: {err.strip()[-200:]}]" if err.strip() else ""
            tally.add(checks.check_cli(argv, rc, out, ref), " ".join(argv) + stderr)
            if trace and trace_path.exists():
                child = json.loads(trace_path.read_text())
                merge_raw(raw, child["trace"])
                raw["cli.process_s"] = raw.get("cli.process_s", 0) + wall - child["trace"].get(
                    "cli.run.total_s", 0)
                for label, values in child["roadmap"].items():
                    roadmap.setdefault(label, []).extend(values)
        r += 1
    loop = {"latencies": latencies, **tally.as_dict()}
    if trace:
        loop["trace"] = raw
        loop["roadmap"] = roadmap
    return loop


def measure(workload, inputs, seconds, run_dir, tiny, runner):
    """The untraced run: half the set-up samples, the timed loop, then the
    other half, so that the median set-up spans the run and not only its
    first seconds (the host's speed drifts)."""
    samples = 1 if tiny else SETUP_SAMPLES
    if workload == "cli-cold":
        setups = _setup_samples(runner, workload, inputs, samples // 2)
        loop = _cli_loop(runner, inputs, run_dir, seconds, None, False)
    else:
        setups = _setup_samples(runner, workload, inputs, (samples - 1) // 2)
        setup, loop = _worker_loop(runner, workload, inputs, run_dir, "untraced",
                                   ["--seconds", repr(seconds)], False)
        setups.append(setup)
    setups += _setup_samples(runner, workload, inputs, samples - len(setups))
    summary = summarize(loop, inputs)
    summary["setup_s"] = statistics.median(setups)
    summary["setup_samples"] = setups
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return summary


def _concat(loops) -> dict:
    """One loop record from several, in the order they ran."""
    out = {"latencies": [], "failed": 0, "wrong": 0, "failure_kinds": {},
           "failure_examples": {}, "trace": {}, "roadmap": {}}
    for loop in loops:
        out["latencies"] += list(loop["latencies"])
        out["failed"] += loop["failed"]
        out["wrong"] += loop["wrong"]
        for kind, count in loop["failure_kinds"].items():
            out["failure_kinds"][kind] = out["failure_kinds"].get(kind, 0) + count
        for kind, examples in loop["failure_examples"].items():
            out["failure_examples"].setdefault(kind, []).extend(examples)
        merge_raw(out["trace"], loop.get("trace", {}))
        for label, values in loop.get("roadmap", {}).items():
            out["roadmap"].setdefault(label, []).extend(values)
    return out


def traced(workload, inputs, run_dir, runner):
    """TRACE_ROUNDS rounds untraced and as many traced, alternating so that
    a drift of the host's speed falls on both sides; per-layer totals."""
    plain_loops, traced_loops = [], []
    for r in range(TRACE_ROUNDS):
        for trace, loops in ((False, plain_loops), (True, traced_loops)):
            tag = f"{'traced' if trace else 'untraced'}-{r}"
            if workload == "cli-cold":
                loops.append(_cli_loop(runner, inputs, run_dir, 0, 1, trace, tag))
            else:
                loops.append(_worker_loop(runner, workload, inputs, run_dir, tag,
                                          ["--rounds", "1"], trace)[1])
    plain = summarize(_concat(plain_loops), inputs)
    loop = _concat(traced_loops)
    summary = summarize(loop, inputs)
    raw = loop["trace"]
    layers = {name: (fn(raw), unit) for name, unit, fn in PER_LAYER}
    layers["trace.ops_per_s"] = (summary["ops_per_s"], "1/s")
    layers["trace.untraced_ops_per_s"] = (plain["ops_per_s"], "1/s")
    layers["trace.overhead_frac"] = (1.0 - summary["ops_per_s"] / plain["ops_per_s"], "ratio")
    summary["layers"] = layers
    summary["roadmap"] = loop["roadmap"]
    return summary


# ------------------------------------------------------------------ report

def environment(inputs_hash: str, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "seed": seed,
        "inputs_sha256": inputs_hash,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report_untraced(s, seconds) -> list[str]:
    lines = [
        f"  setup_s      {_fmt(s['setup_s'])} s   median of {len(s['setup_samples'])} set-ups "
        f"from a fresh process, before and after the loop: "
        f"{', '.join(_fmt(x) for x in s['setup_samples'])}",
        f"  ops_per_s    {_fmt(s['ops_per_s'])} 1/s   the {s['round']} ops of a round over the sum "
        f"of each op's fastest of {s['repeats']:g} repeats; all {s['ops']} ops in "
        f"{_fmt(s['busy_s'])} s of op time give {_fmt(s['ops'] / s['busy_s'])} "
        f"(closed loop, one client, --seconds {seconds:g})",
        f"  op_p50_ms    {_fmt(s['op_p50_ms'])} ms   median over the {s['round']} ops of their "
        f"fastest repeats; the median of all {s['ops']} samples is {_fmt(s['all_p50_ms'])} ms",
        f"  op_tail_ms   {_fmt(s['op_tail_ms'])} ms   (reported, not gated) the slowest op at its "
        f"fastest repeat "
        f"({_label(s['slowest_op'])}); over all {s['ops']} samples, "
        f"p{s['all_tail_pct']:.3f} with {s['all_tail_above']} above is {_fmt(s['all_tail_ms'])} ms",
        f"  peak_rss_mb  {_fmt(s['peak_rss_mb'])} MB   largest child process (RUSAGE_CHILDREN)",
        f"  failed_frac  {_fmt(s['failed'] / s['ops'])} ratio   {s['failed']} of {s['ops']} "
        f"ops failed, {s['wrong']} of them wrong",
    ]
    return lines + _failure_lines(s)


def _label(op) -> str:
    return " ".join(map(str, op))[:80]


def _failure_lines(s) -> list[str]:
    lines = []
    for kind, count in sorted(s["failure_kinds"].items(), key=lambda kv: -kv[1]):
        lines.append(f"  failures: {count} x {kind}")
        lines += [f"    e.g. {ex}" for ex in s["failure_examples"].get(kind, [])[:2]]
    return lines


def report_traced(s) -> list[str]:
    lines = [f"  {name:<42} {_fmt(value)} {unit}" for name, (value, unit) in s["layers"].items()]
    lay = s["layers"]
    lines.append(
        f"  tracing overhead: {_fmt(lay['trace.overhead_frac'][0])} of untraced ops_per_s "
        f"({_fmt(lay['trace.untraced_ops_per_s'][0])} untraced, "
        f"{_fmt(lay['trace.ops_per_s'][0])} traced, same {s['ops']} ops)")
    import spans
    for label, seconds, *_ in spans.ROADMAP_CASES:
        values = s["roadmap"].get(label) or []
        if values:
            lines.append(f"  ROADMAP item 1: {label} {seconds:g} s; traced here "
                         f"median {_fmt(statistics.median(values))} s over {len(values)} calls")
    return lines + _failure_lines(s)


def run_one(workload, seed, seconds, trace, tiny, runner):
    inputs = gen.generate(workload, seed, tiny)
    inputs_hash = gen.digest(inputs)
    env = environment(inputs_hash, seed)
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    if trace:
        s = traced(workload, inputs, run_dir, runner)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in s["layers"].items()}
        lines = report_traced(s)
    else:
        s = measure(workload, inputs, seconds, run_dir, tiny, runner)
        metrics = {name: {"value": s[name], "unit": unit} for name, unit in END_TO_END}
        lines = report_untraced(s, seconds)
    head = (f"workload {workload}  seed {seed}  trace {int(trace)}  "
            + "  ".join(f"{k}={v}" for k, v in env.items() if k != "seed"))
    record = {"workload": workload, "environment": env, "metrics": metrics,
              "attempted": s["ops"], "failed": s["failed"], "wrong": s["wrong"],
              "failure_examples": s["failure_examples"]}
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))
    return [head, *lines], record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for smoke tests")
    args = p.parse_args(argv)

    missing = [d for d in ("src/foursquares/__init__.py", "golden") if not (ROOT / d).exists()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    runner = Runner(time.monotonic() + DEADLINE_S)
    try:
        lines, record = run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                                args.tiny, runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps({
        "correct": record["wrong"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so RUSAGE_CHILDREN covers only its
    children; metric names get the workload as a prefix."""
    results = []
    for w in gen.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--tiny"] if args.tiny else []), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=DEADLINE_S + 10)
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0:
            print(proc.stdout, end="")
            print(f"error: workload {w} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        print("\n".join(lines[:-1]), flush=True)
        results.append((w, json.loads(lines[-1])))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{w}.{k}": v for w, r in results for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
