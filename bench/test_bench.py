"""Tests of the benchmark itself: run with `python3 -m pytest bench`.

The output checkers must reject planted wrong answers, the generator must
be deterministic, and a tiny run of each workload must print every metric
that BENCHMARK.json names.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import gen
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REF = checks.Reference(ROOT / "golden")


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


# ------------------------------------------------------------------ contract

def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    layers = [(n, u) for n, u, _ in run.PER_LAYER] + list(run.TRACE_METRICS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layers
    assert {w["name"] for w in SPEC["workloads"]} <= set(gen.WORKLOADS)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = gen.encode(gen.generate(workload, 7))
    assert first == gen.encode(gen.generate(workload, 7))
    assert first != gen.encode(gen.generate(workload, 8))


def test_law_pairs_meet_the_floors():
    for re, im, name in gen.generate("laws", 3)["ops"]:
        tau = complex(re, im)
        assert im > gen.LAW_FLOOR
        assert gen.mobius(gen.MATRICES[name], tau).imag >= gen.LAW_FLOOR


def test_laws_warm_ladder_spans_every_point():
    inputs = gen.generate("laws", 3)
    ims = [im for re, im, name in inputs["ops"]]
    ims += [gen.mobius(gen.MATRICES[name], complex(re, im)).imag
            for re, im, name in inputs["ops"]]
    ladder = inputs["warm_ims"]
    assert ladder[0] < min(ims) and ladder[-1] >= max(ims)
    assert all(b <= 1.15 * a * (1 + 1e-12) for a, b in zip(ladder, ladder[1:]))


def test_figures_come_from_each_ops_fastest_repeat():
    # a round of three ops, repeated twice, the second time on a slow host
    lat = [0.01, 0.02, 0.04, 0.03, 0.06, 0.12]
    loop = {"latencies": lat, "failed": 0, "wrong": 0, "failure_kinds": {},
            "failure_examples": {}}
    s = run.summarize(loop, {"ops": ["a", "b", "c"]})
    assert run.best_per_op(lat, 3) == [0.01, 0.02, 0.04]
    assert s["ops_per_s"] == pytest.approx(3 / 0.07)
    assert s["op_p50_ms"] == pytest.approx(20.0)
    assert s["op_tail_ms"] == pytest.approx(40.0) and s["slowest_op"] == "c"
    assert s["repeats"] == 2


# ------------------------------------------------------------------ checkers

def _expand_payload(name, order, coeffs):
    return json.dumps({"command": "expand", "name": name, "order": order,
                       "coefficients": [str(c) for c in coeffs]})


def test_expand_check_rejects_a_wrong_golden_coefficient():
    argv = ["expand", "psi", "--order", "30", "--format", "json"]
    good = REF.golden("psi")[:31]
    assert checks.check_cli(argv, 0, _expand_payload("psi", 30, good), REF).ok
    bad = list(good)
    bad[17] += 1
    verdict = checks.check_cli(argv, 0, _expand_payload("psi", 30, bad), REF)
    assert verdict.wrong and "coefficient 17" in verdict.reason


def test_expand_check_rejects_a_wrong_coefficient_past_the_golden_file():
    argv = ["expand", "M", "--order", "150", "--format", "json"]
    good = REF.expected_series("M", 150)
    assert checks.check_cli(argv, 0, _expand_payload("M", 150, good), REF).ok
    bad = list(good)
    bad[140] -= 240
    assert checks.check_cli(argv, 0, _expand_payload("M", 150, bad), REF).wrong


def test_verify_check_rejects_a_fail_verdict():
    argv = ["verify", "jacobi", "--order", "50", "--format", "json"]
    report = {"identity": "jacobi-odd-part", "order": 50, "pass": True}
    assert checks.check_cli(argv, 0, json.dumps(report), REF).ok
    report.update({"pass": False, "witness": "coefficient 3: got 63, expected 64"})
    assert checks.check_cli(argv, 1, json.dumps(report), REF).wrong
    # a passing report with a failing exit code is wrong too
    report["pass"] = True
    assert checks.check_cli(argv, 1, json.dumps(report), REF).wrong


def test_law_fail_verdicts_count_as_failed_but_not_wrong():
    laws = checks.expected_laws("S")
    reports = [{"identity": n, "pass": True, "error": 1e-12, "tol": 1e-9} for n in laws]
    assert checks.check_laws("S", reports).ok
    reports[-1] = {"identity": laws[-1], "pass": False, "error": 3e-4, "tol": 1e-5}
    verdict = checks.check_laws("S", reports)
    assert not verdict.ok and not verdict.wrong
    reports[-1] = {"identity": laws[-1], "pass": True, "error": 3e-4, "tol": 1e-5}
    assert checks.check_laws("S", reports).wrong
    assert checks.check_laws("S", reports[:-1]).wrong


def test_analytic_cli_fail_verdict_is_wrong():
    argv = ["verify-analytic", "poisson", "--format", "json"]
    reps = [{"identity": "poisson-summation", "pass": True, "error": 1e-15, "tol": 1e-13}] * 4
    payload = {"reports": reps, "pass": True}
    assert checks.check_cli(argv, 0, json.dumps(payload), REF).ok
    payload["reports"] = reps[:3] + [dict(reps[0], error=1e-12, **{"pass": False})]
    payload["pass"] = False
    assert checks.check_cli(argv, 1, json.dumps(payload), REF).wrong


def test_r4_check_rejects_disagreeing_routes():
    argv = ["r4", "10", "--format", "json"]
    payload = {"bruteforce": 144, "jacobi_formula": 144, "theta4_coefficient": 144, "pass": True}
    assert checks.check_cli(argv, 0, json.dumps(payload), REF).ok
    payload["theta4_coefficient"] = 145
    assert checks.check_cli(argv, 0, json.dumps(payload), REF).wrong


def test_reduction_check_rejects_a_bad_certificate():
    tau = complex(5.3, 2.0)
    assert checks.check_reduction(tau, complex(0.3, 2.0), [("T", -5)]).ok
    assert checks.check_reduction(tau, complex(0.3, 2.0), [("T", -4)]).wrong
    assert checks.check_reduction(tau, complex(1.3, 2.0), [("T", -4)]).wrong
    near = complex(0.25, 0.1)  # inside the left disc, so not reduced
    assert checks.check_reduction(near, near, []).wrong


def test_reduce_tau_cli_check_reads_the_word_and_matrix():
    argv = ["reduce-tau", "--format", "json", "--", "5.3,2.0"]
    payload = {"reduced": [0.3, 2.0], "word": "T^-5", "matrix": "[[1,-5],[0,1]]", "in_domain": True}
    assert checks.check_cli(argv, 0, json.dumps(payload), REF).ok
    payload["matrix"] = "[[1,-4],[0,1]]"
    assert checks.check_cli(argv, 0, json.dumps(payload), REF).wrong


def test_decomposition_check_rejects_a_wrong_word():
    matrix = (-7, 2, -4, 1)
    assert checks.check_decomposition(matrix, [("T", 2), ("U", -1)]).ok
    assert checks.check_decomposition(matrix, [("T", 2), ("U", 1)]).wrong
    argv = ["decompose", "--matrix", "[[-7,2],[-4,1]]", "--format", "json"]
    assert checks.check_cli(argv, 0, json.dumps({"word": "T^2 U^-1"}), REF).ok
    assert checks.check_cli(argv, 0, json.dumps({"word": "T^2 U^1"}), REF).wrong


def test_reference_counts_are_right():
    assert [REF.r4(n) for n in (1, 2, 3, 4, 10)] == [8, 24, 32, 24, 144]
    assert REF.expected_series("P", 10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert REF.expected_series("psi", 6) == [1, 2, 5, 10, 20, 36, 65]


# ------------------------------------------------------------------ smoke runs

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace and workload == "exact":
        # traced totals include each traced process's warm-up, one more cli.run
        assert values["cli.run.calls"] == result["attempted"] + run.TRACE_ROUNDS
        assert values["qseries.mul.calls"] > 0
    if trace and workload == "group":
        # mobius runs only inside reduce_to_fundamental here
        assert values["modgroup.reduce.steps.sum"] == values["modgroup.mobius.calls"] > 0
    if trace and workload == "cli-cold":
        assert values["cli.import_s"] > 0 and values["cli.run.calls"] == result["attempted"]


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
