"""Self-tests for the benchmark.

    python3 bench/selftest.py

Runs every workload through run.py's smoke mode (one tiny batch, requested
twice), traced and untraced, and asserts that:

* every metric in BENCHMARK.json is printed by name with its unit, and the
  result line carries exactly those metrics; the ungated request_p50_s and
  failed_frac are printed too;
* the smoke outputs pass every correctness check;
* each workload skips the layers it should: no LP outside tli-k50 and no
  simplex projection outside padd-k10, while the layer it exercises is seen.

It also checks, in process, that a failing request is counted and does not
stop the loop, that the benchmark's own F1 and l1 agree with
topic_compose.metrics, and that run.py refuses to produce a result when the
program's sources are absent.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 300

sys.path.insert(0, str(HERE))
import run  # noqa: E402  (pins BLAS threads before NumPy loads)

sys.path.insert(0, str(run.SRC))
import numpy as np  # noqa: E402

import checks  # noqa: E402
import topic_compose.metrics as tc_metrics  # noqa: E402
import topic_compose.model as tc_model  # noqa: E402

SKIPS = {
    "padd-k10": {"estimators.lp_calls": 0},
    "tli-k50": {"simplex.calls": 0},
    "cli-pipeline": {"estimators.lp_calls": 0, "simplex.calls": 0},
}
SEEN = {
    "padd-k10": "simplex.calls",
    "tli-k50": "estimators.lp_calls",
    "cli-pipeline": "synth.synthesize_s",
}


def smoke(workload, trace):
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--smoke", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT,
    )
    if p.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited {p.returncode}:\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def printed(lines, name, unit):
    """A `name value unit` line is among the text lines."""
    return any(parts[0] == name and parts[2:3] == [unit]
               for parts in (line.split() for line in lines) if parts)


def test_smoke_runs(spec, fail):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            text, result = smoke(workload, trace)
            where = f"{workload} --trace {trace}"
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                fail(f"{where}: result metrics {sorted(got)} != {sorted(expected)}")
            ungated = {"failed_frac": "1"} if trace else {"failed_frac": "1", "request_p50_s": "s"}
            for name, unit in {**expected, **ungated}.items():
                if not printed(text, name, unit):
                    fail(f"{where}: {name} not printed with unit {unit}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 2):
                fail(f"{where}: checks failed: {result['failed']} of {result['attempted']}")
            if trace:
                values = {k: v["value"] for k, v in result["metrics"].items()}
                for name, value in SKIPS[workload].items():
                    if values[name] != value:
                        fail(f"{where}: {name} = {values[name]}, expected {value}")
                if not values[SEEN[workload]] > 0:
                    fail(f"{where}: {SEEN[workload]} = 0, the tracer missed the layer")


class _Flaky:
    """Stand-in workload whose odd requests raise and whose check rejects
    every third output."""
    pool = 2

    def __init__(self):
        self.calls = 0

    def request(self, slot, span):
        self.calls += 1
        if self.calls % 2 == 0:
            raise RuntimeError("request failed")
        return self.calls

    def check(self, slot, out):
        checks.require(out % 3 != 0, "bad output")


def test_failures_are_counted(fail):
    times, failed = run.closed_loop(_Flaky(), seconds=0.0, min_requests=6)
    # requests 2, 4, 6 raise; request 3 fails its check
    if (len(times), failed) != (6, 4):
        fail(f"closed_loop counted {failed} failures in {len(times)} requests, expected 4 in 6")


def test_scores_match_package(fail):
    rng = np.random.default_rng(0)
    K, M = 7, 300
    truth = rng.dirichlet(np.full(K, 0.3), size=M).T
    pred = rng.dirichlet(np.full(K, 0.3), size=M).T
    pred[:, :20] = truth[:, :20]  # identical columns score f1 = 1
    report = tc_metrics.evaluate_compositions(
        tc_model.CompositionMatrix(truth), tc_model.CompositionMatrix(pred))
    if not np.array_equal(checks.f1_per_doc(truth, pred), report.per_doc["f1"]):
        fail("benchmark f1 differs from topic_compose.metrics")
    if not np.allclose(checks.l1_per_doc(truth, pred), report.per_doc["l1_error"],
                       rtol=0, atol=1e-15):
        fail("benchmark l1 differs from topic_compose.metrics")
    bad = tc_model.CompositionMatrix(pred)
    try:
        checks.check_composition(bad, tc_model.CompositionMatrix, K, M + 1)
        fail("check_composition accepted a wrong shape")
    except checks.CheckFailed:
        pass


def test_no_program(fail):
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        p = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "padd-k10",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=TIMEOUT,
        )
        if p.returncode == 0 or '"correct"' in p.stdout:
            fail(f"run without the program exited {p.returncode} with {p.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for test in (test_failures_are_counted, test_scores_match_package,
                 test_no_program):
        test(failures.append)
    test_smoke_runs(spec, failures.append)
    for message in failures:
        print(f"FAIL {message}")
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
