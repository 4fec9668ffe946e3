"""Benchmark for topic_compose: closed-loop workloads with correctness checks.

    python3 bench/run.py --workload padd-k10 --seed 1 --seconds 15 --trace 0

The workload is set up several times; after each set-up one client serves
an equal share of --seconds, sending the next request only after the last
one returns and cycling through the workload's pool of distinct batches.
A run serves at least one pass over the pool. Every request's output is
checked; a failed check is counted, not fatal.

The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}, with the end-to-end metrics under
--trace 0 and the per-layer metrics (from spans recorded around each
layer, see tracing.py) under --trace 1. Lines before it give the
environment and every metric by name and unit.

--smoke runs one tiny batch twice per workload; selftest.py drives it.
"""

import os

# Worker threads times BLAS threads must not exceed the cores: the program
# gets 2 worker threads, so BLAS is pinned to 1 before NumPy is loaded.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("padd-k10", "tli-k50", "cli-pipeline")

# Gated end-to-end metrics, as listed in BENCHMARK.json. The median
# request time and the failed fraction are printed but not gated: the
# median sits between the fast and slow speeds of a shared core and moves
# more from run to run than the largest allowed bound, and the failed
# fraction is 0 whenever the program is correct.
END_TO_END = (
    ("setup_s", "s"),
    ("request_p90_s", "s"),
    ("docs_per_s", "docs/s"),
    ("peak_rss_mb", "MiB"),
    ("rss_growth_mb", "MiB"),
    ("f1", "1"),
    ("l1", "1"),
    ("prior_dist", "1"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one tiny batch, requested twice; ignores --seconds")
    return p.parse_args(argv)


def import_program():
    """Import topic_compose from this checkout's src/, never from elsewhere."""
    init = SRC / "topic_compose" / "__init__.py"
    if not init.is_file():
        raise ImportError(f"{init.relative_to(ROOT)} not found: no program to measure")
    sys.path.insert(0, str(SRC))
    import topic_compose
    if Path(topic_compose.__file__).resolve() != init.resolve():
        raise ImportError(f"topic_compose resolved to {topic_compose.__file__}")
    return topic_compose


def git_commit():
    """HEAD's commit, or None outside a git checkout or without git."""
    if not (ROOT / ".git").exists():
        return None
    try:
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def environment(workers):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # NumPy < 1.25 only prints its build configuration
        blas = {}
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "worker_threads": workers,
        "git_commit": git_commit(),
        "src_lines": src_lines,  # informational, not gated
    }


def closed_loop(workload, seconds, min_requests, tracer=None, first=0):
    """Run requests back to back, numbered from `first`, until at least
    `min_requests` ran and `seconds` passed; return (request seconds,
    failures)."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    times, failed = [], 0
    start = time.perf_counter()
    while len(times) < min_requests or time.perf_counter() - start < seconds:
        i = first + len(times)
        slot = i % workload.pool
        if tracer:
            tracer.set_request(i)
        error = None
        t0 = time.perf_counter()
        try:
            out = workload.request(slot, span)
        except Exception as exc:  # a failed request is counted, not fatal
            error = exc
        times.append(time.perf_counter() - t0)
        if tracer:
            tracer.set_request(None)
        try:
            if error is not None:
                raise error
            workload.check(slot, out)
        except Exception as exc:
            failed += 1
            print(f"# request {i} (slot {slot}) failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
    return times, failed


def timed_setup(workload, tracer=None, burst=1):
    """Set the workload up `burst` times back to back and return the mean
    seconds per set-up; traced set-up spans go under the set-up request
    id."""
    import tracing
    if tracer is None or not workload.trace_setup:
        t0 = time.perf_counter()
        for _ in range(burst):
            workload.setup()
        return (time.perf_counter() - t0) / burst
    tracer.set_request(tracing.SETUP)
    try:
        with tracing.installed(tracer):
            t0 = time.perf_counter()
            workload.setup()
            return time.perf_counter() - t0
    finally:
        tracer.set_request(None)


def max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args):
    import tracing
    from workloads import WORKERS, WORKLOADS

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work, args.smoke)
        # The interpreter, its libraries and the benchmark's inputs; the
        # growth above this high-water mark is the program's own memory.
        base_rss_mb = max_rss_mb()
        seconds = 0.0 if args.smoke else args.seconds
        # At least one pass over the pool; smoke mode repeats one batch.
        min_requests = workload.pool + 1 if args.smoke else workload.pool
        env = environment(WORKERS)
        print("# env " + json.dumps(env, sort_keys=True))

        tracer = tracing.Tracer() if args.trace else None
        # The untraced run is set up `setup_repeats` times and serves an
        # equal share of --seconds and of the minimum request count after
        # each set-up, so both the set-up and the request samples span the
        # whole run rather than one stretch of it; the machine's speed
        # drifts over seconds. A set-up shorter than those swings is timed
        # as the mean of `setup_burst` back-to-back set-ups.
        segments = 1 if (args.smoke or tracer) else workload.setup_repeats
        burst = 1 if (args.smoke or tracer) else workload.setup_burst
        setup_times, times, failed = [], [], 0
        for r in range(segments):
            setup_times.append(timed_setup(workload, tracer, burst))
            least = -(-min_requests * (r + 1) // segments) - len(times)
            seg_times, seg_failed = closed_loop(workload, seconds / segments, least,
                                                first=len(times))
            times += seg_times
            failed += seg_failed
        attempted = len(times)
        rss_mb = max_rss_mb()
        quality = workload.quality()
        metrics = {
            "setup_s": statistics.median(setup_times),
            "request_p50_s": statistics.median(times),
            "request_p90_s": statistics.quantiles(times, n=10, method="inclusive")[8],
            "docs_per_s": workload.docs_per_request * len(times) / sum(times),
            "peak_rss_mb": rss_mb,
            "rss_growth_mb": rss_mb - base_rss_mb,
            **quality,
        }
        units = dict(END_TO_END)
        if tracer:
            with tracing.installed(tracer):
                traced, traced_failed = closed_loop(workload, seconds, min_requests, tracer,
                                                    first=len(times))
            layers = tracing.layer_metrics(tracer.spans, len(traced))
            base = statistics.median(times)
            layers["trace.overhead_s"] = statistics.median(traced) - base
            layers["trace.overhead_frac"] = layers["trace.overhead_s"] / base
            attempted += len(traced)
            failed += traced_failed
            out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(str(out))
            print(f"# spans written to {out.relative_to(ROOT)}")
            units = dict(tracing.PER_LAYER)
            metrics = layers

        print(f"# workload {args.workload} seed {args.seed}: {len(times)} requests"
              f" of {workload.docs_per_request} docs, setup x{len(setup_times)}"
              f" (mean of {burst} each), {base_rss_mb:.1f} MiB before set-up")
        if not tracer:
            print(f"{'request_p50_s':24s} {metrics['request_p50_s']:.6g} s  (ungated)")
        for name, unit in units.items():
            extra = f"  (n={len(times)})" if name == "request_p90_s" else ""
            print(f"{name:24s} {metrics[name]:.6g} {unit}{extra}")
        print(f"{'failed_frac':24s} {failed / attempted:.6g} 1  ({failed} of {attempted})")
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
