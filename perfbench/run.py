"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and writes only under ``.perfbench/`` there.  ``--trace 0``
times the workload with nothing wrapped and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes over
round 0 and prints the per-layer metrics, writing the spans to
``.perfbench/spans-<workload>-<seed>.csv``.  The last line of standard
output is always the JSON result; the lines before it give the sample
counts, wall time and an output digest.  ``perfbench/README.md``
defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"

#: Set-up is measured this many times per timed run (this process plus
#: fresh child processes) and reported as the median.
SETUP_SAMPLES = 3

#: A traced run repeats (untraced, traced) passes over round 0 until
#: its time is up, but at most this many: the spans stay in memory, and
#: a sparse-workload round alone records ~100k of them.
MAX_TRACED_PAIRS = 4

#: The percentile each workload reports as ``op_ms_tail``: the highest
#: one with at least ten operations beyond it in a run of
#: BENCHMARK.json's ``run_seconds`` (about 9,600 trials, 50 workload
#: rounds, 690 analyze commands).
TAIL_PERCENTILE = {
    "campaign": 99,
    "workload-sparse": 75,
    "workload-contended": 75,
    "analyze": 90,
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print the set-up CPU seconds as JSON, and exit",
    )
    return parser.parse_args(argv)


def percentile(values, p):
    """Linear-interpolated percentile of ``values`` (p in [0, 100])."""
    ordered = sorted(values)
    rank = p / 100 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def child_setup_seconds(args) -> float:
    """Set-up CPU seconds of a fresh process doing the same set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_run(args, bench, setup_s):
    from workloads import Meter

    meter = Meter(calibrate=True)
    digest = hashlib.sha256()
    wall0 = time.perf_counter()
    deadline = wall0 + args.seconds
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        bench.run_round(r, meter, digest if r == 0 else None)
        r += 1
    meter.finish()
    wall = time.perf_counter() - wall0
    tail = TAIL_PERCENTILE[args.workload]
    samples = meter.samples or [0.0]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (meter.units / meter.cpu_seconds if meter.cpu_seconds else 0.0, "1/s"),
        "op_ms_p50": (statistics.median(samples), "ms"),
        "op_ms_tail": (percentile(samples, tail), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    refs = meter.references
    print(f"rounds={r} ops={len(meter.samples)} {bench.unit}={meter.units} "
          f"cpu_s={meter.raw_cpu_seconds:.3f} scaled_cpu_s={meter.cpu_seconds:.3f} "
          f"wall_s={wall:.3f}")
    print(f"reference runs={len(refs)} median_s={statistics.median(refs):.5f} "
          f"min_s={min(refs):.5f} max_s={max(refs):.5f}")
    print(f"op_ms_p50 and op_ms_tail (p{tail}) are scaled CPU ms per "
          f"{bench.unit[:-1]}, over {len(meter.samples)} operations")
    return meter, digest, metrics


def traced_run(args, bench):
    from tracing import UNITS, Tracer, layer_metrics
    from workloads import Meter

    tracer = Tracer()
    meter = Meter(tracer)
    digest = hashlib.sha256()
    deadline = time.perf_counter() + args.seconds
    pairs = 0
    while pairs == 0 or (pairs < MAX_TRACED_PAIRS and time.perf_counter() < deadline):
        # Alternate which pass goes first, so drift within the run does
        # not bias trace.overhead_frac.
        for traced in (False, True) if pairs % 2 == 0 else (True, False):
            meter.traced = traced
            if not traced:
                bench.run_round(0, meter, digest if pairs == 0 else None)
                continue
            tracer.install()
            try:
                bench.run_round(0, meter)
            finally:
                tracer.uninstall()
        pairs += 1
    extra = {"workload.inflight_peak": meter.inflight_peak}
    values = layer_metrics(tracer.spans, meter.units_by_op, extra)
    spans_path = WORK_DIR / f"spans-{args.workload}-{args.seed}.csv"
    tracer.write(spans_path)
    print(f"pairs={pairs} ops={meter.attempted} (half traced) "
          f"spans={len(tracer.spans)} -> {spans_path.relative_to(ROOT)}")
    metrics = {name: (value, UNITS[name]) for name, value in values.items()}
    return meter, digest, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro package under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from calibrate import REFERENCE_SECONDS, reference_seconds

    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        references = [reference_seconds(), reference_seconds()]
        t0 = time.process_time()
        from workloads import WORKLOADS

        bench = WORKLOADS[args.workload](args.seed, scratch)
        bench.setup()
        setup_cpu = time.process_time() - t0
        references += [reference_seconds(), reference_seconds()]
        setup_s = setup_cpu * REFERENCE_SECONDS / statistics.median(references)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            meter, digest, metrics = traced_run(args, bench)
        else:
            setups = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
            meter, digest, metrics = timed_run(args, bench, statistics.median(setups))
            print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed_frac = meter.failed / meter.attempted if meter.attempted else 1.0
    print(f"digest={digest.hexdigest()} failed_frac={failed_frac}")
    for problem in meter.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": meter.failed == 0,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
