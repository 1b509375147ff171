"""The benchmark's own test: same seed, same counts, same answers.

    python3 perfbench/selftest.py [--seed 7] [--workload campaign ...]

For each workload it makes two traced runs and one short timed run
with the same seed, and fails (exit status 1) unless every run's
output checks pass, the two traced runs report identical exact
per-layer counts, and all three print the same output digest.  Run it
from the root of a source checkout; it takes about a minute.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("campaign", "workload-sparse", "workload-contended", "analyze")

#: Per-layer metrics that count work rather than time it; they must
#: repeat exactly for a given seed.
EXACT_COUNTS = (
    "sim.events_per_op",
    "ledger.block_ticks_per_op",
    "ledger.txs_per_block",
    "ledger.escrow_ops_per_op",
    "net.sends_per_op",
    "crypto.sign_per_op",
    "crypto.verify_per_op",
    "workload.admit_ok_frac",
    "workload.inflight_peak",
)


def run(workload: str, seed: int, trace: int) -> dict:
    """One benchmark run; its JSON result plus the digest it printed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(
        line.split()[0].split("=", 1)[1] for line in lines if line.startswith("digest=")
    )
    return result


def check(workload: str, seed: int) -> list:
    """Problems found for one workload (empty when it passes)."""
    first, second, timed = run(workload, seed, 1), run(workload, seed, 1), run(workload, seed, 0)
    problems = []
    for name, result in (("traced", first), ("traced again", second), ("timed", timed)):
        if not result["correct"] or result["failed"]:
            problems.append(
                f"{name} run failed {result['failed']} of {result['attempted']} checks"
            )
    for metric in EXACT_COUNTS:
        a = first["metrics"][metric]["value"]
        b = second["metrics"][metric]["value"]
        if a != b:
            problems.append(f"{metric}: {a!r} != {b!r}")
    digests = {first["digest"], second["digest"], timed["digest"]}
    if len(digests) != 1:
        problems.append(f"output digests differ: {sorted(digests)}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    failed = False
    for workload in args.workload or WORKLOADS:
        problems = check(workload, args.seed)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
