"""E7 — simulator scalability (the "systems" figure).

Event and message counts and simulated completion time of the
time-bounded protocol as the path length grows.  The paper is a theory
brief with no performance section; this figure documents the
reproduction substrate itself: cost is linear-ish in path length (each
hop adds a constant number of messages: G, $, P forward; χ, $
backward).

The table reports the simulator's *deterministic* cost metrics only
(messages, kernel events, simulated end time — one run per path
length, so each mean is that run's value), so it stays byte-identical
across ``--jobs`` values like every other table.  Wall-clock cost is
covered by the CLI's per-experiment footer and by the repository
benchmark (``perfbench/``, whose ``campaign`` workload times real
trials); per-trial walls are also on each :class:`TrialRecord` for
callers running the sweep themselves.
"""

from __future__ import annotations

from ..analysis.query import analyze_store
from ..analysis.store import RecordStore
from ..runtime import SweepResult, SweepSpec, resolve_executor
from ..runtime.tables import ExperimentResult
from ..scenarios.spec import TRIAL_REF


def build_sweep(quick: bool = True, seed: int = 0) -> SweepSpec:
    sweep = SweepSpec(sweep_id="E7")
    for n in [2, 4, 8, 16, 32] if quick else [2, 4, 8, 16, 32, 64, 128]:
        sweep.add(
            TRIAL_REF,
            seed,
            (n,),
            n=n,
            topology=f"linear-{n}",
            protocol="timebounded",
            timing=("synchronous", {"delta": 1.0}),
            adversary="none",
            rho=0.005,
        )
    return sweep


def aggregate(sweep: SweepResult) -> ExperimentResult:
    sweep.raise_any()
    result = analyze_store(
        RecordStore.from_records(sweep.records, sweep.sweep_id),
        group_by=("n",),
        metrics=("success", "mean_msgs", "mean_events", "mean_latency"),
    )
    result.title = "simulation cost vs path length"
    result.claim = (
        "messages grow linearly in the number of escrows (5n + "
        "constant); wall time stays in milliseconds at n=64."
    )
    return result


def run(quick: bool = True, seed: int = 0, executor=None) -> ExperimentResult:
    return aggregate(resolve_executor(executor).run(build_sweep(quick, seed)))


__all__ = ["aggregate", "build_sweep", "run"]
