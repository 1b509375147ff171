"""E1 — Theorem 1: the time-bounded protocol under synchrony.

Sweep path length and seeds; with everyone honest, bounded drift, and
the drift-tuned calculus, **every** run must satisfy Definition 1 (all
seven properties), Bob is always paid, and every customer terminates
within the a-priori bound.

Every trial is a campaign trial (``scenario_trial``) and the table is
an ``analyze`` query grouped by ``n``; the ``bound`` column is the
window calculus's global termination bound for that path length.
"""

from __future__ import annotations

from ..analysis.query import analyze_store
from ..analysis.store import RecordStore
from ..core.params import TimingAssumptions, compute_params
from ..runtime import SweepResult, SweepSpec, resolve_executor
from ..runtime.tables import ExperimentResult
from ..scenarios.spec import TRIAL_REF

DELTA = 1.0
EPSILON = 0.05
RHO = 0.01


def build_sweep(quick: bool = True, seed: int = 0) -> SweepSpec:
    sweep = SweepSpec(sweep_id="E1")
    for n in [1, 2, 4] if quick else [1, 2, 4, 6, 8]:
        for s in range(10 if quick else 40):
            sweep.add(
                TRIAL_REF,
                seed,
                (n, s),
                n=n,
                topology=f"linear-{n}",
                protocol="timebounded",
                timing=("synchronous", {"delta": DELTA}),
                adversary="none",
                rho=RHO,
                protocol_options={"epsilon": EPSILON},
            )
    return sweep


def aggregate(sweep: SweepResult) -> ExperimentResult:
    sweep.raise_any()
    result = analyze_store(
        RecordStore.from_records(sweep.records, sweep.sweep_id),
        group_by=("n",),
        metrics=("runs", "success", "def1_ok", "max_latency", "mean_msgs"),
    )
    result.title = "time-bounded protocol under synchrony (Theorem 1)"
    result.claim = (
        "Assuming synchrony, the drift-tuned universal protocol solves "
        "time-bounded cross-chain payment: all of C, T, ES, CS1-3, L "
        "hold on every run."
    )
    result.columns.insert(result.columns.index("max_latency") + 1, "bound")
    assumptions = TimingAssumptions(delta=DELTA, epsilon=EPSILON, rho=RHO)
    for row in result.rows:
        row["bound"] = compute_params(
            row["n"], assumptions
        ).global_termination_bound()
    result.note(
        f"delta={DELTA}, epsilon={EPSILON}, rho={RHO}; success and def1_ok "
        "are fractions of runs (1.0 = theorem reproduced); max_latency "
        "is the last termination, to compare with bound."
    )
    return result


def run(quick: bool = True, seed: int = 0, executor=None) -> ExperimentResult:
    return aggregate(resolve_executor(executor).run(build_sweep(quick, seed)))


__all__ = ["aggregate", "build_sweep", "run"]
