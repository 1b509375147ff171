"""E9 (ablation) — the timeout margin trade-off.

The window calculus takes a free parameter ``margin``: extra slack added
to every ``a_i`` / ``d_i``.  The trade-off it buys:

* **robustness** — how much unmodelled delay/processing variance the
  run survives (E2 showed margin = 0 fails even at ρ = 0 because the
  strict window boundary is hit exactly);
* **capital lock-up** — on the failure path (Byzantine Bob withholding
  χ), deposits stay escrowed until the windows expire, so every unit of
  margin directly lengthens the refund latency and the a-priori
  termination bound.

This is the kind of deployment decision a paper leaves implicit and a
library must surface.

Each margin contributes an honest row and a refund row (Bob
``bob_never_signs``); ``max_latency`` is the worst-case completion
time of each, and ``a0_window`` / ``term_bound`` are the window
calculus's values for that margin.
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
N = 3
RHO = 0.01


def build_sweep(quick: bool = True, seed: int = 0) -> SweepSpec:
    margins = (
        [0.025, 0.25, 1.0, 4.0]
        if quick
        else [0.025, 0.1, 0.25, 1.0, 2.0, 4.0, 8.0]
    )
    sweep = SweepSpec(sweep_id="E9")
    for margin in margins:
        # The refund rows keep the historical (margin, s) coordinates,
        # and so their seeds; the honest rows are tagged apart.
        for coords, scenario, byzantine in (
            (("honest", margin), "honest", None),
            ((margin,), "bob never signs", {f"c{N}": "bob_never_signs"}),
        ):
            for s in range(5 if quick else 12):
                sweep.add(
                    TRIAL_REF,
                    seed,
                    coords + (s,),
                    margin=margin,
                    scenario=scenario,
                    byzantine=byzantine,
                    topology=f"linear-{N}",
                    protocol="timebounded",
                    timing=("synchronous", {"delta": DELTA}),
                    adversary="none",
                    rho=RHO,
                    protocol_options={"epsilon": EPSILON, "margin": margin},
                )
    return sweep


def aggregate(sweep: SweepResult) -> ExperimentResult:
    sweep.raise_any()
    result = analyze_store(
        RecordStore.from_records(sweep.records, sweep.sweep_id),
        group_by=("margin", "scenario"),
        metrics=("runs", "def1_ok", "max_latency"),
    )
    result.title = "ablation: timeout margin vs refund latency"
    result.claim = (
        "larger margins change nothing on the happy path but "
        "linearly delay refunds (and the termination bound) when the "
        "certificate never comes."
    )
    result.columns[2:2] = ["a0_window", "term_bound"]
    assumptions = TimingAssumptions(delta=DELTA, epsilon=EPSILON, rho=RHO)
    for row in result.rows:
        params = compute_params(N, assumptions, margin=row["margin"])
        row["a0_window"] = params.a_i(0)
        row["term_bound"] = params.global_termination_bound()
    result.note(
        f"n={N}, delta={DELTA}, epsilon={EPSILON}, rho={RHO}; max_latency "
        "is the worst-case completion time (on the 'bob never signs' "
        "rows: the refund latency when Bob withholds chi)."
    )
    return result


def run(quick: bool = True, seed: int = 0, executor=None) -> ExperimentResult:
    return aggregate(resolve_executor(executor).run(build_sweep(quick, seed)))


__all__ = ["aggregate", "build_sweep", "run"]
