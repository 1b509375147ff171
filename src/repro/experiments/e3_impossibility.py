"""E3 — Theorem 2: impossibility under partial synchrony.

The proof quantifies over protocols; an experiment quantifies over a
*family*.  We take the natural family the theorem defeats:

* the time-bounded protocol instantiated with any assumed bound
  Δ' ∈ {1, 10, 100} — the adversary withholds certificates until after
  the protocol's entire timeout horizon (legal pre-GST), so Bob has
  irrevocably issued χ while the refund cascade runs: **customer
  security or liveness fails**;
* the *no-timeout* variant (escrows wait for χ forever) — the adversary
  withholds χ and the run never terminates: **termination fails**.

Either horn kills Definition 1; that disjunction is the theorem.  For
contrast, the last row runs the Definition 2 protocol (Theorem 3) under
the same adversary: it aborts safely and terminates.
"""

from __future__ import annotations

from ..analysis.query import analyze_store
from ..analysis.store import RecordStore
from ..core.params import TimingAssumptions, compute_params
from ..runtime import SweepResult, SweepSpec, resolve_executor
from ..runtime.tables import ExperimentResult
from ..scenarios.spec import TRIAL_REF

EPSILON = 0.05
N = 3


def _add(sweep: SweepSpec, seed: int, coords, gst: float, **options) -> None:
    """One run on the n=3 path against the certificate-withholding adversary."""
    sweep.add(
        TRIAL_REF,
        seed,
        coords,
        gst=gst,
        topology=f"linear-{N}",
        timing=("partial", {"gst": gst, "delta": 1.0}),
        adversary="cert-holder",
        **options,
    )


def build_sweep(quick: bool = True, seed: int = 0) -> SweepSpec:
    sweep = SweepSpec(sweep_id="E3")
    for assumed in [1.0, 10.0] if quick else [1.0, 10.0, 100.0]:
        params = compute_params(
            N, TimingAssumptions(delta=assumed, epsilon=EPSILON, rho=0.0)
        )
        # Adaptive adversary: pick GST beyond the whole timeout horizon.
        _add(
            sweep,
            seed,
            ("bounded", assumed),
            4.0 * params.global_termination_bound(),
            protocol_label="timebounded",
            assumed_delta=assumed,
            protocol="timebounded",
            protocol_options={"delta": assumed, "epsilon": EPSILON},
        )
    # The no-timeout horn: money stays escrowed, nobody terminates.
    _add(
        sweep,
        seed,
        ("no_timeout",),
        5_000.0,
        protocol_label="timebounded/no-timeout",
        assumed_delta="inf",
        protocol="timebounded",
        horizon=20_000.0,
        protocol_options={"delta": 1.0, "epsilon": EPSILON, "no_timeout": True},
    )
    # Contrast: the Definition 2 protocol under the same adversary.
    _add(
        sweep,
        seed,
        ("weak",),
        500.0,
        protocol_label="weak (Def 2)",
        assumed_delta="-",
        protocol="weak",
        horizon=50_000.0,
        protocol_options={
            "tm": "trusted",
            "patience_setup": 50.0,
            "patience_decision": 50.0,
        },
    )
    return sweep


def aggregate(sweep: SweepResult) -> ExperimentResult:
    sweep.raise_any()
    result = analyze_store(
        RecordStore.from_records(sweep.records, sweep.sweep_id),
        group_by=("protocol_label", "assumed_delta", "gst"),
        metrics=("chi_issued", "success", "def1_ok", "def2_ok", "violated"),
    )
    result.title = (
        "no eventually-terminating protocol under partial synchrony (Theorem 2)"
    )
    result.claim = (
        "For every timeout choice, a legal partial-synchrony adversary "
        "forces a Definition 1 violation (safety/liveness for finite "
        "timeouts; termination for none).  The weak protocol survives."
    )
    result.note(
        "the adversary holds every chi message as long as the timing model "
        "allows; GST is chosen adaptively per protocol instance; one run "
        "per row, so each fraction is that run's verdict."
    )
    return result


def run(quick: bool = True, seed: int = 0, executor=None) -> ExperimentResult:
    return aggregate(resolve_executor(executor).run(build_sweep(quick, seed)))


__all__ = ["aggregate", "build_sweep", "run"]
