"""E2 — the clock-drift fine-tuning ablation.

The paper's stated delta over prior work: "the synchronous solutions of
[Interledger] and [Herlihy et al.] do not consider clock drift".  We
run the *same* protocol with the **naive** timeout calculus (windows =
real-time bounds + margin, no (1+ρ) inflation) and with the paper's
**drift-tuned** calculus, under worst-case conditions: all delays at
the bound Δ, processing pinned at ε, and one mid-path escrow whose
clock runs maximally fast.

Analysis: the fast escrow ``e_1`` measures its window ``a_1`` on a
clock running at ``1+ρ``, so the real window is ``a_1/(1+ρ)``; the
certificate legitimately arrives after real time ``H_1``.  The naive
window ``H_1 + m`` therefore fails once ``ρ > m / H_1`` — with the
margin ``m = ε/2`` and ``n = 4`` hops that threshold is ρ ≈ 0.0024,
so every swept drift above zero breaks it.  The failure mode is the
nasty one: the drifting escrow refunds upstream while its downstream
peer already paid out, so the connector between them ends out of
pocket and never terminates.  The checker reports that as consistency
(C) and eventual termination (T) violations; CS3 is vacuous there
because it binds only connectors that terminated.  The tuned window
``(1+ρ)·H_1 + m`` never fails.

Every trial is a campaign trial (``scenario_trial``) with the
``fast_clocks`` option pinning ``e1`` and the opt-in
``connector_harmed`` column; the table is an ``analyze`` query grouped
by ``(rho_clock, drift_tuned)``.
"""

from __future__ import annotations

from ..analysis.query import analyze_store
from ..analysis.store import RecordStore
from ..runtime import SweepResult, SweepSpec, resolve_executor
from ..runtime.tables import ExperimentResult
from ..scenarios.spec import TRIAL_REF

DELTA = 1.0
EPSILON = 0.05
MARGIN = EPSILON / 2.0
N = 4
FAST_ESCROW = "e1"


def build_sweep(quick: bool = True, seed: int = 0) -> SweepSpec:
    rhos = (
        [0.0, 0.005, 0.02, 0.05]
        if quick
        else [0.0, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1]
    )
    # The (rho_clock, drift_tuned, s) grid, spelled out because the
    # pinned clock and the calculus's rho follow the rho_clock axis.
    sweep = SweepSpec(sweep_id="E2")
    for rho in rhos:
        for drift_tuned in (False, True):
            for s in range(5 if quick else 15):
                sweep.add(
                    TRIAL_REF,
                    seed,
                    (rho, drift_tuned, s),
                    rho_clock=rho,
                    drift_tuned=drift_tuned,
                    s=s,
                    topology=f"linear-{N}",
                    protocol="timebounded",
                    # All delays exactly at the bound: the adversarially
                    # slow network the calculus must survive.
                    timing=("synchronous", {"delta": DELTA, "min_delay": DELTA}),
                    adversary="none",
                    fast_clocks={FAST_ESCROW: rho},
                    extra_columns=["connector_harmed"],
                    protocol_options={
                        "epsilon": EPSILON,
                        "rho": rho,
                        "drift_tuned": drift_tuned,
                        "margin": MARGIN,
                        "processing_floor": EPSILON,  # processing at its bound
                    },
                )
    return sweep


def aggregate(sweep: SweepResult) -> ExperimentResult:
    sweep.raise_any()
    result = analyze_store(
        RecordStore.from_records(sweep.records, sweep.sweep_id),
        group_by=("rho_clock", "drift_tuned"),
        metrics=("runs", "success", "def1_ok", "harmed", "violated"),
    )
    result.title = "drift-tuned vs naive timeout calculus (the paper's fix)"
    result.claim = (
        "Without the (1+rho) drift inflation the universal protocol "
        "violates consistency (C) and eventual termination (T) under "
        "worst-case clocks for any drift above m/H, leaving a connector "
        "out of pocket; with the paper's fine-tuning it never does."
    )
    result.note(
        f"worst case: all delays = Delta={DELTA}, processing pinned at "
        f"epsilon={EPSILON}, margin={MARGIN}, escrow {FAST_ESCROW} fast by "
        f"(1+rho); predicted naive-failure threshold rho = "
        f"{MARGIN:.3g}/H_1."
    )
    return result


def run(quick: bool = True, seed: int = 0, executor=None) -> ExperimentResult:
    return aggregate(resolve_executor(executor).run(build_sweep(quick, seed)))


__all__ = ["aggregate", "build_sweep", "run"]
