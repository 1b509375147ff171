"""E6 — Section 5: cross-chain deals vs cross-chain payments.

Reproduces the comparison the paper draws with Herlihy–Liskov–Shrira:

* the **timelock commit** protocol achieves Safety / Termination /
  Strong liveness under synchrony but loses Safety under partial
  synchrony (a compliant party ends with an unacceptable payoff);
* the **certified-blockchain commit** protocol keeps Safety and
  Termination under partial synchrony but cannot offer strong
  liveness (an early abort kills a deal everyone wanted);
* the **separation**: a payment's path digraph is not a well-formed
  deal; all-abort is deal-acceptable but payment-forbidden; a cyclic
  deal cannot be expressed as a payment.
"""

from __future__ import annotations

from typing import Any, Dict

from ..deals import (
    DealMatrix,
    DealSession,
    build_certified_deal,
    build_timelock_deal,
    separation_report,
)
from ..net.timing import build_timing
from ..runtime import SweepResult, SweepSpec, resolve_executor
from ..runtime.tables import ExperimentResult, fraction

SCENARIOS = [
    ("timelock", "synchronous", "honest"),
    ("timelock", "partial-synchrony", "delayed reveal"),
    ("certified", "partial-synchrony", "honest, patient"),
    ("certified", "partial-synchrony", "party 1 aborts first"),
]


def _matrix(graph: str) -> DealMatrix:
    kind, _, size = graph.partition("-")
    parties = [f"p{i}" for i in range(int(size))]
    if kind == "cycle":
        return DealMatrix.cycle(parties)
    if kind == "clique":
        return DealMatrix.clique(parties)
    raise ValueError(f"unknown deal graph: {graph!r}")


def trial(spec) -> Dict[str, Any]:
    from ..net.adversary import EdgeDelayAdversary

    scenario = spec.opt("scenario")
    builder = (
        build_timelock_deal
        if spec.opt("deal_protocol") == "timelock"
        else build_certified_deal
    )
    adversary = None
    if scenario == "delayed reveal":
        adversary = EdgeDelayAdversary([("esc_1_2", "p1")])
    byzantine = spec.opt("byzantine")
    if byzantine:
        # Deal byzantine maps are keyed by party *index*; JSON-ish spec
        # options keep keys as given, so coerce back to int.
        byzantine = {int(k): v for k, v in dict(byzantine).items()}
    outcome = DealSession(
        _matrix(spec.opt("graph")),
        builder,
        build_timing(spec.opt("timing")),
        adversary=adversary,
        seed=spec.seed,
        byzantine=byzantine,
        options=dict(spec.opt("options") or {}),
        horizon=spec.opt("horizon", 100_000.0),
    ).run()
    return {
        "safety": outcome.safety_ok(),
        "termination": outcome.termination_ok(),
        "strong_liveness": outcome.all_transfers_happened,
    }


def build_sweep(quick: bool = True, seed: int = 0) -> SweepSpec:
    graphs = ["cycle-3", "clique-3"]
    if not quick:
        graphs.append("cycle-5")
    sweep = SweepSpec(sweep_id="E6")
    for graph in graphs:
        # Timelock, synchrony, honest — the only sampled scenario:
        for s in range(5 if quick else 15):
            sweep.add(
                trial,
                seed,
                (graph, "timelock-sync", s),
                graph=graph,
                deal_protocol="timelock",
                scenario="honest",
                timing=("synchronous", {"delta": 1.0}),
            )
        # Timelock, partial synchrony, targeted reveal delay:
        sweep.add(
            trial,
            seed,
            (graph, "timelock-psync"),
            graph=graph,
            deal_protocol="timelock",
            scenario="delayed reveal",
            timing=(
                "partial",
                {"gst": 500.0, "delta": 0.2, "pre_gst_scale": 0.0},
            ),
        )
        # Certified, partial synchrony, honest & patient:
        sweep.add(
            trial,
            seed,
            (graph, "certified-honest"),
            graph=graph,
            deal_protocol="certified",
            scenario="honest, patient",
            timing=("partial", {"gst": 10.0, "delta": 1.0}),
            options={"patience": 500.0},
            horizon=5_000.0,
        )
        # Certified, abort-first (strong liveness impossible):
        sweep.add(
            trial,
            seed,
            (graph, "certified-abort"),
            graph=graph,
            deal_protocol="certified",
            scenario="party 1 aborts first",
            timing=("partial", {"gst": 10.0, "delta": 1.0}),
            byzantine={1: "abort_immediately"},
            options={"patience": 500.0},
            horizon=5_000.0,
        )
    return sweep


def aggregate(sweep: SweepResult) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="E6",
        title="cross-chain deals (Herlihy et al.) vs payments (Section 5)",
        claim=(
            "timelock: all three deal properties under synchrony, Safety "
            "lost under partial synchrony; certified: Safety+Termination "
            "under partial synchrony, no strong liveness; payments and "
            "deals are mutually inexpressible."
        ),
        columns=[
            "protocol", "graph", "timing", "scenario",
            "safety", "termination", "strong_liveness",
        ],
    )
    sweep.raise_any()
    for graph in sweep.distinct("graph"):
        sampled = sweep.select(graph=graph, scenario="honest")
        result.add_row(
            protocol="timelock", graph=graph, timing="synchronous",
            scenario="honest",
            safety=fraction(r["safety"] for r in sampled),
            termination=fraction(r["termination"] for r in sampled),
            strong_liveness=fraction(r["strong_liveness"] for r in sampled),
        )
        for protocol, timing, scenario in SCENARIOS[1:]:
            (record,) = sweep.select(graph=graph, scenario=scenario)
            result.add_row(
                protocol=protocol, graph=graph, timing=timing,
                scenario=scenario,
                safety=record["safety"],
                termination=record["termination"],
                strong_liveness=record["strong_liveness"],
            )
    sep = separation_report()
    for key, value in sep.items():
        result.note(f"separation: {key} = {value}")
    return result


def run(quick: bool = True, seed: int = 0, executor=None) -> ExperimentResult:
    return aggregate(resolve_executor(executor).run(build_sweep(quick, seed)))


__all__ = ["aggregate", "build_sweep", "run", "trial"]
