"""The reproduction's evaluation: one module per experiment (table or
figure), plus the harness and renderer.

Every experiment module is a triple on top of :mod:`repro.runtime`:

* ``build_sweep(quick, seed) -> SweepSpec`` — the declarative trial grid;
* ``trial(spec) -> dict`` — one pure Monte-Carlo trial (runs anywhere,
  including worker processes);
* ``aggregate(SweepResult) -> ExperimentResult`` — the reduction to the
  paper table.

``run(quick, seed, executor)`` composes the three; pass an
:class:`~repro.runtime.Executor`, an integer job count, or nothing (the
``REPRO_JOBS`` environment variable then decides).
"""

from typing import Callable, Dict

from . import (
    e1_synchrony,
    e2_drift,
    e3_impossibility,
    e4_weak,
    e5_notaries,
    e6_deals,
    e7_scalability,
    e8_exploration,
    e9_margin,
)
from .harness import (
    ExperimentResult,
    build_timing,
    fraction,
    mean,
    payment_session,
    seeds_for,
)
from .tables import render_table

#: id -> experiment module; the single source the registries derive from.
_MODULES = {
    "E1": e1_synchrony,
    "E2": e2_drift,
    "E3": e3_impossibility,
    "E4": e4_weak,
    "E5": e5_notaries,
    "E6": e6_deals,
    "E7": e7_scalability,
    "E8": e8_exploration,
    "E9": e9_margin,
}

#: Experiment registry: id -> run(quick, seed, executor) -> ExperimentResult.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    exp_id: module.run for exp_id, module in _MODULES.items()
}

#: Sweep-spec builders, for callers that want to schedule trials
#: themselves (tests, external executors): id -> build_sweep.
SWEEPS: Dict[str, Callable[..., object]] = {
    exp_id: module.build_sweep for exp_id, module in _MODULES.items()
}

#: id -> aggregate(SweepResult) -> ExperimentResult, matching SWEEPS.
AGGREGATORS: Dict[str, Callable[..., ExperimentResult]] = {
    exp_id: module.aggregate for exp_id, module in _MODULES.items()
}


def experiment_doc(exp_id: str) -> str:
    """The experiment's one-line description (module docstring head)."""
    import sys

    fn = EXPERIMENTS[exp_id]
    module = sys.modules.get(fn.__module__)
    doc = (module.__doc__ or "").strip() if module else ""
    return doc.splitlines()[0].strip() if doc else fn.__module__


__all__ = [
    "AGGREGATORS",
    "EXPERIMENTS",
    "SWEEPS",
    "ExperimentResult",
    "build_timing",
    "experiment_doc",
    "fraction",
    "mean",
    "payment_session",
    "render_table",
    "seeds_for",
]
