"""Experiment harness: sweep helpers the experiment modules share.

:func:`payment_session` assembles a
:class:`~repro.core.session.PaymentSession` from a
:class:`~repro.runtime.spec.TrialSpec`'s options.  The result table
(:class:`ExperimentResult`, :func:`fraction`, :func:`mean`) lives in
:mod:`repro.runtime.tables` and :func:`build_timing` in
:mod:`repro.net.timing`, below this package; both are re-exported here
for the experiment modules.
"""

from __future__ import annotations

from typing import List

from ..net.timing import build_timing
from ..runtime.tables import ExperimentResult, fraction, mean


def seeds_for(quick: bool, quick_count: int = 10, full_count: int = 40) -> List[int]:
    """Standard seed list for Monte-Carlo sweeps."""
    return list(range(quick_count if quick else full_count))


# -- declarative payment trials ------------------------------------------


def payment_session(spec, **overrides):
    """Assemble a linear-path :class:`PaymentSession` from a trial spec.

    Recognised option keys (overridable per call): ``n`` (escrow
    count), ``protocol``, ``timing`` (descriptor for
    :func:`build_timing`), ``rho``, ``byzantine``, ``horizon``,
    ``protocol_options``, ``payment_id``.  Non-primitive collaborators
    (clocks, adversaries) cannot ride in a spec and are passed via
    ``overrides`` by the trial function itself.  The session seed is
    the spec's derived trial seed.
    """
    from ..core.session import PaymentSession
    from ..core.topology import PaymentTopology

    opts = {**spec.options, **overrides}
    payment_id = opts.get("payment_id") or "-".join(
        str(c) for c in spec.coords
    ) or "payment"
    topo = PaymentTopology.linear(opts["n"], payment_id=payment_id)
    return PaymentSession(
        topo,
        opts["protocol"],
        build_timing(opts["timing"]),
        adversary=opts.get("adversary"),
        seed=spec.seed,
        rho=opts.get("rho", 0.0),
        clocks=opts.get("clocks"),
        byzantine=opts.get("byzantine"),
        horizon=opts.get("horizon"),
        protocol_options=opts.get("protocol_options"),
    )


__all__ = [
    "ExperimentResult",
    "build_timing",
    "fraction",
    "mean",
    "payment_session",
    "seeds_for",
]
