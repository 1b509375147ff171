"""Timing models: synchrony, partial synchrony, asynchrony.

The paper's three theorems are parameterised exactly by these models:

* **Synchrony** (:class:`Synchronous`) — every message is delivered
  within a *known* bound Δ.  Theorem 1: the time-bounded protocol works.
* **Partial synchrony** (:class:`PartialSynchrony`) — there is a Global
  Stabilisation Time (GST), *unknown to the protocol*: messages sent at
  time ``t`` are delivered by ``max(t, GST) + Δ`` (Dwork–Lynch–
  Stockmeyer).  Theorem 2: no eventually-terminating protocol exists;
  Theorem 3: a weak-liveness protocol does.
* **Asynchrony** (:class:`Asynchronous`) — delays are finite but
  unbounded and unknown.

A timing model answers one question for the network: *when is this
message delivered?*  The model first lets the adversary propose a delay
and then **clamps** the proposal to whatever the model permits — this
cleanly realises "the adversary controls scheduling within the model's
constraint".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from math import log as _log
from typing import Any, Optional, Sequence

from ..errors import TimingModelError
from ..sim.rng import RngStream
from .message import Envelope


class TimingModel(ABC):
    """Delivery-time policy for a network."""

    #: Message-delay bound known to protocol participants, or ``None``
    #: when the model offers no usable bound (partial synchrony and
    #: asynchrony — protocols reading it anyway is exactly the unsound
    #: behaviour exposed by experiment E3).
    known_bound: Optional[float] = None

    @abstractmethod
    def sample_delay(self, envelope: Envelope, send_time: float, rng: RngStream) -> float:
        """Baseline delay when the adversary expresses no preference."""

    @abstractmethod
    def clamp(self, envelope: Envelope, send_time: float, proposed_delay: float) -> float:
        """Restrict a proposed delay to what the model permits."""

    def delivery_time(
        self,
        envelope: Envelope,
        send_time: float,
        rng: RngStream,
        proposed_delay: Optional[float] = None,
    ) -> float:
        """Final delivery instant for ``envelope`` sent at ``send_time``."""
        delay = (
            self.sample_delay(envelope, send_time, rng)
            if proposed_delay is None
            else proposed_delay
        )
        if delay < 0.0 or delay != delay:
            raise TimingModelError(f"invalid proposed delay {delay!r}")
        return send_time + self.clamp(envelope, send_time, delay)


class Synchronous(TimingModel):
    """Known delay bound Δ; optional known minimum delay.

    Parameters
    ----------
    delta:
        Upper bound on message delay, known to all participants.
    min_delay:
        Lower bound on message delay (default 0).
    jitter:
        When sampling baseline delays, draw uniformly from
        ``[min_delay, min_delay + jitter * (delta - min_delay)]``.
        ``jitter=1`` uses the full window; ``jitter=0`` always takes
        ``min_delay``.
    """

    def __init__(self, delta: float, min_delay: float = 0.0, jitter: float = 1.0) -> None:
        if delta <= 0:
            raise TimingModelError(f"delta must be > 0, got {delta!r}")
        if not (0.0 <= min_delay <= delta):
            raise TimingModelError(
                f"min_delay must be in [0, delta], got {min_delay!r}"
            )
        if not (0.0 <= jitter <= 1.0):
            raise TimingModelError(f"jitter must be in [0, 1], got {jitter!r}")
        self.delta = float(delta)
        self.min_delay = float(min_delay)
        self.jitter = float(jitter)
        self.known_bound = self.delta
        # Hoisted jitter window: ``hi`` and the span are pure functions
        # of the constructor arguments, so the per-message sample pays
        # one multiply-add instead of recomputing the window.  The span
        # equals ``hi - min_delay`` exactly, so the inline draw below
        # reproduces ``rng.uniform(min_delay, hi)`` bit for bit
        # (CPython's uniform is ``a + (b - a) * random()``).
        self._jitter_hi = self.min_delay + self.jitter * (self.delta - self.min_delay)
        self._jitter_span = self._jitter_hi - self.min_delay

    def sample_delay(self, envelope: Envelope, send_time: float, rng: RngStream) -> float:
        span = self._jitter_span
        if span > 0.0:
            return self.min_delay + span * rng.buffered_random()
        return self.min_delay

    def clamp(self, envelope: Envelope, send_time: float, proposed_delay: float) -> float:
        return min(max(proposed_delay, self.min_delay), self.delta)

    def delivery_time(
        self,
        envelope: Envelope,
        send_time: float,
        rng: RngStream,
        proposed_delay: Optional[float] = None,
    ) -> float:
        # Fused fast path for the common no-proposal send: the sampled
        # delay is ≥ min_delay by construction, so validation cannot
        # fire and only the upper clamp can bind (when ``hi`` rounds a
        # hair above delta) — two method frames shed per message, with
        # the same floats as the sample/validate/clamp base path.  The
        # jitter uniform comes off the stream's prefetch buffer (filled
        # in batches, consumed in draw order — the same values a scalar
        # ``rng.random()`` would return).
        if proposed_delay is None:
            span = self._jitter_span
            if span > 0.0:
                buf = rng._buffer
                delay = self.min_delay + span * (
                    buf.pop() if buf else rng.refill_uniforms()
                )
                if delay > self.delta:
                    delay = self.delta
                return send_time + delay
            return send_time + self.min_delay
        return TimingModel.delivery_time(self, envelope, send_time, rng, proposed_delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Synchronous(delta={self.delta}, min_delay={self.min_delay})"


class PartialSynchrony(TimingModel):
    """DLS Global-Stabilisation-Time model.

    A message sent at ``t`` is delivered by ``max(t, GST) + Δ``.  Before
    GST the adversary may stretch delays arbitrarily up to that horizon;
    after GST the system behaves synchronously with bound Δ.  Crucially
    ``known_bound`` is ``None``: correct protocols must not rely on Δ
    or GST.

    Parameters
    ----------
    gst:
        Global stabilisation time.
    delta:
        Post-GST delay bound.
    pre_gst_scale:
        Mean of the baseline (non-adversarial) pre-GST delay
        distribution, expressed as a multiple of Δ.
    """

    def __init__(self, gst: float, delta: float, pre_gst_scale: float = 4.0) -> None:
        if delta <= 0:
            raise TimingModelError(f"delta must be > 0, got {delta!r}")
        if gst < 0:
            raise TimingModelError(f"gst must be >= 0, got {gst!r}")
        if pre_gst_scale < 0:
            raise TimingModelError(f"pre_gst_scale must be >= 0, got {pre_gst_scale!r}")
        self.gst = float(gst)
        self.delta = float(delta)
        self.pre_gst_scale = float(pre_gst_scale)
        self.known_bound = None
        # Hoisted exponential rate: same float the old per-call
        # ``1.0 / (pre_gst_scale * delta)`` produced, computed once.
        self._pre_gst_lambd = (
            1.0 / (self.pre_gst_scale * self.delta) if self.pre_gst_scale > 0 else 0.0
        )

    def deadline(self, send_time: float) -> float:
        """Latest permitted delivery instant for a ``send_time`` send."""
        return max(send_time, self.gst) + self.delta

    def sample_delay(self, envelope: Envelope, send_time: float, rng: RngStream) -> float:
        if send_time >= self.gst:
            # == rng.uniform(0.0, delta): CPython's uniform is
            # ``a + (b - a) * random()`` and ``0.0 + x`` is ``x`` for
            # every non-negative ``x``, so one multiply replaces the
            # method frame with the same draw and the same float (the
            # buffered draw serves that exact value batch-prefetched).
            return self.delta * rng.buffered_random()
        if self.pre_gst_scale > 0:
            # == rng.expovariate(lambd): ``-log(1 - random()) / lambd``.
            raw = -_log(1.0 - rng.buffered_random()) / self._pre_gst_lambd
        else:
            raw = 0.0
        return min(raw, self.deadline(send_time) - send_time)

    def clamp(self, envelope: Envelope, send_time: float, proposed_delay: float) -> float:
        latest = self.deadline(send_time) - send_time
        return min(proposed_delay, latest)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PartialSynchrony(gst={self.gst}, delta={self.delta})"


class Asynchronous(TimingModel):
    """Finite but unbounded delays; no information for protocols.

    ``max_delay`` exists purely to keep simulations finite — it is an
    artefact of simulation, not a bound available to protocols (and the
    adversary can use all of it).
    """

    def __init__(self, mean_delay: float = 1.0, max_delay: float = 1e6) -> None:
        if mean_delay <= 0:
            raise TimingModelError(f"mean_delay must be > 0, got {mean_delay!r}")
        if max_delay < mean_delay:
            raise TimingModelError("max_delay must be >= mean_delay")
        self.mean_delay = float(mean_delay)
        self.max_delay = float(max_delay)
        self.known_bound = None
        self._lambd = 1.0 / self.mean_delay

    def sample_delay(self, envelope: Envelope, send_time: float, rng: RngStream) -> float:
        # == rng.expovariate(1.0 / mean_delay), one frame cheaper; the
        # uniform comes off the stream's batch prefetch buffer.
        return min(-_log(1.0 - rng.buffered_random()) / self._lambd, self.max_delay)

    def clamp(self, envelope: Envelope, send_time: float, proposed_delay: float) -> float:
        return min(proposed_delay, self.max_delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Asynchronous(mean={self.mean_delay})"


def build_timing(descriptor: Sequence[Any]) -> TimingModel:
    """Build a timing model from a primitive ``(kind, params)`` pair.

    Trial specs must carry plain data only, so timing models travel as
    e.g. ``("synchronous", {"delta": 1.0})``,
    ``("partial", {"gst": 40.0, "delta": 1.0})``, or
    ``("asynchronous", {"mean_delay": 1.0})`` and are instantiated
    inside the trial function.
    """
    kind = descriptor[0]
    params = dict(descriptor[1]) if len(descriptor) > 1 else {}
    if kind == "synchronous":
        return Synchronous(**params)
    if kind == "partial":
        return PartialSynchrony(**params)
    if kind == "asynchronous":
        return Asynchronous(**params)
    raise TimingModelError(f"unknown timing descriptor kind: {kind!r}")


__all__ = [
    "Asynchronous", "PartialSynchrony", "Synchronous", "TimingModel",
    "build_timing",
]
