"""The discrete-event simulation kernel.

:class:`Simulator` advances a virtual *global* clock by executing events
in ``(time, priority, seq)`` order.  The kernel is deliberately small:
everything domain-specific (networks, clocks, automata, ledgers) is
layered on top of ``schedule`` / ``cancel`` / ``run``.

Determinism contract
--------------------
Given the same initial schedule and the same callbacks (which may draw
randomness only from :class:`~repro.sim.rng.RngRegistry` streams), two
runs produce byte-identical traces.  This is what makes the experiment
suite reproducible and the bounded explorer sound.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, List, Optional

from ..errors import SchedulingError, SimulationError
from .events import Event, EventPriority, _next_seq
from .queue import EventQueue
from .rng import RngRegistry
from .trace import TraceRecorder

#: Default scheduling priority as a plain ``int``: keeping the enum
#: out of the default argument means the hot path never pays the
#: ``int(EventPriority.INTERNAL)`` conversion for ordinary events.
_INTERNAL = int(EventPriority.INTERNAL)

_EVENT_NEW = Event.__new__
_INF = float("inf")


class Simulator:
    """Sequential discrete-event simulator with a deterministic order.

    Parameters
    ----------
    seed:
        Master seed for the simulation's random streams.
    trace:
        Optional externally owned recorder; a fresh one is created if
        omitted.
    """

    # Every event execution reads several of these attributes; slots
    # keep those loads off the instance-dict path.
    __slots__ = (
        "_now",
        "_queue",
        "_running",
        "_stopped",
        "_executed",
        "rng",
        "trace",
        "_stop_conditions",
    )

    def __init__(self, seed: int = 0, trace: Optional[TraceRecorder] = None) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        self._executed = 0
        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else TraceRecorder()
        self._stop_conditions: List[Callable[["Simulator"], bool]] = []

    # -- time ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current global simulated time."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Number of events fired so far.

        Maintained incrementally, so a callback running *inside* an
        event (a stop condition, a workload session finalizer) reads a
        count that already includes the current event — what per-session
        event accounting on a shared kernel relies on.
        """
        return self._executed

    @property
    def pending_events(self) -> int:
        """Number of live events still scheduled."""
        return len(self._queue)

    # -- scheduling ------------------------------------------------------

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = _INTERNAL,
        label: str = "",
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now.

        Raises
        ------
        SchedulingError
            If ``delay`` is negative or not finite.
        """
        if not (delay >= 0.0):  # also rejects NaN
            raise SchedulingError(f"negative or NaN delay: {delay!r}")
        # Inlined fast path: this is the hottest call in the repo
        # (every timer/delivery goes through it), so the event is
        # built field-by-field (skipping the Event.__init__ frame) and
        # pushed straight into the queue's heap (skipping
        # EventQueue.push).  `time >= now` holds by construction, so
        # `time < inf` is the whole finiteness check (NaN compares
        # false and is rejected).
        time = self._now + delay
        if not (time < _INF):
            raise SchedulingError(f"non-finite event time: {time!r}")
        if priority.__class__ is not int:
            priority = int(priority)
        queue = self._queue
        event = _EVENT_NEW(Event)
        event.time = time
        event.priority = priority
        event.fn = fn
        event.args = args
        event.label = label
        event.seq = seq = _next_seq()
        event.cancelled = False
        event.fired = False
        event._counted = True
        _heappush(queue._heap, (time, priority, seq, event))
        queue._live += 1
        return event

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = _INTERNAL,
        label: str = "",
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute global ``time``."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule in the past: t={time!r} < now={self._now!r}"
            )
        # `time >= now >= 0` holds past the check above (and -inf/NaN
        # fail it or the one below), so `time < inf` is the whole
        # finiteness check — same outcome as math.isfinite.
        if not (time < _INF):
            raise SchedulingError(f"non-finite event time: {time!r}")
        if priority.__class__ is not int:
            priority = int(priority)
        queue = self._queue
        event = _EVENT_NEW(Event)
        event.time = time
        event.priority = priority
        event.fn = fn
        event.args = args
        event.label = label
        event.seq = seq = _next_seq()
        event.cancelled = False
        event.fired = False
        event._counted = True
        _heappush(queue._heap, (time, priority, seq, event))
        queue._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        if event.alive:
            event.cancel()
            self._queue.note_cancelled(event)

    # -- stop conditions -------------------------------------------------

    def add_stop_condition(self, predicate: Callable[["Simulator"], bool]) -> None:
        """Stop the run loop as soon as ``predicate(self)`` is true.

        Conditions are evaluated after every executed event.
        """
        self._stop_conditions.append(predicate)

    def stop(self) -> None:
        """Request the run loop to halt after the current event."""
        self._stopped = True

    # -- execution -------------------------------------------------------

    def step(self) -> bool:
        """Execute exactly one event.

        Returns
        -------
        bool
            ``True`` if an event was executed, ``False`` if the queue
            was empty.
        """
        try:
            event = self._queue.pop()
        except IndexError:
            return False
        if event.time < self._now:  # pragma: no cover - defensive
            raise SimulationError("event queue yielded an event from the past")
        self._now = event.time
        self._executed += 1
        event.fire()
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until the queue empties, ``until`` is reached, or stopped.

        Parameters
        ----------
        until:
            Inclusive global-time horizon.  Events scheduled strictly
            after ``until`` remain pending; the clock is advanced to
            ``until`` whenever the horizon is the binding constraint —
            including when the queue is empty or drains before the
            horizon — so latency read from :attr:`now` is never short
            of the simulated span.  (A ``stop()`` request or a stop
            condition leaves the clock at the last executed event.)
        max_events:
            Upper bound on events executed in this call (safety valve
            against livelock in adversarial scenarios).  Unlike
            ``until`` this bound does *not* advance the clock: when it
            binds, the clock stays at the last executed event's time.

        Returns
        -------
        int
            Number of events executed by this call.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        self._running = True
        self._stopped = False
        # Hot loop: one head access per event, firing inlined (see
        # Event.fire for the contract), queue internals and the
        # condition list hoisted out of the loop.  The pop itself is
        # the body of EventQueue.pop_due, inlined to shed a Python
        # call per event — the queue's bookkeeping invariants
        # (`_counted`/`_live`) are maintained identically.  Event
        # times are always finite, so a missing horizon/event budget
        # normalises to infinity and each needs just one comparison
        # per event.
        queue = self._queue
        heap = queue._heap
        heappop = _heappop  # local binding: LOAD_FAST in the loop
        conditions = self._stop_conditions
        executed = 0
        horizon = until if until is not None else _INF
        budget = max_events if max_events is not None else _INF
        # Whether the loop ended because no due event remained (queue
        # drained or horizon passed) — the only exits on which the
        # horizon may bind the clock.  stop(), stop conditions, and
        # the event budget leave the clock at the last executed event.
        exhausted = False
        try:
            while not self._stopped and executed < budget:
                if not heap:
                    exhausted = True
                    break
                head = heap[0]
                event = head[3]
                if event.cancelled or event.fired:
                    heappop(heap)  # discard the dead head lazily
                    if event._counted:
                        event._counted = False
                        queue._live -= 1
                    continue
                time = head[0]
                if time > horizon:
                    exhausted = True
                    break
                heappop(heap)
                # A live event in the kernel's own queue is always
                # counted (schedule/push set the flag; every uncount
                # also kills the event), so no membership re-check.
                event._counted = False
                queue._live -= 1
                self._now = time
                executed += 1
                self._executed += 1
                event.fired = True
                args = event.args
                if args:
                    event.fn(*args)
                else:
                    event.fn()  # plain call: skips CALL_EX unpack
                if conditions:
                    stop = False
                    for condition in conditions:
                        if condition(self):
                            stop = True
                            break
                    if stop:
                        break
        finally:
            self._running = False
        if exhausted and until is not None and until > self._now:
            # The horizon binds whenever no event at or before `until`
            # remains — including on an empty queue.
            self._now = until
        return executed

    # -- arena lifecycle --------------------------------------------------

    def reset(self, seed: int = 0, trace: Optional[TraceRecorder] = None) -> None:
        """Return the simulator to a freshly constructed state.

        The arena lifecycle: one simulator serves many trials.  The
        clock, executed-event count, stop conditions, and stop flag are
        cleared; the random registry is rebuilt from ``seed`` and the
        trace replaced (a fresh full recorder when ``trace`` is
        omitted) — exactly the state ``__init__`` would produce.
        Pending events are dropped.

        Raises
        ------
        SimulationError
            If called re-entrantly from inside :meth:`run`.
        """
        if self._running:
            raise SimulationError("cannot reset a running Simulator")
        self._now = 0.0
        self._queue.clear()
        self._stopped = False
        self._executed = 0
        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else TraceRecorder()
        self._stop_conditions.clear()

    # -- introspection ----------------------------------------------------

    def pending(self) -> List[Event]:
        """Live events sorted by firing order (copy)."""
        return self._queue.snapshot_sorted()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.6g}, pending={len(self._queue)}, "
            f"executed={self._executed})"
        )


__all__ = ["Simulator"]
