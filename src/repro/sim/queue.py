"""A stable binary-heap event queue with lazy cancellation.

The queue stores :class:`~repro.sim.events.Event` objects ordered by
``(time, priority, seq)``.  Cancellation is O(1) (mark-dead); dead
events are skipped on pop.  ``peek_time`` lets the kernel look ahead
without committing to the pop, which the bounded explorer uses to
enumerate frontier events; ``pop_due`` fuses the peek and the pop into
a single head access for the kernel's run loop.

Heap entries are ``(time, priority, seq, event)`` quadruples rather
than bare events: every sift comparison during push/pop is a native
tuple comparison over C-level floats/ints instead of a Python-level
``__lt__`` call — the hottest comparison site in the repo.  (``seq``
is unique, so the trailing ``event`` element is never compared.)  One
flat quadruple also means one tuple allocation per push and direct
``entry[0]`` access to the head's time.

Live-count accounting is membership-checked: every event carries a
queue-owned ``_counted`` flag recording whether it is part of this
queue's live total.  ``note_cancelled`` only decrements for events that
are actually counted, so cancel-after-pop, cancel-after-clear, and
double-cancel all leave ``len(queue)`` exact instead of silently
undercounting.

.. note::
   The kernel inlines the push (in ``Simulator.schedule``) and the
   body of :meth:`EventQueue.pop_due` (in ``Simulator.run``) to shed a
   Python call per event; the heap entry layout and
   ``_counted``/``_live`` bookkeeping must match in both places.
   ``_heap`` is mutated only in place (``clear()`` included) so the
   kernel may hoist a reference to it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterator, List, Optional, Tuple

from .events import Event

#: One heap entry: the event's sort key, flattened, then the event.
_Entry = Tuple[float, int, int, Event]


class EventQueue:
    """Min-heap of events with deterministic tie-breaking."""

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._live = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, event: Event) -> Event:
        """Insert ``event`` and return it (for chaining)."""
        heappush(self._heap, (event.time, event.priority, event.seq, event))
        if not event.cancelled and not event.fired:
            event._counted = True
            self._live += 1
        else:
            event._counted = False
        return event

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises
        ------
        IndexError
            If the queue holds no live events.
        """
        heap = self._heap
        while heap:
            event = heappop(heap)[3]
            if event._counted:
                event._counted = False
                self._live -= 1
            if not event.cancelled and not event.fired:
                return event
        raise IndexError("pop from empty EventQueue")

    def pop_due(self, until: Optional[float] = None) -> Optional[Event]:
        """Pop the earliest live event due at or before ``until``.

        Returns ``None`` — leaving the event in the heap — when the
        queue holds no live event or the earliest one is strictly
        after the horizon.  This is the kernel run loop's single head
        access per iteration: it replaces the ``peek_time()`` +
        ``pop()`` pair, which walked the heap twice per event.
        """
        heap = self._heap
        while heap:
            event = heap[0][3]
            if event.cancelled or event.fired:
                heappop(heap)  # discard the dead head lazily
                if event._counted:
                    event._counted = False
                    self._live -= 1
                continue
            if until is not None and event.time > until:
                return None
            heappop(heap)
            if event._counted:
                event._counted = False
                self._live -= 1
            return event
        return None

    def peek(self) -> Optional[Event]:
        """Return the earliest live event without removing it."""
        self._compact_head()
        return self._heap[0][3] if self._heap else None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or ``None`` if empty."""
        head = self.peek()
        return head.time if head is not None else None

    def note_cancelled(self, event: Event) -> None:
        """Record that a previously pushed event was cancelled.

        The kernel calls this from :meth:`Simulator.cancel` so the live
        count stays accurate; the heap entry itself is discarded lazily.
        Idempotent, and a no-op for events this queue is not currently
        counting (already popped, fired, cleared, or never pushed).
        """
        self._uncount(event)

    def clear(self) -> None:
        """Drop all events (cancelled ones included)."""
        for entry in self._heap:
            entry[3]._counted = False
        self._heap.clear()
        self._live = 0

    def iter_pending(self) -> Iterator[Event]:
        """Iterate live events in *heap* order (not sorted).

        Useful for inspection and for the explorer's frontier
        enumeration; callers needing sorted order should sort by
        :meth:`Event.sort_key`.
        """
        return (entry[3] for entry in self._heap if entry[3].alive)

    def snapshot_sorted(self) -> List[Event]:
        """All live events sorted by firing order (copy)."""
        return sorted(self.iter_pending(), key=Event.sort_key)

    def _compact_head(self) -> None:
        """Discard cancelled events sitting at the heap root."""
        heap = self._heap
        while heap and not heap[0][3].alive:
            self._uncount(heappop(heap)[3])

    def _uncount(self, event: Event) -> None:
        """Remove ``event`` from the live total, exactly once."""
        if event._counted:
            event._counted = False
            self._live -= 1


__all__ = ["EventQueue"]
