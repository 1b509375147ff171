"""A fixed reference workload that measures how fast the host runs now.

The host this benchmark was built on runs the same Python code up to
25% faster or slower for tens of seconds at a time (other tenants share
its cores), which moves raw CPU times far more than the changes the
benchmark has to resolve.  So the benchmark times :func:`reference`
between its operations and rescales every measured time by
``REFERENCE_SECONDS / (reference CPU seconds measured next to it)``:
a time is reported as what it would have been had the reference taken
exactly ``REFERENCE_SECONDS``.

The reference mimics the program's interpreter profile at a similar
working-set size: slotted objects, dict and attribute lookups, a heap
of timestamped events, tuple churn and string keys over a few MB.
**Never change this file**: any change to the reference rescales every
time the benchmark reports and breaks comparison with earlier runs.
"""

from __future__ import annotations

import heapq
import time

#: The reference's CPU seconds on the nominal host; reported times are
#: scaled as if every reference run had taken exactly this long.
REFERENCE_SECONDS = 0.040

_NODES = 2048
_TABLE_SIZE = 1 << 15


class _Node:
    __slots__ = ("name", "peers", "state", "seen")

    def __init__(self, name: str) -> None:
        self.name = name
        self.peers: list = []
        self.state: dict = {}
        self.seen = 0


_table = None


def reference(steps: int = 12000) -> int:
    """Run the fixed reference work; returns a checksum of it.

    Every call does the same work: the nodes are rebuilt per call (the
    allocation churn is part of the profile) and only the read-only
    table is kept between calls.
    """
    global _table
    if _table is None:
        _table = [(i, f"k{i}", float(i)) for i in range(_TABLE_SIZE)]
    table = _table
    nodes = [_Node(f"node-{i}") for i in range(_NODES)]
    for i, node in enumerate(nodes):
        # Peers by index: object links would form cycles, leaving
        # garbage for the cyclic collector to reclaim during the
        # operations being timed.
        node.peers = [(i * 31 + k * 97) % _NODES for k in range(1, 4)]
    heap = [(0.0, 0, nodes[0])]
    seq = 1
    checksum = 0
    slot = 12345
    for _ in range(steps):
        now, _, node = heapq.heappop(heap)
        node.seen += 1
        slot = (slot * 1103515245 + 12345) & (_TABLE_SIZE - 1)
        key, label, weight = table[slot]
        state = node.state
        state[label] = state.get(label, 0) + 1
        if len(state) > 8:
            state.clear()
        checksum = (checksum + key + node.seen) & 0xFFFFFFFF
        for index in node.peers:
            peer = nodes[index]
            if (key + peer.seen) % 3 == 0:
                heapq.heappush(heap, (now + 1.0 + weight % 7, seq, peer))
                seq += 1
        if not heap:
            heapq.heappush(heap, (now + 1.0, seq, nodes[node.peers[0]]))
            seq += 1
    return checksum


def reference_seconds() -> float:
    """Process CPU seconds one :func:`reference` run takes right now.

    The first call also builds the read-only table (not timed).
    """
    if _table is None:
        reference(0)
    t0 = time.process_time()
    reference()
    return time.process_time() - t0
