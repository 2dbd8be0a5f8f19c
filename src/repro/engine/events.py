"""Deterministic time-ordered event queue.

A thin wrapper over :mod:`heapq` whose ordering key is *canonical*: it
depends only on simulated time plus per-source sequence numbers, never
on which partition of the machine happened to insert the event first.
That property is what lets the sharded PDES scheduler (DESIGN.md §14)
reproduce the serial engine bit-for-bit — serial and sharded modes share
this queue and therefore the same same-timestamp tie-break.

Two lanes exist at every timestamp:

* **local** (lane 0) — events a node schedules for itself (CPU quanta,
  protocol follow-ups, resource completions).  Ties break by an explicit
  monotonic insertion sequence, so same-time local events fire in FIFO
  order.  Local events of *different* nodes commute (each touches only
  its own node's state), so the insertion counter does not need to be
  shared across shards.
* **remote** (lane 1) — cross-node arrivals injected by the fabric.
  Ties break by ``(src, src_seq)``: the sending node's id plus its
  per-source send counter.  Both are properties of the *sender's* own
  deterministic execution, so remote arrivals sort identically no matter
  which shard delivered them or when they crossed an epoch barrier.

At equal timestamps the local lane fires before the remote lane.  Heap
entries always carry the full ``(time, lane, k1, k2, seq)`` key before
the callback, so tuple comparison can never fall through to comparing
callbacks (the bug class the explicit-seq tie-break exists to prevent).

Entry layout — the one definition of the canonical key, which the serial
:class:`~repro.engine.simulator.Simulator` also writes and reads straight
on :attr:`EventQueue._heap` (its per-event hot path), held equal to
:meth:`EventQueue.push`/:meth:`EventQueue.push_remote` by
``tests/test_engine.py``::

    local:  (time, LANE_LOCAL,  seq, 0,       seq, callback, args)
    remote: (time, LANE_REMOTE, src, src_seq, seq, callback, args)

``seq`` is the queue's monotonic insertion counter (``EventQueue._seq``).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional, Tuple

#: Lane of events a node schedules for itself (FIFO by insertion).
LANE_LOCAL = 0
#: Lane of cross-node arrivals (ordered by ``(src, src_seq)``).
LANE_REMOTE = 1


class EventQueue:
    """Min-heap of ``(time, lane, k1, k2, seq, callback, args)`` events."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list = []
        self._seq: int = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: int, callback: Callable, *args: Any) -> None:
        """Schedule local-lane ``callback(*args)`` at ``time``.

        Events at equal times fire in insertion (FIFO) order, by an
        explicit monotonic sequence number.
        """
        if time < 0:
            raise ValueError("event time must be non-negative")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(
            self._heap, (time, LANE_LOCAL, seq, 0, seq, callback, args)
        )

    def push_remote(
        self, time: int, src: int, src_seq: int, callback: Callable, args: tuple
    ) -> None:
        """Schedule a remote arrival from ``src`` with canonical key
        ``(time, src, src_seq)``.

        ``src_seq`` must be unique per source (the fabric's per-node send
        counter), making the key a total order independent of insertion
        order — and therefore of the shard layout.
        """
        if time < 0:
            raise ValueError("event time must be non-negative")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(
            self._heap, (time, LANE_REMOTE, src, src_seq, seq, callback, args)
        )

    def pop(self) -> Tuple[int, Callable, tuple]:
        """Remove and return the earliest ``(time, callback, args)``."""
        entry = heapq.heappop(self._heap)
        return entry[0], entry[5], entry[6]

    def peek_time(self) -> Optional[int]:
        """Time of the earliest pending event, or ``None`` if empty."""
        return self._heap[0][0] if self._heap else None
