"""Timestamp directory for the Tardis protocol.

Tardis replaces the sharer/writer sets of the other directories with two
logical timestamps per block — O(log n) storage instead of O(n):

* ``wts`` — the write timestamp: the logical time of the block's last
  published write.
* ``rts`` — the read timestamp (lease): the block may be read at any
  logical time in ``[wts, rts]``.  A read renews the lease relative to
  the reader's own logical clock; a write bump moves ``wts`` past every
  lease ever granted (``wts = rts + 1``), so stale copies are exactly
  those whose recorded lease is below an acquirer's clock.

The home never tracks who is caching a block, so there is no
invalidation fan-out, no ack collection, and no relinquish/evict
traffic — expired copies self-invalidate at their owner's next acquire
(the Tardis 2.0 relaxed mode, which lines up with LRC's sync points).
"""

from __future__ import annotations

from typing import Dict, Tuple


class TardisEntry:
    """Per-block timestamp pair.  Invariant: ``0 <= wts <= rts``."""

    __slots__ = ("wts", "rts")

    def __init__(self) -> None:
        self.wts = 0
        self.rts = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TardisEntry(wts={self.wts}, rts={self.rts})"


class TardisDirectory:
    """Directory slice for one home node under the tardis protocol."""

    __slots__ = ("entries", "tracer", "home", "dirty")

    def __init__(self) -> None:
        self.entries: Dict[int, TardisEntry] = {}
        self.tracer = None  # set by Machine when event tracing is on
        self.home = -1      # owning home node id (tracing and checking)
        self.dirty = None   # the invariant checker's (home, block) entry set

    def entry(self, block: int) -> TardisEntry:
        e = self.entries.get(block)
        if e is None:
            e = TardisEntry()
            self.entries[block] = e
        if self.dirty is not None:
            self.dirty.add((self.home, block))
        return e

    # -- request processing ---------------------------------------------------

    def read(self, block: int, reader_pts: int, lease: int) -> Tuple[int, int]:
        """Serve a read at the reader's logical time; renew the lease.

        Returns ``(wts, rts)`` for the reply: the reader raises its clock
        to ``wts`` and records ``rts`` as the copy's expiry."""
        e = self.entry(block)
        want = reader_pts + lease
        if want < e.wts:
            want = e.wts
        if want > e.rts:
            e.rts = want
        if self.tracer is not None:
            self.tracer.emit(
                "dir_lease", self.home, block=block, wts=e.wts, rts=e.rts
            )
        return e.wts, e.rts

    def bump(self, block: int) -> int:
        """Publish a write: move ``wts`` past every granted lease.

        ``rts`` follows so the writer's epoch can still be read; later
        reads re-extend the lease from there.  Returns the new ``wts``."""
        e = self.entry(block)
        e.wts = e.rts + 1
        e.rts = e.wts
        if self.tracer is not None:
            self.tracer.emit("dir_bump", self.home, block=block, wts=e.wts)
        return e.wts
