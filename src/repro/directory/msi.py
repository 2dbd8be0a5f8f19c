"""MSI directory used by the sequentially consistent and eager protocols.

Conventional single-writer invalidation directory (DASH-style):

* read of an UNCACHED/SHARED block: home memory supplies the data (2 hops).
* read of a DIRTY block: home forwards to the owner, which supplies the
  data to the requester and a sharing writeback to the home (3 hops);
  the block becomes SHARED with both processors in the sharer list.
* write: home invalidates all other sharers (or forwards a
  flush-invalidate to a dirty owner), collects acknowledgements, and
  grants exclusive ownership.
* evictions send replacement hints (clean) or writebacks (dirty).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.directory.entry import DIRTY, MSIEntry, SHARED, UNCACHED


@dataclass
class MSIReadOutcome:
    state: int
    forward_to: Optional[int] = None  # dirty owner to fetch the line from


@dataclass
class MSIWriteOutcome:
    state: int
    needs_data: bool
    invalidate: List[int] = field(default_factory=list)
    forward_to: Optional[int] = None  # dirty owner: flush + invalidate
    await_acks: bool = False


class MSIDirectory:
    """Directory slice for one home node under SC / eager RC."""

    __slots__ = ("entries", "tracer", "home", "dirty")

    def __init__(self) -> None:
        self.entries: Dict[int, MSIEntry] = {}
        self.tracer = None  # set by Machine when event tracing is on
        self.home = -1      # owning home node id (tracing and checking)
        self.dirty = None   # the invariant checker's (home, block) entry set

    def entry(self, block: int) -> MSIEntry:
        e = self.entries.get(block)
        if e is None:
            e = MSIEntry()
            self.entries[block] = e
        if self.dirty is not None:
            self.dirty.add((self.home, block))
        return e

    def state_of(self, block: int) -> int:
        e = self.entries.get(block)
        return e.state if e is not None else UNCACHED

    def read(self, block: int, reader: int) -> MSIReadOutcome:
        e = self.entry(block)
        old = e.state
        if e.state == DIRTY and e.owner != reader:
            owner = e.owner
            # 3-hop transaction: owner supplies data and writes back;
            # block becomes SHARED by {owner, reader}.
            e.state = SHARED
            e.owner = None
            e.sharers.add(reader)
            if self.tracer is not None:
                self.tracer.emit(
                    "dir_read", self.home, block=block, frm=old, to=SHARED,
                    reader=reader, forward_to=owner,
                )
            return MSIReadOutcome(state=SHARED, forward_to=owner)
        if e.state == UNCACHED:
            e.state = SHARED
        e.sharers.add(reader)
        if self.tracer is not None:
            self.tracer.emit(
                "dir_read", self.home, block=block, frm=old, to=e.state,
                reader=reader,
            )
        return MSIReadOutcome(state=e.state)

    def write(self, block: int, writer: int, has_copy: bool) -> MSIWriteOutcome:
        e = self.entry(block)
        old = e.state
        if self.tracer is not None:
            self.tracer.emit(
                "dir_write", self.home, block=block, frm=old, to=DIRTY,
                writer=writer,
            )
        if e.state == DIRTY:
            if e.owner == writer:
                # Already exclusive (e.g. retried request); nothing to do.
                return MSIWriteOutcome(state=DIRTY, needs_data=False)
            owner = e.owner
            e.state = DIRTY
            e.owner = writer
            e.sharers = {writer}
            return MSIWriteOutcome(
                state=DIRTY,
                needs_data=True,  # data comes from the old owner
                forward_to=owner,
                await_acks=True,
            )
        invalidate = [s for s in sorted(e.sharers) if s != writer]
        e.state = DIRTY
        e.owner = writer
        e.sharers = {writer}
        return MSIWriteOutcome(
            state=DIRTY,
            needs_data=not has_copy,
            invalidate=invalidate,
            await_acks=bool(invalidate),
        )

    def evict(self, block: int, node: int, dirty: bool) -> int:
        """Replacement hint / writeback.  Returns the new state."""
        e = self.entries.get(block)
        if e is None:
            return UNCACHED
        old = e.state
        e.sharers.discard(node)
        if dirty and e.owner == node:
            e.owner = None
        if e.owner is None and e.state == DIRTY:
            e.state = SHARED if e.sharers else UNCACHED
        elif not e.sharers:
            e.state = UNCACHED
            e.owner = None
        if self.tracer is not None:
            self.tracer.emit(
                "dir_remove", self.home, block=block, frm=old, to=e.state,
                actor=node, dirty=dirty,
            )
        if self.dirty is not None:
            self.dirty.add((self.home, block))
        if e.state == UNCACHED:
            del self.entries[block]
        return self.state_of(block)
