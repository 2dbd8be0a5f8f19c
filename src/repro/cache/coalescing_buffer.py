"""Coalescing write-through buffer (lazy protocols).

Section 2: "A coalescing fully associative buffer placed after the
write-through cache can effectively combine the best attributes of both
write strategies" — word-granularity memory updates (required for the
multiple-writer lazy protocol's correctness) at write-back-like traffic
levels, and cheap releases.

Entries merge by cache block and record the dirty word offsets, so a
flush message carries only the written words.  An entry is flushed to
the block's home memory when the buffer needs space for a new block
(FIFO victim) or when the owning processor reaches a release point.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple


class CoalescingBuffer:
    """Fully-associative, FIFO-replacement coalescing buffer."""

    __slots__ = ("capacity", "order", "words", "merges", "inserted", "flushes",
                 "tracer", "owner", "dirty")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("coalescing buffer capacity must be >= 1")
        self.capacity = capacity
        self.order: Deque[int] = deque()
        self.words: Dict[int, Set[int]] = {}
        self.merges = 0
        self.inserted = 0
        self.flushes = 0
        self.tracer = None   # set by Machine when event tracing is on
        self.owner = -1      # owning node id (tracing and checking)
        self.dirty = None    # the invariant checker's dirty-node set

    def __len__(self) -> int:
        return len(self.order)

    @property
    def empty(self) -> bool:
        return not self.order

    def contains(self, block: int) -> bool:
        return block in self.words

    def add(self, block: int, words: Set[int]) -> Optional[Tuple[int, Set[int]]]:
        """Merge ``words`` into the entry for ``block``.

        Returns a ``(victim_block, victim_words)`` pair when an existing
        entry had to be displaced to make room, else ``None``.  The caller
        issues the write-through for the victim.
        """
        ws = self.words.get(block)
        if ws is not None:
            ws |= words
            self.merges += 1
            return None
        victim = None
        if len(self.order) >= self.capacity:
            vb = self.order.popleft()
            victim = (vb, self.words.pop(vb))
            self.flushes += 1
        self.words[block] = set(words)
        self.order.append(block)
        self.inserted += 1
        if self.tracer is not None:
            self.tracer.emit(
                "cbuf_add", self.owner, block=block,
                victim=victim[0] if victim else None, depth=len(self.order),
            )
        if self.dirty is not None:
            self.dirty.add(self.owner)
        return victim

    def remove(self, block: int) -> Optional[Set[int]]:
        """Force out one block's entry (e.g. its line was invalidated)."""
        ws = self.words.pop(block, None)
        if ws is not None:
            self.order.remove(block)
            self.flushes += 1
            if self.tracer is not None:
                self.tracer.emit("cbuf_remove", self.owner, block=block)
            if self.dirty is not None:
                self.dirty.add(self.owner)
        return ws

    def drain(self) -> List[Tuple[int, Set[int]]]:
        """Remove and return all entries in FIFO order (release flush)."""
        out = [(b, self.words[b]) for b in self.order]
        self.flushes += len(out)
        self.order.clear()
        self.words.clear()
        if self.tracer is not None and out:
            self.tracer.emit("cbuf_drain", self.owner, blocks=[b for b, _ in out])
        if self.dirty is not None and out:
            self.dirty.add(self.owner)
        return out
