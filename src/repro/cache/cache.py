"""Finite direct-mapped cache.

The tag and state arrays are plain Python lists and are read *directly*
by the processor's hit fast path (``tags[set] == block and states[set]``),
so this class mostly provides the slower mutation paths: installs with
victim identification, invalidations, and upgrades.

Addresses are byte addresses; a *block* is ``addr >> line_shift`` and is
globally unique (the tag check compares whole block numbers, which
subsumes the tag comparison of a real cache).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cache.state import INVALID, RO, RW
from repro.config import SystemConfig


class Cache:
    """Direct-mapped cache with whole-block tags."""

    __slots__ = (
        "config",
        "node_id",
        "n_sets",
        "set_mask",
        "tags",
        "states",
        "fills",
        "evictions",
        "coherence_invalidations",
        "tracer",
        "dirty",
    )

    def __init__(self, config: SystemConfig, node_id: int = 0) -> None:
        n_sets = config.n_sets
        if n_sets & (n_sets - 1):
            raise ValueError(
                "cache geometry must yield a power-of-two number of sets "
                f"(got {n_sets}); adjust cache_size/line_size"
            )
        self.config = config
        self.node_id = node_id
        self.n_sets = n_sets
        self.set_mask = n_sets - 1
        self.tags: List[int] = [-1] * n_sets
        self.states: List[int] = [INVALID] * n_sets
        self.fills = 0
        self.evictions = 0
        self.coherence_invalidations = 0
        self.tracer = None  # set by Machine when event tracing is on
        # The invariant checker's (node, block) residency set, marked on
        # every residency change (set by Machine under tardis checking).
        self.dirty = None

    # -- queries ---------------------------------------------------------------

    def set_of(self, block: int) -> int:
        return block & self.set_mask

    def lookup(self, block: int) -> int:
        """Current local state of ``block`` (INVALID if not resident)."""
        s = block & self.set_mask
        if self.tags[s] == block:
            return self.states[s]
        return INVALID

    def resident(self, block: int) -> bool:
        return self.tags[block & self.set_mask] == block

    def victim_of(self, block: int) -> Optional[Tuple[int, int]]:
        """The (block, state) that installing ``block`` would evict."""
        s = block & self.set_mask
        tag = self.tags[s]
        if tag != -1 and tag != block and self.states[s] != INVALID:
            return tag, self.states[s]
        return None

    # -- mutations ---------------------------------------------------------------

    def install(self, block: int, state: int) -> Optional[Tuple[int, int]]:
        """Place ``block`` in the cache with ``state``.

        Returns the evicted ``(block, state)`` if a distinct valid line
        occupied the set, else ``None``.  The caller (protocol) is
        responsible for any eviction traffic (writeback / hint).
        """
        s = block & self.set_mask
        victim = None
        old = self.tags[s]
        if old != -1 and old != block and self.states[s] != INVALID:
            victim = (old, self.states[s])
            self.evictions += 1
        self.tags[s] = block
        self.states[s] = state
        self.fills += 1
        if self.tracer is not None:
            self.tracer.emit(
                "cache_install", self.node_id, block=block, state=state,
                victim=victim[0] if victim else None,
            )
        if self.dirty is not None:
            self.dirty.add((self.node_id, block))
            if victim is not None:
                self.dirty.add((self.node_id, old))
        return victim

    def upgrade(self, block: int) -> None:
        """RO -> RW on a resident line (write permission granted)."""
        s = block & self.set_mask
        if self.tags[s] != block:
            raise KeyError(f"upgrade of non-resident block {block:#x}")
        self.states[s] = RW

    def downgrade(self, block: int) -> None:
        """RW -> RO (e.g. eager protocol sharing writeback)."""
        s = block & self.set_mask
        if self.tags[s] == block and self.states[s] == RW:
            self.states[s] = RO

    def invalidate(self, block: int) -> bool:
        """Drop ``block`` if resident.  Returns True if it was."""
        s = block & self.set_mask
        if self.tags[s] == block and self.states[s] != INVALID:
            self.states[s] = INVALID
            self.tags[s] = -1
            self.coherence_invalidations += 1
            if self.tracer is not None:
                self.tracer.emit("cache_inval", self.node_id, block=block)
            if self.dirty is not None:
                self.dirty.add((self.node_id, block))
            return True
        return False

    def resident_blocks(self) -> List[int]:
        """All currently valid blocks (test/debug helper)."""
        return [
            t
            for t, st in zip(self.tags, self.states)
            if t != -1 and st != INVALID
        ]

    def clear(self) -> None:
        for i in range(self.n_sets):
            self.tags[i] = -1
            self.states[i] = INVALID
