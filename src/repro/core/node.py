"""One node of the multiprocessor.

A node bundles a CPU (the :class:`~repro.core.processor.Processor`), a
direct-mapped cache, the protocol-dependent buffering (write buffer,
coalescing buffer), a protocol processor, a local bus, a memory module,
and the directory slice for the blocks homed here.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from repro.cache import Cache, CoalescingBuffer, WriteBuffer
from repro.config import SystemConfig
from repro.engine.resource import Resource
from repro.mem.dram import MemoryModule
from repro.stats.counters import ProcStats


class Node:
    """Hardware and protocol state local to one node."""

    __slots__ = (
        "id",
        "config",
        "cache",
        "wb",
        "cbuf",
        "pp",
        "bus",
        "mem",
        "directory",
        "stats",
        "proc",
        "out_count",
        "release_cb",
        "pending_inval",
        "deferred_notices",
        "wb_head_busy",
        "home_busy",
        "home_queue",
        "home_fwd_owner",
        "wb_inflight",
        "lock_state",
        "barrier_state",
        "acq_inv_done",
        "msi_pending",
        "fill_pending",
        "fill_fixup",
        "fill_reply_pending",
        "fwd_deferred",
        "wb_fetching",
        "local_evicts",
        "wt_drain_busy",
        "wt_inflight",
        "wt_waiters",
        "pts",
        "ts_lease",
        "ts_dirty",
        "tracer",
        "checker",
    )

    def __init__(self, node_id: int, config: SystemConfig, stats: ProcStats) -> None:
        self.id = node_id
        self.config = config
        self.cache = Cache(config, node_id)
        self.wb: Optional[WriteBuffer] = None        # set by protocol
        self.cbuf: Optional[CoalescingBuffer] = None  # set by lazy protocols
        self.pp = Resource(f"pp[{node_id}]")
        self.bus = Resource(f"bus[{node_id}]")
        self.mem = MemoryModule(config, node_id)
        self.directory = None                         # set by protocol
        self.stats = stats
        self.proc = None                              # set by machine
        # Outstanding coherence transactions that a release must wait on.
        self.out_count = 0
        self.release_cb: Optional[Callable] = None
        # Lazy protocols: blocks to invalidate at the next acquire.
        self.pending_inval: Set[int] = set()
        # Lazy-ext: written blocks whose write notice is deferred.
        self.deferred_notices: Set[int] = set()
        # Eager/SC write-buffer drain: head transaction in flight.
        self.wb_head_busy = False
        # Home-side per-block serialization (MSI protocols).
        self.home_busy: Set[int] = set()
        self.home_queue = {}
        # Open read-forward transactions homed here: block -> the dirty
        # owner the line was forwarded away from.  Lets a writeback that
        # raced with the forward unlist the stale sharer (the directory's
        # read transition keeps the old owner in the sharer set); see
        # msi_home.MSIHomeMixin._h_evict_wb.
        self.home_fwd_owner = {}
        # Evictor-side: dirty blocks this node has pushed out whose
        # WRITEBACK may still be in flight (strictly node-local — the
        # home infers the flight from its own directory, never from
        # this set; see msi_home.MSIHomeMixin.handle_eviction).
        self.wb_inflight: Set[int] = set()
        # Synchronization manager state (for locks/barriers homed here).
        self.lock_state = {}
        self.barrier_state = {}
        # Completion time of acquire-time invalidation processing.
        self.acq_inv_done = 0
        # Home-side ack-collection records (MSI protocols): block -> dict.
        self.msi_pending = {}
        # MSI requester side: block -> number of fills in flight, and
        # block -> state forced on arrival when a coherence message
        # (invalidation / ownership forward) overtook the fill in the
        # network.  The fill is still consumed once by the waiting
        # access — DASH's RAC "use once, then invalidate" semantics.
        self.fill_pending = {}
        self.fill_fixup = {}
        # Fill *replies* in flight to this node (block -> count) —
        # distinct from fill_pending, which counts outstanding requests
        # (the reply may not exist yet if the request is queued at a
        # busy home).  A coherence forward that arrives while a reply is
        # in flight waits for it (DASH's RAC use-once handling); see
        # msi_home.MSIHomeMixin.
        self.fill_reply_pending = {}
        # Forwards waiting for an in-flight fill reply: block -> [(kind, args)].
        self.fwd_deferred = {}
        # Lazy protocols: write-buffer entries with an outstanding fetch.
        self.wb_fetching: Set[int] = set()
        # Lazy protocols: eviction notices sent to this node's own home
        # slice and not yet handled (block -> delivery time).  A later
        # request for the block is held behind its notice (see
        # lrc.LRCProtocol._local_hold).
        self.local_evicts = {}
        # Lazy protocols: number of background coalescing-buffer flushes
        # currently in flight.
        self.wt_drain_busy = 0
        # Lazy protocols: per-block write-throughs in flight from this
        # node (block -> count), and misses waiting for them.  A miss to
        # a line with our own write-through outstanding must not overtake
        # it to the home (read-own-write would break): it is held here
        # until the ack returns.
        self.wt_inflight = {}
        self.wt_waiters = {}
        # Tardis: per-processor logical timestamp, read leases of the
        # resident lines (block -> rts), and blocks written since the
        # last release (whose wts must be bumped at the next release).
        self.pts = 0
        self.ts_lease = {}
        self.ts_dirty: Set[int] = set()
        # Observability (set by Machine when tracing / checking is on).
        self.tracer = None
        self.checker = None

    # -- outstanding-transaction bookkeeping -------------------------------------

    def txn_start(self) -> None:
        self.out_count += 1
        if self.tracer is not None:
            self.tracer.emit("txn_start", self.id, out=self.out_count)
        if self.checker is not None:
            self.checker.dirty_nodes.add(self.id)

    def txn_done(self, t: int) -> None:
        self.out_count -= 1
        if self.tracer is not None:
            self.tracer.emit("txn_done", self.id, t=t, out=self.out_count)
        if self.checker is not None:
            self.checker.dirty_nodes.add(self.id)
        if self.out_count < 0:
            raise RuntimeError(f"node {self.id}: negative outstanding count")
        if self.out_count == 0:
            self.check_release(t)

    def check_release(self, t: int) -> None:
        """Fire the pending release continuation if all conditions hold."""
        cb = self.release_cb
        if (
            cb is not None
            and self.out_count == 0
            and (self.wb is None or self.wb.empty)
            and (self.cbuf is None or self.cbuf.empty)
        ):
            self.release_cb = None
            cb(t)

    def release_fired(self, t: int) -> None:
        """Observability hook: a release continuation is about to run.

        Called through the guard :meth:`repro.protocols.base.Protocol._guard_release`
        wraps around every release-semantics continuation, so it fires on
        both the immediate path and the deferred ``release_cb`` path.
        """
        if self.checker is not None:
            self.checker.on_release_fire(self, t)
        if self.tracer is not None:
            self.tracer.emit("release_fire", self.id, t=t)
