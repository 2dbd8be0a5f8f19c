"""Lazy release consistency for hardware-coherent multiprocessors.

The paper's primary contribution (Section 2).  Key properties:

* **Multiple concurrent writers.**  A write to a block cached read-only
  retires immediately — the home is informed (a write notice is sent
  right away, overlapped with computation) but the writer does not wait
  for ownership.  There is no serializing owner.
* **Lazy invalidations.**  Write notices received by a sharer are only
  *recorded*; the lines are invalidated at the sharer's next acquire
  (much of that work is hidden behind the lock-acquisition latency).
* **2-hop reads, always.**  The home never forwards a read: with
  write-through caches its memory is always current enough ("If it is
  being written, then the fact that the read occurred indicates that no
  synchronization operation separates the write from the read" — true
  sharing is not occurring).
* **Write-through + coalescing buffer.**  Required for correctness with
  multiple writers (word-granularity merging in memory); a 16-entry
  coalescing buffer keeps the traffic at write-back levels and keeps
  releases cheap.
* **Releases** stall until the write buffer has drained, every
  outstanding transaction (write notices awaiting home acknowledgement,
  coalescing-buffer flushes) has completed, and memory has acknowledged
  the write-throughs.
"""

from __future__ import annotations

from typing import Set

from repro.cache.coalescing_buffer import CoalescingBuffer
from repro.cache.state import INVALID, RO, RW
from repro.cache.write_buffer import WriteBuffer
from repro.directory.lazy import LazyDirectory
from repro.network.messages import MsgType
from repro.protocols.base import Protocol


class LRCProtocol(Protocol):
    name = "lrc"
    uses_write_buffer = True
    write_through = True
    dir_cost_attr = "lrc_dir_cost"

    def make_directory(self):
        return LazyDirectory()

    def attach_node(self, node) -> None:
        node.directory = self.make_directory()
        node.wb = WriteBuffer(self.cfg.wb_entries)
        node.cbuf = CoalescingBuffer(self.cfg.cbuf_entries)

    # ==========================================================================
    # CPU side
    # ==========================================================================

    def cpu_read_miss(self, node, t: int, block: int) -> None:
        if node.wt_inflight.get(block):
            # Our own write-through for this line is still traveling: a
            # read request (control channel) would overtake it (data
            # channel) and the home would serve the pre-write line,
            # breaking read-own-write.  Hold the miss until the ack.
            node.wt_waiters.setdefault(block, []).append("read")
            return
        self._send_read_req(node, t, block)

    def _send_read_req(self, node, t: int, block: int) -> None:
        self.fabric.send(
            node.id,
            self.home_of(block),
            MsgType.READ_REQ,
            self._local_hold(node, t, block),
            self._h_read_req,
            block,
            node.id,
        )

    def cpu_write(self, node, t: int, block: int, word: int) -> int:
        state = node.cache.lookup(block)
        obs = self.machine.classifier
        if state == RW:
            # Fast path fell through only because the coalescing buffer
            # has no live entry for this block: start one.
            self._cbuf_add(node, t, block, {word})
            return t + 1
        if state == RO:
            # The write retires immediately: no need to wait for the home
            # ("we do not need to use the home node as a serializing
            # point").  The notice transaction proceeds in the background.
            node.stats.upgrade_misses += 1
            if obs is not None:
                obs.classify_write_upgrade(node.id, block, t)
            node.cache.upgrade(block)
            self._cbuf_add(node, t, block, {word})
            self._send_write_notice(node, t, block, has_copy=True)
            return t + 1
        # Line absent: the write buffer holds the words until the line
        # arrives from the home.
        wb = node.wb
        existing = wb.contains(block)
        if not wb.add(block, word):
            return -1
        if not existing:  # new entry: start the fetch
            node.stats.write_misses += 1
            if obs is not None:
                obs.classify_miss(node.id, block, word, t)
            self._issue_write_fetch(node, t, block)
        return t + 1

    def _issue_write_fetch(self, node, t: int, block: int) -> None:
        node.wb_fetching.add(block)
        node.txn_start()
        if node.wt_inflight.get(block):
            # Same ordering rule as cpu_read_miss: the fetch reply would
            # otherwise carry the line as it was before our own in-flight
            # write-through merged.
            node.wt_waiters.setdefault(block, []).append("fetch")
            return
        self._send_write_fetch(node, t, block)

    def _send_write_fetch(self, node, t: int, block: int) -> None:
        self.fabric.send(
            node.id,
            self.home_of(block),
            MsgType.WRITE_REQ,
            self._local_hold(node, t, block),
            self._h_write_req,
            block,
            node.id,
            False,
        )

    def _local_hold(self, node, t: int, block: int) -> int:
        """Send time of a fetch for ``block`` that must not overtake the
        node's own eviction notice for it.

        A remote fetch rides the same control channel as the notice and
        arrives after it.  A local message is handled at its send time,
        and an eviction notice goes out at the fill's bus time, which can
        lie after a later miss's send time: the home would register the
        re-fetch, then drop the sharer the stale notice names, leaving
        the refilled line unlisted.  Such a fetch waits for the notice.
        """
        held = node.local_evicts.get(block)
        return held if held is not None and held > t else t

    def _send_write_notice(self, node, t: int, block: int, has_copy: bool) -> None:
        node.txn_start()
        self.fabric.send(
            node.id,
            self.home_of(block),
            MsgType.WRITE_REQ,
            t,
            self._h_write_req,
            block,
            node.id,
            has_copy,
        )

    # -- coalescing buffer -----------------------------------------------------------

    def _cbuf_add(self, node, t: int, block: int, words: Set[int]) -> None:
        if node.release_cb is not None:
            # A release fence is already waiting: write-buffer entries that
            # retire now must go straight through to memory, or the fence
            # would deadlock waiting for a buffer it already drained.
            self._flush_words(node, t, block, words)
            return
        victim = node.cbuf.add(block, words)
        if victim is not None:
            self._flush_words(node, t, victim[0], victim[1])
        else:
            self._kick_drain(node, t)

    #: Maximum concurrent background write-through flushes per node.
    DRAIN_WIDTH = 4

    def _kick_drain(self, node, t: int) -> None:
        """Background drain (Jouppi-style coalescing write buffer).

        The buffer retains the most recent entry so a burst of writes to
        one line coalesces into a single memory update, but older entries
        drain continuously — up to DRAIN_WIDTH flushes in flight — so
        releases only wait for a short tail instead of the whole buffer.
        """
        while node.wt_drain_busy < self.DRAIN_WIDTH and len(node.cbuf) >= 2:
            head = node.cbuf.order[0]
            words = node.cbuf.remove(head)
            node.wt_drain_busy += 1
            self._flush_words(node, t, head, words, background=True)

    def _flush_words(
        self, node, t: int, block: int, words: Set[int], background: bool = False
    ) -> None:
        """Write dirty words through to the home memory (asks for an ack)."""
        node.txn_start()
        node.wt_inflight[block] = node.wt_inflight.get(block, 0) + 1
        self.stats.write_throughs += 1
        size = len(words) * self.cfg.word_size
        vm = self.machine.valmodel
        self.fabric.send(
            node.id,
            self.home_of(block),
            MsgType.WRITE_THROUGH,
            t,
            self._h_write_through,
            block,
            node.id,
            size,
            background,
            vm.flush_capture(node.id, block, words) if vm is not None else None,
            size=size,
        )

    def _h_write_through(
        self, t: int, block: int, src: int, size: int, background: bool, data=None
    ) -> None:
        home = self.nodes[self.home_of(block)]
        vm = self.machine.valmodel
        if vm is not None:
            vm.apply_home(block, data)
        tm = home.mem.write(t, size)
        self.fabric.send(
            home.id, src, MsgType.ACK, tm, self._h_wt_ack, src, background, block
        )

    def _h_wt_ack(self, t: int, src: int, background: bool, block: int) -> None:
        node = self.nodes[src]
        node.txn_done(t)
        if background:
            node.wt_drain_busy -= 1
            if node.checker is not None:
                # txn_done may have fired a release (and its scan) first.
                node.checker.dirty_nodes.add(node.id)
        left = node.wt_inflight[block] - 1
        if left:
            node.wt_inflight[block] = left
        else:
            del node.wt_inflight[block]
            for kind in node.wt_waiters.pop(block, ()):
                self._wt_waiter_resume(node, t, block, kind)
        if background:
            self._kick_drain(node, t)

    def _wt_waiter_resume(self, node, t: int, block: int, kind: str) -> None:
        """Resume one message held behind this block's write-throughs.
        Subclasses add waiter kinds (tardis queues timestamp bumps)."""
        if kind == "read":
            self._send_read_req(node, t, block)
        else:
            self._send_write_fetch(node, t, block)

    # ==========================================================================
    # Release / acquire semantics
    # ==========================================================================

    def _pre_release(self, node, t: int, cont) -> None:
        # Flush the coalescing buffer; the resulting write-throughs (and
        # any outstanding notices/fetches) must be acknowledged before
        # the release completes.
        for block, words in node.cbuf.drain():
            self._flush_words(node, t, block, words)
        super()._pre_release(node, t, cont)

    def _process_pending_invals(self, node, t: int) -> int:
        """Invalidate every line named by a received write notice.

        Each invalidation occupies the protocol processor briefly and
        sends a "no longer caching" message to the home so the block can
        revert toward SHARED/UNCACHED.  Returns the completion time.
        """
        pend = node.pending_inval
        if not pend:
            return t
        obs = self.machine.classifier
        pp = node.pp
        cost = self.cfg.notice_cost
        for block in sorted(pend):
            t = pp.reserve(t, cost)
            if node.cache.invalidate(block):
                node.stats.acquire_invalidations += 1
                self.stats.acquire_invalidations += 1
                if obs is not None:
                    obs.record_invalidation(node.id, block, t)
                # Unflushed words for a dying line must reach memory for
                # the multiple-writer merge to be correct.
                words = node.cbuf.remove(block)
                if words:
                    self._flush_words(node, t, block, words)
                self.fabric.send(
                    node.id,
                    self.home_of(block),
                    MsgType.RELINQUISH,
                    t,
                    self._h_relinquish,
                    block,
                    node.id,
                )
        pend.clear()
        return t

    def _h_relinquish(self, t: int, block: int, src: int) -> None:
        home = self.nodes[self.home_of(block)]
        if src == home.id and home.local_evicts.get(block) == t:
            del home.local_evicts[block]
        home.pp.reserve(t, self.cfg.notice_cost)
        home.directory.remove(block, src)

    # ==========================================================================
    # Home side
    # ==========================================================================

    def _h_read_req(self, t: int, block: int, requester: int) -> None:
        home = self.nodes[self.home_of(block)]
        tp = home.pp.reserve(t, self.cfg.lrc_dir_cost)
        out = home.directory.read(block, requester)
        # Directory processing is hidden behind the memory access.
        tm = home.mem.read(t, self.cfg.line_size)
        treply = tp if tp > tm else tm
        # A read of a dirty block notifies the current writer (footnote 1).
        # The notice is informational: no ack is collected, and the writer
        # does not invalidate (its copy is complete — see directory/lazy).
        td = treply
        for w in out.notices_to:
            td = home.pp.reserve(td, self.cfg.notice_cost)
            self.stats.notices_sent += 1
            self.fabric.send(
                home.id,
                w,
                MsgType.WRITE_NOTICE,
                td,
                self._h_notice_info,
                block,
                w,
            )
        vm = self.machine.valmodel
        self.fabric.send(
            home.id,
            requester,
            MsgType.DATA_REPLY,
            treply,
            self._h_read_fill,
            block,
            requester,
            out.weak_for_reader,
            vm.home_line(block) if vm is not None else None,
        )

    def _h_read_fill(
        self, t: int, block: int, requester: int, weak: bool, data=None
    ) -> None:
        node = self.nodes[requester]
        t_fill = node.bus.reserve(t, self.cfg.bus_time(self.cfg.line_size))
        self._install_line(node, t_fill, block, RO)
        if weak:
            node.pending_inval.add(block)
        vm = self.machine.valmodel
        if vm is not None:
            vm.fill(requester, block, data)
            vm.read_fill(requester, block)
        node.proc.unblock(t_fill)

    def _h_write_req(self, t: int, block: int, requester: int, has_copy: bool) -> None:
        home = self.nodes[self.home_of(block)]
        tp = home.pp.reserve(t, self.cfg.lrc_dir_cost)
        e = home.directory.entry(block)
        out = home.directory.write(block, requester, has_copy)
        awaiting = bool(out.notices_to) or e.pending_acks > 0
        # Data reply (if the writer lacks the line) is sent immediately —
        # the writer can retire the buffered words; the *final* ack that
        # the release fence waits on may come later, after notice acks.
        if out.needs_data:
            tm = home.mem.read(t, self.cfg.line_size)
            vm = self.machine.valmodel
            self.fabric.send(
                home.id,
                requester,
                MsgType.DATA_REPLY,
                tp if tp > tm else tm,
                self._h_write_fill,
                block,
                requester,
                out.weak_for_writer,
                not awaiting,
                vm.home_line(block) if vm is not None else None,
            )
        td = tp
        for s in out.notices_to:
            td = home.pp.reserve(td, self.cfg.notice_cost)
            self.stats.notices_sent += 1
            self.fabric.send(
                home.id, s, MsgType.WRITE_NOTICE, td, self._h_notice, block, s, True
            )
        if awaiting:
            # Join the (possibly already open) ack collection; the home
            # acknowledges every waiting writer at once when the count
            # reaches zero.  The weak-for-writer flag rides along so a
            # multi-writer upgrade still learns to self-invalidate.
            e.pending_acks += len(out.notices_to)
            e.pending_requesters.append((requester, out.weak_for_writer and not out.needs_data))
        elif not out.needs_data:
            self.fabric.send(
                home.id,
                requester,
                MsgType.ACK,
                tp,
                self._h_final_ack_blk,
                requester,
                out.weak_for_writer,
                block,
            )

    def _h_write_fill(
        self, t: int, block: int, requester: int, weak: bool, final: bool, data=None
    ) -> None:
        """Data for a write miss: install RW and retire buffered words."""
        node = self.nodes[requester]
        t_fill = node.bus.reserve(t, self.cfg.bus_time(self.cfg.line_size))
        self._install_line(node, t_fill, block, RW)
        vm = self.machine.valmodel
        if vm is not None:
            vm.fill(requester, block, data)
        node.wb_fetching.discard(block)
        if weak:
            node.pending_inval.add(block)
        self._retire_ready_wb(node, t_fill)
        if final:
            node.txn_done(t_fill)

    def _retire_ready_wb(self, node, t: int) -> None:
        """Retire write-buffer entries in FIFO order while the head's
        line is present read-write.  If the head's line was displaced by
        an intervening fill (direct-mapped conflict) its fetch is
        reissued — otherwise the entry could never retire."""
        wb = node.wb
        vm = self.machine.valmodel
        retired = False
        while not wb.empty:
            head = wb.head()
            if node.cache.lookup(head) == RW:
                words = wb.retire_head()
                if vm is not None:
                    vm.wb_retire(node.id, head)
                self._cbuf_add(node, t, head, words)
                retired = True
            else:
                if head not in node.wb_fetching:
                    self._issue_write_fetch(node, t, head)
                break
        if retired:
            proc = node.proc
            if proc.blocked_on_write_buffer:
                proc.unblock(t)
            node.check_release(t)

    def _h_notice(self, t: int, block: int, target: int, needs_ack: bool) -> None:
        tnode = self.nodes[target]
        tp = tnode.pp.reserve(t, self.cfg.notice_cost)
        tnode.pending_inval.add(block)
        if needs_ack:
            home_id = self.home_of(block)
            self.fabric.send(
                tnode.id, home_id, MsgType.ACK, tp, self._h_notice_ack, block
            )

    def _h_notice_info(self, t: int, block: int, target: int) -> None:
        """Informational notice to a dirty block's writer on a read-induced
        weak transition: protocol-processor cost only, no invalidation."""
        self.nodes[target].pp.reserve(t, self.cfg.notice_cost)

    def _h_notice_ack(self, t: int, block: int) -> None:
        home = self.nodes[self.home_of(block)]
        e = home.directory.entry(block)
        e.pending_acks -= 1
        if e.pending_acks == 0 and e.pending_requesters:
            tp = home.pp.reserve(t, self.cfg.notice_cost)
            for req, weak in e.pending_requesters:
                self.fabric.send(
                    home.id,
                    req,
                    MsgType.ACK,
                    tp,
                    self._h_final_ack_blk,
                    req,
                    weak,
                    block,
                )
            e.pending_requesters = []

    def _h_final_ack_blk(self, t: int, requester: int, weak: bool, block: int) -> None:
        node = self.nodes[requester]
        if weak:
            node.pending_inval.add(block)
        node.txn_done(t)

    # ==========================================================================
    # Evictions
    # ==========================================================================

    def handle_eviction(self, node, t: int, vblock: int, vstate: int) -> None:
        if self.machine.classifier is not None:
            self.machine.classifier.record_eviction(node.id, vblock, t)
        # Dirty words still coalescing must reach memory.
        words = node.cbuf.remove(vblock)
        if words:
            self._flush_words(node, t, vblock, words)
        # No need to remember notices for lines no longer cached.
        node.pending_inval.discard(vblock)
        home_id = self.home_of(vblock)
        if home_id == node.id:
            node.local_evicts[vblock] = t
        self.fabric.send(
            node.id,
            home_id,
            MsgType.EVICT_NOTICE,
            t,
            self._h_relinquish,
            vblock,
            node.id,
        )
