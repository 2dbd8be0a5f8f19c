"""The interconnect fabric: endpoint-contended message delivery.

Timing model (Section 3 of the paper):

* transit of a control message  = ``(switch + wire) * hops``
* transit of a data message     = ``(switch + wire) * hops + size / net_bw``
* contention is modeled at the sending and receiving network interfaces
  (serially-occupied resources), not at intermediate switches.

A message injected at time ``t`` starts leaving the source NIC at
``max(t, nic_out.free_at)``; its tail occupies the NIC for the
serialization time; it arrives at the destination after the transit
latency; and it is handed to the destination protocol processor no
earlier than the receive NIC frees up.

Delivery is two-phase, and the phase split is what makes the schedule
*partition-independent* (DESIGN.md §14): the send books only the source
NIC and computes the wire-arrival time; the receive NIC is booked by an
arrival event carried on the remote lane of the event queue, keyed
``(arrival, src, src_seq)``.  Receive-side contention is therefore
resolved in canonical arrival order — never in the order sends happened
to execute — so a sharded run books the destination NIC in exactly the
serial order.
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.config import SystemConfig
from repro.engine.resource import Resource
from repro.engine.simulator import Simulator
from repro.network.messages import DATA_BEARING, MessageStats, MsgType
from repro.network.topology import Mesh


class Fabric:
    """Point-to-point message delivery over the mesh.

    Each endpoint has two virtual channels — control and data — so small
    coherence requests never serialize behind line-sized transfers (the
    request/reply network split of DASH-class machines).  Contention is
    modeled within each channel.
    """

    def __init__(self, config: SystemConfig, sim: Simulator) -> None:
        self.config = config
        self.sim = sim
        self.mesh = Mesh(config)
        self.stats = MessageStats()
        n = config.n_procs
        self.nic_out: List[Resource] = [Resource(f"nic_out[{i}]") for i in range(n)]
        self.nic_in: List[Resource] = [Resource(f"nic_in[{i}]") for i in range(n)]
        self.nic_out_ctl: List[Resource] = [
            Resource(f"nic_out_ctl[{i}]") for i in range(n)
        ]
        self.nic_in_ctl: List[Resource] = [
            Resource(f"nic_in_ctl[{i}]") for i in range(n)
        ]
        # Per-source send counters: the canonical remote-lane tie-break.
        # Incremented in the sender's own (deterministic) execution order,
        # so the key never depends on cross-node event interleaving.
        self._sseq: List[int] = [0] * n
        # Per-message constants hoisted out of send(): transit per hop,
        # NIC occupancies of control and line-sized messages (other
        # sizes, e.g. partial coalescing flushes, ask the config), the
        # shared hop table, and the simulator's scheduling entry points
        # (bound methods, so a sharded simulator's overrides still route).
        self._hop_lat = config.hop_latency
        self._line = config.line_size
        self._occ_ctl = config.nic_occupancy(0)
        self._occ_line = config.nic_occupancy(config.line_size)
        self._hops = self.mesh.hop_table
        self._n = n
        self._sim_at = sim.at
        self._sim_remote = sim.deliver_remote
        # Event tracer (set by Machine when tracing is on).
        self.tracer = None

    def payload_size(self, mtype: MsgType) -> int:
        return self._line if mtype in DATA_BEARING else 0

    def send(
        self,
        src: int,
        dst: int,
        mtype: MsgType,
        t: int,
        handler: Callable,
        *args: Any,
        size: int = -1,
    ) -> int:
        """Send a message; schedule ``handler(deliver_time, *args)``.

        ``size`` overrides the payload size implied by the message type
        (used by coalescing-buffer flushes, which carry only the dirty
        words).  Returns the wire-arrival time (local sends: ``t``); the
        exact hand-off time additionally waits out receive-NIC
        contention, resolved at arrival.
        """
        if size < 0:
            size = self._line if mtype in DATA_BEARING else 0
        stats = self.stats
        stats.count[mtype] += 1
        stats.bytes[mtype] += size
        if src == dst:
            # Local delivery: no network traversal, only the protocol
            # processor hand-off (modeled by the handler's own costs).
            if self.tracer is not None:
                self.tracer.emit(
                    "msg", src, t=t, dst=dst, type=mtype.name, size=size,
                    arrival=t,
                )
            self._sim_at(t, handler, t, *args)
            return t
        hops = self._hops[src * self._n + dst]
        stats.total_hops += hops
        if size:
            if size == self._line:
                occ = self._occ_line
            else:
                occ = self.config.nic_occupancy(size)
            start = self.nic_out[src].enqueue(t, occ)
            arrival = start + self._hop_lat * hops + occ
            nic_in = self.nic_in[dst]
        else:
            occ = self._occ_ctl
            start = self.nic_out_ctl[src].enqueue(t, occ)
            arrival = start + self._hop_lat * hops
            nic_in = self.nic_in_ctl[dst]
        if self.tracer is not None:
            self.tracer.emit(
                "msg", src, t=t, dst=dst, type=mtype.name, size=size,
                arrival=arrival,
            )
        sseq = self._sseq[src]
        self._sseq[src] = sseq + 1
        self._sim_remote(
            arrival, src, sseq, dst, self._arrive, nic_in, occ, handler, args
        )
        return arrival

    def _arrive(
        self, nic_in: Resource, occ: int, handler: Callable, args: tuple
    ) -> None:
        """Arrival phase: book the receive NIC, then hand off.

        Runs at the destination (in sharded mode: in the destination's
        shard), so the receive NIC is contended in canonical arrival
        order regardless of where the send executed.
        """
        t = self.sim.now
        deliver = nic_in.enqueue(t, occ)
        if deliver == t:
            handler(t, *args)
        else:
            self._sim_at(deliver, handler, deliver, *args)

    def utilization(self) -> dict:
        """Per-endpoint busy fractions at the current simulated time."""
        now = max(self.sim.now, 1)
        return {
            "out": [r.busy_cycles / now for r in self.nic_out],
            "in": [r.busy_cycles / now for r in self.nic_in],
        }


class ShardBoundary:
    """Cross-shard delivery proxy for the sharded scheduler.

    Remote deliveries whose destination lives in another shard are
    queued here — with their canonical ``(arrival, src, src_seq)`` keys
    already assigned — and drained into the destination shards' event
    queues at the epoch barrier.  The conservative window guarantees
    every queued arrival is at or beyond the next epoch's start, so
    draining at the barrier can never deliver into a shard's past.
    """

    __slots__ = ("pending", "count")

    def __init__(self, n_shards: int) -> None:
        self.pending: List[list] = [[] for _ in range(n_shards)]
        self.count = 0

    def route(
        self,
        dst_shard: int,
        time: int,
        src: int,
        src_seq: int,
        callback: Callable,
        args: tuple,
    ) -> None:
        self.pending[dst_shard].append((time, src, src_seq, callback, args))
        self.count += 1

    def exchange(self, queues) -> None:
        """Drain every queued cross-shard arrival into its shard's queue."""
        if not self.count:
            return
        for queue, recs in zip(queues, self.pending):
            if recs:
                for time, src, src_seq, callback, args in recs:
                    queue.push_remote(time, src, src_seq, callback, args)
                recs.clear()
        self.count = 0
