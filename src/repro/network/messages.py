"""Message taxonomy and traffic accounting.

The protocols exchange a small set of message types.  Control messages
carry only a header (their transit cost is hop latency alone, matching
the paper's worked example); data messages additionally serialize a
cache line through the network and the endpoints.
"""

from __future__ import annotations

from collections import Counter
from enum import IntEnum


class MsgType(IntEnum):
    """All message kinds used by the four protocols."""

    READ_REQ = 0          # read miss request to home
    WRITE_REQ = 1         # write miss / upgrade / write-notice request to home
    DATA_REPLY = 2        # home -> requester, carries a line
    ACK = 3               # generic acknowledgment
    INVALIDATE = 4        # eager: home -> sharer, invalidate now
    WRITE_NOTICE = 5      # lazy: home -> sharer, invalidate at next acquire
    FORWARD = 6           # eager: home -> dirty owner, forward request
    OWNER_DATA = 7        # eager: owner -> requester, 3-hop data leg
    WRITEBACK = 8         # dirty data back to home (eviction / sharing wb)
    WRITE_THROUGH = 9     # lazy: coalescing-buffer flush to home memory
    EVICT_NOTICE = 10     # replacement hint to home (no data)
    RELINQUISH = 11       # lazy: "no longer caching" after acquire-invalidate
    LOCK_REQ = 12
    LOCK_GRANT = 13
    LOCK_RELEASE = 14
    BARRIER_ARRIVE = 15
    BARRIER_EXIT = 16
    FLAG_SET = 17         # producer: release semantics done, set the flag
    FLAG_WAIT = 18        # consumer: block until the flag is set
    FLAG_GRANT = 19       # home -> consumer, flag observed set
    RD_ACK = 20           # reliable-delivery cumulative ack (faults only)
    TS_BUMP = 21          # tardis: advance a block's write timestamp at home


#: Message types that carry a full cache line of payload.
DATA_BEARING = frozenset(
    {MsgType.DATA_REPLY, MsgType.OWNER_DATA, MsgType.WRITEBACK}
)


#: Reliable-delivery / fault-injection counters (kept separate from the
#: per-type logical counters so the paper-figure bandwidth numbers keep
#: meaning "messages the protocol asked for"; all zero when faults are
#: off).
RELIABILITY_COUNTERS = (
    "retransmits",      # extra physical transmissions after a timeout
    "dup_drops",        # arrivals discarded by receiver-side dedup
    "drops_injected",   # messages the fault plan lost in flight
    "dups_injected",    # duplicate copies the fault plan created
    "delays_injected",  # messages given extra transit jitter
)


class MessageStats:
    """Global traffic counters, by message type."""

    __slots__ = ("count", "bytes", "total_hops") + RELIABILITY_COUNTERS

    def __init__(self) -> None:
        self.count: Counter = Counter()
        self.bytes: Counter = Counter()
        self.total_hops: int = 0
        self.retransmits: int = 0
        self.dup_drops: int = 0
        self.drops_injected: int = 0
        self.dups_injected: int = 0
        self.delays_injected: int = 0

    @property
    def total_messages(self) -> int:
        return sum(self.count.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes.values())

    def as_dict(self) -> dict:
        return {
            MsgType(k).name: (self.count[k], self.bytes[k]) for k in self.count
        }

    # -- serialization (result store) -----------------------------------------

    def to_dict(self) -> dict:
        return {
            "count": {MsgType(k).name: v for k, v in self.count.items()},
            "bytes": {MsgType(k).name: v for k, v in self.bytes.items()},
            "total_hops": self.total_hops,
            "reliability": {
                name: getattr(self, name) for name in RELIABILITY_COUNTERS
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MessageStats":
        s = cls()
        s.count = Counter({MsgType[k]: v for k, v in d["count"].items()})
        s.bytes = Counter({MsgType[k]: v for k, v in d["bytes"].items()})
        s.total_hops = d["total_hops"]
        # Absent in results stored before the fault subsystem existed.
        rel = d.get("reliability") or {}
        for name in RELIABILITY_COUNTERS:
            setattr(s, name, rel.get(name, 0))
        return s
