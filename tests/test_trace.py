"""Tracer and invariant-checker tests.

Covers the :mod:`repro.trace` subsystem itself (ring buffer, export,
violation windows), checker trips against deliberately broken protocol
variants and hand-corrupted state, the regression for the
invalidation-passes-fill race the checker originally surfaced, and the
4-protocols x 7-apps end-of-run sweep asserting that tracing + checking
never change a simulated cycle.
"""

import io
import json
from collections import deque

import pytest

from repro import Machine, SystemConfig
from repro.apps import APPS, AppContext
from repro.harness.presets import APP_ORDER, APP_PRESETS_SMALL, bench_config
from repro.network.messages import MsgType
from repro.program.ops import (
    ACQUIRE,
    BARRIER,
    COMPUTE,
    FENCE,
    READ,
    RELEASE,
    SET_FLAG,
    WAIT_FLAG,
    WRITE,
    WRITE_RUN,
)
from repro.protocols import PROTOCOLS
from repro.protocols.lrc import LRCProtocol
from repro.trace import InvariantChecker, InvariantViolation, Tracer

ALL_PROTOCOLS = ["sc", "erc", "lrc", "lrc-ext", "tardis"]


def cfg(n=4, **kw):
    kw.setdefault("cache_size", 8 * 128)
    return SystemConfig.scaled(n_procs=n, **kw)


class _FakeSim:
    now = 17


# ---------------------------------------------------------------------------
# Tracer unit tests
# ---------------------------------------------------------------------------

class TestTracer:
    def test_ring_keeps_most_recent(self):
        tr = Tracer(_FakeSim(), capacity=4)
        for i in range(10):
            tr.emit("msg", 0, t=i, idx=i)
        assert len(tr) == 4
        assert tr.emitted == 10
        assert tr.dropped == 6
        assert [ev[0] for ev in tr.buf] == [6, 7, 8, 9]

    def test_default_time_is_sim_now(self):
        tr = Tracer(_FakeSim())
        seq = tr.emit("msg", 3)
        assert seq == 0
        assert list(tr.buf)[0][1] == 17

    def test_filters_tail_window(self):
        tr = Tracer(_FakeSim(), capacity=64)
        for i in range(20):
            tr.emit("msg" if i % 2 else "cache_inval", i % 3, t=i)
        assert all(ev[2] == "msg" for ev in tr.events(kind="msg"))
        assert all(ev[3] == 1 for ev in tr.events(node=1))
        assert [ev[0] for ev in tr.tail(3)] == [17, 18, 19]
        assert tr.tail(0) == []
        win = tr.window(10, before=2, after=2)
        assert [ev[0] for ev in win] == [8, 9, 10, 11, 12]

    def test_jsonl_export_round_trips(self):
        tr = Tracer(_FakeSim(), capacity=8)
        tr.emit("wb_add", 1, t=5, block=9, words={3, 1})
        out = io.StringIO()
        assert tr.to_jsonl(out) == 1
        rec = json.loads(out.getvalue())
        assert rec == {
            "seq": 0, "t": 5, "kind": "wb_add", "node": 1,
            "block": 9, "words": [1, 3],
        }
        line = Tracer.format_event(list(tr.buf)[0])
        assert "wb_add" in line and "block=9" in line

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(_FakeSim(), capacity=0)


# ---------------------------------------------------------------------------
# End-to-end tracing: events appear, cycle counts never move
# ---------------------------------------------------------------------------

def _two_proc_programs(seg):
    def prog(pid):
        if pid == 0:
            yield (ACQUIRE, 0)
            yield (WRITE_RUN, seg, 32, 4)
            yield (RELEASE, 0)
            yield (SET_FLAG, 1)
            yield (BARRIER, 9)
        else:
            yield (WAIT_FLAG, 1)
            yield (ACQUIRE, 0)
            yield (READ, seg)
            yield (RELEASE, 0)
            yield (BARRIER, 9)

    return prog


@pytest.mark.parametrize("proto", ALL_PROTOCOLS)
class TestTracingEndToEnd:
    def test_trace_records_protocol_activity(self, proto):
        m = Machine(cfg(2), protocol=proto, trace=True, check_invariants=True)
        seg = m.space.alloc(4096, "a")
        prog = _two_proc_programs(seg.base)
        m.run([prog(0), prog(1)])
        kinds = {ev[2] for ev in m.tracer.buf}
        if proto == "tardis":
            # The timestamp directory has no read/write state machine;
            # its protocol-visible activity is lease grants and bumps.
            assert {"msg", "cache_install", "dir_lease", "dir_bump"} <= kinds
        else:
            assert {"msg", "cache_install", "dir_read", "dir_write"} <= kinds
        # Both sync milestones fired through the guard exactly once per op.
        releases = m.tracer.events(kind="release_fire")
        acquires = m.tracer.events(kind="acquire_done")
        # p0: release, set_flag, barrier; p1: release, barrier = 5 releases.
        assert len(releases) == 5
        # p0: acquire, barrier-exit; p1: wait_flag grant, acquire,
        # barrier-exit = 5 acquire completions.
        assert len(acquires) == 5

    def test_observability_changes_no_cycles(self, proto):
        def run(**obs):
            m = Machine(cfg(2), protocol=proto, **obs)
            seg = m.space.alloc(4096, "a")
            prog = _two_proc_programs(seg.base)
            return m.run([prog(0), prog(1)])

        plain = run()
        observed = run(trace=True, check_invariants=True, check_level="event")
        assert observed.exec_time == plain.exec_time
        assert observed.traffic.total_messages == plain.traffic.total_messages
        assert observed.stats.summary() == plain.stats.summary()


# ---------------------------------------------------------------------------
# The checker trips on deliberately broken protocols / corrupted state
# ---------------------------------------------------------------------------

class BrokenReleaseLRC(LRCProtocol):
    """Fires release continuations without waiting for anything."""

    name = "broken-release"

    def _pre_release(self, node, t, cont):
        cont(t)


class BrokenAcquireLRC(LRCProtocol):
    """Never applies acquire-time invalidations."""

    name = "broken-acquire"

    def _process_pending_invals(self, node, t):
        return t


class TestCheckerTrips:
    def _machine(self, monkeypatch, cls, n=2):
        monkeypatch.setitem(PROTOCOLS, cls.name, cls)
        return Machine(cfg(n), protocol=cls.name, trace=True, check_invariants=True)

    def test_release_fired_early_trips(self, monkeypatch):
        m = self._machine(monkeypatch, BrokenReleaseLRC)
        seg = m.space.alloc(4096, "a")

        def prog(pid):
            if pid == 0:
                yield (ACQUIRE, 0)
                yield (WRITE_RUN, seg.base, 32, 4)
                yield (RELEASE, 0)
            else:
                yield (COMPUTE, 10)

        with pytest.raises(InvariantViolation, match="release fired"):
            m.run([prog(0), prog(1)])

    def test_skipped_acquire_invalidation_trips(self, monkeypatch):
        m = self._machine(monkeypatch, BrokenAcquireLRC)
        seg = m.space.alloc(4096, "a")

        def prog(pid):
            if pid == 1:
                yield (READ, seg.base)        # become a sharer
                yield (BARRIER, 9)
                yield (BARRIER, 10)           # exit processes invals (broken)
            else:
                yield (BARRIER, 9)
                yield (WRITE, seg.base)       # notice goes to the sharer
                yield (FENCE,)                # force it out before the barrier
                yield (BARRIER, 10)

        with pytest.raises(InvariantViolation, match="pending"):
            m.run([prog(0), prog(1)])

    def test_lazy_entry_corruption_trips(self):
        m = Machine(cfg(2), protocol="lrc", check_invariants=True)
        e = m.nodes[0].directory.entry(5)
        e.sharers = {0}
        e.writers = {0, 1}              # writers must be a subset of sharers
        with pytest.raises(InvariantViolation, match="subset"):
            m.checker.scan()

    def test_lazy_state_mismatch_trips(self):
        from repro.directory.entry import WEAK

        m = Machine(cfg(2), protocol="lrc", check_invariants=True)
        e = m.nodes[0].directory.entry(5)
        e.sharers = {0}
        e.state = WEAK                   # one clean sharer cannot be WEAK
        with pytest.raises(InvariantViolation, match="does not match"):
            m.checker.scan()

    def test_negative_acks_and_stranded_requesters_trip(self):
        from repro.directory.entry import SHARED

        m = Machine(cfg(2), protocol="lrc", check_invariants=True)
        e = m.nodes[1].directory.entry(7)
        e.sharers = {0}
        e.state = SHARED
        e.pending_acks = -1
        with pytest.raises(InvariantViolation, match="pending_acks"):
            m.checker.scan()
        e.pending_acks = 0
        e.pending_requesters.append((1, False))
        with pytest.raises(InvariantViolation, match="closed ack collection"):
            m.checker.scan()

    def test_msi_owner_mismatch_trips(self):
        from repro.directory.entry import DIRTY

        m = Machine(cfg(2), protocol="sc", check_invariants=True)
        e = m.nodes[0].directory.entry(3)
        e.state = DIRTY                  # DIRTY requires an owner
        with pytest.raises(InvariantViolation, match="inconsistent with owner"):
            m.checker.scan()

    def test_buffer_desync_trips(self):
        m = Machine(cfg(2), protocol="erc", check_invariants=True)
        m.nodes[0].wb.order.append(12)   # FIFO entry with no word map
        # The corruption bypasses the marking API, so only the
        # whole-machine sweep can see it.
        with pytest.raises(InvariantViolation, match="disagree"):
            m.checker.sweep()

    def _finished_machine(self, proto="lrc"):
        m = Machine(cfg(2), protocol=proto, trace=True, check_invariants=True)

        def prog(pid):
            yield (COMPUTE, 5)

        m.run([prog(0), prog(1)])
        return m

    def test_held_lock_at_end_trips(self):
        m = self._finished_machine()
        m.nodes[0].lock_state[4] = {"held": True, "queue": deque()}
        with pytest.raises(InvariantViolation, match="still held"):
            m.checker.end_of_run()

    def test_stranded_flag_waiter_trips(self):
        m = self._finished_machine()
        m.nodes[0].lock_state[("f", 2)] = {"set": False, "waiters": deque([1])}
        with pytest.raises(InvariantViolation, match="flag 2"):
            m.checker.end_of_run()

    def test_cache_directory_divergence_trips(self):
        from repro.cache.state import RO

        m = self._finished_machine()
        seg = m.space.alloc(4096, "d")
        block = seg.base // m.config.line_size
        m.nodes[0].cache.install(block, RO)  # resident, unknown to its home
        with pytest.raises(InvariantViolation, match="sharer"):
            m.checker.end_of_run()

    def test_phantom_sharer_trips(self):
        m = self._finished_machine()
        home = m.nodes[0]
        e = home.directory.entry(0)      # block 0 is homed at node 0
        e.sharers = {1}                  # node 1 does not actually cache it
        e.state = 1
        with pytest.raises(InvariantViolation, match="does not cache"):
            m.checker.end_of_run()

    def test_violation_event_anchors_window(self):
        m = self._finished_machine()
        m.nodes[0].lock_state[4] = {"held": True, "queue": deque()}
        with pytest.raises(InvariantViolation) as exc:
            m.checker.end_of_run()
        seq = exc.value.seq
        assert seq is not None
        win = m.tracer.window(seq, before=5, after=5)
        assert any(ev[2] == "violation" and ev[0] == seq for ev in win)

    def test_check_level_validated(self):
        m = Machine(cfg(2), protocol="lrc")
        with pytest.raises(ValueError):
            InvariantChecker(m, level="paranoid")


# ---------------------------------------------------------------------------
# Regression: invalidation-passes-fill race (found by this checker)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("proto", ["sc", "erc"])
def test_fill_race_regression(proto):
    """locusroute/small tripped directory-cache agreement before the
    requester tracked in-flight fills: an invalidation overtook a read
    fill in the network and the stale line stayed resident forever."""
    config = bench_config(n_procs=4)
    m = Machine(config, protocol=proto, check_invariants=True)
    app = APPS["locusroute"](AppContext.for_machine(m), **APP_PRESETS_SMALL["locusroute"])
    m.run([app.program(p) for p in range(4)])  # passes the end-of-run sweep
    assert all(not n.fill_pending and not n.fill_fixup for n in m.nodes)


# ---------------------------------------------------------------------------
# End-of-run sweep: every protocol x every app, observed == unobserved
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("app", APP_ORDER)
@pytest.mark.parametrize("proto", ALL_PROTOCOLS)
def test_invariant_sweep(proto, app):
    def run(**obs):
        m = Machine(bench_config(n_procs=4), protocol=proto, **obs)
        a = APPS[app](AppContext.for_machine(m), **APP_PRESETS_SMALL[app])
        return m.run([a.program(p) for p in range(4)])

    plain = run()
    checked = run(trace=True, check_invariants=True)
    assert checked.exec_time == plain.exec_time
    assert checked.traffic.total_messages == plain.traffic.total_messages
