"""Incremental invariant checking: the dirty-set scan against the sweep.

Mid-run, :meth:`InvariantChecker.scan` checks only what the mutation
paths marked since the previous scan.  :class:`CrossCheckingChecker`
runs that scan and the whole-machine :meth:`~InvariantChecker.sweep` at
every checkpoint and asserts two things: every component that changed
since the previous checkpoint was marked, and both scans agree (both
pass, or both raise the same first message).  It replaces the stock
checker over every protocol x SPLASH app, a faulted fuzz sample and the
deliberately broken protocols.  The trip tests pin when a violation
surfaces: at the next sync point of *any* node, and at the same trace
event as the whole-machine scan at ``event`` level.
"""

import pytest

import repro.trace
from repro import Machine
from repro.apps import APPS, AppContext
from repro.conformance.fuzz import fuzz_config, fuzz_iteration
from repro.conformance.generator import generate
from repro.directory.entry import LazyEntry, MSIEntry
from repro.harness.presets import APP_ORDER, APP_PRESETS_SMALL, bench_config
from repro.harness.spec import ExperimentSpec
from repro.program.ops import ACQUIRE, COMPUTE, RELEASE, WRITE, WRITE_RUN
from repro.protocols import PROTOCOLS
from repro.trace import InvariantChecker, InvariantViolation
from tests.test_trace import ALL_PROTOCOLS, BrokenAcquireLRC, BrokenReleaseLRC, cfg


def _entry_state(e):
    if isinstance(e, LazyEntry):
        return (e.state, frozenset(e.sharers), frozenset(e.writers),
                e.pending_acks, len(e.pending_requesters))
    if isinstance(e, MSIEntry):
        return (e.state, frozenset(e.sharers), e.owner)
    return (e.wts, e.rts)


def _snapshot(machine):
    """Everything a mid-run scan reads, keyed like the dirty sets."""
    nodes, entries, leases = {}, {}, {}
    tardis = machine.protocol.timestamp_coherence
    for node in machine.nodes:
        nodes[node.id] = (
            node.out_count, node.wt_drain_busy, node.pts,
            tuple(node.wb.order) if node.wb is not None else None,
            frozenset(node.wb.words) if node.wb is not None else None,
            tuple(node.cbuf.order) if node.cbuf is not None else None,
            frozenset(node.cbuf.words) if node.cbuf is not None else None,
        )
        for block, e in node.directory.entries.items():
            entries[(node.id, block)] = _entry_state(e)
        if tardis:
            resident = set(node.cache.resident_blocks())
            for b in resident | set(node.ts_lease):
                leases[(node.id, b)] = (b in resident, b in node.ts_lease)
    return nodes, entries, leases


class CrossCheckingChecker(InvariantChecker):
    """Runs the incremental scan and the full sweep at every checkpoint
    and asserts that they agree and that no change went unmarked."""

    compared = 0  # checkpoints compared, over every instance

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self._seen = _snapshot(self.machine)

    def scan(self):
        seen_nodes, seen_entries, seen_leases = self._seen
        nodes, entries, leases = now = _snapshot(self.machine)
        changed = {i for i, v in nodes.items() if seen_nodes.get(i) != v}
        assert changed <= self.dirty_nodes, f"unmarked node changes {changed - self.dirty_nodes}"
        changed = {k for k, v in entries.items() if seen_entries.get(k) != v}
        assert changed <= self.dirty_entries, f"unmarked entry changes {changed - self.dirty_entries}"
        changed = {k for k in leases.keys() | seen_leases.keys()
                   if leases.get(k) != seen_leases.get(k)}
        assert changed <= self.dirty_leases, f"unmarked lease changes {changed - self.dirty_leases}"
        incremental = full = None
        try:
            super().scan()
        except InvariantViolation as e:
            incremental = str(e)
        try:
            self.sweep()
        except InvariantViolation as e:
            full = str(e)
        assert incremental == full, f"incremental {incremental!r} != sweep {full!r}"
        type(self).compared += 1
        self._seen = now
        if incremental is not None:
            raise InvariantViolation(incremental)


@pytest.fixture
def cross_check(monkeypatch):
    """Every Machine built in the test gets a CrossCheckingChecker."""
    monkeypatch.setattr(repro.trace, "InvariantChecker", CrossCheckingChecker)
    CrossCheckingChecker.compared = 0
    return CrossCheckingChecker


@pytest.mark.parametrize("app", APP_ORDER)
@pytest.mark.parametrize("proto", ALL_PROTOCOLS)
def test_cross_check_splash(cross_check, proto, app):
    spec = ExperimentSpec(app, proto, n_procs=4, small=True, check_invariants=True)
    spec.run()
    assert cross_check.compared > 0


FUZZ_FAULTS = "drop=0.02,dup=0.02,delay=0.05"


@pytest.mark.parametrize("proto", ALL_PROTOCOLS)
def test_cross_check_faulted_fuzz_sample(cross_check, proto):
    # 20 programs at 8 processors; seed 5002 is the lrc-ext regression.
    for i, seed in enumerate(range(5000, 5020)):
        fails = fuzz_iteration(i, seed, 8, 120, [proto], do_minimize=False,
                               faults=FUZZ_FAULTS)
        assert not fails, fails[0].to_dict()
    assert cross_check.compared > 0


# At sync level BrokenReleaseLRC trips at its first release, before any
# scan, so it is cross-checked per event only.
@pytest.mark.parametrize(
    "broken, match, level",
    [
        (BrokenReleaseLRC, "release fired", "event"),
        (BrokenAcquireLRC, "pending", "sync"),
        (BrokenAcquireLRC, "pending", "event"),
    ],
)
def test_cross_check_broken_protocols(cross_check, monkeypatch, broken, match, level):
    monkeypatch.setitem(PROTOCOLS, broken.name, broken)
    config = bench_config(n_procs=4)
    m = Machine(config, protocol=broken.name, check_invariants=True, check_level=level)
    app = APPS["mp3d"](AppContext.for_machine(m), **APP_PRESETS_SMALL["mp3d"])
    with pytest.raises(InvariantViolation, match=match):
        m.run([app.program(p) for p in range(4)])
    assert cross_check.compared > 0


# ---------------------------------------------------------------------------
# When the incremental path trips
# ---------------------------------------------------------------------------

def _sync_times(m, node_id):
    return [ev[1] for ev in m.tracer.buf
            if ev[3] == node_id and ev[2] in ("release_fire", "acquire_done")]


def test_marked_corruption_trips_at_another_nodes_next_sync():
    def machine():
        m = Machine(cfg(2), protocol="lrc", trace=True, check_invariants=True)
        seg = m.space.alloc(4096, "a")

        def prog(pid):  # node 0 never syncs; node 1 syncs over and over
            if pid == 0:
                yield (COMPUTE, 50_000)
            else:
                for _ in range(40):
                    yield (ACQUIRE, 0)
                    yield (WRITE, seg.base)
                    yield (RELEASE, 0)

        return m, prog

    ref, prog = machine()
    ref.run([prog(0), prog(1)])
    syncs = _sync_times(ref, 1)
    assert _sync_times(ref, 0) == []
    t_corrupt = syncs[len(syncs) // 2] + 1
    next_sync = min(t for t in syncs if t >= t_corrupt)

    m, prog = machine()

    def corrupt():
        e = m.nodes[0].directory.entry(5)  # marks (home 0, block 5)
        e.sharers = {0}
        e.writers = {0, 1}

    m.sim.at(t_corrupt, corrupt)
    with pytest.raises(InvariantViolation, match="subset") as exc:
        m.run([prog(0), prog(1)])
    # Raised by node 1's sync hook, long before end of run.
    assert m.sim.now == next_sync
    assert not m.nodes[0].proc.done and not m.nodes[1].proc.done
    violation = [ev for ev in m.tracer.buf if ev[2] == "violation"]
    assert violation[0][0] == exc.value.seq and violation[0][1] == next_sync


class WholeMachineScanChecker(InvariantChecker):
    """Scans by sweeping the whole machine, as before dirty sets."""

    def scan(self):
        self.checks_run += 1
        self.sweep()


def _broken_release_event_level():
    m = Machine(cfg(2), protocol=BrokenReleaseLRC.name, trace=True,
                check_invariants=True, check_level="event")
    seg = m.space.alloc(4096, "a")

    def prog(pid):
        if pid == 0:
            yield (ACQUIRE, 0)
            yield (WRITE_RUN, seg.base, 32, 4)
            yield (RELEASE, 0)
        else:
            yield (COMPUTE, 10)

    with pytest.raises(InvariantViolation, match="release fired") as exc:
        m.run([prog(0), prog(1)])
    return exc.value.seq, m.checker.checks_run


def test_event_level_trips_at_the_same_seq(monkeypatch):
    monkeypatch.setitem(PROTOCOLS, BrokenReleaseLRC.name, BrokenReleaseLRC)
    seq, scans = _broken_release_event_level()
    monkeypatch.setattr(repro.trace, "InvariantChecker", WholeMachineScanChecker)
    assert _broken_release_event_level() == (seq, scans)
    assert (seq, scans) == (6, 5)  # the whole-machine checker's seq and scan count


@pytest.mark.parametrize("proto", ALL_PROTOCOLS)
def test_cross_check_every_event(cross_check, proto):
    """Per event, the marks must cover every change (one faulted program)."""
    spec = generate(5002, 8, n_ops=120)
    m = Machine(fuzz_config(8, spec.seed), protocol=proto, check_invariants=True,
                check_level="event", faults=FUZZ_FAULTS)
    app = APPS["fuzz"](AppContext.for_machine(m), program=spec)
    m.run([app.program(p) for p in range(8)])
    assert m.fabric.stats.retransmits > 0
    assert cross_check.compared > 1000
