"""Outside-in instrumentation of the simulator's public layer boundaries.

Nothing under ``src/`` is edited: :func:`install` rebinds a handful of
public functions and methods (stream recording, stream compilation,
machine construction and replay, result store, campaign journal, the
pool worker entry, the fuzzer's per-run entry) to thin wrappers that
count calls and, while tracing, record a span around each one.  Inside a
simulation a SIGPROF sampler attributes host CPU time to the ``repro``
subpackage of the innermost ``repro`` frame.

Counters are always kept (a few integer adds per simulation).  Spans
and samples are kept only while :attr:`Probe.tracing` is set, stay in
memory, and are read out at the end of a pass.
"""

from __future__ import annotations

import json
import os
import signal
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from perfbench.metrics import Span

#: Sampling interval of the self-time profiler, seconds of process CPU.
SAMPLE_INTERVAL = 0.001

#: ``repro`` subpackage (or module) -> layer name of its self time.
#: Files are matched first, then their subpackage.
_FILE_LAYERS = {
    "engine/replay.py": "replay",
    "core/processor.py": "replay",
    "engine/events.py": "events",
    "engine/simulator.py": "events",
    "engine/resource.py": "resource",
}
_PACKAGE_LAYERS = {
    "apps": "program",
    "program": "program",
    "engine": "events",
    "core": "machine",
    "config.py": "machine",
    "protocols": "protocols",
    "directory": "directory",
    "cache": "cache",
    "network": "network",
    "mem": "resource",
    "trace": "invariants",
    "faults": "faults",
    "stats": "stats",
    "conformance": "conformance",
    "results": "results",
    "harness": "harness",
    "scenarios": "harness",
}

#: Every layer a self time can land in, in report order ("other" last).
LAYERS = (
    "program", "replay", "machine", "protocols", "directory", "cache",
    "network", "events", "resource", "invariants", "faults", "stats",
    "conformance", "results", "harness", "other",
)

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def layer_of_file(path: str) -> Optional[str]:
    """The layer a source file's self time belongs to.

    ``None`` means "not ours, ask the caller's frame" (standard library
    code called from a layer counts as that layer); the benchmark's own
    files count as ``other``.
    """
    if path.startswith(_BENCH_DIR):
        return "other"
    cut = path.rfind("/repro/")
    if cut < 0:
        return None
    rel = path[cut + len("/repro/"):]
    if rel in _FILE_LAYERS:
        return _FILE_LAYERS[rel]
    return _PACKAGE_LAYERS.get(rel.split("/", 1)[0], "harness")


class Sampler:
    """CPU-time sampler: credits the CPU time since the previous tick to
    the layer of the innermost attributable frame."""

    def __init__(self, interval: float = SAMPLE_INTERVAL) -> None:
        self.interval = interval
        self.buckets: Counter = Counter()
        self._files: Dict[str, Optional[str]] = {}
        self._last = 0.0
        self._prev_handler = None

    def _tick(self, _signum, frame) -> None:
        now = time.process_time()
        files = self._files
        layer = None
        while frame is not None:
            path = frame.f_code.co_filename
            try:
                layer = files[path]
            except KeyError:
                layer = files[path] = layer_of_file(path)
            if layer is not None:
                break
            frame = frame.f_back
        self.buckets[layer or "other"] += now - self._last
        self._last = now

    def start(self) -> None:
        self._last = time.process_time()
        self._prev_handler = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._prev_handler or signal.SIG_DFL)


class Probe:
    """Counters, spans and samples of the current pass."""

    def __init__(self) -> None:
        self.tracing = False
        self.counters: Counter = Counter()
        self.spans: List[Span] = []
        self._open: List[list] = []  # stack of [name, start, parent, index]
        self.sampler = Sampler()
        #: (config seed, protocol, RunResult, host seconds) per
        #: ``Machine.replay`` call.
        self.replays: List[tuple] = []
        #: (program seed, protocol, host seconds) per fuzzer ``run_one``.
        self.run_one_s: List[tuple] = []
        #: Directory pool workers write their reports to (campaign only).
        self.worker_dir: Optional[str] = None

    def reset(self) -> None:
        self.counters.clear()
        self.spans.clear()
        self._open.clear()
        self.sampler.buckets.clear()
        self.replays.clear()
        self.run_one_s.clear()

    def begin(self, name: str):
        if not self.tracing:
            return None
        parent = self._open[-1][3] if self._open else -1
        entry = [name, time.perf_counter(), parent, len(self.spans)]
        # Reserve the slot now so children can point at it.
        self.spans.append(None)  # type: ignore[arg-type]
        self._open.append(entry)
        return entry

    def end(self, entry) -> None:
        if entry is None:
            return
        self._open.pop()
        name, start, parent, idx = entry
        self.spans[idx] = Span(name, start, time.perf_counter(), parent)

    @contextmanager
    def span(self, name: str):
        entry = self.begin(name)
        try:
            yield
        finally:
            self.end(entry)

    def start_sampling(self) -> None:
        if self.tracing:
            self.sampler.start()

    def stop_sampling(self) -> None:
        if self.tracing:
            self.sampler.stop()


def install(probe: Probe) -> Callable[[], None]:
    """Wrap the simulator's layer boundaries; returns an undo function."""
    from repro.conformance import fuzz as fuzz_mod
    from repro.core.machine import Machine
    from repro.engine import replay as replay_mod
    from repro.harness import runner as runner_mod
    from repro.program import stream as stream_mod
    from repro.results.journal import CampaignJournal
    from repro.results.store import ResultStore
    from repro.trace.invariants import InvariantChecker

    undo: List[tuple] = []

    def patch(owner, attr, value) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    counters = probe.counters

    orig_lookup = stream_mod.recorded_stream

    def recorded_stream(*args, **kwargs):
        before = stream_mod.RECORDINGS
        entry = probe.begin("program.stream")
        try:
            return orig_lookup(*args, **kwargs)
        finally:
            probe.end(entry)
            counters["program.lookups"] += 1
            counters["program.hits"] += stream_mod.RECORDINGS == before

    patch(stream_mod, "recorded_stream", recorded_stream)

    orig_record = stream_mod.RecordedStream.__dict__["record"].__func__

    def record(cls, app):
        entry = probe.begin("program.record")
        try:
            return orig_record(cls, app)
        finally:
            probe.end(entry)
            counters["program.records"] += 1

    patch(stream_mod.RecordedStream, "record", classmethod(record))

    orig_compile = replay_mod.compile_stream

    def compile_stream(stream):
        # Already compiled: the stream caches its compiled form.
        if getattr(stream, "_compiled", None) is not None:
            return orig_compile(stream)
        entry = probe.begin("replay.compile")
        try:
            return orig_compile(stream)
        finally:
            probe.end(entry)
            counters["replay.compiles"] += 1

    patch(replay_mod, "compile_stream", compile_stream)

    orig_init = Machine.__init__

    def machine_init(self, *args, **kwargs):
        entry = probe.begin("machine.build")
        try:
            orig_init(self, *args, **kwargs)
        finally:
            probe.end(entry)
            counters["machine.builds"] += 1

    patch(Machine, "__init__", machine_init)

    orig_replay = Machine.replay

    def machine_replay(self, stream):
        entry = probe.begin("machine.replay")
        t0 = time.perf_counter()
        try:
            result = orig_replay(self, stream)
        finally:
            probe.end(entry)
        dt = time.perf_counter() - t0
        counters["events.count"] += self.sim.events_processed
        counters["replay.calls"] += 1
        probe.replays.append(
            (self.config.seed, self.protocol_name, result, dt)
        )
        return result

    patch(Machine, "replay", machine_replay)

    orig_scan = InvariantChecker.scan

    def scan(self):
        counters["invariants.scans"] += 1
        return orig_scan(self)

    patch(InvariantChecker, "scan", scan)

    orig_save = ResultStore.save

    def store_save(self, spec, result):
        entry = probe.begin("store.save")
        try:
            return orig_save(self, spec, result)
        finally:
            probe.end(entry)
            counters["store.saves"] += 1

    patch(ResultStore, "save", store_save)

    orig_load = ResultStore.load

    def store_load(self, spec):
        entry = probe.begin("store.load")
        try:
            hit = orig_load(self, spec)
        finally:
            probe.end(entry)
        counters["store.loads"] += 1
        counters["store.hits"] += hit is not None
        return hit

    patch(ResultStore, "load", store_load)

    orig_append = CampaignJournal.append

    def journal_append(self, op, cell, data=None):
        entry = probe.begin("journal.append")
        try:
            return orig_append(self, op, cell, data)
        finally:
            probe.end(entry)
            counters["journal.appends"] += 1

    patch(CampaignJournal, "append", journal_append)

    orig_iteration = fuzz_mod.fuzz_iteration

    def fuzz_iteration(*args, **kwargs):
        counters["conformance.programs"] += 1
        return orig_iteration(*args, **kwargs)

    patch(fuzz_mod, "fuzz_iteration", fuzz_iteration)

    orig_run_one = fuzz_mod.run_one

    def run_one(spec, protocol, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return orig_run_one(spec, protocol, *args, **kwargs)
        finally:
            probe.run_one_s.append(
                (spec.seed, protocol, time.perf_counter() - t0)
            )

    patch(fuzz_mod, "run_one", run_one)

    orig_worker = runner_mod._worker

    def worker(spec_dict, store_root):
        # A forked pool worker: start from empty counters (the parent's
        # were copied by fork), run the cell, report to the parent.
        probe.reset()
        probe.start_sampling()
        t0 = time.perf_counter()
        try:
            orig_worker(spec_dict, store_root)
        finally:
            elapsed = time.perf_counter() - t0
            probe.stop_sampling()
            _write_worker_report(probe, spec_dict, elapsed)

    patch(runner_mod, "_worker", worker)

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def _write_worker_report(probe: Probe, spec_dict: dict, elapsed: float) -> None:
    if probe.worker_dir is None:
        return
    from repro.harness.spec import ExperimentSpec

    report = {
        "fingerprint": ExperimentSpec.from_dict(spec_dict).fingerprint(),
        "elapsed": elapsed,
        "counters": dict(probe.counters),
        "spans": [list(s) for s in probe.spans if s is not None],
        "samples": dict(probe.sampler.buckets),
        "replay_s": sum(r[3] for r in probe.replays),
    }
    path = os.path.join(probe.worker_dir, f"{os.getpid()}-{time.time_ns()}.json")
    with open(path + ".tmp", "w") as f:
        json.dump(report, f)
    os.replace(path + ".tmp", path)


def read_worker_reports(worker_dir: str) -> List[dict]:
    """Collect and delete the reports pool workers left in ``worker_dir``."""
    reports = []
    for name in sorted(os.listdir(worker_dir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(worker_dir, name)
        with open(path) as f:
            reports.append(json.load(f))
        os.unlink(path)
    return reports
