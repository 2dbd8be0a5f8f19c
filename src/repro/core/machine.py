"""Machine assembly: nodes + fabric + protocol + address space.

Typical use::

    machine = Machine(SystemConfig.scaled(n_procs=16), protocol="lrc")
    seg = machine.space.alloc(1 << 16, "data")
    result = machine.run([program(p) for p in range(16)])
    print(result.stats.exec_time)
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Iterator, List, Optional, Sequence

from repro.config import SystemConfig
from repro.core.node import Node
from repro.core.processor import Processor
from repro.engine.simulator import DeadlockError, Simulator
from repro.network.fabric import Fabric
from repro.network.messages import MessageStats
from repro.program.address_space import AddressSpace
from repro.stats.classification import MissClassifier
from repro.stats.counters import MachineStats


@dataclass
class RunResult:
    """Everything measured during one simulation run."""

    config: SystemConfig
    protocol: str
    stats: MachineStats
    traffic: MessageStats
    classifier: Optional[MissClassifier]

    @property
    def exec_time(self) -> int:
        return self.stats.exec_time

    @property
    def miss_rate(self) -> float:
        return self.stats.miss_rate

    def breakdown(self):
        return self.stats.breakdown()

    def summary(self) -> dict:
        s = self.stats.summary()
        s["protocol"] = self.protocol
        s["messages"] = self.traffic.total_messages
        s["bytes"] = self.traffic.total_bytes
        return s

    # -- serialization (result store) ------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe representation of everything measured.

        Round-trips through :meth:`from_dict`; the result-store schema
        version that pins this layout lives in :mod:`repro.results.store`.
        """
        return {
            "config": asdict(self.config),
            "protocol": self.protocol,
            "stats": self.stats.to_dict(),
            "traffic": self.traffic.to_dict(),
            "classifier": self.classifier.to_dict() if self.classifier else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunResult":
        return cls(
            config=SystemConfig(**d["config"]),
            protocol=d["protocol"],
            stats=MachineStats.from_dict(d["stats"]),
            traffic=MessageStats.from_dict(d["traffic"]),
            classifier=(
                MissClassifier.from_dict(d["classifier"])
                if d["classifier"] is not None
                else None
            ),
        )


@dataclass(frozen=True)
class MachineConfig:
    """A complete, declarative machine description.

    Consolidates the loose keyword arguments :class:`Machine` grew over
    time — one value object names every knob, can be compared, copied
    with :func:`dataclasses.replace`, and built from (:meth:`build`).
    The harness (:class:`repro.harness.spec.ExperimentSpec`) and the
    public API (:func:`repro.core.api.run_app`) both construct machines
    through this type rather than spelling kwargs at each call site.
    """

    config: SystemConfig = field(default_factory=SystemConfig)
    protocol: str = "lrc"
    classify: bool = False
    max_cycles: int = 1 << 62
    trace: bool = False
    check_invariants: bool = False
    trace_capacity: int = 1 << 16
    check_level: str = "sync"
    value_model: bool = False
    faults: Optional[object] = None
    stall_cycles: Optional[int] = None
    shards: int = 1

    def build(self) -> "Machine":
        """Assemble a fresh :class:`Machine` from this description."""
        kwargs = {f.name: getattr(self, f.name) for f in fields(self)}
        cfg = kwargs.pop("config")
        return Machine(cfg, **kwargs)

    def with_(self, **changes) -> "MachineConfig":
        """A copy with ``changes`` applied (thin ``dataclasses.replace``)."""
        return replace(self, **changes)


class Machine:
    """A mesh-connected multiprocessor running one coherence protocol."""

    def __init__(
        self,
        config: SystemConfig,
        protocol: str = "lrc",
        classify: bool = False,
        max_cycles: int = 1 << 62,
        trace: bool = False,
        check_invariants: bool = False,
        trace_capacity: int = 1 << 16,
        check_level: str = "sync",
        value_model: bool = False,
        faults=None,
        stall_cycles: Optional[int] = None,
        shards: int = 1,
        shard_backend: Optional[str] = None,
    ) -> None:
        # Import here to avoid a cycle (protocols import nothing from core,
        # but core.__init__ re-exports both directions for users).
        from repro.faults.plan import FaultPlan
        from repro.protocols import make_protocol

        self.config = config
        self.shards = shards
        self.shard_backend = "inproc"
        if shards > 1:
            from repro.engine.shard import resolve_shard_backend

            self.shard_backend = resolve_shard_backend(shard_backend)
            # The value model asserts against one globally-ordered access
            # stream; windowed shard execution interleaves node streams
            # differently, so it stays a serial-engine-only oracle.
            if value_model:
                raise ValueError("value_model requires shards=1")
            from repro.engine.shard import ShardedSimulator

            self.sim = ShardedSimulator(
                n_procs=config.n_procs,
                shards=shards,
                lookahead=config.hop_latency,
                max_cycles=max_cycles,
            )
        else:
            self.sim = Simulator(max_cycles=max_cycles)
        self.sim.machine = self
        # ``faults`` accepts a FaultPlan, a plan dict, or the CLI string
        # form.  Only an *active* plan swaps in the reliable fabric; an
        # inert (zero-rate) plan keeps the plain fabric, so its runs are
        # bit-identical to no-faults runs.
        self.fault_plan = FaultPlan.coerce(faults)
        if self.fault_plan is not None and self.fault_plan.active:
            from repro.faults.reliable import ReliableFabric

            self.fabric = ReliableFabric(config, self.sim, self.fault_plan)
        else:
            self.fabric = Fabric(config, self.sim)
        if stall_cycles is None:
            env = os.environ.get("REPRO_STALL_CYCLES", "")
            stall_cycles = int(env) if env else 0
        self.stall_cycles = stall_cycles
        self.stats = MachineStats(config.n_procs)
        self.space = AddressSpace(config)
        self.home_of = self.space.build_block_home_lookup()
        # Logged mode: counts are resolved at end of run from per-node
        # logs merged in canonical (time, node, index) order, so they are
        # identical under any shard layout (and under span batching).
        self.classifier = MissClassifier(logged=True) if classify else None
        self.protocol_name = protocol
        self.nodes: List[Node] = []
        self.protocol = make_protocol(protocol, self)
        for i in range(config.n_procs):
            node = Node(i, config, self.stats.procs[i])
            self.protocol.attach_node(node)
            node.proc = Processor(node, self)
            self.nodes.append(node)
        self._finished = 0
        self._ran = False
        # Structured record of process-backend crash recovery (kills /
        # respawns / fallback), populated by engine.shard_proc.
        self.shard_recovery = None
        self.tracer = None
        self.checker = None
        self.valmodel = None
        if value_model:
            from repro.conformance.shadow import ValueModel

            self.valmodel = ValueModel(self)
        if trace or check_invariants:
            from repro.trace import InvariantChecker, Tracer

            if trace:
                self.tracer = Tracer(self.sim, capacity=trace_capacity)
                self._attach_tracer(self.tracer)
            if check_invariants:
                self.checker = InvariantChecker(
                    self, tracer=self.tracer, level=check_level
                )
                self._attach_checker(self.checker)
                if check_level == "event":
                    self.sim.post_event_hook = self.checker.on_event

    def _attach_tracer(self, tracer) -> None:
        """Point every instrumented component at the shared tracer."""
        self.fabric.tracer = tracer
        for node in self.nodes:
            node.tracer = tracer
            node.cache.tracer = tracer
            node.directory.tracer = tracer
            node.directory.home = node.id
            if node.wb is not None:
                node.wb.tracer = tracer
                node.wb.owner = node.id
            if node.cbuf is not None:
                node.cbuf.tracer = tracer
                node.cbuf.owner = node.id

    def _attach_checker(self, checker) -> None:
        """Point every mutation path at the checker's dirty sets.

        Residency is marked only under tardis, the one protocol whose
        mid-run invariants (lease table == cache residency) read it."""
        tardis = self.protocol.timestamp_coherence
        for node in self.nodes:
            node.checker = checker
            node.directory.dirty = checker.dirty_entries
            node.directory.home = node.id
            if tardis:
                node.cache.dirty = checker.dirty_leases
            for buf in (node.wb, node.cbuf):
                if buf is not None:
                    buf.dirty = checker.dirty_nodes
                    buf.owner = node.id

    # -- callbacks ---------------------------------------------------------------

    def proc_finished(self, proc_id: int, t: int) -> None:
        self._finished += 1

    # -- running -----------------------------------------------------------------

    def run(self, programs: Sequence[Iterator]) -> RunResult:
        """Run one program generator per processor to completion."""
        if self._ran:
            raise RuntimeError("a Machine instance runs exactly one workload")
        self._ran = True
        if len(programs) != self.config.n_procs:
            raise ValueError(
                f"need {self.config.n_procs} programs, got {len(programs)}"
            )
        for node, gen in zip(self.nodes, programs):
            node.proc.set_program(gen)
            self.sim.on_node(node.id)  # seed into the node's shard
            node.proc.start()
        return self._complete()

    def replay(self, stream) -> RunResult:
        """Run a :class:`~repro.program.stream.RecordedStream` to completion.

        The replay driver feeds the protocols from the stream's packed
        arrays (see :mod:`repro.engine.replay`); no application Python
        executes.  The stream's allocation log reproduces the address
        space, so directory homes and segment bases are identical to the
        generator path's.
        """
        from repro.engine.replay import install_replay
        from repro.program.address_space import apply_alloc_log
        from repro.program.stream import STREAM_CONFIG_FIELDS

        if self._ran:
            raise RuntimeError("a Machine instance runs exactly one workload")
        self._ran = True
        bad = [
            (f, stream.meta[f], getattr(self.config, f))
            for f in STREAM_CONFIG_FIELDS
            if stream.meta.get(f) != getattr(self.config, f)
        ]
        if bad:
            detail = ", ".join(
                f"{f}: stream={sv!r} machine={mv!r}" for f, sv, mv in bad
            )
            raise ValueError(f"stream does not fit this machine ({detail})")
        if self.space.segments:
            raise RuntimeError(
                "replay needs a pristine address space; this machine "
                "already has allocations"
            )
        apply_alloc_log(self.space, stream.alloc_log)
        install_replay(self, stream)
        return self._complete()

    def _complete(self) -> RunResult:
        """Shared run tail: watchdog, event loop, deadlock check, result."""
        if self.stall_cycles:
            from repro.faults.watchdog import StallWatchdog

            StallWatchdog(self, self.stall_cycles).arm()
        if self.shards > 1 and self.shard_backend == "process":
            from repro.engine.shard_proc import UnsupportedBackend, run_forked

            try:
                run_forked(self)
            except UnsupportedBackend as exc:
                # Auto-fallback, never a silent semantic change: the
                # in-process backend is bit-identical, just slower, and
                # the warning names the observer that forced it.
                import logging

                logging.getLogger("repro.engine.shard_proc").warning(
                    "process shard backend unsupported (%s: %s); "
                    "falling back to the in-process backend",
                    exc.observer, exc,
                )
                self.shard_backend = "inproc"
                self.sim.run()
        else:
            self.sim.run()
        return self._finish()

    def _finish(self) -> RunResult:
        """Post-loop tail: deadlock check, observer finalization, result.

        Shared by the normal run path and :meth:`resume` — a restored
        machine re-enters the event loop and then needs exactly this
        tail to produce a :class:`RunResult` comparable bit-for-bit with
        an uninterrupted run's.
        """
        if self._finished != self.config.n_procs:
            stuck = [
                (n.id, n.proc.block_reason, n.out_count, len(n.wb or ()))
                for n in self.nodes
                if not n.proc.done
            ]
            raise DeadlockError(
                f"{len(stuck)} processors never finished "
                f"(id, reason, outstanding, wb): {stuck[:8]}"
            )
        if self.checker is not None:
            self.checker.end_of_run()
        if self.classifier is not None:
            self.classifier.finalize()
        return RunResult(
            config=self.config,
            protocol=self.protocol_name,
            stats=self.stats,
            traffic=self.fabric.stats,
            classifier=self.classifier,
        )

    # -- checkpoint / restore / resume (DESIGN.md §15) ---------------------------

    def snapshot(self):
        """Serialize this machine's full deterministic state.

        Take it at a quiescent point: between events, or from the
        sharded engine's ``barrier_hook``.  Returns a verified
        :class:`~repro.engine.checkpoint.Checkpoint`; raises
        :class:`~repro.engine.checkpoint.CheckpointUnsupported` for
        generator-engine machines (live generators are unpicklable).
        """
        from repro.engine.checkpoint import snapshot_machine

        return snapshot_machine(self)

    @classmethod
    def restore(cls, checkpoint) -> "Machine":
        """Rebuild a machine from a checkpoint (verifying its checksum)
        with transient hooks re-armed; pair with :meth:`resume`."""
        from repro.engine.checkpoint import restore_machine

        return restore_machine(checkpoint)

    def resume(self) -> RunResult:
        """Run a restored machine to completion.

        Drains the remaining events on the in-process path (serial queue
        or the sharded windowed loop — restored machines never re-fork)
        and produces a :class:`RunResult` bit-identical to what the
        uninterrupted run would have returned.
        """
        self.sim.run()
        return self._finish()
