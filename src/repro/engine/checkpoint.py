"""Epoch checkpointing: snapshot/restore of a running machine (DESIGN.md §15).

A checkpoint captures the *entire* deterministic simulation state — the
nodes (caches, write buffers, processors), directories, fabric in-flight
queues, fault injector PRNG substreams, stats, and classifier logs — as
one serialized object graph, taken at a point where no event is mid-
execution (an epoch barrier for the sharded engine; any quiescent moment
between events for the serial one).  Because the simulation is a pure
function of that state, a machine restored from checkpoint N and resumed
finishes **bit-identical** to the uninterrupted run, checker on, faults
on (held to by ``tests/test_checkpoint.py``).

Serialization uses :mod:`cloudpickle` (bundled with the toolchain): the
protocols' continuation style (``done``/``arrived``/``guarded`` closures
inside event callbacks) defeats plain :mod:`pickle`, while cloudpickle
captures closures by value.  Loading needs only the stdlib unpickler.
Two kinds of state are deliberately *not* captured:

* **Transient hooks** installed by the current execution mode —
  ``sim.barrier_hook`` (the sharded watchdog's check point, or a
  caller's epoch callback) and a worker's instance-level
  ``sim.shard_effect`` closure.  They are stripped before pickling and
  re-armed by :func:`restore_machine` / the worker respawn path.
* **Live Python generators** (the ``generator`` engine's program state).
  Generators are unpicklable by design; :func:`snapshot_machine` raises
  :class:`CheckpointUnsupported` naming the engine rather than failing
  deep inside the pickler.  Replay-engine machines (the default) carry
  only packed-array cursors and checkpoint fine.

Envelope: a :class:`Checkpoint` is versioned and content-checksummed
(SHA-256 over the payload); :meth:`Checkpoint.verify` refuses truncated
or corrupt payloads before any unpickling happens, and the on-disk form
(:meth:`Checkpoint.save` / :meth:`Checkpoint.load`) is a one-line JSON
header followed by the raw payload, written atomically.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

#: Bumped on any incompatible change to what a checkpoint captures or
#: how restore re-arms transient state.  2: the fabrics hold the
#: simulator's bound scheduling methods and precomputed constants, and
#: the fault injector its precomputed probabilities.
CHECKPOINT_VERSION = 2

_MAGIC = "repro-checkpoint"


class CheckpointError(RuntimeError):
    """A checkpoint could not be taken, verified, or restored."""


class CheckpointUnsupported(CheckpointError):
    """The machine holds state that cannot be serialized (and why)."""


@dataclass(frozen=True)
class Checkpoint:
    """One serialized machine state, versioned and content-checksummed."""

    version: int
    epoch: int          # sharded: epochs completed; serial: -1
    now: int            # simulated clock at capture
    payload: bytes      # cloudpickle of the machine object graph
    digest: str         # sha256 hex of payload

    def verify(self) -> None:
        """Raise :class:`CheckpointError` unless the envelope is intact."""
        if self.version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {self.version} != "
                f"supported {CHECKPOINT_VERSION}"
            )
        actual = hashlib.sha256(self.payload).hexdigest()
        if actual != self.digest:
            raise CheckpointError(
                f"checkpoint payload corrupt: sha256 {actual[:12]}... != "
                f"recorded {self.digest[:12]}... ({len(self.payload)} bytes)"
            )

    # -- on-disk form ---------------------------------------------------------

    def save(self, path: os.PathLike) -> Path:
        """Atomically write ``<json header>\\n<payload>`` to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = json.dumps(
            {
                "magic": _MAGIC,
                "version": self.version,
                "epoch": self.epoch,
                "now": self.now,
                "digest": self.digest,
                "size": len(self.payload),
            },
            separators=(",", ":"),
        )
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(header.encode("ascii") + b"\n")
                f.write(self.payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    @classmethod
    def load(cls, path: os.PathLike) -> "Checkpoint":
        """Read and verify a checkpoint file; raises :class:`CheckpointError`
        on a missing, truncated, or corrupt file."""
        try:
            with open(path, "rb") as f:
                header_line = f.readline()
                payload = f.read()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
        try:
            header = json.loads(header_line)
        except (ValueError, UnicodeDecodeError):
            raise CheckpointError(f"checkpoint {path} has a corrupt header") from None
        if header.get("magic") != _MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint file")
        if header.get("size") != len(payload):
            raise CheckpointError(
                f"checkpoint {path} truncated: header says "
                f"{header.get('size')} bytes, file holds {len(payload)}"
            )
        cp = cls(
            version=header.get("version", -1),
            epoch=header.get("epoch", -1),
            now=header.get("now", 0),
            payload=payload,
            digest=header.get("digest", ""),
        )
        cp.verify()
        return cp


def _check_snapshot_supported(machine) -> None:
    for node in machine.nodes:
        if inspect.isgenerator(getattr(node.proc, "_gen", None)):
            raise CheckpointUnsupported(
                "cannot checkpoint a generator-engine machine: live "
                "program generators are unpicklable.  Use the replay "
                "engine (the default; REPRO_ENGINE=replay) for "
                "checkpointable runs"
            )


def snapshot_machine(machine) -> Checkpoint:
    """Serialize ``machine`` into a verified :class:`Checkpoint`.

    Must be called at a quiescent point — between events on the serial
    engine, or at an epoch barrier on the sharded one (the
    ``barrier_hook`` callback is exactly such a point).  Transient hooks
    (``barrier_hook``, a worker's instance-level ``shard_effect``) are
    stripped for the duration of the pickle and put back before
    returning, so taking a snapshot never perturbs the running machine.
    """
    import cloudpickle

    _check_snapshot_supported(machine)
    sim = machine.sim
    saved_hook = getattr(sim, "barrier_hook", None)
    # A worker's shard_effect closure lives in the sim's instance dict,
    # shadowing the class no-op; it captures the worker's pipe-adjacent
    # state and must not ride along.
    saved_effect = sim.__dict__.pop("shard_effect", None) if hasattr(sim, "__dict__") else None
    if saved_hook is not None:
        sim.barrier_hook = None
    try:
        payload = cloudpickle.dumps(machine, protocol=pickle.HIGHEST_PROTOCOL)
    except (TypeError, AttributeError, pickle.PicklingError) as exc:
        raise CheckpointUnsupported(
            f"machine state is not serializable: {exc}"
        ) from exc
    finally:
        if saved_hook is not None:
            sim.barrier_hook = saved_hook
        if saved_effect is not None:
            sim.shard_effect = saved_effect
    return Checkpoint(
        version=CHECKPOINT_VERSION,
        epoch=getattr(sim, "epochs", -1),
        now=sim.now,
        payload=payload,
        digest=hashlib.sha256(payload).hexdigest(),
    )


def restore_machine(checkpoint: Checkpoint):
    """Rebuild a machine from ``checkpoint`` and re-arm transient hooks.

    The restored machine resumes on the in-process path
    (:meth:`Machine.resume`): serial machines drain their single queue,
    sharded ones re-enter the windowed loop.  The stall watchdog is
    re-armed for sharded machines (its hook was stripped at snapshot
    time); serial machines carry the watchdog's self-rescheduling events
    inside the pickled queue and need nothing.
    """
    checkpoint.verify()
    try:
        machine = pickle.loads(checkpoint.payload)
    except Exception as exc:
        raise CheckpointError(f"checkpoint payload does not unpickle: {exc}") from exc
    sim = machine.sim
    if getattr(sim, "n_shards", 1) > 1 and machine.stall_cycles:
        from repro.faults.watchdog import StallWatchdog

        StallWatchdog(machine, machine.stall_cycles).arm()
    return machine


def snapshot_path(root: os.PathLike, tag: str) -> Path:
    """Canonical checkpoint location: ``<root>/<tag>.ckpt``."""
    return Path(root) / f"{tag}.ckpt"


__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "CheckpointUnsupported",
    "restore_machine",
    "snapshot_machine",
    "snapshot_path",
]
