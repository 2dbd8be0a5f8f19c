"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload {campaign,mesh,checked,fuzz} \\
        --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Every line before it is a human-readable report (options, host facts,
per-metric notes).  The exit code is 0 only when every simulated output
matched its committed digest; a run that cannot import the simulator or
read the digest table exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
DIGESTS = BENCH / "digests.json"

#: Ambient knobs cleared before set-up and before every pass, so the
#: measured configuration is the simulator's default one.
PINNED_ENV = (
    "REPRO_ENGINE", "REPRO_SHARDS", "REPRO_SHARD_BACKEND",
    "REPRO_CHECK_INVARIANTS", "REPRO_VALUE_CHECK", "REPRO_RESULTS_DIR",
    "REPRO_STALL_CYCLES",
)

SETUP_REPS = 3
#: The warm tier is repeated until it has taken WARM_SECONDS (at least
#: WARM_MIN_REPS, at most WARM_MAX_REPS times); its median is reported.
WARM_MIN_REPS = 5
WARM_MAX_REPS = 200
WARM_SECONDS = 1.0

#: What a user's process imports before any workload can start; set-up
#: time includes starting an interpreter that imports them.
IMPORTS = (
    "repro.__main__", "repro.harness.experiments", "repro.harness.runner",
    "repro.conformance.fuzz", "repro.engine.replay", "repro.trace.invariants",
    "repro.faults.reliable",
)


def import_seconds() -> float:
    """Host time to start an interpreter that imports the simulator."""
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        + "; ".join(f"import {m}" for m in IMPORTS)
    )
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def pin_env() -> None:
    for name in PINNED_ENV:
        os.environ.pop(name, None)


def say(line: str = "") -> None:
    print(line, flush=True)


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }


def peak_rss_mb(pool: bool) -> float:
    """Peak RSS of this process, plus that of the largest pool worker
    when the workload runs a pool, MiB.

    The only other child is the set-up's import probe, a bare interpreter;
    a pool worker is forked from this fully imported process, so it is
    always the largest child of a pool workload.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if pool else 0
    return (own + kids) / 1024.0


# -- one pass ---------------------------------------------------------------------

def run_pass(wl, probe, traced: bool, expected, stats) -> dict:
    """Run, time and check one pass; returns its record."""
    from perfbench.metrics import Span, check_digests, span_totals

    pin_env()
    probe.reset()
    probe.tracing = traced
    gc.collect()
    probe.start_sampling()
    t0 = time.perf_counter()
    out = wl.run()
    wall = time.perf_counter() - t0
    probe.stop_sampling()
    samples = dict(probe.sampler.buckets)

    keys = {s.key for s in out.sims}
    got = {s.key: s.digest for s in out.sims if s.digest is not None}
    bad = set(check_digests(got, expected))
    bad |= {s.key for s in out.sims if s.digest is None}
    missing = set(expected or ()) - keys
    for key in sorted(bad | missing):
        err = next((s.error for s in out.sims if s.key == key and s.error), "")
        stats["problems"].append(f"{wl.name}: {key}: digest mismatch {err}".rstrip())
    failed_checks = [name for name, ok in out.checks.items() if not ok]
    stats["problems"].extend(f"{wl.name}: check failed: {n}" for n in failed_checks)

    # Warm tier: served from the store/journal the pass just filled.  A
    # warm output is the same output as its cold simulation, so a warm
    # mismatch fails that simulation once, however many repetitions see it.
    warm_times = []
    warm_wrong: set = set()
    want = wl.warm_expected(out)
    while len(warm_times) < WARM_MIN_REPS or (
        sum(warm_times) < WARM_SECONDS and len(warm_times) < WARM_MAX_REPS
    ):
        pin_env()
        t1 = time.perf_counter()
        warm = wl.warm()
        warm_times.append(time.perf_counter() - t1)
        if len(warm_times) == 1:
            # Layer data covers the cold pass and one warm pass.
            counters = dict(probe.counters)
            probe.tracing = False
        warm_wrong.update(k for k in want if warm.get(k) != want[k])
    stats["problems"].extend(f"{wl.name}: warm {k}: mismatch" for k in sorted(warm_wrong))

    # Once per simulation, per named check, and per warm output that is
    # not a simulation's (the fuzz journal resume).
    warm_only = set(want) - keys - missing
    stats["attempted"] += len(keys | missing) + len(out.checks) + len(warm_only)
    stats["failed"] += len(bad | missing | warm_wrong) + len(failed_checks)

    # Fold in what the pool workers measured.
    spans = [s for s in probe.spans if s is not None]
    replay_s = sum(r[3] for r in probe.replays)
    for rep in out.worker_reports:
        for k, v in rep["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, v in rep["samples"].items():
            samples[k] = samples.get(k, 0.0) + v
        spans.extend(Span(*s) for s in rep["spans"])
        replay_s += rep["replay_s"]
    # Totals only, so what the benchmark holds does not grow with passes.
    return {
        "traced": traced,
        "wall": wall,
        "sim_seconds": [s.seconds for s in out.sims if s.seconds is not None],
        "totals": _sim_totals(out.results),
        "counters": counters,
        "spans": span_totals(spans),
        "samples": samples,
        "replay_s": replay_s,
        "workers": [
            {"elapsed": w["elapsed"], "fingerprint": w["fingerprint"]}
            for w in out.worker_reports
        ],
        "warm": warm_times,
    }


# -- metrics ----------------------------------------------------------------------

def _sim_totals(results) -> dict:
    from repro.network.messages import MsgType

    t = dict(refs=0, misses=0, cycles=0, cpu=0, read=0, write=0, sync=0,
             msgs=0, bytes=0, acks=0, retransmits=0, dups=0)
    for r in results:
        st = r.stats
        t["refs"] += st.references
        t["misses"] += st.misses
        t["cycles"] += st.total_cycles
        for k, v in st.breakdown().items():
            t[k] += v
        t["msgs"] += r.traffic.total_messages
        t["bytes"] += r.traffic.total_bytes
        t["acks"] += r.traffic.count.get(MsgType.RD_ACK, 0)
        t["retransmits"] += r.traffic.retransmits
        t["dups"] += r.traffic.dups_injected
    return t


def end_to_end(passes, setup_times, stats, notes, pool: bool) -> dict:
    from perfbench.metrics import failed_frac, tail_percentile

    cold = [p for p in passes if not p["traced"]]
    sims = [t for p in cold for t in p["sim_seconds"]]
    totals = [p["totals"] for p in cold]
    cycles = {t["cycles"] for t in totals}
    if len(cycles) != 1:
        stats["failed"] += 1
        stats["problems"].append(f"sim_cycles differ between passes: {cycles}")
    tail = tail_percentile(sims)
    if tail is None:
        tail_value = max(sims)
        notes.append(
            f"sim_tail_s: max of {len(sims)} samples (no percentile has "
            f"10 samples beyond it)"
        )
    else:
        tail_value = tail.value
        notes.append(
            f"sim_tail_s: p{tail.percentile:.1f} of {tail.n} samples "
            f"({tail.beyond} beyond it)"
        )
    notes.append(f"sim_p50_s: median of {len(sims)} simulations")
    notes.append(f"wall_s: median of {len(cold)} passes")
    ok = 1.0 - failed_frac(stats["attempted"], stats["failed"])
    m = {
        "setup_s": (median(setup_times), "s"),
        "wall_s": (median(p["wall"] for p in cold), "s"),
        "refs_per_s": (
            median(t["refs"] / p["wall"] for t, p in zip(totals, cold)), "1/s"
        ),
        "sim_p50_s": (median(sims), "s"),
        "sim_tail_s": (tail_value, "s"),
        "peak_rss_mb": (peak_rss_mb(pool), "MB"),
        "ok_frac": (ok, "ratio"),
        "sim_cycles": (float(totals[0]["cycles"]), "cycles"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def per_layer(passes, jobs) -> dict:
    from perfbench.probe import LAYERS

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    n = len(traced)

    def avg(f):
        return sum(f(p) for p in traced) / n

    def count(name):
        return avg(lambda p: p["counters"].get(name, 0))

    def span_s(name):
        return avg(lambda p: p["spans"].get(name, 0.0))

    def ratio(num, den, empty=0.0):
        return num / den if den else empty

    wall = avg(lambda p: p["wall"])
    m = {}
    # Self time: sampled CPU seconds per layer; with a pool, the parent's
    # and all workers' CPU seconds divided by the number of lanes, so the
    # layers plus "other" partition the pass's wall time.
    self_s = {
        layer: avg(lambda p, l=layer: p["samples"].get(l, 0.0)) / jobs
        for layer in LAYERS if layer != "other"
    }
    for layer, v in self_s.items():
        m[f"{layer}.self_s"] = (v, "s")
    m["other.self_s"] = (wall - sum(self_s.values()), "s")
    m["traced_wall_s"] = (wall, "s")
    m["trace_overhead"] = (wall / median(p["wall"] for p in plain), "x")

    totals = [p["totals"] for p in traced]

    def tot(key):
        return sum(t[key] for t in totals) / n

    m["program.records"] = (count("program.records"), "count")
    m["program.stream_hit_ratio"] = (
        ratio(count("program.hits"), count("program.lookups")), "ratio")
    m["replay.compiles"] = (count("replay.compiles"), "count")
    m["replay.compile_s"] = (span_s("replay.compile"), "s")
    m["machine.builds"] = (count("machine.builds"), "count")
    m["machine.build_s"] = (span_s("machine.build"), "s")
    m["events.count"] = (count("events.count"), "count")
    m["events.host_ns"] = (
        ratio(avg(lambda p: p["replay_s"]) * 1e9, count("events.count")), "ns")
    m["network.msgs"] = (tot("msgs"), "count")
    m["network.bytes"] = (tot("bytes"), "B")
    m["network.msgs_per_ref"] = (ratio(tot("msgs"), tot("refs")), "ratio")
    m["invariants.scans"] = (count("invariants.scans"), "count")
    m["faults.retransmits"] = (tot("retransmits"), "count")
    logical = tot("msgs") - tot("acks")
    m["faults.goodput_ratio"] = (
        ratio(logical, tot("msgs") + tot("retransmits") + tot("dups"), 1.0),
        "ratio")
    m["conformance.programs"] = (count("conformance.programs"), "count")
    m["store.save_s"] = (span_s("store.save"), "s")
    m["store.load_s"] = (span_s("store.load"), "s")
    m["store.hit_ratio"] = (
        ratio(count("store.hits"), count("store.loads")), "ratio")
    m["warm.pass_s"] = (median(w for p in plain for w in p["warm"]), "s")
    m["journal.appends"] = (count("journal.appends"), "count")
    m["journal.append_s"] = (span_s("journal.append"), "s")
    busy = avg(lambda p: sum(w["elapsed"] for w in p["workers"]))
    m["runner.busy_frac"] = (ratio(busy, jobs * wall), "ratio")
    m["runner.spawns"] = (avg(lambda p: len(p["workers"])), "count")
    m["runner.retries"] = (
        avg(lambda p: len(p["workers"])
            - len({w["fingerprint"] for w in p["workers"]})), "count")
    for k in ("cpu", "read", "write", "sync"):
        m[f"cycles.{k}"] = (tot(k), "cycles")
    m["cache.miss_rate"] = (ratio(tot("misses"), tot("refs")), "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# -- main -------------------------------------------------------------------------

#: String hashing is randomized per interpreter, and the dict and set
#: layouts it produces move host times by up to a third from one process
#: to the next; every run measures under the same fixed hash seed.
HASH_SEED = "0"


def main(argv=None) -> int:
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    pin_env()
    try:
        import repro  # noqa: F401  (the program under test)
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator: {exc}", file=sys.stderr)
        return 2
    from perfbench.probe import Probe, install
    from perfbench.workloads import WORKLOADS, variant_of

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    with open(DIGESTS) as f:
        table = json.load(f)
    variant = variant_of(args.seed)
    expected = table.get(args.workload, {}).get(str(variant))

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    probe = Probe()
    uninstall = install(probe)
    try:
        wl = WORKLOADS[args.workload](variant, str(workdir), probe)
        setup_times = []
        for _ in range(SETUP_REPS):
            pin_env()
            boot = import_seconds()
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(boot + time.perf_counter() - t0)

        say(f"perfbench {args.workload}: seed {args.seed} -> input variant "
            f"{variant}, {args.seconds:g} s, trace {args.trace}")
        say("host: " + json.dumps(host_facts()))
        say(f"options: PYTHONHASHSEED={HASH_SEED}; cleared {', '.join(PINNED_ENV)}; "
            + json.dumps(wl.options()))

        stats = {"attempted": 0, "failed": 0, "problems": []}
        passes = []
        start = time.perf_counter()
        while True:
            # A traced run alternates untraced and traced passes, so it
            # can report its own tracing overhead.
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(wl, probe, traced, expected, stats))
            elapsed = time.perf_counter() - start
            kinds = {p["traced"] for p in passes}
            done = elapsed + passes[-1]["wall"] > args.seconds
            if done and (not args.trace or kinds == {False, True}):
                break

        notes = []
        e2e = end_to_end(passes, setup_times, stats, notes, wl.pool)
        for note in notes:
            say("note: " + note)
        if args.trace:
            metrics = per_layer(passes, wl.jobs)
        else:
            metrics = e2e
        for name, v in metrics.items():
            say(f"  {name:28s} {v['value']:>16.6g} {v['unit']}")
        problems = sorted(set(stats["problems"]))
        for problem in problems[:20]:
            say("FAILED " + problem)
        if len(problems) > 20:
            say(f"FAILED ... and {len(problems) - 20} more")
        if expected is None:
            say(f"FAILED no committed digests for {args.workload} variant {variant}")
            stats["failed"] = max(stats["failed"], 1)
        correct = stats["failed"] == 0
        say(json.dumps({
            "correct": correct,
            "attempted": stats["attempted"],
            "failed": stats["failed"],
            "metrics": metrics,
        }))
        return 0 if correct else 1
    finally:
        uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
