"""Command-line interface: ``python -m repro``.

    python -m repro list
    python -m repro run gauss --protocol lrc --procs 16 --small
    python -m repro compare mp3d --procs 16
    python -m repro figures --jobs 4 --procs 16 --small
    python -m repro figures --only t3 f4 --jobs 4
    python -m repro trace locusroute --protocol sc --procs 4 --small
    python -m repro fuzz --seed 0 --iters 50 --procs 8
    python -m repro fuzz --iters 50 --faults drop=0.02,dup=0.02,delay=0.05
    python -m repro fuzz --iters 30 --mode service
    python -m repro faults --iters 10 --rates 0.01 0.02 0.05
    python -m repro faults --rates 0.02 --apps kvstore pubsub
    python -m repro scenarios list
    python -m repro scenarios run satellite_link --protocols lrc tardis

``figures`` regenerates the paper's tables and figures, fanning the
underlying simulations out over ``--jobs`` worker processes and caching
every result in an on-disk store (``.repro-results/`` by default), so a
repeated invocation renders from disk without simulating anything.
Failed experiments are persisted as structured failure records and
summarized at the end instead of aborting the sweep.

``fuzz --faults`` runs the differential conformance campaign under
seeded message-level fault injection (drop/dup/delay/reorder at the NIC
boundary); the reliable-delivery layer must recover transparently, so
the oracle comparison is unchanged and the recovery-traffic counters
are reported.  ``faults`` sweeps fault rates across every protocol and
tabulates failures and recovery traffic; ``--apps`` additionally runs
named applications (e.g. the service workloads) under each swept plan
with the invariant checker on.

``scenarios`` runs the named-scenario library (DESIGN.md §13): each
scenario is a versioned JSON document bundling an app, its parameters,
the machine shape, and a phase-scripted fault plan; ``scenarios run``
sweeps it across protocols with the invariant checker on and persists a
summary artifact in the result store.

``trace`` runs one simulation with the protocol event tracer and the
coherence-invariant checker enabled; on a violation it prints the event
window around the failure.  ``run``/``compare``/``figures`` accept
``--check-invariants`` (or ``REPRO_CHECK_INVARIANTS=1``) to validate
every simulation they perform — checking is pure observation, so cycle
counts and result-store fingerprints are unchanged.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time

from repro.apps import APPS
from repro.faults.plan import FaultPlan
from repro.harness import run_experiment
from repro.harness.experiments import (
    ARTIFACT_KEYS,
    all_artifact_specs,
    figure4_normalized_time,
    figure5_breakdown,
    figure6_lazier,
    figure7_lazier_breakdown,
    figure8_future,
    figure9_future_breakdown,
    prefetch,
    sensitivity_sweep,
    table1,
    table2_miss_classification,
    table3_miss_rates,
)
from repro.harness.presets import APP_PRESETS, APP_PRESETS_SMALL
from repro.harness.spec import ENGINES, ENV_ENGINE, ENV_SHARDS
from repro.protocols import REGISTRY, all_names
from repro.results.store import DEFAULT_ROOT, ResultStore
from repro.stats.report import format_table
from repro.trace import LEVELS, Tracer


def _campaign_journal(store_root, kind: str, params: dict, resume: bool):
    """The write-ahead journal for one CLI campaign.

    Campaigns always journal (so any run can be resumed after a crash);
    ``--resume`` decides whether existing outcomes are honored.  Without
    it the journal is truncated first — a fresh run, not a continuation.
    """
    from repro.results.journal import CampaignJournal

    if not resume:
        CampaignJournal.for_campaign(store_root, kind, params).clear()
    return CampaignJournal.for_campaign(store_root, kind, params)


def _cmd_list(_args) -> int:
    print("applications:")
    for name in sorted(APPS):
        print(f"  {name:12s} presets: {APP_PRESETS[name]}")
    print("protocols:", ", ".join(all_names()))
    return 0


def _cmd_run(args) -> int:
    from repro.harness.experiments import run_spec
    from repro.harness.spec import ExperimentSpec

    spec = ExperimentSpec(
        args.app,
        args.protocol,
        n_procs=args.procs,
        small=args.small,
        check_invariants=args.check_invariants,
        faults=FaultPlan.parse(args.faults) if args.faults else None,
    )
    r = run_spec(spec)
    s = r.summary()
    rows = [[k, v if not isinstance(v, float) else f"{v:.4f}"] for k, v in s.items()]
    print(format_table(["metric", "value"], rows,
                       title=f"{args.app} / {args.protocol} / {args.procs} procs"))
    return 0


def _cmd_compare(args) -> int:
    rows = []
    base = None
    for proto in all_names():
        r = run_experiment(
            args.app,
            proto,
            n_procs=args.procs,
            small=args.small,
            check_invariants=args.check_invariants,
        )
        if base is None:
            base = r.exec_time
        b = r.breakdown()
        rows.append(
            [
                proto,
                r.exec_time,
                f"{r.exec_time / base:.3f}",
                f"{r.miss_rate * 100:.2f}%",
                b["read"],
                b["write"],
                b["sync"],
            ]
        )
    print(
        format_table(
            ["protocol", "cycles", "norm", "miss", "read", "write", "sync"],
            rows,
            title=f"{args.app}, {args.procs} processors",
        )
    )
    return 0


def _cmd_figures(args) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(message)s", stream=sys.stderr
    )
    n, small = args.procs, args.small
    wanted = args.only or list(ARTIFACT_KEYS)
    store = None if args.no_store else ResultStore(args.store_dir)

    t0 = time.monotonic()
    specs = all_artifact_specs(wanted, n_procs=n, small=small)
    if args.check_invariants:
        specs = [s.with_(check_invariants=True) for s in specs]

    # Campaign journal (cells are spec fingerprints): a crashed sweep
    # resumed with --resume re-reports journaled failures without
    # re-running them, and journaled successes load straight from the
    # store.  Cells that were in flight when the sweep died re-run.
    journal = None
    failures = {}
    todo = specs
    if store is not None:
        from repro.results.store import RunFailure

        journal = _campaign_journal(
            store.root, "figures",
            {"artifacts": list(wanted), "procs": n, "small": small,
             "check_invariants": bool(args.check_invariants)},
            args.resume,
        )
        completed = journal.completed()
        todo = []
        for spec in specs:
            entry = completed.get(spec.fingerprint())
            if entry is not None and entry["op"] == "fail":
                failures[spec] = RunFailure(
                    kind=entry["data"]["kind"],
                    message=entry["data"]["message"],
                    traceback="",
                    fingerprint=spec.fingerprint(),
                    spec=spec.to_dict(),
                )
            else:
                todo.append(spec)
        if len(todo) < len(specs):
            print(
                f"repro figures: resume: {len(specs) - len(todo)} of "
                f"{len(specs)} cells journaled as failed, skipping them",
                file=sys.stderr,
            )
        for spec in todo:
            if completed.get(spec.fingerprint()) is None:
                journal.start(spec.fingerprint())

    new_failures = {}
    prefetch(
        todo, jobs=args.jobs, store=store, timeout=args.timeout,
        on_failure="record", failures_out=new_failures,
    )
    if journal is not None:
        for spec in todo:
            fp = spec.fingerprint()
            entry = completed.get(fp)
            if spec in new_failures:
                f = new_failures[spec]
                journal.fail(fp, f.kind, f.message)
            elif entry is None or entry["op"] != "done":
                journal.done(fp)
    failures.update(new_failures)
    sim_elapsed = time.monotonic() - t0
    if failures:
        print(
            f"repro figures: {len(failures)} of {len(specs)} experiments failed"
            + (" (records persisted to the store):" if store else ":"),
            file=sys.stderr,
        )
        for spec, failure in failures.items():
            print(f"  {spec.label()}: {failure.kind}: {failure.message}",
                  file=sys.stderr)
        return 1

    renderers = {
        "t1": lambda: table1(),
        "t2": lambda: table2_miss_classification(n, small)[1],
        "t3": lambda: table3_miss_rates(n, small)[1],
        "f4": lambda: figure4_normalized_time(n, small)[1],
        "f5": lambda: figure5_breakdown(n, small)[1],
        "f6": lambda: figure6_lazier(n, small)[1],
        "f7": lambda: figure7_lazier_breakdown(n, small)[1],
        "f8": lambda: figure8_future(n, small)[1],
        "f9": lambda: figure9_future_breakdown(n, small)[1],
        "sweep": lambda: sensitivity_sweep(
            app="mp3d", n_procs=min(n, 16), small=small
        )[1],
    }
    for key in wanted:
        print(renderers[key]())
        print("=" * 72)
    print(
        f"{len(specs)} experiments ready in {sim_elapsed:.1f}s "
        f"({args.jobs} jobs"
        + (f", store: {store.root})" if store else ", store off)"),
        file=sys.stderr,
    )
    return 0


def _cmd_trace(args) -> int:
    from collections import Counter

    from repro.core.machine import Machine
    from repro.harness.presets import bench_config
    from repro.trace import InvariantViolation

    cfg = bench_config(n_procs=args.procs)
    machine = Machine(
        cfg,
        protocol=args.protocol,
        trace=True,
        check_invariants=not args.no_check,
        trace_capacity=args.capacity,
        check_level=args.check_level,
    )
    from repro.apps.common import AppContext

    params = (APP_PRESETS_SMALL if args.small else APP_PRESETS)[args.app]
    app = APPS[args.app](AppContext.for_machine(machine), **params)
    tracer = machine.tracer
    try:
        result = machine.run([app.program(p) for p in range(cfg.n_procs)])
    except InvariantViolation as e:
        print(f"INVARIANT VIOLATION: {e}", file=sys.stderr)
        if e.seq is not None:
            print(
                f"\nevent window (+/- {args.window} around seq {e.seq}):",
                file=sys.stderr,
            )
            for ev in tracer.window(e.seq, before=args.window, after=args.window):
                print(Tracer.format_event(ev), file=sys.stderr)
        if args.out:
            with open(args.out, "w") as f:
                n = tracer.to_jsonl(f)
            print(f"\n{n} buffered events written to {args.out}", file=sys.stderr)
        return 1
    counts = Counter(ev[2] for ev in tracer.buf)
    rows = [[k, counts[k]] for k in sorted(counts)]
    rows.append(["(buffered/emitted)", f"{len(tracer)}/{tracer.emitted}"])
    print(
        format_table(
            ["event kind", "count"],
            rows,
            title=(
                f"{args.app} / {args.protocol} / {args.procs} procs: "
                f"{result.exec_time} cycles, invariants "
                + ("not checked" if args.no_check else "ok")
            ),
        )
    )
    if args.out:
        with open(args.out, "w") as f:
            n = tracer.to_jsonl(f)
        print(f"{n} events written to {args.out}")
    return 0


def _format_traffic(traffic: dict) -> str:
    return ", ".join(f"{k}={traffic.get(k, 0)}" for k in sorted(traffic))


def _cmd_fuzz(args) -> int:
    from repro.conformance import fuzz_run, write_reproducers
    from repro.conformance.fuzz import replay_reproducer

    say = lambda s: print(s, file=sys.stderr)
    if args.replay:
        return replay_reproducer(args.replay, window=args.window, log=say)
    protocols = tuple(args.protocols)
    faults = FaultPlan.parse(args.faults) if args.faults else None
    journal = _campaign_journal(
        args.store_dir, "fuzz",
        {"seed": args.seed, "iters": args.iters, "procs": args.procs,
         "n_ops": args.n_ops, "protocols": list(protocols),
         "mode": args.mode,
         "faults": faults.to_dict() if faults else None},
        args.resume,
    )
    summary = fuzz_run(
        seed=args.seed,
        iters=args.iters,
        n_procs=args.procs,
        n_ops=args.n_ops,
        protocols=protocols,
        mode=args.mode,
        do_minimize=args.minimize,
        jobs=args.jobs,
        window=args.window,
        faults=faults,
        log=say,
        journal=journal,
    )
    failures = summary["failures"]
    if faults is not None:
        say(f"fault plan [{faults.label()}]: "
            + _format_traffic(summary.get("traffic", {})))
    if not failures:
        print(
            f"fuzz: {args.iters} programs x {len(protocols)} protocols "
            f"({', '.join(protocols)}), {args.procs} procs: all clean"
            + (f" under faults [{faults.label()}]" if faults else "")
        )
        return 0
    if args.out:
        write_reproducers(summary, args.out)
        say(f"reproducers written to {args.out}")
    for f in failures:
        print(f"FAIL seed={f['seed']} {f['protocol']} {f['reason']}: {f['message']}")
        for line in f.get("trace_window") or []:
            print(f"    {line}")
    print(f"fuzz: {len(failures)} failure(s) in {args.iters} iterations")
    return 1


def _cmd_faults(args) -> int:
    """Fault-rate sweep: the conformance campaign at each rate, with the
    recovery-traffic counters tabulated per rate."""
    from repro.conformance import fuzz_run

    say = lambda s: print(s, file=sys.stderr)
    protocols = tuple(args.protocols)
    base = FaultPlan.parse(args.faults) if args.faults else FaultPlan()
    journal = _campaign_journal(
        args.store_dir, "faults",
        {"seed": args.seed, "iters": args.iters, "procs": args.procs,
         "protocols": list(protocols), "rates": [float(r) for r in args.rates],
         "faults": base.to_dict(), "apps": list(args.apps)},
        args.resume,
    )
    completed = journal.completed()
    rows = []
    bad = 0
    for rate in args.rates:
        cell = f"rate-{rate:g}"
        entry = completed.get(cell)
        if entry is not None and entry["op"] == "done":
            say(f"rate {rate:g}: journaled, skipping")
            bad += entry["data"]["n_fail"]
            rows.append(entry["data"]["row"])
            continue
        plan = FaultPlan.from_dict(
            {
                **base.to_dict(),
                "seed": args.seed,
                "drop": rate,
                "dup": rate,
                "delay": min(1.0, 2 * rate),
            }
        )
        say(f"rate {rate:g}: fuzzing under [{plan.label()}] ...")
        journal.start(cell)
        summary = fuzz_run(
            seed=args.seed,
            iters=args.iters,
            n_procs=args.procs,
            protocols=protocols,
            do_minimize=False,
            jobs=args.jobs,
            faults=plan,
            log=say,
        )
        t = summary.get("traffic", {})
        n_fail = len(summary["failures"])
        bad += n_fail
        row = [
            f"{rate:g}",
            n_fail,
            t.get("retransmits", 0),
            t.get("dup_drops", 0),
            t.get("drops_injected", 0),
            t.get("dups_injected", 0),
            t.get("delays_injected", 0),
        ]
        journal.done(cell, {"row": row, "n_fail": n_fail})
        rows.append(row)
    print(
        format_table(
            ["rate", "failures", "retransmits", "dup_drops",
             "dropped", "duped", "delayed"],
            rows,
            title=(
                f"fault sweep: {args.iters} programs x "
                f"{len(protocols)} protocols ({', '.join(protocols)}), "
                f"{args.procs} procs"
            ),
        )
    )
    if args.apps:
        bad += _faults_app_campaign(args, base, say, journal)
    if bad:
        print(f"faults: {bad} failure(s); rerun `repro fuzz --faults ...` "
              "at the failing rate to diagnose and minimize")
        return 1
    print("faults: all runs recovered and agreed with the oracle")
    return 0


def _faults_app_campaign(args, base: FaultPlan, say, journal=None) -> int:
    """The ``faults --apps`` leg: each named app under each swept plan,
    across every protocol, with the invariant checker on."""
    from repro.harness.spec import ExperimentSpec
    from repro.scenarios.runner import RECOVERY_COUNTERS

    completed = journal.completed() if journal is not None else {}
    rows = []
    bad = 0
    for rate in args.rates:
        plan = FaultPlan.from_dict(
            {
                **base.to_dict(),
                "seed": args.seed,
                "drop": rate,
                "dup": rate,
                "delay": min(1.0, 2 * rate),
            }
        )
        for app in args.apps:
            cell = f"apps-{rate:g}-{app}"
            entry = completed.get(cell)
            if entry is not None and entry["op"] == "done":
                say(f"rate {rate:g}: {app}: journaled, skipping")
                bad += entry["data"]["n_fail"]
                rows.append(entry["data"]["row"])
                continue
            say(f"rate {rate:g}: {app} under [{plan.label()}] ...")
            if journal is not None:
                journal.start(cell)
            totals = dict.fromkeys(RECOVERY_COUNTERS, 0)
            n_fail = 0
            for proto in args.protocols:
                spec = ExperimentSpec(
                    app=app, protocol=proto, n_procs=args.procs,
                    small=True, faults=plan, check_invariants=True,
                )
                try:
                    r = spec.run()
                except Exception as e:
                    n_fail += 1
                    say(f"  FAIL {spec.label()}: {type(e).__name__}: {e}")
                    continue
                for name in RECOVERY_COUNTERS:
                    totals[name] += getattr(r.traffic, name, 0)
            bad += n_fail
            row = [f"{rate:g}", app, n_fail,
                   *[totals[name] for name in RECOVERY_COUNTERS]]
            if journal is not None:
                journal.done(cell, {"row": row, "n_fail": n_fail})
            rows.append(row)
    print(
        format_table(
            ["rate", "app", "failures", "retransmits", "dup_drops",
             "dropped", "duped", "delayed"],
            rows,
            title=(
                f"service-app fault campaign: "
                f"{len(args.protocols)} protocols, {args.procs} procs, "
                f"invariant checker on"
            ),
        )
    )
    return bad


def _cmd_scenarios(args) -> int:
    from repro.scenarios import builtin_scenarios, load_scenario, run_scenario

    say = lambda s: print(s, file=sys.stderr)
    if args.action == "list":
        for name, path in sorted(builtin_scenarios().items()):
            sc = load_scenario(name)
            faults = sc.faults.label() if sc.faults else "none"
            print(f"{name:26s} app={sc.app:10s} procs={sc.n_procs:<3d} "
                  f"faults[{faults}]")
            if args.verbose:
                print(f"    {sc.description}")
        return 0
    store = None if args.no_store else ResultStore(args.store_dir)
    bad = 0
    for name in args.names:
        sc = load_scenario(name)
        say(f"scenario {sc.name}: {sc.description}")
        journal = None
        if store is not None:
            journal = _campaign_journal(
                store.root, "scenario",
                {"scenario": sc.name, "protocols": list(args.protocols),
                 "procs": args.procs},
                args.resume,
            )
        summary = run_scenario(
            sc,
            protocols=args.protocols or None,
            n_procs=args.procs,
            store=store,
            progress=say,
            journal=journal,
        )
        rows = []
        base_time = None
        for proto in summary["protocols"]:
            row = summary["results"][proto]
            if not row["ok"]:
                bad += 1
                rows.append([proto, "FAIL", row["kind"], row["message"][:40],
                             "", "", ""])
                continue
            if base_time is None:
                base_time = row["exec_time"]
            rows.append([
                proto,
                row["exec_time"],
                f"{row['exec_time'] / base_time:.3f}",
                row["messages"],
                row["retransmits"],
                row["drops_injected"],
                row["delays_injected"],
            ])
        print(format_table(
            ["protocol", "cycles", "norm", "messages",
             "retransmits", "dropped", "delayed"],
            rows,
            title=f"scenario {sc.name} ({sc.app}, "
                  f"{summary['n_procs']} procs)",
        ))
        if store is not None:
            say(f"summary artifact: "
                f"{store.artifact_path_for('scenario-' + sc.name)}")
    if bad:
        print(f"scenarios: {bad} cell(s) failed (failure records persisted)")
        return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    sub.add_parser("list", help="list applications and protocols")

    check_help = (
        "run the coherence-invariant checker during every simulation "
        "(pure observation: cycle counts and fingerprints are unchanged; "
        "cached results are served without re-checking)"
    )
    engine_help = (
        "execution engine: 'replay' (default) records each app's "
        "reference streams once and drives protocols from packed "
        "arrays; 'generator' resumes app generators per reference "
        "(kept for differential testing) — results are bit-identical"
    )

    shards_help = (
        "shard count for the windowed PDES scheduler (default 1 = "
        "serial); sharded runs are bit-identical to serial ones, so the "
        "choice — like --engine — never enters result fingerprints; "
        "clamped to the machine's node count"
    )

    def add_engine(p) -> None:
        p.add_argument(
            "--engine", default=None, choices=ENGINES, help=engine_help
        )
        p.add_argument("--shards", type=int, default=None, help=shards_help)

    p_run = sub.add_parser("run", help="run one app under one protocol")
    p_run.add_argument("app", choices=sorted(APPS))
    p_run.add_argument("--protocol", default="lrc", choices=sorted(REGISTRY))
    p_run.add_argument("--procs", type=int, default=16)
    p_run.add_argument("--small", action="store_true")
    p_run.add_argument("--check-invariants", action="store_true", help=check_help)
    p_run.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="attach a fault plan (FaultPlan mini-language, e.g. "
        "drop=0.02,seed=7); worker_kill=E:S;... schedules harness-level "
        "chaos — SIGKILL shard S's worker at epoch E (process backend) — "
        "without perturbing the simulated network",
    )
    add_engine(p_run)

    p_cmp = sub.add_parser("compare", help="run one app under all protocols")
    p_cmp.add_argument("app", choices=sorted(APPS))
    p_cmp.add_argument("--procs", type=int, default=16)
    p_cmp.add_argument("--small", action="store_true")
    p_cmp.add_argument("--check-invariants", action="store_true", help=check_help)
    add_engine(p_cmp)

    p_fig = sub.add_parser(
        "figures",
        help="regenerate paper tables/figures (parallel, with a result store)",
    )
    p_fig.add_argument(
        "--only", nargs="*", choices=ARTIFACT_KEYS, metavar="ARTIFACT",
        help=f"subset of artifacts ({', '.join(ARTIFACT_KEYS)})",
    )
    p_fig.add_argument("--procs", type=int, default=16)
    p_fig.add_argument("--small", action="store_true")
    p_fig.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the simulation fan-out (default 1)",
    )
    p_fig.add_argument(
        "--store-dir", default=DEFAULT_ROOT,
        help=f"result-store directory (default {DEFAULT_ROOT})",
    )
    p_fig.add_argument(
        "--no-store", action="store_true",
        help="do not read or write the on-disk result store",
    )
    p_fig.add_argument(
        "--timeout", type=float, default=None,
        help="per-experiment timeout in seconds (one retry on expiry)",
    )
    p_fig.add_argument("--check-invariants", action="store_true", help=check_help)
    resume_help = (
        "continue an interrupted campaign from its write-ahead journal: "
        "cells with a journaled outcome are skipped (their data reused "
        "verbatim — artifacts come out bit-identical), cells that were "
        "in flight re-run; without this flag the journal is truncated "
        "and the campaign starts fresh"
    )
    p_fig.add_argument("--resume", action="store_true", help=resume_help)
    add_engine(p_fig)

    p_tr = sub.add_parser(
        "trace",
        help="run one simulation with event tracing + invariant checking; "
        "on a violation, print the event window around it",
    )
    p_tr.add_argument("app", choices=sorted(APPS))
    p_tr.add_argument("--protocol", default="lrc", choices=sorted(REGISTRY))
    p_tr.add_argument("--procs", type=int, default=4)
    p_tr.add_argument("--small", action="store_true")
    p_tr.add_argument(
        "--check-level", default="sync", choices=LEVELS,
        help="invariant checkpoint density (default sync)",
    )
    p_tr.add_argument(
        "--no-check", action="store_true",
        help="trace only, without the invariant checker",
    )
    p_tr.add_argument(
        "--window", type=int, default=25,
        help="events to print on each side of a violation (default 25)",
    )
    p_tr.add_argument(
        "--capacity", type=int, default=1 << 16,
        help="event ring-buffer size (default 65536)",
    )
    p_tr.add_argument(
        "--out", default=None, metavar="FILE",
        help="also export the buffered events as JSON Lines",
    )

    p_fz = sub.add_parser(
        "fuzz",
        help="randomized-program conformance fuzzing: generated DRF "
        "programs under every protocol, checked against a sequential "
        "oracle; failures are minimized to small reproducers",
    )
    p_fz.add_argument("--seed", type=int, default=0)
    p_fz.add_argument("--iters", type=int, default=50)
    p_fz.add_argument("--procs", type=int, default=8)
    p_fz.add_argument("--n-ops", type=int, default=120,
                      help="target ops per processor (default 120)")
    p_fz.add_argument(
        "--protocols", nargs="*", default=list(all_names()),
        choices=sorted(REGISTRY), metavar="PROTO",
    )
    from repro.conformance.generator import MODES as FUZZ_MODES

    p_fz.add_argument(
        "--mode", default="auto", choices=FUZZ_MODES,
        help="program-generator mode (default auto; 'service' favors "
        "pub/sub fan-out and zipf-skewed hot-lock episodes)",
    )
    p_fz.add_argument(
        "--minimize", action=argparse.BooleanOptionalAction, default=True,
        help="delta-debug failing programs to minimal reproducers",
    )
    p_fz.add_argument(
        "--jobs", type=int, default=1,
        help="verify iterations in parallel worker processes first; "
        "failures are re-diagnosed sequentially",
    )
    p_fz.add_argument(
        "--window", type=int, default=12,
        help="trace events to print around a violation (default 12)",
    )
    p_fz.add_argument(
        "--out", default=None, metavar="FILE",
        help="write failing programs + minimized reproducers as JSON",
    )
    p_fz.add_argument(
        "--replay", default=None, metavar="FILE",
        help="re-run the reproducers in a fuzz JSON report instead of fuzzing",
    )
    p_fz.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="inject seeded message faults, e.g. "
        "drop=0.02,dup=0.02,delay=0.05 (keys are FaultPlan fields); "
        "the oracle comparison is unchanged — the reliable-delivery "
        "layer must recover transparently",
    )
    p_fz.add_argument(
        "--store-dir", default=DEFAULT_ROOT,
        help="directory holding the campaign journal "
        f"(default {DEFAULT_ROOT})",
    )
    p_fz.add_argument("--resume", action="store_true", help=resume_help)
    add_engine(p_fz)

    p_fl = sub.add_parser(
        "faults",
        help="fault-injection sweep: the conformance campaign at each "
        "fault rate, tabulating failures and recovery traffic",
    )
    p_fl.add_argument("--seed", type=int, default=0)
    p_fl.add_argument("--iters", type=int, default=10,
                      help="programs per rate (default 10)")
    p_fl.add_argument("--procs", type=int, default=8)
    p_fl.add_argument(
        "--protocols", nargs="*", default=list(all_names()),
        choices=sorted(REGISTRY), metavar="PROTO",
    )
    p_fl.add_argument(
        "--rates", nargs="*", type=float, default=[0.01, 0.02, 0.05],
        metavar="RATE",
        help="drop/dup rates to sweep; delay rate is 2x (default "
        "0.01 0.02 0.05)",
    )
    p_fl.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="base plan the swept rates are applied on top of "
        "(e.g. burst_every=50000,burst_len=2000)",
    )
    p_fl.add_argument(
        "--jobs", type=int, default=1,
        help="verify iterations in parallel worker processes",
    )
    p_fl.add_argument(
        "--apps", nargs="*", default=[], choices=sorted(APPS), metavar="APP",
        help="also run these applications (small presets, invariant "
        "checker on) under each swept fault plan, e.g. the service "
        "workloads kvstore taskqueue pubsub",
    )
    p_fl.add_argument(
        "--store-dir", default=DEFAULT_ROOT,
        help="directory holding the campaign journal "
        f"(default {DEFAULT_ROOT})",
    )
    p_fl.add_argument("--resume", action="store_true", help=resume_help)
    add_engine(p_fl)

    p_sc = sub.add_parser(
        "scenarios",
        help="named scenario library: versioned JSON documents bundling "
        "an app, machine shape, and phase-scripted fault plan",
    )
    sc_sub = p_sc.add_subparsers(dest="action", required=True)
    p_sc_list = sc_sub.add_parser("list", help="list the builtin scenarios")
    p_sc_list.add_argument(
        "--verbose", "-v", action="store_true",
        help="also print each scenario's description",
    )
    p_sc_run = sc_sub.add_parser(
        "run", help="run scenarios across their protocol sweeps"
    )
    p_sc_run.add_argument(
        "names", nargs="+", metavar="NAME",
        help="builtin scenario names (or paths to scenario JSON files)",
    )
    p_sc_run.add_argument(
        "--protocols", nargs="*", default=[],
        choices=sorted(REGISTRY), metavar="PROTO",
        help="restrict the sweep (default: the scenario's own list, or "
        "every protocol)",
    )
    p_sc_run.add_argument(
        "--procs", type=int, default=None,
        help="override the scenario's machine size (CI smokes use this)",
    )
    p_sc_run.add_argument(
        "--store-dir", default=DEFAULT_ROOT,
        help=f"result-store directory (default {DEFAULT_ROOT})",
    )
    p_sc_run.add_argument(
        "--no-store", action="store_true",
        help="do not read or write the on-disk result store",
    )
    p_sc_run.add_argument("--resume", action="store_true", help=resume_help)
    add_engine(p_sc_run)

    args = ap.parse_args(argv)
    if getattr(args, "engine", None):
        # Via the environment so parallel workers inherit the choice.
        os.environ[ENV_ENGINE] = args.engine
    if getattr(args, "shards", None):
        os.environ[ENV_SHARDS] = str(args.shards)
    if args.cmd == "list":
        return _cmd_list(args)
    if args.cmd == "run":
        return _cmd_run(args)
    if args.cmd == "figures":
        return _cmd_figures(args)
    if args.cmd == "trace":
        return _cmd_trace(args)
    if args.cmd == "fuzz":
        return _cmd_fuzz(args)
    if args.cmd == "faults":
        return _cmd_faults(args)
    if args.cmd == "scenarios":
        return _cmd_scenarios(args)
    return _cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
