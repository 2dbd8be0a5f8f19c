"""The benchmark's four workloads.

Each workload is a closed batch run from one process: ``setup()`` does the
work a user pays once before the measured pass, ``run()`` is one measured
pass, and ``warm()`` serves the same pass's results again from the warm
tier (result store or campaign journal).  Every pass returns the digest
of each simulation's ``RunResult.to_dict()`` so the caller can check it
against the committed table.

The benchmark's ``--seed`` picks one of :data:`VARIANTS` input variants:
variant 0 is the simulator's default configuration seed, variant ``v``
overrides the config seed (app inputs) to ``default + v`` and gives the
fuzzer the programs of seeds ``1000 * v`` onwards besides its fixed
corpus.  Digests of every variant are committed, so every run is checked.
"""

from __future__ import annotations

import gc
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perfbench.metrics import digest
from perfbench.probe import Probe, read_worker_reports

#: Number of committed input variants; ``--seed`` is taken modulo this.
VARIANTS = 8


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def seed_overrides(variant: int) -> Dict[str, int]:
    """Config-seed override of a variant (none for variant 0, so its
    specs fingerprint exactly as the repository's own runs do)."""
    if variant == 0:
        return {}
    from repro.config import SystemConfig

    return {"seed": SystemConfig().seed + variant}


@dataclass
class Sim:
    key: str
    digest: Optional[str]  # None: the simulation failed
    seconds: Optional[float]
    error: str = ""


@dataclass
class PassOutput:
    sims: List[Sim]
    results: list  # RunResults of the successful simulations
    #: Extra named checks of the pass (name -> passed).
    checks: Dict[str, bool] = field(default_factory=dict)
    worker_reports: List[dict] = field(default_factory=list)


class Workload:
    name = ""
    #: Worker processes the workload runs in (1: in-process).
    jobs = 1
    #: Whether the simulations run in pool worker processes.
    pool = False

    def __init__(self, variant: int, workdir: str, probe: Probe) -> None:
        self.variant = variant
        self.workdir = workdir
        self.probe = probe

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def options(self) -> Dict[str, object]:
        """Resolved run options, printed before the first pass."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> PassOutput:
        raise NotImplementedError

    def warm(self) -> Dict[str, str]:
        raise NotImplementedError

    def warm_expected(self, cold: PassOutput) -> Dict[str, str]:
        """What :meth:`warm` must return after the pass ``cold``."""
        return {s.key: s.digest for s in cold.sims}


def _clear_memos() -> None:
    from repro.harness.experiments import clear_cache
    from repro.program.stream import clear_stream_cache

    clear_cache()
    clear_stream_cache()


# -- campaign -------------------------------------------------------------------

#: Cells of the campaign: every SPLASH app's Table 2 miss-classification
#: cell (erc on the default machine) plus three more protocols on the
#: machine given here, so each app runs under four protocols.  The cells
#: are among the cheapest at 64 processors, so a pass fits a run.
CAMPAIGN_CELLS = {
    "barnes": ("default", ("lrc", "lrc-ext", "tardis")),
    "blu": ("default", ("lrc", "lrc-ext", "tardis")),
    "mp3d": ("default", ("sc", "lrc-ext", "tardis")),
    "cholesky": ("future", ("sc", "lrc", "lrc-ext")),
    "fft": ("future", ("sc", "lrc", "lrc-ext")),
    "gauss": ("future", ("sc", "lrc", "tardis")),
    "locusroute": ("future", ("lrc", "lrc-ext", "tardis")),
}
CAMPAIGN_PROCS = 64


def campaign_specs(variant: int) -> list:
    """The campaign's fixed subset of ``all_artifact_specs(n_procs=64)``,
    slowest-first so the pool's tail is short."""
    from repro.harness.experiments import all_artifact_specs

    def wanted(s) -> bool:
        if s.classify:
            return s.protocol == "erc" and s.kind == "default"
        kind, protocols = CAMPAIGN_CELLS.get(s.app, (None, ()))
        return not s.overrides and s.kind == kind and s.protocol in protocols

    over = seed_overrides(variant)
    specs = [
        s.with_(overrides=over)
        for s in all_artifact_specs(n_procs=CAMPAIGN_PROCS)
        if wanted(s)
    ]
    # Classify cells and big apps first: longest-processing-time order.
    heavy = {"gauss": 0, "barnes": 1, "locusroute": 2, "mp3d": 3, "blu": 4}
    specs.sort(key=lambda s: (not s.classify, heavy.get(s.app, 9)))
    return specs


class Campaign(Workload):
    name = "campaign"
    pool = True

    def __init__(self, variant, workdir, probe) -> None:
        super().__init__(variant, workdir, probe)
        self.jobs = os.cpu_count() or 1
        self.specs: list = []
        self.labels: Dict[object, str] = {}

    def options(self):
        return {
            "cells": len(self.specs),
            "jobs": self.jobs,
            "procs": CAMPAIGN_PROCS,
            "stall_watchdog": "armed in pool workers (REPRO_STALL_CYCLES "
            "defaulted by the runner)",
        }

    def setup(self) -> None:
        self.specs = campaign_specs(self.variant)
        self.labels = {s: s.label() for s in self.specs}
        self.store_root = self.fresh_dir("campaign-store")
        self.probe.worker_dir = self.fresh_dir("workers")

    def _store(self):
        from repro.results.store import ResultStore

        return ResultStore(self.store_root)

    def run(self) -> PassOutput:
        from repro.harness.runner import run_parallel

        _clear_memos()
        shutil.rmtree(self.store_root, ignore_errors=True)
        store = self._store()
        failures: dict = {}
        with self.probe.span("runner.run_parallel"):
            results = run_parallel(
                self.specs, jobs=self.jobs, store=store,
                on_failure="record", failures_out=failures,
            )
        reports = read_worker_reports(self.probe.worker_dir)
        elapsed = {r["fingerprint"]: r["elapsed"] for r in reports}
        sims = []
        for spec in self.specs:
            result = results.get(spec)
            sims.append(Sim(
                key=self.labels[spec],
                digest=digest(result.to_dict()) if result else None,
                seconds=elapsed.get(spec.fingerprint()),
                error="" if result else str(failures.get(spec, "no result")),
            ))
        return PassOutput(
            sims=sims, results=list(results.values()), worker_reports=reports
        )

    def warm(self) -> Dict[str, str]:
        from repro.harness.runner import run_parallel

        _clear_memos()
        results = run_parallel(
            self.specs, jobs=self.jobs, store=self._store(), on_failure="record"
        )
        return {self.labels[s]: digest(r.to_dict()) for s, r in results.items()}


# -- mesh / checked -------------------------------------------------------------

class _Kvstore(Workload):
    """Serial kvstore (small preset) under lrc and tardis, in-process."""

    procs = 0
    check = False
    protocols = ("lrc", "tardis")

    def options(self):
        from repro.harness.spec import resolve_engine, resolve_shards

        return {
            "app": "kvstore (small preset)",
            "procs": self.procs,
            "protocols": ",".join(self.protocols),
            "check_invariants": self.check,
            "engine": resolve_engine(),
            "shards": resolve_shards(),
            "stall_watchdog": "off (in-process runs do not arm it)",
        }

    def setup(self) -> None:
        from repro.engine import replay
        from repro.harness.spec import ExperimentSpec

        over = seed_overrides(self.variant)
        self.specs = [
            ExperimentSpec(
                "kvstore", p, n_procs=self.procs, small=True,
                overrides=over, check_invariants=self.check,
            )
            for p in self.protocols
        ]
        _clear_memos()
        # All protocols share one recording; record and compile it now.
        replay.compile_stream(self.specs[0].recorded_stream())
        self.store_root = self.fresh_dir(f"{self.name}-store")

    def run(self) -> PassOutput:
        from repro.results.store import ResultStore

        store = ResultStore(self.store_root)
        sims, results = [], []
        for spec in self.specs:
            # A finished machine is freed only by the cyclic collector, at
            # a moment that varies from run to run; collecting first makes
            # the peak memory that of one simulation.
            gc.collect()
            t0 = time.perf_counter()
            try:
                result = spec.run()
            except Exception as exc:  # a failed simulation is a failed output
                sims.append(Sim(spec.label(), None, None, error=repr(exc)))
                continue
            store.save(spec, result)
            sims.append(Sim(
                spec.label(), digest(result.to_dict()), time.perf_counter() - t0
            ))
            results.append(result)
        return PassOutput(sims=sims, results=results)

    def warm(self) -> Dict[str, str]:
        from repro.results.store import ResultStore

        store = ResultStore(self.store_root)
        out = {}
        for spec in self.specs:
            hit = store.load(spec)
            out[spec.label()] = digest(hit.to_dict()) if hit else None
        return out


class Mesh(_Kvstore):
    name = "mesh"
    procs = 1024


class Checked(_Kvstore):
    name = "checked"
    procs = 128
    check = True


# -- fuzz -----------------------------------------------------------------------

FUZZ_PROCS = 8
FUZZ_FAULTS = "drop=0.02,dup=0.02,delay=0.05"
#: Programs of the seed's own campaign: seeds ``1000 * variant + i``.
FUZZ_ITERS = 8
#: A fixed corpus every pass also runs.  Program costs vary about 50%
#: from one program to the next, so eight seed-specific programs alone
#: would make a pass's time depend mostly on the draw; the corpus keeps
#: most of the work the same across seeds.
FUZZ_CORPUS_SEED = 1_000_000
FUZZ_CORPUS_ITERS = 24


class Fuzz(Workload):
    name = "fuzz"

    def options(self):
        return {
            "corpus_programs": f"{FUZZ_CORPUS_ITERS} from seed {FUZZ_CORPUS_SEED}",
            "seed_programs": f"{FUZZ_ITERS} from seed {1000 * self.variant}",
            "procs": FUZZ_PROCS,
            "protocols": ",".join(self.protocols),
            "faults": FUZZ_FAULTS,
            "checker": "on (the fuzzer always checks invariants and values)",
            "stall_watchdog": "off (in-process runs do not arm it)",
        }

    def setup(self) -> None:
        from repro.conformance.fuzz import PROTOCOLS_UNDER_TEST
        from repro.faults.plan import FaultPlan

        self.protocols = tuple(PROTOCOLS_UNDER_TEST)
        self.faults = FaultPlan.parse(FUZZ_FAULTS)
        self.store_root = self.fresh_dir("fuzz-store")
        self.campaigns = [
            (FUZZ_CORPUS_SEED, FUZZ_CORPUS_ITERS),
            (1000 * self.variant, FUZZ_ITERS),
        ]
        for seed, iters in self.campaigns:
            self._journal(seed, iters)

    def _journal(self, seed: int, iters: int):
        from repro.results.journal import CampaignJournal

        params = {
            "seed": seed, "iters": iters, "procs": FUZZ_PROCS,
            "protocols": list(self.protocols), "faults": self.faults.to_dict(),
        }
        return CampaignJournal.for_campaign(self.store_root, "fuzz", params)

    def _fuzz(self) -> list:
        """Run (or resume) both campaigns; their summaries."""
        from repro.conformance import fuzz_run

        out = []
        for seed, iters in self.campaigns:
            with self.probe.span("conformance.fuzz_run"):
                out.append(fuzz_run(
                    seed=seed, iters=iters, n_procs=FUZZ_PROCS,
                    protocols=self.protocols, faults=self.faults,
                    do_minimize=False, journal=self._journal(seed, iters),
                ))
        return out

    def run(self) -> PassOutput:
        _clear_memos()
        for seed, iters in self.campaigns:
            self._journal(seed, iters).clear()
        summaries = self._fuzz()
        self._outcome = [(s["failures"], s["traffic"]) for s in summaries]
        seconds = {f"{s}/{p}": dt for s, p, dt in self.probe.run_one_s}
        sims = [
            Sim(f"{seed}/{proto}", digest(result.to_dict()),
                seconds.get(f"{seed}/{proto}"))
            for seed, proto, result, _dt in self.probe.replays
        ]
        for f in (f for s in summaries for f in s["failures"]):
            key = f"{f['seed']}/{f['protocol']}"
            sims = [s for s in sims if s.key != key]
            sims.append(Sim(
                key, None, seconds.get(key),
                error=f"{f['reason']}: {f['message']}",
            ))
        retransmits = sum(s["traffic"]["retransmits"] for s in summaries)
        return PassOutput(
            sims=sims,
            results=[r for _s, _p, r, _dt in self.probe.replays],
            checks={"faults fired (retransmits > 0)": retransmits > 0},
        )

    def warm(self) -> Dict[str, str]:
        # Resuming the finished journals must reproduce the cold outcome.
        again = [(s["failures"], s["traffic"]) for s in self._fuzz()]
        return {"journal resume": "same" if again == self._outcome else "differs"}

    def warm_expected(self, cold: PassOutput) -> Dict[str, str]:
        return {"journal resume": "same"}


WORKLOADS = {w.name: w for w in (Campaign, Mesh, Checked, Fuzz)}
