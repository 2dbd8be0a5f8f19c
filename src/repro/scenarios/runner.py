"""Execute a scenario across its protocol sweep and persist a summary.

:func:`run_scenario` is deliberately thin: each (scenario, protocol)
cell is just an :class:`~repro.harness.spec.ExperimentSpec` built by
:meth:`Scenario.spec_for`, executed through the same memoized
:func:`~repro.harness.experiments.run_spec` path as every table and
figure — so scenario runs share the result store with everything else
and re-running a scenario is warm.

What the runner adds is the *artifact*: one
``scenario-<name>.artifact.json`` document in the
:class:`~repro.results.store.ResultStore` summarizing the whole sweep —
per-protocol cycle counts, traffic, and the recovery counters
(retransmits, injected drops/dups/delays) that tell the fault story —
plus structured failure records for any cell that crashed, so a faulted
campaign leaves evidence rather than a stack trace.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.scenarios.scenario import Scenario

#: Recovery/fault counters surfaced in scenario summaries.
RECOVERY_COUNTERS = (
    "retransmits",
    "dup_drops",
    "drops_injected",
    "dups_injected",
    "delays_injected",
)

_UNSET = object()


def artifact_name(scenario_name: str) -> str:
    """The ResultStore artifact name of a scenario summary."""
    return f"scenario-{scenario_name}"


def summarize_result(result) -> Dict[str, Any]:
    """The per-protocol summary block of a successful cell."""
    row: Dict[str, Any] = {
        "ok": True,
        "exec_time": result.stats.exec_time,
        "references": result.stats.references,
        "misses": result.stats.misses,
        "miss_rate": result.stats.miss_rate,
        "messages": result.traffic.total_messages,
        "bytes": result.traffic.total_bytes,
    }
    for name in RECOVERY_COUNTERS:
        row[name] = getattr(result.traffic, name, 0)
    return row


def run_scenario(
    scenario: Scenario,
    protocols: Optional[Sequence[str]] = None,
    n_procs: Optional[int] = None,
    store=_UNSET,
    engine: Optional[str] = None,
    progress=None,
    journal=None,
) -> Dict[str, Any]:
    """Run one scenario; return (and persist) its summary artifact.

    Every cell runs with the invariant checker on; a violation is a
    simulator defect and is recorded as the cell's failure.
    ``protocols`` restricts the scenario's sweep; ``n_procs`` overrides
    the document's machine size (CI uses this to shrink smokes).
    ``store`` defaults to the process-wide store (pass ``None`` to force
    disk off, mirroring :func:`~repro.harness.experiments.run_spec`).  A
    cell that raises is recorded as a
    :class:`~repro.results.store.RunFailure` in the store and marked
    ``ok: False`` in the summary — the rest of the sweep still runs,
    matching how fault campaigns behave.

    ``journal`` (a :class:`~repro.results.journal.CampaignJournal`)
    makes the sweep resumable: each protocol cell's summary row is
    written ahead, and cells already journaled are skipped on a later
    invocation with the journaled row reused verbatim — cells are
    deterministic, so the rebuilt artifact is bit-identical to an
    uninterrupted run's.
    """
    from repro.harness.experiments import run_spec
    from repro.results.store import RunFailure, default_store

    if store is _UNSET:
        store = default_store()
    protos = scenario.protocol_list(protocols)
    completed = journal.completed() if journal is not None else {}
    cells: Dict[str, Any] = {}
    for proto in protos:
        entry = completed.get(proto)
        if entry is not None and entry["op"] == "done":
            cells[proto] = entry["data"]
            if progress is not None:
                progress(f"  {scenario.name}: {proto}: journaled, skipping")
            continue
        spec = scenario.spec_for(proto, n_procs=n_procs, check_invariants=True)
        if progress is not None:
            progress(f"  {scenario.name}: {spec.label()}")
        if journal is not None:
            journal.start(proto)
        try:
            result = run_spec(spec, store=store, engine=engine)
        except Exception as exc:  # record, keep sweeping
            failure = RunFailure.from_exception(spec, exc)
            if store is not None:
                store.save_failure(spec, failure)
            cells[proto] = {
                "ok": False,
                "kind": failure.kind,
                "message": failure.message,
                "fingerprint": spec.fingerprint(),
            }
            if journal is not None:
                journal.done(proto, cells[proto])
            continue
        row = summarize_result(result)
        row["fingerprint"] = spec.fingerprint()
        cells[proto] = row
        if journal is not None:
            journal.done(proto, row)
    summary = {
        "scenario": scenario.to_dict(),
        "n_procs": n_procs if n_procs is not None else scenario.n_procs,
        "protocols": list(protos),
        "results": cells,
        "ok": all(row.get("ok") for row in cells.values()),
    }
    if store is not None:
        store.save_artifact(artifact_name(scenario.name), summary)
    return summary
