"""Scenario library + service workloads: determinism, round-trip,
schema rejection, runner artifacts, and the ``scenarios`` CLI.

Three layers:

* **service-app determinism** — identical seeds produce identical
  zipfian request tapes, identical recorded-stream fingerprints, and
  bit-identical :class:`RunResult` numbers (the property the golden
  fixtures and the replay cache both stand on);
* **documents** — every builtin scenario round-trips through
  dict/JSON, and malformed documents (unknown keys at any level, bad
  phase windows, wrong schema, name/filename drift) are rejected at
  load time;
* **runner/CLI** — ``run_scenario`` persists a summary artifact through
  the ResultStore, records per-cell failures without aborting the
  sweep, and the ``scenarios list``/``scenarios run`` subcommands work
  end to end.
"""

import json

import pytest

from repro.__main__ import main
from repro.apps import SERVICE_APPS, AppContext, KVStore, PubSub, TaskQueue
from repro.config import SystemConfig
from repro.harness.spec import ExperimentSpec
from repro.program.stream import RecordedStream
from repro.results.store import ResultStore
from repro.scenarios import (
    Scenario,
    builtin_scenarios,
    load_scenario,
    run_scenario,
)

#: The names the library must provide (the CLI and CI smoke by name).
REQUIRED_SCENARIOS = (
    "satellite_link",
    "burst_loss",
    "congestion_collapse",
    "intermittent_connectivity",
)


def cfg(n=4, **kw):
    kw.setdefault("cache_size", 4096)
    return SystemConfig.scaled(n_procs=n, **kw)


class TestServiceAppDeterminism:
    def test_identical_seeds_identical_request_tapes(self):
        a = KVStore(AppContext(cfg()), n_keys=64, shards=4, ops=32)
        b = KVStore(AppContext(cfg()), n_keys=64, shards=4, ops=32)
        assert [list(map(tuple, r)) for r in a.requests] == \
               [list(map(tuple, r)) for r in b.requests]
        assert list(a.key_of_rank) == list(b.key_of_rank)

    def test_different_seed_different_tape(self):
        a = KVStore(AppContext(cfg(seed=1)), n_keys=64, shards=4, ops=32)
        b = KVStore(AppContext(cfg(seed=2)), n_keys=64, shards=4, ops=32)
        assert [list(map(tuple, r)) for r in a.requests] != \
               [list(map(tuple, r)) for r in b.requests]

    @pytest.mark.parametrize("cls,params", [
        (KVStore, dict(n_keys=64, shards=4, ops=32)),
        (TaskQueue, dict(tasks=48, work=16)),
        (PubSub, dict(topics=4, messages=3)),
    ])
    def test_stream_fingerprints_stable_across_records(self, cls, params):
        a = RecordedStream.record(cls(AppContext(cfg()), **params))
        b = RecordedStream.record(cls(AppContext(cfg()), **params))
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("app", SERVICE_APPS)
    def test_run_results_bit_identical(self, app):
        spec = ExperimentSpec(app, "lrc", n_procs=4, small=True)
        assert spec.run().to_dict() == spec.run().to_dict()


class TestScenarioDocuments:
    def test_library_has_required_names(self):
        lib = builtin_scenarios()
        assert set(REQUIRED_SCENARIOS) <= set(lib)
        assert len(lib) >= 4

    @pytest.mark.parametrize("name", sorted(builtin_scenarios()))
    def test_builtin_round_trips(self, name):
        sc = load_scenario(name)
        assert Scenario.from_dict(sc.to_dict()) == sc
        assert Scenario.from_json(sc.to_json()) == sc
        # Canonical JSON is itself stable.
        assert Scenario.from_json(sc.to_json()).to_json() == sc.to_json()

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown Scenario fields"):
            Scenario.from_dict({"name": "x", "app": "kvstore", "appp": 1})

    def test_unknown_fault_key_rejected(self):
        with pytest.raises(ValueError, match="unknown FaultPlan fields"):
            Scenario.from_dict(
                {"name": "x", "app": "kvstore", "faults": {"dorp": 0.5}}
            )

    def test_unknown_phase_key_rejected(self):
        with pytest.raises(ValueError, match="unknown FaultPhase fields"):
            Scenario.from_dict({
                "name": "x", "app": "kvstore",
                "faults": {"phases": [{"start": 0, "end": 1, "bad": 2}]},
            })

    def test_bad_phase_window_rejected(self):
        with pytest.raises(ValueError, match="start < end"):
            Scenario.from_dict({
                "name": "x", "app": "kvstore",
                "faults": {"phases": [{"start": 5, "end": 5}]},
            })
        with pytest.raises(ValueError, match="sorted and non-overlapping"):
            Scenario.from_dict({
                "name": "x", "app": "kvstore",
                "faults": {"phases": [{"start": 0, "end": 10, "drop": 0.1},
                                      {"start": 5, "end": 15, "drop": 0.1}]},
            })

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            Scenario.from_dict({"name": "x", "app": "kvstore", "schema": 99})

    def test_missing_required_fields_rejected(self):
        with pytest.raises(ValueError, match="missing required"):
            Scenario.from_dict({"name": "x"})

    def test_unknown_app_protocol_and_params_rejected(self):
        with pytest.raises(ValueError, match="unknown application"):
            Scenario(name="x", app="nosuch")
        with pytest.raises(ValueError, match="unknown protocols"):
            Scenario(name="x", app="kvstore", protocols=("mesi",))
        with pytest.raises(ValueError, match="does not accept params"):
            Scenario(name="x", app="kvstore", params={"keys": 10})

    def test_bad_name_slug_rejected(self):
        with pytest.raises(ValueError, match="slug"):
            Scenario(name="Satellite Link", app="kvstore")

    def test_name_filename_drift_rejected(self, tmp_path):
        sc = load_scenario("baseline_perfect")
        path = tmp_path / "renamed.json"
        path.write_text(sc.to_json())
        with pytest.raises(ValueError, match="rename"):
            load_scenario(path)

    def test_load_unknown_name_lists_library(self):
        with pytest.raises(ValueError, match="satellite_link"):
            load_scenario("nosuch_scenario")

    def test_spec_for_carries_params_and_faults(self):
        sc = load_scenario("satellite_link")
        spec = sc.spec_for("lrc", n_procs=4)
        assert spec.faults == sc.faults
        assert spec.n_procs == 4
        assert dict(spec.params) == dict(sc.params)


class TestRunnerAndCli:
    def small(self, name="tiny_kv", **kw):
        kw.setdefault("app", "kvstore")
        kw.setdefault("small", True)
        kw.setdefault("n_procs", 4)
        return Scenario(name=name, **kw)

    def test_runner_persists_summary_artifact(self, tmp_path):
        store = ResultStore(tmp_path)
        summary = run_scenario(
            self.small(), protocols=["lrc", "sc"], store=store,
        )
        assert summary["ok"]
        assert summary["protocols"] == ["lrc", "sc"]
        art = store.load_artifact("scenario-tiny_kv")
        assert art["results"]["lrc"]["exec_time"] > 0
        assert art["scenario"]["app"] == "kvstore"

    def test_runner_records_failures_and_keeps_sweeping(self, tmp_path, monkeypatch):
        import repro.harness.experiments as exp

        real = exp.run_spec

        def flaky(spec, **kw):
            if spec.protocol == "sc":
                raise RuntimeError("boom")
            return real(spec, **kw)

        monkeypatch.setattr(exp, "run_spec", flaky)
        store = ResultStore(tmp_path)
        summary = run_scenario(
            self.small(), protocols=["sc", "lrc"], store=store
        )
        assert not summary["ok"]
        assert not summary["results"]["sc"]["ok"]
        assert summary["results"]["lrc"]["ok"]
        spec = self.small().spec_for("sc")
        assert store.load_failure(spec) is not None

    def test_faulted_scenario_reports_recovery_traffic(self, tmp_path):
        sc = self.small(
            name="tiny_faulted",
            faults={"seed": 7, "drop": 0.02, "dup": 0.02},
        )
        summary = run_scenario(
            sc, protocols=["lrc"], store=ResultStore(tmp_path)
        )
        row = summary["results"]["lrc"]
        assert row["drops_injected"] > 0
        assert row["retransmits"] > 0

    def test_cli_list_names_every_builtin(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in REQUIRED_SCENARIOS:
            assert name in out

    def test_cli_run_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "tiny_kv.json"
        path.write_text(self.small().to_json())
        rc = main([
            "scenarios", "run", str(path),
            "--protocols", "lrc", "tardis",
            "--store-dir", str(tmp_path / "store"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tiny_kv" in out and "lrc" in out and "tardis" in out
        art = json.loads(
            (tmp_path / "store" / "scenario-tiny_kv.artifact.json").read_text()
        )
        assert art["artifact"]["ok"]
