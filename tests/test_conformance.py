"""Tests for the conformance fuzzer (generator, oracle, harness,
minimizer — DESIGN.md §9)."""

import json

import pytest

from repro.conformance import (
    ProgramSpec,
    Unit,
    fuzz_iteration,
    fuzz_run,
    generate,
    interpret,
    materialize,
    minimize,
    run_one,
)
from repro.conformance.fuzz import make_fail_predicate, replay_reproducer, write_reproducers
from repro.conformance.oracle import token, token_str
from repro.program.ops import BARRIER, READ, WRITE, WRITE_RUN
from repro.protocols import PROTOCOLS

from tests.test_trace import BrokenAcquireLRC, BrokenReleaseLRC


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

class TestGenerator:
    def test_deterministic(self):
        a = generate(7, 4, n_ops=60)
        b = generate(7, 4, n_ops=60)
        assert a.to_dict() == b.to_dict()

    def test_seeds_differ(self):
        a = generate(0, 4, n_ops=60)
        b = generate(1, 4, n_ops=60)
        assert a.to_dict() != b.to_dict()

    @pytest.mark.parametrize("mode", ["mixed", "migratory", "phases", "producer"])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_all_modes_produce_drf_programs(self, mode, seed):
        spec = generate(seed, 4, n_ops=40, mode=mode)
        oracle = interpret(spec)
        assert oracle.ok, (oracle.races, oracle.error)

    def test_programs_end_with_global_barrier(self):
        for seed in range(6):
            spec = generate(seed, 4, n_ops=40)
            last = spec.units[-1]
            assert last.kind == "barrier"
            assert len(last.ops) == spec.n_procs

    def test_budget_scales_op_count(self):
        small = generate(5, 4, n_ops=30)
        big = generate(5, 4, n_ops=200)
        assert big.op_count() > small.op_count()

    def test_rejects_uniprocessor(self):
        with pytest.raises(ValueError):
            generate(0, 1)


# ---------------------------------------------------------------------------
# ProgramSpec serialization + materialization
# ---------------------------------------------------------------------------

class TestProgramSpec:
    def test_json_round_trip(self):
        spec = generate(2, 4, n_ops=40)
        back = ProgramSpec.from_json(spec.to_json())
        assert back.to_dict() == spec.to_dict()
        assert back.op_count() == spec.op_count()

    def test_copy_is_deep(self):
        spec = generate(2, 2, n_ops=20)
        cp = spec.copy()
        cp.units[0].ops[0][0][0] = "xxx"
        assert spec.units[0].ops[0][0][0] != "xxx"

    def test_materialize_rebases_words(self):
        ops = [["read", 3], ["write", 5], ["write_run", 0, 4, 2], ["barrier", 0]]
        out = list(materialize(ops, base=1000))
        assert out[0] == (READ, 1000 + 3 * 8)
        assert out[1] == (WRITE, 1000 + 5 * 8)
        assert out[2] == (WRITE_RUN, 1000, 4, 16)
        assert out[3] == (BARRIER, 0)

    def test_materialize_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            list(materialize([["frobnicate", 1]], base=0))


# ---------------------------------------------------------------------------
# Sequential oracle
# ---------------------------------------------------------------------------

def _spec(n_procs, units, n_words=64):
    return ProgramSpec(n_procs, n_words, units)


def _closing_barrier(n_procs, bid=99):
    return Unit("barrier", {p: [["barrier", bid]] for p in range(n_procs)})


class TestOracle:
    def test_flag_chain_final_value(self):
        # p0 writes word 0 twice, then hands it to p1 who overwrites it.
        units = [
            Unit("link", {0: [["write", 0], ["write", 0], ["set_flag", 0]]}),
            Unit("link", {1: [["wait_flag", 0], ["read", 0], ["write", 0]]}),
            _closing_barrier(2),
        ]
        r = interpret(_spec(2, units))
        assert r.ok
        assert r.final[0] == token(1, 0)  # p1's first dynamic write wins
        assert r.counts[0] == {
            "reads": 0, "writes": 2, "acquires": 0, "releases": 1, "barriers": 1,
        }
        assert r.counts[1] == {
            "reads": 1, "writes": 1, "acquires": 1, "releases": 0, "barriers": 1,
        }

    def test_unsynchronized_write_write_race_detected(self):
        units = [
            Unit("racy", {0: [["write", 7]], 1: [["write", 7]]}),
            _closing_barrier(2),
        ]
        r = interpret(_spec(2, units))
        assert not r.ok
        assert r.races

    def test_lock_orders_accesses(self):
        units = [
            Unit("lock0", {
                0: [["acquire", 0], ["write", 3], ["release", 0]],
                1: [["acquire", 0], ["read", 3], ["release", 0]],
            }),
            _closing_barrier(2),
        ]
        r = interpret(_spec(2, units))
        assert r.ok
        assert r.final[3] == token(0, 0)

    def test_wait_without_set_is_deadlock(self):
        units = [
            Unit("link", {0: [["wait_flag", 5], ["read", 0]]}),
            _closing_barrier(2),
        ]
        r = interpret(_spec(2, units))
        assert r.error is not None

    def test_token_str(self):
        assert token_str(None) == "uninit"
        assert token_str(token(3, 17)) == "p3#w17"


# ---------------------------------------------------------------------------
# Differential harness
# ---------------------------------------------------------------------------

class TestRunOne:
    @pytest.mark.parametrize("protocol", ["sc", "erc", "lrc", "lrc-ext"])
    def test_clean_on_generated_program(self, protocol):
        spec = generate(4, 4, n_ops=40)
        assert run_one(spec, protocol) is None

    def test_fuzz_iteration_clean_across_protocols(self):
        fails = fuzz_iteration(
            0, seed=9, n_procs=4, n_ops=40,
            protocols=("sc", "erc", "lrc", "lrc-ext", "tardis"),
        )
        assert fails == []

    def test_local_refetch_waits_for_own_eviction_notice(self, monkeypatch):
        """Regression: program 5002 under lrc-ext with faults.  Node 0
        evicted block 0x22, which is homed at node 0, and fetched it
        again.  Local messages are handled at their send time, and the
        eviction notice went out at the fill's later bus time, so the
        home handled the re-fetch first and then dropped node 0 from the
        sharers of the refilled line ("node 0 caches block 0x22 (RO) but
        home 0 does not list it as a sharer")."""
        from repro.protocols.lrc import LRCProtocol

        held = []
        hold = LRCProtocol._local_hold

        def spy(self, node, t, block):
            out = hold(self, node, t, block)
            if out != t:
                held.append((node.id, block))
            return out

        monkeypatch.setattr(LRCProtocol, "_local_hold", spy)
        fails = fuzz_iteration(
            2, 5002, 8, 120, ["lrc-ext"], do_minimize=False,
            faults="drop=0.02,dup=0.02,delay=0.05",
        )
        assert fails == []
        assert (0, 0x22) in held

    def test_broken_release_caught(self, monkeypatch):
        monkeypatch.setitem(PROTOCOLS, BrokenReleaseLRC.name, BrokenReleaseLRC)
        spec = generate(0, 4, n_ops=40)
        failure = run_one(spec, BrokenReleaseLRC.name)
        assert failure is not None
        reason, message, _machine = failure
        assert reason == "invariant"
        assert "release fired" in message

    def test_broken_acquire_caught(self, monkeypatch):
        monkeypatch.setitem(PROTOCOLS, BrokenAcquireLRC.name, BrokenAcquireLRC)
        # Migratory sharing leans hardest on acquire-time invalidations.
        for seed in range(5):
            spec = generate(seed, 4, n_ops=60, mode="migratory")
            if run_one(spec, BrokenAcquireLRC.name) is not None:
                return
        pytest.fail("no migratory program caught the broken-acquire protocol")


class TestFuzzRunCampaign:
    def test_clean_campaign_summary(self):
        summary = fuzz_run(seed=0, iters=2, n_procs=4, n_ops=30)
        assert summary["iters"] == 2
        assert summary["failures"] == []

    def test_broken_protocol_minimized_reproducer(self, monkeypatch, tmp_path):
        monkeypatch.setitem(PROTOCOLS, BrokenReleaseLRC.name, BrokenReleaseLRC)
        summary = fuzz_run(
            seed=0, iters=1, n_procs=4, n_ops=40,
            protocols=(BrokenReleaseLRC.name,),
        )
        assert len(summary["failures"]) == 1
        f = summary["failures"][0]
        assert f["reason"] == "invariant"
        assert f["trace_window"]  # violation-anchored event window rendered
        mini = ProgramSpec.from_dict(f["minimized"])
        assert mini.op_count() <= 30
        # The minimized program must itself still be valid DRF + failing.
        assert interpret(mini).ok
        assert run_one(mini, BrokenReleaseLRC.name) is not None

        # JSON round trip through the reproducer file + replay API.
        out = tmp_path / "repro.json"
        write_reproducers(summary, str(out))
        assert json.loads(out.read_text())["failures"][0]["seed"] == 0
        assert replay_reproducer(str(out)) == 1  # still failing
        monkeypatch.delitem(PROTOCOLS, BrokenReleaseLRC.name)


# ---------------------------------------------------------------------------
# Minimizer
# ---------------------------------------------------------------------------

class TestMinimize:
    def test_shrinks_to_artificial_predicate(self):
        spec = generate(1, 4, n_ops=60)
        # Artificial "bug": any program still containing a lock acquire.
        def fails(s):
            return any(
                op[0] == "acquire"
                for u in s.units for v in u.ops.values() for op in v
            )
        if not fails(spec):
            spec = generate(3, 4, n_ops=60)
        small = minimize(spec, fails)
        assert fails(small)
        assert interpret(small).ok
        assert small.op_count() < spec.op_count()
        # ddmin strips every non-lock unit and the op pass strips the
        # critical-section data ops, leaving acquire/release pairs plus
        # the mandatory closing barrier.
        for u in small.units[:-1]:
            assert u.kind.startswith("lock")
            for v in u.ops.values():
                assert [op[0] for op in v] == ["acquire", "release"]
        assert small.op_count() <= 3 * small.n_procs

    def test_rejects_passing_spec(self):
        spec = generate(1, 2, n_ops=20)
        with pytest.raises(ValueError):
            minimize(spec, lambda s: False)

    def test_candidates_keep_closing_barrier(self, monkeypatch):
        monkeypatch.setitem(PROTOCOLS, BrokenReleaseLRC.name, BrokenReleaseLRC)
        spec = generate(0, 4, n_ops=40)
        small = minimize(spec, make_fail_predicate(BrokenReleaseLRC.name))
        last = small.units[-1]
        assert last.kind == "barrier" and len(last.ops) == small.n_procs


# ---------------------------------------------------------------------------
# ExperimentSpec integration (the parallel clean-scan path)
# ---------------------------------------------------------------------------

class TestSpecIntegration:
    def test_value_check_env_verifies_in_run(self, monkeypatch):
        from repro.harness.spec import ExperimentSpec

        monkeypatch.setenv("REPRO_VALUE_CHECK", "1")
        spec = ExperimentSpec(
            app="fuzz", protocol="lrc", n_procs=4,
            overrides=(("seed", 5), ("cache_size", 2048)),
            check_invariants=True,
        )
        r = spec.run()
        assert r.exec_time > 0

    def test_fuzz_fingerprint_keyed_by_seed(self):
        from repro.harness.spec import ExperimentSpec

        a = ExperimentSpec(app="fuzz", protocol="lrc", n_procs=4,
                           overrides=(("seed", 1),))
        b = ExperimentSpec(app="fuzz", protocol="lrc", n_procs=4,
                           overrides=(("seed", 2),))
        assert a.fingerprint() != b.fingerprint()


# ---------------------------------------------------------------------------
# Longer differential sweep (nightly; excluded from tier-1 by marker)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_fuzz_sweep_many_seeds_clean():
    for procs in (2, 4, 8):
        summary = fuzz_run(seed=100, iters=5, n_procs=procs, n_ops=60)
        assert summary["failures"] == [], summary["failures"]
