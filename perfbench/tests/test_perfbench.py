"""Tests of the benchmark's own logic.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as bench_run  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    Span,
    check_digests,
    digest,
    failed_frac,
    self_times,
    span_totals,
    tail_percentile,
)
from perfbench.probe import Probe, layer_of_file  # noqa: E402
from perfbench.workloads import PassOutput, Sim, Workload  # noqa: E402


# -- tail percentile ----------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 5, 10])
def test_no_tail_without_ten_samples_beyond(n):
    assert tail_percentile([float(i) for i in range(n)]) is None


def test_tail_is_highest_percentile_with_ten_beyond():
    xs = [float(i) for i in range(100, 0, -1)]  # unsorted on purpose
    tail = tail_percentile(xs)
    assert tail.n == 100
    assert tail.beyond == 10
    assert tail.percentile == pytest.approx(90.0)
    assert tail.value == 90.0  # rank 90 of 1..100
    assert sum(x > tail.value for x in xs) == 10


def test_tail_of_eleven_samples_is_the_minimum():
    tail = tail_percentile([3.0] + [5.0] * 10)
    assert tail.value == 3.0
    assert tail.beyond == 10


# -- self time from nested spans ----------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("pass", 0.0, 10.0, -1),
        Span("replay", 1.0, 4.0, 0),
        Span("compile", 2.0, 3.0, 1),
        Span("store", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    totals = span_totals(spans + [Span("store", 9.0, 9.5, 0)])
    assert totals["store"] == pytest.approx(4.5)
    assert totals["pass"] == pytest.approx(10.0)


def test_probe_records_nested_spans_only_while_tracing():
    probe = Probe()
    with probe.span("outer"):
        pass
    assert probe.spans == []
    probe.tracing = True
    with probe.span("outer"):
        with probe.span("inner"):
            pass
    outer, inner = probe.spans
    assert (outer.name, outer.parent) == ("outer", -1)
    assert (inner.name, inner.parent) == ("inner", 0)
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_layer_of_file():
    assert layer_of_file("/x/src/repro/engine/replay.py") == "replay"
    assert layer_of_file("/x/src/repro/engine/events.py") == "events"
    assert layer_of_file("/x/src/repro/trace/invariants.py") == "invariants"
    assert layer_of_file("/x/src/repro/apps/kvstore.py") == "program"
    assert layer_of_file("/usr/lib/python3/json/encoder.py") is None
    assert layer_of_file(str(ROOT / "perfbench" / "probe.py")) == "other"


# -- failure counting ---------------------------------------------------------

def test_failed_frac():
    assert failed_frac(10, 0) == 0.0
    assert failed_frac(4, 1) == 0.25
    with pytest.raises(ValueError):
        failed_frac(0, 0)
    with pytest.raises(ValueError):
        failed_frac(3, 4)


class _Fake(Workload):
    """Three simulations (one wrong, one failed) and a failed check."""

    name = "fake"

    def __init__(self):
        super().__init__(0, "", Probe())

    def run(self):
        return PassOutput(
            sims=[Sim("a", "d-a", 1.0), Sim("b", "d-wrong", 2.0),
                  Sim("c", None, None, error="stall")],
            results=[],
            checks={"faults fired": False},
        )

    def warm(self):
        return {"a": "d-a", "b": "d-wrong", "c": None}


def _stats():
    return {"attempted": 0, "failed": 0, "problems": []}


def test_run_pass_counts_attempted_and_failed():
    stats = _stats()
    expected = {"a": "d-a", "b": "d-b", "c": "d-c", "lost": "d-lost"}
    bench_run.run_pass(_Fake(), Probe(), False, expected, stats)
    # 3 simulations + 1 missing + 1 check; b, c, lost and the check fail.
    # The warm repetitions serve the same outputs and add nothing.
    assert stats["attempted"] == 5
    assert stats["failed"] == 4
    assert any("c: digest mismatch stall" in p for p in stats["problems"])


class _TwoSims(Workload):
    """Two simulations, the second wrong; ``warm_a`` is what the warm
    tier serves for the first."""

    name = "two"

    def __init__(self, warm_a):
        super().__init__(0, "", Probe())
        self.warm_a = warm_a

    def run(self):
        return PassOutput(
            sims=[Sim("a", "d-a", 1.0), Sim("b", "d-wrong", 1.0)], results=[]
        )

    def warm(self):
        return {"a": self.warm_a, "b": "d-wrong"}


@pytest.mark.parametrize("warm_a, ok", [("d-a", 0.5), ("d-stale", 0.0)])
def test_failed_frac_counts_each_simulation_once(monkeypatch, warm_a, ok):
    monkeypatch.setattr(bench_run, "WARM_MIN_REPS", 50)
    stats = _stats()
    bench_run.run_pass(_TwoSims(warm_a), Probe(), False,
                       {"a": "d-a", "b": "d-b"}, stats)
    assert stats["attempted"] == 2
    assert 1.0 - failed_frac(stats["attempted"], stats["failed"]) == ok


# -- digests ------------------------------------------------------------------

def test_digest_is_canonical():
    assert digest({"a": 1, "b": [1, 2]}) == digest({"b": [1, 2], "a": 1})
    assert digest({"a": 1}) != digest({"a": 2})


def test_check_digests_flags_a_corrupted_entry():
    want = {"x": "1111", "y": "2222"}
    assert check_digests({"x": "1111", "y": "2222"}, want) == []
    assert check_digests({"x": "1111", "y": "2223"}, want) == ["y"]
    assert check_digests({"x": "1111"}, None) == ["x"]


def test_corrupted_digest_fails_the_command(tmp_path, monkeypatch, capsys):
    table = json.loads(bench_run.DIGESTS.read_text())
    cells = table["fuzz"]["0"]
    key = sorted(cells)[0]
    cells[key] = "0" * len(cells[key])
    bad = tmp_path / "digests.json"
    bad.write_text(json.dumps(table))
    monkeypatch.setattr(bench_run, "DIGESTS", bad)
    code = bench_run.main(["--workload", "fuzz", "--seed", "0",
                           "--seconds", "1", "--trace", "0"])
    out = capsys.readouterr().out
    assert code != 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert f"fuzz: {key}: digest mismatch" in out


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mesh", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
