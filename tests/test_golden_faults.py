"""Golden regression fixture for faulted runs: exact cycle counts and
recovery counters under seeded message faults, checked into
``tests/golden/faults_p4.json``.

The fault-free goldens (``test_golden.py``) never touch the reliable
fabric or the fault injector; this fixture pins both.  Any drift means
the fault schedule (RNG draw order), the recovery protocol or the
fabric timing changed — a bug, or an intentional change to review and
then bless with::

    PYTHONPATH=src python -m pytest tests/test_golden_faults.py --update-golden
"""

import json

import pytest

from repro.faults.plan import FaultPhase, FaultPlan
from repro.harness.spec import ExperimentSpec
from repro.network.messages import RELIABILITY_COUNTERS, MsgType

from tests.test_golden import GOLDEN_DIR, PROTOCOLS, diff_lines

N_PROCS = 4
APPS = ("kvstore", "mp3d")

#: Every fault kind at once, plus periodic bursts that multiply the rates.
MIXED = FaultPlan(
    seed=11, drop=0.03, dup=0.03, delay=0.06, reorder=0.04,
    delay_cycles=150, burst_every=6000, burst_len=900, burst_mult=3.0,
)

#: Phase-scripted: a mild base link, a lossy outage, a scripted calm
#: window and a jittery tail, with a burst multiplier over all of it.
PHASED = FaultPlan(
    seed=23, drop=0.01, delay=0.02, delay_cycles=120,
    burst_every=10000, burst_len=1000, burst_mult=2.0,
    phases=(
        FaultPhase(start=2000, end=9000, drop=0.08, dup=0.04, delay=0.05),
        FaultPhase(start=12000, end=18000),
        FaultPhase(start=22000, end=40000, delay=0.03, reorder=0.08),
    ),
)

PLANS = {"mixed": MIXED, "phased": PHASED}
PATH = GOLDEN_DIR / f"faults_p{N_PROCS}.json"


def snapshot() -> dict:
    out = {"n_procs": N_PROCS, "plans": {}}
    for plan_name, plan in PLANS.items():
        runs = out["plans"][plan_name] = {}
        for app in APPS:
            for proto in PROTOCOLS:
                spec = ExperimentSpec(
                    app, proto, n_procs=N_PROCS, small=True, faults=plan,
                )
                r = spec.run()
                t = r.traffic
                runs[f"{app}/{proto}"] = {
                    "exec_time": r.exec_time,
                    "total_messages": t.total_messages,
                    "rd_acks": t.count[MsgType.RD_ACK],
                    **{name: getattr(t, name) for name in RELIABILITY_COUNTERS},
                }
    return out


def test_faulted_golden_snapshot(update_golden):
    got = snapshot()
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        PATH.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden fixture rewritten: {PATH}")
    assert PATH.exists(), (
        f"missing golden fixture {PATH}; generate it with "
        f"`pytest tests/test_golden_faults.py --update-golden`"
    )
    want = json.loads(PATH.read_text())
    if want != got:
        diff = "\n".join(diff_lines(want, got))
        pytest.fail(
            f"faulted runs drifted from {PATH.name}:\n{diff}\n"
            f"If the change is intentional, re-bless with --update-golden.",
            pytrace=False,
        )


def test_fixture_exercises_every_fault_kind():
    """The fixture is only a guard if the faults it pins really fired."""
    want = json.loads(PATH.read_text())
    for plan_name, runs in want["plans"].items():
        for name in RELIABILITY_COUNTERS:
            assert sum(r[name] for r in runs.values()) > 0, (plan_name, name)
        assert all(r["rd_acks"] > 0 for r in runs.values()), plan_name
