"""Draw-order contract of the fault injector.

Every faulted number in the repository (the faulted golden fixture, the
benchmark digests, stored results) is a function of the exact sequence
of ``random()``/``randint()`` calls :meth:`FaultInjector.decide` makes
on each node's PRNG substream.  :func:`reference_decide` below is the
straightforward form of that decision procedure, kept verbatim as an
oracle: for long sequences of transmissions the injector must return the
same ``(drop, dup, extra)`` decision and leave every node's PRNG in the
same state — whatever it precomputes to make the per-message path cheap.
"""

import random

import pytest

from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPhase, FaultPlan


def reference_decide(plan: FaultPlan, rngs: dict, seed, src, dst, channel, t):
    """The injector's decision procedure, written out directly."""
    if not plan.matches(src, dst, channel):
        return (False, False, 0)
    if plan.phases:
        drop, dup_rate, delay, reorder = plan.rates_at(t)
    else:
        drop, dup_rate, delay, reorder = (
            plan.drop, plan.dup, plan.delay, plan.reorder,
        )
    if not (drop or dup_rate or delay or reorder):
        return (False, False, 0)
    rng = rngs.get(src)
    if rng is None:
        rng = rngs[src] = random.Random(f"{seed}:{src}")
    mult = plan.burst_mult if plan.in_burst(t) else 1.0
    if rng.random() < min(1.0, drop * mult):
        return (True, False, 0)
    dup = rng.random() < min(1.0, dup_rate * mult)
    extra = 0
    if plan.delay_cycles:
        if delay and rng.random() < min(1.0, delay * mult):
            extra += rng.randint(1, plan.delay_cycles)
        if reorder and rng.random() < min(1.0, reorder * mult):
            extra += rng.randint(1, plan.delay_cycles)
    if not dup and not extra:
        return (False, False, 0)
    return (False, dup, extra)


_PHASES = (
    FaultPhase(start=1000, end=4000, drop=0.2, dup=0.1, delay=0.3),
    FaultPhase(start=5000, end=7000),  # scripted calm
    FaultPhase(start=7000, end=9000, reorder=0.4),
    FaultPhase(start=12000, end=15000, drop=0.6, delay=0.5, reorder=0.5),
)

PLANS = {
    "mixed-burst": FaultPlan(
        seed=3, drop=0.05, dup=0.05, delay=0.1, reorder=0.05,
        delay_cycles=90, burst_every=700, burst_len=150, burst_mult=3.0,
    ),
    "burst-clamps": FaultPlan(
        seed=4, drop=0.3, dup=0.4, delay=0.5, reorder=0.6,
        burst_every=500, burst_len=250, burst_mult=4.0,
    ),
    "burst-mult-zero": FaultPlan(
        seed=5, drop=0.1, dup=0.1, delay=0.2, reorder=0.2,
        burst_every=400, burst_len=200, burst_mult=0.0,
    ),
    "delay-cycles-zero": FaultPlan(
        seed=6, drop=0.05, dup=0.1, delay=0.3, reorder=0.3, delay_cycles=0,
        burst_every=300, burst_len=100,
    ),
    "reorder-only": FaultPlan(seed=7, reorder=0.25, delay_cycles=40),
    "delay-only": FaultPlan(seed=8, delay=0.25, delay_cycles=1),
    "src-filter": FaultPlan(seed=9, drop=0.1, dup=0.1, delay=0.1, src=2),
    "dst-filter": FaultPlan(seed=10, drop=0.1, dup=0.1, reorder=0.2, dst=1),
    "channel-filter": FaultPlan(
        seed=11, drop=0.1, dup=0.2, delay=0.2, channel="ctl",
        burst_every=1000, burst_len=300,
    ),
    "all-filters": FaultPlan(
        seed=12, drop=0.2, delay=0.3, src=0, dst=3, channel="data",
    ),
    "phases-over-base": FaultPlan(
        seed=13, drop=0.02, dup=0.02, delay=0.05, phases=_PHASES,
        burst_every=2500, burst_len=600, burst_mult=2.5,
    ),
    "phases-calm-base": FaultPlan(
        seed=14, phases=_PHASES, burst_every=3000, burst_len=900,
        burst_mult=0.0,
    ),
    "phases-filtered": FaultPlan(
        seed=15, dup=0.1, phases=_PHASES, channel="data", delay_cycles=0,
    ),
}

N_NODES = 6
N_DRAWS = 6000


def transmissions(seed: int, ordered: bool):
    """A long, reproducible sequence of (src, dst, channel, t)."""
    gen = random.Random(seed)
    out = []
    t = 0
    for _ in range(N_DRAWS):
        src = gen.randrange(N_NODES)
        dst = (src + 1 + gen.randrange(N_NODES - 1)) % N_NODES
        if ordered:
            t += gen.randrange(8)
        else:
            t = gen.randrange(18000)
        out.append((src, dst, gen.choice(("ctl", "data")), t))
    return out


@pytest.mark.parametrize("ordered", [True, False], ids=["ordered-t", "random-t"])
@pytest.mark.parametrize("name", sorted(PLANS))
def test_decisions_and_rng_state_match_reference(name, ordered):
    plan = PLANS[name]
    inj = FaultInjector(plan)
    ref_rngs: dict = {}
    fired = 0
    for i, (src, dst, ch, t) in enumerate(transmissions(plan.seed, ordered)):
        d = inj.decide(src, dst, ch, t)
        got = (d.drop, d.dup, d.extra)
        want = reference_decide(plan, ref_rngs, plan.seed, src, dst, ch, t)
        assert got == want, f"{name}: transmission {i} at t={t}"
        fired += got != (False, False, 0)
    assert sorted(inj._rngs) == sorted(ref_rngs)
    for src, rng in ref_rngs.items():
        assert inj._rngs[src].getstate() == rng.getstate(), (name, src)
    if name != "burst-mult-zero":
        assert fired, f"{name}: no fault fired; the comparison proved nothing"


def test_explicit_seed_overrides_plan_seed():
    plan = PLANS["mixed-burst"]
    inj = FaultInjector(plan, seed=99)
    ref_rngs: dict = {}
    for src, dst, ch, t in transmissions(1, ordered=True):
        d = inj.decide(src, dst, ch, t)
        assert (d.drop, d.dup, d.extra) == reference_decide(
            plan, ref_rngs, 99, src, dst, ch, t,
        )
