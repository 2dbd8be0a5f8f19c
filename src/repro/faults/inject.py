"""The per-message fault oracle.

:class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan`
into concrete per-message decisions.  The fabric consults it once per
physical transmission (first sends, retransmits, and acks alike); the
injector owns one seeded PRNG substream *per transmitting node*, so each
node's fault schedule is a pure function of (plan, that node's own
transmission order).  Per-node streams — rather than one global stream —
are what keep the schedule independent of cross-node event interleaving,
so sharded runs (DESIGN.md §14) draw exactly the decisions serial runs
draw.
"""

from __future__ import annotations

import random

from repro.faults.plan import FaultPlan


class Decision:
    """What happens to one physical transmission."""

    __slots__ = ("drop", "dup", "extra")

    def __init__(self, drop: bool = False, dup: bool = False, extra: int = 0) -> None:
        self.drop = drop
        self.dup = dup
        self.extra = extra  # added transit cycles (delay / reorder jitter)

    def __repr__(self) -> str:
        return f"Decision(drop={self.drop}, dup={self.dup}, extra={self.extra})"


#: A transmission the injector leaves alone (shared, immutable).
_CLEAN = Decision()
#: A dropped transmission (shared, immutable).
_DROP = Decision(drop=True)


class FaultInjector:
    """Seeded, deterministic fault decisions for a whole run.

    Everything that depends only on the plan is worked out once, here:
    whether any (src, dst, channel) filter exists, and for the base
    rates and each phase's rates the clamped probabilities at ``mult``
    1 and at ``burst_mult``.  :meth:`decide` then makes exactly the
    ``random()``/``randint()`` calls, in exactly the order, that the
    direct form of the procedure makes (``tests/test_inject_draw_order.py``
    holds it to that form).
    """

    __slots__ = ("plan", "seed", "_rngs", "_filtered", "_base", "_phase_probs")

    def __init__(self, plan: FaultPlan, seed=None) -> None:
        self.plan = plan
        self.seed = plan.seed if seed is None else seed
        self._rngs: dict = {}
        self._filtered = not (
            plan.src is None and plan.dst is None and plan.channel is None
        )
        # Probabilities (outside a burst, inside one) of the base rates
        # and, keyed by their rates tuple, of each phase's rates; None
        # for an all-zero (calm) rate set.
        self._base = self._clamped((plan.drop, plan.dup, plan.delay, plan.reorder))
        self._phase_probs = {
            rates: self._clamped(rates)
            for rates in ((p.drop, p.dup, p.delay, p.reorder) for p in plan.phases)
        }

    def _clamped(self, rates):
        """``(drop, dup, delay, reorder)`` probabilities at ``mult`` 1 and
        at ``burst_mult``.  The truthiness tests stay on the *unclamped*
        rates: a delay or reorder draw is skipped (``None``) only when its
        rate is zero or ``delay_cycles`` is, so ``burst_mult=0`` still
        consumes the same draws."""
        drop, dup, delay, reorder = rates
        if not (drop or dup or delay or reorder):
            # A calm rate set consumes no randomness, so the fault
            # schedule inside the faulty windows is independent of how
            # much clean traffic flowed between them.
            return None
        jitter = self.plan.delay_cycles
        return tuple(
            (
                min(1.0, drop * mult),
                min(1.0, dup * mult),
                min(1.0, delay * mult) if jitter and delay else None,
                min(1.0, reorder * mult) if jitter and reorder else None,
            )
            for mult in (1.0, self.plan.burst_mult)
        )

    def _new_rng(self, src: int) -> random.Random:
        """The transmitting node's private PRNG substream (first use).

        Seeded from (run seed, node id) via the string form, which
        :mod:`random` hashes with SHA-512 — deterministic across
        processes and ``PYTHONHASHSEED`` values.
        """
        rng = self._rngs[src] = random.Random(f"{self.seed}:{src}")
        return rng

    def decide(self, src: int, dst: int, channel: str, t: int) -> Decision:
        """The fate of one transmission injected at time ``t``.

        Messages outside the plan's (src, dst, channel) filter are
        always clean.  The effective rates are the plan's base rates or,
        inside a scripted phase window, that phase's rates
        (:meth:`FaultPlan.rates_at`); inside a burst window whichever
        set is live is multiplied by ``burst_mult`` (clamped to 1.0).
        """
        plan = self.plan
        if self._filtered and not plan.matches(src, dst, channel):
            return _CLEAN
        if plan.phases:
            probs = self._phase_probs.get(plan.rates_at(t), self._base)
        else:
            probs = self._base
        if probs is None:
            return _CLEAN
        rng = self._rngs.get(src) or self._new_rng(src)
        burst_every = plan.burst_every
        drop, dup, delay, reorder = probs[
            burst_every > 0 and (t % burst_every) < plan.burst_len
        ]
        if rng.random() < drop:
            # A dropped message needs no further decisions; still a
            # single decision point so schedules shift minimally.
            return _DROP
        dup = rng.random() < dup
        extra = 0
        if delay is not None and rng.random() < delay:
            extra += rng.randint(1, plan.delay_cycles)
        if reorder is not None and rng.random() < reorder:
            extra += rng.randint(1, plan.delay_cycles)
        if not dup and not extra:
            return _CLEAN
        return Decision(dup=dup, extra=extra)
