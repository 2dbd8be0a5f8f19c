"""Pure statistics helpers of the benchmark (no simulator imports)."""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, NamedTuple, Optional, Sequence

#: A tail percentile must have at least this many samples above it.
TAIL_MIN_BEYOND = 10


class Tail(NamedTuple):
    percentile: float  # e.g. 71.4 for the p71.4 value
    value: float
    beyond: int        # samples strictly above the reported rank
    n: int             # all samples


def tail_percentile(
    samples: Sequence[float], min_beyond: int = TAIL_MIN_BEYOND
) -> Optional[Tail]:
    """The highest percentile that still has ``min_beyond`` samples
    beyond it, by nearest rank; ``None`` when there are too few samples.

    With ``n`` sorted samples, rank ``k`` (1-based) is the ``100*k/n``
    percentile and has ``n - k`` samples beyond it, so the answer is rank
    ``n - min_beyond``.
    """
    n = len(samples)
    k = n - min_beyond
    if k < 1:
        return None
    xs = sorted(samples)
    return Tail(percentile=100.0 * k / n, value=xs[k - 1], beyond=n - k, n=n)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its direct children cover.

    Spans come from a stack discipline, so children of one parent never
    overlap and their durations simply add up.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [(s.end - s.start) - covered[i] for i, s in enumerate(spans)]


def span_totals(spans: Sequence[Span]) -> Dict[str, float]:
    """Per span name: summed duration (parents are not needed)."""
    out: Dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
    return out


def failed_frac(attempted: int, failed: int) -> float:
    """Failed checked outputs over attempted ones."""
    if attempted < 1:
        raise ValueError("nothing was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def digest(result_dict: dict) -> str:
    """Content digest of one simulation's ``RunResult.to_dict()``."""
    canon = json.dumps(result_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:20]


def check_digests(
    got: Dict[str, str], want: Optional[Dict[str, str]]
) -> List[str]:
    """Keys whose digest is missing from ``want`` or differs from it."""
    if want is None:
        return sorted(got)
    return sorted(k for k, d in got.items() if want.get(k) != d)
