"""Order statistics shared by the benchmark processes and its smoke test."""

from __future__ import annotations

import math

# Tail percentiles in per mille, so the "ten samples beyond" rule is exact
# integer arithmetic.
TAIL_LADDER_PERMILLE = (500, 750, 900, 950, 990, 999)
MIN_SAMPLES_BEYOND = 10


def percentile(values, level: float) -> float:
    """Linear interpolation between closest ranks (numpy's default rule)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * level / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_level(n_samples: int) -> float:
    """Highest ladder percentile that leaves at least ten of n samples beyond it.

    Below twenty samples no ladder level qualifies and the median is used.
    """
    best = TAIL_LADDER_PERMILLE[0]
    for permille in TAIL_LADDER_PERMILLE:
        if n_samples * (1000 - permille) >= MIN_SAMPLES_BEYOND * 1000:
            best = permille
    return best / 10.0
