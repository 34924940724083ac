"""Numeric helpers: logs of big integers, log-sum-exp, rate intervals."""

from __future__ import annotations

import math

import numpy as np

_LOG2 = math.log(2.0)

# two-sided 95% normal quantile
Z95 = 1.959963984540054


def log_of_int(n: int) -> float:
    """Natural log of a nonnegative integer of arbitrary size; -inf for 0.

    Shifts the integer into float range before taking the log, so the
    result is accurate to ~1 ulp even for integers with thousands of bits.
    """
    if n < 0:
        raise ValueError("log_of_int requires a nonnegative integer")
    if n == 0:
        return float("-inf")
    shift = max(0, n.bit_length() - 60)
    return math.log(n >> shift) + shift * _LOG2


def log_factorials(n: int) -> np.ndarray:
    """log j! for j = 0..n, from math.lgamma."""
    return np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)


def logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) for a 1-D float array; -inf when every entry is -inf.

    The same arithmetic as scipy.special.logsumexp, so results agree bit
    for bit: the largest terms (several, if tied) leave the sum and come
    back as log1p(s / count) + log(count) + top.
    """
    top = a.max()
    if top == -math.inf:
        return -math.inf
    at_top = a == top
    count = float(np.count_nonzero(at_top))
    s = np.exp(np.where(at_top, -np.inf, a) - top).sum()
    return float(np.log1p(s / count) + np.log(count) + top)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval (z = Z95) for a binomial rate.

    Well-behaved at rates near 0 and 1; at zero successes the lower edge
    is exactly 0, giving a one-sided interval rather than a degenerate one.
    """
    if trials <= 0:
        raise ValueError("wilson_interval requires trials >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4 * trials * trials)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high
