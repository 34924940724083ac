"""Phase-transition curves: minimum measurements versus sparsity ratio.

For each sparsity level one search, _smallest_m (a stdlib bisection),
finds the smallest integer measurement count m with meets(m), a
predicate each bound supplies and the tests check for monotonicity in
m on a grid.  Curve generation is deterministic: nothing is sampled.

Dense points take an exact predicate.  With entries uniform over GF(q)
a row annihilates every nonzero vector with probability exactly 1/q, so
the pair counts enter the bound only through their sum,
bounds.pair_total, and each m compares integers: no pair-count profile,
no float rounding, and a bound equal to the target meets it.  Every
other gamma compares the log-domain union_bound with log(target).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .bounds import PairVariant, pair_total, union_bound
from .model import ModelParams, dense_gamma, signal_set_size, sparse_gamma


@dataclass(frozen=True)
class GammaMode:
    """Dense (gamma = 1 - 1/q) or logarithmic-sparse (gamma = c ln(n)/n)."""

    kind: str  # "dense" | "sparse"
    c: float | None = None

    def __post_init__(self):
        if self.kind not in ("dense", "sparse"):
            raise ValueError(f"unknown gamma mode {self.kind!r}")
        if self.kind == "sparse" and (self.c is None or self.c <= 0):
            raise ValueError("sparse mode requires c > 0")

    @classmethod
    def dense(cls) -> "GammaMode":
        return cls(kind="dense")

    @classmethod
    def sparse(cls, c: float) -> "GammaMode":
        return cls(kind="sparse", c=float(c))

    @classmethod
    def parse(cls, text: str) -> "GammaMode":
        """Parse 'dense' or 'c=<real>'."""
        t = text.strip().lower()
        if t == "dense":
            return cls.dense()
        if t.startswith("c="):
            return cls.sparse(float(t[2:]))
        raise ValueError(f"cannot parse gamma mode {text!r}; expected 'dense' or 'c=<real>'")

    def resolve(self, q: int, n: int) -> float:
        if self.kind == "dense":
            return dense_gamma(q)
        return sparse_gamma(self.c, n)

    @property
    def label(self) -> str:
        return "dense" if self.kind == "dense" else f"c={self.c:g}"


class MinMeasurements(NamedTuple):
    m: int
    achieved: bool


@dataclass(frozen=True)
class CurvePoint:
    """One curve sample: the smallest m meeting the target at this k."""

    q: int
    gamma_mode: str
    k: int
    m: int
    sparsity_ratio: float
    compression_ratio: float
    target: float
    variant: PairVariant
    achieved: bool


def _search_ceiling(n: int, q: int) -> int:
    return n * math.ceil(math.log2(q)) + 64


def _smallest_m(meets: Callable[[int], bool], hi: int) -> MinMeasurements:
    """Smallest m in [1, hi] with meets(m), meets monotone; (hi, False) if none."""
    if not meets(hi):
        return MinMeasurements(m=hi, achieved=False)
    return MinMeasurements(m=bisect.bisect_left(range(1, hi), True, key=meets) + 1, achieved=True)


def min_measurements(
    n: int,
    k: int,
    q: int,
    gamma: float,
    target: float = 1e-2,
    variant: PairVariant = PairVariant.ALL_PAIRS,
) -> MinMeasurements:
    """Smallest m with union bound <= target, by _smallest_m over one predicate.

    At gamma = dense_gamma(q) the predicate is exact: every row
    annihilates a nonzero vector with probability 1/q, so the bound is
    pair_total / |L| * q^-m.  A float target is exactly num/den, so m
    passes iff pair_total * den <= num * |L| * q^m, an integer test that
    a tie passes.  Any other gamma compares the log-domain union_bound
    with log(target).  The search runs up to the ceiling n ceil(log2 q)
    + 64; if even that misses the target the ceiling is returned with
    achieved=False: a flagged point, not a fatal one.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must lie in (0, 1), got {target}")
    hi = _search_ceiling(n, q)
    # rejects what the first union_bound call would, on either route
    ModelParams(n=n, k=k, m=hi, q=q, gamma=gamma)

    if gamma == dense_gamma(q):
        num, den = target.as_integer_ratio()
        sizes = signal_set_size(n, k, q)
        lhs = pair_total(sizes, variant) * den
        rhs = num * sizes.total

        def meets(m: int) -> bool:
            return lhs <= rhs * q**m

    else:
        log_target = math.log(target)

        def meets(m: int) -> bool:
            params = ModelParams(n=n, k=k, m=m, q=q, gamma=gamma)
            return union_bound(params, variant).log_value <= log_target

    return _smallest_m(meets, hi)


def default_k_grid(n: int) -> list[int]:
    """Sparsity grid at ratios 0.01, 0.02, ..., 0.50 of n (deduplicated)."""
    ks = sorted({round(n * i / 100) for i in range(1, 51)})
    return [k for k in ks if k >= 1]


def curve(
    n: int,
    q: int,
    gamma_mode: GammaMode,
    k_grid: list[int] | None = None,
    target: float = 1e-2,
    variant: PairVariant = PairVariant.ALL_PAIRS,
) -> list[CurvePoint]:
    """One phase-transition curve: a CurvePoint per sparsity level."""
    ks = k_grid if k_grid is not None else default_k_grid(n)
    gamma = gamma_mode.resolve(q, n)
    points = []
    for k in ks:
        res = min_measurements(n, k, q, gamma, target=target, variant=variant)
        points.append(
            CurvePoint(
                q=q,
                gamma_mode=gamma_mode.label,
                k=k,
                m=res.m,
                sparsity_ratio=k / n,
                compression_ratio=res.m / n,
                target=target,
                variant=PairVariant(variant),
                achieved=res.achieved,
            )
        )
    return points
