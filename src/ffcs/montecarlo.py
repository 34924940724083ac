"""Empirical verification harness for the analytic bounds.

Samples (matrix, signal) instances at desk scale, detects both error
events exactly against the full candidate set, and reports rates with
Wilson 95% intervals alongside the analytic union and converse bounds.

Reproducibility scheme: trial i draws from
``numpy.random.default_rng(SeedSequence(seed).spawn(trials)[i])``, i.e.
a child stream keyed by the trial index.  Within a trial the draw order
is fixed: matrix zero-mask uniforms, matrix nonzero values, then the
signal index (uniform over the canonical enumeration of L).  Trials are
therefore independent of evaluation order and safe to parallelize.
`ffcs simulate --dump` writes the instances _sample_trials draws.

The error flags are evaluated by a vectorized batch path that applies a
block of trial matrices to all of L at once through
model.measure_candidates, the decoder's kernel; it computes the same
predicates as decoder.error_events, and the test suite pins the two
routes against each other on sampled instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import fano_lower_bound, row_zero_prob_sparse, union_bound
from .decoder import DEFAULT_ENUMERATION_CAP
from .field import FiniteField, make_field
from .model import ModelParams, candidate_matrix, measure_candidates
from .util import wilson_interval

# elements per (trials x m x |L|) work block
_BLOCK_ELEMS = 1 << 23


@dataclass(frozen=True)
class TrialReport:
    """Aggregate of a Monte Carlo run; reconstructible from (params, trials, seed)."""

    params: ModelParams
    trials: int
    e0_errors: int
    e_errors: int
    e0_rate: float
    e_rate: float
    e0_ci_low: float
    e0_ci_high: float
    e_ci_low: float
    e_ci_high: float
    inclusion_violations: int  # trials flagged e0 but not e; must be 0
    union_bound_log: float
    union_bound_value: float  # capped into [0, 1]
    fano_value: float
    seed: int


@dataclass(frozen=True)
class NullityReport:
    """Empirical annihilation frequencies for two equal-weight vectors."""

    q: int
    n: int
    m: int
    gamma: float
    h: int
    trials: int
    hits_1: int
    hits_2: int
    rate_1: float
    rate_2: float
    ci_1: tuple[float, float]
    ci_2: tuple[float, float]
    analytic: float  # single-row nullity probability to the m-th power
    rates_consistent: bool  # the two empirical CIs overlap
    matches_analytic: bool  # analytic value inside both CIs
    seed: int


def _sample_trials(
    params: ModelParams, trials: int, seed: int, n_candidates: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw all trial matrices and signal indices via per-trial substreams."""
    children = np.random.SeedSequence(seed).spawn(trials)
    mats = np.empty((trials, params.m, params.n), dtype=np.int16)
    idx = np.empty(trials, dtype=np.int64)
    shape = (params.m, params.n)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        zero_mask = rng.random(shape) >= params.gamma
        values = rng.integers(1, params.q, size=shape, dtype=np.int16)
        mats[i] = np.where(zero_mask, 0, values)
        idx[i] = rng.integers(0, n_candidates)
    return mats, idx


def run_trials(
    params: ModelParams,
    trials: int,
    seed: int,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> TrialReport:
    """Estimate both error probabilities over `trials` sampled instances.

    Per trial: draw a matrix and a uniform signal from L, measure, and
    flag e0 (decoder output differs from the truth, ambiguity included)
    and e (a candidate no heavier than the truth collides with it).  A
    zero error count is reported as-is; the Wilson interval then has a
    one-sided shape with its lower edge at 0.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    field = make_field(params.q)
    cands, weights = candidate_matrix(params.n, params.k, params.q, cap=enumeration_cap)
    n_cand = cands.shape[0]
    mats, idx = _sample_trials(params, trials, seed, n_cand)

    e0_flags = np.zeros(trials, dtype=bool)
    e_flags = np.zeros(trials, dtype=bool)
    big = np.int64(params.n + 1)
    block = max(1, _BLOCK_ELEMS // max(1, params.m * n_cand))
    for s in range(0, trials, block):
        mb = mats[s : s + block]
        ib = idx[s : s + block]
        meas = measure_candidates(field, mb, cands)
        y = np.take_along_axis(meas, ib[:, None, None], axis=2)
        feas = (meas == y).all(axis=1)  # (t, c)
        k1 = weights[ib]
        # e: any feasible candidate, other than x itself, of weight <= k1
        lighter = weights[None, :] < k1[:, None]
        same_w = weights[None, :] == k1[:, None]
        n_same = (feas & same_w).sum(axis=1)  # includes x itself
        e_flags[s : s + len(ib)] = (feas & lighter).any(axis=1) | (n_same >= 2)
        # e0: sparsest feasible level below k1, or a tie at that level
        min_w = np.where(feas, weights[None, :], big).min(axis=1)
        n_min = (feas & (weights[None, :] == min_w[:, None])).sum(axis=1)
        e0_flags[s : s + len(ib)] = (min_w < k1) | (n_min >= 2)

    e0_errors = int(e0_flags.sum())
    e_errors = int(e_flags.sum())
    e0_lo, e0_hi = wilson_interval(e0_errors, trials)
    e_lo, e_hi = wilson_interval(e_errors, trials)
    ub = union_bound(params)
    return TrialReport(
        params=params,
        trials=trials,
        e0_errors=e0_errors,
        e_errors=e_errors,
        e0_rate=e0_errors / trials,
        e_rate=e_errors / trials,
        e0_ci_low=e0_lo,
        e0_ci_high=e0_hi,
        e_ci_low=e_lo,
        e_ci_high=e_hi,
        inclusion_violations=int((e0_flags & ~e_flags).sum()),
        union_bound_log=ub.log_value,
        union_bound_value=ub.capped_linear,
        fano_value=fano_lower_bound(params.n, params.k, params.q, params.m),
        seed=seed,
    )


def _pick_weight_h_vectors(n: int, q: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Two distinct weight-h vectors, deterministically.

    First vector: ones on positions 0..h-1.  Second: ones on the support
    shifted by one position when h < n; with full support (h = n, needs
    q > 2) the first entry becomes 2 instead.
    """
    if not 1 <= h <= n:
        raise ValueError("h must lie in [1, n]")
    d1 = np.zeros(n, dtype=np.int16)
    d1[:h] = 1
    d2 = np.zeros(n, dtype=np.int16)
    if h < n:
        d2[1 : h + 1] = 1
    else:
        if q <= 2:
            raise ValueError("no two distinct full-weight vectors exist over GF(2)")
        d2[:] = 1
        d2[0] = 2
    return d1, d2


def equal_weight_nullity_test(
    field: FiniteField,
    n: int,
    m: int,
    gamma: float,
    h: int,
    trials: int,
    seed: int,
) -> NullityReport:
    """Check that annihilation probability depends only on vector weight.

    Estimates P(A d = 0) for two distinct weight-h vectors over sampled
    matrices, confirms the two empirical rates are compatible, and
    compares both against the analytic single-row value raised to the
    m-th power.
    """
    d1, d2 = _pick_weight_h_vectors(n, field.q, h)
    params = ModelParams(n=n, k=min(h, n), m=m, q=field.q, gamma=gamma)
    mats, _ = _sample_trials(params, trials, seed, n_candidates=1)
    pair = np.stack([d1, d2])
    meas = measure_candidates(field, mats, pair)  # (t, m, 2)
    null = (meas == 0).all(axis=1)  # (t, 2)
    hits_1 = int(null[:, 0].sum())
    hits_2 = int(null[:, 1].sum())
    ci_1 = wilson_interval(hits_1, trials)
    ci_2 = wilson_interval(hits_2, trials)
    analytic = row_zero_prob_sparse(field.q, gamma, h).linear ** m
    return NullityReport(
        q=field.q,
        n=n,
        m=m,
        gamma=gamma,
        h=h,
        trials=trials,
        hits_1=hits_1,
        hits_2=hits_2,
        rate_1=hits_1 / trials,
        rate_2=hits_2 / trials,
        ci_1=ci_1,
        ci_2=ci_2,
        analytic=analytic,
        rates_consistent=ci_1[0] <= ci_2[1] and ci_2[0] <= ci_1[1],
        matches_analytic=(ci_1[0] <= analytic <= ci_1[1])
        and (ci_2[0] <= analytic <= ci_2[1]),
        seed=seed,
    )
