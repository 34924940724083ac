"""Empirical check of the analytic sandwich on desk-scale instances.

For a sweep of measurement counts, compares the observed error rates
(with Wilson intervals) against the union bound from above and the
converse bound from below, and runs the equal-weight nullity check.
"""

import numpy as np

from ffcs import ModelParams, dense_gamma, make_field, row_zero_prob_sparse, run_trials, sample_trials
from ffcs.model import measure_candidates
from ffcs.util import wilson_interval

print("n=8, k=2, q=2, dense matrices, 10k trials per point")
print(f"{'m':>3} {'e rate':>8} {'95% CI':>19} {'union bound':>12} {'converse':>9}")
for m in range(1, 9):
    params = ModelParams(n=8, k=2, m=m, q=2, gamma=dense_gamma(2))
    rep = run_trials(params, 10_000, seed=11)
    ci = f"[{rep.ci_low:.4f}, {rep.ci_high:.4f}]"
    print(
        f"{m:>3} {rep.rate:>8.4f} {ci:>19} {rep.union_bound_value:>12.4f} {rep.fano_value:>9.4f}"
    )

print("\nsame weight, same annihilation probability (q=4, gamma=0.3, weight 3, m=2):")
mats, _ = sample_trials(ModelParams(n=8, k=3, m=2, q=4, gamma=0.3), 30_000, seed=6)
pair = np.array([[1, 1, 1, 0, 0, 0, 0, 0], [0, 1, 1, 1, 0, 0, 0, 0]], dtype=np.int16)  # weight 3 each
hits = (measure_candidates(make_field(4), mats, pair) == 0).all(axis=1).sum(axis=0).tolist()
(lo1, hi1), (lo2, hi2) = (wilson_interval(hit, 30_000) for hit in hits)
analytic = row_zero_prob_sparse(4, 0.3, 3).linear ** 2
print(f"  vector 1 rate: {hits[0] / 30_000:.4f}   vector 2 rate: {hits[1] / 30_000:.4f}   analytic: {analytic:.4f}")
consistent, matches = lo1 <= hi2 and lo2 <= hi1, lo1 <= analytic <= hi1 and lo2 <= analytic <= hi2
print(f"  rates consistent: {consistent}   match analytic: {matches}")
