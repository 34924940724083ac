"""Analytic error bounds: union bound, closed forms, and thresholds.

Walks the chain from pair counts to the union bound, shows the dense
closed form and its entropy-form relaxation, and prints the two
measurement thresholds that pin the phase transition from both sides.
"""

import math

from ffcs import (
    ModelParams,
    PairVariant,
    closed_dense_bound,
    dense_gamma,
    exponent_bound,
    fano_lower_bound,
    make_field,
    necessary_m,
    nh_count,
    nh_oracle,
    row_zero_prob_sparse,
    sufficient_m,
    union_bound,
)

print("pair counts at (n=4, k=2, q=3), analytic vs exhaustive oracle:")
analytic = nh_count(4, 2, 3, PairVariant.ALL_PAIRS)
oracle = nh_oracle(make_field(3), 4, 2)[PairVariant.ALL_PAIRS]
print("  analytic:", analytic)
print("  oracle:  ", oracle)

print("\nsingle-row nullity probability, q=4, gamma=0.3:")
for h in (1, 2, 4, 8, 16):
    print(f"  weight {h:2d}: {row_zero_prob_sparse(4, 0.3, h).linear:.6f}  (dense would be 0.25)")

print("\nunion bound vs dense closed form (they coincide at gamma = 1 - 1/q):")
for m in (4, 8, 12):
    params = ModelParams(n=16, k=3, m=m, q=4, gamma=dense_gamma(4))
    u = union_bound(params).log_value
    c = closed_dense_bound(16, 3, 4, m).log_value
    print(f"  m = {m:2d}: union log = {u:+.6f}, closed log = {c:+.6f}")

print("\nthresholds at n=1000, k=200:")
for q in (2, 4, 16, 256):
    print(
        f"  q = {q:3d}: converse >= {necessary_m(1000, 200, q):8.2f}, "
        f"achievability = {sufficient_m(1000, 200, q):4d}"
    )

print("\nthe converse lower bound kicks in when measurements are scarce (n=6, k=2, q=2):")
for m in (1, 2, 3, 4, 5):
    print(f"  m = {m}: error probability >= {fano_lower_bound(6, 2, 2, m):.4f}")

print("\nevery bound for one tuple (what ffcs bound reports):")
union = union_bound(ModelParams(n=24, k=4, m=12, q=4, gamma=0.3))
print(f"  union (gamma=0.3)   : log {union.log_value:+.4f} -> {union.capped_linear:.3e}")
print(f"  dense closed form   : log {closed_dense_bound(24, 4, 4, 12).log_value:+.4f}")
print(f"  entropy-form bound  : log {exponent_bound(24, 4, 4, 12).log_value:+.4f}")
print(f"  converse lower bound: {fano_lower_bound(24, 4, 4, 12):.4f}")
print(f"  thresholds          : necessary {necessary_m(24, 4, 4):.2f} <= sufficient {sufficient_m(24, 4, 4)}")
