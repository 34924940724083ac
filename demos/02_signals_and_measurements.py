"""Random ensembles and the measurement map.

Draws instances with sample_trials, the seeded draw that ffcs simulate
measures: signals uniform over the signal set L and sensing matrices
from the gamma-sparse entry law.  Then measures one, and shows the
serialization round trip used by the simulate --dump pipeline.
"""

import json
from collections import Counter

import numpy as np

from ffcs import (
    ModelParams,
    dense_gamma,
    make_field,
    matrix_from_json,
    matrix_to_json,
    matvec,
    sample_trials,
    signal_set_size,
    sparse_gamma,
)

# the signal set: all vectors of weight <= k
sizes = signal_set_size(6, 2, 4)
print("signal set sizes for (n=6, k=2, q=4):", sizes.per_sparsity, "total", sizes.total)

params = ModelParams(n=6, k=2, m=4, q=4, gamma=dense_gamma(4))
field = make_field(4)

print("\nuniformity of the sparsity level over 50k trials (weights |L_j|/|L|):")
_, signals = sample_trials(params, 50_000, seed=2024)
counts = Counter(np.count_nonzero(signals, axis=1).tolist())
for j, w in enumerate(sizes.per_sparsity):
    print(f"  weight {j}: observed {counts[j] / 50_000:.4f}  expected {w / sizes.total:.4f}")

print("\nmatrix entry law at gamma = 0.75 (dense for q=4): each value ~ 1/4")
(mat,), _ = sample_trials(ModelParams(n=50, k=1, m=50, q=4, gamma=0.75), 1, seed=2024)
print("  value frequencies:", np.bincount(mat.ravel(), minlength=4) / mat.size)

g = sparse_gamma(10, 1000)
print(f"\nlog-sparse factor c=10 at n=1000: gamma = {g:.4f} (zero fraction ~ {1 - g:.3f})")
(sparse_mat,), _ = sample_trials(ModelParams(n=200, k=1, m=100, q=4, gamma=g), 1, seed=2024)
print("  observed zero fraction:", float((sparse_mat == 0).mean()))

print("\none measurement (trial 0 of ffcs simulate --n 6 --k 2 --m 4 --q 4 --seed 2024):")
(mat,), (sig,) = sample_trials(params, 1, seed=2024)
y = matvec(field, mat, sig)
print("  x =", sig, " (weight", np.count_nonzero(sig), ")")
print("  y =", y)

print("\nserialization round trip:")
blob = json.dumps(matrix_to_json(mat, q=4, gamma=params.gamma, seed=2024))
back = matrix_from_json(json.loads(blob))
print("  bytes:", len(blob), " round-trip equal:", bool((back == mat).all()))
