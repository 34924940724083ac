"""Exhaustive minimum-weight recovery on desk-scale instances.

Shows unique recovery, ambiguity (always counted as an error), and how
the empirical success rate responds to the number of measurements.
"""

import numpy as np

from ffcs import (
    DecodeStatus,
    ModelParams,
    decode_l0,
    dense_gamma,
    error_events,
    make_field,
    matvec,
    sample_trials,
)

f2 = make_field(2)

print("a deliberately ambiguous instance: one equation, two unknowns")
A = np.array([[1, 1]], dtype=np.int16)
res = decode_l0(f2, A, np.array([1], dtype=np.int16), k_max=1)
print("  y = (1):", res.status.value, "solutions:", [s.tolist() for s in res.solutions])
ev = error_events(f2, A, np.array([1, 0], dtype=np.int16), k_max=1)
print("  as an error event for x = (1,0):", ev)

print("\na unique instance:")
A = np.array([[1, 0, 0], [0, 1, 1]], dtype=np.int16)
x = np.array([1, 0, 0], dtype=np.int16)
res = decode_l0(f2, A, matvec(f2, A, x), k_max=1)
print("  recovered:", res.solutions[0].tolist(), res.status.value)

print("\nempirical recovery rate vs measurement count (n=10, k=2, q=4, dense):")
f4 = make_field(4)
for m in (2, 4, 6, 8, 10):
    params = ModelParams(n=10, k=2, m=m, q=4, gamma=dense_gamma(4))
    wins = 0
    trials = 300
    for mat, sig in zip(*sample_trials(params, trials, seed=7)):
        res = decode_l0(f4, mat, matvec(f4, mat, sig), k_max=2)
        if res.status == DecodeStatus.UNIQUE and np.array_equal(res.solutions[0], sig):
            wins += 1
    print(f"  m = {m:2d}: exact recovery in {wins}/{trials}")
