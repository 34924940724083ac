"""The tests' reference enumeration of the signal set L."""

import itertools

import numpy as np


def enumerate_signals(n: int, k_max: int, q: int):
    """Yield every member of L as an int16 array, in the canonical order
    model.level_members states; the library is checked against this."""
    for k in range(k_max + 1):
        for support in itertools.combinations(range(n), k):
            for values in itertools.product(range(1, q), repeat=k):
                v = np.zeros(n, dtype=np.int16)
                for pos, val in zip(support, values):
                    v[pos] = val
                yield v
