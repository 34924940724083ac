"""The tests' exact error probability against a plain listing of every matrix."""

import itertools
import math

import numpy as np
import pytest
from reference import column_multisets, enumerate_signals, exact_error_probability

from ffcs import dense_gamma, make_field
from ffcs.model import measure_candidates


def listed_error_probability(n, k, q, gamma, m):
    """P(e) over each of the q^(m n) matrices with its own probability: a
    signal errs where another member of L, no heavier, has its syndrome."""
    field = make_field(q)
    cands = np.array(list(enumerate_signals(n, k, q)))
    weights = np.count_nonzero(cands, axis=1)
    mats = np.array(list(itertools.product(range(q), repeat=m * n)), dtype=np.int16).reshape(-1, m, n)
    prob = np.where(mats == 0, 1.0 - gamma, gamma / (q - 1)).prod(axis=(1, 2))
    y = measure_candidates(field, mats, cands)
    same = (y[:, :, :, None] == y[:, :, None, :]).all(axis=1)
    rival = (weights[None, :] <= weights[:, None]) & ~np.eye(len(cands), dtype=bool)
    errs = (same & rival).any(axis=2).mean(axis=1)
    return float(prob @ errs), float(prob.sum())


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("gamma", ["dense", 0.3, 0.1])
def test_exact_error_probability_matches_every_matrix_listed(k, gamma):
    # q = 2, m = 3, n = 4: 4,096 matrices, 120 column multisets
    n, q, m = 4, 2, 3
    gamma = dense_gamma(q) if gamma == "dense" else gamma
    want, total = listed_error_probability(n, k, q, gamma, m)
    assert math.isclose(total, 1.0, rel_tol=1e-12)
    assert math.isclose(exact_error_probability(n, k, q, gamma, m), want, rel_tol=1e-12)


@pytest.mark.parametrize("n,q,m", [(5, 2, 4), (3, 3, 3), (4, 4, 2), (3, 7, 2), (3, 8, 2)])
@pytest.mark.parametrize("gamma", [0.1, 0.3, 0.9])
def test_column_multisets_sum_to_one(n, q, m, gamma):
    # every multiset once, in batches, with probabilities that sum to 1
    count = total = 0
    for cols, prob in column_multisets(n, q, gamma, m, batch=1000):
        assert np.all(np.diff(cols, axis=1) >= 0)
        count += len(cols)
        total += prob.sum()
    assert count == math.comb(q**m + n - 1, n)
    assert math.isclose(total, 1.0, rel_tol=1e-12)


@pytest.mark.parametrize(
    "n,k,q,m,gamma,want", [(5, 2, 2, 4, "dense", 0.4903), (5, 2, 2, 4, 0.3, 0.6055)]
)
def test_exact_error_probability_keeps_its_recorded_values(n, k, q, m, gamma, want):
    # the values ROADMAP item 26 records, to four places
    gamma = dense_gamma(q) if gamma == "dense" else gamma
    assert round(exact_error_probability(n, k, q, gamma, m), 4) == want
