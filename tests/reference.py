"""The tests' reference enumeration of the signal set L, and the exact
error probability at toy sizes that the Monte Carlo path is checked
against."""

import itertools
import math

import numpy as np

from ffcs import make_field
from ffcs.model import measure_candidates


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


def column_digits(q: int, m: int) -> np.ndarray:
    """The q^m columns of GF(q)^m as a (q^m, m) int16 array; column c holds
    the base-q digits of c, lowest first."""
    return (np.arange(q**m)[:, None] // q ** np.arange(m) % q).astype(np.int16)


def column_multisets(n: int, q: int, gamma: float, m: int, batch: int = 4096):
    """Yield (cols, prob) for the C(q^m + n - 1, n) multisets of n columns,
    a batch at a time: cols a (b, n) array of ascending column indices into
    column_digits, prob the chance that a matrix of i.i.d. columns has them
    as its multiset.  Each entry is zero with probability 1 - gamma and
    otherwise uniform on GF(q)*, so a column's probability depends on its
    weight, and the multiset's is the multinomial n! / prod mult! times
    the product over its columns."""
    col_prob = np.where(column_digits(q, m) == 0, 1.0 - gamma, gamma / (q - 1)).prod(axis=1)
    multisets = itertools.combinations_with_replacement(range(q**m), n)
    while chunk := list(itertools.islice(multisets, batch)):
        cols = np.array(chunk)
        # prod mult! as the product of each column's place in its run of equal columns
        place = np.ones(len(cols))
        repeats = np.ones(len(cols))
        for j in range(1, n):
            place = np.where(cols[:, j] == cols[:, j - 1], place + 1, 1)
            repeats *= place
        yield cols, math.factorial(n) / repeats * col_prob[cols].prod(axis=1)


def exact_error_probability(n: int, k: int, q: int, gamma: float, m: int) -> float:
    """P(e) of the i.i.d. gamma-sparse m x n ensemble, exactly up to float
    rounding: the chance that a signal drawn uniformly from L is not the
    unique lightest member of L in its syndrome class A x, the one error
    event montecarlo.run_trials counts.

    P(e | A) does not change when the columns of A are permuted, since L
    does not, so P(e) is the sum over column multisets (column_multisets)
    of their probability times P(e | A).  Each member's key, its syndrome
    times k + 1 plus its weight, is sorted per matrix; a member is right
    only if it is the first of its class and the next member is heavier
    or in another class.
    """
    field = make_field(q)
    cands = np.array(list(enumerate_signals(n, k, q)))
    weights = np.count_nonzero(cands, axis=1)
    digits = column_digits(q, m)
    place = q ** np.arange(m, dtype=np.int64)
    total = 0.0
    for cols, prob in column_multisets(n, q, gamma, m):
        y = measure_candidates(field, digits[cols].transpose(0, 2, 1), cands)
        key = np.sort(np.einsum("r,brl->bl", place, y.astype(np.int64)) * (k + 1) + weights, axis=1)
        syn, w = np.divmod(key, k + 1)
        other = syn[:, 1:] != syn[:, :-1]
        first = np.ones(key.shape, dtype=bool)
        first[:, 1:] = other
        alone = np.ones(key.shape, dtype=bool)
        alone[:, :-1] = other | (w[:, 1:] > w[:, :-1])
        total += prob @ (1.0 - (first & alone).sum(axis=1) / len(cands))
    return total
