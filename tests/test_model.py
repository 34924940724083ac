import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import ffcs
from ffcs import (
    DimensionMismatch,
    EnumerationCapExceeded,
    InvalidGamma,
    ModelParams,
    UnsupportedOrder,
    candidate_matrix,
    dense_gamma,
    make_field,
    matrix_from_json,
    matrix_to_json,
    matvec,
    sample_trials,
    signal_from_json,
    signal_set_size,
    signal_to_json,
    sparse_gamma,
)
from ffcs import model
from ffcs.model import _lanes, level_members, match_words, measure_candidates
from ffcs.model import level_starts, measure_levels, pack_measurements, unpack_measurements
from reference import enumerate_signals

# 0.999 chi-square quantiles by degrees of freedom
CHI2_999 = {2: 13.816, 3: 16.266, 18: 42.312}


# every (q, n, k) whose masks the sweep tests below check
HIT_CASES = [
    (3, 4, 0), (3, 4, 4), (2, 6, 3), (5, 1, 1), (32, 4, 3),  # reference order
    (2, 6, 4), (3, 5, 4), (5, 4, 3), (7, 4, 3), (13, 3, 3), (16, 3, 3), (251, 2, 2),  # fold
    (16, 4, 3), (251, 3, 2), (3, 4, 3), (2, 4, 3),  # lane and word boundaries
    (3, 5, 1), (13, 5, 1), (251, 5, 1), (4, 5, 1), (16, 5, 1), (256, 5, 1),  # levels 0 and 1
    (3, 5, 3), (2, 7, 4),  # chunk sizes
]


def sweep_only():
    """Patch the route chooser so that every level of every scan takes the sweep."""
    return mock.patch.object(model, "_joins", lambda n, w, q, b: False)


def join_where_it_fits():
    """Patch the chooser's cost weight to 0, so that every level the join can take takes it."""
    return mock.patch.object(model, "_PREFIX_COST", 0)


# (q, n, k, m) of the one-matrix scans both routes are checked on; the
# last four measure in two words, which q = 2, m = 70 lays innermost
ROUTE_CASES = [
    (2, 8, 5, 3), (2, 10, 5, 40), (3, 6, 5, 3), (4, 6, 4, 3), (5, 5, 4, 3), (7, 5, 3, 3),
    (8, 5, 3, 3), (13, 4, 3, 3), (16, 4, 3, 3), (251, 3, 2, 3),
    (251, 3, 2, 10), (4, 7, 4, 40), (2, 10, 5, 70), (16, 4, 3, 20),
]


def spy_chunks(on_chunk):
    """Patch the sweep's private _ColumnTable._chunks to hand each chunk to on_chunk(w, start, mask).

    Levels 0 and 1 take no chunk: _ColumnTable._base reads each off as
    one mask, which the patch hands on as the level's one chunk, at 0.
    """
    chunks, base = model._ColumnTable._chunks, model._ColumnTable._base

    def spied(self, goal, targets, w):
        for start, mask in chunks(self, goal, targets, w):
            on_chunk(w, start, mask)
            yield start, mask

    def spied_base(self, goal, targets, w):
        mask = base(self, goal, targets, w)
        on_chunk(w, 0, mask)
        return mask

    return mock.patch.multiple(model._ColumnTable, _chunks=spied, _base=spied_base)


def swept_masks(field, mats, targets, k_max, want=None):
    """measure_levels' masks, concatenated over chunks and levels, as (|L|, b).

    Every level from 2 on takes the sweep, whose private chunks are the
    masks, and levels 0 and 1 are one mask each, all read by a spy
    (spy_chunks).  Checks on the way that each level's chunks cover it
    in order, that a chunk of more than one member spans at most
    _CHUNK_WORDS words (levels 0 and 1, no chunks, compare the targets
    and the goal table as they are), and that the hits measure_levels
    yields for the level are the flat indices of its masks' true
    entries.  Given want (|L|, b, m), the reference measurements, it
    also checks every lane of every member, whatever the targets: a
    chunk's one comparison (match_words) sets each member's partial sum
    against its goal y - v * A_j, so the partial sum plus y minus the
    goal must be the member's measurement.  At levels 0 and 1 the
    partial sum is zero, so y - y must be 0 and y - goal must be v * A_j.
    """
    m, n = mats.shape[-2:]
    count = _lanes(field.q, m).count
    b = targets.size // count
    ys = unpack_measurements(field, targets.reshape(b, count), m)
    # the sweep lays the words innermost where they outnumber the q - 1 values
    innermost = b * count > field.q - 1
    operands, level, masks = [], [], []

    def spy(have, goal):
        operands.append(np.broadcast_arrays(have, goal))
        return match_words(have, goal)

    def on_chunk(w, start, mask):
        nonlocal offset
        assert start == offset - level_start and mask.dtype == bool
        assert mask.shape == (len(mask), b)
        if w < 2:
            assert len(mask) == (1 if w == 0 else n * (field.q - 1))
        else:
            assert len(mask) * targets.size <= max(model._CHUNK_WORDS, targets.size)
        ((have, goal),) = operands
        operands.clear()
        if want is not None:
            # the operands as (members, b, count) words, then lanes
            if innermost:
                have, goal = (a.reshape(-1, b, count) for a in (have, goal))
            else:
                have, goal = (a.reshape(b, -1, count).swapaxes(0, 1) for a in (have, goal))
            have, goal = (unpack_measurements(field, a, m) for a in (have, goal))
            implied = field.add_table[have, field.add_table[ys, field.neg_table[goal]]]
            assert np.array_equal(implied, want[offset : offset + len(mask)])
        offset += len(mask)
        level.append(mask)

    offset = level_start = 0  # members swept, and those of the finished levels
    with mock.patch.object(model, "match_words", spy), spy_chunks(on_chunk), sweep_only():
        for _, hits in measure_levels(field, mats, k_max, targets):
            assert hits.dtype == np.int64
            assert np.array_equal(hits, np.flatnonzero(np.concatenate(level)))
            masks += level
            level.clear()
            level_start = offset
    return np.concatenate(masks)


def sweep_hits(field, mats, k_max, targets):
    """measure_levels' hits per level, every level by the sweep, checked against its spied chunk masks.

    Returns the hits and the (w, members) of every chunk; no mask is
    kept, so the sweep's memory is measured as it runs.
    """
    b = np.asarray(targets).size // _lanes(field.q, mats.shape[-2]).count
    spied, chunks = [[] for _ in range(k_max + 1)], []

    def on_chunk(w, start, mask):
        spied[w].append(start * b + np.flatnonzero(mask))
        chunks.append((w, len(mask)))

    with spy_chunks(on_chunk), sweep_only():
        levels = [hits for _, hits in measure_levels(field, mats, k_max, targets)]
    for hits, want in zip(levels, spied):
        assert np.array_equal(hits, np.concatenate(want))
    return levels, chunks


def unattained(q, want, rng):
    """A (1, m) measurement that no row of want (|L|, m) equals, or (0, m) if 100 draws find none."""
    for y in rng.integers(0, q, size=(100, want.shape[-1])).astype(np.int16):
        if not (want == y).all(axis=-1).any():
            return y[None]
    return np.zeros((0, want.shape[-1]), dtype=np.int16)


def check_sweep_of_one_matrix(field, A, k_max, want, rng):
    """measure_levels of A against want (|L|, m), its reference measurements.

    A is stacked once per target, and the masks must be want compared
    with each: the targets are every distinct measurement of a member
    where that makes at most 2^24 (member, target) pairs, else a fixed
    sample of 16, and then one that no member attains.  A alone is
    swept against the first target, with every lane of every member
    checked (swept_masks), and against the last.
    """
    distinct, inverse = np.unique(want, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    if len(want) * len(distinct) <= 1 << 24:
        pick = np.arange(len(distinct))
    else:
        pick = rng.choice(len(distinct), 16, replace=False)
    missing = unattained(field.q, want, rng)
    ys = np.concatenate([distinct[pick], missing])
    expect = np.concatenate(
        [inverse[:, None] == pick, np.zeros((len(want), len(missing)), dtype=bool)], axis=1
    )
    mats = np.broadcast_to(A, (len(ys),) + A.shape)
    assert np.array_equal(swept_masks(field, mats, pack_measurements(field, ys), k_max), expect)
    for i, lanes_of in ((0, want[:, None]), (-1, None)):
        got = swept_masks(field, A, pack_measurements(field, ys[i]), k_max, lanes_of)
        assert np.array_equal(got[:, 0], expect[:, i])


def check_sweep_of_stack(field, mats, k_max, want, rng):
    """measure_levels of a stack of b matrices against want (|L|, b, m) compared with one target each.

    Each matrix's target is its measurement of a random member, and
    then, for the first matrix, one that no member attains; every lane
    of every member is checked too (swept_masks).
    """
    ys = want[rng.integers(0, len(want), size=len(mats)), np.arange(len(mats))]
    missing = unattained(field.q, want[:, 0], rng)
    if len(missing):
        ys[0] = missing[0]
    got = swept_masks(field, mats, pack_measurements(field, ys), k_max, want)
    assert np.array_equal(got, (want == ys).all(axis=-1))


def brute_weight_census(n, q):
    """Count vectors of each weight by walking all q^n vectors."""
    census = [0] * (n + 1)
    for v in itertools.product(range(q), repeat=n):
        census[sum(1 for e in v if e)] += 1
    return census


class TestSignalSetSize:
    def test_two_bit_binary(self):
        s = signal_set_size(2, 1, 2)
        assert s.per_sparsity == (1, 2)
        assert s.total == 3

    def test_zero_sparsity_is_singleton(self):
        assert signal_set_size(4, 0, 16).total == 1

    def test_ternary_example(self):
        s = signal_set_size(3, 2, 3)
        assert s.per_sparsity == (1, 6, 12)
        assert s.total == 19

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
    def test_matches_brute_force_census(self, n, q):
        census = brute_weight_census(n, q)
        for k in range(n + 1):
            s = signal_set_size(n, k, q)
            assert s.total == sum(census[: k + 1])
            assert list(s.per_sparsity) == census[: k + 1]

    @pytest.mark.parametrize("q", [2, 3, 4, 16])
    def test_recurrence_matches_binomial_formula(self, q):
        for n in range(1, 41):
            for k in range(n + 1):
                want = tuple(math.comb(n, j) * (q - 1) ** j for j in range(k + 1))
                s = signal_set_size(n, k, q)
                assert s.per_sparsity == want, (n, k)
                assert s.total == sum(want)

    def test_recurrence_stays_exact_at_n_1000(self):
        s = signal_set_size(1000, 500, 4)
        assert s.per_sparsity == tuple(math.comb(1000, j) * 3**j for j in range(501))

    def test_big_instance_stays_exact(self):
        s = signal_set_size(1000, 200, 2)
        # the top term alone dominates; spot-check against math.comb
        assert s.per_sparsity[200] == math.comb(1000, 200)
        assert s.total > math.comb(1000, 200)


class TestSampling:
    def test_uniform_over_three_member_set(self):
        params = ModelParams(n=2, k=1, m=1, q=2, gamma=0.5)
        draws = 100_000
        _, signals = sample_trials(params, draws, seed=42)
        keys, counts = np.unique(signals, axis=0, return_counts=True)
        assert {tuple(k) for k in keys.tolist()} == {(0, 0), (1, 0), (0, 1)}
        expect = draws / 3
        chi2 = sum((c - expect) ** 2 / expect for c in counts)
        assert chi2 < CHI2_999[2]

    def test_uniform_over_nineteen_member_set(self):
        params = ModelParams(n=3, k=2, m=1, q=3, gamma=0.5)
        draws = 100_000
        _, signals = sample_trials(params, draws, seed=7)
        _, counts = np.unique(signals, axis=0, return_counts=True)
        assert len(counts) == 19
        expect = draws / 19
        chi2 = sum((c - expect) ** 2 / expect for c in counts)
        assert chi2 < CHI2_999[18]

    def test_zero_sparsity_always_zero_signal(self):
        params = ModelParams(n=5, k=0, m=1, q=4, gamma=0.5)
        _, signals = sample_trials(params, 50, seed=0)
        assert signals.shape == (50, 5)
        assert not signals.any()

    def test_matrix_entries_uniform_at_dense_gamma(self):
        params = ModelParams(n=40, k=1, m=40, q=4, gamma=dense_gamma(4))
        (mat,), _ = sample_trials(params, 1, seed=3)
        counts = np.bincount(mat.ravel(), minlength=4)
        expect = mat.size / 4
        chi2 = float(((counts - expect) ** 2 / expect).sum())
        assert chi2 < CHI2_999[3]

    def test_gamma_one_over_binary_gives_all_ones(self):
        params = ModelParams(n=10, k=1, m=10, q=2, gamma=1.0)
        mats, _ = sample_trials(params, 3, seed=1)
        assert np.all(mats == 1)

    def test_sparse_gamma_zero_fraction(self):
        gamma = sparse_gamma(10, 1000)
        params = ModelParams(n=200, k=1, m=500, q=4, gamma=gamma)
        (mat,), _ = sample_trials(params, 1, seed=5)
        zero_frac = float((mat == 0).mean())
        sigma = math.sqrt(gamma * (1 - gamma) / mat.size)
        assert abs(zero_frac - 0.931) < 6 * sigma + 1e-3

    def test_invalid_gamma_rejected(self):
        with pytest.raises(InvalidGamma):
            ModelParams(n=4, k=1, m=2, q=2, gamma=0.0)
        with pytest.raises(InvalidGamma):
            ModelParams(n=4, k=1, m=2, q=2, gamma=1.2)

    @pytest.mark.parametrize(
        "call,error,match",
        [
            (lambda: ModelParams(n=4, k=1, m=0, q=2, gamma=0.5), ValueError, "m must be >= 1"),
            (lambda: signal_set_size(4, 5, 2), ValueError, r"k must lie in \[0, n\]"),
            (lambda: sparse_gamma(1.0, 1), ValueError, "n must be >= 2"),
            (lambda: ModelParams(n=4, k=True, m=2, q=2, gamma=0.5), ValueError, "^k must be an integer, got True$"),
            (lambda: ModelParams(n=4, k=1, m=2.0, q=2, gamma=0.5), ValueError, "^m must be an integer, got 2.0$"),
            (lambda: signal_set_size(10.0, 2, 4), ValueError, "^n must be an integer, got 10.0$"),
            (lambda: signal_set_size(10, 2.0, 4), ValueError, "^k must be an integer, got 2.0$"),
            (lambda: signal_set_size(10, 2, 6), UnsupportedOrder, r"^q=6 is not a prime power, so GF\(6\) does not exist$"),
            (lambda: signal_set_size(10, 2, 1), UnsupportedOrder, r"^q=1 is not a prime power, so GF\(1\) does not exist$"),
            (lambda: signal_set_size(10, 2, 4.0), UnsupportedOrder, "^field order must be an integer >= 2, got 4.0$"),
            (
                lambda: measure_candidates(make_field(3), np.ones((2, 3), dtype=np.int16), np.ones((1, 4), dtype=np.int16)),
                DimensionMismatch,
                "incompatible",
            ),
        ],
        ids=["m0", "k-above-n", "sparse-n1", "k-bool", "m-float", "size-n-float", "size-k-float",
             "size-q6", "size-q1", "size-q-float", "candidate-columns"],
    )
    def test_invalid_parameters_rejected(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    def test_sampling_reproducible_from_seed(self):
        params = ModelParams(n=8, k=3, m=5, q=4, gamma=0.6)
        a1, s1 = sample_trials(params, 20, seed=99)
        a2, s2 = sample_trials(params, 20, seed=99)
        assert np.array_equal(a1, a2)
        assert np.array_equal(s1, s2)


class TestGammaHelpers:
    def test_dense_values(self):
        assert dense_gamma(2) == 0.5
        assert dense_gamma(4) == 0.75
        assert dense_gamma(256) == 255 / 256

    def test_sparse_values(self):
        assert abs(sparse_gamma(10, 1000) - 0.069) < 1e-3
        assert abs(sparse_gamma(1, 1000) - 0.0069) < 1e-4
        # c = n / ln n collapses to 1 exactly
        n = 1234
        assert math.isclose(sparse_gamma(n / math.log(n), n), 1.0, rel_tol=1e-12)


class TestMatvec:
    def test_zero_signal_measures_zero(self):
        f = make_field(4)
        A = np.array([[1, 2, 3], [3, 0, 1]], dtype=np.int16)
        assert not matvec(f, A, np.zeros(3, dtype=np.int16)).any()

    def test_characteristic_two_cancellation(self):
        f = make_field(2)
        y = matvec(f, np.array([[1, 1]], dtype=np.int16), np.array([1, 1], dtype=np.int16))
        assert y.tolist() == [0]

    def test_gf4_row_sum(self):
        f = make_field(4)
        y = matvec(f, np.array([[2, 3]], dtype=np.int16), np.array([1, 1], dtype=np.int16))
        assert y.tolist() == [1]  # 2 + 3 = 1 under XOR encoding

    def test_dimension_mismatch(self):
        f = make_field(2)
        with pytest.raises(DimensionMismatch):
            matvec(f, np.ones((2, 3), dtype=np.int16), np.ones(4, dtype=np.int16))

    @pytest.mark.parametrize("q", [3, 4])
    def test_entries_outside_the_field_rejected(self, q):
        f = make_field(q)
        A = np.ones((2, 3), dtype=np.int16)
        with pytest.raises(ValueError):
            matvec(f, A, np.array([q, 0, 0], dtype=np.int16))
        with pytest.raises(ValueError):
            matvec(f, A, np.array([-1, 0, 0], dtype=np.int16))
        A[1, 2] = -1
        with pytest.raises(ValueError):
            matvec(f, A, np.array([1, 0, 0], dtype=np.int16))

    @pytest.mark.parametrize("x", [[1.0, 0.0, 2.0], [True, False, True], [1 + 0j, 0j, 2 + 0j]],
                             ids=["float", "bool", "complex"])
    def test_non_integer_signal_rejected(self, x):
        # every entry is in range, so only the dtype keeps a float out of
        # the table gather, where it raised IndexError
        A = np.ones((2, 3), dtype=np.int16)
        with pytest.raises(ValueError, match="GF"):
            matvec(make_field(3), A, np.array(x))

    @pytest.mark.parametrize("q", [2, 3, 4, 8])
    def test_linearity_over_random_instances(self, q):
        f = make_field(q)
        rng = np.random.default_rng(q * 11)
        for _ in range(25):
            A = rng.integers(0, q, size=(4, 7)).astype(np.int16)
            x1 = rng.integers(0, q, size=7).astype(np.int16)
            x2 = rng.integers(0, q, size=7).astype(np.int16)
            xsum = f.add_table[x1, x2]
            lhs = matvec(f, A, xsum)
            rhs = f.add_table[matvec(f, A, x1), matvec(f, A, x2)]
            assert np.array_equal(lhs, rhs)

    @pytest.mark.parametrize("q", [2, 3, 4, 13, 16])
    def test_batched_kernel_matches_stacked_calls(self, q):
        f = make_field(q)
        rng = np.random.default_rng(q)
        mats = rng.integers(0, q, size=(6, 3, 7)).astype(np.int16)
        cands = rng.integers(0, q, size=(40, 7)).astype(np.int16)
        batched = measure_candidates(f, mats, cands)
        assert batched.shape == (6, 3, 40)
        stacked = np.stack([measure_candidates(f, A, cands) for A in mats])
        assert np.array_equal(batched, stacked)


    def test_heavy_prime_candidates_use_a_wide_accumulator(self):
        # 140 terms of 250 * 250 in GF(251): the unreduced sum exceeds
        # int16, so the kernel sums in int64 and reduces once mod p
        f = make_field(251)
        n = 140
        A = np.full((2, n), 250, dtype=np.int16)
        x = np.full(n, 250, dtype=np.int16)
        assert matvec(f, A, x).tolist() == [n % 251] * 2  # 250 = -1, so each term is 1
        cands = np.stack([x, np.zeros(n, dtype=np.int16)])
        assert measure_candidates(f, A, cands).tolist() == [[n, 0], [n, 0]]

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 251])
    def test_reduction_at_every_partial_sum(self, p):
        # rows holding every pair (and, for small p, every triple) of field
        # elements, measured against the all-ones candidate: each running
        # sum from 0 to 2p - 2 passes through the reduction mod p
        f = make_field(p)
        for n in (2, 3) if p <= 13 else (2,):
            A = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int16)
            want = A[:, 0]
            for col in A.T[1:]:
                want = f.add_table[want, col]
            got = measure_candidates(f, A, np.ones((1, n), dtype=np.int16))
            assert got.dtype == np.int16
            assert np.array_equal(got[:, 0], want)


class TestEnumeration:
    def test_canonical_order_binary(self):
        got = [v.tolist() for v in enumerate_signals(3, 2, 2)]
        assert got == [
            [0, 0, 0],
            [1, 0, 0], [0, 1, 0], [0, 0, 1],
            [1, 1, 0], [1, 0, 1], [0, 1, 1],
        ]

    def test_value_order_within_support(self):
        got = [v.tolist() for v in enumerate_signals(2, 1, 3)]
        assert got == [[0, 0], [1, 0], [2, 0], [0, 1], [0, 2]]

    @pytest.mark.parametrize(
        "n,k_max,q",
        [
            (4, 0, 3),  # only the zero vector
            (4, 4, 3),  # k = n
            (6, 3, 2),  # a single nonzero value
            (1, 1, 5),  # n = 1
            (4, 3, 32),  # (q - 1)^k = 29791 value tuples per support
        ],
    )
    def test_weight_blocks_match_reference_order(self, n, k_max, q):
        # measure_levels, its masks concatenated over the levels, compares
        # L in enumerate_signals' order, with one matrix of few or many
        # rows, stacked once per target (words innermost) or alone (value
        # axis innermost), and a stack of matrices; level_members unranks it
        field = make_field(q)
        reference = np.array(list(enumerate_signals(n, k_max, q)), dtype=np.int16)
        rng = np.random.default_rng(n * 1000 + q)
        for shape in ((2, n), (40, n)):
            A = rng.integers(0, q, size=shape).astype(np.int16)
            want = measure_candidates(field, A, reference).T
            check_sweep_of_one_matrix(field, A, k_max, want, rng)
        mats = rng.integers(0, q, size=(q + 1, 3, n)).astype(np.int16)
        want = np.stack([measure_candidates(field, a, reference).T for a in mats], axis=1)
        check_sweep_of_stack(field, mats, k_max, want, rng)
        members = [
            level_members(n, w, q, np.arange(size))
            for w, size in enumerate(signal_set_size(n, k_max, q).per_sparsity)
        ]
        assert np.array_equal(np.concatenate(members), reference)
        assert np.array_equal(candidate_matrix(n, k_max, q)[0], reference)

    @pytest.mark.parametrize(
        "q,n,k", [(2, 6, 4), (3, 5, 4), (5, 4, 3), (7, 4, 3), (13, 3, 3), (16, 3, 3), (251, 2, 2)]
    )
    def test_level_sweep_matches_table_fold(self, q, n, k):
        # every mask of measure_levels, concatenated, against an add/mul
        # table fold over enumerate_signals, with one matrix of few rows
        # and of q rows (at q = 251, 36 words) and with q one-row
        # matrices; at k >= 3 the partial sums pass 2p, so each fold step
        # must reduce mod p
        field = make_field(q)
        X = np.array(list(enumerate_signals(n, k, q)), dtype=np.int16)
        rng = np.random.default_rng(q * 100 + n)
        for shape in ((min(2, q - 1), n), (q, n), (q, 1, n)):
            A = rng.integers(0, q, size=shape).astype(np.int16)
            rows = A.reshape(-1, n)
            want = np.zeros((len(X), len(rows)), dtype=np.int16)
            for j in range(n):
                want = field.add_table[want, field.mul_table[X[:, j, None], rows[:, j]]]
            if A.ndim == 2:
                check_sweep_of_one_matrix(field, A, k, want, rng)
            else:
                check_sweep_of_stack(field, A, k, want[:, :, None], rng)

    @pytest.mark.parametrize(
        "q,m,count", [(16, 16, 1), (16, 17, 2), (251, 7, 1), (251, 8, 2), (3, 21, 1), (3, 22, 2),
                      (2, 64, 1), (2, 65, 2)]
    )
    def test_packing_at_lane_and_word_boundaries(self, q, m, count):
        # lanes of 4, 9, 3 and 1 bits: the first m fills a 64-bit word as
        # far as its lanes go, one row more takes a second word.  A matrix
        # of all q - 1 puts q - 1 in every lane and, for odd p, the largest
        # sum 2p - 2 in every lane of the weight-2 candidates of ones
        field = make_field(q)
        lanes = _lanes(q, m)
        assert (lanes.count, lanes.dtype) == (count, np.dtype(np.uint64))
        rng = np.random.default_rng(q * 1000 + m)
        y = np.stack([np.full(m, q - 1), np.zeros(m), rng.integers(0, q, size=m)]).astype(np.int16)
        packed = pack_measurements(field, y)
        assert packed.shape == (3, count) and packed.dtype == lanes.dtype
        assert np.array_equal(unpack_measurements(field, packed, m), y)
        # the last row sits in the last word, and a change there is a mismatch
        other = y[2].copy()
        other[-1] = (other[-1] + 1) % q
        assert match_words(packed[2], packed[2])
        assert not match_words(pack_measurements(field, other), packed[2])
        n, k = (3, 2) if q == 251 else (4, 3)
        reference = np.array(list(enumerate_signals(n, k, q)), dtype=np.int16)
        mats = np.stack([np.full((m, n), q - 1), rng.integers(0, q, size=(m, n))]).astype(np.int16)
        want = np.stack([measure_candidates(field, a, reference).T for a in mats], axis=1)
        for a, want_a in zip(mats, want.transpose(1, 0, 2)):
            check_sweep_of_one_matrix(field, a, k, want_a, rng)
        # a target off by one in the last row only, so its first word matches
        ys = want[7].copy()
        ys[:, -1] = (ys[:, -1] + 1) % q
        got = swept_masks(field, mats, pack_measurements(field, ys), k, want)
        assert np.array_equal(got, (want == ys).all(axis=2))

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("b", [1, 300])
    @pytest.mark.parametrize("q", [2, 3, 4, 7, 13, 16, 251])
    def test_table_is_the_same_from_either_layout_of_the_stack(self, q, b, count):
        # a Monte Carlo block of a lane window is trial-innermost, (m, n, t)
        # in memory, and a view of a wider window; a decode's matrix and a
        # random_raw window are C-order.  b = 1 and b = 300 lay out both
        # table axes, and take both of _pack_rows' gathers
        field = make_field(q)
        m = next(m for m in itertools.count(6) if _lanes(q, m).count == count)
        n = 5
        rng = np.random.default_rng(q * 1000 + b + count)
        mats = rng.integers(0, q, size=(b, m, n)).astype(np.int16)
        window = np.empty((m, n, b + 7), dtype=np.int16).transpose(2, 0, 1)
        window[3 : 3 + b] = mats
        inner = window[3 : 3 + b]
        assert inner.strides[0] == inner.itemsize and np.array_equal(inner, mats)
        want, got = model._ColumnTable(field, mats), model._ColumnTable(field, inner)
        assert got.axis == want.axis == (1 if b * count > q - 1 else 2)
        assert got.table.dtype == want.table.dtype and got.table.shape == want.table.shape
        assert got.table.tobytes() == want.table.tobytes()

    @pytest.mark.parametrize("q,m", [(3, 4), (3, 22), (13, 7), (13, 14), (251, 3), (251, 8),
                                     (4, 5), (16, 17), (256, 9)])
    def test_masks_at_levels_0_and_1(self, q, m):
        # level 0 fits y exactly where y = 0, level 1 where y = v A_j.  For
        # odd p, -v A_j differs from v A_j, so a target of -v A_j catches a
        # kernel that subtracts the wrong value; the stack of one matrix
        # per target has words innermost, a matrix alone the value axis
        field = make_field(q)
        n = 5
        rng = np.random.default_rng(q + m)
        A = rng.integers(0, q, size=(m, n)).astype(np.int16)
        A[:, 1] = 0  # a zero column: all of its members measure 0
        v, j = int(rng.integers(1, q)), 3
        col = field.mul_table[v, A[:, j]]
        ys = np.stack([np.zeros(m), col, field.neg_table[col], rng.integers(0, q, size=m)])
        ys = ys.astype(np.int16)
        singles = level_members(n, 1, q, np.arange(n * (q - 1)))
        want_1 = measure_candidates(field, A, singles).T
        for stack in (ys, ys[:1]):
            mats = np.broadcast_to(A, (len(stack), m, n))
            masks = swept_masks(field, mats, pack_measurements(field, stack), 1)
            assert masks[:1].tolist() == [(stack == 0).all(axis=1).tolist()]
            assert np.array_equal(masks[1:], (want_1[:, None] == stack).all(axis=2))
        hits = swept_masks(field, A, pack_measurements(field, ys[1]), 1)[:, 0].nonzero()[0]
        assert 1 + (j * (q - 1) + v - 1) in hits.tolist()
        zero_columns = int((A == 0).all(axis=0).sum())
        hits = swept_masks(field, A, pack_measurements(field, ys[0]), 1)[:, 0]
        assert hits.sum() == 1 + (q - 1) * zero_columns

    @pytest.mark.parametrize(
        "q,m,b,count,axis",
        [(251, 10, 1, 2, 2), (251, 10, 3, 2, 2), (251, 10, 126, 2, 1), (16, 7, 1, 1, 2),
         (16, 7, 16, 1, 1), (13, 7, 3, 1, 2), (13, 14, 7, 2, 1), (2, 65, 3, 2, 1), (4, 5, 1, 1, 2)],
    )
    def test_levels_0_and_1_read_every_lane_off_the_goals(self, q, m, b, count, axis):
        # levels 0 and 1 compare the targets and the goal table with zero,
        # with no chunk of the sweep; swept_masks reads each lane of those
        # comparisons, so y - y must be 0 and y - goal must be v * A_j for
        # every member, matrix and lane.  One matrix or a stack, laid out
        # either way, one-word and two-word (q = 251, m = 10) targets; each
        # matrix's target is a member's measurement, the first's one
        # that no member attains where there is one
        field = make_field(q)
        n = 4
        rng = np.random.default_rng(q * m + b)
        mats = rng.integers(0, q, size=(b, m, n)).astype(np.int16)
        mats[:, :, 1] = 0  # a zero column: its members measure 0
        mats[:, :, 3] = mats[:, :, 2]  # repeated columns: their members tie
        X = np.array(list(enumerate_signals(n, 1, q)), dtype=np.int16)
        want = np.stack([measure_candidates(field, a, X).T for a in mats], axis=1)  # (|L|, b, m)
        ys = want[rng.integers(0, len(X), size=b), np.arange(b)]
        missing = unattained(q, want[:, 0], rng)
        if len(missing):
            ys[0] = missing[0]
        assert (model._ColumnTable(field, mats).axis, _lanes(q, m).count) == (axis, count)
        got = swept_masks(field, mats, pack_measurements(field, ys), 1, want)
        assert np.array_equal(got, (want == ys).all(axis=-1))
        if b == 1:
            got = swept_masks(field, mats[0], pack_measurements(field, ys[0]), 1, want)
            assert np.array_equal(got, (want == ys).all(axis=-1))

    @pytest.mark.parametrize("q,n,k,m", [(3, 5, 3, 4), (5, 4, 3, 2), (16, 3, 3, 5), (2, 7, 4, 3)])
    def test_chunk_size_does_not_change_masks(self, monkeypatch, q, n, k, m):
        # chunks of one word fix every value of a unit, of 7 words some
        # leading values, of 64 words hold a few units, and the default a
        # whole level; one matrix and a stack of four give both layouts
        field = make_field(q)
        rng = np.random.default_rng(q * 10 + n)
        A = rng.integers(0, q, size=(m, n)).astype(np.int16)
        X = np.array(list(enumerate_signals(n, k, q)), dtype=np.int16)
        ys = measure_candidates(field, A, X[rng.integers(0, len(X), size=4)]).T
        mats = np.broadcast_to(A, (4, m, n))
        want = (measure_candidates(field, A, X).T[:, None] == ys).all(axis=2)
        for chunk in (1, 7, 64, model._CHUNK_WORDS):
            monkeypatch.setattr(model, "_CHUNK_WORDS", chunk)
            assert np.array_equal(swept_masks(field, mats, pack_measurements(field, ys), k), want)
            got = swept_masks(field, A, pack_measurements(field, ys[0]), k)
            assert np.array_equal(got, want[:, :1])

    @pytest.mark.parametrize("q,n,k", HIT_CASES)
    def test_level_hits_match_brute_reference(self, monkeypatch, q, n, k):
        # whatever the route, each level's hits are the sorted r * b + i
        # of the (member, matrix) pairs that the definition of A x finds
        # feasible over enumerate_signals: for one matrix (value axis
        # innermost) and a stack of q (words innermost), each matrix's
        # target a member's measurement, the first's one no member
        # attains where there is one.  Chunks of 1, 7 and 64 words hold
        # about one member each, at about 0.1 ms a chunk, so the four
        # sets of over 5,000 members, 2-22 s a sweep that way, run at
        # the default only
        field = make_field(q)
        X = np.array(list(enumerate_signals(n, k, q)), dtype=np.int16)
        sizes = signal_set_size(n, k, q).per_sparsity
        starts = np.cumsum((0,) + sizes)
        rng = np.random.default_rng(q * 1000 + n * 10 + k)
        m = 1 if q > 2 else 2
        chunks = (model._CHUNK_WORDS,) + ((1, 7, 64) if len(X) <= 5000 else ())
        for b in (1, q):
            mats = rng.integers(0, q, size=(b, m, n)).astype(np.int16)
            measured = [measure_candidates(field, a, X).T for a in mats]
            ys = np.stack([y[i] for y, i in zip(measured, rng.integers(0, len(X), size=b))])
            missing = unattained(q, measured[0], rng)
            if len(missing):
                ys[0] = missing[0]
            want = [[] for _ in sizes]
            for i, (y_i, target) in enumerate(zip(measured, ys)):
                rank = np.flatnonzero((y_i == target).all(axis=1))
                level = np.searchsorted(starts, rank, side="right") - 1
                for w in range(k + 1):
                    want[w].append((rank[level == w] - starts[w]) * b + i)
            want = [np.sort(np.concatenate(hits)) for hits in want]
            if b == 1:
                mats, ys = mats[0], ys[0]
            for chunk in chunks:
                monkeypatch.setattr(model, "_CHUNK_WORDS", chunk)
                got = measure_levels(field, mats, k, pack_measurements(field, ys))
                for (w, hits), size, ref in zip(got, sizes, want, strict=True):
                    assert hits.dtype == np.int64 and (np.diff(hits) > 0).all()
                    assert ((0 <= hits) & (hits < size * b)).all()
                    assert np.array_equal(hits, ref), (b, chunk, w)

    @pytest.mark.parametrize("gamma", [None, 0.3], ids=["dense", "0.3"])
    @pytest.mark.parametrize("q,n,k,m", ROUTE_CASES)
    def test_forced_routes_match_brute_reference(self, monkeypatch, q, n, k, m, gamma):
        # one matrix, dense or zero with probability 0.7, with a zero
        # first column and a third column that repeats the second, so
        # that members tie within and across supports.  Each level's
        # hits, with every level forced to the sweep and with every level
        # the join can take forced to it, equal the hits that the
        # definition of A x finds over enumerate_signals, for a member's
        # measurement and one that no member attains.  Chunks of 1, 7 and
        # 64 words hold one or a few of the join's prefixes; the sweep
        # takes them where L has at most 5,000 members
        field = make_field(q)
        X = np.array(list(enumerate_signals(n, k, q)), dtype=np.int16)
        starts = np.cumsum((0,) + signal_set_size(n, k, q).per_sparsity)
        rng = np.random.default_rng(q * 1000 + n * 10 + k)
        A = rng.integers(0 if gamma is None else 1, q, size=(m, n)).astype(np.int16)
        if gamma is not None:
            A[rng.random((m, n)) >= gamma] = 0
        A[:, 0], A[:, 2] = 0, A[:, 1]
        measured = measure_candidates(field, A, X).T
        ys = np.concatenate([measured[rng.integers(0, len(X), size=1)], unattained(q, measured, rng)])
        with join_where_it_fits():
            assert all(model._joins(n, w, q, 1) for w in range(2, k + 1))
        default = model._CHUNK_WORDS
        for y in ys:
            rank = np.flatnonzero((measured == y).all(axis=1))
            want = [rank[(lo <= rank) & (rank < hi)] - lo for lo, hi in zip(starts, starts[1:])]
            for chunk in (default, 1, 7, 64):
                monkeypatch.setattr(model, "_CHUNK_WORDS", chunk)
                routes = [("join", join_where_it_fits)]
                if chunk == default or len(X) <= 5000:
                    routes.append(("sweep", sweep_only))
                for route, forced in routes:
                    with forced():
                        got = measure_levels(field, A, k, pack_measurements(field, y))
                        for (w, hits), ref in zip(got, want, strict=True):
                            assert hits.dtype == np.int64
                            assert np.array_equal(hits, ref), (route, chunk, w)

    @pytest.mark.parametrize("q,n,k,m", [(4, 7, 4, 40), (2, 10, 5, 70)])
    def test_join_confirms_goals_that_share_the_first_word(self, monkeypatch, q, n, k, m):
        # two words, the matrix zero on the rows of word 0 and its third
        # column a copy of the second: every member measures 0 in word 0,
        # so each prefix the join looks up meets every goal there, and a
        # pair is a hit only where word 1 is equal too.  The join's hits,
        # the sweep's and the definition of A x's agree, for a member's
        # measurement and one that no member attains, at chunks of 1, 7
        # and 64 words too
        field = make_field(q)
        per = _lanes(q, m).per
        X = np.array(list(enumerate_signals(n, k, q)), dtype=np.int16)
        starts = np.cumsum((0,) + signal_set_size(n, k, q).per_sparsity)
        rng = np.random.default_rng(q * 1000 + n * 10 + k)
        A = rng.integers(0, q, size=(m, n)).astype(np.int16)
        A[:per], A[:, 2] = 0, A[:, 1]
        measured = measure_candidates(field, A, X).T
        assert not pack_measurements(field, measured)[:, 0].any()
        missing = unattained(q, measured[:, per:], rng)
        ys = np.concatenate([measured[rng.integers(0, len(X), size=1)], np.pad(missing, ((0, 0), (per, 0)))])
        assert len(ys) == 2
        for y in ys:
            rank = np.flatnonzero((measured == y).all(axis=1))
            want = [rank[(lo <= rank) & (rank < hi)] - lo for lo, hi in zip(starts, starts[1:])]
            for chunk in (model._CHUNK_WORDS, 1, 7, 64):
                monkeypatch.setattr(model, "_CHUNK_WORDS", chunk)
                for route, forced in (("join", join_where_it_fits), ("sweep", sweep_only)):
                    with forced():
                        got = measure_levels(field, A, k, pack_measurements(field, y))
                        for (w, hits), ref in zip(got, want, strict=True):
                            assert np.array_equal(hits, ref), (route, chunk, w)

    def test_join_of_goals_that_share_the_first_word_is_bounded(self):
        # n = 12, k = 3 over GF(16), m = 20 rows in two words, the ten of
        # word 0 zero: all 14,850 prefixes of level 3 meet all 180 goals
        # of y = 0 on their first word, 2.7 million pairs, which the join
        # expands and confirms a run at a time.  Its hits are the sweep's,
        # and it stays within the bound of the scan of all hits
        field = make_field(16)
        lanes = _lanes(16, 20)
        A = np.random.default_rng(16).integers(0, 16, size=(20, 12)).astype(np.int16)
        A[: lanes.per] = 0
        targets = pack_measurements(field, np.zeros(20, dtype=np.int16))
        bound = 2 * signal_set_size(12, 3, 16).total * 8 + 2 * model._CHUNK_WORDS * lanes.dtype.itemsize
        swept = sweep_hits(field, A, 3, targets)[0]
        with join_where_it_fits():
            list(measure_levels(field, A, 1, targets))  # field tables outside the measurement
            tracemalloc.start()
            try:
                joined = [hits for _, hits in measure_levels(field, A, 3, targets)]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        for hits, want in zip(joined, swept, strict=True):
            assert np.array_equal(hits, want)
        assert peak < bound, (peak, bound)

    @pytest.mark.parametrize(
        "n,k,q,m",
        [(12, 3, 16, 7), (12, 3, 13, 7), (12, 3, 16, 4), (12, 3, 16, 3), (12, 3, 13, 3),
         (12, 3, 13, 4), (24, 5, 2, 20), (1000, 2, 4, 15)],
    )
    def test_chooser_joins_every_level_above_1_of_one_matrix(self, n, k, q, m):
        # the decode benchmark's shapes, the q = 2, n = 24, k = 5 scan and
        # one-trial Monte Carlo blocks at n = 1000, k = 2; every stack of
        # matrices takes the sweep.  Levels 0 and 1 take neither route:
        # the scan reads them off the targets and the goal table, without
        # asking the chooser, here of a zero matrix that all of them fit
        assert [model._joins(n, w, q, 1) for w in range(2, k + 1)] == [True] * (k - 1)
        assert not any(model._joins(n, w, q, 2) for w in range(2, k + 1))

        def refuse(*args):
            raise AssertionError("levels 0 and 1 took a route")

        field = make_field(q)
        targets = pack_measurements(field, np.zeros(m, dtype=np.int16))
        with mock.patch.object(model, "_joins", refuse):
            with mock.patch.multiple(model._ColumnTable, _chunks=refuse, _join=refuse):
                scan = measure_levels(field, np.zeros((m, n), dtype=np.int16), 1, targets)
                assert [hits.tolist() for _, hits in scan] == [[0], list(range(n * (q - 1)))]

    @pytest.mark.parametrize(
        "n,w,q,m", [(5, 5, 16, 4), (7, 6, 5, 4), (5, 5, 7, 4), (6, 5, 4, 7), (10, 8, 2, 8)]
    )
    def test_chooser_sweeps_a_level_near_the_size_of_its_prefixes(self, n, w, q, m):
        # where level w - 1 is about as large as level w, or larger, the
        # join's prefixes outweigh the sweep's comparisons, whatever the
        # number m of rows.  The chooser reads no m: the join takes two
        # words (m = 17 at q = 16), a word of 63 bits (m = 7 at q = 251)
        # and 60 bits at n = 1000 (m = 60 at q = 2) alike
        assert not model._joins(n, w, q, 1)
        with join_where_it_fits():
            assert model._joins(n, w, q, 1)
            for shape in ((12, 2, 16), (12, 2, 251), (1000, 2, 2)):
                assert model._joins(*shape, 1)

    def test_targets_must_be_one_packed_measurement_per_matrix(self):
        field = make_field(13)
        mats = np.zeros((3, 7, 4), dtype=np.int16)
        for targets in (np.zeros(3, dtype=np.uint64), np.zeros((2, 1), dtype=np.uint64)):
            with pytest.raises(DimensionMismatch):
                measure_levels(field, mats, 1, targets)

    @pytest.mark.parametrize(
        "entry,match", [(5, "outside GF"), (-1, "outside GF"), (1.0, "float"), (True, "bool")],
        ids=["out-of-field", "negative", "float", "bool"],
    )
    @pytest.mark.parametrize("stack", [(), (3,)], ids=["one", "stack"])
    def test_matrices_outside_the_field_rejected(self, entry, match, stack):
        # measure_levels checks the matrices it receives; the column
        # table it builds trusts them
        field = make_field(5)
        mats = np.zeros(stack + (2, 4), dtype=np.asarray(entry).dtype)
        mats[..., 1, 2] = entry
        targets = np.zeros(stack + (_lanes(5, 2).count,), dtype=_lanes(5, 2).dtype)
        with pytest.raises(ValueError, match=match):
            measure_levels(field, mats, 1, targets)

    @pytest.mark.parametrize(
        "q,m,dtype",
        [(2, 6, np.uint8), (2, 8, np.uint8), (2, 9, np.uint16), (4, 6, np.uint16),
         (3, 6, np.uint32), (16, 7, np.uint32), (13, 7, np.uint64), (256, 4, np.uint32)],
    )
    def test_words_are_the_narrowest_type_that_holds_the_lanes(self, q, m, dtype):
        lanes = _lanes(q, m)
        assert (lanes.count, lanes.dtype) == (1, np.dtype(dtype))
        # kept per (q, m), with its read-only lane shifts in the word type
        assert _lanes(q, m) is lanes and not lanes.shifts.flags.writeable
        assert lanes.shifts.dtype == lanes.dtype
        assert lanes.shifts.tolist() == [lanes.bits * r for r in range(lanes.per)]

    @pytest.mark.parametrize("q", [61, 64])
    def test_split_level_memory_is_bounded_by_the_block(self, monkeypatch, q):
        # chunks of 8192 words, the block of members this bound was set
        # for: (q - 1)^3 > 8192, so each support's value tuples are split
        # by their leading value, and peak memory follows the chunk, not
        # the (q - 1)^3-member level
        monkeypatch.setattr(model, "_CHUNK_WORDS", 8192)
        n, k, m = 3, 3, 4
        field = make_field(q)
        A = np.random.default_rng(q).integers(0, q, size=(m, n)).astype(np.int16)
        targets = pack_measurements(field, matvec(field, A, np.array([1, 2, 3], dtype=np.int16)))
        bound = 12 * 8192 * m
        assert math.comb(n, k) * (q - 1) ** k * m * 2 > 4 * bound
        tracemalloc.start()
        try:
            levels, chunks = sweep_hits(field, A, k, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        members = sum(size for _, size in chunks)
        hits = sum(map(len, levels))
        split = sum(w == k for w, _ in chunks)
        assert members == signal_set_size(n, k, q).total and hits >= 1
        assert split >= (q - 1) // 2  # level 3's one support takes a chunk per two leading values
        assert peak < bound, (peak, bound)

    @pytest.mark.parametrize("q,n,k,m", [(251, 3, 3, 2), (2, 30, 5, 20), (2, 24, 5, 8)])
    def test_sweep_memory_is_bounded_by_the_chunk_words(self, q, n, k, m):
        # at the module's own chunk size.  At q = 251 the 250^3 value
        # tuples of the one weight-3 support are split by their leading
        # value; at q = 2 a unit is one member, and the int64 columns
        # that unrank its support outweigh its words, so they count in
        # the chunk too.  A full sweep stays below two chunks' words of
        # the table's width, where one whole level would not.  The join,
        # which looks up the prefixes of every level above 1, holds the
        # same bound
        field = make_field(q)
        itemsize = _lanes(q, m).dtype.itemsize
        A = np.random.default_rng(q + n).integers(0, q, size=(m, n)).astype(np.int16)
        targets = pack_measurements(field, np.zeros(m, dtype=np.int16))
        bound = 2 * model._CHUNK_WORDS * itemsize
        assert math.comb(n, k) * ((q - 1) ** k * itemsize + 8 * (k + 4)) > bound
        sweep_hits(field, A, k, targets)  # field tables outside the measurement
        tracemalloc.start()
        try:
            hits = sum(map(len, sweep_hits(field, A, k, targets)[0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hits >= 1  # the zero member
        assert peak < bound, (peak, bound)
        with join_where_it_fits():
            assert all(model._joins(n, w, q, 1) for w in range(2, k + 1))
            tracemalloc.start()
            try:
                joined = sum(len(level) for _, level in measure_levels(field, A, k, targets))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert joined == hits
        assert peak < bound, (peak, bound)

    def test_scan_of_all_hits_is_bounded_by_the_hits(self):
        # a zero matrix measures every member as 0, so each level is all
        # hits: 757,531 of them at n = 12, k = 3 over GF(16), 6.1 MB as
        # int64.  Both routes hold the hits and their chunk's working
        # set, and the join expands and ranks its (prefix, goal) pairs a
        # run of at most about _CHUNK_WORDS int64 at a time, not all of a
        # chunk's at once
        field = make_field(16)
        A = np.zeros((7, 12), dtype=np.int16)
        targets = pack_measurements(field, np.zeros(7, dtype=np.int16))
        total = signal_set_size(12, 3, 16).total
        bound = 2 * total * 8 + 2 * model._CHUNK_WORDS * _lanes(16, 7).dtype.itemsize
        for forced in (sweep_only, join_where_it_fits):
            with forced():
                list(measure_levels(field, A, 1, targets))  # field tables outside the measurement
                tracemalloc.start()
                try:
                    hits = sum(len(level) for _, level in measure_levels(field, A, 3, targets))
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert hits == total
            assert peak < bound, (forced.__name__, peak, bound)

    @pytest.mark.parametrize("q,b,m,n", [(2, 524, 20, 50), (2, 3120, 6, 10), (4, 400, 6, 10), (13, 20, 7, 12)])
    def test_column_table_build_is_bounded_by_one_row(self, q, b, m, n):
        # the scaled entries are gathered a row of the matrices at a
        # time: beside the matrices, the build holds the table's packed
        # words, their copy in the table's layout, and one row's intp
        # index and gathered words.  A gather of all rows at once held
        # the matrices as intp, 5 MB for a 0.1 MB table at n = 50, m = 20
        field = make_field(q)
        mats = np.random.default_rng(b).integers(0, q, size=(b, m, n)).astype(np.int16)
        model._ColumnTable(field, mats)  # field tables outside the measurement
        tracemalloc.start()
        try:
            table = model._ColumnTable(field, mats).table
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row = b * n * (8 + (q - 1) * table.itemsize)
        bound = 2 * table.nbytes + row + 16 * 1024
        assert peak < bound, (peak, bound)

    def test_full_decode_scan_memory_is_bounded_by_the_chunk(self):
        # n = 12, k = 3, q = 13, m = 7: |L| = 382,411 members of one word
        # each, 3.1 MB as packed words; a chunk spans at most
        # _CHUNK_WORDS words, and its mask, partial sums and their lane
        # sums stay within two bytes per word
        field = make_field(13)
        rng = np.random.default_rng(13)
        A = rng.integers(0, 13, size=(7, 12)).astype(np.int16)
        y = rng.integers(0, 13, size=7).astype(np.int16)
        bound = 2 * model._CHUNK_WORDS
        assert signal_set_size(12, 3, 13).total * 8 > bound
        ffcs.decode_l0(field, A, y, k_max=3)  # field tables outside the measurement
        tracemalloc.start()
        try:
            res = ffcs.decode_l0(field, A, y, k_max=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.min_sparsity is None  # every level was scanned
        assert peak < bound, (peak, bound)

    def test_candidate_matrix_counts_and_weights(self):
        X, w = candidate_matrix(4, 2, 3)
        assert X.shape[0] == signal_set_size(4, 2, 3).total
        assert np.array_equal(w, np.count_nonzero(X, axis=1))

    def test_candidate_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            candidate_matrix(50, 25, 4)

    @pytest.mark.parametrize(
        "w,ranks", [(2, [-1]), (2, [40]), (2, [0, 40]), (6, [0]), (-1, [0])]
    )
    def test_level_members_rejects_ranks_outside_the_level(self, w, ranks):
        # the weight-2 level of n = 5, q = 3 holds C(5, 2) 2^2 = 40 members
        assert level_members(5, 2, 3, [0, 39]).shape == (2, 5)
        with pytest.raises(ValueError):
            level_members(5, w, 3, ranks)

    @pytest.mark.parametrize("ranks", [[1.5], [True], np.array([1.0]), np.array([0, 1], dtype=bool)])
    def test_members_refuse_ranks_that_are_not_integers(self, ranks):
        # an int64 cast would take 1.5, 1.0 and True as rank 1 (and False as 0)
        with pytest.raises(ValueError, match=r"ranks must be integers in \[0, "):
            level_members(4, 1, 3, ranks)
        with pytest.raises(ValueError, match=r"ranks must be integers in \[0, "):
            candidate_matrix(4, 2, 3, ranks)

    @pytest.mark.parametrize("ranks", [[-1], [424996], [0, 424996], [-(2**40)]])
    def test_candidate_matrix_refuses_ranks_outside_L_before_allocating(self, ranks):
        # |L| = 424,996 at n = 20, k = 4, q = 4; a rank outside it would
        # leave a row of np.empty unwritten, with a weight of -1 or k
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"ranks must be integers in \[0, 424996\)"):
                candidate_matrix(20, 4, 4, ranks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000, peak

    @pytest.mark.parametrize("q", [2, 3, 4, 16])
    @pytest.mark.parametrize("chunk_words", [model._CHUNK_WORDS, 24])
    def test_candidate_matrix_at_ranks_is_those_rows_of_L(self, monkeypatch, q, chunk_words):
        # shuffled, repeated, level-edge and empty ranks; with chunks of 24
        # entries a block of ranks spans several levels, and L many blocks
        monkeypatch.setattr(model, "_CHUNK_WORDS", chunk_words)
        rng = np.random.default_rng(q)
        for n, k in [(1, 1), (4, 2), (6, 0), (8, 3)]:
            if q == 16 and n == 8:
                k = 2
            whole, weights = candidate_matrix(n, k, q)
            assert np.array_equal(weights, np.count_nonzero(whole, axis=1))
            total = len(whole)
            starts = level_starts(n, k, q)
            edges = np.unique(np.concatenate([starts, starts[1:] - 1, [total - 1]]))
            cases = [
                rng.permutation(total)[:50],
                rng.integers(0, total, 40),
                np.repeat(edges, 2),
                rng.permutation(np.concatenate([edges, edges])),
                np.array([], dtype=np.int64),
                [],
            ]
            for ranks in cases:
                rows, w = candidate_matrix(n, k, q, ranks)
                ranks = np.asarray(ranks, dtype=np.int64)
                assert rows.dtype == np.int16 and w.dtype == np.int64
                assert rows.shape == (len(ranks), n)
                assert np.array_equal(rows, whole[ranks]) and np.array_equal(w, weights[ranks])
                assert np.array_equal(w, np.count_nonzero(rows, axis=1))

    @pytest.mark.parametrize(
        "n,k_max,q", [(3, 1, 6), (1, 1, 40009), (2, 1, 40009), (2, 1, 9), (2, 1, 257)]
    )
    def test_candidates_only_over_fields_with_tables(self, n, k_max, q):
        # GF(6) does not exist, and GF(9), GF(257) and GF(40009) have no
        # tables: nothing is allocated before the refusal, and no member
        # is built, such as rank q - 2, whose entry q - 1 = 40008 int16
        # would wrap to -25528
        tracemalloc.start()
        try:
            with pytest.raises(ffcs.UnsupportedOrder):
                candidate_matrix(n, k_max, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000, peak
        with pytest.raises(ffcs.UnsupportedOrder):
            level_members(n, 1, q, [q - 2])

    def test_members_at_every_order_with_tables(self):
        # every member of L at n = 3, k = 1 over each of the 61 orders,
        # built and unranked, is the plain enumeration's
        for q in ffcs.supported_orders():
            reference = np.array(list(enumerate_signals(3, 1, q)), dtype=np.int16)
            assert np.array_equal(candidate_matrix(3, 1, q)[0], reference)
            assert np.array_equal(level_members(3, 1, q, np.arange(3 * (q - 1))), reference[1:])

    @pytest.mark.parametrize("n", range(17))
    def test_kept_support_tables_match_unranking_and_combinations(self, monkeypatch, n):
        # every weight w = 0..n of n columns: the kept table, read whole,
        # by ranks and by slices, and each rank unranked on its own are
        # itertools.combinations' lexicographic order, as are the members
        # level_members builds on each route
        rng = np.random.default_rng(n)
        for w in range(n + 1):
            want = np.array(list(itertools.combinations(range(n), w)), dtype=np.int64)
            want = want.reshape(math.comb(n, w), w)
            table = model._support_table(n, w)
            assert table.dtype == np.int64 and not table.flags.writeable
            assert np.array_equal(table, want)
            ranks = rng.permutation(len(want))
            lo, hi = sorted(rng.integers(0, len(want) + 1, size=2))
            # members of GF(3): support rank // 2^w, values from rank % 2^w
            member_ranks = rng.integers(0, len(want) * 2**w, size=200)
            members = []
            for kept in (-1, math.comb(n, w) * w):  # unrank each rank, then read the table
                monkeypatch.setattr(model, "_KEPT_ENTRIES", kept)
                assert np.array_equal(model._supports(n, w, ranks), want[ranks])
                assert np.array_equal(model._supports(n, w, slice(lo, hi)), want[lo:hi])
                members.append(level_members(n, w, 3, member_ranks))
            assert np.array_equal(*members)
            for row, rank in zip(members[0], member_ranks):
                assert np.array_equal(np.flatnonzero(row), want[rank // 2**w])

    @pytest.mark.parametrize(
        "n,w,kept", [(256, 2, True), (257, 2, False), (65536, 1, True), (65537, 1, False),
                     (12, 3, True), (24, 4, True), (24, 5, False), (1000, 2, False)]
    )
    def test_supports_are_kept_up_to_the_bound(self, n, w, kept):
        # a level of at most _KEPT_ENTRIES entries C(n, w) w reads its kept
        # table, a larger one unranks; both give the same supports
        assert (math.comb(n, w) * w <= model._KEPT_ENTRIES) == kept
        ranks = np.array([0, 1, math.comb(n, w) // 2, math.comb(n, w) - 1])
        with mock.patch.object(model, "_support_table", wraps=model._support_table) as table:
            got = model._supports(n, w, ranks)
        assert table.called == kept
        assert np.array_equal(got, model._unrank_supports(n, w, ranks))

    def test_level_members_above_the_bound_unranks(self):
        # n = 1000, w = 2: C(1000, 2) 2 = 999,000 entries, above the bound,
        # so the members come from unranking, in canonical order
        n, q = 1000, 3
        assert math.comb(n, 2) * 2 > model._KEPT_ENTRIES
        pairs = list(itertools.combinations(range(n), 2))
        size = len(pairs) * (q - 1) ** 2
        ranks = np.array([0, 1, 5, 3993, size // 2 + 3, size - 2, size - 1])
        with mock.patch.object(model, "_support_table", wraps=model._support_table) as table:
            got = level_members(n, 2, q, ranks)
        assert not table.called
        for row, rank in zip(got, ranks):
            (a, b), value = pairs[rank // 4], rank % 4
            want = np.zeros(n, dtype=np.int16)
            want[[a, b]] = value // 2 + 1, value % 2 + 1
            assert np.array_equal(row, want)

    @pytest.mark.parametrize("n,w,q", [(5, 2, 3), (6, 3, 3), (6, 4, 2), (4, 2, 5), (7, 3, 2), (3, 3, 4), (5, 5, 3)])
    def test_prefix_ranks_complete_each_prefix(self, n, w, q):
        # member p of level w - 1, completed by a column j past its
        # support's last and a value v, is the member at canonical rank
        # _prefix_ranks + j (q-1)^w + v - 1 of level w, in
        # enumerate_signals' order: the join's ranking of its hits
        members = [tuple(x) for x in enumerate_signals(n, w, q) if np.count_nonzero(x) == w]
        rank = {x: r for r, x in enumerate(members)}
        prefixes = [x for x in enumerate_signals(n, w - 1, q) if np.count_nonzero(x) == w - 1]
        p = np.arange(len(prefixes))
        base = model._prefix_ranks(n, w, q, p, model._unrank_supports(n, w - 1, p // (q - 1) ** (w - 1)))
        assert base.dtype == np.int64
        completed = 0
        for r, x in enumerate(prefixes):
            for j in range(int(max(np.flatnonzero(x), default=-1)) + 1, n):
                for v in range(1, q):
                    y = x.copy()
                    y[j] = v
                    assert rank[tuple(y)] == base[r] + j * (q - 1) ** w + v - 1
                    completed += 1
        assert completed == len(members)

    def test_kept_support_tables_are_bounded_together(self):
        # more tables than are kept, each as large as the bound allows:
        # only _KEPT_TABLES stay, together at most _CHUNK_WORDS int64
        model._support_table.cache_clear()
        shapes = [(65536 - i, 1) for i in range(model._KEPT_TABLES + 4)] + [(256, 2), (51, 3)]
        tracemalloc.start()
        try:
            for n, w in shapes:
                assert model._support_table(n, w).nbytes <= 8 * model._KEPT_ENTRIES
            model._binomials.cache_clear()  # the unranking's tables, not the kept ones
            kept = tracemalloc.get_traced_memory()[0]
            info = model._support_table.cache_info()
        finally:
            tracemalloc.stop()
            model._support_table.cache_clear()
        assert info.currsize == model._KEPT_TABLES
        assert model._KEPT_TABLES * model._KEPT_ENTRIES == model._CHUNK_WORDS
        assert kept <= 8 * model._CHUNK_WORDS + 64 * 1024, kept

    def test_import_builds_no_kept_table(self):
        # the kept tables and word layouts are built on first use, not at
        # import, so importing ffcs costs what it did
        code = (
            "import ffcs; from ffcs import model; "
            "print(model._support_table.cache_info().currsize, model._lanes.cache_info().currsize)"
        )
        path = os.pathsep.join(filter(None, [str(Path(ffcs.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["0", "0"]

    @pytest.mark.parametrize(
        "q,b,m,n,at_once",
        [(16, 1, 7, 12, True), (13, 1, 7, 12, True), (2, 1, 20, 24, True), (2, 1, 65, 5, True),
         (251, 1, 8, 3, True), (13, 20, 7, 12, False), (4, 400, 6, 10, False)],
    )
    def test_rows_pack_alike_at_once_and_one_by_one(self, monkeypatch, q, b, m, n, at_once):
        # _pack_rows gathers all rows at once up to _GATHER_ENTRIES entries,
        # as for one decode matrix, and a row at a time above; both give
        # every scaled column v * A_j packed as pack_measurements packs it
        field = make_field(q)
        mats = np.random.default_rng(q * m).integers(0, q, size=(b, m, n)).astype(np.int16)
        assert ((q - 1) * mats.size <= model._GATHER_ENTRIES) == at_once
        count = _lanes(q, m).count
        want = pack_measurements(field, field.mul_table[1:][:, mats].swapaxes(-1, -2))  # (v, b, n, count)
        for entries in (0, (q - 1) * mats.size):
            monkeypatch.setattr(model, "_GATHER_ENTRIES", entries)
            columns = model._ColumnTable(field, mats)
            if columns.axis == 1:  # (n, v, b * count)
                got = columns.table.reshape(n, q - 1, b, count).transpose(1, 2, 0, 3)
            else:  # (b * count, n, v)
                got = columns.table.reshape(b, count, n, q - 1).transpose(3, 0, 2, 1)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda f, A: ffcs.decode_l0(f, A, np.zeros(3, dtype=np.int16), k_max=2),
            lambda f, A: ffcs.error_events(f, A, np.array([0, 1, 0, 2, 0], dtype=np.int16), k_max=2),
            lambda f, A: candidate_matrix(5, 2, 3),
            lambda f, A: ffcs.run_trials(ModelParams(n=5, k=2, m=3, q=3, gamma=0.5), 10, seed=0),
        ],
        ids=["decode_l0", "error_events", "candidate_matrix", "run_trials"],
    )
    def test_cap_admits_exactly_its_own_count(self, monkeypatch, entry):
        # |L| = 1 + 5 * 2 + 10 * 4 = 51 at n = 5, k = 2, q = 3
        f = make_field(3)
        A = np.random.default_rng(0).integers(0, 3, size=(3, 5)).astype(np.int16)
        assert signal_set_size(5, 2, 3).total == 51
        monkeypatch.setattr(ffcs.model, "ENUMERATION_CAP", 51)
        entry(f, A)
        monkeypatch.setattr(ffcs.model, "ENUMERATION_CAP", 50)
        with pytest.raises(EnumerationCapExceeded, match=r"\|L\| = 51 exceeds the enumeration cap 50$"):
            entry(f, A)


class TestSerialization:
    def test_matrix_round_trip(self):
        params = ModelParams(n=5, k=2, m=3, q=4, gamma=0.6)
        (mat,), _ = sample_trials(params, 1, seed=2)
        obj = json.loads(json.dumps(matrix_to_json(mat, q=4, gamma=params.gamma, seed=2)))
        back = matrix_from_json(obj)
        assert np.array_equal(back, mat)
        assert back.dtype == np.int16 and not back.flags.writeable
        assert obj["gamma"] == params.gamma
        assert obj["dims"] == [3, 5]
        assert obj["seed"] == 2

    def test_signal_round_trip(self):
        sig = np.array([0, 3, 0, 1], dtype=np.int16)
        obj = json.loads(json.dumps(signal_to_json(sig, q=4)))
        back = signal_from_json(obj)
        assert np.array_equal(back, sig)
        assert back.dtype == np.int16 and not back.flags.writeable
        assert np.count_nonzero(back) == 2

    def test_bad_dims_rejected(self):
        obj = signal_to_json(np.array([1, 0], dtype=np.int16), q=2)
        obj["dims"] = [3]
        with pytest.raises(DimensionMismatch):
            signal_from_json(obj)

    def test_wrong_rank_rejected(self):
        # a matrix object is no signal, and a signal object no matrix
        with pytest.raises(DimensionMismatch, match="not 1-dimensional"):
            signal_from_json(matrix_to_json(np.array([[0, 1]]), q=4))
        with pytest.raises(DimensionMismatch, match="not 2-dimensional"):
            matrix_from_json(signal_to_json(np.array([0, 1]), q=4))

    def test_out_of_field_entries_rejected(self):
        with pytest.raises(ValueError):
            signal_from_json({"q": 2, "dims": [2], "entries": [0, 5], "gamma": None, "seed": None})

    @pytest.mark.parametrize("bad", [1.5, True, 1.0])
    def test_non_integer_entries_rejected(self, bad):
        # an int16 cast would turn 1.5 into 1 and True into 1, silently
        obj = {"q": 4, "dims": [2], "entries": [0, bad], "gamma": None, "seed": None}
        with pytest.raises(ValueError, match="not an integer"):
            signal_from_json(obj)
        obj = {"q": 4, "dims": [1, 2], "entries": [[0, bad]], "gamma": None, "seed": None}
        with pytest.raises(ValueError, match="not an integer"):
            matrix_from_json(obj)

    @pytest.mark.parametrize("big", [70000, -70000])
    def test_entries_beyond_int16_raise_value_error(self, big):
        # checked against 0..q-1 before the int16 cast, which would overflow
        obj = {"q": 4, "dims": [2], "entries": [big, 0], "gamma": None, "seed": None}
        with pytest.raises(ValueError, match=r"entries outside GF\(4\)"):
            signal_from_json(obj)
        obj = {"q": 4, "dims": [1, 2], "entries": [[0, big]], "gamma": None, "seed": None}
        with pytest.raises(ValueError, match=r"entries outside GF\(4\)"):
            matrix_from_json(obj)

    @pytest.mark.parametrize("q", [65537, 32771])
    def test_orders_beyond_int16_rejected(self, q):
        # q - 1 passes the 0..q-1 check, but the int16 cast would overflow
        obj = {"q": q, "dims": [2], "entries": [0, q - 1], "gamma": None, "seed": None}
        with pytest.raises(ValueError, match=r"above 2\*\*15"):
            signal_from_json(obj)
        obj = {"q": q, "dims": [1, 2], "entries": [[0, q - 1]], "gamma": None, "seed": None}
        with pytest.raises(ValueError, match=r"above 2\*\*15"):
            matrix_from_json(obj)

    def test_largest_int16_order_accepted(self):
        obj = {"q": 2**15, "dims": [2], "entries": [0, 32767], "gamma": None, "seed": None}
        assert signal_from_json(obj).tolist() == [0, 32767]
        obj = {"q": 2**15, "dims": [1, 2], "entries": [[0, 32767]], "gamma": None, "seed": None}
        assert matrix_from_json(obj).tolist() == [[0, 32767]]

    @pytest.mark.parametrize("q", [6, 4.0])
    def test_order_that_is_no_field_rejected(self, q):
        obj = {"q": q, "dims": [2], "entries": [0, 1], "gamma": None, "seed": None}
        with pytest.raises(ValueError):
            signal_from_json(obj)
        obj = {"q": q, "dims": [1, 2], "entries": [[0, 1]], "gamma": None, "seed": None}
        with pytest.raises(ValueError):
            matrix_from_json(obj)
