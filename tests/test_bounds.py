import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from ffcs import (
    EnumerationCapExceeded,
    InvalidGamma,
    LogProb,
    ModelParams,
    PairVariant,
    UnsupportedOrder,
    binary_entropy,
    closed_dense_bound,
    convolution_oracle,
    dense_gamma,
    exponent_bound,
    fano_lower_bound,
    make_field,
    necessary_m,
    nh_count,
    nh_log_profile,
    nh_oracle,
    pair_total,
    row_zero_prob_sparse,
    signal_set_size,
    sufficient_m,
    supported_orders,
    union_bound,
)
from ffcs import bounds, cli
from ffcs.bounds import _profile_tables, _ProfileTables, _tri
from ffcs.util import log_factorials, log_of_int

ALL = PairVariant.ALL_PAIRS
RESTRICTED = PairVariant.RESTRICTED_PAIRS


def reference_log_profile(n, k_max, q, variant):
    """nh_log_profile one distance at a time: the same terms and the same
    arithmetic order, so the chunked build must match it bit for bit."""
    hmax = 2 * k_max
    lfact = log_factorials(max(n, hmax))
    logq1 = math.log(q - 1)
    P = _profile_tables(n, q).upto(k_max).P
    out = np.full(hmax + 1, -np.inf)
    for h in range(1, min(hmax, n) + 1):
        R = n - h
        # S[h + A] = log S_R(A) for A = -h..K: -inf below A = 0, flat above A = R
        a = np.arange(min(k_max, R) + 1)
        S = np.full(h + k_max + 1, -np.inf)
        S[h : h + a.size] = np.logaddexp.accumulate(lfact[R] - lfact[a] - lfact[R - a] + a * logq1)
        S[h + a.size :] = S[h + a.size - 1]
        log_ch = lfact[h] - lfact[: h + 1] - lfact[h::-1]
        b = np.arange(h // 2 + 1)
        terms = log_ch[b] + P[_tri(h - b) + h - 2 * b] + S[k_max + b]  # T_h
        if variant is ALL:
            u = np.arange((h + 2) // 2, h + 1)  # U_h
            terms = np.concatenate((terms, log_ch[u] + P[_tri(u) + 2 * u - h - 1] + S[k_max + h - u]))
        top = terms.max()
        lse = top + math.log(np.exp(terms - top).sum())
        out[h] = lse + lfact[n] - lfact[h] - lfact[R] + h * logq1
    return out


def clear_profile_tables():
    """Drop the cached profiles and the tables their builds keep."""
    for cache in (bounds._nh_log_profile_cached, _profile_tables):
        cache.cache_clear()


class TestRowNullity:
    def test_two_fold_binary(self):
        # sum of two entries from (0.75, 0.25) over GF(2): 0.75^2 + 0.25^2
        assert math.isclose(row_zero_prob_sparse(2, 0.25, 2).linear, 0.625, rel_tol=1e-12)

    def test_ternary_matches_convolution(self):
        got = row_zero_prob_sparse(3, 0.3, 3).linear
        want = convolution_oracle(make_field(3), 0.3, 3).linear
        assert math.isclose(got, want, abs_tol=1e-12)

    @pytest.mark.parametrize("q", [2, 3, 4, 16, 256])
    @pytest.mark.parametrize("h", [1, 2, 5, 64])
    def test_dense_gamma_collapses_to_uniform(self, q, h):
        got = row_zero_prob_sparse(q, dense_gamma(q), h).linear
        assert abs(got - 1 / q) < 1e-12

    def test_single_entry_is_zero_with_prob_one_minus_gamma(self):
        for q, gamma in [(2, 0.3), (5, 0.8), (8, 0.1)]:
            assert math.isclose(convolution_oracle(make_field(q), gamma, 1).linear, 1 - gamma, rel_tol=1e-12)

    def test_dense_case_through_oracle(self):
        got = convolution_oracle(make_field(4), 0.75, 5).linear
        assert math.isclose(got, 0.25, abs_tol=1e-12)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 16])
    def test_oracle_equivalence_grid(self, q):
        f = make_field(q)
        for gamma in (0.1, 0.3, 0.5, 0.7, 0.9):
            for h in (1, 2, 3, 6, 12):
                a = row_zero_prob_sparse(q, gamma, h).linear
                b = convolution_oracle(f, gamma, h).linear
                assert abs(a - b) < 1e-10, (q, gamma, h)

    def test_limit_and_monotonicity_in_h(self):
        for q, gamma in [(2, 0.3), (4, 0.5), (16, 0.9)]:
            vals = [row_zero_prob_sparse(q, gamma, h).linear for h in range(1, 200)]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
            assert abs(vals[-1] - 1 / q) < 1e-9

    def test_gamma_above_dense_point_stays_valid(self):
        # base of the geometric term goes negative; value must stay a probability
        val = row_zero_prob_sparse(2, 1.0, 3).linear
        assert val == 0.0  # sum of an odd number of forced ones is never 0
        val = row_zero_prob_sparse(2, 1.0, 4).linear
        assert math.isclose(val, 1.0, rel_tol=1e-12)
        # every entry is nonzero, so no row annihilates a single one: the
        # formula's rounding residue must not survive at any order
        for q in supported_orders():
            val = row_zero_prob_sparse(q, 1.0, 1).linear
            assert val == 0.0 == convolution_oracle(make_field(q), 1.0, 1).linear, q

    @pytest.mark.parametrize("q", [11, 17, 83, 173])
    def test_gamma_just_below_one_stays_a_probability(self, q):
        # p_row(1) = 1 - gamma = 1.1e-16 rounds to a residue of either sign,
        # negative at q = 83 and 173; every consumer reads that as 0
        gamma = math.nextafter(1.0, 0.0)
        assert 0.0 <= row_zero_prob_sparse(q, gamma, 1).linear < 1e-15
        for n in (4, 100):
            below = union_bound(ModelParams(n=n, k=1, m=2, q=q, gamma=gamma)).log_value
            at_one = union_bound(ModelParams(n=n, k=1, m=2, q=q, gamma=1.0)).log_value
            assert math.isclose(below, at_one, rel_tol=1e-12)

    def test_invalid_gamma(self):
        with pytest.raises(InvalidGamma):
            row_zero_prob_sparse(4, 0.0, 2)
        with pytest.raises(InvalidGamma):
            convolution_oracle(make_field(4), 1.5, 2)

    @pytest.mark.parametrize(
        "call,error,match",
        [
            (lambda: row_zero_prob_sparse(4, 0.3, 0), ValueError, "h must be >= 1"),
            (lambda: convolution_oracle(make_field(4), 0.3, 0), ValueError, "h must be >= 1"),
            (lambda: LogProb.from_linear(-0.1), ValueError, "cannot be negative"),
            (lambda: binary_entropy(1.5), ValueError, r"p must lie in \[0, 1\]"),
            (lambda: fano_lower_bound(10, 2, 2, -1), ValueError, "m must be >= 0"),
            (lambda: nh_oracle(make_field(2), 20, 5), EnumerationCapExceeded, "oracle cap"),
            (lambda: row_zero_prob_sparse(4, 0.3, 1.5), ValueError, "^h must be an integer, got 1.5$"),
            (lambda: row_zero_prob_sparse(4, 0.9, 1.5), ValueError, "^h must be an integer, got 1.5$"),
            (lambda: convolution_oracle(make_field(4), 0.3, 2.0), ValueError, "^h must be an integer, got 2.0$"),
        ],
        ids=[
            "row-h0", "oracle-h0", "negative-probability", "entropy-above-1", "fano-m-1", "oracle-cap",
            "row-h-float", "row-h-float-negative-base", "oracle-h-float",
        ],
    )
    def test_arguments_outside_the_domain_rejected(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    def test_log_prob_overflows_to_inf_and_underflows_to_0(self):
        assert LogProb(800.0).linear == math.inf
        assert LogProb(-800.0).linear == 0.0


class TestPairCounts:
    def test_tiny_binary_instance(self):
        counts = nh_count(2, 1, 2, ALL)
        assert counts == {1: 4, 2: 2}
        assert sum(counts.values()) == 2 * 3  # (|L| - 1) |L|

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 2), (5, 3), (6, 3)])
    def test_analytic_matches_oracle_both_variants(self, n, k, q):
        oracle = nh_oracle(make_field(q), n, k)
        for variant in (ALL, RESTRICTED):
            assert nh_count(n, k, q, variant) == oracle[variant]

    @pytest.mark.parametrize("n,k,q", [(2, 1, 2), (4, 2, 2), (6, 3, 3), (8, 4, 4), (12, 5, 2)])
    def test_all_pairs_mass_identity(self, n, k, q):
        total = signal_set_size(n, k, q).total
        assert sum(nh_count(n, k, q, ALL).values()) == (total - 1) * total

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
    def test_pair_total_is_the_sum_of_the_counts(self, q):
        for n in range(1, 13):
            for k in range(n + 1):
                sizes = signal_set_size(n, k, q)
                for variant in (ALL, RESTRICTED):
                    assert pair_total(sizes, variant) == sum(nh_count(n, k, q, variant).values()), (n, k, variant)

    def test_oracle_memory_does_not_grow_with_all_pairs(self):
        # n = 40, k = 2, q = 2: |L| = 821, so the whole (|L|, |L|, n)
        # comparison would take 27 MB, over 6 times the bound
        n, k, bound = 40, 2, 4 << 20
        assert signal_set_size(n, k, 2).total ** 2 * n > 6 * bound
        field = make_field(2)
        tracemalloc.start()
        try:
            oracle = nh_oracle(field, n, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, peak
        for variant in (ALL, RESTRICTED):
            assert oracle[variant] == nh_count(n, k, 2, variant)

    def test_zero_sparsity_has_no_pairs(self):
        assert nh_count(5, 0, 3, ALL) == {}
        assert nh_oracle(make_field(2), 4, 0)[ALL] == {}

    def test_restricted_is_pointwise_at_most_all(self):
        for n, k, q in [(5, 2, 3), (6, 3, 2), (4, 2, 4)]:
            a = nh_count(n, k, q, ALL)
            r = nh_count(n, k, q, RESTRICTED)
            for h, c in r.items():
                assert c <= a[h]

    @pytest.mark.parametrize(
        "n,k,q",
        [
            (8, 3, 2), (12, 4, 3), (20, 6, 4), (40, 8, 2), (64, 6, 5),
            (1, 1, 2), (10, 10, 4), (7, 7, 7), (30, 15, 3), (64, 20, 16),
        ],
    )
    def test_log_profile_matches_exact_counts(self, n, k, q):
        for variant in (ALL, RESTRICTED):
            counts = nh_count(n, k, q, variant)
            prof = nh_log_profile(n, k, q, variant)
            assert prof[0] == float("-inf")
            for h in range(1, 2 * k + 1):
                want = log_of_int(counts.get(h, 0))
                if want == float("-inf"):
                    assert prof[h] == float("-inf")
                else:
                    assert math.isclose(prof[h], want, rel_tol=1e-9), (h, variant)

    @pytest.mark.parametrize("q", [2, 4])
    @pytest.mark.parametrize("k", [200, 500])
    def test_log_profile_mass_and_order_at_n_1000(self, k, q):
        # the ALL_PAIRS counts sum to (|L| - 1) |L|; union_bound takes the
        # exact path up to n = 64, so only this checks the profile above it
        total = signal_set_size(1000, k, q).total
        prof_all = nh_log_profile(1000, k, q, ALL)
        prof_res = nh_log_profile(1000, k, q, RESTRICTED)
        want = log_of_int((total - 1) * total)
        assert math.isclose(float(logsumexp(prof_all)), want, rel_tol=1e-12)
        assert np.all(prof_res <= prof_all + 1e-12)  # up to float rounding

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 16, 256])
    def test_log_profile_matches_the_per_distance_reference(self, q):
        # K = 0 and 1, K = n, 2K > n (a > R masked at n = 333, K = 296), and
        # n = 1000 with several chunks and a partial last one at K = 28, 296
        cases = [(1, 0), (6, 0), (1, 1), (9, 1), (7, 7), (20, 20), (50, 9), (333, 296), (1000, 28), (1000, 296)]
        for n, k in cases:
            for variant in (ALL, RESTRICTED):
                want = reference_log_profile(n, k, q, variant)
                assert np.array_equal(nh_log_profile(n, k, q, variant), want), (n, k, variant)

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_log_profile_is_bit_identical_in_any_k_order(self, order):
        # cold tables, then each (n, q) runs three K at a time in the given
        # order before the next takes over: the per-q triangles outlive a
        # change of n, the per-(n, q) rows are rebuilt, and within a run
        # the rows grow, or serve a smaller K from a larger one
        ks = {(333, 3): [0, 1, 2, 29, 150, 296, 333], (1000, 4): [1, 28, 29, 150, 296, 500],
              (333, 4): [1, 30, 296, 297, 333], (1000, 2): [3, 100, 101, 400]}
        want = {(n, k, q, v): reference_log_profile(n, k, q, v)
                for (n, q), kl in ks.items() for k in kl for v in (ALL, RESTRICTED)}
        runs = {}
        for (n, q), kl in ks.items():
            kl = sorted(kl, reverse=order == "descending")
            if order == "shuffled":
                random.Random(n * q).shuffle(kl)
            runs[n, q] = [kl[i : i + 3] for i in range(0, len(kl), 3)]
        clear_profile_tables()
        for i in range(max(map(len, runs.values()))):
            for (n, q), run in runs.items():
                for k in run[i] if i < len(run) else []:
                    for v in (ALL, RESTRICTED):
                        assert np.array_equal(nh_log_profile(n, k, q, v), want[n, k, q, v]), (n, k, q, v)

    def test_cold_log_profile_memory(self):
        # at n = 1000, K = 500 the tables retain P and the term weights, two
        # 1001-row triangles of 4.0 MB each, and 2.0 MB of staircase S rows;
        # they grow a block of rows at a time, with no whole-table temporary
        clear_profile_tables()
        tracemalloc.start()
        try:
            nh_log_profile(1000, 500, 4, ALL)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained <= 12 << 20, retained
        assert peak <= 14 << 20, peak

    def test_log_profile_memory_is_bounded_by_configuration(self):
        # one (2K x (K + 1)) float64 array at K = 500 would take 4.0 MB alone;
        # the tables a build reads are warmed first, as a curve leaves them
        _profile_tables(1000, 4).upto(500)
        bounds._nh_log_profile_cached.cache_clear()
        tracemalloc.start()
        try:
            nh_log_profile(1000, 500, 4, ALL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bounds._nh_log_profile_cached.cache_info().misses == 1
        assert peak < 2 << 20, peak

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_binomial_power_table_grows_to_the_exact_rows(self, q):
        # row v holds log sum_{c <= i} C(v, c) (q - 2)^c for i = 0..v, however
        # many steps the table grew in: to rows min(2K, n) = 4, 10 and 23 at
        # n = 23; a buffer handed out earlier keeps its rows
        table = _ProfileTables(23, q)
        table.upto(2)
        held = table.upto(5).P
        assert table.rows == 11
        flat = table.upto(12).P
        assert table.rows == 24 and held is not flat
        assert np.array_equal(held[: _tri(11)], flat[: _tri(11)])
        for v in range(24):
            prefix = np.cumsum([math.comb(v, c) * (q - 2) ** c for c in range(v + 1)])
            got = flat[v * (v + 1) // 2 : (v + 1) * (v + 2) // 2]
            assert np.allclose(got, np.log(prefix.astype(float)), rtol=1e-12, atol=0), v

    @pytest.mark.parametrize(
        "n,k", [(333, 1), (333, 2), (333, 166), (333, 167), (333, 250), (333, 333),
                (1000, 1), (1000, 2), (1000, 297), (1000, 298), (1000, 499), (1000, 500)],
    )
    def test_log_profile_rows_at_the_window_edges(self, n, k):
        # a distance h forms only the terms max(0, h - K) <= j <= min(h, K);
        # the edges of that window move at h = K, K + 1 and 2K, and from
        # h = 2(n - K) + 2 on, the S row it reads ends inside it (a > R at
        # A = K - ceil(h/2) > n - h; at n = 333 for K = 250 and 333).  Odd
        # and even K put odd and even h on every edge
        hlast = min(2 * k, n)
        edges = {k, k + 1, 2 * k, 2 * (n - k) + 1, 2 * (n - k) + 2, hlast - 1, hlast}
        rows = sorted(h for h in edges if 1 <= h <= hlast)
        assert any(h % 2 for h in rows) and any(h % 2 == 0 for h in rows)
        for variant in (ALL, RESTRICTED):
            got = nh_log_profile(n, k, 4, variant)
            want = reference_log_profile(n, k, 4, variant)
            assert np.array_equal(got[rows], want[rows]), (variant, rows)
            assert np.array_equal(got, want), variant

    def test_log_profile_survives_every_growth_pattern(self):
        # cold tables, then per (n, q): K in steps of one (the S rows move
        # to a larger buffer at K = 41), a jump, and smaller K served after
        # the growth; then one q at n alternating, which rebuilds the tables
        # at each change of n.  Profiles and tables match a single cold build
        runs = [[(1000, 4, k) for k in (40, 41, 42, 43, 44, 300, 45, 120, 2, 301)],
                [(333, 3, k) for k in (1, 2, 3, 4, 5, 170, 6, 90, 171, 333)],
                [(1000, 4, 60), (333, 4, 150), (1000, 4, 130), (333, 4, 5), (333, 4, 90)]]
        for run in runs:
            clear_profile_tables()
            want = {(n, k, q, v): reference_log_profile(n, k, q, v) for n, q, k in run for v in (ALL, RESTRICTED)}
            clear_profile_tables()
            for n, q, k in run:
                for v in (ALL, RESTRICTED):
                    assert np.array_equal(nh_log_profile(n, k, q, v), want[n, k, q, v]), (n, k, q, v)
            # the kept tables are the last (n, q)'s, grown over its last stretch of K
            n, q, _ = run[-1]
            stretch = itertools.takewhile(lambda r: r[:2] == (n, q), reversed(run))
            grown = _profile_tables(n, q)
            cold = _ProfileTables(n, q).upto(max(k for *_, k in stretch))
            assert (grown.rows, grown.k) == (cold.rows, cold.k)
            size = _tri(grown.rows)
            assert np.array_equal(grown.P[:size], cold.P[:size])
            assert np.array_equal(grown.weights[:size], cold.weights[:size])
            for h in range(1, min(2 * grown.k, n) + 1):
                cols = grown.k + 2 - (h + 1) // 2
                a, b = grown.starts[h - 1], cold.starts[h - 1]
                assert np.array_equal(grown.S[a : a + cols], cold.S[b : b + cols]), (n, q, h)

    def test_table_growth_reads_no_unwritten_room(self, monkeypatch):
        # the room _grown adds to the triangles is left unwritten; filled
        # with a signaling NaN, any arithmetic that reads it raises, even
        # where the result is cut off afterwards
        def poisoned(flat, size):
            grown = np.full(size, 0x7FF0000000000001, dtype=np.uint64).view(np.float64)
            grown[: flat.size] = flat
            return grown

        want = _ProfileTables(1000, 4).upto(300)
        monkeypatch.setattr(bounds, "_grown", poisoned)
        with np.errstate(invalid="raise"):
            got = _ProfileTables(1000, 4).upto(300)
        size = _tri(want.rows)
        assert got.rows == want.rows
        assert np.array_equal(got.P[:size], want.P[:size])
        assert np.array_equal(got.weights[:size], want.weights[:size])

    @pytest.mark.parametrize("n", [333, 1000])
    @pytest.mark.parametrize("q", [2, 4, 256])
    def test_log_profile_does_not_depend_on_chunk_size(self, monkeypatch, n, q):
        # chunks of one distance, of one full run (K + 1 terms), of three
        # runs and a term, and of every distance at once; the runs of each
        # chunk are indexed from its first weight
        default = bounds._PROFILE_ELEMS
        for k in (1, 2, 166, 167, 297, 298, 333):
            for v in (ALL, RESTRICTED):
                monkeypatch.setattr(bounds, "_PROFILE_ELEMS", default)
                bounds._nh_log_profile_cached.cache_clear()
                want = nh_log_profile(n, k, q, v)
                for elems in (1, k + 1, 3 * (k + 1) + 1, 1 << 16):
                    monkeypatch.setattr(bounds, "_PROFILE_ELEMS", elems)
                    bounds._nh_log_profile_cached.cache_clear()
                    assert np.array_equal(nh_log_profile(n, k, q, v), want), (k, v, elems)
        bounds._nh_log_profile_cached.cache_clear()

    def test_logaddexp_column_sweep_matches_accumulate(self):
        # the kept tables sum their binomial rows one column at a time
        # across the rows (elementwise np.logaddexp), which must give the
        # bits of np.logaddexp.accumulate along each row; a numpy whose two
        # loops round differently fails here.  Inputs: the P terms of
        # q = 2 (all -inf past c = 0), 3, 4, 16 and 256 over 600 rows, and
        # the S terms at n = 1000, K = 500, -inf past the end of each row
        lfact = log_factorials(1000)
        blocks = []
        for q in (2, 3, 4, 16, 256):
            v, c = np.arange(600)[:, None], np.arange(600)
            log_rpow = c * math.log(q - 2) if q > 2 else np.where(c == 0, 0.0, -np.inf)
            blocks.append(bounds._log_binomial(lfact, v, c) + log_rpow)
        h = np.arange(1, 1001)[:, None]
        a = np.arange(501)
        s_terms = bounds._log_binomial(lfact, 1000 - h, a) + a * math.log(3)
        s_terms[a > 1000 - h] = -np.inf
        blocks.append(s_terms)
        assert np.isneginf(blocks[0]).any() and np.isneginf(blocks[-1]).any()
        for terms in blocks:
            want = np.logaddexp.accumulate(terms, axis=1)
            acc = np.full(len(terms), -np.inf)
            swept = np.empty_like(terms)
            for col, out in zip(terms.T, swept.T):
                acc = np.logaddexp(acc, col, out=out)
            assert np.array_equal(swept, want)
            # both routes of the tables' helper, going on from a stored column
            for rows in (len(terms), bounds._SWEEP_ROWS - 1):
                got = terms[:rows, 7:].copy()
                bounds._log_prefix_sums(want[:rows, 6].copy(), got)
                assert np.array_equal(got, want[:rows, 7:]), rows

    @pytest.mark.parametrize(
        "call",
        [
            lambda: nh_count(4, 2, 6, ALL),
            lambda: nh_log_profile(100, 5, 6, ALL),
            lambda: ModelParams(n=10, k=2, m=5, q=6, gamma=0.5),
            # GF(6) and GF(1) do not exist, so no row over them has a law
            lambda: row_zero_prob_sparse(6, 0.3, 2),
            lambda: row_zero_prob_sparse(1, 0.3, 2),
        ],
    )
    def test_non_prime_power_order_rejected(self, call):
        with pytest.raises(UnsupportedOrder):
            call()


class TestUnionBound:
    def test_tiny_instance_saturates_at_one(self):
        val = union_bound(ModelParams(n=2, k=1, m=1, q=2, gamma=0.5), ALL)
        assert math.isclose(val.linear, 1.0, rel_tol=1e-12)
        assert val.capped_linear <= 1.0

    @pytest.mark.parametrize(
        "n,k,q,m",
        [(8, 2, 2, 5), (12, 3, 3, 7), (16, 4, 4, 9), (24, 5, 2, 20), (32, 8, 5, 21), (64, 10, 2, 55)],
    )
    def test_dense_equals_closed_form_exactly(self, n, k, q, m):
        u = union_bound(ModelParams(n=n, k=k, m=m, q=q, gamma=dense_gamma(q)), ALL)
        c = closed_dense_bound(n, k, q, m)
        assert math.isclose(u.log_value, c.log_value, rel_tol=1e-12)

    def test_monotone_in_measurements(self):
        vals = [
            union_bound(ModelParams(n=12, k=3, m=m, q=3, gamma=0.4)).log_value
            for m in range(1, 40)
        ]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < math.log(1e-3)

    def test_monotone_in_sparsity(self):
        vals = [
            union_bound(ModelParams(n=12, k=k, m=6, q=3, gamma=0.4)).log_value
            for k in range(1, 7)
        ]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_zero_sparsity_is_zero_probability(self):
        assert union_bound(ModelParams(n=10, k=0, m=2, q=4, gamma=0.5)).log_value == float("-inf")

    def test_exact_and_log_profile_paths_agree(self):
        # same computation through exact integers and through the
        # log-domain profile used for large n
        params = ModelParams(n=40, k=6, m=18, q=4, gamma=0.3)
        exact = union_bound(params, ALL).log_value
        prof = nh_log_profile(40, 6, 4, ALL)
        hs = np.arange(1, 13, dtype=float)
        p = 1 / 4 + (3 / 4) * (1 - 0.3 / 0.75) ** hs
        log_l = log_of_int(signal_set_size(40, 6, 4).total)
        via_profile = float(logsumexp(prof[1:] + 18 * np.log(p)) - log_l)
        assert math.isclose(exact, via_profile, rel_tol=1e-9)

    @pytest.mark.parametrize("q", [2, 4, 16])
    def test_cached_row_nullity_matches_a_fresh_computation(self, q):
        # the log-domain bound reads its m-free row-nullity vector from a
        # small cache; gamma = 1 at q = 2 makes every odd distance -inf
        for gamma in (0.3, 10 * math.log(1000) / 1000, dense_gamma(q), 1.0):
            for k in (1, 30, 297):
                p_rows = bounds._row_zero_linear(q, gamma, np.arange(1, 2 * k + 1, dtype=float))
                with np.errstate(divide="ignore"):
                    fresh = np.where(p_rows > 0.0, np.log(np.maximum(p_rows, 1e-300)), -np.inf)
                cached = bounds._log_row_nullity(q, gamma, k)
                assert np.array_equal(cached, fresh) and not cached.flags.writeable
                params = ModelParams(n=1000, k=k, m=5 * k, q=q, gamma=gamma)
                log_l = log_of_int(signal_set_size(1000, k, q).total)
                direct = bounds.logsumexp(nh_log_profile(1000, k, q, ALL)[1:] + 5 * k * fresh) - log_l
                assert union_bound(params).log_value == direct
        assert np.isneginf(bounds._log_row_nullity(2, 1.0, 3)[::2]).all()

    def test_row_nullity_cache_stays_bounded(self):
        bounds._log_row_nullity.cache_clear()
        for k in range(1, 41):
            union_bound(ModelParams(n=100, k=k, m=60, q=4, gamma=0.2))
        info = bounds._log_row_nullity.cache_info()
        assert info.misses == 40 and info.currsize == info.maxsize <= 16

    def test_restricted_variant_is_tighter(self):
        pa = union_bound(ModelParams(n=10, k=3, m=4, q=3, gamma=0.5), ALL)
        pr = union_bound(ModelParams(n=10, k=3, m=4, q=3, gamma=0.5), RESTRICTED)
        assert pr.log_value <= pa.log_value


class TestClosedForms:
    def test_smallest_instance(self):
        assert math.isclose(closed_dense_bound(2, 1, 2, 1).linear, 1.0, rel_tol=1e-12)

    def test_large_instance_meets_target(self):
        assert closed_dense_bound(1000, 200, 2, 729).log_value <= math.log(1e-2)

    def test_zero_sparsity(self):
        assert closed_dense_bound(7, 0, 4, 3).log_value == float("-inf")

    def test_entropy_values(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0
        assert abs(binary_entropy(0.2) - 0.721928) < 1e-6

    def test_exponent_zero_sparsity(self):
        assert exponent_bound(10, 0, 2, 3).log_value == float("-inf")

    def test_exponent_dominates_closed_form(self):
        for n in (10, 20, 50, 200, 1000):
            for q in (2, 3, 4, 16):
                for k in range(1, n // 2 + 1, max(1, n // 8)):
                    for m in (1, n // 2, n):
                        e = exponent_bound(n, k, q, m).log_value
                        c = closed_dense_bound(n, k, q, m).log_value
                        assert e >= c - 1e-9, (n, k, q, m)

    def test_exponential_factor_crosses_one_at_threshold(self):
        # the bound without its sparsity prefactor drops below 1 exactly
        # when the measurement count reaches the achievability threshold
        n, k, q = 1000, 200, 2
        m_star = sufficient_m(n, k, q)
        assert m_star == 722
        log_prefactor = math.log(k)
        assert exponent_bound(n, k, q, m_star).log_value - log_prefactor <= 0.0
        assert exponent_bound(n, k, q, m_star - 1).log_value - log_prefactor > 0.0


class TestThresholds:
    def test_sufficient_values(self):
        assert sufficient_m(1000, 200, 2) == 722
        assert sufficient_m(1000, 200, 4) == 520
        assert sufficient_m(1000, 0, 16) == 0

    def test_necessary_values(self):
        assert necessary_m(2, 1, 2) == pytest.approx(0.0, abs=1e-12)
        assert necessary_m(10, 0, 4) == pytest.approx(-1.0, abs=1e-12)
        big = necessary_m(1000, 200, 2)
        assert big < sufficient_m(1000, 200, 2)
        # exact big-integer binomial, not a Stirling estimate
        assert big == pytest.approx(log_of_int(math.comb(1000, 200)) / math.log(2) - 1, rel=1e-12)

    @pytest.mark.parametrize("q", [2, 3, 4, 16, 256])
    def test_necessary_below_sufficient(self, q):
        for n in (10, 40, 160, 640):
            for k in range(1, n // 2 + 1, max(1, n // 10)):
                assert necessary_m(n, k, q) <= sufficient_m(n, k, q), (n, k, q)

    def test_gap_per_symbol_shrinks(self):
        gaps = []
        for n in (100, 300, 1000, 3000):
            k = n // 5
            gaps.append((sufficient_m(n, k, 2) - necessary_m(n, k, 2)) / n)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestFano:
    def test_no_measurements(self):
        assert fano_lower_bound(2, 1, 2, 0) == pytest.approx((math.log2(3) - 1) / math.log2(3), abs=1e-9)

    def test_clamps_to_zero_when_measurements_suffice(self):
        assert fano_lower_bound(6, 2, 4, 30) == 0.0

    def test_vanishes_one_below_entropy(self):
        n, k, q = 6, 2, 2
        log_q_l = log_of_int(signal_set_size(n, k, q).total) / math.log(q)
        m = int(log_q_l - 1)  # numerator ~ 0
        assert fano_lower_bound(n, k, q, m) < 0.15

    def test_degenerate_signal_set(self):
        assert fano_lower_bound(5, 0, 2, 0) == 0.0


class TestInputChecks:
    # GF(1) and GF(6) do not exist, and k must lie in [0, n], as for nh_count
    BAD = [(10, 2, 6), (10, 2, 1), (10, -1, 4), (10, 12, 4)]

    @pytest.mark.parametrize("n,k,q", BAD)
    def test_closed_dense_bound(self, n, k, q):
        with pytest.raises(ValueError):
            closed_dense_bound(n, k, q, 3)

    @pytest.mark.parametrize("n,k,q", BAD)
    def test_exponent_bound(self, n, k, q):
        with pytest.raises(ValueError):
            exponent_bound(n, k, q, 3)

    @pytest.mark.parametrize("n,k,q", BAD)
    def test_fano_lower_bound(self, n, k, q):
        with pytest.raises(ValueError):
            fano_lower_bound(n, k, q, 3)

    @pytest.mark.parametrize("n,k,q", BAD)
    def test_sufficient_m(self, n, k, q):
        with pytest.raises(ValueError):
            sufficient_m(n, k, q)

    @pytest.mark.parametrize("n,k,q", BAD)
    def test_necessary_m(self, n, k, q):
        with pytest.raises(ValueError):
            necessary_m(n, k, q)

    # a float or a bool passes every range check and then rounds, fails or
    # counts as 0 or 1 further on
    @pytest.mark.parametrize(
        "call,name,value",
        [
            (lambda: union_bound(ModelParams(n=10, k=2, m=6.5, q=4, gamma=0.5)), "m", 6.5),
            (lambda: union_bound(ModelParams(n=100.0, k=2, m=6, q=4, gamma=0.5)), "n", 100.0),
            (lambda: fano_lower_bound(10, 2, 4, 2.5), "m", 2.5),
            (lambda: closed_dense_bound(10, 2, 4, 2.5), "m", 2.5),
            (lambda: exponent_bound(10, 2, 4, 2.0), "m", 2.0),
            (lambda: nh_count(6.0, 2, 4, PairVariant.ALL_PAIRS), "n", 6.0),
            (lambda: nh_log_profile(100, 2.0, 4, PairVariant.ALL_PAIRS), "k", 2.0),
            (lambda: sufficient_m(10, True, 4), "k", True),
        ],
        ids=["union-m", "union-n", "fano-m", "closed-m", "exponent-m", "nh-n", "profile-k", "sufficient-k-bool"],
    )
    def test_sizes_and_m_must_be_integers(self, call, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            call()


def test_evaluate_bounds_bundle(capsys):
    # every bound for one tuple, as `ffcs bound` reports them
    assert cli.main(["bound", "--n", "12", "--k", "3", "--m", "6", "--q", "4", "--gamma", "dense"]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["sufficient_M"] == sufficient_m(12, 3, 4)
    assert math.isclose(res["union_bound_log"], closed_dense_bound(12, 3, 4, 6).log_value, rel_tol=1e-12)
    assert res["exponent_log"] >= res["closed_dense_log"]
    assert 0.0 <= res["fano_lower"] <= 1.0
