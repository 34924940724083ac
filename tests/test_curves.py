import functools
import itertools
import math
from fractions import Fraction

import pytest

import ffcs.bounds
import ffcs.curves
from ffcs import (
    GammaMode,
    ModelParams,
    PairVariant,
    UnsupportedOrder,
    curve,
    default_k_grid,
    dense_gamma,
    min_measurements,
    nh_count,
    signal_set_size,
    sparse_gamma,
    union_bound,
)
from ffcs.curves import _search_ceiling
from ffcs.util import log_of_int


def union_bound_threshold(n, k, q, gamma, target, variant):
    """Smallest m with log union_bound <= log target, by bisection over the
    log-domain bound; None if the search ceiling misses the target."""
    log_target = math.log(target)

    def meets(m):
        return union_bound(ModelParams(n=n, k=k, m=m, q=q, gamma=gamma), variant).log_value <= log_target

    lo, hi = 1, _search_ceiling(n, q)
    if not meets(hi):
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if meets(mid) else (mid + 1, hi)
    return lo


SEARCH_ORDERS = (2, 3, 4, 5, 7, 8, 9, 16)
SEARCH_TARGETS = (0.5, 0.25, 0.125, 0.1, 1e-2, 1e-3, 2**-10, 0.3)


def rational_union_bound(n, k, q, gamma, variant):
    """m -> the union bound (1/|L|) sum_h N_h p_h^m in exact rationals, for
    gamma a Fraction, as an unreduced (numerator, denominator) pair.

    With gamma = G/E, u = (q - 1) E and v = u - q G, the row nullity
    1/q + (1 - 1/q) (1 - gamma / (1 - 1/q))^h is (u^h + (q - 1) v^h) /
    (q u^h), so every term shares the denominator q u^H, H the largest
    distance, and the sum needs no gcd of its 10^5-bit integers.
    """
    u = (q - 1) * gamma.denominator
    v = u - q * gamma.numerator
    counts = nh_count(n, k, q, variant)
    top = max(counts)
    terms = [(nh, (u**h + (q - 1) * v**h) * u ** (top - h)) for h, nh in counts.items()]
    size = signal_set_size(n, k, q).total

    @functools.cache
    def at(m):
        return sum(nh * x**m for nh, x in terms), size * (q * u**top) ** m

    return at


def closed_form_threshold(n, k, q, target):
    """Smallest m with (|L| - 1) q^-m <= target, straight from big integers."""
    total = signal_set_size(n, k, q).total
    if total <= 1:
        return 1
    rhs = (log_of_int(total - 1) - math.log(target)) / math.log(q)
    m = math.ceil(rhs)
    if log_of_int(total - 1) - m * math.log(q) > math.log(target):  # ceil landed on the edge
        m += 1
    return max(1, m)


class TestGammaMode:
    def test_parse_dense(self):
        mode = GammaMode.parse("dense")
        assert mode.resolve(4, 1000) == 0.75
        assert mode.label == "dense"

    def test_parse_sparse(self):
        mode = GammaMode.parse("c=10")
        assert abs(mode.resolve(4, 1000) - 0.069) < 1e-3
        assert mode.label == "c=10"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            GammaMode.parse("sparse-ish")
        with pytest.raises(ValueError):
            GammaMode.sparse(-1)
        with pytest.raises(ValueError, match="unknown gamma mode 'bogus'"):
            GammaMode("bogus")


class TestMinMeasurements:
    def test_zero_sparsity_needs_one_measurement(self):
        res = min_measurements(50, 0, 4, dense_gamma(4))
        assert res == (1, True)

    @pytest.mark.parametrize("n,k,q", [(30, 4, 2), (40, 6, 3), (60, 10, 4)])
    def test_bracketing_at_the_threshold(self, n, k, q):
        gamma = dense_gamma(q)
        target = 1e-2
        res = min_measurements(n, k, q, gamma, target=target)
        assert res.achieved
        at = union_bound(ModelParams(n=n, k=k, m=res.m, q=q, gamma=gamma)).log_value
        assert at <= math.log(target)
        if res.m > 1:
            before = union_bound(ModelParams(n=n, k=k, m=res.m - 1, q=q, gamma=gamma)).log_value
            assert before > math.log(target)

    @pytest.mark.parametrize("n,k,q", [(30, 4, 2), (40, 6, 3), (64, 8, 4), (100, 20, 2)])
    def test_dense_matches_exact_closed_form_threshold(self, n, k, q):
        res = min_measurements(n, k, q, dense_gamma(q), target=1e-2)
        assert res.m == closed_form_threshold(n, k, q, 1e-2)

    def test_unreachable_target_is_flagged(self):
        # at gamma = 1e-3 the search ceiling, 84 at n = 20, q = 2, misses 1e-2
        res = min_measurements(20, 4, 2, 1e-3)
        assert res.achieved is False
        assert res.m == _search_ceiling(20, 2) == 84

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            min_measurements(10, 2, 2, 0.5, target=0.0)

    def test_rejects_a_float_k(self):
        with pytest.raises(ValueError, match="^k must be an integer, got 2.5$"):
            min_measurements(100, 2.5, 4, 0.3)

    @pytest.mark.parametrize("variant", list(PairVariant))
    @pytest.mark.parametrize("q,ks", [(2, [10, 250, 500]), (4, [20, 200, 500]), (16, [10, 300, 500]), (256, [50, 120, 500])])
    def test_exact_dense_route_matches_union_bound_search_at_n_1000(self, q, ks, variant):
        # the integer comparison against an independent search over the
        # log-domain profile; a mismatch would be a rounding defect there
        for k in ks:
            got = min_measurements(1000, k, q, dense_gamma(q), variant=variant)
            assert got == (union_bound_threshold(1000, k, q, dense_gamma(q), 1e-2, variant), True), k

    @pytest.mark.parametrize("variant", list(PairVariant))
    def test_exact_dense_route_meets_ties_with_the_target(self, variant):
        # the smallest m with pairs / |L| * q^-m <= target in exact rationals,
        # the ordered pairs (x, x' != x) counted from the level sizes
        # C(n, w) (q - 1)^w; dyadic targets meet the bound exactly at some
        # points, e.g. n = 4, k = 1, q = 2, where (|L| - 1) 2^-3 = 0.5
        for q in SEARCH_ORDERS:
            for n in range(1, 31):
                for k in range(n + 1):
                    level = [math.comb(n, w) * (q - 1) ** w for w in range(k + 1)]
                    size = sum(level)
                    if variant is PairVariant.ALL_PAIRS:
                        pairs = size * size - size
                    else:
                        pairs = sum(a * b for w, a in enumerate(level) for b in level[: w + 1]) - size
                    for target in SEARCH_TARGETS:
                        t, want = Fraction(target), 1
                        while pairs * t.denominator > t.numerator * size * q**want:
                            want += 1
                        got = min_measurements(n, k, q, dense_gamma(q), target=target, variant=variant)
                        assert got == (want, True), (n, k, q, target)

    def test_each_predicate_is_monotone_and_brackets_the_rational_bound(self, monkeypatch):
        # both predicates, captured from the search, are monotone on
        # 1..ceiling, and M brackets the union bound in exact rationals.
        # c = 5 puts gamma above 1 at every n <= 12 (5 ln 12 / 12 = 1.035),
        # so 0.95, above every dense point up to q = 16, stands in for it.
        # The grid is trimmed to about 5 s: n = 4 and 8 at every order,
        # 7,680 points; n = 12 would add about 1.5 s per order.
        predicates = []
        search = ffcs.curves._smallest_m
        monkeypatch.setattr(ffcs.curves, "_smallest_m", lambda meets, hi: predicates.append(meets) or search(meets, hi))
        # union_bound is pure; the memo spares each target's predicate
        # recomputing the bounds another target's scan already took
        monkeypatch.setattr(ffcs.curves, "union_bound", functools.cache(union_bound))
        for n, q in itertools.product((4, 8), SEARCH_ORDERS):
            for k, variant in itertools.product(range(1, n + 1), PairVariant):
                hi = _search_ceiling(n, q)
                for gamma in (0.05, 0.3, sparse_gamma(1, n), 0.95, dense_gamma(q)):
                    exact_gamma = Fraction(q - 1, q) if gamma == dense_gamma(q) else Fraction(gamma)
                    bound = rational_union_bound(n, k, q, exact_gamma, variant)
                    for target in SEARCH_TARGETS:
                        t = Fraction(target)

                        def above(m):
                            num, den = bound(m)
                            return num * t.denominator > t.numerator * den

                        got = min_measurements(n, k, q, gamma, target=target, variant=variant)
                        meets = predicates.pop()
                        flags = [meets(m) for m in range(1, hi + 1)]
                        point = (n, k, q, gamma, target, variant)
                        assert flags == sorted(flags), point
                        assert got.m == (flags.index(True) + 1 if got.achieved else hi), point
                        assert above(got.m) != got.achieved, point
                        assert not got.achieved or got.m == 1 or above(got.m - 1), point

    def test_sparse_thresholds_keep_clear_of_float_ties_at_n_1000(self):
        # Every point of the default sparse grids.  The float search can
        # be off by one only where a log bound it compares lies within the
        # log-domain path's rounding error of log(target); the exact bound
        # is monotone, so probes below M - 1 or above M lie farther out.
        # Each float operation rounds by at most 2^-53 of its result.  At
        # n = 1000 the P and S prefix rows are chains of at most 2K <= 1000
        # logaddexp steps on values below 1000 log 256 = 5545, each off by
        # at most 2 * 2^-53 of its value: 1000 * 2^-52 * 5545 = 1.2e-9.
        # log j! (lgamma, a few ulp) reaches log 1000! = 5912, and the
        # final logsumexp takes terms |log N_h| + m |log p_h| <= 6918 +
        # 12586 (largest on this grid) less log |L| <= 3461: a few roundings
        # of 2e4 each, about 1e-11 in all.  So the log bound is within
        # 1.3e-9 of its exact value, and a margin above band = 1e-8 leaves
        # M as the exact bound would place it.  The smallest margin
        # measured is 4.7e-5 (q = 4, c = 1, K = 220, at M - 1); the 50
        # unachieved points (q = 2, c = 1) clear it by 0.51.
        # q outside and c inside: the profiles do not depend on gamma, so
        # each q's profiles are built once for all three c.
        band, n, log_target = 1e-8, 1000, math.log(1e-2)
        for q, c in itertools.product((2, 4, 16, 256), (1, 5, 10)):
            gamma = sparse_gamma(c, n)
            for k in default_k_grid(n):
                got = min_measurements(n, k, q, gamma)
                for m in (got.m, got.m - 1) if got.achieved else (got.m,):
                    log_bound = union_bound(ModelParams(n=n, k=k, m=m, q=q, gamma=gamma)).log_value
                    assert abs(log_bound - log_target) > band, (c, q, k, m)


    def test_exact_dense_route_builds_no_profile(self, monkeypatch):
        def refuse(*_a, **_kw):
            raise AssertionError("the dense route evaluated a union bound")

        monkeypatch.setattr(ffcs.curves, "union_bound", refuse)
        monkeypatch.setattr(ffcs.bounds, "nh_log_profile", refuse)
        for variant in PairVariant:
            assert min_measurements(1000, 10, 4, dense_gamma(4), variant=variant).achieved

    def test_union_bound_keeps_the_profile_at_dense_gamma(self, monkeypatch):
        calls = []
        real = ffcs.bounds.nh_log_profile
        monkeypatch.setattr(ffcs.bounds, "nh_log_profile", lambda *a: calls.append(a) or real(*a))
        union_bound(ModelParams(n=1000, k=10, m=50, q=4, gamma=dense_gamma(4)))
        assert calls == [(1000, 10, 4, PairVariant.ALL_PAIRS)]

    @pytest.mark.parametrize(
        "n,k,q,error",
        [(50, 3, 6, UnsupportedOrder), (4, 5, 2, ValueError), (0, 0, 2, ValueError)],
    )
    def test_dense_route_validates_like_the_profile_route(self, n, k, q, error):
        with pytest.raises(error):
            min_measurements(n, k, q, 1.0 - 1.0 / q)


class TestCurve:
    def test_default_grid_shape(self):
        grid = default_k_grid(1000)
        assert grid[0] == 10 and grid[-1] == 500
        assert len(grid) == 50
        assert grid == sorted(grid)

    def test_small_n_grid_deduplicates(self):
        grid = default_k_grid(20)
        assert grid == sorted(set(grid))
        assert all(k >= 1 for k in grid)

    def test_points_monotone_in_sparsity(self):
        pts = curve(60, 2, GammaMode.dense(), k_grid=[3, 6, 12, 18, 24, 30])
        ms = [p.m for p in pts]
        assert ms == sorted(ms)
        assert all(p.achieved for p in pts)

    def test_every_emitted_point_brackets_the_target(self):
        # bound(m) <= target < bound(m - 1) must hold at each curve point
        target = 1e-2
        for mode in (GammaMode.dense(), GammaMode.sparse(3)):
            pts = curve(60, 3, mode, k_grid=[2, 5, 9, 14, 20], target=target)
            gamma = mode.resolve(3, 60)
            for p in pts:
                at = union_bound(ModelParams(n=60, k=p.k, m=p.m, q=3, gamma=gamma)).log_value
                assert at <= math.log(target)
                if p.m > 1:
                    before = union_bound(
                        ModelParams(n=60, k=p.k, m=p.m - 1, q=3, gamma=gamma)
                    ).log_value
                    assert before > math.log(target)

    def test_point_metadata(self):
        pts = curve(40, 4, GammaMode.sparse(5), k_grid=[4, 8], target=1e-2)
        assert [p.k for p in pts] == [4, 8]
        for p in pts:
            assert p.q == 4
            assert p.gamma_mode == "c=5"
            assert p.sparsity_ratio == p.k / 40
            assert p.compression_ratio == p.m / 40
            assert p.variant is PairVariant.ALL_PAIRS

    def test_sparse_needs_at_least_dense_measurements(self):
        kgrid = [2, 4, 8]
        dense_pts = curve(60, 4, GammaMode.dense(), k_grid=kgrid)
        sparse_pts = curve(60, 4, GammaMode.sparse(1), k_grid=kgrid)
        for d, s in zip(dense_pts, sparse_pts):
            assert s.m >= d.m
