"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines
appear as criteria complete.  Criterion 7 (288 configs x 10k trials)
takes 7-8 s on a 2-core VM, about 3 us per trial; everything else
finishes in seconds.  Tolerances are pinned here and nowhere else.
"""

import math
from itertools import product

import numpy as np
import pytest

from ffcs import (
    GammaMode,
    ModelParams,
    PairVariant,
    check_axioms,
    closed_dense_bound,
    convolution_oracle,
    curve,
    default_k_grid,
    dense_gamma,
    make_field,
    min_measurements,
    necessary_m,
    nh_count,
    nh_oracle,
    row_zero_prob_sparse,
    run_trials,
    signal_set_size,
    sparse_gamma,
    sufficient_m,
    supported_orders,
    union_bound,
)

ALL = PairVariant.ALL_PAIRS
RESTRICTED = PairVariant.RESTRICTED_PAIRS

MASTER_SEED = 20240901


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {num:2d} ({name}): {status}"
    if detail:
        line += f" | {detail}"
    print(line, flush=True)


def test_criterion_01_dense_threshold_anchors():
    """Minimum measurements at n=1000, k=200, dense matrices, target 1e-2."""
    # Each anchor is the entropy-form threshold
    # (n*Hb(k/n) + k*log2(q-1)) / (n*log2(q)) rounded to two decimals:
    # 0.7219, 0.5195, 0.3758, 0.2901.  For q = 4 the counting converse
    # also applies: log4|L| = 517.03, so error <= 1e-2 needs 4^m >= 0.99|L|,
    # i.e. m >= 518; an anchor with anchor + tol < 0.518 (such as 0.51,
    # which allows only m <= 515) asks for the impossible.
    anchors = {2: 0.72, 4: 0.52, 16: 0.38, 256: 0.29}
    tol = 0.005
    got = {}
    for q, expect in anchors.items():
        res = min_measurements(1000, 200, q, dense_gamma(q), target=1e-2, variant=ALL)
        assert res.achieved
        got[q] = res.m / 1000
    ok = all(abs(got[q] - anchors[q]) <= tol for q in anchors)
    detail = "  ".join(f"q={q}: {got[q]:.3f} (expect {anchors[q]:.2f}±{tol})" for q in anchors)
    _report(1, "dense threshold anchors", ok, detail)
    assert ok, detail


def test_criterion_02_dense_reduction_identity():
    """Sparse row-nullity formula collapses to 1/q at gamma = 1 - 1/q."""
    worst = 0.0
    for q in (2, 3, 4, 5, 8, 16, 256):
        for h in range(1, 65):
            got = row_zero_prob_sparse(q, dense_gamma(q), h).linear
            worst = max(worst, abs(got - 1 / q))
    ok = worst <= 1e-12
    _report(2, "dense reduction identity", ok, f"worst |dev| = {worst:.2e}")
    assert ok


def test_criterion_03_convolution_oracle_equivalence():
    """Closed-form row nullity equals explicit h-fold pmf convolution."""
    worst = 0.0
    for q in (2, 3, 4, 5, 8, 16):
        field = make_field(q)
        for gamma in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            for h in range(1, 13):
                a = row_zero_prob_sparse(q, gamma, h).linear
                b = convolution_oracle(field, gamma, h).linear
                worst = max(worst, abs(a - b))
    ok = worst <= 1e-10
    _report(3, "convolution oracle equivalence", ok, f"worst |dev| = {worst:.2e}")
    assert ok


def test_criterion_04_pair_count_correctness():
    """Analytic pair counts equal the exhaustive oracle; mass identity holds."""
    ok = True
    worst = ""
    for q in (2, 3, 4):
        field = make_field(q)
        for n in range(1, 7):
            for k in range(0, min(n, 3) + 1):
                oracle = nh_oracle(field, n, k)
                for variant in (ALL, RESTRICTED):
                    if nh_count(n, k, q, variant).counts != oracle[variant].counts:
                        ok = False
                        worst = f"mismatch at (n={n}, k={k}, q={q}, {variant.value})"
                total = signal_set_size(n, k, q).total
                if nh_count(n, k, q, ALL).total != (total - 1) * total:
                    ok = False
                    worst = f"mass identity fails at (n={n}, k={k}, q={q})"
    _report(4, "pair count correctness", ok, worst or "all (n<=6, k<=3, q in {2,3,4}) match")
    assert ok, worst


def test_criterion_05_union_bound_dense_consistency():
    """Union bound with all-pairs counts equals (|L|-1) q^-m exactly in log domain."""
    points = []
    for n in (8, 12, 16, 20, 24, 32, 40, 48, 56, 64):
        for q in (2, 3, 4, 5, 16):
            k = max(1, n // 6)
            for extra in (2, 11):
                points.append((n, k, q, sufficient_m(n, k, q) + extra))
    points = points[:100]
    assert len(points) == 100
    worst = 0.0
    for n, k, q, m in points:
        u = union_bound(ModelParams(n=n, k=k, m=m, q=q, gamma=dense_gamma(q)), ALL).log_value
        c = closed_dense_bound(n, k, q, m).log_value
        worst = max(worst, abs(u - c) / abs(c))
    ok = worst <= 1e-12
    _report(5, "union bound dense consistency", ok, f"worst rel dev = {worst:.2e} over {len(points)} points")
    assert ok


def test_criterion_06_threshold_ordering_and_convergence():
    """Converse threshold below achievability threshold; gap per symbol shrinks."""
    ok = True
    detail = ""
    for q in (2, 3, 4, 16, 256):
        for n in (10, 20, 50, 100, 300, 1000, 3000):
            for frac in (0.05, 0.1, 0.2, 0.35, 0.5):
                k = max(1, round(frac * n))
                if 2 * k > n:
                    continue
                if necessary_m(n, k, q) > sufficient_m(n, k, q):
                    ok = False
                    detail = f"ordering violated at (n={n}, k={k}, q={q})"
    gaps = []
    for n in (100, 300, 1000, 3000):
        k = n // 5
        gaps.append((sufficient_m(n, k, 2) - necessary_m(n, k, 2)) / n)
    if not all(a > b for a, b in zip(gaps, gaps[1:])):
        ok = False
        detail = f"gap/n not decreasing: {gaps}"
    _report(6, "threshold ordering and convergence", ok,
            detail or "gap/n at k/n=0.2, q=2: " + ", ".join(f"{g:.5f}" for g in gaps))
    assert ok, detail


def test_criterion_07_monte_carlo_sandwich():
    """Empirical rates sit between the converse and union bounds (95% CIs)."""
    eps = 1e-12
    failures = []
    n_configs = 0
    inclusion_bad = 0
    for n, k, q, dense in product((6, 8, 10), (1, 2), (2, 3, 4), (True, False)):
        gamma = dense_gamma(q) if dense else 0.3
        for m in range(1, n + 1):
            n_configs += 1
            params = ModelParams(n=n, k=k, m=m, q=q, gamma=gamma)
            rep = run_trials(params, 10_000, seed=MASTER_SEED + n_configs)
            inclusion_bad += rep.inclusion_violations
            if rep.e0_errors > rep.e_errors:
                failures.append(f"count inclusion at {params}")
            if rep.e_ci_low > rep.union_bound_value + eps:
                failures.append(
                    f"union violated at {params}: ci_low={rep.e_ci_low:.5f} > bound={rep.union_bound_value:.5f}"
                )
            if rep.e0_ci_high < rep.fano_value - eps:
                failures.append(
                    f"fano violated at {params}: ci_high={rep.e0_ci_high:.5f} < bound={rep.fano_value:.5f}"
                )
    ok = not failures and inclusion_bad == 0
    detail = f"{n_configs} configs x 10k trials, inclusion violations: {inclusion_bad}"
    if failures:
        detail += " | " + "; ".join(failures[:3])
    _report(7, "Monte Carlo sandwich", ok, detail)
    assert ok, detail


def test_criterion_08_sparse_matches_dense_except_ultra_sparse():
    """c=10 sparse curve tracks the dense curve except at tiny sparsity."""
    n, q, target = 1000, 4, 1e-2
    grid = default_k_grid(n)
    dense_pts = {p.k: p for p in curve(n, q, GammaMode.dense(), grid, target, ALL)}
    sparse_pts = {p.k: p for p in curve(n, q, GammaMode.sparse(10), grid, target, ALL)}
    assert abs(sparse_gamma(10, n) - 0.069) < 1e-3
    problems = []
    for k in grid:
        diff = sparse_pts[k].compression_ratio - dense_pts[k].compression_ratio
        if k / n >= 0.1 and abs(diff) > 0.02:
            problems.append(f"k/n={k / n:.2f}: |diff|={abs(diff):.4f} > 0.02")
    excesses = {}
    for ratio in (0.01, 0.02):
        k = round(ratio * n)
        excesses[ratio] = sparse_pts[k].m - dense_pts[k].m
        if excesses[ratio] <= 0:
            problems.append(f"k/n={ratio}: no excess (sparse m - dense m = {excesses[ratio]})")
    # At k/n = 0.05 the sparse penalty is real but smaller than one
    # measurement step (a factor q in the bound), so the integer thresholds
    # may coincide.  Check it on the bound itself, at the dense threshold m.
    k = round(0.05 * n)
    m = dense_pts[k].m
    log_dense = union_bound(ModelParams(n, k, m, q, dense_gamma(q)), ALL).log_value
    log_sparse = union_bound(ModelParams(n, k, m, q, sparse_gamma(10, n)), ALL).log_value
    penalty = log_sparse - log_dense
    if not 0.0 < penalty < math.log(q):
        problems.append(
            f"k/n=0.05: log penalty {penalty:.4f} at m={m} outside (0, log q={math.log(q):.4f})"
        )
    ok = not problems
    detail = "ultra-sparse excess in m: " + ", ".join(
        f"{r}: {e:+d}" for r, e in excesses.items()
    )
    detail += f", 0.05: bound ratio {math.exp(penalty):.3f} at m={m}"
    if problems:
        detail += " | " + "; ".join(problems[:4])
    _report(8, "sparse matches dense outside ultra-sparse band", ok, detail)
    assert ok, detail


def test_criterion_09_sparser_matrices_need_more_measurements():
    """In the ultra-sparse band, required m is non-increasing in c toward dense."""
    n, q, target = 1000, 4, 1e-2
    ok = True
    detail = ""
    rows = []
    for k in range(10, 100, 10):
        ms = [
            min_measurements(n, k, q, sparse_gamma(c, n), target=target, variant=ALL).m
            for c in (1, 2, 5, 10, 20)
        ]
        m_dense = min_measurements(n, k, q, dense_gamma(q), target=target, variant=ALL).m
        chain = ms + [m_dense]
        rows.append(f"k={k}: {chain}")
        if any(a < b for a, b in zip(chain, chain[1:])):
            ok = False
            detail = f"not monotone at k={k}: {chain}"
    _report(9, "measurement count monotone in sparse factor", ok, detail or rows[0])
    assert ok, detail


def test_criterion_10_field_axioms_all_supported_orders():
    """Exhaustive field axioms (incl. nonzero-scaling permutation) for q <= 256."""
    orders = supported_orders()
    for q in orders:
        check_axioms(make_field(q))
    _report(10, "field axioms", True, f"{len(orders)} orders: q = 2 .. 256")
