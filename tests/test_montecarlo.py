import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from ffcs import (
    EnumerationCapExceeded,
    ModelParams,
    UnsupportedOrder,
    candidate_matrix,
    dense_gamma,
    error_events,
    convolution_oracle,
    fano_lower_bound,
    make_field,
    matvec,
    row_zero_prob_sparse,
    run_trials,
    sample_trials,
)
from ffcs import model, montecarlo
from ffcs.model import level_starts, measure_candidates, signal_set_size, unpack_measurements
from ffcs.montecarlo import _PCG64Lanes, _SeedWords, _child_seed_words, _error_flags, _sample_trials
from ffcs.montecarlo import _halves, _pcg_step, _raw_take
from ffcs.util import wilson_interval


class TestReproducibility:
    def test_same_seed_same_counts(self):
        params = ModelParams(n=6, k=2, m=3, q=2, gamma=0.5)
        r1 = run_trials(params, 500, seed=11)
        r2 = run_trials(params, 500, seed=11)
        assert r1.errors == r2.errors

    def test_different_seed_differs(self):
        params = ModelParams(n=6, k=2, m=3, q=2, gamma=0.5)
        r1 = run_trials(params, 500, seed=1)
        r2 = run_trials(params, 500, seed=2)
        assert r1.errors != r2.errors


# (e0_errors, e_errors, inclusion_violations) of 2,000 trials at seed 7,
# recorded before the row-at-a-time flag kernel replaced the
# (trials, m, |L|) comparison; the report's one count fills the first two
GOLDEN_COUNTS = [
    ((10, 2, 6, 2, "dense"), (1006, 1006, 0)),
    ((10, 2, 6, 2, 0.3), (1269, 1269, 0)),
    ((10, 2, 6, 3, "dense"), (368, 368, 0)),
    ((10, 2, 6, 3, 0.3), (1032, 1032, 0)),
    ((10, 2, 6, 4, "dense"), (166, 166, 0)),
    ((10, 2, 6, 4, 0.3), (949, 949, 0)),
    ((10, 2, 6, 5, "dense"), (75, 75, 0)),
    ((10, 2, 6, 5, 0.3), (943, 943, 0)),
    ((10, 2, 6, 16, "dense"), (0, 0, 0)),
    ((10, 2, 6, 16, 0.3), (913, 913, 0)),
    ((10, 0, 6, 3, 0.3), (0, 0, 0)),
    ((1, 1, 1, 4, 0.3), (1021, 1021, 0)),
]


@pytest.mark.parametrize("config,counts", GOLDEN_COUNTS)
def test_golden_counts(config, counts):
    n, k, m, q, gamma = config
    gamma = dense_gamma(q) if gamma == "dense" else gamma
    rep = run_trials(ModelParams(n=n, k=k, m=m, q=q, gamma=gamma), 2000, seed=7)
    assert (rep.errors, rep.errors, 0) == counts


@pytest.mark.parametrize("q", [2, 3, 4])
def test_levels_are_contiguous_and_nonempty(q):
    # _error_flags reads each signal's level and rank in it from
    # level_starts; every level 0..k must be a nonempty run of rows of
    # candidate_matrix, in order, starting where level_starts says
    for n in range(1, 9):
        for k in range(n + 1):
            _, weights = candidate_matrix(n, k, q)
            assert np.all(np.diff(weights) >= 0)
            per_level = np.bincount(weights, minlength=k + 1)
            assert per_level.tolist() == list(signal_set_size(n, k, q).per_sparsity)
            assert per_level.min() > 0
            starts = level_starts(n, k, q)
            assert starts.tolist() == [0] + np.cumsum(per_level)[:-1].tolist()
            assert weights[starts].tolist() == list(range(k + 1))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_flag_blocks_sweep_each_level_in_one_chunk(monkeypatch, q):
    # a full block at n = 10, k = 2, m = 6 keeps t m |L| <= 2^20, so its
    # level 2 sweep fits in one chunk of model._CHUNK_WORDS words, and
    # levels 0 and 1 are one mask each, read off the targets and goals
    params = ModelParams(n=10, k=2, m=6, q=q, gamma=dense_gamma(q))
    n_cand = signal_set_size(params.n, params.k, q).total
    _, mats, idx = next(montecarlo._trial_blocks(params, 10**6, 0, n_cand))
    assert len(mats) == montecarlo._BLOCK_ELEMS // (params.m * max(n_cand, q * params.n))
    # spy on the sweep's private chunks, the masks of levels 0 and 1, and
    # on the hits the scan yields from them
    levels, chunks, base = model._ColumnTable.levels, model._ColumnTable._chunks, model._ColumnTable._base
    spied, yielded = [], []

    def spied_chunks(self, goal, targets, w):
        spied.append(list(chunks(self, goal, targets, w)))
        yield from spied[-1]

    def spied_base(self, goal, targets, w):
        spied.append([(0, base(self, goal, targets, w))])
        return spied[-1][0][1]

    def spied_levels(self, k_max, targets):
        for w, hits in levels(self, k_max, targets):
            yielded.append(hits)
            yield w, hits

    monkeypatch.setattr(model._ColumnTable, "_chunks", spied_chunks)
    monkeypatch.setattr(model._ColumnTable, "_base", spied_base)
    monkeypatch.setattr(model._ColumnTable, "levels", spied_levels)
    _error_flags(make_field(q), mats, idx, level_starts(params.n, params.k, q))
    assert [len(level) for level in spied] == [1, 1, 1]
    for level, hits in zip(spied, yielded, strict=True):
        ((start, mask),) = level
        assert start == 0 and mask.shape[1] == len(mats)
        assert np.array_equal(hits, np.flatnonzero(mask))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_benchmark_simulate_blocks_take_the_sweep(q):
    # n = 10, k = 2, m = 6 at 10,000 and 100,000 trials: every block,
    # the last one too, holds many trials, and the join serves only
    # blocks of one
    params = ModelParams(n=10, k=2, m=6, q=q, gamma=dense_gamma(q))
    n_cand = signal_set_size(params.n, params.k, q).total
    _, mats, _ = next(montecarlo._trial_blocks(params, 10**6, 0, n_cand))
    block = len(mats)
    for trials in (10_000, 100_000):
        for t in {block, trials % block} - {0}:
            assert t > 1
            assert not any(model._joins(params.n, w, q, t) for w in range(params.k + 1))


@pytest.mark.parametrize(
    "m,gamma,error",
    [(10, dense_gamma(4), True), (15, dense_gamma(4), False), (15, 0.069, True), (60, 0.069, False)],
)
def test_one_trial_blocks_flag_alike_on_both_routes(monkeypatch, m, gamma, error):
    # n = 1000, k = 2 over GF(4): |L| = 4.5e6, so a block holds one
    # trial and its level 2 takes the join; the sweep, forced, gives the
    # same flags and measurements, trial by trial.  Dense, 4^10 words
    # hold 4.5e6 members and every trial errs, 4^15 almost none; at
    # gamma = 0.069 (c = 10) zero and repeated columns make every trial
    # err at m = 15, and none of these three at m = 60, whose
    # measurements span two words
    params = ModelParams(n=1000, k=2, m=m, q=4, gamma=gamma)
    field = make_field(4)
    n_cand = signal_set_size(params.n, params.k, 4).total
    offsets = level_starts(params.n, params.k, 4)
    assert model._joins(params.n, 2, 4, 1)
    flagged = []
    for _, mats, idx in montecarlo._trial_blocks(params, 3, 11, n_cand):
        assert len(mats) == 1
        joined = _error_flags(field, mats, idx, offsets)
        with monkeypatch.context() as patch:
            patch.setattr(model, "_joins", lambda n, w, q, b: False)
            swept = _error_flags(field, mats, idx, offsets)
        for a, b in zip(joined, swept, strict=True):
            assert np.array_equal(a, b)
        flagged.append(bool(joined[0][0]))
    assert flagged == [error] * 3


def test_run_trials_memory_stays_below_the_candidate_matrix():
    # the flags need each signal's rank only, so run_trials holds no
    # (|L|, n) int16 matrix of L: 16.2 MiB at n = 20, k = 4, q = 4
    n, k, q = 20, 4, 4
    matrix_bytes = signal_set_size(n, k, q).total * n * 2
    tracemalloc.start()
    try:
        run_trials(ModelParams(n=n, k=k, m=4, q=q, gamma=dense_gamma(q)), 3, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < matrix_bytes, (peak, matrix_bytes)


def test_sample_trials_and_on_block_memory_stay_below_the_candidate_matrix():
    # both hand out signals, which candidate_matrix unranks from the drawn
    # ranks alone: no (|L|, n) int16 matrix of L, 16.2 MiB at n = 20,
    # k = 4, q = 4
    n, k, q = 20, 4, 4
    params = ModelParams(n=n, k=k, m=4, q=q, gamma=dense_gamma(q))
    matrix_bytes = signal_set_size(n, k, q).total * n * 2
    for draw in (
        lambda: sample_trials(params, 3, seed=0),
        lambda: run_trials(params, 3, seed=0, on_block=lambda *block: None),
    ):
        tracemalloc.start()
        try:
            draw()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < matrix_bytes, (peak, matrix_bytes)


def test_each_on_block_unranks_just_its_blocks_ranks(monkeypatch):
    # |L| = 436 and m = 6: blocks of 400 trials
    params = ModelParams(n=10, k=2, m=6, q=4, gamma=0.6)
    _, idx = _sample_trials(params, 1000, 11, signal_set_size(10, 2, 4).total)
    asked, blocks = [], []

    def spy(n, k_max, q, ranks=None):
        asked.append(None if ranks is None else np.array(ranks))
        return candidate_matrix(n, k_max, q, ranks)

    monkeypatch.setattr(montecarlo, "candidate_matrix", spy)
    record = lambda start, mats, *_: blocks.append((start, len(mats), len(asked)))
    run_trials(params, 1000, seed=11, on_block=record)
    assert [start for start, _, _ in blocks] == [0, 400, 800]
    assert [calls for _, _, calls in blocks] == [1, 2, 3]
    for (start, t, _), ranks in zip(blocks, asked, strict=True):
        assert ranks is not None and np.array_equal(ranks, idx[start : start + t])


def test_run_trials_builds_the_candidate_matrix_only_for_on_block(monkeypatch):
    params = ModelParams(n=6, k=2, m=3, q=3, gamma=0.5)
    blocks = []
    with_block = run_trials(params, 200, seed=4, on_block=lambda *block: blocks.append(block))
    assert blocks

    def refuse(*args):
        raise AssertionError("candidate_matrix or unpack_measurements called without on_block")

    # y is unpacked only for on_block too
    monkeypatch.setattr(montecarlo, "candidate_matrix", refuse)
    monkeypatch.setattr(montecarlo, "unpack_measurements", refuse)
    plain = run_trials(params, 200, seed=4)
    assert plain.errors == with_block.errors


def test_a_kernel_that_misses_a_trials_signal_raises(kernel_misses_first_trial):
    # trial 0 of the one block of 500 has no hit at all, so its own
    # signal, feasible by construction, went unseen; a count taken over
    # it (the first feasible level past the signal's) would be wrong
    params = ModelParams(n=10, k=2, m=6, q=3, gamma=0.5)
    with pytest.raises(RuntimeError, match=r"^the level kernel missed the signal of trial 0 of its block$"):
        run_trials(params, 500, seed=0)
    mats, idx = _sample_trials(params, 5, 0, signal_set_size(10, 2, 3).total)
    with pytest.raises(RuntimeError, match="trial 0 of its block"):
        _error_flags(make_field(3), mats, idx, level_starts(10, 2, 3))


class TestFlagCorrectness:
    @pytest.mark.parametrize("q,gamma", [(2, 0.5), (3, 0.4), (4, 0.75)])
    def test_batch_flags_match_reference_events(self, q, gamma):
        # replay each trial's substream and re-evaluate through the
        # exhaustive decoder route
        params = ModelParams(n=5, k=2, m=3, q=q, gamma=gamma)
        trials, seed = 60, 123
        report = run_trials(params, trials, seed)
        field = make_field(q)
        cands, _ = candidate_matrix(params.n, params.k, params.q)
        mats, idx = _sample_trials(params, trials, seed, cands.shape[0])
        e0 = e = 0
        for i in range(trials):
            ev = error_events(field, mats[i], cands[idx[i]], k_max=params.k)
            e0 += ev.e0_error
            e += ev.e_error
        assert report.errors == e0
        assert report.errors == e

    @pytest.mark.parametrize(
        "q,n,k,m,gamma", [(13, 4, 2, 3, 0.5), (251, 4, 1, 8, 0.15)]
    )
    def test_block_flags_match_reference_events_trial_by_trial(self, q, n, k, m, gamma):
        # 5-bit lanes at q = 13 fit one word; eight 9-bit lanes at q = 251
        # take two, so a candidate is feasible only where both match.  A
        # sparse q = 251 matrix often has a zero column, so errors occur.
        # e is also checked by plain measure_candidates over all of L
        params = ModelParams(n=n, k=k, m=m, q=q, gamma=gamma)
        trials, seed = 60, 321
        field = make_field(q)
        cands, weights = candidate_matrix(n, k, q)
        mats, idx = _sample_trials(params, trials, seed, cands.shape[0])
        flags, words = _error_flags(field, mats, idx, level_starts(n, k, q))
        y = unpack_measurements(field, words, m)
        for i in range(trials):
            ev = error_events(field, mats[i], cands[idx[i]], k_max=k)
            assert (flags[i], flags[i]) == (ev.e0_error, ev.e_error), i
            meas = measure_candidates(field, mats[i], cands)  # (m, |L|)
            confusable = (meas == meas[:, [idx[i]]]).all(axis=0) & (weights <= weights[idx[i]])
            assert flags[i] == (confusable.sum() > 1), i  # x itself is one
            assert np.array_equal(y[i], matvec(field, mats[i], cands[idx[i]])), i
        assert 0 < flags.sum() < trials
        report = run_trials(params, trials, seed)
        assert report.errors == flags.sum()

    def test_inclusion_and_counts(self):
        params = ModelParams(n=8, k=2, m=4, q=2, gamma=0.5)
        rep = run_trials(params, 2000, seed=3)
        assert 0 <= rep.errors <= rep.trials
        assert rep.rate == rep.errors / rep.trials
        assert rep.ci_low <= rep.rate <= rep.ci_high

    def test_zero_error_run_reports_one_sided_interval(self):
        # square dense system at tiny sparsity: errors essentially never
        params = ModelParams(n=6, k=1, m=12, q=4, gamma=dense_gamma(4))
        rep = run_trials(params, 300, seed=5)
        assert rep.errors == 0
        assert rep.ci_low == 0.0
        assert rep.ci_high > 0.0


class TestSandwich:
    def test_rate_below_union_bound(self):
        params = ModelParams(n=8, k=2, m=8, q=2, gamma=0.5)
        rep = run_trials(params, 10_000, seed=7)
        assert rep.ci_low <= rep.union_bound_value

    def test_rate_above_fano_bound(self):
        params = ModelParams(n=6, k=2, m=1, q=2, gamma=0.5)
        rep = run_trials(params, 10_000, seed=7)
        assert rep.ci_high >= rep.fano_value
        assert rep.fano_value == fano_lower_bound(6, 2, 2, 1)

    def test_report_carries_analytic_references(self):
        params = ModelParams(n=6, k=1, m=2, q=3, gamma=0.4)
        rep = run_trials(params, 100, seed=0)
        assert rep.union_bound_value <= 1.0
        assert math.isfinite(rep.union_bound_log) or rep.union_bound_log == float("-inf")
        assert 0.0 <= rep.fano_value <= 1.0

    def test_report_holds_the_one_error_event_once(self):
        # the simulate JSON's e0 and e keys are both written from these four
        fields = [f.name for f in dataclasses.fields(montecarlo.TrialReport)]
        assert fields == ["params", "trials", "errors", "rate", "ci_low", "ci_high",
                          "union_bound_log", "union_bound_value", "fano_value", "seed"]
        rep = run_trials(ModelParams(n=8, k=2, m=4, q=3, gamma=0.5), 500, seed=2)
        assert (rep.ci_low, rep.ci_high) == wilson_interval(rep.errors, 500)


def nullity_check(q, n, m, gamma, h, trials, seed):
    """Annihilations of two weight-h vectors, ones on 0..h-1 and on 1..h, by sample_trials' matrices.

    Returns the two hit counts, whether their Wilson intervals overlap,
    whether both hold the analytic rate, and that rate.  A trial's matrix
    comes first in its stream, so the k = h signal draw does not move it.
    """
    mats, _ = sample_trials(ModelParams(n=n, k=h, m=m, q=q, gamma=gamma), trials, seed)
    pair = np.zeros((2, n), dtype=np.int16)
    pair[0, :h] = 1
    pair[1, 1 : h + 1] = 1
    hits = tuple((measure_candidates(make_field(q), mats, pair) == 0).all(axis=1).sum(axis=0).tolist())
    (lo1, hi1), (lo2, hi2) = (wilson_interval(hit, trials) for hit in hits)
    analytic = row_zero_prob_sparse(q, gamma, h).linear ** m
    return hits, lo1 <= hi2 and lo2 <= hi1, lo1 <= analytic <= hi1 and lo2 <= analytic <= hi2, analytic


class TestNullity:
    # the chance that a matrix annihilates a vector depends only on its weight
    def test_dense_matches_uniform_power(self):
        _, consistent, matches, analytic = nullity_check(3, 8, 2, dense_gamma(3), 3, 20_000, seed=2)
        assert consistent
        assert matches
        assert math.isclose(analytic, (1 / 3) ** 2, rel_tol=1e-12)

    def test_forced_ones_never_annihilate(self):
        hits, _, _, analytic = nullity_check(2, 4, 1, 1.0, 1, 2000, seed=9)
        assert hits == (0, 0)
        assert analytic == 0.0

    def test_sparse_matches_convolution_power(self):
        _, consistent, matches, analytic = nullity_check(4, 6, 2, 0.3, 3, 40_000, seed=23)
        expect = convolution_oracle(make_field(4), 0.3, 3).linear ** 2
        assert math.isclose(analytic, expect, rel_tol=1e-10)
        assert matches
        assert consistent

    @pytest.mark.parametrize(
        "config,hits",
        [
            ((3, 8, 2, dense_gamma(3), 3, 20_000, 2), (2250, 2197)),
            ((2, 4, 1, 1.0, 1, 2000, 9), (0, 0)),
            ((4, 6, 2, 0.3, 3, 40_000, 23), (6812, 6804)),
            ((4, 8, 2, 0.3, 3, 30_000, 6), (5154, 5118)),
            ((4, 5, 2, 0.6, 2, 300, 8), (24, 33)),
            ((7, 5, 2, 0.6, 2, 300, 8), (13, 9)),
        ],
        ids=["dense-q3", "forced-ones", "sparse-q4", "demo-06", "window-q4", "window-q7"],
    )
    def test_hit_counts_are_pinned(self, config, hits):
        # exact counts, so a sampler drift that keeps the rates plausible still fails
        assert nullity_check(*config)[0] == hits


def test_cap_propagates():
    params = ModelParams(n=40, k=10, m=4, q=4, gamma=0.5)
    with pytest.raises(EnumerationCapExceeded):
        run_trials(params, 10, seed=0)


def test_sample_trials_are_the_measured_instances():
    # |L| = 436 and m = 6: run_trials measures blocks of 400 trials
    params = ModelParams(n=10, k=2, m=6, q=4, gamma=0.6)
    seen = []
    run_trials(params, 1000, seed=11, on_block=lambda start, *arrays: seen.append((start, arrays)))
    assert [start for start, _ in seen] == [0, 400, 800]
    mats, signals, y = (np.concatenate(a) for a in zip(*(arrays for _, arrays in seen)))
    got_mats, got_signals = sample_trials(params, 1000, seed=11)
    assert got_mats.dtype == got_signals.dtype == np.int16
    assert np.array_equal(got_mats, mats) and np.array_equal(got_signals, signals)
    f = make_field(4)
    assert all(np.array_equal(matvec(f, a, x), y_i) for a, x, y_i in zip(mats[:50], signals, y))


def test_sample_trials_at_n_1000_are_the_measured_instances():
    # |L| = 4,498,501: all of L as int16 rows would be 8.4 GiB, so only
    # the drawn signals are unranked; blocks hold one trial each
    params = ModelParams(n=1000, k=2, m=15, q=4, gamma=dense_gamma(4))
    seen = []
    run_trials(params, 3, seed=7, on_block=lambda start, *arrays: seen.append((start, arrays)))
    assert [start for start, _ in seen] == [0, 1, 2]
    mats, signals, y = (np.concatenate(a) for a in zip(*(arrays for _, arrays in seen)))
    got_mats, got_signals = sample_trials(params, 3, seed=7)
    assert np.array_equal(got_mats, mats) and np.array_equal(got_signals, signals)
    f = make_field(4)
    for a, x, y_i in zip(got_mats, got_signals, y, strict=True):
        assert np.count_nonzero(x) <= 2
        assert np.array_equal(matvec(f, a, x), y_i)


def test_sample_trials_rejects_what_run_trials_rejects(monkeypatch):
    def refuse(*args):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(montecarlo, "_sample_trials", refuse)
    with pytest.raises(ValueError):
        sample_trials(ModelParams(n=5, k=2, m=3, q=4, gamma=0.5), 0, seed=0)
    with pytest.raises(EnumerationCapExceeded):
        sample_trials(ModelParams(n=40, k=10, m=4, q=4, gamma=0.5), 10, seed=0)
    with pytest.raises(UnsupportedOrder):
        sample_trials(ModelParams(n=4, k=1, m=3, q=32771, gamma=0.5), 5, seed=0)


def test_run_trials_rejects_a_float_m():
    with pytest.raises(ValueError, match="^m must be an integer, got 6.0$"):
        run_trials(ModelParams(n=10, k=2, m=6.0, q=4, gamma=0.5), 10, seed=0)


def test_run_trials_rejects_zero_trials():
    # the CLI refuses --trials 0 itself, so only a library call gets here
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_trials(ModelParams(n=5, k=2, m=3, q=4, gamma=0.5), 0, seed=0)


@pytest.mark.parametrize("q", [9, 257, 32771])
def test_instances_are_drawn_only_over_fields_with_tables(q):
    # prime powers the analytic path takes, but no tables are built for
    # them; at 32771 numpy's int16 value draw would fail on its own
    params = ModelParams(n=4, k=1, m=3, q=q, gamma=0.5)
    for draw in (sample_trials, run_trials):
        with pytest.raises(UnsupportedOrder):
            draw(params, 5, seed=0)


def _per_trial_draws(params, trials, seed, n_candidates):
    """The per-trial loop the streamed sampler replaced, kept as its oracle."""
    children = np.random.SeedSequence(seed).spawn(trials)
    mats = np.empty((trials, params.m, params.n), dtype=np.int16)
    idx = np.empty(trials, dtype=np.int64)
    shape = (params.m, params.n)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        zero_mask = rng.random(shape) >= params.gamma
        values = rng.integers(1, params.q, size=shape, dtype=np.int16)
        mats[i] = np.where(zero_mask, 0, values)
        idx[i] = rng.integers(0, n_candidates)
    return mats, idx


def _assert_windows_match_oracle(params, seed, n_cand):
    # both draw paths, PCG64 lanes and a PCG64 per trial, forced in turn
    mats, idx = _per_trial_draws(params, 50, seed, n_cand)
    for lanes in (True, False):
        with mock.patch.object(montecarlo, "_as_lanes", lambda width, t: lanes):
            got = _sample_trials(params, 50, seed, n_cand)
            assert np.array_equal(got[0], mats) and np.array_equal(got[1], idx)
            for start, stop in [(0, 1), (7, 23), (23, 50), (49, 50)]:
                w_mats, w_idx = _sample_trials(params, stop, seed, n_cand, start)
                assert np.array_equal(w_mats, mats[start:stop])
                assert np.array_equal(w_idx, idx[start:stop])


class TestSeedContract:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**64 - 1, 2**96, 2**128, 2**130 + 7])
    def test_child_words_match_spawn(self, seed):
        stop = 70
        expect = [c.generate_state(4, np.uint64) for c in np.random.SeedSequence(seed).spawn(stop)]
        assert np.array_equal(_child_seed_words(seed, 0, stop), np.array(expect))
        assert np.array_equal(_child_seed_words(seed, 13, 31), np.array(expect[13:31]))

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**96, 2**128, 2**130 + 7])
    def test_window_across_two_word_spawn_keys(self, seed):
        # children 2**32 - 2 .. 2**32 + 1, where the spawn key grows a
        # second word; spawn(stop)[i] is SeedSequence(seed, spawn_key=(i,)),
        # built directly so that no 2**32 siblings are spawned
        start, stop = 2**32 - 2, 2**32 + 2
        expect = [
            np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64)
            for i in range(start, stop)
        ]
        assert np.random.SeedSequence(seed).spawn(3)[2].spawn_key == (2,)
        assert np.array_equal(_child_seed_words(seed, start, stop), np.array(expect))

    def test_seed_words_serve_only_pcg64s_request(self):
        words = _child_seed_words(3, 0, 1)[0]
        seq = _SeedWords(words)
        assert seq.generate_state(4, np.uint64) is words
        assert seq.generate_state(4, np.dtype("uint64")) is words
        for request in [(4, np.uint32), (8, np.uint64), (4,)]:
            with pytest.raises(ValueError):
                seq.generate_state(*request)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            _child_seed_words(-1, 0, 3)

    @pytest.mark.parametrize("q,gamma", [(2, 0.5), (3, 0.3), (16, 0.9)])
    def test_windows_match_per_trial_loop(self, q, gamma):
        self._check_windows(q, gamma, m=3)

    @pytest.mark.parametrize("gamma,m", [(1.0, 3), (0.5, 5)])
    def test_gf2_windows_match_per_trial_loop(self, gamma, m):
        self._check_windows(2, gamma, m)

    @staticmethod
    def _check_windows(q, gamma, m):
        params = ModelParams(n=5, k=2, m=m, q=q, gamma=gamma)
        n_cand = candidate_matrix(params.n, params.k, params.q)[0].shape[0]
        _assert_windows_match_oracle(params, 4242, n_cand)

    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (6, 10), (12, 24)])
    def test_gf2_value_draw_is_ones_and_consumes_no_bits(self, seed, shape):
        rng = np.random.default_rng(seed)
        rng.random(shape)
        before = rng.bit_generator.state
        values = rng.integers(1, 2, size=shape, dtype=np.int16)
        holds = np.array_equal(values, np.ones(shape, dtype=np.int16))
        holds &= rng.bit_generator.state == before
        assert holds, (
            "numpy's integers(1, 2) no longer returns ones without advancing the stream; "
            "montecarlo._sample_trials skips that draw over GF(2) and relies on both"
        )

    def test_block_size_does_not_change_results(self, monkeypatch):
        params = ModelParams(n=5, k=2, m=3, q=4, gamma=0.6)
        whole = run_trials(params, 300, seed=8)
        # |L| = 106 candidates and m = 3: run_trials blocks of 7 and 83
        # trials, so every window boundary moves
        for per_block in (7, 83):
            monkeypatch.setattr(montecarlo, "_BLOCK_ELEMS", 3 * 106 * per_block)
            assert run_trials(params, 300, seed=8) == whole

    @pytest.mark.parametrize("lanes", [True, False])
    def test_window_and_block_edges_do_not_change_results(self, monkeypatch, lanes):
        # the draw window is always whole sweep blocks: here windows of
        # 1 block (83 trials, or 7 under a 5-trial constant, stepped as
        # lane groups of 5 and 2), 2 (14 trials) and 5 (35), and
        # run_trials ends mid-window and mid-block,
        # so every window and block edge moves; each draw path is forced
        params = ModelParams(n=5, k=2, m=3, q=7, gamma=0.6)
        n_cand = signal_set_size(5, 2, 7).total
        whole = run_trials(params, 300, seed=8)
        monkeypatch.setattr(montecarlo, "_as_lanes", lambda width, t: lanes)
        for per_block, window in [(7, 5), (7, 20), (7, 37), (83, 100)]:
            monkeypatch.setattr(montecarlo, "_BLOCK_ELEMS", 3 * n_cand * per_block)
            monkeypatch.setattr(montecarlo, "_WINDOW_TRIALS", window)
            starts = [start for start, _, _ in montecarlo._trial_blocks(params, 300, 8, n_cand)]
            assert starts == list(range(0, 300, per_block))
            assert run_trials(params, 300, seed=8) == whole


def test_memory_does_not_grow_with_trials():
    params = ModelParams(n=8, k=2, m=5, q=3, gamma=dense_gamma(3))
    run_trials(params, 10, seed=0)  # field tables and caches outside the measurement
    peaks = []
    for trials in (2_000, 20_000):
        tracemalloc.start()
        try:
            run_trials(params, trials, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_run_trials_frees_each_draw_window_before_the_next():
    # windows of 1,048 trials here (two blocks of 524); a block left
    # referenced while the next window is drawn kept two windows alive,
    # 4.41 MB against 2.54 MB for one
    params = ModelParams(n=50, k=1, m=20, q=2, gamma=0.5)
    run_trials(params, 10, seed=0)  # field tables and caches outside the measurement
    peaks = []
    for windows in (1, 2, 4):
        tracemalloc.start()
        try:
            run_trials(params, 1_048 * windows, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks[1:]) <= 1.1 * peaks[0], peaks


# (m, n) with m n odd and even, and with the int16 value draw taking an
# odd and an even number of uint32s: with an odd number the signal rank
# reads the buffered high half of the last value word
RAW_SHAPES = [(3, 3), (3, 5), (2, 5), (3, 4)]


def _spy_redraws(monkeypatch):
    """Record the seed words of every trial _sample_trials redraws through Generator."""
    redrawn = []
    draws = montecarlo._generator_draws

    def spy(params, words, n_candidates):
        redrawn.append(words.copy())
        return draws(params, words, n_candidates)

    monkeypatch.setattr(montecarlo, "_generator_draws", spy)
    return redrawn


class TestRawDraws:
    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**130 + 7])
    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13, 16, 251, 256])
    def test_sampler_matches_generator_oracle(self, q, sparse, seed):
        # k = 0 leaves one candidate and draws no rank; n_candidates = 2
        # draws a rank of one bit
        gamma = 0.3 if sparse else dense_gamma(q)
        for m, n in RAW_SHAPES:
            for k in (0, 2):
                params = ModelParams(n=n, k=k, m=m, q=q, gamma=gamma)
                _assert_windows_match_oracle(params, seed, signal_set_size(n, k, q).total)
            _assert_windows_match_oracle(params, seed, 2)

    def test_value_rejections_are_redrawn(self, monkeypatch):
        # 2**16 mod 6 = 4 of the 2**16 products reject at q = 7, so at
        # m n = 60 about 0.4 % of trials reject a value; two candidates
        # make the rank draw exact
        params = ModelParams(n=10, k=2, m=6, q=7, gamma=dense_gamma(7))
        start, stop, seed = 500, 3500, 17
        redrawn = _spy_redraws(monkeypatch)
        mats, idx = _sample_trials(params, stop, seed, 2, start)
        assert 0 < len(redrawn) < 0.01 * (stop - start)
        expect_mats, expect_idx = _per_trial_draws(params, stop, seed, 2)
        assert np.array_equal(mats, expect_mats[start:]) and np.array_equal(idx, expect_idx[start:])

    @pytest.mark.parametrize("q,m,n", [(2, 6, 10), (3, 6, 10), (3, 3, 3)])
    def test_rank_rejections_are_redrawn(self, monkeypatch, q, m, n):
        # 2**32 mod 10**8 of the 2**32 products reject: 2.2 % of trials
        params = ModelParams(n=n, k=2, m=m, q=q, gamma=0.4)
        trials, seed, n_cand = 600, 29, 10**8
        redrawn = _spy_redraws(monkeypatch)
        mats, idx = _sample_trials(params, trials, seed, n_cand)
        assert 0 < len(redrawn) < 0.05 * trials
        expect_mats, expect_idx = _per_trial_draws(params, trials, seed, n_cand)
        assert np.array_equal(mats, expect_mats) and np.array_equal(idx, expect_idx)

    @pytest.mark.parametrize("q", [3, 5])
    @pytest.mark.parametrize("n_cand", [1, 2, 2**20])
    def test_nothing_rejects_where_both_thresholds_are_zero(self, monkeypatch, q, n_cand):
        # 2**16 mod (q - 1) = 0 and 2**32 mod n_cand = 0
        redrawn = _spy_redraws(monkeypatch)
        for m, n in RAW_SHAPES + [(6, 10)]:
            _sample_trials(ModelParams(n=n, k=2, m=m, q=q, gamma=0.5), 2000, 3, n_cand)
        assert redrawn == []

    def test_draws_past_the_raw_maps_go_to_the_generator(self, monkeypatch):
        # a rank past 2**32 is numpy's 64-bit draw; an order without
        # tables, such as the prime 2**16 + 1, is refused before any draw
        params = ModelParams(n=4, k=1, m=3, q=4, gamma=0.5)
        redrawn = _spy_redraws(monkeypatch)
        mats, idx = _sample_trials(params, 20, 6, 2**40)
        assert len(redrawn) == 20 and idx.max() >= 2**32
        expect_mats, expect_idx = _per_trial_draws(params, 20, 6, 2**40)
        assert np.array_equal(mats, expect_mats) and np.array_equal(idx, expect_idx)
        with pytest.raises(ValueError):
            sample_trials(ModelParams(n=4, k=1, m=3, q=2**16 + 1, gamma=0.5), 5, 6)

    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    @pytest.mark.parametrize(
        "q,cells,n_cand", [(2, 60, 56), (3, 9, 51), (4, 60, 436), (7, 15, 10**8), (256, 10, 2)]
    )
    def test_generator_maps_raw_words_as_the_sampler_assumes(self, seed, q, cells, n_cand):
        # the words a fresh PCG64 emits, mapped by hand: uniforms from
        # whole words, int16 values from the 16-bit halves of the uint32
        # halves of the next words, the rank from the next uint32
        raw = [int(w) for w in np.random.PCG64(seed).random_raw(2 * cells + 2)]
        halves = [h for w in raw[cells:] for h in (w & 0xFFFFFFFF, w >> 32)]
        n_halves = (cells + 1) // 2 if q > 2 else 0
        u16 = [h >> s & 0xFFFF for h in halves[:n_halves] for s in (0, 16)][:cells]
        u32 = halves[n_halves]
        expect_values = [1 + (u * (q - 1) >> 16) for u in u16] if q > 2 else [1] * cells
        # seeds and sizes are chosen so that no Lemire step rejects
        assert all(u * (q - 1) & 0xFFFF >= 2**16 % (q - 1) for u in u16)
        assert u32 * n_cand & 0xFFFFFFFF >= 2**32 % n_cand
        rng = np.random.default_rng(seed)
        uniforms = rng.random(cells)
        values = rng.integers(1, q, size=cells, dtype=np.int16)
        rank = rng.integers(0, n_cand)
        following = rng.bit_generator.random_raw()
        holds = uniforms.tolist() == [(w >> 11) * 2.0**-53 for w in raw[:cells]]
        holds &= values.tolist() == expect_values
        holds &= rank == u32 * n_cand >> 32
        holds &= following == raw[cells + (n_halves + 2) // 2]
        assert holds, (
            "numpy's Generator no longer maps PCG64's raw words as montecarlo._sample_trials "
            "assumes (random, then integers as int16 and as a rank, by Lemire's method)"
        )

    @pytest.mark.parametrize("q", [2, 4])
    def test_block_peaks_below_the_generator_draw_arrays(self, q):
        # drawing through Generator held a block's (t, m, n) float64
        # uniforms, int16 values and zero mask at once: 11 bytes a cell
        params = ModelParams(n=10, k=2, m=6, q=q, gamma=dense_gamma(q))
        n_cand = signal_set_size(params.n, params.k, q).total
        t = montecarlo._BLOCK_ELEMS // (params.m * max(n_cand, q * params.n))
        _sample_trials(params, t, 0, n_cand)
        tracemalloc.start()
        try:
            _sample_trials(params, t, 0, n_cand)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= t * params.m * params.n * (8 + 2 + 1), peak


# seed rows whose 128-bit sums carry: the state words' own sums with
# inc, the stream id's top bit (shifted into inc's high word, or out of
# it), and every word at 0 or 2**64 - 1
CARRY_ROWS = [
    [0, 0, 0, 0],
    [2**64 - 1] * 4,
    [0, 2**64 - 1, 0, 0],
    [5, 2**64 - 1, 3, 2**64 - 1],
    [0, 0, 0, 2**63],
    [0, 0, 2**63, 0],
    [2**64 - 1, 2**64 - 1, 0, 0],
    [2**63, 1, 2**63 + 1, 2**63 + 1],
]


def _raw_words(words, width):
    return np.stack([np.random.PCG64(_SeedWords(w)).random_raw(width) for w in words], axis=1)


def _take(lanes, chunks):
    # a lane block holds until the next take, so each is copied out
    return np.concatenate([lanes.take(c).copy() for c in chunks], axis=0)


class TestLaneStream:
    @pytest.mark.parametrize("width", [1, 2, 61, 121, 130])
    def test_lanes_match_random_raw(self, width):
        # 121 words and more is past 2 m n at m n = 60, where a trial's
        # draws end; about one word in 64 has rotation 0
        words = np.concatenate(
            [np.array(CARRY_ROWS, dtype=np.uint64), _child_seed_words(2**130 + 7, 0, 40)]
        )
        expect = _raw_words(words, width)
        assert np.array_equal(_take(_PCG64Lanes(words), [1] * width), expect)
        chunks = [c for c in (3, 7, 20) if width > 30]
        chunks.append(width - sum(chunks))
        assert np.array_equal(_take(_PCG64Lanes(words), chunks), expect)

    def test_pcg_step_matches_integer_arithmetic(self):
        # the low words' sums are steered to end at 2**64 - 1, 2**64 and
        # 2**64 + 1, so a carry out of bit 31 or bit 63 reaches the high
        # word or just fails to, which random words almost never do
        mult = montecarlo._PCG_MULT
        rng = np.random.default_rng(5)
        hi = [0, 2**64 - 1, 2**63, *map(int, rng.integers(0, 2**64, 29, dtype=np.uint64))]
        lo = [2**64 - 1, 0, 2**32 - 1, *map(int, rng.integers(0, 2**64, 29, dtype=np.uint64))]
        rows = []
        for h, l in zip(hi, lo):
            to_wrap = -(l * mult) % 2**64
            for add_lo in (to_wrap - 1, to_wrap, to_wrap + 1, to_wrap & 2**32 - 1, 2**64 - 1):
                rows.append((h, l, int(rng.integers(0, 2**64, dtype=np.uint64)), add_lo % 2**64))
        h, l, add_hi, add_lo = (np.array(col, dtype=np.uint64) for col in zip(*rows))
        state = np.stack([h, l])
        add = (np.stack([add_hi, add_lo]), np.stack([add_lo & np.uint64(2**32 - 1), add_lo >> np.uint64(32)]))
        _pcg_step(state, add, (np.empty_like(state), np.empty_like(state), np.empty_like(h)))
        expect = [((a << 64 | b) * mult + (c << 64 | d)) % 2**128 for a, b, c, d in rows]
        assert [int(a) << 64 | int(b) for a, b in zip(*state)] == expect

    @pytest.mark.parametrize("t", [1, 2, 7, 97])
    def test_lanes_of_any_window_match_random_raw(self, t):
        words = _child_seed_words(11, 2**32 - 3, 2**32 - 3 + t)
        assert np.array_equal(_take(_PCG64Lanes(words), [5, 64, 1]), _raw_words(words, 70))

    @pytest.mark.parametrize("chunks", [[1] * 9, [3, 7, 20, 1], [61], [4, 1, 1, 4]])
    def test_lane_and_raw_takes_hand_out_the_same_blocks(self, chunks):
        # both routes hand _map_words word-major (c, t) blocks: the lanes
        # their rows, random_raw a transposed view of its (t, D) words
        words = np.concatenate(
            [np.array(CARRY_ROWS, dtype=np.uint64), _child_seed_words(2**130 + 7, 0, 29)]
        )
        lanes, raw = _PCG64Lanes(words), _raw_take(words, sum(chunks))
        for c in chunks:
            block, view = lanes.take(c), raw(c)
            assert block.shape == view.shape == (c, len(words))
            assert np.array_equal(block, view)

    def test_halves_view_reads_any_strides(self):
        # a lane block is C-order, a random_raw block a transposed view
        # with an offset, a one-row block has a row stride of its own,
        # and a block strided along both axes comes from no draw route
        words = _child_seed_words(3, 0, 37)
        raw = _raw_take(words, 12)
        raw(4)
        raw_view, raw_row = raw(7), raw(1)
        lane_block = _PCG64Lanes(words).take(6)
        for block in (lane_block, raw_view, raw_row, lane_block[2:3], lane_block[::2, ::3]):
            c, t = block.shape
            flat = np.ascontiguousarray(block).view("<u2").reshape(c, t, 4)
            assert np.array_equal(_halves(block), flat.transpose(0, 2, 1))

    @pytest.mark.parametrize("q,trials", [(2, 1), (7, 3), (4, 130)])
    def test_large_matrices_match_the_oracle(self, q, trials):
        # m n = 2,000 builds a PCG64 per trial, 3 or 4 trials a group
        params = ModelParams(n=50, k=1, m=40, q=q, gamma=0.5)
        n_cand = signal_set_size(50, 1, q).total
        mats, idx = _sample_trials(params, trials, 19, n_cand)
        expect_mats, expect_idx = _per_trial_draws(params, trials, 19, n_cand)
        assert np.array_equal(mats, expect_mats) and np.array_equal(idx, expect_idx)

    @pytest.mark.parametrize(
        "n,m,trials,expect",
        [
            # groups of at most _WINDOW_TRIALS lanes, the remainder too
            # while D (t + 4,096) <= 300 t; else _RAW_WORDS // D trials
            (10, 6, 10_000, [("lanes", 6400), ("lanes", 3600)]),
            (10, 6, 6500, [("lanes", 6400), ("raw", 100)]),
            (1, 1, 9000, [("lanes", 6400), ("lanes", 2600)]),
            (50, 20, 20, [("raw", 8), ("raw", 8), ("raw", 4)]),
        ],
    )
    def test_each_group_takes_the_faster_draw(self, monkeypatch, n, m, trials, expect):
        params = ModelParams(n=n, k=1, m=m, q=2, gamma=0.5)
        groups = []
        lanes, raw = montecarlo._PCG64Lanes, montecarlo._raw_take

        def spy_lanes(words):
            groups.append(("lanes", len(words)))
            return lanes(words)

        def spy_raw(words, width):
            groups.append(("raw", len(words)))
            return raw(words, width)

        monkeypatch.setattr(montecarlo, "_PCG64Lanes", spy_lanes)
        monkeypatch.setattr(montecarlo, "_raw_take", spy_raw)
        _sample_trials(params, trials, 3, params.n + 1)
        assert groups == expect

    @pytest.mark.parametrize("q,lanes,rest", [(2, 6240, [1280]), (3, 6083, [1751]), (4, 6400, [])])
    def test_a_full_window_steps_as_one_lane_group(self, monkeypatch, q, lanes, rest):
        # n = 10, k = 2, m = 6, dense: a window is two GF(2) blocks of
        # 3,120 trials, seven GF(3) blocks of 869 or sixteen GF(4) blocks
        # of 400, and each lane step covers the whole window; the last
        # GF(4) window's 800 trials of 76 words take random_raw
        params = ModelParams(n=10, k=2, m=6, q=q, gamma=dense_gamma(q))
        groups = []
        lanes_class = montecarlo._PCG64Lanes

        def spy_lanes(words):
            groups.append(len(words))
            return lanes_class(words)

        monkeypatch.setattr(montecarlo, "_PCG64Lanes", spy_lanes)
        run_trials(params, 20_000, seed=0)
        assert groups == [lanes] * (20_000 // lanes) + rest

    def test_window_layout_follows_the_draw_route(self, monkeypatch):
        # `ffcs simulate --n 10 --k 2 --m 6 --q 7 --seed 3 --trials 6500`:
        # a window of 62 blocks of 103 trials steps as one lane group and
        # is trial-innermost, the last window's 114 trials of 76 words
        # take random_raw and are C-order, and a few trials reject a
        # value and are redrawn through Generator
        params = ModelParams(n=10, k=2, m=6, q=7, gamma=dense_gamma(7))
        n_cand = signal_set_size(10, 2, 7).total
        trials, seed = 6500, 3
        groups, redrawn = [], _spy_redraws(monkeypatch)
        lanes_class = montecarlo._PCG64Lanes

        def spy_lanes(words):
            groups.append(len(words))
            return lanes_class(words)

        monkeypatch.setattr(montecarlo, "_PCG64Lanes", spy_lanes)
        blocks = []
        run_trials(params, trials, seed, on_block=lambda start, *arrays: blocks.append((start, arrays)))
        assert groups == [6386] and redrawn
        for start, (mats, _, _) in blocks:
            if start < 6386:
                assert mats.strides[0] == mats.itemsize, start
            else:
                assert mats.flags.c_contiguous, start
        expect_mats, expect_idx = _per_trial_draws(params, trials, seed, n_cand)
        expect_signals = candidate_matrix(params.n, params.k, params.q, expect_idx)[0]
        measured = [np.concatenate(a) for a in zip(*((m, x) for _, (m, x, _) in blocks))]
        for mats, signals in (measured, sample_trials(params, trials, seed)):
            assert len(mats) == len(signals) == trials
            for i, (a, x) in enumerate(zip(mats, signals)):
                assert np.array_equal(a, expect_mats[i]) and np.array_equal(x, expect_signals[i]), i

    @pytest.mark.parametrize("q", [2, 4])
    def test_wide_windows_keep_memory_flat_in_trials(self, q):
        # windows of 6,240 and 6,400 trials at n = 10, k = 2, m = 6:
        # five times the trials peak within 2 % of the memory
        params = ModelParams(n=10, k=2, m=6, q=q, gamma=dense_gamma(q))
        run_trials(params, 10, seed=0)  # field tables and caches outside the measurement
        peaks = []
        for trials in (20_000, 100_000):
            tracemalloc.start()
            try:
                run_trials(params, trials, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] == pytest.approx(peaks[0], rel=0.02), peaks

    def test_numpy_shifts_a_word_by_64_to_zero(self):
        # XSL-RR rotates by (x >> r) | (x << (64 - r)), which keeps x at
        # r = 0 only because numpy defines a shift by the full width as 0
        x = np.array([1, 2**63 + 5, 2**64 - 1], dtype=np.uint64)
        shifted = np.left_shift(x, np.array([64, 64, 64], dtype=np.uint64))
        assert np.array_equal(shifted, np.zeros(3, dtype=np.uint64)), (
            "numpy no longer shifts a uint64 by 64 to 0; montecarlo._PCG64Lanes relies on it"
        )

    @pytest.mark.parametrize("q", [2, 4])
    def test_window_peaks_below_its_raw_words(self, q):
        # a (t, D) block of a window's raw words would take at least
        # 8 m n bytes a trial, for the uniforms alone
        params = ModelParams(n=10, k=2, m=6, q=q, gamma=dense_gamma(q))
        n_cand = signal_set_size(params.n, params.k, q).total
        t = montecarlo._WINDOW_TRIALS
        _sample_trials(params, t, 0, n_cand)
        tracemalloc.start()
        try:
            _sample_trials(params, t, 0, n_cand)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < t * params.m * params.n * 8, peak

    @pytest.mark.parametrize("q", [2, 4])
    def test_large_matrix_draws_peak_below_two_blocks_of_entries(self, q):
        # m n = 1,000 and 8,192 trials: a window holds at most
        # _BLOCK_ELEMS int16 entries, whatever its trial count, and its
        # raw words are mapped _RAW_WORDS at a time; the blocks of one
        # window are still held while the next is drawn
        params = ModelParams(n=50, k=1, m=20, q=q, gamma=0.5)
        n_cand = signal_set_size(50, 1, q).total
        list(montecarlo._trial_blocks(params, 10, 0, n_cand))
        tracemalloc.start()
        try:
            for _ in montecarlo._trial_blocks(params, 8192, 0, n_cand):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * montecarlo._BLOCK_ELEMS, peak
