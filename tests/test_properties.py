"""Property tests: the measurement kernel, the batch error flags (summed and
per trial), the one error event, matvec, the log pair-count profile,
log-sum-exp, the threshold search and the JSON round-trip; and that the
suite's own settings report a failing property as a failure.

Each property holds for every instance; hypothesis draws the instances
(deterministically, see conftest.py).
"""

import json
import math
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from ffcs import (
    ModelParams,
    PairVariant,
    candidate_matrix,
    dense_gamma,
    error_events,
    make_field,
    matrix_from_json,
    matrix_to_json,
    matvec,
    min_measurements,
    nh_count,
    nh_log_profile,
    pair_total,
    run_trials,
    signal_from_json,
    signal_set_size,
    signal_to_json,
    union_bound,
)
from ffcs import montecarlo
from ffcs.curves import _search_ceiling
from ffcs.model import level_starts, measure_candidates, unpack_measurements
from ffcs.montecarlo import _error_flags, _sample_trials, _trial_blocks
from ffcs.util import log_of_int, logsumexp

ORDERS = [2, 3, 4, 5, 7, 8, 13, 16]


def _reference_measure(field, rows, cands):
    """(m, c) measurements, one field add and mul at a time through the tables."""
    add, mul = field.add_table, field.mul_table
    out = np.zeros((rows.shape[0], cands.shape[0]), dtype=np.int16)
    for i, row in enumerate(rows):
        for c, x in enumerate(cands):
            out[i, c] = reduce(lambda acc, j: add[acc, mul[row[j], x[j]]], range(len(x)), 0)
    return out


@st.composite
def kernel_instances(draw):
    q = draw(st.sampled_from(ORDERS))
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 9))
    batch = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, q, size=batch + (m, n)).astype(np.int16)
    # mixed weights 0..n, values uniform over the nonzeros
    weights = rng.integers(0, n + 1, size=draw(st.integers(1, 16)))
    cands = np.zeros((len(weights), n), dtype=np.int16)
    for c, w in enumerate(weights):
        cands[c, rng.permutation(n)[:w]] = rng.integers(1, q, size=w)
    return make_field(q), rows, cands


@given(kernel_instances())
@settings(max_examples=120)
def test_kernel_matches_table_reference(instance):
    field, rows, cands = instance
    got = measure_candidates(field, rows, cands)
    assert got.shape == rows.shape[:-1] + (cands.shape[0],)
    flat = rows.reshape((-1,) + rows.shape[-2:])
    expect = np.stack([_reference_measure(field, A, cands) for A in flat])
    assert np.array_equal(got.reshape(expect.shape), expect)


@st.composite
def trial_configs(draw):
    q = draw(st.sampled_from([2, 3, 4, 5]))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n))
    m = draw(st.integers(1, 4))
    gamma = draw(st.floats(0.05, 1.0))
    seed = draw(st.integers(0, 2**64 - 1))
    return ModelParams(n=n, k=k, m=m, q=q, gamma=gamma), seed


@given(trial_configs())
@settings(max_examples=60)
def test_batch_flags_match_error_events(config):
    params, seed = config
    trials = 12
    report = run_trials(params, trials, seed)
    field = make_field(params.q)
    cands, _ = candidate_matrix(params.n, params.k, params.q)
    mats, idx = _sample_trials(params, trials, seed, cands.shape[0])
    events = [error_events(field, A, cands[j], k_max=params.k) for A, j in zip(mats, idx)]
    assert report.errors == sum(ev.e0_error for ev in events)
    assert report.errors == sum(ev.e_error for ev in events)


@st.composite
def per_trial_configs(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 7]))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n))
    m = draw(st.integers(1, 4))
    gamma = draw(st.floats(0.05, 1.0))
    seed = draw(st.integers(0, 2**64 - 1))
    per_block = draw(st.sampled_from([1, 3, None]))  # None: one block
    return ModelParams(n=n, k=k, m=m, q=q, gamma=gamma), seed, per_block


@given(per_trial_configs())
@example((ModelParams(n=4, k=0, m=2, q=3, gamma=0.5), 1, 1))
@example((ModelParams(n=1, k=1, m=1, q=4, gamma=0.5), 2, 3))
@example((ModelParams(n=1, k=0, m=3, q=2, gamma=0.5), 3, None))
@settings(max_examples=60)
def test_flags_match_error_events_per_trial(config):
    params, seed, per_block = config
    trials = 12
    field = make_field(params.q)
    cands, _ = candidate_matrix(params.n, params.k, params.q)
    offsets = level_starts(params.n, params.k, params.q)
    width = max(len(cands), params.q * params.n)
    block_elems = params.m * width * (per_block or trials)
    with mock.patch.object(montecarlo, "_BLOCK_ELEMS", block_elems):
        blocks = list(_trial_blocks(params, trials, seed, len(cands)))
    assert len(blocks) == -(-trials // (per_block or trials))
    for start, mats, idx in blocks:
        flags, words = _error_flags(field, mats, idx, offsets)
        y = unpack_measurements(field, words, params.m)
        assert flags.shape == (len(idx),) and y.shape == (len(idx), params.m)
        for i, (A, j) in enumerate(zip(mats, idx)):
            ev = error_events(field, A, cands[j], k_max=params.k)
            assert (flags[i], flags[i]) == (ev.e0_error, ev.e_error), start + i
            assert np.array_equal(y[i], matvec(field, A, cands[j])), start + i


@given(trial_configs())
@settings(max_examples=40)
def test_e0_and_e_are_one_event(config):
    # the decoder counts ties as errors, so its output differs from x
    # exactly when some x' != x no heavier than x is feasible
    params, seed = config
    field = make_field(params.q)
    cands, _ = candidate_matrix(params.n, params.k, params.q)
    mats, idx = _sample_trials(params, 12, seed, cands.shape[0])
    for A, j in zip(mats, idx):
        ev = error_events(field, A, cands[j], k_max=params.k)
        assert ev.e0_error == ev.e_error


@given(st.sampled_from(ORDERS), st.integers(1, 9), st.integers(1, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=80)
def test_matvec_is_linear(q, m, n, seed):
    field = make_field(q)
    rng = np.random.default_rng(seed)
    A = rng.integers(0, q, size=(m, n)).astype(np.int16)
    x1, x2 = rng.integers(0, q, size=(2, n)).astype(np.int16)
    a = int(rng.integers(0, q))
    # A (a x1 + x2) = a (A x1) + A x2
    lhs = matvec(field, A, field.add_table[field.mul_table[a, x1], x2])
    rhs = field.add_table[field.mul_table[a, matvec(field, A, x1)], matvec(field, A, x2)]
    assert np.array_equal(lhs, rhs)


@st.composite
def profile_configs(draw):
    n = draw(st.integers(1, 64))
    return n, draw(st.integers(0, n)), draw(st.sampled_from(ORDERS)), draw(st.sampled_from(PairVariant))


@given(profile_configs())
@settings(max_examples=40)
def test_log_profile_matches_exact_counts(config):
    n, k, q, variant = config
    counts = nh_count(n, k, q, variant)
    prof = nh_log_profile(n, k, q, variant)
    assert len(prof) == 2 * k + 1 and prof[0] == -math.inf
    for h in range(1, 2 * k + 1):
        want = log_of_int(counts.get(h, 0))
        if want == -math.inf:
            assert prof[h] == -math.inf
        else:
            assert math.isclose(prof[h], want, rel_tol=1e-9), (h, want, prof[h])


@st.composite
def lse_arrays(draw):
    # finite terms and -inf, then copies of the largest term at random places
    terms = draw(st.lists(st.one_of(st.floats(-800.0, 800.0), st.just(-math.inf)), min_size=1, max_size=300))
    for _ in range(draw(st.integers(0, 4))):
        terms.insert(draw(st.integers(0, len(terms))), max(terms))
    return np.array(terms)


@given(lse_arrays())
@settings(max_examples=300)
def test_logsumexp_matches_scipy_exactly(a):
    # union_bound's value, and with it the simulate JSON, depends on every bit
    assert logsumexp(a) == float(scipy_logsumexp(a))


@st.composite
def search_configs(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 7]))
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, n))
    # dense_gamma(q) takes the exact integer route, any other gamma the float search
    gamma = draw(st.one_of(st.floats(0.05, 1.0), st.just(dense_gamma(q))))
    target = draw(st.floats(1e-4, 0.5))
    return n, k, q, gamma, target


@given(search_configs())
@settings(max_examples=60)
# exact ties at dense gamma, where the float bound rounds above log(target)
@example((4, 1, 2, dense_gamma(2), 0.5))
@example((16, 16, 8, dense_gamma(8), 0.125))
def test_min_measurements_brackets_the_target(config):
    n, k, q, gamma, target = config
    res = min_measurements(n, k, q, gamma, target=target)
    if gamma == dense_gamma(q):
        # the dense route is exact, so its oracle is the rational bound
        # pair_total / |L| q^-m, not the float log bound
        sizes = signal_set_size(n, k, q)
        mass = Fraction(pair_total(sizes, PairVariant.ALL_PAIRS), sizes.total)

        def above(m):
            return mass / q**m > Fraction(target)

    else:

        def above(m):
            return union_bound(ModelParams(n=n, k=k, m=m, q=q, gamma=gamma)).log_value > math.log(target)

    if not res.achieved:
        assert res.m == _search_ceiling(n, q)
        assert above(res.m)
        return
    assert not above(res.m)
    if res.m > 1:
        assert above(res.m - 1)


@given(
    st.sampled_from(ORDERS),
    st.integers(1, 6),
    st.integers(1, 8),
    st.floats(0.01, 1.0),
    st.one_of(st.none(), st.integers(0, 2**130)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60)
def test_json_round_trip(q, m, n, gamma, seed, draw_seed):
    rng = np.random.default_rng(draw_seed)
    rows = rng.integers(0, q, size=(m, n)).astype(np.int16)
    entries = rng.integers(0, q, size=n).astype(np.int16)
    mat_obj = json.loads(json.dumps(matrix_to_json(rows, q, gamma, seed)))
    sig_obj = json.loads(json.dumps(signal_to_json(entries, q, seed)))
    mat, sig = matrix_from_json(mat_obj), signal_from_json(sig_obj)
    assert np.array_equal(mat, rows) and mat_obj["gamma"] == gamma
    assert np.array_equal(sig, entries) and np.count_nonzero(sig) == np.count_nonzero(entries)
    assert mat_obj["seed"] == sig_obj["seed"] == seed
    assert mat_obj["q"] == sig_obj["q"] == q


def test_a_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    # hypothesis' plugin reports a failing @given test through an import
    # that warns; under the suite's warning filters that must not end the run
    (tmp_path / "test_pair.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_after_it():\n"
        "    pass\n"
    )
    config = Path(__file__).parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
