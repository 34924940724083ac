import tracemalloc

import numpy as np
import pytest

from ffcs import decoder, model
from ffcs import (
    DecodeStatus,
    DimensionMismatch,
    EnumerationCapExceeded,
    ModelParams,
    decode_l0,
    dense_gamma,
    error_events,
    make_field,
    matvec,
    run_trials,
    sample_trials,
)
from reference import enumerate_signals


def brute_decode(field, A, y, k_max):
    """Reference decoder: plain python loop over the full candidate list."""
    best_k = None
    sols = []
    for cand in enumerate_signals(A.shape[1], k_max, field.q):
        k = int(np.count_nonzero(cand))
        if best_k is not None and k > best_k:
            break
        if np.array_equal(matvec(field, A, cand), y):
            best_k = k
            sols.append(cand)
    return best_k, sols


def brute_events(field, A, x):
    """Reference (e0, e) flags: brute_decode's output against x, and a scan of L up to weight(x)."""
    y, k1 = matvec(field, A, x), int(np.count_nonzero(x))
    _, sols = brute_decode(field, A, y, k1)
    e0 = not (len(sols) == 1 and np.array_equal(sols[0], x))
    e = any(
        not np.array_equal(cand, x) and np.array_equal(matvec(field, A, cand), y)
        for cand in enumerate_signals(A.shape[1], k1, field.q)
    )
    return e0, e


def test_zero_measurement_gives_zero_signal():
    f = make_field(4)
    A = np.array([[1, 2, 3], [2, 2, 0]], dtype=np.int16)
    res = decode_l0(f, A, np.zeros(2, dtype=np.int16), k_max=2)
    assert res.status == DecodeStatus.UNIQUE
    assert res.min_sparsity == 0
    assert not res.solutions[0].any()


def test_two_way_tie_is_ambiguous():
    f = make_field(2)
    A = np.array([[1, 1]], dtype=np.int16)
    res = decode_l0(f, A, np.array([1], dtype=np.int16), k_max=1)
    assert res.status == DecodeStatus.AMBIGUOUS
    assert res.min_sparsity == 1
    assert sorted(s.tolist() for s in res.solutions) == [[0, 1], [1, 0]]


def test_unique_recovery_three_bit_instance():
    f = make_field(2)
    A = np.array([[1, 0, 0], [0, 1, 1]], dtype=np.int16)
    x = np.array([1, 0, 0], dtype=np.int16)
    res = decode_l0(f, A, matvec(f, A, x), k_max=1)
    assert res.status == DecodeStatus.UNIQUE
    assert np.array_equal(res.solutions[0], x)


def test_infeasible_measurement():
    f = make_field(2)
    A = np.zeros((1, 3), dtype=np.int16)
    res = decode_l0(f, A, np.array([1], dtype=np.int16), k_max=2)
    assert res.status == DecodeStatus.INFEASIBLE
    assert res.min_sparsity is None
    assert res.solutions == []


@pytest.mark.parametrize("q", [2, 3, 4])
def test_full_rank_square_matrix_always_unique(q):
    # upper triangular with nonzero diagonal: full column rank by
    # construction, so every measurement has a unique preimage
    f = make_field(q)
    n = 4
    rng = np.random.default_rng(q)
    A = np.triu(rng.integers(0, q, size=(n, n))).astype(np.int16)
    np.fill_diagonal(A, rng.integers(1, q, size=n))
    for x in enumerate_signals(n, 2, q):
        res = decode_l0(f, A, matvec(f, A, x), k_max=2)
        assert res.status == DecodeStatus.UNIQUE
        assert np.array_equal(res.solutions[0], x)
        ev = error_events(f, A, x, k_max=2)
        assert not ev.e_error and not ev.e0_error


def test_error_events_on_tied_instance():
    f = make_field(2)
    A = np.array([[1, 1]], dtype=np.int16)
    ev = error_events(f, A, np.array([1, 0], dtype=np.int16), k_max=1)
    assert ev.e_error and ev.e0_error


def test_zero_signal_never_confusable():
    f = make_field(3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        A = rng.integers(0, 3, size=(2, 5)).astype(np.int16)
        ev = error_events(f, A, np.zeros(5, dtype=np.int16), k_max=2)
        assert not ev.e_error


RANDOM_GRID = [(2, 6, 2, 3), (3, 5, 2, 3), (4, 4, 2, 2)]


def random_instances(q, n, k, m):
    """20 dense (A, x) trials of the model at (n, k, m, q)."""
    params = ModelParams(n=n, k=k, m=m, q=q, gamma=dense_gamma(q))
    return zip(*sample_trials(params, 20, seed=q * 100 + n))


@pytest.mark.parametrize("q,n,k,m", RANDOM_GRID)
def test_matches_brute_reference_on_random_instances(q, n, k, m):
    f = make_field(q)
    for A, x in random_instances(q, n, k, m):
        y = matvec(f, A, x)
        res = decode_l0(f, A, y, k_max=k)
        ref_k, ref_sols = brute_decode(f, A, y, k)
        assert res.min_sparsity == ref_k
        assert len(res.solutions) == len(ref_sols)
        for got, want in zip(res.solutions, ref_sols):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("q,n,k,m", [(2, 7, 2, 2), (3, 5, 2, 2), (4, 4, 2, 3)])
def test_e0_implies_e_pointwise(q, n, k, m):
    f = make_field(q)
    params = ModelParams(n=n, k=k, m=m, q=q, gamma=dense_gamma(q))
    for A, x in zip(*sample_trials(params, 40, seed=q + n + m)):
        ev = error_events(f, A, x, k_max=k)
        if ev.e0_error:
            assert ev.e_error


def test_decoded_weight_never_exceeds_truth():
    f = make_field(3)
    params = ModelParams(n=6, k=3, m=2, q=3, gamma=dense_gamma(3))
    for A, x in zip(*sample_trials(params, 30, seed=17)):
        res = decode_l0(f, A, matvec(f, A, x), k_max=3)
        assert res.min_sparsity is not None
        assert res.min_sparsity <= np.count_nonzero(x)


def test_decode_is_deterministic():
    f = make_field(4)
    rng = np.random.default_rng(5)
    A = rng.integers(0, 4, size=(2, 5)).astype(np.int16)
    y = np.array([1, 2], dtype=np.int16)
    r1 = decode_l0(f, A, y, k_max=2)
    r2 = decode_l0(f, A, y, k_max=2)
    assert r1.status == r2.status and r1.min_sparsity == r2.min_sparsity
    assert all(np.array_equal(a, b) for a, b in zip(r1.solutions, r2.solutions))


def test_enumeration_cap_is_hard_error():
    f = make_field(4)
    A = np.zeros((2, 40), dtype=np.int16)
    with pytest.raises(EnumerationCapExceeded):
        decode_l0(f, A, np.zeros(2, dtype=np.int16), k_max=10)


# GF(3), m = 3, n = 4
WRONG_SHAPE_A = np.array([[1, 2, 0, 1], [0, 1, 1, 2], [2, 0, 1, 1]], dtype=np.int16)


@pytest.mark.parametrize("y", [[1], [1, 1], [1, 1, 1, 1], [[1, 1, 1]]])
def test_measurements_of_the_wrong_shape_rejected(y):
    # a length-1 y used to broadcast against all three rows and decode
    with pytest.raises(DimensionMismatch):
        decode_l0(make_field(3), WRONG_SHAPE_A, y, 2)


@pytest.mark.parametrize(
    "matrix,y", [(np.zeros(3, dtype=np.int16), np.zeros(3, dtype=np.int16)),
                 (np.zeros((2, 3, 4), dtype=np.int16), np.zeros(2, dtype=np.int16))],
    ids=["1-D", "stack"],
)
def test_decode_rejects_a_matrix_that_is_not_2d(matrix, y):
    # the length of y matches the first axis, so only the rank check stops these
    with pytest.raises(DimensionMismatch):
        decode_l0(make_field(3), matrix, y, 1)


@pytest.mark.parametrize(
    "matrix,x", [(np.zeros(4, dtype=np.int16), np.array([0, 1, 0, 0], dtype=np.int16)),
                 (np.zeros((2, 3, 4), dtype=np.int16), np.array([0, 1, 0, 0], dtype=np.int16)),
                 (WRONG_SHAPE_A, np.array([0, 1, 0], dtype=np.int16))],
    ids=["1-D", "stack", "short signal"],
)
def test_error_events_rejects_mismatched_shapes(matrix, x):
    with pytest.raises(DimensionMismatch):
        error_events(make_field(3), matrix, x, 1)


def test_error_events_rejects_signal_above_k_max():
    x = np.array([1, 1, 1, 0], dtype=np.int16)
    with pytest.raises(ValueError, match="k_max"):
        error_events(make_field(3), WRONG_SHAPE_A, x, 2)


def test_split_levels_match_brute_reference(monkeypatch):
    # n = 3, k = 3 over GF(32): chunks of 4096 words split each level-3
    # support's 31^3 value tuples by their leading values; chunks of 64
    # split level 2 too, where the singular matrices (row 3 = row 1 +
    # row 2) tie three weight-2 solutions
    f = make_field(32)
    rng = np.random.default_rng(32)
    instances = [(rng.integers(0, 32, size=(3, 3)), rng.integers(1, 32, size=3))]
    for _ in range(2):
        A = rng.integers(0, 32, size=(3, 3))
        A[2] = f.add_table[A[0], A[1]]
        x = np.zeros(3, dtype=np.int16)
        x[rng.choice(3, size=2, replace=False)] = rng.integers(1, 32, size=2)
        instances.append((A, x))
    statuses = set()
    for A, x in instances:
        A, x = A.astype(np.int16), x.astype(np.int16)
        y = matvec(f, A, x)
        ref_k, ref_sols = brute_decode(f, A, y, 3)
        exact = len(ref_sols) == 1 and np.array_equal(ref_sols[0], x)
        for chunk in (model._CHUNK_WORDS, 4096, 64):
            monkeypatch.setattr(model, "_CHUNK_WORDS", chunk)
            res = decode_l0(f, A, y, k_max=3)
            assert res.min_sparsity == ref_k
            assert [s.tolist() for s in res.solutions] == [s.tolist() for s in ref_sols]
            statuses.add((res.min_sparsity, res.status))
            # the decoder counts ties as errors, so e and e0 are one event
            ev = error_events(f, A, x, k_max=3)
            assert ev.e0_error == ev.e_error == (not exact)
    assert statuses == {(3, DecodeStatus.UNIQUE), (2, DecodeStatus.AMBIGUOUS)}


PRIME_GRID = [(13, 4, 2, 3), (13, 4, 2, 14), (251, 3, 1, 2), (251, 3, 1, 8)]


def prime_field_instances(q, n, k, m):
    """10 (A, x, random y) over GF(q) whose matrices are rank <= 2, the first half of the rows rank <= 1."""
    rng = np.random.default_rng(q * 100 + m)
    for _ in range(10):
        basis = rng.integers(0, q, size=(rng.integers(1, 3), n))
        mix = rng.integers(0, q, size=(m, len(basis)))
        mix[: m // 2, 1:] = 0
        A = (mix @ basis % q).astype(np.int16)
        x = np.zeros(n, dtype=np.int16)
        w = rng.integers(0, k + 1)
        x[rng.choice(n, size=w, replace=False)] = rng.integers(1, q, size=w)
        yield A, x, rng.integers(0, q, size=m).astype(np.int16)


@pytest.mark.parametrize("q,n,k,m", PRIME_GRID)
def test_matches_brute_reference_at_larger_prime_fields(q, n, k, m):
    # lanes of 5 bits at q = 13 and 9 at q = 251, so m = 14 and m = 8
    # take two words; every matrix's rows span at most two dimensions,
    # so ties happen at any m, and a random y is mostly infeasible.  The
    # first half of the rows, the first word, span at most one, so the
    # second word must be matched too
    f = make_field(q)
    statuses = set()
    for A, x, y_random in prime_field_instances(q, n, k, m):
        for y in (matvec(f, A, x), y_random):
            res = decode_l0(f, A, y, k_max=k)
            ref_k, ref_sols = brute_decode(f, A, y, k)
            assert res.min_sparsity == ref_k
            assert [s.tolist() for s in res.solutions] == [s.tolist() for s in ref_sols]
            statuses.add(res.status)
    assert statuses == set(DecodeStatus)


def test_measurements_outside_the_field_are_infeasible():
    # no candidate measures 32 or -1; packed into 5-bit lanes, 32 would
    # read as a 1 in the second lane, which x = e_1 measures
    f = make_field(13)
    A = np.eye(3, 4, dtype=np.int16)
    res = decode_l0(f, A, np.array([0, 1, 0], dtype=np.int16), k_max=1)
    assert res.status == DecodeStatus.UNIQUE
    for y in ([32, 0, 0], [-1, 0, 0], [0, 0, 13]):
        res = decode_l0(f, A, np.array(y, dtype=np.int16), k_max=1)
        assert res.status == DecodeStatus.INFEASIBLE and res.solutions == []


def test_error_events_peaks_no_higher_than_the_decoder():
    # n = 12, k = 3 over GF(16), m = 7: both sweep every level once,
    # and error_events holds the decoder's sweep and result and, beside
    # them, only x, y and the flags, for which 16 KiB is room
    f = make_field(16)
    rng = np.random.default_rng(16)
    A = rng.integers(0, 16, size=(7, 12)).astype(np.int16)
    x = np.zeros(12, dtype=np.int16)
    x[[2, 5, 9]] = rng.integers(1, 16, size=3)
    y = matvec(f, A, x)
    peaks = []
    for run in (lambda: decode_l0(f, A, y, k_max=3), lambda: error_events(f, A, x, k_max=3)):
        run()  # field tables outside the measurement
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert decode_l0(f, A, y, k_max=3).min_sparsity == 3
    assert peaks[1] <= peaks[0] + 16 * 1024, peaks


def test_measurements_are_screened_as_given():
    # an int16 cast would wrap 65537 and -65535 to 1 and truncate 1.5
    # to 1, each then decoding as y = [1, 2], which three weight-2
    # candidates measure; integer-valued floats are measurements
    f = make_field(5)
    A = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int16)
    res = decode_l0(f, A, np.array([1, 2]), k_max=2)
    assert res.status == DecodeStatus.AMBIGUOUS and len(res.solutions) == 3
    floats = decode_l0(f, A, np.array([1.0, 2.0]), k_max=2)
    assert floats.min_sparsity == res.min_sparsity and floats.status == res.status
    assert [s.tolist() for s in floats.solutions] == [s.tolist() for s in res.solutions]
    for y in ([65537, 2], [-65535, 2], [1.5, 2.0]):
        res = decode_l0(f, A, np.array(y), k_max=2)
        assert res.status == DecodeStatus.INFEASIBLE and res.solutions == [], y
    # integer dtypes are screened by their range, the others by value;
    # either way y is infeasible exactly where np.isin finds an entry
    # outside 0..q-1, and otherwise decodes as its int16 values
    cases = [
        np.array([1, 2], dtype=np.int8), np.array([-1, 2], dtype=np.int8),
        np.array([1, 5], dtype=np.int8), np.array([1, 2], dtype=np.uint8),
        np.array([255, 2], dtype=np.uint8), np.array([1, 2], dtype=np.int64),
        np.array([2**40 + 1, 2], dtype=np.int64), np.array([-(2**40), 2], dtype=np.int64),
        np.array([1, 2], dtype=np.uint64), np.array([2**64 - 1, 2], dtype=np.uint64),
        np.array([True, False]), np.array([True, True]),
        np.array([1, 2], dtype=object), np.array([1, 7], dtype=object),
        np.array([1, 2.5], dtype=object), np.array([1.0, 2.0]), np.array([1.5, 2.0]),
        np.array([5.0, 2.0]),
    ]
    for y in cases:
        res = decode_l0(f, A, y, k_max=2)
        if not np.isin(y, np.arange(5)).all():
            assert res.status == DecodeStatus.INFEASIBLE and res.solutions == [], y
            continue
        want = decode_l0(f, A, y.astype(np.int16), k_max=2)
        assert (res.status, res.min_sparsity) == (want.status, want.min_sparsity), y
        assert [s.tolist() for s in res.solutions] == [s.tolist() for s in want.solutions], y


@pytest.mark.parametrize("y", [[0, 1, 0], [32, 0, 0]])
def test_matrix_outside_the_field_raises_whatever_the_measurements(y):
    f = make_field(13)
    A = np.eye(3, 4, dtype=np.int16)
    A[0, 3] = 13
    with pytest.raises(ValueError, match="outside GF"):
        decode_l0(f, A, np.array(y, dtype=np.int16), k_max=1)


@pytest.mark.parametrize("q,n,k,m", RANDOM_GRID)
def test_error_events_match_brute_flags_on_random_instances(q, n, k, m):
    f = make_field(q)
    flags = set()
    for A, x in random_instances(q, n, k, m):
        ev = error_events(f, A, x, k_max=k)
        assert (ev.e0_error, ev.e_error) == brute_events(f, A, x), (A, x)
        flags.add(ev.e_error)
    assert flags == {False, True}


@pytest.mark.parametrize("q,n,k,m", PRIME_GRID)
def test_error_events_match_brute_flags_at_larger_prime_fields(q, n, k, m):
    f = make_field(q)
    flags = set()
    for A, x, _ in prime_field_instances(q, n, k, m):
        ev = error_events(f, A, x, k_max=k)
        assert (ev.e0_error, ev.e_error) == brute_events(f, A, x), (A, x)
        flags.add(ev.e_error)
    assert flags == {False, True}


def test_error_events_match_brute_flags_on_tied_instance():
    f = make_field(2)
    A = np.array([[1, 1]], dtype=np.int16)
    x = np.array([1, 0], dtype=np.int16)
    ev = error_events(f, A, x, k_max=1)
    assert (ev.e0_error, ev.e_error) == brute_events(f, A, x) == (True, True)


@pytest.mark.parametrize("weight", [0, 1, 2])
def test_error_events_sweep_once_up_to_the_weight_of_x(monkeypatch, weight):
    # k_max = 3 is above every weight(x) here, so a sweep to k_max shows
    calls = []

    class Spy(model._ColumnTable):
        def levels(self, k_max, targets):
            calls.append(k_max)
            return super().levels(k_max, targets)

    monkeypatch.setattr(decoder, "_ColumnTable", Spy)
    f = make_field(3)
    A = np.array([[1, 2, 0, 1], [0, 1, 1, 2]], dtype=np.int16)
    x = np.zeros(4, dtype=np.int16)
    x[:weight] = 2
    error_events(f, A, x, k_max=3)
    assert calls == [weight]


def count_rule(f, A, x):
    """(e0, e) from the hit counts of the scan of A x up to weight(x): its first level below weight(x), or two hits or more."""
    k1 = int(np.count_nonzero(x))
    y = model.pack_measurements(f, matvec(f, A, x))
    counts = [len(hits) for _, hits in model.measure_levels(f, A, k1, y)]
    first = next(w for w, c in enumerate(counts) if c)
    error = first < k1 or counts[first] >= 2
    return error, error


# (q, A, x, flags): a lighter feasible member (column 2 = column 0 + column
# 1), a tie at weight(x) (two equal columns), a unique x, and x = 0 beside
# a zero column, whose weight-1 members also measure 0
PLANTED_EVENTS = [
    (3, [[1, 2, 0, 1], [0, 1, 1, 2]], [0, 0, 0, 0], (False, False)),
    (3, [[1, 0, 1, 2], [0, 1, 1, 1]], [1, 1, 0, 0], (True, True)),
    (5, [[1, 3, 3, 0], [2, 4, 4, 1]], [0, 2, 0, 0], (True, True)),
    (5, [[1, 0, 0, 2], [0, 1, 0, 3], [0, 0, 1, 4]], [0, 3, 1, 0], (False, False)),
    (4, [[1, 0, 0], [0, 0, 1]], [0, 0, 0], (False, False)),
]


@pytest.mark.parametrize("q,A,x,flags", PLANTED_EVENTS)
def test_error_events_read_flags_off_hit_counts(monkeypatch, q, A, x, flags):
    # both flags come from the hit counts of the scan, the rule that
    # montecarlo._error_flags applies, and match brute_events; no member
    # is unranked or compared with x
    def refuse(*args):
        raise AssertionError("error_events unranked a member")

    monkeypatch.setattr(decoder, "level_members", refuse)
    f = make_field(q)
    A, x = np.array(A, dtype=np.int16), np.array(x, dtype=np.int16)
    ev = error_events(f, A, x, k_max=int(np.count_nonzero(x)) + 1)
    assert (ev.e0_error, ev.e_error) == count_rule(f, A, x) == brute_events(f, A, x) == flags


@pytest.mark.parametrize("q,n,k,m", RANDOM_GRID + [(13, 4, 2, 3), (16, 4, 2, 3)])
def test_error_events_match_the_count_rule_on_random_instances(monkeypatch, q, n, k, m):
    def refuse(*args):
        raise AssertionError("error_events unranked a member")

    monkeypatch.setattr(decoder, "level_members", refuse)
    f = make_field(q)
    flags = set()
    for A, x in random_instances(q, n, k, m):
        ev = error_events(f, A, x, k_max=k)
        assert (ev.e0_error, ev.e_error) == count_rule(f, A, x) == brute_events(f, A, x), (A, x)
        flags.add(ev.e_error)
    assert flags == {False, True}


def test_error_events_raise_where_the_scan_misses_x(monkeypatch):
    # x measures A x, so a scan with no hit at or below weight(x) is a
    # fault of the kernel, never an error flag
    class Miss(model._ColumnTable):
        def levels(self, k_max, targets):
            return ((w, np.zeros(0, dtype=np.int64)) for w in range(k_max + 1))

    monkeypatch.setattr(decoder, "_ColumnTable", Miss)
    A = np.array([[1, 2, 0], [0, 1, 1]], dtype=np.int16)
    with pytest.raises(RuntimeError, match="missed x"):
        error_events(make_field(3), A, np.array([0, 2, 0], dtype=np.int16), k_max=2)


def count_entry_checks(monkeypatch):
    """The list of calls of model._check_entries, through model and the name decoder imports."""
    calls, check = [], model._check_entries

    def counted(q, *arrays):
        calls.append(len(arrays))
        return check(q, *arrays)

    monkeypatch.setattr(model, "_check_entries", counted)
    monkeypatch.setattr(decoder, "_check_entries", counted)
    return calls


CHECK_A = np.array([[1, 2, 0, 3], [0, 1, 1, 4]], dtype=np.int16)
CHECK_X = np.array([0, 2, 0, 1], dtype=np.int16)
# each takes GF(5) and y = A x, measured before the count
ENTRY_CALLS = {
    "decode_l0": lambda f, y: decode_l0(f, CHECK_A, y, k_max=2),
    "decode_l0-y-outside": lambda f, y: decode_l0(f, CHECK_A, np.array([7, 0]), k_max=2),
    "error_events": lambda f, y: error_events(f, CHECK_A, CHECK_X, k_max=2),
    "measure_levels": lambda f, y: list(model.measure_levels(f, CHECK_A, 2, model.pack_measurements(f, y))),
    "matvec": lambda f, y: matvec(f, CHECK_A, CHECK_X),
}


@pytest.mark.parametrize("call", list(ENTRY_CALLS))
def test_each_public_call_checks_its_arrays_once(monkeypatch, call):
    # the public call that receives an array checks it; the scan it
    # builds (model._ColumnTable) trusts it and checks nothing again
    f = make_field(5)
    y = matvec(f, CHECK_A, CHECK_X)
    calls = count_entry_checks(monkeypatch)
    ENTRY_CALLS[call](f, y)
    assert len(calls) == 1, calls


@pytest.mark.parametrize("trials", [1, 7, 1000])
def test_monte_carlo_blocks_and_the_column_table_check_nothing(monkeypatch, trials):
    # trials are drawn in 0..q-1, so no block is checked, in one block or
    # several (400 trials a block here)
    calls = count_entry_checks(monkeypatch)
    run_trials(ModelParams(n=10, k=2, m=6, q=4, gamma=0.5), trials, seed=3)
    model._ColumnTable(make_field(4), np.ones((2, 6, 10), dtype=np.int16))
    assert calls == []


@pytest.mark.parametrize("x", [[1.0, 0.0, 0.0], [True, False, False]], ids=["float", "bool"])
def test_error_events_reject_a_non_integer_signal(x):
    # an in-range float or bool x raised IndexError in the table gather
    A = np.array([[1, 2, 0], [0, 1, 1]], dtype=np.int16)
    with pytest.raises(ValueError, match="GF"):
        error_events(make_field(5), A, np.array(x), 2)


def test_decode_rejects_a_float_matrix():
    # in-range float entries reached np.take in the column table and raised TypeError
    A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="GF"):
        decode_l0(make_field(5), A, np.array([1, 2], dtype=np.int16), k_max=2)
