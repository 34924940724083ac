"""Empirical verification harness for the analytic bounds.

Samples (matrix, signal) instances at desk scale, detects both error
events exactly against the full candidate set, and reports rates with
Wilson 95% intervals alongside the analytic union and converse bounds.

Reproducibility scheme: trial i draws from
``numpy.random.default_rng(SeedSequence(seed).spawn(trials)[i])``, i.e.
a child stream keyed by the trial index.  Within a trial the draw order
is fixed: matrix zero-mask uniforms, matrix nonzero values, then the
signal index (uniform over the canonical enumeration of L).  Over
GF(2) the nonzero values are all 1: numpy's integers(1, 2) returns that
constant without consuming a bit of the stream, so the draw is not made
and the order of the other draws is unchanged.  Trials are
therefore independent of evaluation order and safe to parallelize.  The
seed may be any non-negative integer.  This is the library's one draw
of instances: sample_trials(params, trials, seed) returns as int16
arrays the matrices and signals that run_trials(params, trials, seed)
measures and `ffcs simulate --seed seed --dump` writes.

Child seeds are computed, not spawned.  A child SeedSequence hashes the
seed's words exactly as SeedSequence(seed) does, then mixes in the
trial index as spawn-key words.  numpy builds the parent, validating the
seed and computing its pool; _child_seed_words mixes the spawn keys of a
whole window of trial indices into that pool in numpy uint32 arithmetic,
and _SeedWords hands each row to PCG64, so no SeedSequence object is
built per trial.  The tests pin the rows to numpy's own spawn, for spawn
keys past 2**32 and seeds past the pool's 4 words.

Draws are read raw, not through a Generator per trial.  Each trial's
PCG64 emits, in one random_raw call, the D words its draws consume, and
numpy's Generator maps are applied to a block of such rows at once:
random() is (word >> 11) * 2**-53, so the zero mask is one integer
comparison of the words; integers(1, q, dtype=int16) is Lemire's
multiply-shift of 16-bit halves of the following uint32 halves, low
first; integers(0, |L|) is Lemire's map of the next uint32.  A Lemire
step that would reject makes numpy draw again and shifts every later
draw, so such a trial is drawn again, whole, through Generator on its
seed words: about 0.4 % of trials reject a value at q = 7 and m n = 60,
and about 2 % reject the rank near |L| = 10^8.  The tests pin the raw
path to numpy's own spawn and default_rng, rejections included, and
guard the maps themselves against a numpy that changes them.

Trials are drawn, measured and flagged in blocks of t trials, t sized
so that t x m x max(|L|, q n) is at most _BLOCK_ELEMS.  That bounds the
block's (t x m x n) draws and, with room to spare, its sweep's t x |L|
comparisons, so memory depends on the configuration, not on the trials.
_trial_blocks is the one stream of those blocks; run_trials hands each
measured block to its on_block callback, through which `ffcs simulate
--dump` writes the trials it measured.

The error flags of a block come from one sweep of model.measure_levels'
kernel, the decoder's: it compares every trial matrix of the block
with all of L at once, each candidate's m measurements by a matrix
packed into one word (or a few, beyond 64 bits), and lays the trials'
words innermost whenever they outnumber the q - 1 values.  A trial's
target is its signal's measurement, summed from the sweep's own table
of scaled columns at the signal's unranked support and values, and
the sweep yields each level's feasible (candidate, trial) pairs, never
t x m x |L| values.  The sweep enumerates L sparsity-major, a level at
a time, so the flags follow from each level's count of feasible
candidates per trial, and a signal is just its rank:
candidate_matrix builds L as rows only for sample_trials and
run_trials' on_block, which read the signals.  The flags are the two
predicates decoder.error_events reads off the decoder's sweep, here
read off each level's counts, and the test suite pins the two against
each other, trial by trial, on sampled instances.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bounds import fano_lower_bound, row_zero_prob_sparse, union_bound
from .field import FiniteField, make_field
from .model import ModelParams, _ColumnTable, candidate_matrix, check_enumeration_cap
from .model import level_starts, measure_candidates, unpack_measurements
from .util import wilson_interval

# a block spans at most this many (trial, row, candidate) triples
_BLOCK_ELEMS = 1 << 20
# _sample_trials maps at most this many raw PCG64 words (or one trial's)
# to draws at a time, so the words and their copies take less memory
# than a block's float64 uniforms would
_RAW_WORDS = 1 << 13

# numpy.random.SeedSequence's hash constants (uint32 words)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


@dataclass(frozen=True)
class TrialReport:
    """Aggregate of a Monte Carlo run; reconstructible from (params, trials, seed)."""

    params: ModelParams
    trials: int
    e0_errors: int
    e_errors: int
    e0_rate: float
    e_rate: float
    e0_ci_low: float
    e0_ci_high: float
    e_ci_low: float
    e_ci_high: float
    inclusion_violations: int  # trials flagged e0 but not e; must be 0
    union_bound_log: float
    union_bound_value: float  # capped into [0, 1]
    fano_value: float
    seed: int


@dataclass(frozen=True)
class NullityReport:
    """Empirical annihilation frequencies for two equal-weight vectors."""

    q: int
    n: int
    m: int
    gamma: float
    h: int
    trials: int
    hits_1: int
    hits_2: int
    rate_1: float
    rate_2: float
    ci_1: tuple[float, float]
    ci_2: tuple[float, float]
    analytic: float  # single-row nullity probability to the m-th power
    rates_consistent: bool  # the two empirical CIs overlap
    matches_analytic: bool  # analytic value inside both CIs
    seed: int


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix from hash constant const: each call advances it once."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        nxt = const * mult & _M32
        value = (value ^ np.uint32(const)) * np.uint32(nxt)
        const = nxt
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return r ^ (r >> np.uint32(16))


def _child_seed_words(seed: int, start: int, stop: int) -> np.ndarray:
    """PCG64 seed words of child streams start..stop-1 of SeedSequence(seed).

    Row i - start equals
    ``SeedSequence(seed).spawn(stop)[i].generate_state(4, np.uint64)``.
    A child's pool starts as the parent's, SeedSequence(seed).pool, and
    then mixes in each spawn-key word of i: one word below 2**32, two
    above.  The arithmetic is SeedSequence's, on uint32 arrays (which
    wrap like its words).
    """
    parent = np.random.SeedSequence(seed)
    size = parent.pool_size
    # the parent's pool took size * max(size, seed words) hashes
    n_words = max(size, -(-int(seed).bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, size * n_words, 1 << 32) & _M32
    index = np.arange(start, stop, dtype=np.uint64)
    out = np.empty((index.size, 4), dtype=np.uint64)
    for sel, n_key in ((index < 2**32, 1), (index >= 2**32, 2)):
        if not sel.any():
            continue
        pool = list(parent.pool[:, None])
        hashmix = _hasher(const, _MULT_A)
        for j in range(n_key):
            word = (index[sel] >> np.uint64(32 * j) & np.uint64(_M32)).astype(np.uint32)
            for dst in range(size):
                pool[dst] = _mix(pool[dst], hashmix(word))
        hashmix = _hasher(_INIT_B, _MULT_B)
        state = [hashmix(pool[i % size]).astype(np.uint64) for i in range(8)]
        for j in range(4):
            out[sel, j] = state[2 * j] | state[2 * j + 1] << np.uint64(32)
    return out


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 one precomputed row of _child_seed_words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 passes np.uint64 itself; the identity test skips np.dtype()
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("only PCG64's request, generate_state(4, uint64), is served")
        return self.words


def _raw_width(params: ModelParams, n_candidates: int) -> int:
    """Raw PCG64 words one trial's draws consume when no Lemire step rejects.

    One word per uniform; over GF(q > 2) one uint32 per two int16
    values, two uint32 per word; and one uint32 for the signal rank
    when |L| > 1, which is the buffered high half of the last value
    word when the values took an odd number of uint32, else the low
    half of a word of its own.
    """
    cells = params.m * params.n
    halves = (cells + 1) // 2 if params.q > 2 else 0
    fresh_rank_word = n_candidates > 1 and halves % 2 == 0
    return cells + (halves + 1) // 2 + fresh_rank_word


def _from_raw(
    params: ModelParams, n_candidates: int, raw: np.ndarray, mats: np.ndarray, idx: np.ndarray
) -> np.ndarray:
    """Map a (t, D) block of raw words to matrices and ranks as numpy's Generator would.

    Writes the (t, m, n) matrices into ``mats`` and the signal ranks
    into ``idx``, and returns the trials whose Lemire step would have
    rejected, where numpy draws again and every later draw moves: those
    rows of mats and idx are not the trial's and must be redrawn.
    """
    t, cells, q = len(raw), params.m * params.n, params.q
    if q > 2**15 or n_candidates > 2**32:
        # int16 has no room for the values (the Generator raises), or
        # the rank is a 64-bit Lemire draw: all left to the Generator
        return np.ones(t, dtype=bool)
    out = mats.reshape(t, cells)
    redraw = np.zeros(t, dtype=bool)
    # Generator.random: (word >> 11) * 2**-53, exact, so the entry is
    # nonzero where word >> 11 < ceil(gamma 2**53), gamma in (0, 1]
    nonzero = raw[:, :cells] <= np.uint64((math.ceil(params.gamma * 2**53) << 11) - 1)
    halves = 0
    if q > 2:
        # integers(1, q, dtype=int16): 1 + (u16 (q - 1) >> 16), u16 the
        # low then high 16 bits of each uint32, the uint32 the low then
        # high half of each word (the order of a little-endian view);
        # rejects where the low 16 bits of the product fall below
        # 2**16 mod (q - 1)
        halves = (cells + 1) // 2
        words = raw[:, cells : cells + (halves + 1) // 2]
        u16 = words.astype("<u8", copy=False).view("<u2")[:, :cells]
        scaled = np.multiply(u16, np.uint32(q - 1), dtype=np.uint32)
        reject = scaled.astype(np.uint16) < 2**16 % (q - 1)
        if reject.any():
            redraw |= reject.any(axis=1)
        scaled >>= np.uint32(16)
        np.add(scaled, 1, out=out, casting="unsafe")
        out *= nonzero
    else:
        out[...] = nonzero
    if n_candidates > 1:
        # integers(0, |L|): u32 |L| >> 32, rejecting where the low 32
        # bits fall below 2**32 mod |L|
        if halves % 2:
            u32 = raw[:, cells + halves // 2] >> np.uint64(32)
        else:
            u32 = raw[:, -1] & np.uint64(_M32)
        scaled = u32 * np.uint64(n_candidates)
        np.right_shift(scaled, np.uint64(32), out=idx, casting="unsafe")
        redraw |= (scaled & np.uint64(_M32)) < np.uint64(2**32 % n_candidates)
    else:
        idx[:] = 0
    return redraw


def _generator_draws(params: ModelParams, words: np.ndarray, n_candidates: int):
    """One trial's matrix and signal rank through numpy's Generator on its seed words."""
    shape = (params.m, params.n)
    rng = np.random.Generator(np.random.PCG64(_SeedWords(words)))
    zero = rng.random(shape) >= params.gamma
    values = rng.integers(1, params.q, size=shape, dtype=np.int16) if params.q > 2 else 1
    return np.where(zero, 0, values), rng.integers(0, n_candidates)


def _sample_trials(
    params: ModelParams, stop: int, seed: int, n_candidates: int, start: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the matrices and signal indices of trials start..stop-1.

    Each trial draws from its own child stream, so a window holds the
    same draws whatever the windows around it.  A trial's stream is read
    as raw words, D = _raw_width of them in one random_raw call, into a
    row of a block of at most _RAW_WORDS words; _from_raw then applies
    numpy's own Generator maps to the whole block.  A trial whose value
    or rank draw would reject in numpy's Lemire step is drawn again,
    whole, through Generator on its seed words; where 2**16 mod (q - 1)
    and 2**32 mod |L| are 0 (q = 3 or 5, |L| a power of two) none can.
    Over GF(2) the value draw, integers(1, 2), is the constant 1 and
    consumes no bits of the stream, so it is not made: every nonzero
    entry is 1 and the rank reads the word after the uniforms.
    """
    words = _child_seed_words(seed, start, stop)
    mats = np.empty((len(words), params.m, params.n), dtype=np.int16)
    idx = np.empty(len(words), dtype=np.int64)
    width = _raw_width(params, n_candidates)
    step = max(1, _RAW_WORDS // width)
    for lo in range(0, len(words), step):
        rows = words[lo : lo + step]
        raw = np.empty((len(rows), width), dtype=np.uint64)
        for i, w in enumerate(rows):
            raw[i] = np.random.PCG64(_SeedWords(w)).random_raw(width)
        redraw = _from_raw(params, n_candidates, raw, mats[lo : lo + step], idx[lo : lo + step])
        for i in np.flatnonzero(redraw):
            mats[lo + i], idx[lo + i] = _generator_draws(params, rows[i], n_candidates)
    return mats, idx


def _trial_blocks(params: ModelParams, trials: int, seed: int, n_candidates: int):
    """Yield (start, mats, idx) for consecutive windows of the trials 0..trials-1.

    A window of t trials keeps t x m x width at most _BLOCK_ELEMS, width
    the larger of the candidate count and q n.  That bounds the window's
    (t, m, n) draws and, with room to spare, its sweep's |L| x t
    comparisons and the (q - 1, t, m, n) scaled entries that pack into
    the words of its matrices.
    """
    width = max(n_candidates, params.q * params.n)
    block = max(1, _BLOCK_ELEMS // (params.m * width))
    for start in range(0, trials, block):
        mats, idx = _sample_trials(params, min(start + block, trials), seed, n_candidates, start)
        yield start, mats, idx


def sample_trials(params: ModelParams, trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The (trials, m, n) matrices and (trials, n) signals of trials 0..trials-1, as int16.

    These are the instances run_trials(params, trials, seed) measures,
    drawn from the same per-trial streams.  Raises
    EnumerationCapExceeded if |L| is above model.ENUMERATION_CAP (10^8
    candidates), since a signal is an index into all of L.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cands, _ = candidate_matrix(params.n, params.k, params.q)
    mats, idx = _sample_trials(params, trials, seed, cands.shape[0])
    return mats, cands[idx]


def _error_flags(
    field: FiniteField, mats: np.ndarray, idx: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """e0 flags, e flags and (t, m) measurements of trials whose signals are at ranks idx of L.

    One level sweep (model.measure_levels' kernel) compares all of L,
    by every matrix of the block, with the trial's own measurement,
    packed into words: the signal is unranked and its scaled columns
    read from the sweep's own table and summed.  Its hits r * t + i,
    counted by trial i, are each level's feasible candidates
    (``offsets``, from model.level_starts, says where each level
    starts).  With k1 the signal's level and j the first level holding
    a feasible candidate (j <= k1, since the signal itself is feasible):
      e  : j < k1, or at least two feasible candidates at level k1;
      e0 : j < k1, or at least two feasible candidates at level j.
    """
    t, m = mats.shape[:2]
    trial = np.arange(t)
    k1 = np.searchsorted(offsets, idx, side="right") - 1
    columns = _ColumnTable(field, mats)
    signal = columns.member_words(k1, idx - offsets[k1])
    counts = np.zeros((t, len(offsets)), dtype=np.int64)
    for w, hits in columns.levels(len(offsets) - 1, signal):
        counts[:, w] = np.bincount(hits % t, minlength=t)
    first = (counts > 0).argmax(axis=1)
    lighter = first < k1
    e_flags = lighter | (counts[trial, k1] >= 2)
    e0_flags = lighter | (counts[trial, first] >= 2)
    return e0_flags, e_flags, unpack_measurements(field, signal, m)


def run_trials(
    params: ModelParams,
    trials: int,
    seed: int,
    on_block: Callable[[int, np.ndarray, np.ndarray, np.ndarray], None] | None = None,
) -> TrialReport:
    """Estimate both error probabilities over `trials` sampled instances.

    Per trial: draw a matrix and a uniform signal from L, measure, and
    flag e0 (decoder output differs from the truth, ambiguity included)
    and e (a candidate no heavier than the truth collides with it).  A
    zero error count is reported as-is; the Wilson interval then has a
    one-sided shape with its lower edge at 0.  Raises
    EnumerationCapExceeded if |L| is above model.ENUMERATION_CAP (10^8
    candidates).

    ``on_block``, if given, is called once per block of trials as
    on_block(start, mats, signals, y): trial start + i drew the matrix
    mats[i] and the signal signals[i] and measured y[i].  Only then is
    all of L built, as candidate_matrix's (|L|, n) rows.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    field = make_field(params.q)
    n_cand = check_enumeration_cap(params.n, params.k, params.q)
    offsets = level_starts(params.n, params.k, params.q)
    cands = None if on_block is None else candidate_matrix(params.n, params.k, params.q)[0]
    e0_errors = e_errors = violations = 0
    for start, mats, idx in _trial_blocks(params, trials, seed, n_cand):
        e0_flags, e_flags, y = _error_flags(field, mats, idx, offsets)
        e0_errors += int(e0_flags.sum())
        e_errors += int(e_flags.sum())
        violations += int((e0_flags & ~e_flags).sum())
        if on_block is not None:
            on_block(start, mats, cands[idx], y)

    e0_lo, e0_hi = wilson_interval(e0_errors, trials)
    e_lo, e_hi = wilson_interval(e_errors, trials)
    ub = union_bound(params)
    return TrialReport(
        params=params,
        trials=trials,
        e0_errors=e0_errors,
        e_errors=e_errors,
        e0_rate=e0_errors / trials,
        e_rate=e_errors / trials,
        e0_ci_low=e0_lo,
        e0_ci_high=e0_hi,
        e_ci_low=e_lo,
        e_ci_high=e_hi,
        inclusion_violations=violations,
        union_bound_log=ub.log_value,
        union_bound_value=ub.capped_linear,
        fano_value=fano_lower_bound(params.n, params.k, params.q, params.m),
        seed=seed,
    )


def _pick_weight_h_vectors(n: int, q: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Two distinct weight-h vectors, deterministically.

    First vector: ones on positions 0..h-1.  Second: ones on the support
    shifted by one position when h < n; with full support (h = n, needs
    q > 2) the first entry becomes 2 instead.
    """
    if not 1 <= h <= n:
        raise ValueError("h must lie in [1, n]")
    d1 = np.zeros(n, dtype=np.int16)
    d1[:h] = 1
    d2 = np.zeros(n, dtype=np.int16)
    if h < n:
        d2[1 : h + 1] = 1
    else:
        if q <= 2:
            raise ValueError("no two distinct full-weight vectors exist over GF(2)")
        d2[:] = 1
        d2[0] = 2
    return d1, d2


def equal_weight_nullity_test(
    field: FiniteField,
    n: int,
    m: int,
    gamma: float,
    h: int,
    trials: int,
    seed: int,
) -> NullityReport:
    """Check that annihilation probability depends only on vector weight.

    Estimates P(A d = 0) for two distinct weight-h vectors over sampled
    matrices, confirms the two empirical rates are compatible, and
    compares both against the analytic single-row value raised to the
    m-th power.
    """
    d1, d2 = _pick_weight_h_vectors(n, field.q, h)
    params = ModelParams(n=n, k=min(h, n), m=m, q=field.q, gamma=gamma)
    pair = np.stack([d1, d2])
    hits_1 = hits_2 = 0
    for _, mats, _ in _trial_blocks(params, trials, seed, len(pair)):
        null = (measure_candidates(field, mats, pair) == 0).all(axis=1)  # (t, 2)
        hits_1 += int(null[:, 0].sum())
        hits_2 += int(null[:, 1].sum())
    ci_1 = wilson_interval(hits_1, trials)
    ci_2 = wilson_interval(hits_2, trials)
    analytic = row_zero_prob_sparse(field.q, gamma, h).linear ** m
    return NullityReport(
        q=field.q,
        n=n,
        m=m,
        gamma=gamma,
        h=h,
        trials=trials,
        hits_1=hits_1,
        hits_2=hits_2,
        rate_1=hits_1 / trials,
        rate_2=hits_2 / trials,
        ci_1=ci_1,
        ci_2=ci_2,
        analytic=analytic,
        rates_consistent=ci_1[0] <= ci_2[1] and ci_2[0] <= ci_1[1],
        matches_analytic=(ci_1[0] <= analytic <= ci_1[1])
        and (ci_2[0] <= analytic <= ci_2[1]),
        seed=seed,
    )
