"""Empirical verification harness for the analytic bounds.

Samples (matrix, signal) instances at desk scale, detects both error
events exactly against the full candidate set, and reports rates with
Wilson 95% intervals (util.wilson_interval) alongside the analytic union
and converse bounds.  The row-nullity law those bounds rest on is
checked exactly by bounds.convolution_oracle, and by Monte Carlo in the
tests over sample_trials' matrices.

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
seed's words exactly as SeedSequence(seed) does, then mixes in the trial
index as spawn-key words.  numpy builds the parent, validating the seed
and computing its pool; _child_seed_words mixes the spawn keys of a
whole window of trial indices into that pool in numpy uint32 arithmetic,
so no SeedSequence object is built per trial; _SeedWords hands a row to
numpy's own PCG64 where a trial is drawn through Generator.  The tests
pin the rows to numpy's own spawn, for spawn keys past 2**32 and seeds
past the pool's 4 words.

Draws are read raw, not asked of a Generator per trial.  For small
matrices, a group of trials is stepped as uint64 arrays, mapped word by
word.  Each trial's PCG64 (O'Neill 2014; its 128-bit LCG and XSL-RR
output are part of numpy's fixed bit stream, not a Generator algorithm)
is one lane of _PCG64Lanes, seeded from its _child_seed_words row as
numpy's pcg64_set_seed does, and each step is one multiply-add mod
2**128 on (high, low) uint64 arrays for the whole group.  A step costs
about 30 numpy calls however many lanes it steps, and a lane's word
several times a word of numpy's own random_raw, so the lanes are the
faster draw only for many trials of few words each; otherwise a trial
builds its PCG64 and reads, in one random_raw call, the D words its
draws consume (_as_lanes chooses; every byte is the same either way).
The words are mapped by numpy's own Generator maps: random() is
(word >> 11) * 2**-53, so the zero mask is one integer comparison of the
words; integers(1, q, dtype=int16) is Lemire's multiply-shift of 16-bit
halves of the following uint32 halves, low first; integers(0, |L|) is
Lemire's map of the next uint32.  Lanes map each word as it is
produced, so no (trials, words) block of raw words is built.  A Lemire
step that would reject makes numpy draw again and shifts every later
draw, so such a trial is drawn again, whole, through Generator on its
seed words: about 0.4 % of trials reject a value at q = 7 and m n = 60,
and about 2 % reject the rank near |L| = 10^8.  The tests pin the lanes
to numpy's random_raw and both draws to numpy's own spawn and
default_rng, rejections included, and guard the maps themselves against
a numpy that changes them.

Trials are drawn a window at a time and measured and flagged in blocks
of t trials, t sized so that t x m x max(|L|, q n) is at most
_BLOCK_ELEMS.  That bounds the block's (t x m x n) draws and, with room
to spare, its sweep's t x |L| comparisons, so memory depends on the
configuration, not on the trials.  A window is as many whole blocks as
hold at most _WINDOW_TRIALS trials and _BLOCK_ELEMS matrix entries, or
one block, so that a q = 4 block of 400 trials does not pay a lane
step's calls alone.  _trial_blocks is the one stream of those blocks;
run_trials hands each measured block to its on_block callback, through
which `ffcs simulate --dump` writes the trials it measured.

The error flags of a block come from one scan by model.measure_levels'
kernel, the decoder's: it compares every trial matrix of the block
with all of L at once, each candidate's m measurements by a matrix
packed into one word (or a few, beyond 64 bits), and lays the trials'
words innermost whenever they outnumber the q - 1 values.  Levels 0
and 1 of every block are read off the trials' targets and the
kernel's goal table, where a target or a target less a scaled column
is zero, and from level 2 on a block of one trial, as where m |L|
passes 2^19, takes the kernel's join, which sorts level w - 1 instead
of comparing all of level w.  A trial's target is its signal's
measurement, summed from the kernel's own table of scaled columns at
the signal's unranked support and values, and the scan yields each
level's feasible (candidate, trial) pairs, never t x m x |L| values.
The scan enumerates L sparsity-major, a level at a time, so the flags
follow from each level's count of feasible candidates per trial, and a
signal is just its rank: candidate_matrix builds L as rows only for
sample_trials and run_trials' on_block, which read the signals.
decoder.error_events reads its flags off the counts of its one scan by
the same rule, and the test suite pins the two against each other,
trial by trial, on sampled instances.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bounds import fano_lower_bound, union_bound
from .field import FiniteField, make_field
from .model import ModelParams, _ColumnTable, candidate_matrix, check_enumeration_cap
from .model import level_starts, unpack_measurements
from .util import wilson_interval

# a block spans at most this many (trial, row, candidate) triples
_BLOCK_ELEMS = 1 << 20
# trials are drawn a window at a time: as many whole blocks as hold at
# most _WINDOW_TRIALS trials and _BLOCK_ELEMS matrix entries, or one
# block; a window's trials are drawn in groups of at most _WINDOW_TRIALS
_WINDOW_TRIALS = 1 << 12
# a group of t trials of D raw words each is stepped as t PCG64 lanes
# when D (t + _STEP_LANES) <= _SETUP_WORDS t, and else builds a PCG64
# per trial and reads its words by random_raw, about _RAW_WORDS words
# a group.  A lane step costs about 45 us of numpy calls, as much as
# stepping _STEP_LANES more lanes, and a PCG64 built per trial about
# as much as _SETUP_WORDS words stepped in lanes, less the words it
# reads natively (2-core Xeon VM, numpy 2.4): so 4,096 lanes are the
# faster draw up to D = 150, 1,024 up to D = 60
_STEP_LANES = 1 << 12
_SETUP_WORDS = 300
_RAW_WORDS = 1 << 13

# numpy's PCG64 (O'Neill 2014): state <- state * _PCG_MULT + inc mod
# 2**128, and each word is the XSL-RR output of the new state
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
_M64 = (1 << 64) - 1

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


def _as_lanes(width: int, t: int) -> bool:
    """Whether t trials of width raw words each are drawn as PCG64 lanes."""
    return width * (t + _STEP_LANES) <= _SETUP_WORDS * t


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc: tuple, buf: np.ndarray) -> None:
    """(hi, lo) <- (hi, lo) _PCG_MULT + inc mod 2**128, in place, on uint64 word arrays.

    ``inc`` is (high, low, low & M32, low >> 32), arrays that broadcast
    against hi, and ``buf`` four scratch arrays of hi's shape.  The
    high word of lo A_lo + inc_lo, A_lo the low word of _PCG_MULT,
    comes from 32-bit partial products with inc_lo's halves added in,
    so it carries the low word's sum; no partial sum reaches 2**64.
    """
    a, b, c, d = buf
    m32, s32 = np.uint64(_M32), np.uint64(32)
    m_lo = np.uint64(_PCG_MULT & _M64)
    m0, m1 = np.uint64(_PCG_MULT & _M32), np.uint64(_PCG_MULT >> 32 & _M32)
    np.bitwise_and(lo, m32, out=a)
    np.right_shift(lo, s32, out=b)
    np.multiply(a, m0, out=c)
    c += inc[2]
    c >>= s32
    np.multiply(b, m0, out=d)
    d += c
    d += inc[3]
    a *= m1
    np.bitwise_and(d, m32, out=c)
    a += c
    b *= m1
    d >>= s32
    b += d
    a >>= s32
    b += a  # the high word of lo A_lo + inc_lo
    hi *= m_lo
    np.multiply(lo, np.uint64(_PCG_MULT >> 64), out=a)
    hi += a
    hi += b
    hi += inc[0]
    lo *= m_lo
    lo += inc[1]


class _PCG64Lanes:
    """numpy's PCG64 of every trial of a group, stepped at once on uint64 arrays.

    Each trial's stream is a lane: its 128-bit state is a (high, low)
    pair of entries of two uint64 arrays, and every sum and product
    wraps in array arithmetic (numpy warns on scalar overflow, not on
    arrays).  take(n) returns the next n words of every trial, those
    ``np.random.PCG64(_SeedWords(w)).random_raw(...)`` returns, as a
    (t, n) array.
    """

    def __init__(self, words: np.ndarray):
        # numpy's pcg64_set_seed: words 0-1 are the initial state's high
        # and low words, 2-3 the stream id's, inc = (id << 1) | 1; then
        # srandom steps from 0 (to inc), adds the initial state and
        # steps again.  A word is the XSL-RR output of the next state.
        one = np.uint64(1)
        inc_lo = words[:, 3] << one | one
        self._inc = (words[:, 2] << one | words[:, 3] >> np.uint64(63), inc_lo,
                     inc_lo & np.uint64(_M32), inc_lo >> np.uint64(32))
        self._buf = np.empty((4, len(words)), dtype=np.uint64)
        self.lo = inc_lo + words[:, 1]
        self.hi = self._inc[0] + words[:, 0]
        self.hi += self.lo < inc_lo  # the low word's sum wrapped
        _pcg_step(self.hi, self.lo, self._inc, self._buf)

    def take(self, n: int) -> np.ndarray:
        out = np.empty((len(self.hi), n), dtype=np.uint64)
        x, r = self._buf[:2]
        for word in out.T:
            _pcg_step(self.hi, self.lo, self._inc, self._buf)
            # XSL-RR: (hi ^ lo) rotated right by the top 6 bits of hi;
            # numpy shifts a uint64 left by 64 to 0, so a rotation by 0
            # keeps x
            np.bitwise_xor(self.hi, self.lo, out=x)
            np.right_shift(self.hi, np.uint64(58), out=r)
            np.right_shift(x, r, out=word)
            np.subtract(np.uint64(64), r, out=r)
            x <<= r
            word |= x
        return out


def _raw_take(words: np.ndarray, width: int):
    """take(n) over the group's raw words, one random_raw call per trial."""
    raw = np.empty((len(words), width), dtype=np.uint64)
    for i, w in enumerate(words):
        raw[i] = np.random.PCG64(_SeedWords(w)).random_raw(width)
    taken = 0

    def take(n: int) -> np.ndarray:
        nonlocal taken
        taken += n
        return raw[:, taken - n : taken]

    return take


def _map_words(
    params: ModelParams, n_candidates: int, take, chunk: int, mats: np.ndarray, idx: np.ndarray
) -> np.ndarray:
    """Map a group's raw words to matrices and ranks as numpy's Generator would.

    ``take(c)`` returns the group's next c words of each trial as a
    (t, c) array, and is asked for at most ``chunk`` words at a time.
    Writes the (t, m, n) matrices into ``mats`` and the signal ranks
    into ``idx``, and returns the trials whose Lemire step would have
    rejected, where numpy draws again and every later draw moves: those
    rows of mats and idx are not the trial's and must be redrawn.
    """
    t, cells, q = len(idx), params.m * params.n, params.q
    out = mats.reshape(t, cells)
    # Generator.random: (word >> 11) * 2**-53, exact, so the entry is
    # nonzero where word >> 11 < ceil(gamma 2**53), gamma in (0, 1]
    below = np.uint64((math.ceil(params.gamma * 2**53) << 11) - 1)
    for j in range(0, cells, chunk):
        c = min(chunk, cells - j)
        np.less_equal(take(c), below, out=out[:, j : j + c])
    redraw = np.zeros(t, dtype=bool)
    halves = 0
    if q > 2:
        # integers(1, q, dtype=int16): 1 + (u16 (q - 1) >> 16), u16 the
        # low then high 16 bits of each uint32, the uint32 the low then
        # high half of each word (the order of a little-endian view);
        # rejects where the low 16 bits of the product fall below
        # 2**16 mod (q - 1)
        halves, n_words = (cells + 1) // 2, (cells + 3) // 4
        for j in range(0, n_words, chunk):
            value_words = take(min(chunk, n_words - j))
            u16 = value_words.astype("<u8", copy=False).view("<u2")[:, : cells - 4 * j]
            scaled = np.multiply(u16, np.uint32(q - 1), dtype=np.uint32)
            reject = scaled.astype(np.uint16) < 2**16 % (q - 1)
            if reject.any():
                redraw |= reject.any(axis=1)
            values = (scaled >> np.uint32(16)).astype(np.int16)
            values += np.int16(1)
            out[:, 4 * j : 4 * j + values.shape[1]] *= values
    if n_candidates > 1:
        # integers(0, |L|): u32 |L| >> 32, rejecting where the low 32
        # bits fall below 2**32 mod |L|; u32 is the buffered high half of
        # the last value word when the values took an odd number of
        # uint32, else the low half of a word of its own
        if halves % 2:
            u32 = value_words[:, -1] >> np.uint64(32)
        else:
            u32 = take(1)[:, 0] & np.uint64(_M32)
        u32 *= np.uint64(n_candidates)
        np.right_shift(u32, np.uint64(32), out=idx, casting="unsafe")
        redraw |= (u32 & np.uint64(_M32)) < np.uint64(2**32 % n_candidates)
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
    same draws whatever the windows around it.  The trials are drawn in
    groups, and each group's raw words are mapped by numpy's own
    Generator maps (_map_words), so no (trials, words) block of raw
    words is built.  A group of up to _WINDOW_TRIALS trials is stepped
    as uint64 arrays, one PCG64 lane per trial (_PCG64Lanes), where
    _as_lanes finds that faster for its size and the trials' D raw
    words; else a group of about _RAW_WORDS words' trials builds a
    PCG64 per trial and reads its D words in one random_raw call.  A
    trial whose value or rank draw would reject in numpy's Lemire step
    is drawn again, whole, through Generator on its seed words; where
    2**16 mod (q - 1) and 2**32 mod |L| are 0 (q = 3 or 5, |L| a power
    of two) none can.  So are all trials when q > 2**15 (int16 has no
    room for the values and Generator raises) or |L| > 2**32 (the rank
    is a 64-bit Lemire draw).  Over GF(2) the value draw,
    integers(1, 2), is the constant 1 and consumes no bits of the
    stream, so it is not made: every nonzero entry is 1 and the rank
    reads the word after the uniforms.
    """
    words = _child_seed_words(seed, start, stop)
    mats = np.empty((len(words), params.m, params.n), dtype=np.int16)
    idx = np.empty(len(words), dtype=np.int64)
    redraw = np.ones(len(words), dtype=bool)
    if params.q <= 2**15 and n_candidates <= 2**32:
        width, lo = _raw_width(params, n_candidates), 0
        while lo < len(words):
            t = min(len(words) - lo, _WINDOW_TRIALS)
            if _as_lanes(width, t):
                take, chunk = _PCG64Lanes(words[lo : lo + t]).take, 1
            else:
                t = min(t, max(1, _RAW_WORDS // width))
                take, chunk = _raw_take(words[lo : lo + t], width), width
            group = slice(lo, lo + t)
            redraw[group] = _map_words(params, n_candidates, take, chunk, mats[group], idx[group])
            lo += t
    for i in np.flatnonzero(redraw):
        mats[i], idx[i] = _generator_draws(params, words[i], n_candidates)
    return mats, idx


def _trial_blocks(params: ModelParams, trials: int, seed: int, n_candidates: int):
    """Yield (start, mats, idx) for consecutive blocks of the trials 0..trials-1.

    A block of t trials keeps t x m x width at most _BLOCK_ELEMS, width
    the larger of the candidate count and q n.  That bounds the block's
    sweep, its |L| x t comparisons and the (q - 1, t, m, n) scaled
    entries that pack into the words of its matrices.  The draws come a
    window at a time: as many whole blocks as hold at most
    _WINDOW_TRIALS trials and _BLOCK_ELEMS matrix entries, or one
    block, so the window depends on (n, k, m, q), never on the trials;
    the blocks are views into it.  A block still referenced keeps its
    whole window alive, so this generator and its callers drop theirs
    before the next window is drawn: the draws peak at one window.
    """
    width = max(n_candidates, params.q * params.n)
    block = max(1, _BLOCK_ELEMS // (params.m * width))
    per_window = min(_WINDOW_TRIALS, _BLOCK_ELEMS // (params.m * params.n))
    window = block * max(1, per_window // block)
    for first in range(0, trials, window):
        mats, idx = _sample_trials(params, min(first + window, trials), seed, n_candidates, first)
        for lo in range(0, len(idx), block):
            yield first + lo, mats[lo : lo + block], idx[lo : lo + block]
        del mats, idx


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

    One level scan (model.measure_levels' kernel) compares all of L,
    by every matrix of the block, with the trial's own measurement,
    packed into words: the signal is unranked and its scaled columns
    read from the kernel's own table and summed.  Its hits r * t + i,
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
        del mats, idx

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

