"""Empirical verification harness for the analytic bounds.

Samples (matrix, signal) instances at desk scale, detects the one error
event (e0 and e coincide) exactly against the full candidate set, and
reports its rate with a Wilson 95% interval (util.wilson_interval)
alongside the analytic union and converse bounds.  The row-nullity law
those bounds rest on is checked exactly by bounds.convolution_oracle,
and by Monte Carlo in the tests over sample_trials' matrices.

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
matrices, a group of up to _WINDOW_TRIALS (6,400) trials is stepped as
uint64 arrays.  Each trial's PCG64 (O'Neill 2014; its 128-bit LCG and
XSL-RR output are part of numpy's fixed bit stream, not a Generator
algorithm) is one lane of _PCG64Lanes, seeded from its
_child_seed_words row as numpy's pcg64_set_seed does, and each step is
one multiply-add mod 2**128 on one (2, trials) (high, low) uint64
array for the whole group.  A word costs 21 numpy calls however many
lanes it steps: rows that take the same operation share a call, and
every operand is a 0-d array, which a call takes faster than a numpy
scalar.  Still a lane's word costs several times a word of numpy's own
random_raw, so the lanes are the faster draw only for many trials of
few words each; otherwise a trial builds its PCG64 and reads, in one
random_raw call, the D words its draws consume (_as_lanes chooses;
every byte is the same either way).
A window drawn as lanes is trial-innermost: (trials, m, n) values
stored as (m n, trials), so the word a lane step yields for every trial
lands in one contiguous row, not at a stride of m n entries, and
model._ColumnTable packs along those rows.  A window drawn by
random_raw, one trial's words a call, stays C-order.  sample_trials
and on_block hand out the values as drawn; their layout is not part
of the contract, and no copy is made.
Both routes hand out words word-major, c words of every trial as a
(c, trials) block, and one mapper, _map_words, writes them into the
window's (m n, trials) rows: a lane block's rows are the lane words
themselves and land in contiguous rows, a random_raw block is a
transposed view of its (trials, D) words.  So the lanes build no
(trials, words) block of raw words, and there is one copy of the maps.
The words are mapped by numpy's own Generator maps: random() is
(word >> 11) * 2**-53, so the zero mask is one integer comparison of the
words; integers(1, q, dtype=int16) is Lemire's multiply-shift of 16-bit
halves of the following uint32 halves, low first; integers(0, |L|) is
Lemire's map of the next uint32.  A Lemire step that would reject
makes numpy draw again and shifts every later draw, so such a trial is
drawn again, whole, through Generator on its seed words: about 0.4 %
of trials reject a value at q = 7 and m n = 60, and about 2 % reject
the rank near |L| = 10^8.  The tests pin the lanes to numpy's
random_raw and both draws to numpy's own spawn and default_rng,
rejections included, and guard the maps themselves against a numpy
that changes them.

Trials are drawn a window at a time and measured and flagged in blocks
of t trials, t sized so that t x m x max(|L|, q n) is at most
_BLOCK_ELEMS.  That bounds the block's (t x m x n) draws and, with room
to spare, its sweep's t x |L| comparisons, so memory depends on the
configuration, not on the trials.  A window is as many whole blocks as
hold at most _WINDOW_TRIALS trials and _BLOCK_ELEMS matrix entries, or
one block, so that a q = 4 block of 400 trials does not pay a lane
step's calls alone, and a GF(2) block of 3,120 at n = 10, m = 6 shares
them with a second.  _trial_blocks is the one stream of those blocks;
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
passes 2^19, takes the kernel's join, which looks level w - 1 up among
the sorted goals instead of comparing all of level w, whatever the
number of words.  A trial's target is its signal's
measurement, summed from the kernel's own table of scaled columns at
the signal's unranked support and values, and the scan yields each
level's feasible (candidate, trial) pairs, never t x m x |L| values.
The scan enumerates L sparsity-major, a level at a time, so a trial's
one flag (e0 and e are one event for this decoder) follows from each
level's count of feasible candidates, and a signal is just its rank; a
trial with no hit at its signal's level raises RuntimeError.
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
from .field import FiniteField, check_table_order, make_field
from .model import ModelParams, _ColumnTable, candidate_matrix, check_enumeration_cap
from .model import level_starts, unpack_measurements
from .util import wilson_interval

# a block spans at most this many (trial, row, candidate) triples
_BLOCK_ELEMS = 1 << 20
# trials are drawn a window at a time: as many whole blocks as hold at
# most _WINDOW_TRIALS trials and _BLOCK_ELEMS matrix entries, or one
# block; a window's trials are drawn in groups of at most _WINDOW_TRIALS.
# Both sides are measured (n = 10, k = 2, m = 6, 2-core Xeon VM, numpy
# 2.4): below 6,240 a GF(2) window there stays one block of 3,120 and
# each lane step's fixed cost is shared by half as many lanes (bench
# simulate wall_s 16 % higher at 4,096); from 6,500 on, n = 8, m = 5,
# q = 3 windows hold four blocks of 1,625, and run_trials' memory peak
# at 20,000 trials against 2,000 grows from 1.39x here to 2.29x at 8,192
_WINDOW_TRIALS = 6400
# a group of t trials of D raw words each is stepped as t PCG64 lanes
# when D (t + _STEP_LANES) <= _SETUP_WORDS t, and else builds a PCG64
# per trial and reads its words by random_raw, about _RAW_WORDS words
# a group.  A lane step costs about as much as stepping _STEP_LANES
# more lanes, and a PCG64 built per trial about as much as
# _SETUP_WORDS words stepped in lanes, less the words it reads
# natively: so the rule steps a full group of 6,400 lanes up to
# D = 182, 4,096 up to D = 150 and 1,024 up to D = 60.  With each lane
# word written straight into its window row the lanes measure faster
# than that, up to about D = 440-600, 340-350 and 130 (q = 2 to q = 4,
# k = 1, gamma = 0.5, best of 5, 2-core Xeon VM, numpy 2.4), so between
# those bounds the rule errs toward random_raw; no bench workload draws
# such widths, so neither side of a new pair is measured there
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

# the lane step's operands as 0-d uint64 arrays: _PCG_MULT's low and
# high words, the low word's 32-bit halves, the low-half mask and shifts
_U_A_LO, _U_A_HI, _U_A0, _U_A1, _U_M32, _U_32, _U_58, _U_64 = (
    np.array(v, dtype=np.uint64)
    for v in (_PCG_MULT & _M64, _PCG_MULT >> 64, _PCG_MULT & _M32,
              _PCG_MULT >> 32 & _M32, _M32, 32, 58, 64)
)


@dataclass(frozen=True)
class TrialReport:
    """Aggregate of a Monte Carlo run; reconstructible from (params, trials, seed)."""

    params: ModelParams
    trials: int
    errors: int  # trials with the one error event, both e0 and e
    rate: float
    ci_low: float  # Wilson 95% interval of rate
    ci_high: float
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


def _pcg_step(state: np.ndarray, inc: tuple, buf: tuple) -> None:
    """state <- state _PCG_MULT + inc mod 2**128, in place, on a (2, t) (high, low) uint64 array.

    ``inc`` is the (2, t) (high, low) words of inc and the (2, t) 32-bit
    halves (low, high) of its low word, and ``buf`` is two (2, t) and
    one (t,) scratch arrays.  With lo = b 2**32 + a, A_lo = m1 2**32 +
    m0 the low word of _PCG_MULT and inc_lo = i1 2**32 + i0, the high
    word of lo A_lo + inc_lo is b m1 + (s >> 32), where s = b m0 + a m1
    + i1 + ((a m0 + i0) >> 32): it carries the low word's sum, and s
    stays below 2**64 because m0 + m1 < 2**32 - 1.  Rows that take the
    same operation share one call, and every operand is a 0-d array,
    which a ufunc call takes faster than a numpy scalar.
    """
    hi, lo = state
    inc_words, inc_halves = inc
    halves, sums, cross = buf
    np.bitwise_and(lo, _U_M32, halves[0])
    np.right_shift(lo, _U_32, halves[1])
    np.multiply(halves, _U_A0, sums)
    sums += inc_halves
    low, mid = sums
    low >>= _U_32
    mid += low
    halves *= _U_A1
    mid += halves[0]
    mid >>= _U_32
    mid += halves[1]  # the high word of lo A_lo + inc_lo
    np.multiply(lo, _U_A_HI, cross)
    state *= _U_A_LO
    state += inc_words
    hi += cross
    hi += mid


class _PCG64Lanes:
    """numpy's PCG64 of every trial of a group, stepped at once on uint64 arrays.

    Each trial's stream is a lane: its 128-bit state is one column of a
    (2, t) (high, low) uint64 array, and every sum and product wraps in
    array arithmetic (numpy warns on scalar overflow, not on arrays).
    next(out) writes every trial's next word, the one
    ``np.random.PCG64(_SeedWords(w)).random_raw()`` returns, into the
    (t,) row out; take(c) fills c rows of a (c, t) block it keeps and
    reuses, so a returned block holds until the next take.  The block
    is word-major because a window drawn as lanes is trial-innermost:
    each row is one matrix entry of every trial.
    """

    def __init__(self, words: np.ndarray):
        # numpy's pcg64_set_seed: words 0-1 are the initial state's high
        # and low words, 2-3 the stream id's, inc = (id << 1) | 1; then
        # srandom steps from 0 (to inc), adds the initial state and
        # steps again.  A word is the XSL-RR output of the next state.
        one = np.uint64(1)
        inc = np.stack([words[:, 2] << one | words[:, 3] >> np.uint64(63), words[:, 3] << one | one])
        self._inc = (inc, np.stack([inc[1] & _U_M32, inc[1] >> _U_32]))
        self._buf = (np.empty_like(inc), np.empty_like(inc), np.empty_like(inc[0]))
        self._state = inc + words[:, :2].T
        self._state[0] += self._state[1] < inc[1]  # the low word's sum wrapped
        self._block = np.empty((0, len(words)), dtype=np.uint64)
        _pcg_step(self._state, self._inc, self._buf)

    def next(self, out: np.ndarray) -> None:
        _pcg_step(self._state, self._inc, self._buf)
        # XSL-RR: (hi ^ lo) rotated right by the top 6 bits of hi; numpy
        # shifts a uint64 left by 64 to 0, so a rotation by 0 keeps x
        hi, lo = self._state
        x, r = self._buf[0]
        np.bitwise_xor(hi, lo, x)
        np.right_shift(hi, _U_58, r)
        np.right_shift(x, r, out)
        np.subtract(_U_64, r, r)
        x <<= r
        out |= x

    def take(self, c: int) -> np.ndarray:
        if len(self._block) < c:
            self._block = np.empty((c, self._block.shape[1]), dtype=np.uint64)
        block = self._block[:c]
        for row in block:
            self.next(row)
        return block


def _raw_take(words: np.ndarray, width: int):
    """take(c) over the group's raw words, one random_raw call per trial.

    The words are read trial-major into a (t, width) block, a row per
    random_raw call, and handed out word-major as transposed views of
    its columns, (c, t) like the lanes' blocks.  A (width, t) block,
    each call's words written at a stride of t, drew 14.4-14.8 against
    11.1-11.6 us per trial at n = 50, k = 2, m = 20, q = 2 (best of 5,
    2-core Xeon VM, numpy 2.4).
    """
    raw = np.empty((len(words), width), dtype=np.uint64)
    for i, w in enumerate(words):
        raw[i] = np.random.PCG64(_SeedWords(w)).random_raw(width)
    taken = 0

    def take(c: int) -> np.ndarray:
        nonlocal taken
        taken += c
        return raw[:, taken - c : taken].T

    return take


def _halves(words: np.ndarray) -> np.ndarray:
    """The (c, 4, t) uint16 halves, low first, of a (c, t) block of uint64 words, of any strides.

    A view of a lane block or a transposed random_raw block, read
    through whichever axis is contiguous; only a block contiguous along
    neither axis, which no draw route hands out, is copied first.
    """
    words = words.astype("<u8", copy=False)
    if words.strides[0] == words.itemsize:
        return words.T.view("<u2").reshape(words.shape[1], -1, 4).transpose(1, 2, 0)
    words = np.ascontiguousarray(words)
    return words.view("<u2").reshape(len(words), -1, 4).transpose(0, 2, 1)


def _map_words(
    params: ModelParams, n_candidates: int, take, chunk: int, mats: np.ndarray, idx: np.ndarray
) -> np.ndarray:
    """Map a group's raw words to matrices and ranks as numpy's Generator would.

    ``take(c)`` returns the group's next c words of each trial as a
    (c, t) array, and is asked for at most ``chunk`` words at a time.
    Writes the (t, m, n) matrices into ``mats`` and the signal ranks
    into ``idx``, and returns the trials whose Lemire step would have
    rejected, where numpy draws again and every later draw moves: those
    rows of mats and idx are not the trial's and must be redrawn.

    Both routes write the (m n, t) row view of mats, a row per matrix
    entry, which is contiguous where the window is trial-innermost, so
    a block of words maps into its rows by whole-row calls, and the
    value steps run in scratch arrays allocated once for the group.
    """
    t, cells, q = len(idx), params.m * params.n, params.q
    rows = mats.reshape(t, cells).T
    # Generator.random: (word >> 11) * 2**-53, exact, so the entry is
    # nonzero where word >> 11 < ceil(gamma 2**53), gamma in (0, 1]
    below = np.array((math.ceil(params.gamma * 2**53) << 11) - 1, dtype=np.uint64)
    for j in range(0, cells, chunk):
        c = min(chunk, cells - j)
        np.less_equal(take(c), below, rows[j : j + c])
    redraw = np.zeros(t, dtype=bool)
    halves = 0
    if q > 2:
        # integers(1, q, dtype=int16): 1 + (u16 (q - 1) >> 16), u16 the
        # low then high 16 bits of each uint32, the uint32 the low then
        # high half of each word (the order of a little-endian view);
        # rejects where the low 16 bits of the product fall below
        # 2**16 mod (q - 1)
        halves, n_words = (cells + 1) // 2, (cells + 3) // 4
        # scratch in the rows' own memory order: word-major for lanes,
        # trial-major ("F") for a transposed random_raw block
        shape, order = (4 * min(chunk, n_words), t), "F" if rows.strides[0] < rows.strides[1] else "C"
        scaled = np.empty(shape, dtype=np.uint32, order=order)
        low = np.empty(shape, dtype=np.uint16, order=order)
        reject = np.empty(shape, dtype=bool, order=order)
        q1, below16 = np.array(q - 1, dtype=np.uint32), 2**16 % (q - 1)
        for j in range(0, n_words, chunk):
            value_words = take(min(chunk, n_words - j))
            c, n_values = len(value_words), min(4 * len(value_words), cells - 4 * j)
            np.multiply(_halves(value_words), q1, scaled[: 4 * c].reshape(c, 4, t), dtype=np.uint32)
            if below16:
                np.copyto(low[:n_values], scaled[:n_values], casting="unsafe")
                np.less(low[:n_values], below16, reject[:n_values])
                if reject[:n_values].any():
                    redraw |= reject[:n_values].any(axis=0)
            values = low[:n_values].view(np.int16)
            np.right_shift(scaled[:n_values], 16, values, casting="unsafe")
            values += 1
            rows[4 * j : 4 * j + n_values] *= values
    if n_candidates > 1:
        # integers(0, |L|): u32 |L| >> 32, rejecting where the low 32
        # bits fall below 2**32 mod |L|; u32 is the buffered high half of
        # the last value word when the values took an odd number of
        # uint32, else the low half of a word of its own
        if halves % 2:
            u32 = value_words[-1] >> _U_32
        else:
            u32 = take(1)[0] & _U_M32
        u32 *= np.uint64(n_candidates)
        np.right_shift(u32, _U_32, idx, casting="unsafe")
        redraw |= (u32 & _U_M32) < np.uint64(2**32 % n_candidates)
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
    Generator maps (_map_words), a word-major block at a time, so a
    lane group builds no (trials, words) block of raw words.  A group
    of up to _WINDOW_TRIALS trials is stepped as uint64 arrays, one
    PCG64 lane per trial (_PCG64Lanes), where _as_lanes finds that
    faster for its size and the trials' D raw words; else a group of
    about _RAW_WORDS words' trials builds a PCG64 per trial and reads
    its D words in one random_raw call.  A
    trial whose value or rank draw would reject in numpy's Lemire step
    is drawn again, whole, through Generator on its seed words; where
    2**16 mod (q - 1) and 2**32 mod |L| are 0 (q = 3 or 5, |L| a power
    of two) none can.  So are all trials when |L| > 2**32 (the rank is
    a 64-bit Lemire draw).  Over GF(2) the value draw,
    integers(1, 2), is the constant 1 and consumes no bits of the
    stream, so it is not made: every nonzero entry is 1 and the rank
    reads the word after the uniforms.

    The matrices are trial-innermost, stored as (m, n, trials), where
    _as_lanes steps the first group as lanes, else C-order; a later,
    shorter group takes its own route into the same array.
    """
    words = _child_seed_words(seed, start, stop)
    width = _raw_width(params, n_candidates)
    if n_candidates <= 2**32 and _as_lanes(width, min(len(words), _WINDOW_TRIALS)):
        # trial-innermost: a lane step writes each entry's trials as one row
        mats = np.empty((params.m, params.n, len(words)), dtype=np.int16).transpose(2, 0, 1)
    else:
        mats = np.empty((len(words), params.m, params.n), dtype=np.int16)
    idx = np.empty(len(words), dtype=np.int64)
    redraw = np.ones(len(words), dtype=bool)
    if n_candidates <= 2**32:
        lo = 0
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
    the blocks are views into it, trial-innermost where the window is
    drawn as lanes (_sample_trials), the layout model._ColumnTable
    reads its stack in.  A block still referenced keeps its whole
    window alive, so this generator and its callers drop theirs before
    the next window is drawn: the draws peak at one window.
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
    drawn from the same per-trial streams, and only the drawn signals
    are built.  As there, it raises UnsupportedOrder unless GF(q) has
    tables (field.check_table_order) and EnumerationCapExceeded if |L|
    is above model.ENUMERATION_CAP (10^8 candidates), before drawing.
    The values are the contract, not their memory layout: the matrices
    are returned as drawn, trial-innermost where the trials were
    stepped as PCG64 lanes, with no copy into C order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_table_order(params.q)
    n_cand = check_enumeration_cap(params.n, params.k, params.q)
    mats, idx = _sample_trials(params, trials, seed, n_cand)
    return mats, candidate_matrix(params.n, params.k, params.q, idx)[0]


def _error_flags(
    field: FiniteField, mats: np.ndarray, idx: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Error flags and (t, count) packed measurement words of trials whose signals are at ranks idx of L.

    One level scan (model.measure_levels' kernel) compares all of L,
    by every matrix of the block, with the trial's own measurement,
    packed into words: the signal is unranked and its scaled columns
    read from the kernel's own table and summed.  Its hits r * t + i,
    counted by trial i, are each level's feasible candidates
    (``offsets``, from model.level_starts, says where each level
    starts).  A trial errs, e0 and e alike, where the first level holding
    a feasible candidate lies below its signal's level k1 or holds two or
    more; one with no hit at level k1 raises RuntimeError, since its
    signal is feasible (decoder.ErrorEvents).
    """
    t = len(idx)
    trial = np.arange(t)
    k1 = np.searchsorted(offsets, idx, side="right") - 1
    columns = _ColumnTable(field, mats)
    signal = columns.member_words(k1, idx - offsets[k1])
    counts = np.zeros((t, len(offsets)), dtype=np.int64)
    for w, hits in columns.levels(len(offsets) - 1, signal):
        counts[:, w] = np.bincount(hits % t, minlength=t)
    missed = np.flatnonzero(counts[trial, k1] == 0)
    if missed.size:
        raise RuntimeError(f"the level kernel missed the signal of trial {missed[0]} of its block")
    first = (counts > 0).argmax(axis=1)
    return (first < k1) | (counts[trial, first] >= 2), signal


def run_trials(
    params: ModelParams,
    trials: int,
    seed: int,
    on_block: Callable[[int, np.ndarray, np.ndarray, np.ndarray], None] | None = None,
) -> TrialReport:
    """Estimate the error probability over `trials` sampled instances.

    Per trial: draw a matrix and a uniform signal from L, measure, and
    flag the one event that is both e0 (decoder output differs from the
    truth, ambiguity included) and e (a candidate no heavier than the truth
    collides with it).  A zero error count is reported as-is; the Wilson
    interval then has a one-sided shape with its lower edge at 0.  Raises
    EnumerationCapExceeded if |L| is above model.ENUMERATION_CAP (10^8
    candidates), and RuntimeError if the kernel misses a trial's signal.

    ``on_block``, if given, is called once per block of trials as
    on_block(start, mats, signals, y): trial start + i drew the matrix
    mats[i] and the signal signals[i] and measured y[i].
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    field = make_field(params.q)
    n_cand = check_enumeration_cap(params.n, params.k, params.q)
    offsets = level_starts(params.n, params.k, params.q)
    errors = 0
    for start, mats, idx in _trial_blocks(params, trials, seed, n_cand):
        flags, words = _error_flags(field, mats, idx, offsets)
        errors += int(flags.sum())
        if on_block is not None:
            signals = candidate_matrix(params.n, params.k, params.q, idx)[0]
            on_block(start, mats, signals, unpack_measurements(field, words, params.m))
        del mats, idx

    ci_low, ci_high = wilson_interval(errors, trials)
    ub = union_bound(params)
    return TrialReport(
        params=params,
        trials=trials,
        errors=errors,
        rate=errors / trials,
        ci_low=ci_low,
        ci_high=ci_high,
        union_bound_log=ub.log_value,
        union_bound_value=ub.capped_linear,
        fano_value=fano_lower_bound(params.n, params.k, params.q, params.m),
        seed=seed,
    )
