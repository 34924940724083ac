"""The signal set, the random sensing-matrix ensemble, and the measurement map.

The signal set L is every length-N vector over GF(q) with at most K
nonzero entries.  Signals are drawn uniformly from L; sensing matrices
have i.i.d. entries that are zero with probability 1 - gamma and each
nonzero value with probability gamma / (q - 1).  The one seeded draw
of instances is montecarlo.sample_trials: matrices and signals are
plain int16 arrays, the trials that ``ffcs simulate`` measures.

Measurement: y = A x over GF(q).  measure_levels, the one fast kernel,
sweeps L level by level for the exhaustive decoder and the Monte Carlo
flags, and yields per level its hits, the members that measure a
target y.  Its chunks stay private: every weight-w support carries
the same (q-1)^w value tuples, so a chunk of supports
sums its first w - 1 columns as outer sums of the scaled columns
v * A[:, j], in canonical order, without building a candidate, and
compares each partial sum with y - v * A_j for the last column j, a
table built once per sweep.  level_starts gives the rank where each
level begins, and level_members unranks just the candidates a caller
keeps.  The kernel handles all m rows of a matrix at once: each row is
a lane of an unsigned machine word (SIMD within a register), e bits
wide over GF(2^e) and one bit wider than p - 1 over prime p, so that a
fold of two columns is one XOR, or for odd p an add and a lane-wise
conditional subtraction of p.  The word type is the narrowest of 8 to
64 bits that holds the lanes; rows beyond 64 bits take further words.
pack_measurements lays a measurement out in the same words, and
match_words compares them.  measure_candidates is the definition of
A x, a table gather and a field sum, for explicit vectors (matvec, a
signal's own measurements, the nullity test's vector pair), and the
tests' oracle for the kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, log

import numpy as np

from .errors import DimensionMismatch, EnumerationCapExceeded, InvalidGamma
from .field import FiniteField, check_prime_power

# words (members x words per member) a chunk of the level sweep spans,
# and entries a block of candidate_matrix; bounds the peak memory of every scan
_CHUNK_WORDS = 1 << 20


@dataclass(frozen=True)
class ModelParams:
    """Problem instance: (n, k, m, q, gamma).

    n     : signal length
    k     : maximum sparsity of the unknown signal
    m     : number of measurements
    q     : field order
    gamma : sparse factor of the sensing matrix; 1 - 1/q is the dense case
    """

    n: int
    k: int
    m: int
    q: int
    gamma: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= self.k <= self.n:
            raise ValueError("k must lie in [0, n]")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        check_prime_power(self.q)
        if not 0.0 < self.gamma <= 1.0:
            raise InvalidGamma(f"gamma must lie in (0, 1], got {self.gamma}")


@dataclass(frozen=True)
class SignalSetSize:
    """Exact cardinality of L, overall and per sparsity level."""

    per_sparsity: tuple[int, ...]
    total: int


def signal_set_size(n: int, k: int, q: int) -> SignalSetSize:
    """Exact count of vectors in GF(q)^n with at most k nonzeros.

    per_sparsity[j] = C(n, j) * (q-1)^j, as arbitrary-precision integers,
    each from the one before: C(n, j) j = C(n, j-1) (n - j + 1), so the
    division by j is exact.
    """
    if not 0 <= k <= n:
        raise ValueError("k must lie in [0, n]")
    per = [1]
    for j in range(1, k + 1):
        per.append(per[-1] * (n - j + 1) * (q - 1) // j)
    return SignalSetSize(per_sparsity=tuple(per), total=sum(per))


def dense_gamma(q: int) -> float:
    """Sparse factor that makes matrix entries uniform over GF(q)."""
    return 1.0 - 1.0 / q


def sparse_gamma(c: float, n: int) -> float:
    """Sparse factor c * ln(n) / n (natural log)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return c * log(n) / n


def matvec(field: FiniteField, matrix, signal) -> np.ndarray:
    """Measurement map y = A x with GF(q) arithmetic; returns length-m int16."""
    rows, x = np.asarray(matrix), np.asarray(signal)
    if rows.ndim != 2 or x.ndim != 1 or rows.shape[1] != x.shape[0]:
        raise DimensionMismatch(
            f"matrix {rows.shape} incompatible with signal {x.shape}"
        )
    return measure_candidates(field, rows, x[None, :])[:, 0]


def _check_entries(q: int, *arrays) -> None:
    """Raise ValueError unless every entry is an integer in 0..q-1, an index of the field tables."""
    for arr in arrays:
        if arr.dtype.kind in "bfc":
            # 1.0 and True pass the range test, then fail or mask as indices
            raise ValueError(f"{arr.dtype} entries are not elements of GF({q})")
        if arr.size and (arr.min() < 0 or arr.max() >= q):
            raise ValueError(f"entries outside GF({q})")


def measure_candidates(field: FiniteField, rows: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """Apply (..., m, n) matrices to a (c, n) batch of vectors; returns (..., m, c) int16.

    The definition of A x': the products A[..., r, j] * x'_j are gathered
    from the multiplication table and summed over j in the field, by XOR
    in characteristic 2, and otherwise in int64 and reduced once mod p.
    The gather holds (..., m, c, n) entries, so this is for explicit
    vectors: matvec and error_events measure one, and the nullity test
    measures its pair on windows sized on width >= q n, so t m 2 n <=
    2**21 / q.  measure_levels sweeps whole levels of L.
    """
    if rows.shape[-1] != cands.shape[1]:
        raise DimensionMismatch(
            f"matrix {rows.shape} incompatible with candidates {cands.shape}"
        )
    _check_entries(field.q, rows, cands)
    terms = field.mul_table[rows[..., :, None, :], cands]
    if field.p == 2:
        return np.bitwise_xor.reduce(terms, axis=-1)
    return (terms.sum(axis=-1, dtype=np.int64) % field.p).astype(np.int16)


def enumerate_signals(n: int, k_max: int, q: int):
    """Yield every member of L as an int16 array, in canonical order.

    Order: sparsity-major, then lexicographic support, then lexicographic
    nonzero values.  This is the tie-making order the exhaustive decoder
    relies on, so it must never change.  It is the reference for
    level_members and measure_levels, which the library uses instead.
    """
    for k in range(k_max + 1):
        for support in itertools.combinations(range(n), k):
            for values in itertools.product(range(1, q), repeat=k):
                v = np.zeros(n, dtype=np.int16)
                for pos, val in zip(support, values):
                    v[pos] = val
                yield v


def _level_terms(n: int, w: int, q: int, ranks: np.ndarray, digits: int):
    """Supports and leading values at the given ranks of a level with digits value places.

    The level pairs each weight-w support, in lexicographic order, with
    the (q-1)^digits tuples of its first ``digits`` values, in
    lexicographic order: rank r is the (r % (q-1)^digits)-th tuple on
    the (r // (q-1)^digits)-th support.  With digits = w these are the
    members of L of weight w in canonical order.  Returns an int64
    (len, w) support array and an int16 (len, digits) value array.
    """
    # Combinatorial number system: the support at lexicographic rank s,
    # mirrored (p -> n-1-p), has sorted elements d_i with colex rank
    # C(n,w)-1-s = sum_i C(d_i, i+1), peeled off greedily from the top.
    # Clamping the table at C(n,w) keeps it in int64 and changes no result.
    n_supports = comb(n, w)
    binom = [
        np.array([min(comb(x, i + 1), n_supports) for x in range(n)], dtype=np.int64)
        for i in range(w)
    ]
    place = (q - 1) ** np.arange(digits - 1, -1, -1, dtype=np.int64)
    s, v = np.divmod(ranks, (q - 1) ** digits)
    rest = n_supports - 1 - s
    support = np.empty((len(ranks), w), dtype=np.int64)
    for i in range(w - 1, -1, -1):
        d = np.searchsorted(binom[i], rest, side="right") - 1
        rest -= binom[i][d]
        support[:, w - 1 - i] = n - 1 - d
    values = (v[:, None] // place % (q - 1) + 1).astype(np.int16)
    return support, values


def level_members(n: int, w: int, q: int, ranks) -> np.ndarray:
    """The weight-w members of L at the given canonical ranks, as an int16 (len, n) array.

    Raises ValueError unless 0 <= w <= n and every rank lies in
    [0, C(n, w) (q-1)^w), the size of the level.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    if not 0 <= w <= n:
        raise ValueError(f"w must lie in [0, n], got {w}")
    size = comb(n, w) * (q - 1) ** w
    if ranks.size and (ranks.min() < 0 or ranks.max() >= size):
        raise ValueError(f"ranks must lie in [0, {size})")
    support, values = _level_terms(n, w, q, ranks, w)
    out = np.zeros((len(ranks), n), dtype=np.int16)
    np.put_along_axis(out, support, values, axis=1)
    return out


# the unsigned word types of packed measurements, narrowest first
_WORD_TYPES = tuple(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64))


@dataclass(frozen=True)
class _Lanes:
    """How the measurements of m rows over a field pack into words.

    Row r is lane r % per of word r // per: its ``bits`` bits start at
    bit bits * (r % per).  A lane is as wide as a residue plus, for odd
    p, one bit that the sum of two residues (at most 2p - 2) carries
    into, so lanes never spill into their neighbours.  ``count`` words
    of at most 64 bits hold the m rows, split as evenly as they go, and
    ``dtype`` is the narrowest type that holds ``per`` lanes.
    """

    bits: int
    per: int
    count: int
    dtype: np.dtype


def _lanes(field: FiniteField, m: int) -> _Lanes:
    """The word layout of m measurements over field: it depends on (q, m) only."""
    bits = field.m if field.p == 2 else (field.p - 1).bit_length() + 1
    count = max(1, -(-m // (64 // bits)))
    per = -(-m // count)
    dtype = next(t for t in _WORD_TYPES if 8 * t.itemsize >= per * bits)
    return _Lanes(bits, per, count, dtype)


def _pack_rows(lanes: _Lanes, rows: np.ndarray) -> np.ndarray:
    """Values (m, ...) in 0..q-1, row r into lane r % per of word r // per: (count, ...) words."""
    words = np.zeros((lanes.count,) + rows.shape[1:], dtype=lanes.dtype)
    for r, row in enumerate(rows):
        shift = lanes.dtype.type(lanes.bits * (r % lanes.per))
        words[r // lanes.per] |= row.astype(lanes.dtype) << shift
    return words


def pack_measurements(field: FiniteField, y) -> np.ndarray:
    """Measurements (..., m) with entries in 0..q-1, packed into their (..., count) words.

    The layout is _lanes(field, m)'s, the one measure_levels takes its
    targets in and sums columns in, so a partial sum meets a target
    where all their words are equal (match_words).
    """
    y = np.asarray(y)
    return np.moveaxis(_pack_rows(_lanes(field, y.shape[-1]), np.moveaxis(y, -1, 0)), 0, -1)


def unpack_measurements(field: FiniteField, words: np.ndarray, m: int) -> np.ndarray:
    """The (..., m) int16 measurements held in (..., count) words: pack_measurements undone."""
    lanes = _lanes(field, m)
    shifts = (lanes.bits * np.arange(lanes.per)).astype(lanes.dtype)
    mask = lanes.dtype.type((1 << lanes.bits) - 1)
    rows = (words[..., None] >> shifts) & mask
    return rows.reshape(words.shape[:-1] + (-1,))[..., :m].astype(np.int16)


def match_words(words: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """Whether every word of words (..., count) equals the one of packed there, as (...) bool.

    Word by word rather than (words == packed).all(axis=-1): the
    reduction over the word axis doubles the cost of the comparison.
    """
    match = words[..., 0] == packed[..., 0]
    for i in range(1, words.shape[-1]):
        match &= words[..., i] == packed[..., i]
    return match


def _lane_sum(field: FiniteField, lanes: _Lanes):
    """The lane-wise field sum of two word arrays, as a ufunc-like (a, b) -> words.

    In characteristic 2 it is XOR.  For odd p each lane of s = a + b is
    below 2p - 1, and adding 2**(bits-1) - p to it sets the lane's top
    bit exactly where s >= p, without a carry out of the lane; that bit,
    shifted down and times p, is subtracted, so each lane is again a
    reduced residue.
    """
    if field.p == 2:
        return np.bitwise_xor
    word = lanes.dtype.type
    ones = sum(1 << (lanes.bits * i) for i in range(lanes.per))
    top = 1 << (lanes.bits - 1)
    carry, high = word((top - field.p) * ones), word(top * ones)
    shift, p = word(lanes.bits - 1), word(field.p)

    def lane_sum(a, b):
        s = a + b
        over = s + carry
        over &= high
        over >>= shift
        over *= p
        s -= over
        return s

    return lane_sum


def _outer_sum(lane_sum, acc: np.ndarray, term: np.ndarray, axis: int) -> np.ndarray:
    """Lane-wise field sums of every value tuple of acc with every value of term, along axis.

    acc holds X tuples and term V values on ``axis``; the result holds
    the X * V sums there, tuple-major, which is the lexicographic order
    of the extended tuples.
    """
    pre = (slice(None),) * axis
    out = lane_sum(acc[pre + (slice(None), None)], term[pre + (None,)])  # (X, 1) + (1, V)
    return out.reshape(out.shape[:axis] + (-1,) + out.shape[axis + 2 :])


def measure_levels(field: FiniteField, mats: np.ndarray, k_max: int, targets):
    """Yield (w, hits) for w = 0..k_max: which weight-w members of L hit each target.

    ``mats`` is one (m, n) matrix or a (..., m, n) stack of b of them,
    and ``targets`` holds one packed measurement per matrix, (..., count)
    words in pack_measurements' layout with entries in 0..q-1.
    ``hits`` is the sorted int64 array of the flat indices r * b + i
    where matrix i measures the member at canonical rank r of level w
    as its target; for one matrix, the ranks.  Every member is compared
    in full (see _ColumnTable).  The targets are checked at the call,
    and a level is swept only when reached, so a caller may stop early.
    """
    return _ColumnTable(field, mats).levels(k_max, targets)


class _ColumnTable:
    """The packed scaled columns v * A[..., j] of a stack of b (m, n) matrices, and the level sweep.

    ``table`` holds word i of v * mats[..., j] for v = 1..q-1, every
    column j and all b * count words of the matrices, matrix by matrix;
    its value axis is ``axis`` and the column axis the one before it.
    The wider of the word and value axes is laid out innermost:
    (n, q-1, words) with axis 1, else (words, n, q-1) with axis 2.

    The sweep never measures a whole member.  Every support of a level
    carries the same (q-1)^w value tuples, so a chunk of supports S sums
    its first w - 1 columns as outer sums of the table's scaled columns,
    in canonical order, without building a candidate.  A member fits
    its target y exactly where that partial sum equals y - v * A_j, j
    and v its last column and value, and those differences are one
    table, built once per sweep, which the partial sums meet in one
    comparison.  A chunk spans at most _CHUNK_WORDS words: its members'
    words, and the int64 columns that unrank each unit, counted in words
    of the table's width.  Where a support's (q-1)^w tuples are more
    than that, they are split by their leading values, so no whole
    level is ever built.
    """

    def __init__(self, field: FiniteField, mats: np.ndarray):
        *stack, m, n = mats.shape
        _check_entries(field.q, mats)
        self.field, self.lanes, self.stack = field, _lanes(field, m), tuple(stack)
        self.lane_sum = _lane_sum(field, self.lanes)
        v = field.q - 1
        scaled = np.take(field.mul_table[1:], np.moveaxis(mats, -2, 0), axis=1)  # (q-1, m, ..., n)
        packed = np.moveaxis(_pack_rows(self.lanes, np.moveaxis(scaled, 1, 0)), 0, -2)
        packed = packed.reshape(v, -1, n)  # (q-1, words, n)
        if packed.shape[1] > v:
            self.table, self.axis = np.ascontiguousarray(packed.transpose(2, 0, 1)), 1
        else:
            self.table, self.axis = np.ascontiguousarray(packed.transpose(1, 2, 0)), 2

    def member_words(self, weights: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """The (b, count) packed measurement, by matrix i, of the member of weight weights[i] at rank ranks[i] of its level.

        Each member is unranked (_level_terms), or where a level has
        fewer members than it has ranks here, the whole level once, and
        its scaled columns are read from the table and summed, so no
        (b, m, n) array is built.  Unranking is most of the cost, and
        a Monte Carlo block can hold far more trials than a level has
        members: at n = 10, k = 2, a q = 2 block of 3,120 trials meets
        the 45 weight-2 members thousands of times (ROADMAP has the
        timings).
        """
        count, table, axis = self.lanes.count, self.table, self.axis
        n, v = table.shape[axis - 1], table.shape[axis]
        # the flat table's steps between (column, value) keys and between words
        key_step, word_step = (table.shape[-1], 1) if axis == 1 else (1, n * v)
        flat = table.reshape(-1)
        out = np.zeros((len(weights), count), dtype=self.lanes.dtype)
        for w in range(1, int(weights.max(initial=0)) + 1):
            which = (weights == w).nonzero()[0]
            size = comb(n, w) * v**w
            if size < len(which):
                support, values = _level_terms(n, w, v + 1, np.arange(size), w)
                keys = (support * v + values - 1).take(ranks[which], axis=0)
            else:
                support, values = _level_terms(n, w, v + 1, ranks[which], w)
                keys = support * v + values - 1
            words = (which[:, None] * count + np.arange(count)) * word_step
            acc = flat.take(keys[:, :1] * key_step + words)
            for i in range(1, w):
                acc = self.lane_sum(acc, flat.take(keys[:, i : i + 1] * key_step + words))
            out[which] = acc
        return out

    def levels(self, k_max: int, targets):
        """measure_levels' stream of (w, hits) over this table."""
        count = self.lanes.count
        targets = np.asarray(targets)
        if targets.shape != self.stack + (count,):
            raise DimensionMismatch(
                f"targets {targets.shape} are not {self.stack + (count,)} packed words"
            )
        targets = targets.astype(self.lanes.dtype).reshape(-1)
        # goal, laid out like the table: the partial sum that meets the
        # targets where the last column is j and its value v is
        # targets + (-v) * A_j
        neg = self.field.neg_table[1:] - 1
        words = (1, 1, -1) if self.axis == 1 else (-1, 1, 1)
        goal = self.lane_sum(targets.reshape(words), self.table.take(neg, axis=self.axis))
        b = len(targets) // count
        return (
            (w, np.concatenate([start * b + np.flatnonzero(mask)
                                for start, mask in self._chunks(goal, targets, w)]))
            for w in range(k_max + 1)
        )

    def _chunks(self, goal: np.ndarray, targets: np.ndarray, w: int):
        """Level w in order as (start, mask): mask[r, i] is whether matrix i meets goal at rank start + r."""
        table, axis, count = self.table, self.axis, self.lanes.count
        n, v, size = table.shape[axis - 1], table.shape[axis], len(targets)
        b = size // count
        if w == 0:
            yield 0, match_words(np.zeros(count, targets.dtype), targets.reshape(b, count))[None]
            return
        # a unit costs its members' words and its unranking: _level_terms
        # holds at most 3w + 4 int64 per rank, counted here in table words
        unranking = -(-8 * (3 * w + 4) // table.itemsize)
        # fix the leading `lead` values of a unit's tuples, so that each
        # (support, leading values) unit fits in a chunk
        lead = next((i for i in range(w) if v ** (w - i) * size + unranking <= _CHUNK_WORDS), w)
        span = v ** (w - lead)
        step = max(1, _CHUNK_WORDS // (span * size + unranking))
        units = comb(n, w) * v**lead
        pre = (slice(None),) * axis
        # the partial sum of no columns, as the table's layout broadcasts it
        zero = np.zeros((1, 1, size) if axis == 1 else (size, 1, 1), dtype=table.dtype)
        for lo in range(0, units, step):
            ranks = np.arange(lo, min(lo + step, units), dtype=np.int64)
            support, leading = _level_terms(n, w, v + 1, ranks, lead)
            acc = zero
            for i in range(w - 1):
                term = _take_column(table, axis, support, leading, i)
                acc = term if i == 0 else _outer_sum(self.lane_sum, acc, term, axis)
            # every partial sum against the goal of every last value: (X, 1) against (1, V)
            have = acc[pre + (slice(None), None)]
            want = _take_column(goal, axis, support, leading, w - 1)[pre + (None,)]
            # split the word axis, last or first, into (b, count) and match each matrix's words
            if axis == 1:
                have, want = (a.reshape(a.shape[:-1] + (b, count)) for a in (have, want))
                yield lo * span, match_words(have, want).reshape(-1, b)
            else:
                have, want = (
                    np.moveaxis(a.reshape((b, count) + a.shape[1:]), 1, -1) for a in (have, want)
                )
                yield lo * span, match_words(have, want).reshape(b, -1).T


def _take_column(src: np.ndarray, axis: int, support: np.ndarray, leading: np.ndarray, i: int):
    """Column i of each unit of a chunk from a table of _ColumnTable's layout.

    Where the unit fixes that column's value (i < the leading values it
    fixes) only that value's entry is read, else all q - 1; either way
    the value axis stays at ``axis``.
    """
    if i < leading.shape[1]:
        keys = support[:, i] * src.shape[axis] + leading[:, i] - 1
        flat = src.reshape(src.shape[: axis - 1] + (-1,) + src.shape[axis + 1 :])
        return np.expand_dims(flat.take(keys, axis=axis - 1), axis)
    return src.take(support[:, i], axis=axis - 1)


# the most candidates any exhaustive scan enumerates
ENUMERATION_CAP = 10**8


def check_enumeration_cap(n: int, k_max: int, q: int) -> int:
    """Return |L|, raising EnumerationCapExceeded if it exceeds ENUMERATION_CAP."""
    total = signal_set_size(n, k_max, q).total
    if total > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"|L| = {total} exceeds the enumeration cap {ENUMERATION_CAP}"
        )
    return total


def level_starts(n: int, k_max: int, q: int) -> np.ndarray:
    """The canonical rank at which each level 0..k_max of L starts, as int64.

    Every level is nonempty (k_max <= n), so the starts strictly
    increase, and np.searchsorted over them finds the level of a rank.
    """
    return np.cumsum((0,) + signal_set_size(n, k_max, q).per_sparsity[:-1], dtype=np.int64)


def candidate_matrix(n: int, k_max: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Materialize all of L as a (|L|, n) matrix plus a weight vector.

    Raises EnumerationCapExceeded before allocating anything if |L| is
    above ENUMERATION_CAP (10^8 candidates).
    """
    out = np.empty((check_enumeration_cap(n, k_max, q), n), dtype=np.int16)
    sizes = signal_set_size(n, k_max, q).per_sparsity
    step = max(1, _CHUNK_WORDS // n)
    for w, (start, size) in enumerate(zip(level_starts(n, k_max, q), sizes)):
        for first in range(0, size, step):
            ranks = np.arange(first, min(first + step, size))
            out[start + first : start + first + len(ranks)] = level_members(n, w, q, ranks)
    weights = np.count_nonzero(out, axis=1).astype(np.int64)
    return out, weights


# JSON serialization ------------------------------------------------------
#
# Schema shared by matrices and signals:
#   {"q": int, "dims": [m, n] or [n], "entries": int array (nested for
#    matrices), "gamma": float or null, "seed": int or null}


def _to_json(entries, q: int, gamma: float | None, seed: int | None) -> dict:
    arr = np.asarray(entries)
    return {
        "q": q,
        "dims": [int(d) for d in arr.shape],
        "entries": arr.astype(int).tolist(),
        "gamma": None if gamma is None else float(gamma),
        "seed": seed,
    }


def matrix_to_json(rows, q: int, gamma: float | None = None, seed: int | None = None) -> dict:
    """An (m, n) matrix as JSON, tagged with the gamma and seed it was drawn with."""
    return _to_json(rows, q, gamma, seed)


def signal_to_json(signal, q: int, seed: int | None = None) -> dict:
    """A length-n signal as JSON, tagged with the seed it was drawn with."""
    return _to_json(signal, q, None, seed)


def _entries_from_json(obj: dict, ndim: int) -> np.ndarray:
    """Serialized entries as int16: integers in 0..q-1, shaped as ndim dims, over a prime power q <= 2^15."""
    q = obj["q"]
    entries = np.asarray(obj["entries"], dtype=object)
    if len(obj["dims"]) != ndim:
        raise DimensionMismatch(f"dims {obj['dims']} are not {ndim}-dimensional")
    if list(entries.shape) != list(obj["dims"]):
        raise DimensionMismatch(f"dims {obj['dims']} do not match entries {entries.shape}")
    # an int16 cast would turn 1.5 into 1 and True into 1, silently
    for v in (q, *entries.flat):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"{v!r} is not an integer")
    if q > 2**15:
        raise ValueError(f"q={q} is above 2**15, so its entries do not fit int16")
    check_prime_power(q)
    _check_entries(q, entries)
    out = entries.astype(np.int16)
    out.setflags(write=False)
    return out


def matrix_from_json(obj: dict) -> np.ndarray:
    """The (m, n) matrix of a JSON object, a read-only int16 array; gamma and seed stay in obj."""
    return _entries_from_json(obj, 2)


def signal_from_json(obj: dict) -> np.ndarray:
    """The length-n signal of a JSON object, a read-only int16 array; the seed stays in obj."""
    return _entries_from_json(obj, 1)
