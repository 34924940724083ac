"""The signal set, the random sensing-matrix ensemble, and the measurement map.

The signal set L is every length-N vector over GF(q) with at most K
nonzero entries.  Signals are drawn uniformly from L; sensing matrices
have i.i.d. entries that are zero with probability 1 - gamma and each
nonzero value with probability gamma / (q - 1).  The one seeded draw
of instances is montecarlo.sample_trials: matrices and signals are
plain int16 arrays, the trials that ``ffcs simulate`` measures.

Measurement: y = A x over GF(q).  measure_levels, the level kernel,
scans L level by level for the exhaustive decoder and the Monte Carlo
flags, and yields per level its hits, the members that measure a
target y.  A member hits exactly where the sum of its first w - 1
scaled columns v * A[:, j] equals y - v * A_j for its last column j,
a table built once per scan.  Levels 0 and 1 sum no columns, so they
are read off that goal table and the targets: the zero member hits
where y = 0, member (j, v) where y - v * A_j = 0.  From level 2 on,
each level decides the equality for every member by one of two
routes (_joins chooses from the shape).  Every weight-w support
carries the same (q-1)^w value tuples, so chunks of supports sum their
columns as outer sums, in canonical order, without building a
candidate.  The sweep compares each partial sum with its goals; the
join, for one matrix, sorts the words of level w - 1 with their last
columns and looks each goal up among them, which costs |L_{w-1}|
sorted keys instead of |L_w| comparisons, and ranks a hit from its
prefix's rank and support and its last column and value.  Both stay
private, as do their chunks.  A level's supports come from a kept
table of them in lexicographic order, built on first use, up to a
bounded size, and are unranked above it.  level_starts gives the rank
where each level begins, and level_members unranks just the candidates
a caller keeps.
The kernel handles all m rows of a matrix at once:
each row is a lane of an unsigned machine word (SIMD within a
register), e bits wide over GF(2^e) and one bit wider than p - 1 over
prime p, so that a fold of two columns is one XOR, or for odd p an add
and a lane-wise conditional subtraction of p.  The word type is the
narrowest of 8 to 64 bits that holds the lanes; rows beyond 64 bits
take further words.  The layout of (q, m) is kept after first use.
pack_measurements lays a measurement out in the same words, and
match_words compares them.  measure_candidates is the definition of
A x, a table gather and a field sum, for explicit vectors (matvec and
error_events' signal), and the tests' oracle for the kernel.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from math import comb, log

import numpy as np

from .errors import DimensionMismatch, EnumerationCapExceeded, InvalidGamma
from .field import FiniteField, check_prime_power

# words (members x words per member) a chunk of the level sweep spans,
# and entries a block of candidate_matrix; bounds the peak memory of every scan
_CHUNK_WORDS = 1 << 20
# the word comparisons of the sweep that one prefix of the join (its sum
# and filter lookup) or one partial sum of the sweep costs, as timed on
# levels 2 to 6 of one matrix over q = 2 to 251 (_joins)
_PREFIX_COST = 4


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
    vectors: matvec and error_events measure one.  measure_levels sweeps
    whole levels of L.
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


@lru_cache(maxsize=64)
def _binomials(n: int, w: int) -> np.ndarray:
    """The read-only (w, n) int64 table binom[i, x] = C(x, i + 1), clamped at C(n, w) to stay in int64.

    The clamp changes no rank of a weight-w support: each term of its
    colex rank below is at most the rank, which is below C(n, w).
    """
    n_supports = comb(n, w)
    binom = np.array(
        [[min(comb(x, i + 1), n_supports) for x in range(n)] for i in range(w)], dtype=np.int64
    ).reshape(w, n)
    binom.setflags(write=False)
    return binom


def _unrank_supports(n: int, w: int, s: np.ndarray) -> np.ndarray:
    """The weight-w supports of n columns at lexicographic ranks s, unranked one by one, as int64 (len, w)."""
    # Combinatorial number system: the support at lexicographic rank s,
    # mirrored (p -> n-1-p), has sorted elements d_i with colex rank
    # C(n,w)-1-s = sum_i C(d_i, i+1), peeled off greedily from the top.
    binom = _binomials(n, w)
    rest = comb(n, w) - 1 - s
    support = np.empty((len(s), w), dtype=np.int64)
    for i in range(w - 1, -1, -1):
        d = np.searchsorted(binom[i], rest, side="right") - 1
        rest -= binom[i][d]
        support[:, w - 1 - i] = n - 1 - d
    return support


# the most entries C(n, w) w of a kept support table (_supports), and the
# most tables kept: all of them together hold at most _CHUNK_WORDS int64
_KEPT_TABLES = 16
_KEPT_ENTRIES = _CHUNK_WORDS // _KEPT_TABLES


@lru_cache(maxsize=_KEPT_TABLES)
def _support_table(n: int, w: int) -> np.ndarray:
    """The read-only (C(n, w), w) int64 table of every weight-w support of n columns, in lexicographic order."""
    table = _unrank_supports(n, w, np.arange(comb(n, w), dtype=np.int64))
    table.setflags(write=False)
    return table


def _supports(n: int, w: int, s) -> np.ndarray:
    """The weight-w supports of n columns at lexicographic ranks s, an int64 array or a slice, as int64 (len, w).

    A level of at most _KEPT_ENTRIES entries C(n, w) w reads them from
    its kept table (_support_table, built on first use; a slice is a
    read-only view of it); a larger one, such as weight 2 at n = 1000,
    unranks each rank.
    """
    if comb(n, w) * w <= _KEPT_ENTRIES:
        return _support_table(n, w)[s]
    if isinstance(s, slice):
        s = np.arange(s.start, s.stop, dtype=np.int64)
    return _unrank_supports(n, w, s)


def _level_terms(n: int, w: int, q: int, ranks: np.ndarray, digits: int):
    """Supports and leading values at the given ranks of a level with digits value places.

    The level pairs each weight-w support, in lexicographic order, with
    the (q-1)^digits tuples of its first ``digits`` values, in
    lexicographic order: rank r is the (r % (q-1)^digits)-th tuple on
    the (r // (q-1)^digits)-th support.  With digits = w these are the
    members of L of weight w in canonical order.  Returns int64 (len, w)
    supports and int64 (len, digits) values.  The supports are gathered
    from the kept lexicographic table of the level's supports where
    C(n, w) w is at most _KEPT_ENTRIES (2^16 entries, 512 KiB), and
    only above that bound unranked one by one (_supports).
    """
    s, v = np.divmod(ranks, (q - 1) ** digits)
    place = np.array([(q - 1) ** i for i in range(digits - 1, -1, -1)], dtype=np.int64)
    return _supports(n, w, s), v[:, None] // place % (q - 1) + 1


def _prefix_ranks(n: int, w: int, q: int, p: np.ndarray, prefix: np.ndarray) -> np.ndarray:
    """Each member p of level w - 1 as base: completed by column j and value v, it ranks base + j (q-1)^w + v - 1 at level w.

    ``p`` holds canonical ranks of level w - 1 and ``prefix`` their
    supports (len, w - 1); j is any column past a support's last (one
    that ends at n - 1 has no completion, and its base is not used).
    Mirrored, a weight-w support s_0 < ... < s_{w-1} has colex rank
    sum_i C(n - 1 - s_i, w - i) (_unrank_supports), so its lexicographic
    rank is C(n, w) - 1 less that sum, whose last term is n - 1 - j: the
    supports that extend one prefix are consecutive, c + j.  The member
    then ranks (c + j) (q-1)^w + t (q - 1) + v - 1, t the index of the
    prefix's value tuple.
    """
    binom = _binomials(n, w)
    c = comb(n, w) - n
    for i in range(w - 1):
        c = c - binom[w - 1 - i, n - 1 - prefix[:, i]]
    tuples = (q - 1) ** (w - 1)
    return (c * tuples + p % tuples) * (q - 1)


def level_members(n: int, w: int, q: int, ranks) -> np.ndarray:
    """The weight-w members of L at the given canonical ranks, as an int16 (len, n) array.

    The canonical order is sparsity-major, then lexicographic support,
    then lexicographic nonzero values.  This is the tie-making order the
    exhaustive decoder relies on, so it must never change; the tests
    hold a plain enumeration of L in this order as its reference.

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
    out[np.arange(len(ranks))[:, None], support] = values
    return out


# the unsigned word types of packed measurements, narrowest first
_WORD_TYPES = tuple(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64))


@dataclass(frozen=True)
class _Lanes:
    """How the measurements of m rows over a field pack into words.

    Row r is lane r % per of word r // per: its ``bits`` bits start at
    bit bits * (r % per), its entry of ``shifts``, in the word type.  A
    lane is as wide as a residue plus, for odd p, one bit that the sum
    of two residues (at most 2p - 2) carries into, so lanes never spill
    into their neighbours.  ``count`` words of at most 64 bits hold the
    m rows, split as evenly as they go, and ``dtype`` is the narrowest
    type that holds ``per`` lanes.
    """

    bits: int
    per: int
    count: int
    dtype: np.dtype
    shifts: np.ndarray = dataclasses.field(compare=False, repr=False)
    weights: np.ndarray = dataclasses.field(compare=False, repr=False)


@lru_cache(maxsize=64)
def _lanes(q: int, m: int) -> _Lanes:
    """The word layout of m measurements over GF(q), kept per (q, m) like its read-only arrays.

    ``weights`` (count, m) holds 2^shift of row r in word r // per and 0
    elsewhere: lanes do not overlap, so a word's OR of its shifted rows
    is their sum, weights @ rows.
    """
    p, e = check_prime_power(q)
    bits = e if p == 2 else (p - 1).bit_length() + 1
    count = max(1, -(-m // (64 // bits)))
    per = -(-m // count)
    dtype = next(t for t in _WORD_TYPES if 8 * t.itemsize >= per * bits)
    shifts = (bits * (np.arange(count * per) % per)).astype(dtype)
    weights = np.zeros((count, m), dtype=dtype)
    weights[np.arange(m) // per, np.arange(m)] = np.left_shift(1, shifts[:m], dtype=dtype)
    for table in (shifts, weights):
        table.setflags(write=False)
    return _Lanes(bits, per, count, dtype, shifts, weights)


# the most entries (s, m, ...) that _pack_rows gathers at once
_GATHER_ENTRIES = _CHUNK_WORDS // 64


def _pack_rows(lanes: _Lanes, rows: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Rows (m, ...) of entries in 0..q-1, scaled by an (s, q) table, as (count, s, ...) words.

    Row r packs as scale[:, rows[r]] into lane r % per of word r // per,
    and lanes do not overlap, so a word ORs its rows together.  All rows
    are gathered at once where that is at most _GATHER_ENTRIES entries,
    as for one matrix of a decode, and each word summed from them by
    one product with the lane weights; otherwise each row on its own,
    so the build holds one row's index and values beside the words, not
    the whole (s, m, ...) gather.
    """
    s, per = len(scale), lanes.per
    shape = (lanes.count, s) + rows.shape[1:]
    if s * rows.size <= _GATHER_ENTRIES:
        vals = np.take(scale, rows, axis=1).reshape(s, len(rows), -1)
        return np.matmul(lanes.weights, vals).swapaxes(0, 1).reshape(shape)
    words = np.zeros(shape, dtype=lanes.dtype)
    for r, row in enumerate(rows):
        vals = np.take(scale, row, axis=1)
        vals <<= lanes.shifts[r]
        words[r // per] |= vals
    return words


def pack_measurements(field: FiniteField, y) -> np.ndarray:
    """Measurements (..., m) with entries in 0..q-1, packed into their (..., count) words.

    Row r goes into lane r % per of word r // per: the layout of
    _lanes(q, m), the one measure_levels takes its targets in and sums
    columns in, so a partial sum meets a target where all their words
    are equal (match_words).
    """
    y = np.asarray(y)
    *stack, m = y.shape
    lanes = _lanes(field.q, m)
    vals = np.zeros((*stack, lanes.count * lanes.per), dtype=lanes.dtype)
    vals[..., :m] = y
    vals <<= lanes.shifts
    return np.bitwise_or.reduce(vals.reshape(*stack, lanes.count, lanes.per), axis=-1)


def unpack_measurements(field: FiniteField, words: np.ndarray, m: int) -> np.ndarray:
    """The (..., m) int16 measurements held in (..., count) words: pack_measurements undone."""
    lanes = _lanes(field.q, m)
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


@lru_cache(maxsize=64)
def _lane_sum(p: int, lanes: _Lanes):
    """The lane-wise field sum over GF(p^e) of two word arrays, as a ufunc-like (a, b) -> words.

    In characteristic 2 it is XOR.  For odd p each lane of s = a + b is
    below 2p - 1, and adding 2**(bits-1) - p to it sets the lane's top
    bit exactly where s >= p, without a carry out of the lane; that bit,
    shifted down and times p, is subtracted, so each lane is again a
    reduced residue.
    """
    if p == 2:
        return np.bitwise_xor
    word = lanes.dtype.type
    ones = sum(1 << (lanes.bits * i) for i in range(lanes.per))
    top = 1 << (lanes.bits - 1)
    carry, high = word((top - p) * ones), word(top * ones)
    shift, p = word(lanes.bits - 1), word(p)

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
    as its target; for one matrix, the ranks.  Every member's
    measurement is decided exactly: levels 0 and 1 off the targets and
    the goal table, the others by the sweep or the join (see
    _ColumnTable).  The targets are checked at the call, and a level is
    scanned only when reached, so a caller may stop early.
    """
    return _ColumnTable(field, mats).levels(k_max, targets)


def _joins(n: int, w: int, q: int, m: int, b: int) -> bool:
    """Whether level w >= 2 of a scan of b (m, n) matrices over GF(q) takes the join, else the sweep.

    The join (_ColumnTable._join) needs one matrix, b = 1, one word per
    packed measurement, and a sort key of that word, a column
    below n and an index below the largest chunk of level w - 1 within
    64 bits.  It is then taken where it costs less.  It sums and looks
    up |L_{w-1}| prefixes, where the sweep forms |L_w| / (q - 1) partial
    sums and makes |L_w| comparisons; a prefix or a partial sum costs
    about _PREFIX_COST comparisons, so the join is taken where
    _PREFIX_COST |L_{w-1}| <= (_PREFIX_COST / (q - 1) + 1) |L_w|, that
    is _PREFIX_COST w <= (n - w + 1) (q - 1 + _PREFIX_COST).
    """
    if b != 1 or _PREFIX_COST * w > (n - w + 1) * (q - 1 + _PREFIX_COST):
        return False
    lanes = _lanes(q, m)
    prefixes = min(comb(n, w - 1) * (q - 1) ** (w - 1), _CHUNK_WORDS)
    used = m * lanes.bits + (n - 1).bit_length() + (prefixes - 1).bit_length()
    return lanes.count == 1 and used <= 64


class _ColumnTable:
    """The packed scaled columns v * A[..., j] of a stack of b (m, n) matrices, and the level scan.

    ``table`` holds word i of v * mats[..., j] for v = 1..q-1, every
    column j and all b * count words of the matrices, matrix by matrix;
    its value axis is ``axis`` and the column axis the one before it.
    The wider of the word and value axes is laid out innermost:
    (n, q-1, words) with axis 1, else (words, n, q-1) with axis 2.

    A member fits its target y exactly where the sum of its first w - 1
    scaled columns equals y - v * A_j, j and v its last column and
    value; those goals are one table, built once per scan.  Levels 0
    and 1 sum no columns and are one comparison each, of the targets
    and of the goal table with zero (_base).  Each level from 2 on takes
    one of two exact routes to that equality (_joins chooses):

    * The sweep (_chunks).  Every support of a level carries the same
      (q-1)^w value tuples, so a chunk of supports sums its first w - 1
      columns as outer sums of the table's scaled columns, in canonical
      order, without building a candidate, and compares each partial
      sum with its goals: |L_w| comparisons per matrix.
    * The join (_join), for one matrix.  The prefixes, level w - 1's
      members, are summed in chunks the same way; those whose words'
      low bits meet a goal's are sorted as keys (word, last column,
      index), and the goal of last column j and value v then meets, by
      two binary searches, exactly the prefixes whose word equals it
      and whose last column lies below j: |L_{w-1}| prefixes and
      n (q - 1) searches.  A hit's rank is its prefix's (_prefix_ranks)
      plus a term of its last column and value.

    A chunk spans at most _CHUNK_WORDS words: its members' words (and
    for the join their indices or keys), and the int64 columns that
    unrank each unit, counted in words of the table's width.  Where a
    support's (q-1)^w tuples are more than that, they are split by their
    leading values, so no whole level is ever built.
    """

    def __init__(self, field: FiniteField, mats: np.ndarray):
        *stack, m, n = mats.shape
        _check_entries(field.q, mats)
        self.field, self.lanes, self.stack = field, _lanes(field.q, m), tuple(stack)
        self.lane_sum = _lane_sum(field.p, self.lanes)
        v, rows = field.q - 1, mats.reshape(-1, m, n).swapaxes(0, 1)  # (m, b, n)
        # scaled[v - 1, x] = v * x in the word type, packed by _pack_rows: (count, q-1, b, n)
        scaled = field.mul_table[1:].astype(self.lanes.dtype)
        packed = _pack_rows(self.lanes, rows, scaled)
        if rows.shape[1] * self.lanes.count > v:  # (n, q-1, b, count)
            self.axis, order, shape = 1, (3, 1, 2, 0), (n, v, -1)
        else:  # (b, count, n, q-1)
            self.axis, order, shape = 2, (2, 0, 3, 1), (-1, n, v)
        self.table = np.ascontiguousarray(packed.transpose(order)).reshape(shape)
        self.m = m

    def member_words(self, weights: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """The (b, count) packed measurement, by matrix i, of the member of weight weights[i] at rank ranks[i] of its level.

        Each member is unranked (_level_terms: its support read from
        the level's kept table, its values by division), or where a
        level has fewer members than it has ranks here, the whole level
        once, and its scaled columns are read from the table and summed,
        so no (b, m, n) array is built.  A Monte Carlo block can hold far
        more trials than a level has members: at n = 10, k = 2, a q = 2
        block of 3,120 trials meets the 45 weight-2 members thousands of
        times.
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
        targets = targets.astype(self.lanes.dtype, copy=False).reshape(-1)
        # goal, laid out like the table: the partial sum that meets the
        # targets where the last column is j and its value v is
        # targets + (-v) * A_j
        neg = self.field.neg_table[1:] - 1
        words = (1, 1, -1) if self.axis == 1 else (-1, 1, 1)
        goal = self.lane_sum(targets.reshape(words), self.table.take(neg, axis=self.axis))
        return self._scan(goal, targets, k_max)

    def _scan(self, goal: np.ndarray, targets: np.ndarray, k_max: int):
        """Levels 0..k_max as (w, hits): 0 and 1 by _base, the others by the route _joins picks."""
        b = len(targets) // self.lanes.count
        n, q = self.table.shape[self.axis - 1], self.field.q
        queries = None
        for w in range(k_max + 1):
            if w < 2:
                yield w, self._base(goal, targets, w).reshape(-1).nonzero()[0]
            elif _joins(n, w, q, self.m, b):
                queries = self._queries(goal) if queries is None else queries
                yield w, self._join(queries, w)
            else:
                chunks = self._chunks(goal, targets, w)
                yield w, np.concatenate([start * b + np.flatnonzero(mask) for start, mask in chunks])

    def _sums(self, w: int, cost: int, cols: int):
        """Level w in chunks of units as (start, support, leading, sums).

        A unit is a support and its leading values, and ``sums`` holds,
        in canonical order, each unit member's sum of its first ``cols``
        scaled columns (all q - 1 values of a column past the leading
        ones), laid out like the table; start is the rank of the chunk's
        first member.  A member costs ``cost`` words.
        """
        table, axis = self.table, self.axis
        n, v = table.shape[axis - 1], table.shape[axis]
        # a unit costs its members' words and its supports: _level_terms,
        # where it unranks them, holds at most 3w + 4 int64 per rank,
        # counted here in table words
        unranking = -(-8 * (3 * w + 4) // table.itemsize)
        # fix the leading `lead` values of a unit's tuples, so that each
        # (support, leading values) unit fits in a chunk
        lead = next((i for i in range(w) if v ** (w - i) * cost + unranking <= _CHUNK_WORDS), w)
        span = v ** (w - lead)
        step = max(1, _CHUNK_WORDS // (span * cost + unranking))
        units = comb(n, w) * v**lead
        for lo in range(0, units, step):
            hi = min(lo + step, units)
            if lead:
                ranks = np.arange(lo, hi, dtype=np.int64)
                support, leading = _level_terms(n, w, v + 1, ranks, lead)
            else:  # a unit is a support: a run of its level's, and no leading values
                support = _supports(n, w, slice(lo, hi))
                leading = support[:, :0]
            acc = _take_column(table, axis, support, leading, 0)
            for i in range(1, cols):
                acc = _outer_sum(self.lane_sum, acc, _take_column(table, axis, support, leading, i), axis)
            yield lo * span, support, leading, acc

    def _match(self, have: np.ndarray, want: np.ndarray, b: int) -> np.ndarray:
        """mask[r, i]: whether matrix i's words of member r are equal in have and want.

        Both are laid out like the table, their b * count words on the
        last axis (axis 1) or the first (axis 2), and broadcast against
        each other; the other axes hold the members, in order.  The word
        axis is split into (b, count), and each matrix's words matched.
        """
        split = (b, self.lanes.count)
        if self.axis == 1:
            mask = match_words(have.reshape(have.shape[:-1] + split), want.reshape(want.shape[:-1] + split))
            return mask.reshape(-1, b)
        # (b, count, members...) with the count axis moved last
        order = (0, *range(2, have.ndim + 1), 1)
        have = have.reshape(split + have.shape[1:]).transpose(order)
        want = want.reshape(split + want.shape[1:]).transpose(order)
        return match_words(have, want).reshape(b, -1).T

    def _base(self, goal: np.ndarray, targets: np.ndarray, w: int) -> np.ndarray:
        """Level 0 or 1 as its (members, b) mask, read off the targets or the goal table.

        A member of weight w <= 1 sums no columns before its last, so
        its partial sum is zero: the zero member hits where its target
        is 0, and member (j, v), at rank j (q - 1) + v - 1 of level 1,
        where its goal y - v * A_j is.  The goal table lists those goals
        in that order, so level 1 is one comparison of it with zero.
        """
        size = len(targets)
        zero = np.zeros((1, 1, size) if self.axis == 1 else (size, 1, 1), dtype=targets.dtype)
        return self._match(zero, goal if w else targets.reshape(zero.shape), size // self.lanes.count)

    def _chunks(self, goal: np.ndarray, targets: np.ndarray, w: int):
        """Level w >= 2 in order as (start, mask): mask[r, i] is whether matrix i meets goal at rank start + r."""
        axis, b = self.axis, len(targets) // self.lanes.count
        pre = (slice(None),) * axis
        for start, support, leading, acc in self._sums(w, len(targets), w - 1):
            # every partial sum against the goal of every last value: (X, 1) against (1, V)
            have = acc[pre + (slice(None), None)]
            want = _take_column(goal, axis, support, leading, w - 1)[pre + (None,)]
            yield start, self._match(have, want, b)

    def _queries(self, goal: np.ndarray):
        """The join's key layout, queries and word filter for one matrix.

        A key is (word, column, index) from the top bit down, the index
        taking the bits that the word and a column below n leave.  Query
        j * (q-1) + v - 1, for last column j and value v, spans the keys
        [(g, 0, 0), (g, j, 0)) of its goal word g.  The queries are
        sorted once per scan, ``order`` holding their ids in sorted
        order, so that each chunk's searches take them in key order.
        The filter ``seen`` marks the low ``low`` bits of every goal
        word: a word whose low bits it does not mark equals no goal.
        """
        n, v = self.table.shape[1:]
        word_bits = self.m * self.lanes.bits
        index_bits = 64 - word_bits - (n - 1).bit_length()
        goals = goal.reshape(-1)
        shift = np.uint64(64 - word_bits)
        upper = goals.astype(np.uint64) << shift
        upper |= np.arange(n * v, dtype=np.uint64) // np.uint64(v) << np.uint64(index_bits)
        order = upper.argsort()
        upper = upper[order]
        # about 64 filter entries a goal, at most _CHUNK_WORDS
        low = (1 << min(word_bits, (64 * len(goals)).bit_length(), _CHUNK_WORDS.bit_length() - 1)) - 1
        seen = np.zeros(low + 1, dtype=bool)
        seen[goals & self.lanes.dtype.type(low)] = True
        return index_bits, order, upper & ~np.uint64((1 << (64 - word_bits)) - 1), upper, low, seen

    def _join(self, queries, w: int) -> np.ndarray:
        """Level w's hits for one matrix of one-word measurements (w >= 2), by sort and join.

        A member of weight w splits, at its last column j and value v,
        into a prefix of weight w - 1, whose last column lies below j,
        and v * A_j; it hits exactly where the prefix's word is the goal
        y - v * A_j.  Of a chunk of prefixes, those whose words pass the
        filter are keyed (word, last column, index in the chunk) in one
        uint64 and sorted, so each query's key range holds exactly the
        prefixes that complete to a hit (_queries).  Each hit ranks as
        its prefix's _prefix_ranks, from the prefix's rank and support,
        plus j (q-1)^w + v - 1 for its query's last column j and value v;
        the level's hits are returned sorted.
        """
        index_bits, order, lower, upper, low, seen = queries
        n, v = self.table.shape[1:]
        shift, low = np.uint64(64 - self.m * self.lanes.bits), self.lanes.dtype.type(low)
        mask, tuples = np.uint64((1 << index_bits) - 1), v ** (w - 1)
        cost = 1 + -(-8 // self.table.itemsize)  # a prefix's word and its index or key
        # a hit's ranking holds about w + 12 int64, so the hits are ranked a
        # run of queries at a time, a run holding one query or at most
        # per_run hits
        per_run = max(1, _CHUNK_WORDS // (w + 12))
        found = []
        for start, support, _, acc in self._sums(w - 1, cost, w - 1):
            words = acc.reshape(-1)
            span = len(words) // len(support)
            kept = seen.take(words & low).nonzero()[0]
            keys = words[kept].astype(np.uint64)
            keys <<= shift
            keys |= support[kept // span, -1].view(np.uint64) << np.uint64(index_bits)
            keys |= kept.view(np.uint64)
            keys.sort()
            first = keys.searchsorted(lower)
            counts = keys.searchsorted(upper) - first
            ends = counts.cumsum()
            if not ends[-1]:
                continue
            # hit h, of query k, is the key at first[k] + h - (ends[k] - counts[k])
            offset = first - ends + counts
            total = int(ends[-1])
            runs = ends.searchsorted(np.arange(0, total, per_run), "right").tolist()
            for a, b in zip(runs, runs[1:] + [len(counts)]):
                if a == b:
                    continue
                query = np.repeat(np.arange(a, b), counts[a:b])
                at = np.arange(ends[a] - counts[a], ends[b - 1]) + offset[query]
                index = (keys[at] & mask).view(np.int64)
                ranks = _prefix_ranks(n, w, v + 1, start + index, support[index // span])
                # and its completion by the query's last column j and value v
                last, value = np.divmod(order[query], v)
                ranks += last * (tuples * v) + value
                found.append(ranks)
        hits = np.concatenate(found) if found else np.zeros(0, dtype=np.int64)
        hits.sort()
        return hits


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
