"""The signal set, the random sensing-matrix ensemble, and the measurement map.

The signal set L is every length-N vector over GF(q) with at most K
nonzero entries.  Signals are drawn uniformly from L; sensing matrices
have i.i.d. entries that are zero with probability 1 - gamma and each
nonzero value with probability gamma / (q - 1).  The one seeded draw
of instances is montecarlo.sample_trials: matrices and signals are
plain int16 arrays, the trials that ``ffcs simulate`` measures.

Measurement: y = A x over GF(q).  measure_levels, the one fast kernel,
sweeps L level by level for the exhaustive decoder and the Monte Carlo
flags: every weight-w support carries the same (q-1)^w value tuples,
so a chunk of supports is measured as outer sums of the scaled columns
v * A[:, j], in canonical order, without building a candidate;
level_starts gives the rank where each level begins, and level_members
unranks just the candidates a caller keeps.
measure_candidates is the definition of A x, a table gather and a
field sum, for explicit vectors (matvec, a signal's own measurements,
the nullity test's vector pair).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, log

import numpy as np

from .errors import DimensionMismatch, EnumerationCapExceeded, InvalidGamma
from .field import FiniteField, check_prime_power

# candidates per enumerated block; bounds the peak memory of every scan
_BLOCK = 8192


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
    """Raise ValueError unless every entry is in 0..q-1; others index the field tables wrongly."""
    for arr in arrays:
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


def _outer_sum(field: FiniteField, acc: np.ndarray, term: np.ndarray, axis: int) -> np.ndarray:
    """Field sums of every value tuple of acc with every value of term, along axis.

    acc holds X tuples and term V values on ``axis``; the result holds
    the X * V sums there, tuple-major, which is the lexicographic order
    of the extended tuples.
    """
    pre = (slice(None),) * axis
    out = acc[pre + (slice(None), None)]  # X tuples -> (X, 1)
    term = term[pre + (None,)]  # V values -> (1, V)
    if field.p == 2:
        out = out ^ term
    else:
        # two residues sum below 2p; from a sum below p, subtracting p
        # wraps past 2**16 - p, so the minimum is the sum mod p
        out = out + term
        np.minimum(out, out - field.p, out=out)
    return out.reshape(out.shape[:axis] + (-1,) + out.shape[axis + 2 :])


def measure_levels(field: FiniteField, rows: np.ndarray, k_max: int):
    """Yield (w, chunks) for w = 0..k_max: the weight-w members of L, measured.

    ``chunks`` yields (start, meas), ``meas`` the (c, b) int16
    measurement, by each of the b rows of the (b, n) array ``rows``, of
    the level's members at canonical ranks start..start+c-1; the chunks
    cover the level in order.  Every support of a level carries the same
    (q-1)^w value tuples, so a chunk of supports S is measured as outer
    sums of the scaled columns v * rows[:, S_i], v = 1..q-1: no
    candidate is built, and a C-order flatten over (support, v_1, ...,
    v_w) is the canonical order.  A chunk holds at most _BLOCK members:
    where (q-1)^w exceeds _BLOCK, each support's tuples are split by
    their leading values, so no whole level is ever built.  The wider of
    the batch and value axes is laid out innermost.
    """
    b, n = rows.shape
    v = field.q - 1
    _check_entries(field.q, rows)
    # scaled[v - 1, r, j] = v * rows[r, j]; in the table, the value axis
    # is `axis` and the column axis the one before it
    scaled = field.mul_table[1:][:, rows].view(np.uint16)
    if b > v:
        table, axis = np.ascontiguousarray(scaled.transpose(2, 0, 1)), 1  # (n, q-1, b)
    else:
        table, axis = np.ascontiguousarray(scaled.transpose(1, 2, 0)), 2  # (b, n, q-1)
    for w in range(k_max + 1):
        yield w, _level_chunks(field, table, axis, w)


def _level_chunks(field: FiniteField, table: np.ndarray, axis: int, w: int):
    """The chunks of measure_levels for level w, from its table of scaled columns."""
    n, v = table.shape[axis - 1], field.q - 1
    b = table.size // (n * v)
    if w == 0:
        yield 0, np.zeros((1, b), dtype=np.int16)
        return
    # the table with its column and value axes merged, keyed j * (q-1) + v - 1
    flat = table.reshape(table.shape[: axis - 1] + (-1,) + table.shape[axis + 1 :])
    # fix the leading `lead` values of a chunk's tuples, so that each
    # (support, leading values) unit spans at most _BLOCK members
    lead = next(i for i in range(w + 1) if v ** (w - i) <= _BLOCK)
    span = v ** (w - lead)
    units = comb(n, w) * v**lead
    step = _BLOCK // span
    # the units' terms are unranked _BLOCK units at a time, then measured
    # `step` units a chunk
    for group in range(0, units, _BLOCK):
        ranks = np.arange(group, min(group + _BLOCK, units), dtype=np.int64)
        supports, leadings = _level_terms(n, w, field.q, ranks, lead)
        for lo in range(0, len(ranks), step):
            support, leading = supports[lo : lo + step], leadings[lo : lo + step]
            acc = None
            for i in range(w):
                if i < lead:
                    keys = support[:, i] * v + leading[:, i] - 1
                    term = np.expand_dims(np.take(flat, keys, axis=axis - 1), axis)
                else:
                    term = np.take(table, support[:, i], axis=axis - 1)
                acc = term if acc is None else _outer_sum(field, acc, term, axis)
            meas = acc.reshape((-1, b) if axis == 1 else (b, -1)).view(np.int16)
            yield (group + lo) * span, meas if axis == 1 else meas.T


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
    increase, as np.add.reduceat over them needs.
    """
    return np.cumsum((0,) + signal_set_size(n, k_max, q).per_sparsity[:-1], dtype=np.int64)


def candidate_matrix(n: int, k_max: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Materialize all of L as a (|L|, n) matrix plus a weight vector.

    Raises EnumerationCapExceeded before allocating anything if |L| is
    above ENUMERATION_CAP (10^8 candidates).
    """
    out = np.empty((check_enumeration_cap(n, k_max, q), n), dtype=np.int16)
    sizes = signal_set_size(n, k_max, q).per_sparsity
    for w, (start, size) in enumerate(zip(level_starts(n, k_max, q), sizes)):
        for first in range(0, size, _BLOCK):
            ranks = np.arange(first, min(first + _BLOCK, size))
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
