"""Error-probability bounds and pair-distance combinatorics.

Everything here is a pure function of the model parameters.  Two
evaluation paths coexist:

* an exact path using arbitrary-precision integers (nh_count), kept for
  n up to EXACT_N_LIMIT, where pair counts are computed as exact
  integers and only converted to logs at the very end;
* a log-domain path (nh_log_profile) that evaluates a regrouped form of
  the same count with log-factorial binomials (log j! from math.lgamma),
  prefix sums along binomial rows and log-sum-exp, in O(K^2) per
  sparsity level K; it is used for large n (the signal-set sizes have
  hundreds of digits at n = 1000).

The two paths agree to ~1e-15 relative wherever both run, and the
analytic pair counts are validated against an exhaustive oracle that
literally walks all ordered signal pairs.

Pair-count derivation (the quantity N_h): classify each position of an
ordered pair (x, x') of signals:

    a = both nonzero and equal                 (q - 1 ways)
    b = only x nonzero                         (q - 1 ways)
    c = both nonzero and different             ((q - 1)(q - 2) ways)
    t = only x' nonzero                        (q - 1 ways)

and the rest both zero, so weight(x) = a + b + c, weight(x') = a + c + t
and h = b + c + t.  N_h sums the multinomial count over the valid
(a, b, c, t).  The AllPairs variant caps both weights at the model
sparsity K; RestrictedPairs also requires weight(x') <= weight(x)
(t <= b), counting only pairs the minimum-weight rule could actually
confuse.  nh_count walks (weight(x), b, c, t) with exact integers.

For the log-domain path, split the multinomial as
C(n, h) * h!/(b! c! t!) * C(n - h, a) and write r = q - 2 and

    S_R(A) = sum_{a <= A} C(R, a) (q - 1)^a      (prefix of a binomial row)
    P_v(i) = sum_{c <= i} C(v, c) r^c

so that N_h = C(n, h) (q - 1)^h sum_{b + c + t = h} h!/(b! c! t!) r^c
S_{n-h}(A), with A = K - max(b + c, h - b) for AllPairs and
A = K - h + t for RestrictedPairs.  Summing c out where t >= b, and b
out where t < b (grouped by u = b + c), leaves one prefix sum per term:

    AllPairs:    N_h = C(n, h) (q - 1)^h (T_h + U_h)
    Restricted:  N_h = C(n, h) (q - 1)^h T_h
    T_h = sum_{b <= h/2} C(h, b) P_{h-b}(h - 2b) S_{n-h}(K - h + b)
    U_h = sum_{(h+1)/2 <= u <= h} C(h, u) P_u(2u - h - 1) S_{n-h}(K - u)

RestrictedPairs sums over t <= b, grouped by t; the mirror x <-> x'
maps these terms onto the t >= b terms of AllPairs grouped by b, so
both variants share T_h.  The tail sums over b come out as P because
sum_{b >= i} C(u, b) r^(u-b) = P_u(u - i).  Every term is positive, so
log-sum-exp is stable, and with the P rows tabulated each h costs O(h).

Only the S column a term reads depends on K, so the rest is kept across
profile misses, in one _ProfileTables per (n, q): log j! up to n, a
triangle of term weights, log C(h, j) plus the log P that term j of
distance h reads, and the rows S_{n-h}, with room for a larger K to
lengthen every row in place from its last value.  One (n, q) is kept
at a time, as a curve sweeps K for one q before the next.
Term j of distance h reads P row max(h - j, j), and a profile of K
forms only terms whose row is at most K (below), so the tables build P
rows up to K only and keep none: each new row goes straight into the
weights that read it, and a weight is written at the first K whose
profile can read it.  The weight rows reach min(2K, n), and P built
that far would be four times the entries any profile reads.
P and S are both log prefix sums along binomial rows, of ratio q - 2 for
P and q - 1 for S, and _log_prefix_sums builds both, a block of rows
one column at a time.

Term j of distance h reads S_{n-h}(K - max(h - j, j)), so where j < h - K
or j > K the cap leaves it no pair and the term is an exact zero.  A
profile miss forms only the other terms, one run j = lo..hi per distance
(T_h's b = j up to h/2, then for AllPairs U_h's u = j above it).  One
run, with max(h - j, j) formed in place, is the least code and measured
no slower than an ascending T_h run and a descending U_h run, which
spared the max but doubled the segments.  The distances are taken a
chunk at a time, _PROFILE_ELEMS // (K + 1) of them, so their runs make
one array of at most _PROFILE_ELEMS terms, and their weights are one
slice of the weight triangle.  Each distance then sums its
exponentiated terms, zeros in place, as one 1-D sum, so no bit depends
on the chunking.  The tables grow a block of about _TABLE_ELEMS entries
at a time; at n = 1000, K = 500 they hold 4.0 MB of weights, about
half of them written, and 2.0 MB of S rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .errors import EnumerationCapExceeded, InvalidGamma
from .field import FiniteField, check_prime_power
from .model import ModelParams, SignalSetSize, candidate_matrix, check_integer, check_signal_set, signal_set_size
from .util import log_factorials, log_of_int, logsumexp

NEG_INF = float("-inf")

# largest n for which the exact big-integer pair-count path is used
EXACT_N_LIMIT = 64

# |L|^2 cap for the exhaustive pair oracle
ORACLE_PAIR_CAP = 10**8

# (x, x', position) triples the pair oracle compares at once
_ORACLE_BLOCK = 1 << 20

# a chunk of profile distances has _PROFILE_ELEMS // (K + 1) rows of at
# most K + 1 terms and 2K + 1 weights, so its memory does not grow with K
_PROFILE_ELEMS = 1 << 13

# the kept profile tables grow a block of about _TABLE_ELEMS entries at a
# time: wide enough for their column sweeps, and small beside the tables
_TABLE_ELEMS = 1 << 15

# below this many rows a block of binomial prefix sums is accumulated along
# each row; from it on, one logaddexp per column over all rows is faster
_SWEEP_ROWS = 32


class PairVariant(str, Enum):
    """Which ordered signal pairs (x, x') enter the pair counts.

    ALL_PAIRS       : every x' != x in L.  Summing the counts over all
                      distances gives exactly (|L| - 1) |L|, which is what
                      the closed-form dense bound requires.
    RESTRICTED_PAIRS: only x' with weight(x') <= weight(x), the pairs a
                      minimum-weight decoder can actually confuse.
    """

    ALL_PAIRS = "all"
    RESTRICTED_PAIRS = "restricted"


@dataclass(frozen=True)
class LogProb:
    """A probability-like quantity carried in natural-log domain.

    log_value may exceed 0 for union bounds, which are not themselves
    probabilities; capped_log/capped_linear clamp into [0, 1] for
    reporting.  -inf encodes exact zero.
    """

    log_value: float

    @classmethod
    def from_linear(cls, p: float) -> "LogProb":
        if p < 0:
            raise ValueError(f"probability cannot be negative: {p}")
        return cls(log_value=math.log(p) if p > 0 else NEG_INF)

    @property
    def linear(self) -> float:
        """exp(log_value); underflows to 0.0 and overflows to inf."""
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return math.inf

    @property
    def capped_log(self) -> float:
        return min(0.0, self.log_value)

    @property
    def capped_linear(self) -> float:
        return math.exp(self.capped_log)


# row-nullity probabilities ------------------------------------------------


def _row_zero_linear(q: int, gamma: float, h):
    # computed in linear domain: the base may be negative for gamma above
    # the dense point, but an integer power keeps the value real; h may be
    # an array of distances (base**h is then np.power)
    base = 1.0 - gamma / (1.0 - 1.0 / q)
    p = 1.0 / q + (1.0 - 1.0 / q) * base**h
    if base >= 0.0:
        return p
    # rounding misses p(1) = 1 - gamma by a residue of either sign near
    # gamma = 1, clamped here; at gamma = 1 no row annihilates one entry
    p = np.maximum(p, 0.0) if isinstance(p, np.ndarray) else max(0.0, p)
    return p * (h != 1) if gamma == 1.0 else p


def _check_row(gamma: float, h: int) -> None:
    """Raise unless h is an integer >= 1 and gamma lies in (0, 1]."""
    check_integer("h", h)
    if h < 1:
        raise ValueError("h must be >= 1")
    if not 0.0 < gamma <= 1.0:
        raise InvalidGamma(f"gamma must lie in (0, 1], got {gamma}")


def row_zero_prob_sparse(q: int, gamma: float, h: int) -> LogProb:
    """Probability that one gamma-sparse row annihilates a weight-h vector.

    Equals 1/q + (1 - 1/q) (1 - gamma/(1 - 1/q))^h: the distribution of a
    sum of h i.i.d. gamma-sparse entries is flat on GF(q) except for an
    excess at zero that decays geometrically in h.  At gamma = 1 - 1/q the
    excess vanishes and the dense value 1/q is recovered exactly.
    """
    check_prime_power(q)
    _check_row(gamma, h)
    return LogProb.from_linear(_row_zero_linear(q, gamma, h))


def convolution_oracle(field: FiniteField, gamma: float, h: int) -> LogProb:
    """P(sum of h i.i.d. gamma-sparse entries = 0) by explicit convolution.

    Folds the entry distribution h-1 times through the field's addition
    table.  Exists purely to validate row_zero_prob_sparse; never used on
    any bound path.
    """
    _check_row(gamma, h)
    q = field.q
    pmf = np.full(q, gamma / (q - 1))
    pmf[0] = 1.0 - gamma
    dist = pmf.copy()
    for _ in range(h - 1):
        nxt = np.zeros(q)
        np.add.at(nxt, field.add_table, dist[:, None] * pmf[None, :])
        dist = nxt
    return LogProb.from_linear(float(dist[0]))


# pair counts ----------------------------------------------------------------


@lru_cache(maxsize=256)
def _nh_count_cached(n: int, k_max: int, q: int, variant: PairVariant) -> tuple:
    counts: dict[int, int] = {}
    for k1 in range(k_max + 1):
        size_k1 = comb(n, k1) * (q - 1) ** k1
        cap = k_max if variant is PairVariant.ALL_PAIRS else k1
        for b in range(k1 + 1):
            for c in range(k1 - b + 1):
                a = k1 - b - c
                base = (
                    factorial(k1) // (factorial(a) * factorial(b) * factorial(c))
                ) * (q - 2) ** c
                if base == 0:
                    continue
                w_on = a + c  # weight contributed on the support of x
                t_hi = min(n - k1, cap - w_on)
                for t in range(t_hi + 1):
                    h = b + c + t
                    if h == 0:
                        continue  # x' == x
                    counts[h] = counts.get(h, 0) + (
                        size_k1 * base * comb(n - k1, t) * (q - 1) ** t
                    )
    return tuple(sorted(counts.items()))


def nh_count(n: int, k_max: int, q: int, variant: PairVariant) -> dict[int, int]:
    """Exact number of ordered signal pairs at each Hamming distance, as a
    fresh {h: N_h} dict over the distances with pairs, in ascending h.

    Closed form from the position-class derivation in the module
    docstring; validated term-for-term against nh_oracle on the small
    grid before being trusted anywhere else.
    """
    check_signal_set(n, k_max, q)
    return dict(_nh_count_cached(n, k_max, q, PairVariant(variant)))


def pair_total(sizes: SignalSetSize, variant: PairVariant) -> int:
    """Exact number of ordered pairs x' != x that enter the pair counts:
    the sum of N_h over every distance h, which depends on L only
    through its per-sparsity sizes.

    AllPairs pairs every member of L with every other, (|L| - 1) |L|;
    RestrictedPairs pairs x with each x' no heavier, sum_w |L_w|
    sum_{w' <= w} |L_w'|, less the |L| pairs with x' = x.
    """
    if PairVariant(variant) is PairVariant.ALL_PAIRS:
        return (sizes.total - 1) * sizes.total
    lighter = itertools.accumulate(sizes.per_sparsity)
    return sum(w * acc for w, acc in zip(sizes.per_sparsity, lighter)) - sizes.total


def nh_oracle(field: FiniteField, n: int, k_max: int) -> dict[PairVariant, dict[int, int]]:
    """Pair counts by brute force: literally walk all of L x L.

    Returns {variant: nh_count's {h: N_h}}, both from one enumeration.
    Refuses instances with |L|^2 above ORACLE_PAIR_CAP.  A block of x is
    compared with all of L at a time, at most _ORACLE_BLOCK (x, x',
    position) triples, so memory does not grow with |L|^2 n.
    """
    total = signal_set_size(n, k_max, field.q).total
    if total * total > ORACLE_PAIR_CAP:
        raise EnumerationCapExceeded(
            f"|L|^2 = {total * total} exceeds the oracle cap {ORACLE_PAIR_CAP}"
        )
    cands, weights = candidate_matrix(n, k_max, field.q)
    # pairs by distance h = 0..2K (x' == x at h = 0), AllPairs then RestrictedPairs
    counts = np.zeros((2, 2 * k_max + 1), dtype=np.int64)
    step = max(1, _ORACLE_BLOCK // max(1, total * n))
    for lo in range(0, total, step):
        x, w = cands[lo : lo + step], weights[lo : lo + step]
        dist = (x[:, None, :] != cands[None, :, :]).sum(axis=2)
        counts[0] += np.bincount(dist.ravel(), minlength=counts.shape[1])
        counts[1] += np.bincount(dist[weights[None, :] <= w[:, None]], minlength=counts.shape[1])
    return {
        variant: {h: int(c) for h, c in enumerate(row) if h and c}
        for variant, row in zip(PairVariant, counts)
    }


def _tri(v):
    """Offset of row v in a flat triangle."""
    return v * (v + 1) // 2


def _grown(flat: np.ndarray, size: int) -> np.ndarray:
    """A copy of flat with room for size entries; a buffer handed out
    earlier keeps its values."""
    grown = np.empty(size)
    grown[: flat.size] = flat
    return grown


def _log_binomial(lfact, top, a):
    """log C(top, a) for 0 <= a <= top, elementwise, from log j!."""
    return lfact[top] - lfact[a] - lfact[np.maximum(top - a, 0)]


def _log_prefix_sums(acc, terms):
    """Turn each row of a block of log terms into its log prefix sums, in
    place, going on from acc[i], what row i summed before the block (-inf
    for nothing).

    The block is summed along its columns: one elementwise logaddexp per
    column over every row, which gives each row the bits of one
    logaddexp.accumulate along it at a fraction of the cost.  A block of
    fewer than _SWEEP_ROWS rows takes that accumulate instead, since a
    call per column costs more there.  Both log prefix-sum tables, P and
    S, are built through here.
    """
    if len(terms) < _SWEEP_ROWS:
        terms[:] = np.logaddexp.accumulate(np.hstack((acc[:, None], terms)), axis=1)[:, 1:]
        return
    for col in terms.T:
        acc = np.logaddexp(acc, col, out=col)


class _ProfileTables:
    """The K-free tables of the log pair-count profile, for one (n, q).

    ``lfact`` holds log j! for j = 0..n.  ``weights`` is a flat
    triangle, row h at offset h(h + 1) / 2: entry j of row h is
    log C(h, j) plus the log P that term j of distance h reads,
    P_{h-j}(h - 2j) for T_h's b = j <= h / 2 and P_j(2j - h - 1) for
    U_h's u = j above it, both in P row x = max(h - j, j).  It is the
    K-free part of every term.  P itself, log P_x(i) for i = 0..x,
    depends on q alone and is not kept: the first ``rows`` rows, up to
    min(K, n), have been built, a block of whole rows at a time, and
    each went straight into the entries that read it, (x + j, j) and
    (x + j, x) for x + j <= n.  So the weight rows reach min(2K, n), but
    only the entries with max(h - j, j) <= K, the ones a profile of K
    reads, are written; a larger K writes more of the rest.

    ``S`` holds log S_{n-h}(A) for distances h = 1..min(2K, n) and
    A = 0..K - ceil(h/2), the most any term of distance h reads.  Row h
    starts at starts[h - 1] with a column 0 of -inf that stands for
    A < 0, where the cap leaves no term, and column A + 1 holds
    log S_{n-h}(A); past a = n - h the terms are -inf, so the prefix
    stays flat where its binomial row ends.  The buffer has room for
    every K up to cap: rows for h up to min(2 cap, n), each with the
    columns of K = cap.  A larger K fills in the new columns and rows in
    place, a block of columns across all rows at a time
    (_log_prefix_sums), and each row goes on accumulating from its last
    stored value, which gives the bits of one accumulate over the whole
    row.  A K above cap first moves the rows to a buffer with room for
    at least 1.5 times the old cap, so a rising K moves them only a few
    times; more room cost resident memory and saved no time.
    """

    def __init__(self, n: int, q: int):
        self.n, self.q = n, q
        self.lfact = log_factorials(n)
        self.logq1 = math.log(q - 1)
        self.rows = self.k = self.cap = 0
        self.weights = self.S = np.empty(0)
        self.starts = np.zeros(1, dtype=np.int64)

    def upto(self, k_max: int) -> "_ProfileTables":
        """The tables, grown to serve every K up to at least k_max: the
        weights that read P rows 0..min(k_max, n), the S rows to K = k_max."""
        if k_max > self.k:
            self._grow_weights(k_max)
            self._grow_rows(k_max)
        return self

    def _grow_weights(self, k_max: int) -> None:
        n, lfact = self.n, self.lfact
        hmax, xmax = min(2 * k_max, n), min(k_max, n)
        if _tri(hmax + 1) > self.weights.size:
            # room for twice the rows, so a rising K copies the triangle
            # only a few times; untouched room costs no resident memory
            size = _tri(max(hmax + 1, 2 * (min(2 * self.k, n) + 1)))
            self.weights = _grown(self.weights, size)
        # log r^c with r = q - 2; for q = 2 only r^0 = 1 survives (no 0 * -inf)
        if self.q > 2:
            log_rpow = np.arange(xmax + 1) * math.log(self.q - 2)
        else:
            log_rpow = np.full(xmax + 1, NEG_INF)
            log_rpow[0] = 0.0
        # a block of P rows at a time, as many as _TABLE_ELEMS entries
        # allow; a row's columns past c = x are cut off
        step = max(1, _TABLE_ELEMS // (xmax + 1))
        for x0 in range(self.rows, xmax + 1, step):
            x = np.arange(x0, min(x0 + step, xmax + 1))[:, None]
            c = np.arange(x[-1, 0] + 1)
            sums = _log_binomial(lfact, x, c) + log_rpow[c]
            _log_prefix_sums(np.full(len(x), NEG_INF), sums)
            P = sums.ravel()
            # row x of P goes to the terms of distance h = x + j <= n that
            # read it: T_h's b = j, W[h, j] = log C(h, j) + log P_x(x - j),
            # and for j < x U_h's u = x, W[h, x] = log C(h, x) + log P_x(x - j - 1)
            for u in (0, 1):
                i, j = np.nonzero((c + u <= x) & (x + c <= n))
                xi = x0 + i
                h, col = xi + j, xi if u else j
                self.weights[_tri(h) + col] = _log_binomial(lfact, h, col) + P[i * c.size + xi - j - u]
        self.rows = xmax + 1

    def _grow_rows(self, k_max: int) -> None:
        if k_max > self.cap:
            self._move(max(k_max, self.cap + self.cap // 2))
        hs = np.arange(1, min(2 * k_max, self.n) + 1)
        half = (hs + 1) // 2
        old = min(2 * self.k, self.n)
        # the first column to fill: past the last stored one, or past a new row's column 0
        col = np.where(hs <= old, self.k + 2 - half, 1)
        at = self.starts[: hs.size] + col
        self.S[self.starts[old : hs.size]] = NEG_INF
        acc = self.S[at - 1]
        R, a0, count = self.n - hs, col - 1, k_max + 2 - half - col
        log_pow = np.arange(k_max + 1) * self.logq1
        # a block of columns at a time over the rows still open, which come
        # first: the existing rows gain k_max - k columns, a new row fewer
        steps = int(count[0])
        block = max(1, _TABLE_ELEMS // hs.size)
        for t0 in range(0, steps, block):
            t = np.arange(t0, min(t0 + block, steps))
            m = int(np.count_nonzero(count > t0))
            a = a0[:m, None] + t
            sums = _log_binomial(self.lfact, R[:m, None], a) + log_pow[a]
            sums[a > R[:m, None]] = NEG_INF  # past the end of the binomial row
            _log_prefix_sums(acc[:m], sums)
            acc = sums[:, -1]
            done = t < count[:m, None]
            self.S[(at[:m, None] + t)[done]] = sums[done]
        self.k = k_max

    def _move(self, cap: int) -> None:
        """Move the S rows, room and all, to a buffer with room up to K = cap."""
        hs = np.arange(1, min(2 * cap, self.n) + 1)
        starts = np.zeros(hs.size + 1, dtype=np.int64)
        np.cumsum(cap + 2 - (hs + 1) // 2, out=starts[1:])
        grown = np.empty(starts[-1])
        was = self.starts
        rows = was.size - 1
        grown[np.arange(was[-1]) + np.repeat(starts[:rows] - was[:-1], np.diff(was))] = self.S
        self.S, self.starts, self.cap = grown, starts, cap


# one (n, q) at a time: a curve sweeps K for one (n, q) before the next
@lru_cache(maxsize=1)
def _profile_tables(n: int, q: int) -> _ProfileTables:
    return _ProfileTables(n, q)


@lru_cache(maxsize=64)
def _nh_log_profile_cached(n: int, k_max: int, q: int, variant: PairVariant) -> np.ndarray:
    hlast = min(2 * k_max, n)
    tables = _profile_tables(n, q).upto(k_max)
    W = tables.weights  # log C(h, j) + log P at _tri(h) + j
    hs = np.arange(1, hlast + 1)
    # term j of distance h reads S_{n-h}(K - max(h - j, j)), column
    # K + 1 - max(h - j, j) of its S row, and is an exact zero (A < 0)
    # outside lo <= j <= min(h, K); RestrictedPairs stops at h // 2
    lo = np.maximum(hs - k_max, 0)
    hi = np.minimum(hs, k_max) if variant is PairVariant.ALL_PAIRS else hs // 2
    lens = hi - lo + 1
    tri = _tri(hs)
    s_at = tables.starts[:hlast] + k_max + 1  # the column of A = K
    offs = tri.tolist()
    ends = (tri + (hs if variant is PairVariant.ALL_PAIRS else hs // 2) + 1).tolist()
    top = np.empty(hlast)
    logs = []
    red, log = np.add.reduce, math.log
    step = max(1, _PROFILE_ELEMS // (k_max + 1))
    # a chunk has at most k_max + 1 terms and 2 k_max + 1 weights per distance
    rows_at_most = min(step, hlast)
    ramp = np.arange(rows_at_most * (k_max + 1))
    ebuf = np.empty(rows_at_most * (2 * k_max + 1))
    for r0 in range(0, hlast, step):
        r = slice(r0, min(r0 + step, hlast))
        base = offs[r0]
        run = lens[r]
        at = np.cumsum(run) - run
        # j, then the position of term j's weight and its S column, in place
        j = np.repeat(lo[r] - at, run)
        j += ramp[: j.size]
        pos = np.repeat(tri[r] - base, run)
        pos += j
        x = np.repeat(hs[r], run)
        x -= j
        np.maximum(x, j, out=x)
        sat = np.repeat(s_at[r], run)
        sat -= x
        terms = W[base:].take(pos)
        terms += tables.S.take(sat)
        # every run is nonempty and its terms finite, so top is finite
        t = np.maximum.reduceat(terms, at)
        top[r] = t
        terms -= np.repeat(t, run)
        np.exp(terms, out=terms)
        # each row sums its own terms j = 0..h (0..h // 2 for
        # RestrictedPairs), zeros included, as one 1-D sum, so every bit is kept
        e = ebuf[: _tri(r.stop + 1) - base]
        e.fill(0.0)
        e[pos] = terms
        logs += [log(red(e[a - base : b - base])) for a, b in zip(offs[r], ends[r])]
    out = np.full(2 * k_max + 1, NEG_INF)
    lfact = tables.lfact
    out[1 : hlast + 1] = top + np.array(logs) + lfact[n] - lfact[hs] - lfact[n - hs] + hs * tables.logq1
    out.setflags(write=False)
    return out


def nh_log_profile(n: int, k_max: int, q: int, variant: PairVariant) -> np.ndarray:
    """log of the pair counts, indexed by distance h = 0..2K (entry 0 is -inf).

    Log-gamma/log-sum-exp evaluation of the regrouped closed form in the
    module docstring, O(K^2) per call, usable at n = 1000 where the exact
    integers are astronomically large.  Only the terms a distance can
    have, j from max(0, h - K) to min(h, K), are formed; the rest are
    exact zeros.  Distances are taken in chunks of
    max(1, _PROFILE_ELEMS // (K + 1)); each row of a chunk sums its own
    terms in the order of a 1-D sum, so the result does not depend on
    the chunking, nor on the K asked for before: the kept tables hold
    K-free terms and prefix sums accumulated in one order.  Agrees with
    nh_count to ~1e-15 relative wherever both run.  The returned array
    is cached and read-only.
    """
    check_signal_set(n, k_max, q)
    return _nh_log_profile_cached(n, k_max, q, PairVariant(variant))


# bounds ---------------------------------------------------------------------


@lru_cache(maxsize=256)
def _log_signal_set_size(n: int, k: int, q: int) -> float:
    """log |L| from the exact big-integer count; every bound evaluation of
    a curve point needs it, and the count itself is not cheap."""
    return log_of_int(signal_set_size(n, k, q).total)


# a threshold search probes one (q, gamma, K) a dozen times before the next
@lru_cache(maxsize=8)
def _log_row_nullity(q: int, gamma: float, k: int) -> np.ndarray:
    """log p_row(h) for h = 1..2K, -inf where the probability is 0; the
    part of the log-domain union bound that does not depend on m.  The
    returned array is cached and read-only."""
    p_rows = _row_zero_linear(q, gamma, np.arange(1, 2 * k + 1, dtype=float))
    with np.errstate(divide="ignore"):
        log_p = np.log(p_rows)
    log_p.setflags(write=False)
    return log_p


def union_bound(params: ModelParams, variant: PairVariant = PairVariant.ALL_PAIRS) -> LogProb:
    """Union bound on the recovery-error probability.

    (1 / |L|) * sum over h of N_h * p_row(h)^m, where p_row is the
    single-row nullity probability and rows are independent.  Uses exact
    integer pair counts for n <= EXACT_N_LIMIT and the log-domain profile
    above that.  The raw log value may exceed 0; use capped_linear when a
    genuine probability is needed.
    """
    n, k, m, q = params.n, params.k, params.m, params.q
    variant = PairVariant(variant)
    if k == 0:
        return LogProb(NEG_INF)
    log_l = _log_signal_set_size(n, k, q)
    if n <= EXACT_N_LIMIT:
        terms = []
        for h, nh in nh_count(n, k, q, variant).items():
            p = _row_zero_linear(q, params.gamma, h)
            if p == 0.0:
                continue
            terms.append(log_of_int(nh) + m * math.log(p))
        if not terms:
            return LogProb(NEG_INF)
        return LogProb(logsumexp(np.array(terms)) - log_l)
    prof = nh_log_profile(n, k, q, variant)
    return LogProb(logsumexp(prof[1:] + m * _log_row_nullity(q, params.gamma, k)) - log_l)


def closed_dense_bound(n: int, k: int, q: int, m: int) -> LogProb:
    """(|L| - 1) q^-m with exact big-integer |L|; the dense-case closed form
    the union bound collapses to when rows are uniform."""
    check_signal_set(n, k, q)
    check_integer("m", m)
    total = signal_set_size(n, k, q).total
    return LogProb(log_of_int(total - 1) - m * math.log(q))


def binary_entropy(p: float) -> float:
    """Base-2 entropy of a Bernoulli(p), with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def exponent_bound(n: int, k: int, q: int, m: int) -> LogProb:
    """Entropy-form upper bound K 2^{n Hb(k/n)} (q-1)^k q^-m.

    Upper-bounds the dense closed form for k <= n/2 by replacing |L| - 1
    with k * 2^{n Hb(k/n)} (q-1)^k.  The k = 0 prefactor makes the bound
    an exact zero: with a singleton signal set nothing can be confused.
    """
    check_signal_set(n, k, q)
    check_integer("m", m)
    if k == 0:
        return LogProb(NEG_INF)
    log2 = math.log(2.0)
    val = (
        math.log(k)
        + n * binary_entropy(k / n) * log2
        + k * math.log(q - 1)
        - m * math.log(q)
    )
    return LogProb(val)


def sufficient_m(n: int, k: int, q: int) -> int:
    """Smallest measurement count above the achievability threshold
    (n Hb(k/n) + k log2(q-1)) / log2(q)."""
    check_signal_set(n, k, q)
    if k == 0:
        return 0
    rhs = (n * binary_entropy(k / n) + k * math.log2(q - 1)) / math.log2(q)
    return math.ceil(rhs)


def necessary_m(n: int, k: int, q: int) -> float:
    """Converse threshold log_q[(q-1)^k C(n, k)] - 1, from exact integers.

    Any measurement count strictly below this leaves a positive error
    probability no decoder can remove.
    """
    check_signal_set(n, k, q)
    val = (k * math.log(q - 1) if k else 0.0) + log_of_int(comb(n, k))
    return val / math.log(q) - 1.0


def fano_lower_bound(n: int, k: int, q: int, m: int) -> float:
    """Information-theoretic lower bound on the error probability.

    With the signal uniform on L its entropy is log_q |L|, each of the m
    measurements reveals at most one q-ary symbol, and the residual
    uncertainty forces max(0, (log_q |L| - m - 1) / log_q |L|).  Accepts
    m = 0 (no measurements at all), unlike a full model instance.
    """
    check_signal_set(n, k, q)
    check_integer("m", m)
    if m < 0:
        raise ValueError("m must be >= 0")
    log_q_l = _log_signal_set_size(n, k, q) / math.log(q)
    if log_q_l <= 0.0:
        return 0.0
    return max(0.0, (log_q_l - m - 1.0) / log_q_l)
