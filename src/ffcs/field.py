"""Exact arithmetic in GF(q) for prime q and binary extensions GF(2^m).

Elements are plain integers in 0..q-1.  For prime q they are residues
mod q.  For q = 2^m the integer's binary digits are the coefficients of
a polynomial over GF(2) (bit i = coefficient of x^i), addition is XOR,
and multiplication is carry-less multiplication reduced modulo a fixed
irreducible polynomial of degree m.

Default reduction polynomials, one per extension degree (bit-packed,
constant term in bit 0):

    m=2 : x^2 + x + 1                 -> 0b111       = 7
    m=3 : x^3 + x + 1                 -> 0b1011      = 11
    m=4 : x^4 + x + 1                 -> 0b10011     = 19
    m=5 : x^5 + x^2 + 1               -> 0b100101    = 37
    m=6 : x^6 + x + 1                 -> 0b1000011   = 67
    m=7 : x^7 + x + 1                 -> 0b10000011  = 131
    m=8 : x^8 + x^4 + x^3 + x + 1     -> 0b100011011 = 283

Any irreducible polynomial of the right degree yields an isomorphic
field; the probability and bound machinery elsewhere in this package
depends only on the field cardinality.

All add/mul/inv tables are precomputed at construction and frozen, so a
field object is immutable and safe to share across threads or workers.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import DivisionByZero, UnsupportedOrder

MAX_ORDER = 256

# largest order the analytic path accepts; it keeps the trial division
# in check_prime_power to about 65k steps
MAX_ANALYTIC_ORDER = 2**32

# bit-packed irreducible polynomials over GF(2), keyed by extension degree
_DEFAULT_POLY = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
}


def _integer_order(q: int) -> int:
    """q if it is a Python int, else UnsupportedOrder: the type rule of both order checks."""
    if not isinstance(q, int):
        raise UnsupportedOrder(f"field order must be an integer >= 2, got {q!r}")
    return q


def check_prime_power(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p^m, p prime and m >= 1; raise UnsupportedOrder if none exist.

    GF(q) exists exactly for these q.  The analytic bounds depend on q
    alone and accept every prime power up to MAX_ANALYTIC_ORDER; building
    a field's tables further requires q prime or a power of two, at most
    MAX_ORDER (check_table_order).
    """
    if _integer_order(q) > MAX_ANALYTIC_ORDER:
        raise UnsupportedOrder(f"field orders above {MAX_ANALYTIC_ORDER} are not supported")
    if q >= 2:
        p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
        r, m = q, 0
        while r % p == 0:
            r, m = r // p, m + 1
        if r == 1:
            return p, m
    raise UnsupportedOrder(f"q={q} is not a prime power, so GF({q}) does not exist")


def check_table_order(q: int) -> tuple[int, int]:
    """(p, m) for q = p^m prime or a power of two up to MAX_ORDER: the orders with tables.

    Anything else raises UnsupportedOrder.  Every producer of field
    elements admits q here; the analytic path asks check_prime_power.
    """
    if _integer_order(q) < 2:
        raise UnsupportedOrder(f"field order must be an integer >= 2, got {q!r}")
    if q > MAX_ORDER:
        raise UnsupportedOrder(f"field orders above {MAX_ORDER} are not supported")
    p, m = check_prime_power(q)
    if m > 1 and p != 2:
        raise UnsupportedOrder(f"q={q} is neither prime nor a supported power of two")
    return p, m


def supported_orders() -> list[int]:
    """All field orders this module can construct: those check_table_order admits."""
    orders = []
    for q in range(2, MAX_ORDER + 1):
        try:
            check_table_order(q)
        except UnsupportedOrder:
            continue
        orders.append(q)
    return orders


class FiniteField:
    """GF(q) with dense lookup tables for all four operations.

    Attributes
    ----------
    q : field order
    p : characteristic
    m : extension degree (q = p**m)
    reduction_poly : coefficient list over GF(p), ascending degree,
        or None for prime fields
    add_table, mul_table : (q, q) int16 arrays
    neg_table, inv_table : length-q int16 arrays (inv_table[0] is unused
        and holds 0)
    """

    def __init__(self, q: int):
        p, m = check_table_order(q)
        self.q, self.p, self.m = q, p, m
        if m == 1:
            self.poly_mask = None
            self.reduction_poly = None
            self._build_prime_tables()
        else:
            self.poly_mask = _DEFAULT_POLY[m]
            self.reduction_poly = [(self.poly_mask >> i) & 1 for i in range(m + 1)]
            self._build_binary_tables()
        self._finalize_tables()

    def _build_prime_tables(self) -> None:
        ar = np.arange(self.q, dtype=np.int32)
        self.add_table = (np.add.outer(ar, ar) % self.q).astype(np.int16)
        self.mul_table = (np.multiply.outer(ar, ar) % self.q).astype(np.int16)

    def _build_binary_tables(self) -> None:
        q = self.q
        ar = np.arange(q, dtype=np.int32)
        self.add_table = np.bitwise_xor.outer(ar, ar).astype(np.int16)
        # carry-less multiply of every pair, reduced mod the polynomial
        aa = np.broadcast_to(ar[:, None], (q, q)).astype(np.int32).copy()
        bb = np.broadcast_to(ar[None, :], (q, q)).astype(np.int32).copy()
        acc = np.zeros((q, q), dtype=np.int32)
        for _ in range(self.m):
            acc ^= np.where(bb & 1 == 1, aa, 0)
            aa <<= 1
            aa = np.where(aa & q != 0, aa ^ self.poly_mask, aa)
            bb >>= 1
        self.mul_table = acc.astype(np.int16)

    def _finalize_tables(self) -> None:
        q = self.q
        self.neg_table = np.argmax(self.add_table == 0, axis=1).astype(np.int16)
        inv = np.argmax(self.mul_table == 1, axis=1).astype(np.int16)
        inv[0] = 0  # placeholder, inv(0) is undefined
        self.inv_table = inv
        # construction sanity: identities and unique inverses
        ar = np.arange(q)
        assert np.array_equal(self.add_table[0], ar), "0 must be additive identity"
        assert np.array_equal(self.mul_table[1], ar), "1 must be multiplicative identity"
        assert np.all(self.add_table[ar, self.neg_table] == 0)
        assert np.all(self.mul_table[ar[1:], self.inv_table[1:]] == 1)
        for t in (self.add_table, self.mul_table, self.neg_table, self.inv_table):
            t.setflags(write=False)

    # scalar operations -------------------------------------------------

    def _check(self, *vals: int) -> None:
        for v in vals:
            if not 0 <= v < self.q:
                raise ValueError(f"element {v} outside GF({self.q})")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.add_table[a, b])

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.mul_table[a, b])

    def neg(self, a: int) -> int:
        self._check(a)
        return int(self.neg_table[a])

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise DivisionByZero(f"inverse of 0 is undefined in GF({self.q})")
        return int(self.inv_table[a])

    # introspection ------------------------------------------------------

    @property
    def elements(self) -> range:
        return range(self.q)

    @property
    def nonzero_elements(self) -> range:
        return range(1, self.q)

    def poly_str(self) -> str | None:
        """Human-readable reduction polynomial, None for prime fields."""
        if self.reduction_poly is None:
            return None
        terms = []
        for i in range(self.m, -1, -1):
            if self.reduction_poly[i]:
                terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
        return " + ".join(terms)

    def table_checksums(self) -> dict[str, str]:
        """SHA-256 of each table's raw little-endian int16 bytes."""
        out = {}
        for name in ("add_table", "mul_table", "neg_table", "inv_table"):
            data = np.ascontiguousarray(getattr(self, name), dtype="<i2").tobytes()
            out[name] = hashlib.sha256(data).hexdigest()
        return out

    def __repr__(self) -> str:
        if self.m == 1:
            return f"FiniteField(q={self.q})"
        return f"FiniteField(q={self.q}, poly={self.poly_str()})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteField)
            and self.q == other.q
            and self.poly_mask == other.poly_mask
        )

    def __hash__(self) -> int:
        return hash((self.q, self.poly_mask))


def make_field(q: int) -> FiniteField:
    """Construct a validated GF(q) for prime q or q = 2^m, m <= 8."""
    return FiniteField(q)


def check_axioms(field: FiniteField) -> None:
    """Exhaustively verify the field axioms on the lookup tables.

    Vectorized over the full q^3 triple grid, so this is feasible for
    every supported order (q <= 256 takes a few seconds).  Raises
    AssertionError on any violation.
    """
    q = field.q
    add, mul = field.add_table, field.mul_table
    ar = np.arange(q)

    # closure
    assert add.min() >= 0 and add.max() < q
    assert mul.min() >= 0 and mul.max() < q
    # commutativity
    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)
    # identities
    assert np.array_equal(add[0], ar)
    assert np.array_equal(mul[1], ar)
    assert np.all(mul[0] == 0)
    # unique additive/multiplicative inverses: each row is a permutation
    assert np.all(np.sort(add, axis=1) == ar[None, :])
    assert np.all(np.sort(mul[1:, 1:], axis=1) == ar[None, 1:])
    # associativity and distributivity over the full triple grid
    a = ar[:, None, None]
    b = ar[None, :, None]
    c = ar[None, None, :]
    assert np.array_equal(add[add[a, b], c], add[a, add[b, c]])
    assert np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])
    assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])
    # involutions
    assert np.all(field.neg_table[field.neg_table] == ar)
    assert np.all(field.inv_table[field.inv_table[1:]] == ar[1:])
    # scaling by any nonzero element permutes the field and its nonzeros
    for beta in range(1, q):
        row = mul[beta]
        assert np.array_equal(np.sort(row), ar)
        assert np.array_equal(np.sort(row[1:]), ar[1:])
