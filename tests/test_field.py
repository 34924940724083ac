import numpy as np
import pytest

from ffcs import DivisionByZero, ModelParams, UnsupportedOrder, check_axioms, make_field, supported_orders
from ffcs.field import MAX_ANALYTIC_ORDER, MAX_ORDER, check_prime_power, check_table_order


def clmul_mod(a: int, b: int, poly_mask: int, m: int) -> int:
    """Independent carry-less multiply mod an irreducible polynomial."""
    prod = 0
    while b:
        if b & 1:
            prod ^= a
        a <<= 1
        b >>= 1
    # reduce
    for bit in range(prod.bit_length() - 1, m - 1, -1):
        if prod >> bit & 1:
            prod ^= poly_mask << (bit - m)
    return prod


def test_gf2_is_xor_and():
    f = make_field(2)
    assert f.add(1, 1) == 0
    assert f.add(0, 1) == 1
    assert f.mul(1, 1) == 1
    assert f.mul(0, 1) == 0
    assert np.array_equal(f.add_table, np.array([[0, 1], [1, 0]]))
    assert np.array_equal(f.mul_table, np.array([[0, 0], [0, 1]]))


def test_gf4_product_of_generator_with_itself():
    # x * x = x + 1 mod (x^2 + x + 1), i.e. 2 * 2 = 3
    f = make_field(4)
    assert f.poly_mask == 0b111
    assert f.mul(2, 2) == 3


def test_gf256_doubling_wraps_through_polynomial():
    # x * x^7 = x^8 = x^4 + x^3 + x + 1 mod the degree-8 polynomial
    f = make_field(256)
    assert f.mul(2, 128) == 27


def test_gf5_arithmetic_mod_p():
    f = make_field(5)
    assert f.mul(3, 4) == 2
    assert f.add(3, 4) == 2
    assert f.neg(2) == 3
    assert f.inv(2) == 3


@pytest.mark.parametrize("q", [12, 9, 25, 27, 1, 0, 257, 512])
def test_unsupported_orders_rejected(q):
    with pytest.raises(UnsupportedOrder):
        make_field(q)


@pytest.mark.parametrize(
    "q,p,m", [(2, 2, 1), (9, 3, 2), (251, 251, 1), (256, 2, 8), (3**20, 3, 20), (MAX_ANALYTIC_ORDER, 2, 32)]
)
def test_check_prime_power_factors_the_order(q, p, m):
    assert check_prime_power(q) == (p, m)


@pytest.mark.parametrize("q,p,m", [(2, 2, 1), (13, 13, 1), (16, 2, 4), (256, 2, 8)])
def test_field_takes_its_characteristic_and_degree_from_the_order(q, p, m):
    f = make_field(q)
    assert (f.q, f.p, f.m) == (q, p, m)


def test_inverse_of_zero_rejected():
    f = make_field(7)
    with pytest.raises(DivisionByZero):
        f.inv(0)


def test_out_of_range_elements_rejected():
    f = make_field(4)
    with pytest.raises(ValueError):
        f.add(4, 0)
    with pytest.raises(ValueError):
        f.mul(1, -1)


@pytest.mark.parametrize("q", [4, 8, 16, 32, 64, 128, 256])
def test_extension_tables_match_independent_clmul(q):
    f = make_field(q)
    rng = np.random.default_rng(q)
    for _ in range(200):
        a, b = (int(v) for v in rng.integers(0, q, size=2))
        assert f.mul(a, b) == clmul_mod(a, b, f.poly_mask, f.m)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 16, 17])
def test_field_axioms_small_orders(q):
    check_axioms(make_field(q))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 16])
def test_involutions(q):
    f = make_field(q)
    for a in f.elements:
        assert f.neg(f.neg(a)) == a
    for a in f.nonzero_elements:
        assert f.inv(f.inv(a)) == a


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 16])
def test_nonzero_scaling_permutes_field(q):
    # multiplication by any fixed nonzero element is a bijection on the
    # field, and restricted to nonzero elements a bijection on those
    f = make_field(q)
    for beta in f.nonzero_elements:
        image = sorted(f.mul(beta, a) for a in f.elements)
        assert image == list(range(q))
        nz_image = sorted(f.mul(beta, a) for a in f.nonzero_elements)
        assert nz_image == list(range(1, q))


@pytest.mark.parametrize(
    "q,message",
    [
        (12, "q=12 is not a prime power, so GF(12) does not exist"),
        (9, "q=9 is neither prime nor a supported power of two"),
        (25, "q=25 is neither prime nor a supported power of two"),
        (27, "q=27 is neither prime nor a supported power of two"),
        (1, "field order must be an integer >= 2, got 1"),
        (0, "field order must be an integer >= 2, got 0"),
        (257, "field orders above 256 are not supported"),
        (512, "field orders above 256 are not supported"),
        (2.0, "field order must be an integer >= 2, got 2.0"),
    ],
)
def test_table_order_rule_and_make_field_refuse_alike(q, message):
    # one rule, one message, whichever of the two is asked
    for ask in (check_table_order, make_field):
        with pytest.raises(UnsupportedOrder) as exc:
            ask(q)
        assert str(exc.value) == message


@pytest.mark.parametrize("q", [4.0, "4", np.int64(4)], ids=["float", "str", "np.int64"])
def test_orders_that_are_not_ints_refused_on_both_paths(q):
    # one type rule: the analytic path (check_prime_power, ModelParams)
    # refuses what the table path (check_table_order, make_field) refuses
    asks = [check_prime_power, lambda q: ModelParams(n=4, k=1, m=3, q=q, gamma=0.5),
            check_table_order, make_field]
    for ask in asks:
        with pytest.raises(UnsupportedOrder) as exc:
            ask(q)
        assert str(exc.value) == f"field order must be an integer >= 2, got {q!r}"


def test_table_orders_are_the_supported_orders():
    # primes and powers of two up to 256: 54 primes and 7 powers 4..256
    orders = supported_orders()
    assert len(orders) == 61
    for q in orders:
        p, m = check_table_order(q)
        assert p**m == q and (m == 1 or p == 2)
        assert (make_field(q).p, make_field(q).m) == (p, m)


def test_supported_orders_contents():
    orders = supported_orders()
    assert orders[0] == 2
    assert 251 in orders and 256 in orders
    assert 12 not in orders and 9 not in orders
    assert max(orders) <= MAX_ORDER


def test_supported_orders_stop_at_max_order():
    orders = supported_orders()
    assert orders[-1] == 256
    for q in orders:
        assert make_field(q).q == q


def test_reduction_poly_exposed_only_for_extensions():
    assert make_field(13).reduction_poly is None
    f = make_field(16)
    # x^4 + x + 1, ascending coefficients
    assert f.reduction_poly == [1, 1, 0, 0, 1]
    assert f.poly_str() == "x^4 + x + 1"


def test_fields_compare_and_hash_by_order_and_polynomial():
    # two builds of one order are one field; other orders and objects are not
    a, b = make_field(16), make_field(16)
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != make_field(8) and make_field(2) != make_field(3) and a != 16
    assert make_field(7) == make_field(7) and len({make_field(7), make_field(7), make_field(5)}) == 2
    assert repr(a) == "FiniteField(q=16, poly=x^4 + x + 1)"
    assert repr(make_field(13)) == "FiniteField(q=13)"


def test_tables_immutable_and_checksums_stable():
    f1, f2 = make_field(8), make_field(8)
    assert f1.table_checksums() == f2.table_checksums()
    with pytest.raises(ValueError):
        f1.mul_table[0, 0] = 1
