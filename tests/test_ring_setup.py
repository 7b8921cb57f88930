"""Ring construction and packed arithmetic against bit-loop and scalar references."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gr_reference import element, frobenius, graeffe_lift, mul, one, power, unpack
from z4seq import galois
from z4seq.analysis import dft, power_table
from z4seq.cyclotomy import build_system
from z4seq.errors import Z4SeqError
from z4seq.galois import make_ring, root_of_unity
from z4seq.numtheory import factorize, mult_order
from z4seq.sequence import generate

BENCH_PAIRS = [(5, 13), (13, 17), (5, 29), (37, 5), (5, 113)]


def reference_mulmod(a, b, f):
    """a * b mod f over GF(2), one bit of a at a time."""
    top = 1 << (f.bit_length() - 1)
    res = 0
    while a:
        if a & 1:
            res ^= b
        a >>= 1
        b <<= 1
        if b & top:
            b ^= f
    return res


def reference_powmod(base, e, f):
    res = 1
    while e:
        if e & 1:
            res = reference_mulmod(res, base, f)
        base = reference_mulmod(base, base, f)
        e >>= 1
    return res


def reference_gcd(a, b):
    while b:
        while a and a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def reference_primitive(r):
    """Smallest f = x^r + ... + 1 passing Rabin's test and the order test."""
    if r == 1:
        return 0b11
    order = (1 << r) - 1
    for mask in range(1, 1 << r, 2):
        f = (1 << r) | mask
        if reference_powmod(2, 1 << r, f) != 2:
            continue
        if any(reference_gcd(f, reference_powmod(2, 1 << (r // d), f) ^ 2) != 1
               for d in factorize(r)):
            continue
        if all(reference_powmod(2, order // d, f) != 1 for d in factorize(order)):
            return f
    raise AssertionError(r)


def reference_irreducible(f, r):
    """Rabin's test on f of degree r: x^(2^r) = x, gcd(f, x^(2^(r/d)) - x) = 1 for d | r."""
    if reference_powmod(2, 1 << r, f) != 2:
        return False
    return all(reference_gcd(f, reference_powmod(2, 1 << (r // d), f) ^ 2) == 1
               for d in factorize(r))


def reference_product(a, b):
    """a * b over GF(2), one bit of a at a time."""
    res = 0
    while a:
        if a & 1:
            res ^= b
        a >>= 1
        b <<= 1
    return res


def sieve_survivors(r, monkeypatch):
    """The f of degree r that the primitive search's gcd sieve lets through.

    Each one reaches the order test, made to fail here, so the search runs
    through every candidate and ends without a primitive f.
    """
    reached = set()

    def failing_xpow(e, f, r):
        reached.add(f)
        return 0

    monkeypatch.setattr(galois, "_bin_xpow", failing_xpow)
    with pytest.raises(Z4SeqError, match="no primitive binary polynomial"):
        galois._smallest_primitive_binary(r)
    return reached


def test_sieve_drops_exactly_the_f_with_a_factor_of_degree_at_most_6(monkeypatch):
    # the irreducible g of degree 1..6: no h of lower positive degree divides g
    small = [g for g in range(2, 1 << 7)
             if all(reference_gcd(g, h) != h for h in range(2, 1 << (g.bit_length() - 1)))]
    assert len(small) == 2 + 1 + 2 + 3 + 6 + 9
    for r in range(7, 13):
        odd = range((1 << r) | 1, 2 << r, 2)
        kept = {f for f in odd if all(reference_gcd(f, g) == 1 for g in small)}
        assert sieve_survivors(r, monkeypatch) == kept, r
        assert kept >= {f for f in odd if reference_irreducible(f, r)}, r
    # a product of two irreducibles of degree 7 has no small factor: only
    # the order test rejects it
    sevens = [g for g in range(1 << 7, 1 << 8) if reference_irreducible(g, 7)]
    products = {reference_product(g, h) for g in sevens for h in sevens}
    assert products <= sieve_survivors(14, monkeypatch)


def test_primitive_search_matches_reference():
    for r in range(1, 65):
        assert galois._smallest_primitive_binary(r) == reference_primitive(r), r


def test_graeffe_lift_matches_list_product():
    rng = random.Random(26)
    for r in range(1, 301):  # random odd-weight f
        f = (1 << r) | rng.getrandbits(r) | 1
        if r > 1 and bin(f).count("1") % 2 == 0:
            f ^= 2
        assert galois._graeffe_lift(f, r) == graeffe_lift(f, r), (r, f)
    for r in (63, 64, 300):  # all ones: the squares fill the slots most
        assert galois._graeffe_lift((2 << r) - 1, r) == graeffe_lift((2 << r) - 1, r), r


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2, 5, 12, 28]), st.data())
def test_row_pow_matches_element_pow(r, data):
    ring = make_ring(r)
    coeffs = data.draw(st.lists(st.integers(0, 3), min_size=r, max_size=r))
    e = data.draw(st.integers(0, (1 << r) - 1))
    a = element(ring, coeffs)
    row = ring.pow(ring.pack(coeffs), e)
    assert unpack(ring, row) == power(a, e)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2, 5, 12, 28, 64]), st.data())
def test_row_products_match_reference_mul(r, data):
    ring = make_ring(r)
    a, b = (data.draw(st.lists(st.integers(0, 3), min_size=r, max_size=r))
            for _ in range(2))
    product = mul(element(ring, a), element(ring, b))
    row_a, row_b = ring.pack(a), ring.pack(b)
    assert unpack(ring, ring.mul(row_b, row_a)) == product
    assert unpack(ring, ring.mul(row_a, row_b)) == product
    assert ring.mul(row_a, ring.pack(one(ring).coeffs)) == row_a


@pytest.fixture
def fresh_ring_cache():
    galois._build_ring.cache_clear()
    yield
    galois._build_ring.cache_clear()


@pytest.mark.parametrize("r", [1] + list(range(3, 65)))  # at r = 2, f is its own lift
def test_unlifted_modulus_is_rejected(r, monkeypatch, fresh_ring_cache):
    # the binary polynomial itself, not its Graeffe lift, as the Z4 modulus
    monkeypatch.setattr(galois, "_graeffe_lift",
                        lambda f, r: tuple(f >> i & 1 for i in range(r + 1)))
    with pytest.raises(Z4SeqError, match=r"internal: modulus does not vanish at x\^2"):
        make_ring(r)


def test_lift_of_a_non_primitive_polynomial_is_rejected(monkeypatch, fresh_ring_cache):
    # x^4 + x^3 + x^2 + x + 1 is irreducible but x has order 5: its lift
    # vanishes at x^2, so only the mod-2 comparison with the searched f catches it
    lift = galois._graeffe_lift
    wrong = galois.GaloisRing(4, lift(0b11111, 4))
    x = wrong.x
    assert wrong.modulus == (1, 1, 1, 1, 1) and wrong.pow(x, 5) == 1
    assert wrong.sum(wrong.pow(x, 2 * k) for k in range(5)) == 0  # h(x^2)
    monkeypatch.setattr(galois, "_graeffe_lift", lambda f, r: lift(0b11111, r))
    with pytest.raises(Z4SeqError, match=r"internal: modulus is not a lift"):
        make_ring(4)


@pytest.mark.parametrize("r", [84, 100, 156])
def test_x_order_past_the_cap(r, monkeypatch, fresh_ring_cache):
    # 2^r - 1 is factored once, by the primitive search; the order of x over
    # Z4, argued in _build_ring, is checked here directly past the default cap
    order = (1 << r) - 1
    calls = []

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(galois, "factorize", counting)
    ring = make_ring(r, r_max=r)
    assert calls.count(order) == 1
    x = ring.x
    assert ring.pow(x, order) == 1
    assert all(ring.pow(x, order // d) != 1 for d in factorize(order))


@pytest.mark.parametrize("r", [1, 2, 5, 12, 28])
def test_frobenius_matrix(r):
    ring = make_ring(r)
    rng = random.Random(r)

    def frob(a):
        return unpack(ring, ring.sigma(ring.pack(a.coeffs)))

    for _ in range(20):
        a = element(ring, [rng.randrange(4) for _ in range(r)])
        b = element(ring, [rng.randrange(4) for _ in range(r)])
        assert frob(mul(a, b)) == mul(frob(a), frob(b))
        assert frob(a) == frobenius(a, 1)


@pytest.mark.parametrize("pair", BENCH_PAIRS)
def test_dft_matches_direct_sums(pair):
    s = build_system(*pair)
    T = s.pq
    ring = make_ring(mult_order(2, T))
    beta = root_of_unity(ring, T)
    # each power spread to 32-bit slots: T digit-weighted terms never carry
    wide = [sum(c << 32 * k for k, c in enumerate(unpack(ring, v).coeffs))
            for v in power_table(beta, T)]
    digits = generate(s).digits
    coeffs = dft(generate(s), ring, beta)
    for i in range(T):
        acc = sum(d * wide[(-i * u) % T] for u, d in enumerate(digits))
        expected = element(ring, [acc >> 32 * k for k in range(ring.r)])
        assert unpack(ring, coeffs[i]) == expected, i
