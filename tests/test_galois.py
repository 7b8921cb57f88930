"""Ring construction, and the scalar reference arithmetic of gr_reference."""

import random

import pytest

from gr_reference import (
    NotDivisor,
    element,
    frobenius,
    mul,
    one,
    power,
    scalar,
    teichmuller_decompose,
    trace,
    unpack,
    zero,
)
from z4seq import galois
from z4seq.errors import DegreeTooLarge, PeriodNotDividing
from z4seq.galois import MAX_DEGREE, is_constant, make_ring, root_of_unity


def random_element(ring, rng):
    return element(ring, [rng.randrange(4) for _ in range(ring.r)])


def test_ring_r1_is_z4():
    ring = make_ring(1)
    assert ring.modulus == (3, 1)  # lift of x + 1
    assert unpack(ring, ring.x) == one(ring)
    assert (scalar(ring, 3) + scalar(ring, 2)) == scalar(ring, 1)
    assert mul(scalar(ring, 3), scalar(ring, 3)) == scalar(ring, 1)


def test_ring_r2_modulus():
    ring = make_ring(2)
    assert len(ring.modulus) == 3 and ring.modulus[2] == 1
    assert tuple(c % 2 for c in ring.modulus) == (1, 1, 1)  # x^2 + x + 1 mod 2


@pytest.mark.parametrize("r", [1, 2, 3, 4, 8, 12, 36, 56, 64])
def test_x_has_full_order(r):
    ring = make_ring(r)
    x = unpack(ring, ring.x)
    assert power(x, ring.order) == one(ring)
    d = 2
    n = ring.order
    while d * d <= n:
        if n % d == 0:
            assert power(x, ring.order // d) != one(ring)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        assert power(x, ring.order // n) != one(ring)


def test_ring_axioms_random():
    rng = random.Random(23)
    ring = make_ring(4)
    for _ in range(60):
        a, b, c = (random_element(ring, rng) for _ in range(3))
        assert mul(a + b, c) == mul(a, c) + mul(b, c)
        assert mul(a, mul(b, c)) == mul(mul(a, b), c)
        assert mul(a, b) == mul(b, a)
        assert a + (-a) == zero(ring)
        assert mul(a, 4) == zero(ring)
    assert mul(scalar(ring, 2), scalar(ring, 2)) == zero(ring)  # characteristic 4


def test_neutral_elements():
    ring = make_ring(3)
    rng = random.Random(1)
    a = random_element(ring, rng)
    assert a + zero(ring) == a
    assert mul(a, one(ring)) == a


def test_degree_cap():
    with pytest.raises(DegreeTooLarge):
        make_ring(65)
    with pytest.raises(DegreeTooLarge):
        make_ring(5, r_max=4)


def test_slot_cap_is_checked_before_the_primitive_search(monkeypatch):
    # the search first factors 2^r - 1, far too slow at such degrees
    def search(r):
        raise AssertionError(f"primitive search reached at degree {r}")

    monkeypatch.setattr(galois, "_smallest_primitive_binary", search)
    with pytest.raises(DegreeTooLarge, match="the most 16-bit slots hold"):
        make_ring(MAX_DEGREE + 1, MAX_DEGREE + 1)


def test_teichmuller_scalars():
    for r in (1, 4):
        ring = make_ring(r)
        a1, a2 = teichmuller_decompose(scalar(ring, 3))
        assert a1 == one(ring) and a2 == one(ring)  # 3 = 1 + 2*1
        a1, a2 = teichmuller_decompose(scalar(ring, 2))
        assert a1 == zero(ring) and a2 == one(ring)


def test_teichmuller_roundtrip():
    rng = random.Random(31)
    ring = make_ring(5)
    for _ in range(40):
        a = random_element(ring, rng)
        a1, a2 = teichmuller_decompose(a)
        assert a1 + mul(a2, 2) == a
        assert power(a1, 2 ** ring.r) == a1
        assert power(a2, 2 ** ring.r) == a2


def test_teichmuller_set_fixed():
    ring = make_ring(4)
    for k in range(ring.order):
        t = power(unpack(ring, ring.x), k)
        a1, a2 = teichmuller_decompose(t)
        assert a1 == t and a2 == zero(ring)


def test_frobenius_properties():
    rng = random.Random(7)
    ring = make_ring(6)
    for _ in range(20):
        a = random_element(ring, rng)
        b = random_element(ring, rng)
        assert frobenius(a, 6) == a  # order r/s = 1
        assert frobenius(a + b, 2) == frobenius(a, 2) + frobenius(b, 2)
        assert frobenius(mul(a, b), 3) == mul(frobenius(a, 3), frobenius(b, 3))
        x = a
        for _ in range(3):  # Phi_2 has order 6/2 = 3
            x = frobenius(x, 2)
        assert x == a
    with pytest.raises(NotDivisor):
        frobenius(one(ring), 4)


def test_trace_properties():
    rng = random.Random(13)
    ring = make_ring(6)
    assert trace(zero(ring), 2) == zero(ring)
    for _ in range(20):
        a = random_element(ring, rng)
        assert trace(a, 6) == a  # single conjugate
        for s in (1, 2, 3):
            t = trace(a, s)
            assert frobenius(t, s) == t  # lands in the fixed subring
            b = random_element(ring, rng)
            assert trace(a + b, s) == trace(a, s) + trace(b, s)
            assert trace(frobenius(a, s), s) == trace(a, s)
    with pytest.raises(NotDivisor):
        trace(one(ring), 5)


def test_trace_matches_conjugate_sum():
    ring = make_ring(6)
    rng = random.Random(3)
    for _ in range(10):
        a = random_element(ring, rng)
        for s in (1, 2, 3):
            acc = zero(ring)
            x = a
            for _ in range(ring.r // s):
                acc = acc + x
                x = frobenius(x, s)
            assert trace(a, s) == acc


def test_root_of_unity():
    ring = make_ring(4)  # order 15 = 3 * 5
    assert unpack(ring, root_of_unity(ring, 1).value) == one(ring)
    for period in (3, 5, 15):
        beta = unpack(ring, root_of_unity(ring, period).value)
        assert power(beta, period) == one(ring)
        for d in (3, 5):
            if period % d == 0:
                assert power(beta, period // d) != one(ring)
    with pytest.raises(PeriodNotDividing):
        root_of_unity(ring, 7)
    with pytest.raises(PeriodNotDividing):
        root_of_unity(ring, 6)


def test_geometric_sum_vanishes():
    ring = make_ring(4)
    for period in (3, 5, 15):
        beta = unpack(ring, root_of_unity(ring, period).value)
        acc = zero(ring)
        x = one(ring)
        for _ in range(period):
            acc = acc + x
            x = mul(x, beta)
        assert acc == zero(ring)


def test_is_constant():
    # on packed ints: only slot 0 may be nonzero
    ring = make_ring(3)
    assert all(is_constant(ring.pack([c])) for c in range(4))
    assert not is_constant(ring.x)
    assert not is_constant(ring.pack((1, 2, 0)))
    assert not is_constant(ring.pack((0, 0, 1)))
