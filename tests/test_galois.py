"""Ring construction, and the scalar reference arithmetic of gr_reference."""

import random

import pytest

from gr_reference import (
    NotDivisor,
    frobenius,
    mul,
    power,
    teichmuller_decompose,
    trace,
)
from z4seq.errors import DegreeTooLarge, PeriodNotDividing, RingMismatch
from z4seq.galois import is_constant, make_ring, root_of_unity


def random_element(ring, rng):
    return ring.element([rng.randrange(4) for _ in range(ring.r)])


def test_ring_r1_is_z4():
    ring = make_ring(1)
    assert ring.modulus == (3, 1)  # lift of x + 1
    assert ring.x == ring.one
    assert (ring.scalar(3) + ring.scalar(2)) == ring.scalar(1)
    assert mul(ring.scalar(3), ring.scalar(3)) == ring.scalar(1)


def test_ring_r2_modulus():
    ring = make_ring(2)
    assert len(ring.modulus) == 3 and ring.modulus[2] == 1
    assert tuple(c % 2 for c in ring.modulus) == (1, 1, 1)  # x^2 + x + 1 mod 2


@pytest.mark.parametrize("r", [1, 2, 3, 4, 8, 12, 36, 56, 64])
def test_x_has_full_order(r):
    ring = make_ring(r)
    assert power(ring.x, ring.order) == ring.one
    d = 2
    n = ring.order
    while d * d <= n:
        if n % d == 0:
            assert power(ring.x, ring.order // d) != ring.one
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        assert power(ring.x, ring.order // n) != ring.one


def test_ring_axioms_random():
    rng = random.Random(23)
    ring = make_ring(4)
    for _ in range(60):
        a, b, c = (random_element(ring, rng) for _ in range(3))
        assert mul(a + b, c) == mul(a, c) + mul(b, c)
        assert mul(a, mul(b, c)) == mul(mul(a, b), c)
        assert mul(a, b) == mul(b, a)
        assert a + (-a) == ring.zero
        assert mul(a, 4) == ring.zero
    assert mul(ring.scalar(2), ring.scalar(2)) == ring.zero  # characteristic 4


def test_neutral_elements():
    ring = make_ring(3)
    rng = random.Random(1)
    a = random_element(ring, rng)
    assert a + ring.zero == a
    assert mul(a, ring.one) == a


def test_ring_mismatch():
    a = make_ring(2).one
    b = make_ring(3).one
    with pytest.raises(RingMismatch):
        _ = a + b


def test_degree_cap():
    with pytest.raises(DegreeTooLarge):
        make_ring(65)
    with pytest.raises(DegreeTooLarge):
        make_ring(5, r_max=4)


def test_teichmuller_scalars():
    for r in (1, 4):
        ring = make_ring(r)
        a1, a2 = teichmuller_decompose(ring.scalar(3))
        assert a1 == ring.one and a2 == ring.one  # 3 = 1 + 2*1
        a1, a2 = teichmuller_decompose(ring.scalar(2))
        assert a1 == ring.zero and a2 == ring.one


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
        t = power(ring.x, k)
        a1, a2 = teichmuller_decompose(t)
        assert a1 == t and a2 == ring.zero


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
        frobenius(ring.one, 4)


def test_trace_properties():
    rng = random.Random(13)
    ring = make_ring(6)
    assert trace(ring.zero, 2) == ring.zero
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
        trace(ring.one, 5)


def test_trace_matches_conjugate_sum():
    ring = make_ring(6)
    rng = random.Random(3)
    for _ in range(10):
        a = random_element(ring, rng)
        for s in (1, 2, 3):
            acc = ring.zero
            x = a
            for _ in range(ring.r // s):
                acc = acc + x
                x = frobenius(x, s)
            assert trace(a, s) == acc


def test_root_of_unity():
    ring = make_ring(4)  # order 15 = 3 * 5
    assert root_of_unity(ring, 1) == ring.one
    for period in (3, 5, 15):
        beta = root_of_unity(ring, period)
        assert power(beta, period) == ring.one
        for d in (3, 5):
            if period % d == 0:
                assert power(beta, period // d) != ring.one
    with pytest.raises(PeriodNotDividing):
        root_of_unity(ring, 7)
    with pytest.raises(PeriodNotDividing):
        root_of_unity(ring, 6)


def test_geometric_sum_vanishes():
    ring = make_ring(4)
    for period in (3, 5, 15):
        beta = root_of_unity(ring, period)
        acc = ring.zero
        x = ring.one
        for _ in range(period):
            acc = acc + x
            x = mul(x, beta)
        assert acc == ring.zero


def test_is_constant():
    ring = make_ring(3)
    assert is_constant(ring.scalar(3)) == 3
    assert is_constant(ring.zero) == 0
    assert is_constant(ring.x) is None
    assert is_constant(ring.element((1, 2, 0))) is None


def test_element_repr_shows_coefficients():
    ring = make_ring(3)
    assert repr(ring.element((1, 2, 0))) == "GrElement(1, 2, 0)"
