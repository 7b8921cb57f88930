"""Packed GR(4, 4^r) arithmetic against the scalar reference, and slot overflow.

Degrees 1 and 2 are the edge cases of the Barrett quotient shift (floor of
x^(2r-2) / h is 0 at r = 1 and 1 at r = 2); 100 lies past the default cap.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gr_reference import (element, frobenius, generator, mul, one, power, remainder,
                          unpack, zero)
from z4seq.errors import DegreeTooLarge
from z4seq.galois import MAX_DEGREE, SUM_CHUNK, GaloisRing, make_ring

DEGREES = [1, 2, 5, 12, 28, 64, 100]


def coeff_lists(r, size=None):
    size = r if size is None else size
    return st.lists(st.integers(0, 3), min_size=size, max_size=size)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(DEGREES), st.data())
def test_mul_matches_reference(r, data):
    ring = make_ring(r, r)
    a, b = (data.draw(coeff_lists(r)) for _ in range(2))
    assert unpack(ring, ring.mul(ring.pack(a), ring.pack(b))) == \
        mul(element(ring, a), element(ring, b))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(DEGREES), st.data())
def test_barrett_holds_for_any_monic_modulus(r, data):
    # Barrett reduction needs only a monic modulus; a dense one makes the
    # quotient's products largest
    ring = GaloisRing(r, tuple(data.draw(coeff_lists(r))) + (1,))
    a, b = (data.draw(coeff_lists(r)) for _ in range(2))
    assert unpack(ring, ring.mul(ring.pack(a), ring.pack(b))) == \
        mul(element(ring, a), element(ring, b))


@pytest.mark.parametrize("r", DEGREES + [300])
def test_mul_of_largest_elements(r):
    # all coefficients 3 and a dense modulus (so a dense floor(x^(2r-2)/h)):
    # at large r the slots of the product and of the Barrett quotient would
    # carry unless reduced mod 4 between the multiplies
    rng = random.Random(r)
    ring = GaloisRing(r, tuple(rng.randrange(4) for _ in range(r)) + (1,))
    top = element(ring, [3] * r)
    packed = ring.pack(top.coeffs)
    assert unpack(ring, ring.mul(packed, packed)) == mul(top, top)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(DEGREES), st.data())
def test_barrett_reduction_matches_long_division(r, data):
    ring = make_ring(r, r)
    poly = data.draw(coeff_lists(r, 2 * r - 1))
    assert unpack(ring, ring.reduce(ring.pack(poly))) == remainder(ring, poly)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(DEGREES), st.data())
def test_sigma_matches_reference_frobenius(r, data):
    ring = make_ring(r, r)
    a = data.draw(coeff_lists(r))
    assert unpack(ring, ring.sigma(ring.pack(a))) == frobenius(element(ring, a), 1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(DEGREES), st.data())
def test_pow_matches_reference(r, data):
    ring = make_ring(r, r)
    a = data.draw(coeff_lists(r))
    e = data.draw(st.integers(0, 1 << min(r, 40)))
    assert unpack(ring, ring.pow(ring.pack(a), e)) == power(element(ring, a), e)


def test_degree_beyond_the_slots_is_rejected():
    # past MAX_DEGREE a product slot could pass 0xFFFF
    r = MAX_DEGREE + 1
    with pytest.raises(DegreeTooLarge):
        GaloisRing(r, (1,) * (r + 1))


@pytest.mark.parametrize("r", DEGREES)
def test_pack_round_trip(r):
    ring = make_ring(r, r)
    assert ring.pack(one(ring).coeffs) == 1
    assert unpack(ring, ring.x) == generator(ring)
    assert unpack(ring, 0) == zero(ring)
    rng = random.Random(r)
    coeffs = tuple(rng.randrange(4) for _ in range(r))
    assert ring.digits(ring.pack(coeffs)) == coeffs == unpack(ring, ring.pack(coeffs)).coeffs


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from([1, 12, 64]), st.data())
def test_long_sums_never_carry_between_slots(r, data):
    # past SUM_CHUNK addends of 3 an unmasked slot would pass 0xFFFF
    ring = make_ring(r, r)
    b = data.draw(coeff_lists(r))
    k = data.draw(st.sampled_from([SUM_CHUNK - 1, SUM_CHUNK, SUM_CHUNK + 1,
                                   3 * SUM_CHUNK + 7]))
    m = data.draw(st.integers(0, 5000))
    total = ring.sum([ring.pack([3] * r)] * k + [ring.pack(b)] * m)
    assert unpack(ring, total) == element(ring, [3 * k + m * y for y in b])
