"""Metamorphic relations of linear complexity: each LC route checked against itself.

For a periodic Z4 sequence s of odd period T, over GR(4, 4^ord_2(T)) each
relation below permutes the DFT coefficients, scales them by units, or
changes only rho_0:

- a cyclic shift, or a decimation s_u -> s_(du) by a unit d mod T, keeps the LC;
- multiplying by 3 keeps the LC;
- adding a constant moves the LC by at most 1;
- LC(2s) <= LC(s) and LC(s + t) <= LC(s) + LC(t).

They need no second route, so they hold each route to account where no
oracle reaches: Reeds-Sloane on two periods, the span oracle of
`tests/span_reference.py`, and the count of nonzero DFT coefficients
(`coset_dft`), all on every odd T < 80.
"""

import math
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from span_reference import span_min_length
from z4seq.analysis import admissible_pairs, coset_dft, power_table
from z4seq.cyclotomy import build_system, lc_by_theorem
from z4seq.galois import make_ring, root_of_unity
from z4seq.lfsr import reeds_sloane
from z4seq.numtheory import mult_order
from z4seq.sequence import QuaternarySequence, generate


@lru_cache(maxsize=None)
def _ring_and_powers(T):
    # ord_2(67) = 66 is above the default cap; T = 1 needs a ring of degree 1
    r = mult_order(2, T) if T > 1 else 1
    ring = make_ring(r, r)
    return ring, power_table(root_of_unity(ring, T), T)


def lc_by_dft_count(digits):
    count, _ = coset_dft(QuaternarySequence(len(digits), tuple(digits)),
                         *_ring_and_powers(len(digits)))
    return count


ODD = list(range(1, 80, 2))
ROUTES = {
    "reeds-sloane": (lambda digits: reeds_sloane(digits * 2).length, ODD),
    "span": (span_min_length, ODD),
    "dft-count": (lc_by_dft_count, ODD),
}


@st.composite
def periods(draw, lengths):
    """One period: uniform, in 2*Z4, or a constant with a single spike."""
    T = draw(st.sampled_from(lengths))
    kind = draw(st.sampled_from(["uniform", "even", "spike"]))
    if kind != "spike":
        digits = st.integers(0, 3) if kind == "uniform" else st.sampled_from([0, 2])
        return draw(st.lists(digits, min_size=T, max_size=T))
    s = [draw(st.integers(0, 3))] * T
    i = draw(st.integers(0, T - 1))
    s[i] = (s[i] + draw(st.integers(1, 3))) % 4
    return s


def relation(test):
    """Run `test(lc, s, data)` on each route, s a period the route accepts."""
    @pytest.mark.parametrize("route", ROUTES)
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def run(route, data):
        lc, lengths = ROUTES[route]
        test(lc, data.draw(periods(lengths)), data)
    run.__name__ = run.__qualname__ = test.__name__
    return run


@relation
def test_shift_keeps_lc(lc, s, data):
    k = data.draw(st.integers(0, len(s) - 1))
    assert lc(s[k:] + s[:k]) == lc(s)


@relation
def test_unit_decimation_keeps_lc(lc, s, data):
    T = len(s)
    d = data.draw(st.sampled_from([d for d in range(1, T + 1) if math.gcd(d, T) == 1]))
    assert lc([s[d * u % T] for u in range(T)]) == lc(s)


@relation
def test_times_three_keeps_lc(lc, s, data):
    assert lc([3 * v % 4 for v in s]) == lc(s)


@relation
def test_constant_moves_lc_by_at_most_one(lc, s, data):
    c = data.draw(st.integers(1, 3))
    assert abs(lc([(v + c) % 4 for v in s]) - lc(s)) <= 1


@relation
def test_doubling_does_not_raise_lc(lc, s, data):
    assert lc([2 * v % 4 for v in s]) <= lc(s)


@relation
def test_lc_is_subadditive(lc, s, data):
    t = data.draw(st.lists(st.integers(0, 3), min_size=len(s), max_size=len(s)))
    assert lc([(a + b) % 4 for a, b in zip(s, t)]) <= lc(s) + lc(t)


def test_decimation_by_g_keeps_the_papers_lc():
    # u -> g*u maps D_i onto D_(i+1) and fixes P, Q and R as sets, so the
    # decimated sequence has new digits on the D classes but the same LC
    pairs = admissible_pairs(3000, 3000, pq_max=3000)
    assert len(pairs) == 38
    for p, q in pairs:
        system = build_system(p, q)
        s, n = generate(system).digits, system.pq
        decimated = [s[system.g * u % n] for u in range(n)]
        assert decimated != list(s)
        assert reeds_sloane(decimated * 2).length == lc_by_theorem(system), (p, q)
