"""The uint8 power table and the vectorised trace form against GrElement code."""

import dataclasses
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from z4seq.analysis import power_table
from z4seq.cyclotomy import CASE1, build_system
from z4seq.errors import NonConstantResult, PeriodMismatch
from z4seq.galois import is_constant, make_ring, root_of_unity
from z4seq.numtheory import mult_order
from z4seq.sequence import generate
from z4seq.trace_repr import check_trace_repr, eval_trace_repr, trace_params

POWER_PAIRS = [(5, 13), (5, 17), (13, 17), (5, 29)]
TRACE_PAIRS = [(5, 13), (13, 5), (5, 17), (17, 5)]


@lru_cache(maxsize=None)
def setup(pair):
    """System, ring, beta, and beta^0 .. beta^(pq-1) as a running GrElement product."""
    s = build_system(*pair)
    ring = make_ring(mult_order(2, s.pq))
    beta = root_of_unity(ring, s.pq)
    pows = [ring.one]
    for _ in range(s.pq - 1):
        pows.append(pows[-1] * beta)
    return s, ring, beta, tuple(pows)


@pytest.mark.parametrize("pair", POWER_PAIRS)
def test_power_table_rows_are_beta_powers(pair):
    s, ring, beta, _ = setup(pair)
    table = power_table(beta, s.pq)
    assert table.shape == (s.pq, ring.r) and table.dtype == np.uint8
    for k in range(s.pq):
        assert ring.element(table[k]) == beta ** k, k


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(POWER_PAIRS), st.integers(1, 4000))
def test_power_table_of_a_beta_power(pair, m):
    # beta^m is a primitive root exactly when gcd(m, pq) = 1
    s, ring, beta, pows = setup(pair)
    n = s.pq
    gamma = beta ** m
    if math.gcd(m, n) == 1:
        table = power_table(gamma, n)
        assert all(ring.element(table[k]) == pows[k * m % n] for k in range(n))
    else:
        with pytest.raises(PeriodMismatch):
            power_table(gamma, n)


def test_power_table_rejects_wrong_order():
    ring65 = make_ring(12)
    beta = root_of_unity(ring65, 65)
    with pytest.raises(PeriodMismatch):
        power_table(beta ** 5, 65)  # order 13, not 65
    with pytest.raises(PeriodMismatch):
        power_table(beta, 13)  # beta^13 != 1


def reference_digit(system, ring, params, pows, u):
    """The trace form at u summed element by element, one index at a time."""
    n = system.pq

    def orbit_sum(orbits):
        acc = ring.zero
        for orbit in orbits:
            for w in orbit:
                acc = acc + pows[u * w % n]
        return acc

    total = ring.scalar(2) + orbit_sum(params.q_orbits) * 2
    if system.case != CASE1:
        total = total + orbit_sum(params.p_orbits) * 2
    for i in range(4):
        shift = -i if system.case == CASE1 else 2 - i
        total = total + (params.rho + ring.scalar(shift)) * orbit_sum(params.d_orbits[i])
    value = is_constant(total)
    if value is None:
        raise NonConstantResult(f"trace form at u={u} is not in Z4: {total!r}")
    return value


def reference_check(system, ring, params, pows):
    digits = generate(system).digits
    for u in range(system.pq):
        if reference_digit(system, ring, params, pows, u) != digits[u]:
            return False, u
    return True, None


def outcome(fn, *args):
    try:
        return fn(*args)
    except NonConstantResult as exc:
        return "NonConstantResult", str(exc)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_trace_form_matches_element_reference(data):
    pair = data.draw(st.sampled_from(TRACE_PAIRS))
    s, ring, beta, pows = setup(pair)
    params = trace_params(s, ring, beta)
    # rho + delta moves every unit index alike: no change, a Z4 shift (digits
    # move), one non-constant monomial, a 2-multiple or any element
    kind = data.draw(st.sampled_from(["none", "scalar", "monomial", "even", "any"]))
    coeffs = data.draw(st.lists(st.integers(0, 3), min_size=ring.r, max_size=ring.r))
    if kind == "none":
        coeffs = [0] * ring.r
    elif kind == "scalar":
        coeffs = coeffs[:1]
    elif kind == "monomial":
        k = data.draw(st.integers(1, ring.r - 1))
        coeffs = [0] * k + [data.draw(st.integers(1, 3))]
    elif kind == "even":
        coeffs = [2 * (c % 2) for c in coeffs]
    # dropping one conjugate orbit of a class makes the indices differ, so
    # mismatches and values outside Z4 can both occur, in either order
    d_orbits = list(params.d_orbits)
    drop = data.draw(st.none() | st.tuples(st.integers(0, 3), st.integers(0, 99)))
    if drop is not None:
        i, k = drop
        orbits = list(d_orbits[i])
        del orbits[k % len(orbits)]
        d_orbits[i] = tuple(orbits)
    broken = dataclasses.replace(params, rho=params.rho + ring.element(coeffs),
                                 d_orbits=tuple(d_orbits))
    for u in data.draw(st.lists(st.integers(0, s.pq - 1), min_size=1, max_size=4)):
        assert outcome(eval_trace_repr, s, ring, beta, broken, u) == \
            outcome(reference_digit, s, ring, broken, pows, u)
    assert outcome(check_trace_repr, s, ring, beta, broken) == \
        outcome(reference_check, s, ring, broken, pows)
