import pytest

from z4seq.analysis import power_table
from z4seq.cyclotomy import build_system
from z4seq.errors import TraceFormulaPreconditionFailed
from z4seq.galois import frobenius, make_ring, root_of_unity, trace
from z4seq.numtheory import mult_order
from z4seq.sequence import generate
from z4seq.trace_repr import check_trace_repr, eval_trace_repr, trace_params


def ring_beta(system):
    ring = make_ring(mult_order(2, system.pq))
    return ring, root_of_unity(ring, system.pq)


def test_params_fixtures():
    s = build_system(5, 13)
    ring, beta = ring_beta(s)
    params = trace_params(s, ring, beta)
    assert params.ell == 12 and params.ell_p == 4 and params.ell_q == 12
    assert params.epsilon is None  # Case2 descends through degree 4

    s = build_system(5, 17)
    ring, beta = ring_beta(s)
    params = trace_params(s, ring, beta)
    assert params.ell == 8 and params.ell_p == 4 and params.ell_q == 8
    assert params.epsilon == 2  # 2 sits in D2

    s = build_system(5, 113)
    ring, beta = ring_beta(s)
    params = trace_params(s, ring, beta)
    assert params.ell == 28 and params.epsilon == 1  # 2 sits in D0


def test_ell_is_lcm():
    import math
    for pair in [(5, 13), (5, 17), (13, 17), (17, 5)]:
        s = build_system(*pair)
        ring, beta = ring_beta(s)
        params = trace_params(s, ring, beta)
        assert params.ell == math.lcm(params.ell_p, params.ell_q)


def test_ring_degree_must_match():
    s = build_system(5, 13)
    wrong = make_ring(4)
    beta4 = root_of_unity(wrong, 15)
    with pytest.raises(TraceFormulaPreconditionFailed):
        trace_params(s, wrong, beta4)


def test_orbit_shortcut_matches_general_trace():
    # every inner trace term is a pure beta power, so the conjugate orbit
    # sum must equal the generic trace map on that element
    s = build_system(5, 17)
    ring, beta = ring_beta(s)
    params = trace_params(s, ring, beta)
    pows = power_table(beta, s.pq)
    eps = params.epsilon
    for orbit in params.d_orbits[0][:3]:
        w = orbit[0]
        orbit_sum = sum((ring.element(pows[x]) for x in orbit), ring.zero)
        assert orbit_sum == trace(ring.element(pows[w]), eps)


def test_frobenius_squares_beta_powers():
    s = build_system(5, 13)
    ring, beta = ring_beta(s)
    pows = power_table(beta, s.pq)
    for w in (1, 7, 30, 64):
        assert frobenius(ring.element(pows[w]), 1) == ring.element(pows[2 * w % s.pq])


def test_q_orbit_sums_are_frobenius_invariant():
    s = build_system(5, 13)
    ring, beta = ring_beta(s)
    params = trace_params(s, ring, beta)
    pows = power_table(beta, s.pq)
    for orbit in params.q_orbits:
        val = sum((ring.element(pows[w]) for w in orbit), ring.zero)
        assert frobenius(val, 1) == val


def test_digit_fixtures():
    s = build_system(5, 13)
    ring, beta = ring_beta(s)
    params = trace_params(s, ring, beta)
    pows = power_table(beta, s.pq)
    assert eval_trace_repr(s, ring, beta, params, 0, pows) == 2
    for u in s.members("P")[:4]:
        assert eval_trace_repr(s, ring, beta, params, u, pows) == 0
    for u in s.members("Q"):
        assert eval_trace_repr(s, ring, beta, params, u, pows) == 2


@pytest.mark.parametrize("pair", [(5, 13), (13, 5), (5, 17), (17, 5)])
def test_trace_reproduces_all_digits(pair):
    s = build_system(*pair)
    ring, beta = ring_beta(s)
    ok, first = check_trace_repr(s, ring, beta)
    assert ok and first is None


def test_non_constant_result_guard():
    import dataclasses

    from z4seq.errors import NonConstantResult

    s = build_system(5, 13)
    ring, beta = ring_beta(s)
    params = trace_params(s, ring, beta)
    broken = dataclasses.replace(params, rho=ring.x)
    with pytest.raises(NonConstantResult):
        for u in range(s.pq):
            eval_trace_repr(s, ring, beta, broken, u)


def test_trace_epsilon_one_branch():
    # 2 in D0 gives the epsilon = 1 variant of the Case1 form
    s = build_system(5, 113)
    ring, beta = ring_beta(s)
    params = trace_params(s, ring, beta)
    seq = generate(s)
    pows = power_table(beta, s.pq)
    for u in list(range(24)) + [113, 226, 5, 10]:
        assert eval_trace_repr(s, ring, beta, params, u, pows) == seq.digits[u]
