import pytest

from gr_reference import frobenius, trace, unpack, zero
from z4seq.analysis import _ring_and_beta, admissible_pairs, power_table
from z4seq.cyclotomy import build_system, lc_by_theorem
from z4seq.errors import InternalCaseError, TraceFormulaPreconditionFailed
from z4seq.galois import make_ring, root_of_unity
from z4seq.numtheory import R_MAX
from z4seq.sequence import generate
from z4seq.trace_repr import _trace_values, check_trace_repr, trace_params


def test_params_fixtures():
    s = build_system(5, 13)
    ring, beta = _ring_and_beta(s, R_MAX)
    params = trace_params(s, ring, beta)
    assert params.ell == 12 and params.ell_p == 4 and params.ell_q == 12
    assert params.epsilon is None  # Case2 descends through degree 4

    s = build_system(5, 17)
    ring, beta = _ring_and_beta(s, R_MAX)
    params = trace_params(s, ring, beta)
    assert params.ell == 8 and params.ell_p == 4 and params.ell_q == 8
    assert params.epsilon == 2  # 2 sits in D2

    s = build_system(5, 113)
    ring, beta = _ring_and_beta(s, R_MAX)
    params = trace_params(s, ring, beta)
    assert params.ell == 28 and params.epsilon == 1  # 2 sits in D0


def test_ell_is_lcm():
    import math
    for pair in [(5, 13), (5, 17), (13, 17), (17, 5)]:
        s = build_system(*pair)
        ring, beta = _ring_and_beta(s, R_MAX)
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
    ring, beta = _ring_and_beta(s, R_MAX)
    params = trace_params(s, ring, beta)
    pows = power_table(beta, s.pq)
    eps = params.epsilon
    for orbit in params.d_orbits[0][:3]:
        w = orbit[0]
        orbit_sum = sum((unpack(ring, pows[x]) for x in orbit), zero(ring))
        assert orbit_sum == trace(unpack(ring, pows[w]), eps)


def test_frobenius_squares_beta_powers():
    s = build_system(5, 13)
    ring, beta = _ring_and_beta(s, R_MAX)
    pows = power_table(beta, s.pq)
    for w in (1, 7, 30, 64):
        assert frobenius(unpack(ring, pows[w]), 1) == unpack(ring, pows[2 * w % s.pq])


def test_q_orbit_sums_are_frobenius_invariant():
    s = build_system(5, 13)
    ring, beta = _ring_and_beta(s, R_MAX)
    params = trace_params(s, ring, beta)
    pows = power_table(beta, s.pq)
    for orbit in params.q_orbits:
        val = sum((unpack(ring, pows[w]) for w in orbit), zero(ring))
        assert frobenius(val, 1) == val


def test_digit_fixtures():
    s = build_system(5, 13)
    ring, beta = _ring_and_beta(s, R_MAX)
    params = trace_params(s, ring, beta)
    us = [0, *s.classes["P"][:4], *s.classes["Q"]]
    assert _trace_values(s, ring, params, us) == [2] + [0] * 4 + [2] * len(s.classes["Q"])


@pytest.mark.parametrize("pair", [(5, 13), (13, 5), (5, 17), (17, 5)])
def test_trace_reproduces_all_digits(pair):
    s = build_system(*pair)
    ring, beta = _ring_and_beta(s, R_MAX)
    ok, first = check_trace_repr(s, ring, beta, trace_params(s, ring, beta))
    assert ok and first is None


def test_non_constant_result_guard():
    from z4seq.errors import NonConstantResult

    s = build_system(5, 13)
    ring, beta = _ring_and_beta(s, R_MAX)
    params = trace_params(s, ring, beta)
    broken = params._replace(rho=ring.x)
    assert any(v > 3 for v in _trace_values(s, ring, broken, range(s.pq)))
    with pytest.raises(NonConstantResult):
        check_trace_repr(s, ring, beta, broken)


def test_non_constant_message_shows_coefficients():
    # the message lists the value's Z4 coefficients c_0 .. c_(r-1)
    from z4seq.errors import NonConstantResult

    s = build_system(5, 13)
    ring, beta = _ring_and_beta(s, R_MAX)
    broken = trace_params(s, ring, beta)._replace(rho=ring.x)
    with pytest.raises(NonConstantResult) as info:
        check_trace_repr(s, ring, beta, broken)
    assert str(info.value) == ("trace form at u=1 is not in Z4: "
                               "GrElement(1, 0, 3, 0, 2, 0, 1, 0, 2, 0, 2, 0)")


def test_trace_epsilon_one_branch():
    # 2 in D0 gives the epsilon = 1 variant of the Case1 form
    s = build_system(5, 113)
    ring, beta = _ring_and_beta(s, R_MAX)
    params = trace_params(s, ring, beta)
    seq = generate(s)
    us = list(range(24)) + [113, 226, 5, 10]
    assert _trace_values(s, ring, params, us) == [seq.digits[u] for u in us]


def test_trace_form_on_every_capped_pair():
    # every admissible pair with pq <= 2*10^4 and ring degree <= 64, (5, 73)
    # and (5, 89) among them, where e*eps/(4*ell) is not an integer
    pairs = admissible_pairs(4000, 4000, 64, pq_max=20_000)
    assert len(pairs) == 50
    for pair in pairs:
        s = build_system(*pair)
        ring, beta = _ring_and_beta(s, R_MAX)
        params = trace_params(s, ring, beta)
        assert check_trace_repr(s, ring, beta, params) == (True, None), pair


@pytest.mark.parametrize("pair", [(5, 13), (5, 17), (5, 113), (5, 73)])
def test_orbits_must_tile_their_class(pair):
    # swap one residue of D0 with one of D1: the orbit walk from the moved
    # D1 residue leaves the tampered D0
    s = build_system(*pair)
    class_of = list(s.class_of)
    u0, u1 = s.classes["D0"][0], s.classes["D1"][0]
    class_of[u0], class_of[u1] = "D1", "D0"
    tampered = s._replace(class_of=tuple(class_of))
    ring, beta = _ring_and_beta(s, R_MAX)
    with pytest.raises(TraceFormulaPreconditionFailed, match="D0"):
        trace_params(tampered, ring, beta)


@pytest.mark.parametrize("pair", [(5, 13), (5, 17), (13, 17), (5, 113)])
def test_orbits_match_the_paper_parametrization(pair):
    # where e*eps/(4*ell) is an integer the orbits of D_i under u -> 2^eps u
    # are {g^(4t+i) h^j 2^(eps k) : k}, one per t < e*eps/(4*ell) and j < 4
    s = build_system(*pair)
    ring, beta = _ring_and_beta(s, R_MAX)
    params = trace_params(s, ring, beta)
    n = s.pq
    eps = params.epsilon or 4  # Case2 descends through degree 4
    t_count, rem = divmod(s.e * eps, 4 * params.ell)
    assert rem == 0
    for i in range(4):
        paper = [frozenset(pow(s.g, 4 * t + i, n) * pow(s.h, j, n) * pow(2, eps * k, n) % n
                           for k in range(params.ell // eps))
                 for t in range(t_count) for j in range(4)]
        walked = [frozenset(orbit) for orbit in params.d_orbits[i]]
        assert len(walked) == len(paper) and set(walked) == set(paper)


def rotate_d_classes(system):
    """The system with each D_i relabelled D_(i+1), 2's class with them."""
    shift = {f"D{i}": f"D{(i + 1) % 4}" for i in range(4)}
    return system._replace(class_of=tuple(shift.get(lab, lab) for lab in system.class_of))


def test_case_and_class_of_two_must_agree():
    # Case1 needs 2 in D0 or D2, Case2 2 in D1 or D3; rotating the labels
    # moves 2 to a class of the other parity
    s = build_system(5, 113)
    ring, beta = _ring_and_beta(s, R_MAX)
    wrong = rotate_d_classes(s)
    assert s.two_class == 0 and wrong.two_class == 1
    with pytest.raises(InternalCaseError, match="Case1 system with 2 in D1"):
        lc_by_theorem(wrong)
    with pytest.raises(InternalCaseError, match="Case1 system with 2 in D1"):
        trace_params(wrong, ring, beta)

    s = build_system(5, 13)
    ring, beta = _ring_and_beta(s, R_MAX)
    wrong = rotate_d_classes(s)
    with pytest.raises(InternalCaseError, match="Case2 system with 2 in D2"):
        lc_by_theorem(wrong)
    with pytest.raises(InternalCaseError, match="Case2 system with 2 in D2"):
        trace_params(wrong, ring, beta)
