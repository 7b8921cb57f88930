import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from formula_reference import defining_poly_formula
from gr_reference import mul, one, root_power, scalar, unpack, zero
from z4seq import analysis
from z4seq.analysis import (
    _class_rows,
    _inner_products,
    _ring_and_beta,
    _theorem_holds,
    admissible_pairs,
    analyze,
    coset_dft,
    coset_sums,
    dft,
    lc_by_count,
    lc_by_theorem,
    power_table,
    rho_value,
    verify_identities,
)
from z4seq.cli import _SWEEP_COLUMNS, _line, main
from z4seq.cyclotomy import CASE1, CASE2, build_system, class_coefficients
from z4seq.errors import (
    GcdNotFour,
    PeriodMismatch,
    PeriodNotCongruent1Mod4,
)
from z4seq.galois import is_constant, make_ring, root_of_unity
from z4seq.lfsr import reeds_sloane
from z4seq.numtheory import R_MAX, mult_order
from z4seq.sequence import QuaternarySequence, generate


def evaluate(ring, coeffs, u, pows):
    """G(beta^u) = sum_i rho_i beta^(iu), element by element."""
    acc = zero(ring)
    for i, c in enumerate(coeffs):
        if c:
            acc = acc + mul(unpack(ring, c), pows[i * u % len(coeffs)])
    return acc


def class_sum(system, i, ring, pows, m=1):
    """D_i evaluated at gamma = base^m of the table: sum of gamma^u over u in D_i."""
    [(_, (value,))] = coset_sums(ring, pows, [m], [system.classes[f"D{i}"]])
    return unpack(ring, value)


def test_class_sum_at_one_and_subgroup_points():
    for pair in [(5, 13), (5, 17)]:
        s = build_system(*pair)
        ring, beta = _ring_and_beta(s, R_MAX)
        pows = power_table(beta, s.pq)
        target = scalar(ring, 3 * (s.q - 1) // 4)
        for i in range(4):
            # gamma = 1 gives |D_i| = e = 0 (mod 4)
            assert class_sum(s, i, ring, pows, 0) == scalar(ring, s.e)
            for k in range(s.q):
                assert class_sum(s, i, ring, pows, k * s.p % s.pq) == zero(ring)
            for k in range(1, s.p):
                assert class_sum(s, i, ring, pows, k * s.q % s.pq) == target


def test_root_of_unity_sums():
    s = build_system(5, 13)
    ring, beta = _ring_and_beta(s, R_MAX)
    pows = power_table(beta, s.pq)
    assert sum((unpack(ring, pows[j * s.p % s.pq]) for j in range(s.q)),
               zero(ring)) == zero(ring)
    assert sum((unpack(ring, pows[j * s.q % s.pq]) for j in range(s.p)),
               zero(ring)) == zero(ring)
    units = sum((class_sum(s, i, ring, pows) for i in range(4)), zero(ring))
    assert units == one(ring)


@functools.cache
def tables(T):
    """(ring, power table, reference powers) for period T, kept across examples.

    The reference powers of beta come from `gr_reference` products alone.
    """
    ring = make_ring(mult_order(2, T))
    beta = root_of_unity(ring, T)
    base = unpack(ring, beta.value)
    ref = [one(ring)]
    for _ in range(T - 1):
        ref.append(mul(ref[-1], base))
    return ring, power_table(beta, T), ref


@st.composite
def sums_case(draw):
    """A period T and, in range(T), index sets and the indices us to evaluate at."""
    T = draw(st.sampled_from((65, 85, 221)))
    index = st.integers(0, T - 1)
    sets = draw(st.lists(st.lists(index, max_size=12), min_size=1, max_size=3))
    return T, sets, draw(st.lists(index, min_size=1, max_size=5))


@settings(max_examples=60, deadline=None)
@given(sums_case())
def test_coset_sums_contract(case):
    T, sets, us = case
    ring, pows, ref = tables(T)
    out = coset_sums(ring, pows, us, sets)
    met = [u for coset, _ in out for u in coset]
    # each coset is a whole orbit of u -> 2u, led by an index of us; together
    # they are disjoint and cover us
    for coset, _ in out:
        assert coset[0] in us
        assert [2 * u % T for u in coset] == [*coset[1:], coset[0]]
    assert len(met) == len(set(met)) and set(us) <= set(met)
    for coset, sums in out:
        u = coset[0]
        assert len(sums) == len(sets)
        for members, value in zip(sets, sums):
            assert unpack(ring, value) == sum((ref[u * w % T] for w in members), zero(ring))
            assert unpack(ring, ring.sigma(value)) == \
                sum((ref[2 * u * w % T] for w in members), zero(ring))


def test_dft_constant_sequence():
    ring = make_ring(12)
    beta = root_of_unity(ring, 65)
    for c in range(4):
        seq = QuaternarySequence(65, (c,) * 65)
        coeffs = dft(seq, ring, beta)
        assert unpack(ring, coeffs[0]) == scalar(ring, c)
        assert all(unpack(ring, coeffs[i]) == zero(ring) for i in range(1, 65))


def test_dft_impulse():
    ring = make_ring(12)
    beta = root_of_unity(ring, 65)
    seq = QuaternarySequence(65, (1,) + (0,) * 64)
    coeffs = dft(seq, ring, beta)
    assert all(unpack(ring, c) == one(ring) for c in coeffs)
    assert lc_by_count(coeffs) == 65


def test_dft_zero_and_counts():
    ring = make_ring(12)
    beta = root_of_unity(ring, 65)
    assert lc_by_count(dft(QuaternarySequence(65, (0,) * 65), ring, beta)) == 0


def test_dft_coeff0_of_quaternary_5_13():
    s = build_system(5, 13)
    ring, beta = _ring_and_beta(s, R_MAX)
    coeffs = dft(generate(s), ring, beta)
    assert unpack(ring, coeffs[0]) == scalar(ring, 2)


def test_dft_rejects_bad_period():
    ring = make_ring(4)
    beta = root_of_unity(ring, 15)
    with pytest.raises(PeriodNotCongruent1Mod4):
        dft(QuaternarySequence(15, (1,) * 15), ring, beta)
    ring65 = make_ring(12)
    # the period is checked before the table: beta has order 65, not 15
    with pytest.raises(PeriodNotCongruent1Mod4):
        dft(QuaternarySequence(15, (1,) * 15), ring65, root_of_unity(ring65, 65))
    order13 = root_power(root_of_unity(ring65, 65), 5)  # order 13, not 65
    with pytest.raises(PeriodMismatch):
        dft(QuaternarySequence(65, (1,) * 65), ring65, order13)


@st.composite
def periodic_digits(draw, periods=(65, 85, 145, 185, 221)):
    """A period T from periods and T digits: uniform, in 2*Z4, one spike, or all zero."""
    T = draw(st.sampled_from(periods))
    kind = draw(st.sampled_from(("uniform", "even", "spike", "zero")))
    if kind == "uniform":
        return T, draw(st.lists(st.integers(0, 3), min_size=T, max_size=T))
    if kind == "even":
        return T, [2 * b for b in draw(st.lists(st.integers(0, 1), min_size=T, max_size=T))]
    digits = [0] * T
    if kind == "spike":
        digits[draw(st.integers(0, T - 1))] = draw(st.integers(1, 3))
    return T, digits


@settings(max_examples=60, deadline=None)
@given(periodic_digits())
def test_coset_count_matches_full_dft(case):
    T, digits = case
    ring = make_ring(mult_order(2, T))
    beta = root_of_unity(ring, T)
    pows = power_table(beta, T)
    seq = QuaternarySequence(T, tuple(digits))
    assert coset_dft(seq, ring, pows)[0] == lc_by_count(dft(seq, ring, beta))


def test_coset_count_on_paper_sequences():
    pairs = admissible_pairs(200, 200, pq_max=1000)
    assert len(pairs) == 32
    for p, q in pairs:
        s = build_system(p, q)
        ring, beta = _ring_and_beta(s, R_MAX)
        pows = power_table(beta, s.pq)
        seq = generate(s)
        assert coset_dft(seq, ring, pows)[0] == lc_by_count(dft(seq, ring, beta)), (p, q)


@settings(max_examples=80, deadline=None)
@given(periodic_digits(tuple(range(3, 80, 4))))
def test_coset_count_is_the_lc_on_periods_three_mod_4(case):
    # T = 3 (mod 4) is a unit in Z4 too: the count needs no exact inversion,
    # only dft does.  The cap is r itself: ord_2(67) = 66 is above the default cap
    T, digits = case
    r = mult_order(2, T)
    ring = make_ring(r, r)
    pows = power_table(root_of_unity(ring, T), T)
    count, _ = coset_dft(QuaternarySequence(T, tuple(digits)), ring, pows)
    assert count == reeds_sloane(digits * 2).length


def test_reconstruction_exhaustive():
    for pair in [(5, 13), (5, 17)]:
        s = build_system(*pair)
        ring, beta = _ring_and_beta(s, R_MAX)
        seq = generate(s)
        coeffs = dft(seq, ring, beta)
        pows = [unpack(ring, row) for row in power_table(beta, s.pq)]
        for u in range(s.pq):
            assert evaluate(ring, coeffs, u, pows) == scalar(ring, seq.digits[u])


def test_formula_equals_dft():
    for pair in [(5, 13), (13, 5), (5, 17), (17, 5)]:
        s = build_system(*pair)
        ring, beta = _ring_and_beta(s, R_MAX)
        assert defining_poly_formula(s, ring, beta) == dft(generate(s), ring, beta), pair


def test_formula_structure():
    # Case1: zero on Q; nonzero count follows the rho membership split
    s = build_system(5, 17)
    ring, beta = _ring_and_beta(s, R_MAX)
    coeffs = defining_poly_formula(s, ring, beta)
    for u in s.classes["Q"]:
        assert unpack(ring, coeffs[u]) == zero(ring)
    in_z4 = is_constant(rho_value(s, beta, power_table(beta, s.pq)))
    zero_classes = [i for i in range(4)
                    if unpack(ring, coeffs[s.classes[f"D{i}"][0]]) == zero(ring)]
    if in_z4:
        assert len(zero_classes) == 1
        assert lc_by_count(coeffs) == s.q + 3 * s.e
    else:
        assert not zero_classes
        assert lc_by_count(coeffs) == s.pq - s.p + 1

    # Case2: coefficient 2 at exponent 0; every coefficient nonzero
    s = build_system(5, 13)
    ring, beta = _ring_and_beta(s, R_MAX)
    coeffs = defining_poly_formula(s, ring, beta)
    assert unpack(ring, coeffs[0]) == scalar(ring, 2)
    assert lc_by_count(coeffs) == s.pq


def test_inner_product_patterns():
    # (5, 1321): the constant (q-1)/4 = 330 is reduced mod 4 before it is added
    for pair in [(5, 17), (5, 13), (17, 5), (5, 1321)]:
        s = build_system(*pair)
        ring, beta = _ring_and_beta(s, R_MAX)
        products = _inner_products(s, ring, _class_rows(s, ring, power_table(beta, s.pq)))
        for i in range(4):
            for j in range(4):
                val = unpack(ring, products[i][j])
                if s.case == CASE1:
                    expected = one(ring) if i == j else zero(ring)
                else:
                    expected = one(ring) if (i - j) % 4 == 2 else zero(ring)
                assert val == expected, (pair, i, j)


def test_rho_constancy_follows_two_class():
    for pair, expected in [((5, 113), True), ((5, 17), False), ((5, 13), False)]:
        s = build_system(*pair)
        ring, beta = _ring_and_beta(s, R_MAX)
        in_z4 = is_constant(rho_value(s, beta, power_table(beta, s.pq)))
        assert in_z4 == expected, pair
        assert in_z4 == (s.two_class == 0)


def test_lc_by_theorem_fixtures():
    assert lc_by_theorem(build_system(5, 13)) == 65
    assert lc_by_theorem(build_system(5, 17)) == 81      # 2 in D2: pq - p + 1
    assert lc_by_theorem(build_system(13, 17)) == 209
    assert lc_by_theorem(build_system(5, 113)) == 449    # 2 in D0: q + 3e


def test_lc_branch_two_in_d0():
    s = build_system(5, 113)
    ring = make_ring(28)
    beta = root_of_unity(ring, s.pq)
    coeffs = dft(generate(s), ring, beta)
    assert lc_by_count(coeffs) == 449 == lc_by_theorem(s)
    assert defining_poly_formula(s, ring, beta) == coeffs


def test_analyze_agrees():
    rep = analyze(build_system(5, 13))
    assert rep["lc_formula"] == rep["lc_dft"] == rep["lc_reeds_sloane"] == 65
    assert rep["agree"] and rep["ring_degree"] == 12
    assert _line(rep, _SWEEP_COLUMNS[:8], ",") == "5,13,Case2,1,65,65,65,true"
    # the keys in output order: the JSON row and the sweep columns read them
    assert list(rep) == ["p", "q", "case", "two_class", "rho", "rho_in_z4", "lc_formula",
                         "lc_dft", "lc_reeds_sloane", "agree", "ring_degree"]


def test_mirror_pair_reuses_the_power_table():
    # (5,13) and (13,5) share pq = 65, so the ring, beta and the checked table
    power_table.cache_clear()
    assert analyze(build_system(5, 13))["agree"] and analyze(build_system(13, 5))["agree"]
    info = power_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def coset_values(s):
    """ring, rho and the DFT at each coset's first index, as `analyze` reads them."""
    ring, beta = _ring_and_beta(s, R_MAX)
    pows = power_table(beta, s.pq)
    return ring, rho_value(s, beta, pows), coset_dft(generate(s), ring, pows)[1]


def test_theorem_holds_on_paper_sequences():
    for p, q in admissible_pairs(200, 200, pq_max=1000):
        s = build_system(p, q)
        assert _theorem_holds(s, *coset_values(s)), (p, q)


@pytest.mark.parametrize("pair", [(5, 13), (5, 17), (5, 113)])
def test_theorem_check_needs_the_frobenius_step(pair):
    # values made from the table itself with rho replaced by x match at every
    # coset representative; only sigma(x) = x^2 != x - t shows they are wrong
    s = build_system(*pair)
    ring, rho, at_cosets = coset_values(s)
    table = class_coefficients(s)
    fake = [(coset, (a * ring.x + b) & ring.mask)
            for coset, _ in at_cosets for a, b in [table[s.class_of[coset[0]]]]]
    assert _theorem_holds(s, ring, rho, at_cosets)
    assert not _theorem_holds(s, ring, ring.x, fake)


def test_corrupted_rho_is_a_disagreement(monkeypatch, capsys):
    # the three lengths still agree; only the coefficient check sees rho
    rho_of = analysis.rho_value
    monkeypatch.setattr(analysis, "rho_value", lambda *args: rho_of(*args) ^ 1)
    assert main(["lc", "--p", "5", "--q", "13"]) == 1
    assert capsys.readouterr().out == "65 65 65 DISAGREE\n"


def test_q_coefficient_forced_to_zero_is_a_disagreement(monkeypatch, capsys):
    # the nonzero count cannot see a wrong Q coefficient: in Case2 every
    # coefficient stays nonzero
    def without_q(system):
        return {**class_coefficients(system), "Q": (0, 0)}

    monkeypatch.setattr(analysis, "class_coefficients", without_q)
    pairs = [pair for pair in admissible_pairs(60, 60, 64)
             if build_system(*pair).case == CASE2]
    assert len(pairs) == 13
    for pair in pairs:
        rep = analyze(build_system(*pair))
        assert rep["lc_formula"] == rep["lc_dft"] == rep["lc_reeds_sloane"], pair
        assert not rep["agree"], pair
    assert main(["lc", "--p", "5", "--q", "13"]) == 1
    assert capsys.readouterr().out == "65 65 65 DISAGREE\n"


def test_gcd_rejected_before_ring_work():
    with pytest.raises(GcdNotFour):
        build_system(3, 13)


def test_analyze_respects_ring_cap():
    from z4seq.errors import DegreeTooLarge

    system = build_system(5, 37)  # ord of 2 mod 185 is 36
    with pytest.raises(DegreeTooLarge):
        analyze(system, r_max=32)


def test_rho_shift_relation():
    # evaluating rho at beta^k for k in D_l subtracts l from every class index
    s = build_system(5, 13)
    ring, beta = _ring_and_beta(s, R_MAX)
    rng = random.Random(5)
    pows = power_table(beta, s.pq)
    rho = unpack(ring, rho_value(s, beta, pows))
    for _ in range(4):
        l = rng.randrange(4)
        k = rng.choice(s.classes[f"D{l}"])
        gamma = root_power(beta, k)
        shifted = unpack(ring, rho_value(s, gamma, power_table(gamma, s.pq)))
        total = sum((class_sum(s, i, ring, pows) for i in range(4)), zero(ring))
        expected = rho - mul(scalar(ring, l), total)
        assert shifted == expected


def test_admissible_pairs():
    pairs = admissible_pairs(20, 20, 32)
    assert (5, 13) in pairs and (5, 17) in pairs and (13, 17) in pairs
    assert (17, 5) in pairs and (13, 5) in pairs
    assert all(p != q for p, q in pairs)
    assert (3, 13) not in pairs
    # the r cap filters
    assert admissible_pairs(20, 20, 8) == [(5, 17), (17, 5)]
    assert admissible_pairs(5, 5, 32) == []


def test_verify_identities_all_pass():
    for pair in [(5, 13), (5, 17)]:
        s = build_system(*pair)
        ring, beta = _ring_and_beta(s, R_MAX)
        checks = verify_identities(s, ring, beta)
        assert checks and all(checks.values()), (pair, checks)


def swap_classes(system, a, b):
    """The system with class labels a and b exchanged."""
    swap = {a: b, b: a}
    return system._replace(class_of=tuple(swap.get(lab, lab) for lab in system.class_of))


def swap_residues(system, u, v):
    """The system with the labels of residues u and v exchanged."""
    labels = list(system.class_of)
    labels[u], labels[v] = labels[v], labels[u]
    return system._replace(class_of=tuple(labels))


@pytest.mark.parametrize("pair", [(5, 13), (13, 5), (5, 29), (17, 5)])
def test_residue_swap_is_seen_by_the_theorem_check_alone(pair):
    # In Case2 every coefficient is nonzero, and it stays so when one D0
    # residue trades labels with one D1 residue; with 2 left in place the
    # closed form stays pq too.  The digits change, the three lengths do not:
    # only the coefficient check (`_theorem_holds`) sees the swap
    s = build_system(*pair)
    assert s.case == CASE2
    rng = random.Random(s.pq)
    partners = [w for w in s.classes["D1"] if w != 2]
    for u in s.classes["D0"]:  # 2 is in D1 or D3 in Case2
        v = rng.choice(partners)
        swapped = swap_residues(s, u, v)
        assert generate(swapped).digits != generate(s).digits
        rep = analyze(swapped)
        assert rep["lc_formula"] == rep["lc_dft"] == rep["lc_reeds_sloane"] == s.pq, (u, v)
        assert not rep["agree"], (u, v)


def test_verify_identities_can_fail():
    s = build_system(5, 13)
    ring, beta = _ring_and_beta(s, R_MAX)

    def failing(system):
        checks = verify_identities(system, ring, beta)
        return sorted(name for name, ok in checks.items() if not ok)

    # i -> -i is an automorphism of Z4: swapping D1 and D3 gives the classes
    # of the generator g^-1, a valid system that must pass every identity
    assert failing(swap_classes(s, "D1", "D3")) == []
    assert failing(swap_classes(s, "D1", "D2")) == ["class-shift", "inner-products"]
    assert failing(swap_classes(s, "D0", "D1")) == [
        "class-shift", "inner-products", "partition", "rho-membership",
        "solution-counts"]
    # one residue of D1 traded with one of D2 that differs from it mod q
    u = s.classes["D1"][0]
    v = next(w for w in s.classes["D2"] if (w - u) % s.q)
    assert failing(swap_residues(s, u, v)) == [
        "class-shift", "class-sums", "inner-products"]
    # a unit traded with a multiple of p: the units no longer sum to 1
    assert failing(swap_residues(s, s.classes["D0"][0], s.classes["P"][0])) == [
        "class-shift", "class-sums", "inner-products", "partition",
        "root-of-unity-sums", "solution-counts"]
