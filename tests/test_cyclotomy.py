import random

import pytest

from z4seq.analysis import admissible_pairs
from z4seq.cyclotomy import (
    CASE1,
    CASE2,
    build_system,
    count_solutions,
)
from z4seq.errors import EqualPrimes, GcdNotFour, NotPrime

PAIRS = [(5, 13), (13, 5), (5, 17), (17, 5), (13, 17), (17, 13)]


def test_build_5_13():
    s = build_system(5, 13)
    assert s.g == 2 and s.h == 27 and s.e == 12
    assert all(len(s.classes[f"D{i}"]) == 12 for i in range(4))
    assert len(s.classes["P"]) == 12 and len(s.classes["Q"]) == 4
    assert s.classes["R"] == (0,)


def test_h4_lands_in_d0():
    s = build_system(5, 13)
    assert 27 * 27 % 65 == 14 and 14 * 14 % 65 == 1
    assert pow(s.h, 4, 65) == 1
    assert s.class_of[1] == "D0"
    for p, q in PAIRS:
        s = build_system(p, q)
        assert s.class_of[pow(s.h, 4, s.pq)] == "D0"


def enumerated_classes(p, q, g, h):
    """The paper's labels: D_i = {g^(4s+i) h^j : 0 <= s < e/4, 0 <= j < 4},
    then P, Q and R; every residue mod pq labelled exactly once."""
    n, e = p * q, (p - 1) * (q - 1) // 4
    labels = [None] * n
    members = [(0, "R")]
    members += [(k * p, "P") for k in range(1, q)]
    members += [(k * q, "Q") for k in range(1, p)]
    members += [(pow(g, 4 * s + i, n) * pow(h, j, n) % n, f"D{i}")
                for i in range(4) for s in range(e // 4) for j in range(4)]
    for u, label in members:
        assert labels[u] is None, (u, labels[u], label)
        labels[u] = label
    assert None not in labels
    return tuple(labels)


def test_index_labels_equal_the_enumeration():
    # no ring is built, so the degree cap must not filter any pair
    pairs = admissible_pairs(5000, 5000, r_max=10**6, pq_max=5000)
    assert len(pairs) == 268
    for p, q in pairs:
        s = build_system(p, q)
        assert s.class_of == enumerated_classes(p, q, s.g, s.h), (p, q)


def test_case_is_the_papers_two_condition_rule():
    # Case1: q = 1 (mod 8) and p = 5 (mod 8); Case2: q = 5 (mod 8) and p = 1 (mod 4)
    for p, q in admissible_pairs(5000, 5000, r_max=10**6, pq_max=5000):
        case1 = q % 8 == 1 and p % 8 == 5
        case2 = q % 8 == 5 and p % 4 == 1
        assert case1 != case2, (p, q)
        assert build_system(p, q).case == (CASE1 if case1 else CASE2), (p, q)


def test_rejections():
    with pytest.raises(GcdNotFour):
        build_system(3, 13)
    with pytest.raises(NotPrime):
        build_system(9, 13)
    with pytest.raises(NotPrime):
        build_system(5, 2)
    with pytest.raises(EqualPrimes):
        build_system(13, 13)


def test_classify_fixtures():
    s = build_system(5, 13)
    assert s.class_of[0] == "R"
    assert s.class_of[10] == "P"
    assert s.class_of[1] == "D0"
    assert s.class_of[13] == "Q"
    assert s.class_of[65 % s.pq] == "R"  # reduced mod pq


def test_case_of():
    assert build_system(5, 17).case == CASE1
    assert build_system(13, 17).case == CASE1
    assert build_system(5, 13).case == CASE2
    assert build_system(17, 5).case == CASE2


def test_pq_one_mod_four():
    for p, q in PAIRS:
        assert (p * q) % 4 == 1


def test_locate_two_case_pattern():
    for p, q in PAIRS + [(5, 29), (29, 5), (5, 41), (41, 5)]:
        s = build_system(p, q)
        if s.case == CASE1:
            assert s.two_class in (0, 2)
        else:
            assert s.two_class in (1, 3)


def test_locate_two_fixtures():
    # regression values for the canonical (smallest) common primitive root
    expected = {(5, 13): 1, (13, 5): 1, (5, 17): 2, (17, 5): 3,
                (13, 17): 2, (17, 13): 1, (5, 113): 0}
    for pair, cls in expected.items():
        assert build_system(*pair).two_class == cls, pair


def test_quadratic_residue_criterion():
    # 2 lands in D0 or D2 exactly when 2 is a square mod q, i.e. q = 1 (mod 8)
    for p, q in PAIRS + [(5, 29), (5, 41), (5, 113)]:
        s = build_system(p, q)
        is_square = pow(2, (q - 1) // 2, q) == 1
        assert (s.two_class in (0, 2)) == is_square
        assert is_square == (q % 8 == 1)


def test_partition():
    for p, q in PAIRS:
        s = build_system(p, q)
        n = p * q
        seen = set()
        total = 0
        for lab in ("D0", "D1", "D2", "D3", "P", "Q", "R"):
            members = s.classes[lab]
            assert seen.isdisjoint(members)
            seen.update(members)
            total += len(members)
        assert total == n and seen == set(range(n))
        assert len(s.classes["P"]) == q - 1
        assert len(s.classes["Q"]) == p - 1


def test_class_shift():
    rng = random.Random(9)
    for p, q in [(5, 13), (5, 17), (13, 17)]:
        s = build_system(p, q)
        d = [frozenset(s.classes[f"D{i}"]) for i in range(4)]
        for _ in range(12):
            i, j = rng.randrange(4), rng.randrange(4)
            u = rng.choice(s.classes[f"D{j}"])
            assert frozenset(u * v % s.pq for v in d[i]) == d[(i + j) % 4]


def test_count_solutions_closed_forms():
    # counts by enumeration match the closed forms in all three moduli
    for p, q in PAIRS + [(5, 29)]:
        s = build_system(p, q)
        for a in range(4):
            hits = (a + (q - 1) // 2) % 4 == 0
            assert count_solutions(s, a, p) == (q - 1) // 4
            assert count_solutions(s, a, q) == ((p - 1) if hits else 0)
            assert count_solutions(s, a, p * q) == (1 if hits else 0)


def test_summary_keys():
    s = build_system(5, 13)
    info = s.summary()
    assert info["p"] == 5 and info["q"] == 13 and info["g"] == 2
    assert info["h"] == 27 and info["e"] == 12
    assert info["case"] == CASE2 and info["two_class"] == 1
    assert info["class_sizes"]["Q"] == 4
