from collections import Counter

import pytest

from z4seq.cyclotomy import build_system
from z4seq.sequence import QuaternarySequence, generate, to_csv, to_text

BRANCH_VALUE = {"R": 2, "Q": 2, "P": 0, "D0": 0, "D1": 1, "D2": 2, "D3": 3}


def test_generate_5_13_fixtures():
    s = build_system(5, 13)
    seq = generate(s)
    assert seq.period == 65
    assert seq.digits[0] == 2          # R branch
    assert seq.digits[5] == 0          # p itself lies in P
    assert seq.digits[1] == 0          # 1 = g^0 h^0 in D0
    assert seq.digits[13] == 2         # q lies in Q


def test_digits_follow_classification():
    for pair in [(5, 13), (5, 17), (17, 5)]:
        s = build_system(*pair)
        seq = generate(s)
        for u, d in enumerate(seq.digits):
            assert d == BRANCH_VALUE[s.class_of[u]]


def test_generate_is_pure():
    s = build_system(5, 13)
    assert generate(s).digits == generate(s).digits


def test_histogram_5_13():
    seq = generate(build_system(5, 13))
    counts = Counter(seq.digits)
    assert counts[2] == 17             # |Q| + |R| + |D2| = 4 + 1 + 12
    assert counts[1] == 12             # |D1|
    assert counts[3] == 12             # |D3|
    assert counts[0] == 24             # |P| + |D0|
    assert sum(counts.values()) == 65


def test_histogram_identity():
    for pair in [(5, 17), (13, 17)]:
        s = build_system(*pair)
        counts = Counter(generate(s).digits)
        assert counts[2] == (s.p - 1) + 1 + s.e
        assert sum(counts.values()) == s.pq


def test_text_roundtrip():
    seq = generate(build_system(5, 13))
    text = to_text(seq)
    assert text.endswith("\n") and len(text) == 66
    assert set(text.strip()) <= set("0123")
    digits = tuple(int(ch) for ch in text.strip())
    assert QuaternarySequence(period=len(digits), digits=digits) == seq


def test_csv_export():
    seq = QuaternarySequence(period=3, digits=(2, 0, 1))
    assert to_csv(seq) == "index,digit\n0,2\n1,0\n2,1\n"


def test_validation():
    with pytest.raises(ValueError):
        QuaternarySequence(period=2, digits=(1,))
    with pytest.raises(ValueError):
        QuaternarySequence(period=1, digits=(4,))
