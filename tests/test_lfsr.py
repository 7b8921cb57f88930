import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from z4seq.analysis import lc_by_theorem
from z4seq.cyclotomy import build_system
from z4seq.errors import OracleTooLarge
from z4seq.lfsr import _conv, reeds_sloane, snf_min_length, solvable_z4
from z4seq.sequence import generate


def brute_min_length(seq):
    """Enumerate every connection polynomial of each length (tiny inputs only)."""
    N = len(seq)
    if all(v % 4 == 0 for v in seq):
        return 0
    for L in range(1, N + 1):
        if L >= N:
            return L
        for tail in itertools.product(range(4), repeat=L):
            poly = (1,) + tail
            if all(_conv(poly, seq, i) == 0 for i in range(L, N)):
                return L
    return N


def test_all_zero():
    res = reeds_sloane([0] * 20)
    assert res.length == 0 and res.connection == (1,) and res.annihilates


def test_constant_twos():
    res = reeds_sloane([2] * 12)
    assert res.length == 1 and res.annihilates


def test_finite_impulse():
    # s_{k} = 0 * s_{k-1} generates 1,0,0,... so one cell suffices
    res = reeds_sloane([1, 0, 0, 0, 0, 0])
    assert res.length == 1 and res.annihilates


def test_connection_shape():
    rng = random.Random(2)
    for _ in range(30):
        seq = [rng.randrange(4) for _ in range(rng.randrange(1, 24))]
        res = reeds_sloane(seq)
        assert len(res.connection) == res.length + 1
        assert res.connection[0] % 2 == 1
        assert res.annihilates


def test_register_replays_sequence():
    rng = random.Random(8)
    for _ in range(20):
        seq = [rng.randrange(4) for _ in range(16)]
        res = reeds_sloane(seq)
        L, c = res.length, res.connection
        replay = list(seq[:L])
        for k in range(L, len(seq)):
            nxt = -sum(c[j] * replay[k - j] for j in range(1, L + 1)) % 4
            replay.append(nxt)
        assert replay == seq


def test_exhaustive_small_vs_bruteforce():
    for N in range(1, 5):
        for seq in itertools.product(range(4), repeat=N):
            res = reeds_sloane(seq)
            assert res.annihilates
            assert res.length == brute_min_length(list(seq)), seq


def test_random_vs_bruteforce_length5():
    rng = random.Random(4)
    for _ in range(150):
        seq = [rng.randrange(4) for _ in range(5)]
        assert reeds_sloane(seq).length == brute_min_length(seq)


def test_snf_fixtures():
    assert snf_min_length([0] * 15, 15) == 0
    assert snf_min_length([1] + [0] * 14, 15) == 15  # periodic impulse
    assert snf_min_length([2] * 6, 6) == 1
    assert snf_min_length([2] * 128, 128) == 1
    with pytest.raises(OracleTooLarge):
        snf_min_length([0] * 129, 129)


def test_snf_matches_reeds_sloane_on_two_periods():
    rng = random.Random(77)
    for _ in range(120):
        period = rng.randrange(1, 33)
        digits = [rng.randrange(4) for _ in range(period)]
        assert reeds_sloane(digits * 2).length == snf_min_length(digits, period)


def test_stabilization_beyond_two_periods():
    rng = random.Random(13)
    for _ in range(25):
        period = rng.randrange(1, 20)
        digits = [rng.randrange(4) for _ in range(period)]
        two = reeds_sloane(digits * 2).length
        assert reeds_sloane(digits * 3).length == two
        assert reeds_sloane(digits * 4).length == two


DIGIT = st.integers(0, 3)
EVEN = st.sampled_from([0, 2])


@st.composite
def perturbed_even_tap_outputs(draw, max_len):
    """Output of a register with taps in 2*Z4, then one digit changed.

    Such inputs keep discrepancies of both 2-adic valuations in play.
    """
    taps = draw(st.lists(EVEN, min_size=1, max_size=4))
    digits = draw(st.lists(DIGIT, min_size=len(taps), max_size=len(taps)))
    n = draw(st.integers(len(taps), max_len))
    while len(digits) < n:
        digits.append(-sum(t * digits[-1 - j] for j, t in enumerate(taps)) % 4)
    i = draw(st.integers(0, n - 1))
    digits[i] = (digits[i] + draw(st.integers(1, 3))) % 4
    return digits


def z4_inputs(min_len, max_len):
    return st.one_of(st.lists(DIGIT, min_size=min_len, max_size=max_len),
                     st.lists(EVEN, min_size=min_len, max_size=max_len),
                     perturbed_even_tap_outputs(max_len))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z4_inputs(0, 6))
def test_reeds_sloane_vs_bruteforce_hypothesis(seq):
    res = reeds_sloane(seq)
    assert res.annihilates and res.length == brute_min_length(seq)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(z4_inputs(1, 40))
def test_reeds_sloane_vs_snf_hypothesis(digits):
    assert reeds_sloane(digits * 2).length == snf_min_length(digits, len(digits))


def test_snf_oracle_on_paper_sequences():
    # periods 65 and 85: the oracle checks the closed form on real pairs
    for pair in [(5, 13), (13, 5), (5, 17), (17, 5)]:
        system = build_system(*pair)
        seq = generate(system)
        assert snf_min_length(seq.digits, system.pq) == lc_by_theorem(system), pair


def test_quaternary_sequence_5_13():
    seq = generate(build_system(5, 13))
    res = reeds_sloane(seq.digits * 2)
    assert res.length == 65 and res.annihilates


def test_solvable_z4_basics():
    assert solvable_z4([[2]], [2])
    assert not solvable_z4([[2]], [1])
    assert solvable_z4([[1, 2], [0, 2]], [3, 2])
    assert not solvable_z4([[2, 2], [2, 2]], [0, 1])
    assert solvable_z4([[0]], [0])


def test_solvable_z4_vs_enumeration():
    rng = random.Random(21)
    for _ in range(300):
        m = rng.randrange(1, 4)
        k = rng.randrange(1, 4)
        A = [[rng.randrange(4) for _ in range(k)] for _ in range(m)]
        b = [rng.randrange(4) for _ in range(m)]
        brute = any(
            all(sum(A[i][j] * x[j] for j in range(k)) % 4 == b[i] % 4
                for i in range(m))
            for x in itertools.product(range(4), repeat=k)
        )
        assert solvable_z4(A, b) == brute
