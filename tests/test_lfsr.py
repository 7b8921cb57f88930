import itertools
import random
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from snf_reference import OracleTooLarge, snf_min_length, solvable_z4
from span_reference import span_min_length
from z4seq.analysis import admissible_pairs, lc_by_theorem
from z4seq.cyclotomy import build_system
from z4seq.lfsr import LfsrResult, _digits, _dot, _planes, _scale, _sub, reeds_sloane
from z4seq.sequence import generate


def _conv(poly, seq, k):
    """Coefficient of x^k in poly(x) * seq(x), mod 4."""
    acc = 0
    for j, c in enumerate(poly):
        if j > k:
            break
        if c:
            acc += c * seq[k - j]
    return acc % 4


def _sub_shifted(a, t, b, shift):
    """a(x) - t * x^shift * b(x) over Z4, as a new coefficient list."""
    c = a + [0] * max(0, shift + len(b) - len(a))
    for j, bj in enumerate(b):
        c[shift + j] = (c[shift + j] - t * bj) % 4
    return c


def reference_reeds_sloane(digits) -> LfsrResult:
    """The same Reeds-Sloane recurrence on coefficient lists, entry by entry."""
    seq = [int(d) % 4 for d in digits]
    N = len(seq)
    rev = seq[::-1]
    regs = [(0, [1]), (0, [2])]  # (L_eta, connection) for eta = 0, 1
    stored = {}  # d % 2 -> (L - k, poly, d, k) of an earlier discrepancy d
    for k in range(N):
        window = rev[N - 1 - k:]  # s_k, s_(k-1), ..., s_0
        discs = [sum(map(mul, a, window)) % 4 for _, a in regs]
        new = []
        for (L, a), d in zip(regs, discs):
            if d == 0:
                new.append((L, a))
                continue
            best = (k + 1, a)  # raising L to k + 1 needs no correction
            for gap, b, db, kb in stored.values():
                # b cancels d when its valuation is no larger; units are self-inverse
                if (db % 2 or d % 2 == 0) and max(L, k + gap) < best[0]:
                    t = d * db % 4 if db % 2 else 1
                    best = (max(L, k + gap), _sub_shifted(a, t, b, k - kb))
            new.append(best)
        for (L, a), d in zip(regs, discs):
            if d and (d % 2 not in stored or L - k < stored[d % 2][0]):
                stored[d % 2] = (L - k, a, d, k)
        regs = new
    L, a = regs[0]
    poly = [c * a[0] % 4 for c in a] + [0] * (L + 1 - len(a))  # make c_0 = 1
    ok = all(_conv(poly, seq, i) == 0 for i in range(L, N))
    return LfsrResult(length=L, connection=tuple(poly), annihilates=ok)


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


def assert_connection_shape(res):
    """c_0 = 1 and length + 1 entries, with no normalisation after the recurrence."""
    assert len(res.connection) == res.length + 1
    assert res.connection[0] == 1
    assert res.annihilates


def test_connection_shape():
    rng = random.Random(2)
    for _ in range(30):
        seq = [rng.randrange(4) for _ in range(rng.randrange(1, 24))]
        assert_connection_shape(reeds_sloane(seq))


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(z4_inputs(0, 120))
def test_connection_shape_hypothesis(digits):
    assert_connection_shape(reeds_sloane(digits))


def test_connection_shape_on_paper_sequences():
    for pair in admissible_pairs(200, 200, r_max=1000, pq_max=1000):
        assert_connection_shape(reeds_sloane(generate(build_system(*pair)).digits * 2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z4_inputs(0, 6))
def test_reeds_sloane_vs_bruteforce_hypothesis(seq):
    res = reeds_sloane(seq)
    assert res.annihilates and res.length == brute_min_length(seq)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(z4_inputs(1, 40))
def test_reeds_sloane_vs_snf_hypothesis(digits):
    assert reeds_sloane(digits * 2).length == snf_min_length(digits, len(digits))


def same_as_reference(digits):
    return reeds_sloane(digits) == reference_reeds_sloane(digits)


def test_matches_reference_exhaustive():
    for N in range(7):
        for seq in itertools.product(range(4), repeat=N):
            assert same_as_reference(seq), seq


@st.composite
def repeated_periods(draw, max_len):
    period = draw(st.lists(DIGIT, min_size=1, max_size=max_len // 2))
    n = draw(st.integers(len(period), max_len))
    return (period * (n // len(period) + 1))[:n]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(z4_inputs(0, 200), repeated_periods(200)))
def test_matches_reference_hypothesis(digits):
    assert same_as_reference(digits)


@pytest.mark.parametrize("pair", [(5, 13), (13, 17), (5, 29), (37, 5), (5, 113)])
def test_matches_reference_on_paper_sequences(pair):
    assert same_as_reference(generate(build_system(*pair)).digits * 2)


DIGITS = st.lists(DIGIT, max_size=80)


def padded(a, b):
    n = max(len(a), len(b))
    return a + [0] * (n - len(a)), b + [0] * (n - len(b))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(DIGITS, DIGITS)
def test_bit_plane_dot(a, s):
    assert _dot(*_planes(a), *_planes(s)) == sum(map(mul, a, s)) % 4


@settings(max_examples=200, deadline=None, derandomize=True)
@given(DIGITS, DIGITS)
def test_bit_plane_sub(a, b):
    a, b = padded(a, b)
    assert _digits(*_sub(*_planes(a), *_planes(b)), len(a)) == [
        (x - y) % 4 for x, y in zip(a, b)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 3), DIGITS)
def test_bit_plane_scale(t, b):
    assert _digits(*_scale(t, *_planes(b)), len(b)) == [t * x % 4 for x in b]


def test_snf_oracle_on_paper_sequences():
    # periods 65 and 85: the oracle checks the closed form on real pairs
    for pair in [(5, 13), (13, 5), (5, 17), (17, 5)]:
        system = build_system(*pair)
        seq = generate(system)
        assert snf_min_length(seq.digits, system.pq) == lc_by_theorem(system), pair


def test_span_oracle_fixtures():
    assert span_min_length([]) == 0
    assert span_min_length([0] * 300) == 0
    assert span_min_length([3] * 300) == 1
    assert span_min_length([0, 2] * 150) == 2
    assert span_min_length([1] + [0] * 299) == 300  # periodic impulse


def test_span_oracle_on_paper_sequences():
    # every admissible pair with pq <= 1000, with no ring cap: periods 65 to 985
    pairs = admissible_pairs(200, 200, r_max=1000, pq_max=1000)
    assert len(pairs) == 54
    for pair in pairs:
        system = build_system(*pair)
        digits = generate(system).digits
        lc = lc_by_theorem(system)
        assert span_min_length(digits) == lc == reeds_sloane(digits * 2).length, pair


@st.composite
def periods(draw, max_len):
    """One period of T <= max_len digits: uniform, in 2*Z4, or a single spike."""
    T = draw(st.integers(1, max_len))
    kind = draw(st.sampled_from(["uniform", "even", "spike"]))
    if kind != "spike":
        return draw(st.lists(DIGIT if kind == "uniform" else EVEN, min_size=T, max_size=T))
    digits = [draw(DIGIT)] * T  # a constant period with one digit changed
    i = draw(st.integers(0, T - 1))
    digits[i] = (digits[i] + draw(st.integers(1, 3))) % 4
    return digits


@settings(max_examples=25, deadline=None, derandomize=True)
@given(periods(128))
def test_span_oracle_vs_snf_hypothesis(digits):
    assert span_min_length(digits) == snf_min_length(digits, len(digits))


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
    # uniform entries, then even ones: with every pivot 2, the rows below
    # each pivot need their own elimination
    for entries, min_rows, count in ((range(4), 1, 300), ((0, 2), 2, 200)):
        for _ in range(count):
            m = rng.randrange(min_rows, 4)
            k = rng.randrange(1, 4)
            A = [[rng.choice(entries) for _ in range(k)] for _ in range(m)]
            b = [rng.randrange(4) for _ in range(m)]
            brute = any(
                all(sum(A[i][j] * x[j] for j in range(k)) % 4 == b[i] % 4
                    for i in range(m))
                for x in itertools.product(range(4), repeat=k)
            )
            assert solvable_z4(A, b) == brute
