import math
import random

import pytest

from z4seq import numtheory
from z4seq.errors import NotCoprime
from z4seq.numtheory import (
    common_primitive_root,
    crt_pair,
    euler_phi,
    factorize,
    is_prime,
    mult_order,
)


def trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def naive_order(a, n):
    x = a % n
    k = 1
    while x != 1:
        x = x * a % n
        k += 1
    return k


def brute_is_primitive_root(g, p):
    return len({pow(g, k, p) for k in range(1, p)}) == p - 1


def test_is_prime_edges():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(65)  # trial division: 5 * 13


def test_is_prime_vs_trial_division():
    for n in range(1, 2000):
        assert is_prime(n) == trial_division_prime(n), n


def test_is_prime_larger():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**29 - 1)  # 233 * 1103 * 2089


def test_mult_order_fixtures():
    assert mult_order(2, 5) == 4
    assert mult_order(2, 13) == 12
    for n in (5, 13, 65, 221):
        assert mult_order(1, n) == 1


def test_mult_order_vs_naive():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2, 500)
        a = rng.randrange(1, n)
        if math.gcd(a, n) != 1:
            continue
        assert mult_order(a, n) == naive_order(a, n)


def test_mult_order_not_coprime():
    with pytest.raises(NotCoprime):
        mult_order(10, 65)


def test_order_divides_phi():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(3, 400)
        a = rng.randrange(2, n)
        if math.gcd(a, n) != 1:
            continue
        assert euler_phi(n) % mult_order(a, n) == 0


def test_common_primitive_root_fixtures():
    assert common_primitive_root(5, 13) == 2
    # 2 has order 8 mod 17, so the common root of (5, 17) moves up to 3
    assert not brute_is_primitive_root(2, 17)
    assert common_primitive_root(5, 17) == 3
    assert common_primitive_root(13, 17) == 6


def test_common_primitive_root_brute():
    for p, q in [(5, 13), (5, 17), (13, 17), (5, 29)]:
        g = common_primitive_root(p, q)
        assert brute_is_primitive_root(g, p)
        assert brute_is_primitive_root(g, q)
        for smaller in range(2, g):
            assert not (brute_is_primitive_root(smaller, p)
                        and brute_is_primitive_root(smaller, q))


def test_common_root_order_identity():
    for p, q in [(5, 13), (5, 17), (13, 17)]:
        g = common_primitive_root(p, q)
        assert mult_order(g, p) == p - 1
        assert mult_order(g, q) == q - 1
        expected = (p - 1) * (q - 1) // math.gcd(p - 1, q - 1)
        assert mult_order(g, p * q) == expected


def test_crt_pair():
    assert crt_pair(2, 5, 1, 13) == 27
    assert crt_pair(0, 5, 0, 13) == 0
    for a in range(5):
        assert crt_pair(a, 5, a, 13) == a
    rng = random.Random(3)
    for _ in range(50):
        a, b = rng.randrange(5), rng.randrange(13)
        x = crt_pair(a, 5, b, 13)
        assert 0 <= x < 65 and x % 5 == a and x % 13 == b


def test_factorize_reconstructs():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randrange(2, 10**9)
        fac = factorize(n)
        prod = 1
        for p, k in fac.items():
            assert is_prime(p)
            prod *= p**k
        assert prod == n


def test_factorize_mersenne():
    assert factorize(2**12 - 1) == {3: 2, 5: 1, 7: 1, 13: 1}
    assert set(factorize(2**28 - 1)) == {3, 5, 29, 43, 113, 127}


def test_factorize_splits_by_pollard_brent(monkeypatch):
    # 2^59 - 1 and 2^67 - 1 have no factor below the trial-division bound of
    # 10^5, so Pollard-Brent splits them; 2^83 - 1 leaves a prime cofactor
    split = numtheory._pollard_brent
    calls = []
    monkeypatch.setattr(numtheory, "_pollard_brent", lambda n: calls.append(n) or split(n))
    assert factorize(2**59 - 1) == {179951: 1, 3203431780337: 1}
    assert factorize(2**67 - 1) == {193707721: 1, 761838257287: 1}
    assert factorize(2**83 - 1) == {167: 1, 57912614113275649087721: 1}
    assert calls == [2**59 - 1, 2**67 - 1]


def test_euler_phi_small():
    def brute_phi(n):
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    for n in range(1, 200):
        assert euler_phi(n) == brute_phi(n)
