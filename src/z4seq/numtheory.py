"""Exact integer arithmetic: primality, factoring, orders, primitive roots, CRT.

All routines operate on plain Python ints of any size.  `is_prime` is
deterministic below 3.3e24 (about 2**81): that covers every cofactor met in
factoring the group orders 2**r - 1 for r <= 81, and so the default ring cap
of 64.  Above it, it is a strong probable-prime test to twelve fixed bases.
"""

import math

from .errors import NoCommonRoot, NotCoprime

# Default cap on the Galois-ring degree ord_2(pq).  It lives here so the CLI
# can state it before any ring code is loaded.
R_MAX = 64

# The trial divisors of `is_prime`, and its witness set, which proves
# compositeness deterministically for all n < 3.3e24.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first twelve prime bases; deterministic for n < 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of an odd composite n (Brent's cycle variant)."""
    import random  # most group orders factor by trial division alone

    rng = random.Random(0xC0FFEE ^ n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent} of n >= 1."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 7
    # wheel over residues coprime to 30
    steps = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d < 100_000:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += steps[i]
        i = (i + 1) % 8
    if n == 1:
        return factors
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        f = _pollard_brent(m)
        stack.append(f)
        stack.append(m // f)
    return factors


def euler_phi(n: int) -> int:
    """Euler totient via factorization."""
    phi = 1
    for p, k in factorize(n).items():
        phi *= (p - 1) * p ** (k - 1)
    return phi


def mult_order(a: int, n: int) -> int:
    """Smallest k >= 1 with a**k = 1 (mod n).

    Raises NotCoprime when gcd(a, n) != 1.
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    a %= n
    if math.gcd(a, n) != 1:
        raise NotCoprime(f"gcd({a}, {n}) != 1")
    k = euler_phi(n)
    for p in factorize(k):
        while k % p == 0 and pow(a, k // p, n) == 1:
            k //= p
    return k


def is_primitive_root(g: int, p: int, factors=None) -> bool:
    """True iff g generates the unit group mod prime p."""
    if g % p == 0:
        return False
    if factors is None:
        factors = factorize(p - 1)
    return all(pow(g, (p - 1) // f, p) != 1 for f in factors)


def common_primitive_root(p: int, q: int) -> int:
    """Smallest g that is a primitive root modulo both p and q."""
    fp = factorize(p - 1)
    fq = factorize(q - 1)
    for g in range(2, p * q):
        if is_primitive_root(g, p, fp) and is_primitive_root(g, q, fq):
            return g
    raise NoCommonRoot(f"no common primitive root below pq for ({p}, {q})")


def crt_pair(a: int, p: int, b: int, q: int) -> int:
    """The unique x in [0, pq) with x = a (mod p) and x = b (mod q)."""
    t = (b - a) * pow(p, -1, q) % q
    return (a + p * t) % (p * q)
