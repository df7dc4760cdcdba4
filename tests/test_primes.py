import random

import pytest

from normgraph.primes import PSI_12, SIEVE_LIMIT, is_prime, prime_factors, primes_up_to


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in known)


def test_is_prime_edge_cases():
    assert not is_prime(-7)
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(2)
    # squares of primes from the witness set
    assert not is_prime(4)
    assert not is_prime(9)
    assert not is_prime(37 * 37)


def test_is_prime_larger():
    assert is_prime(10**9 + 7)
    assert is_prime(10**9 + 9)
    assert not is_prime(10**9 + 8)
    # Carmichael numbers must not fool the deterministic witness set
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745):
        assert not is_prime(n)


def test_primes_up_to_matches_is_prime():
    # the sieve's rows take their primality from this table alone
    ps = primes_up_to(10**5)
    assert list(ps) == [n for n in range(10**5 + 1) if is_prime(n)]
    assert list(primes_up_to(1)) == []
    assert list(primes_up_to(2)) == [2]


def test_primes_up_to_packs_four_bytes_each():
    # the sieve's prime table: the 664,579 primes to 10^7 take 2.7 MB, and
    # as a list of ints they took 24 MB
    ps = primes_up_to(1000)
    assert ps.typecode == "I" and ps.itemsize == 4
    assert len(ps) == 168


def test_is_prime_refuses_psi_12():
    # PSI_12 = 399165290221 * 798330580441 passes all twelve bases
    assert PSI_12 == 399165290221 * 798330580441
    for n in (PSI_12, PSI_12 + 2):
        with pytest.raises(ValueError, match="only below"):
            is_prime(n)


def test_primes_up_to_count():
    # pi(10^5) = 9592
    assert len(primes_up_to(10**5)) == 9592


def test_primes_up_to_refuses_above_its_bound():
    # raised before the limit + 1 byte table is allocated
    with pytest.raises(ValueError, match="sieve bound"):
        primes_up_to(SIEVE_LIMIT + 1)


def test_prime_factors():
    assert prime_factors(2) == [2]
    assert prime_factors(12) == [2, 3]
    assert prime_factors(26244) == [2, 3]
    assert prime_factors(248832) == [2, 3]
    assert prime_factors(97) == [97]
    assert prime_factors(2 * 3 * 5 * 7 * 11) == [2, 3, 5, 7, 11]


def test_prime_factors_reconstruct():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randrange(2, 10**6)
        fs = prime_factors(n)
        assert fs == sorted(set(fs))
        for f in fs:
            assert is_prime(f)
            assert n % f == 0
        m = n
        for f in fs:
            while m % f == 0:
                m //= f
        assert m == 1
