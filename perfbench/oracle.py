"""Independent arithmetic for the benchmark's output checks.

Nothing here imports normgraph: the sieve verdicts are recounted with two
modular exponentiations per prime, so a wrong verdict in the program cannot
also be wrong in its check.
"""

from __future__ import annotations

# First-failure reason classes, in the order the program tests them.
REASONS = ("not_1_mod_3", "two_cube", "three_cube", "six_not_cube", "disc")

# Chebotarev densities among all primes of each class, with qualifying last.
PREDICTED_DENSITY = {
    "not_1_mod_3": 1 / 2,
    "two_cube": 1 / 6,
    "three_cube": 1 / 9,
    "six_not_cube": 1 / 9,
    "qualifying": 1 / 9,
}


def primes_up_to(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return [i for i, f in enumerate(flags) if f]


def sieve_class(p: int) -> str:
    """Reason class of prime p, or "qualifying".

    26244 = 2^2 3^8 and 248832 = 2^10 3^5, so only 2 and 3 divide a
    discriminant.  For p = 1 mod 3 the cube tests are a^((p-1)/3) == 1, and
    6 is a cube exactly when the cube classes of 2 and 3 are inverse."""
    if p in (2, 3):
        return "disc"
    if p % 3 != 1:
        return "not_1_mod_3"
    e = (p - 1) // 3
    two = pow(2, e, p)
    three = pow(3, e, p)
    if two == 1:
        return "two_cube"
    if three == 1:
        return "three_cube"
    if two * three % p != 1:
        return "six_not_cube"
    return "qualifying"


def qualifying_primes(lo: int, hi: int) -> list[int]:
    """Qualifying primes p with lo <= p < hi."""
    return [p for p in primes_up_to(hi - 1) if p >= lo and sieve_class(p) == "qualifying"]
