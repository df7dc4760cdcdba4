"""Exact arithmetic in extensions GF(p^k) of prime fields.  The F_p
scalars fp_pow and fp_inv live in polys and are re-exported here.

Extension elements are plain tuples of k ints (coefficients of
1, x, ..., x^(k-1), little-endian) reduced mod p.  All arithmetic is
exact integer arithmetic; nothing here floats.

Frobenius a -> a^p is F_p-linear: each field keeps its matrix
(polys.frobenius_matrix), the columns x^(ip) mod the modulus for i < k, so
one map is k^2 scalar products.
"""

from __future__ import annotations

import operator

from .polys import (fp_inv, fp_pow, frobenius_matrix, is_irreducible, mulmod, poly_trim, powmod,
                    resultant)
from .primes import is_prime

ExtElement = tuple[int, ...]

# elements() refuses to enumerate fields beyond this many elements
_ENUM_LIMIT = 2**40

__all__ = ["ExtElement", "ExtField", "fp_inv", "fp_pow"]


class ExtField:
    """GF(p^k) presented as F_p[x] / (modulus).

    The modulus must be monic of degree k and irreducible mod p; the
    constructor verifies all three (irreducibility by polys.is_irreducible).
    Products and powers are polys.mulmod and polys.powmod on the modulus.
    """

    def __init__(self, p: int, k: int, modulus: list[int] | tuple[int, ...]):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if k < 1:
            raise ValueError(f"extension degree must be >= 1, got {k}")
        mod = tuple(c % p for c in modulus)
        if len(mod) != k + 1 or mod[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {k}")
        if not is_irreducible(mod, p):
            raise ValueError("modulus is not irreducible")
        self.p = p
        self.k = k
        self.modulus = mod
        self.zero: ExtElement = (0,) * k
        self.one: ExtElement = (1,) + (0,) * (k - 1)
        # class of x; in a degree-1 field x reduces to the constant -mod[0]
        if k == 1:
            self.gen: ExtElement = ((-mod[0]) % p,)
        else:
            self.gen = (0, 1) + (0,) * (k - 2)
        self._frob = frobenius_matrix(mod, p)

    # -- construction -----------------------------------------------------

    def from_base(self, c: int) -> ExtElement:
        return (c % self.p,) + (0,) * (self.k - 1)

    # -- ring operations ------------------------------------------------

    def add(self, a: ExtElement, b: ExtElement) -> ExtElement:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a: ExtElement, b: ExtElement) -> ExtElement:
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a: ExtElement) -> ExtElement:
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a: ExtElement, b: ExtElement) -> ExtElement:
        """a*b; the ints of a and b may be unreduced or negative."""
        return mulmod(a, b, self.modulus, self.p)

    def pow(self, a: ExtElement, e: int) -> ExtElement:
        if e < 0:
            a, e = self.inv(a), -e
        return powmod(a, e, self.modulus, self.p)

    def inv(self, a: ExtElement) -> ExtElement:
        """Inverse from the norm: a times its other conjugates
        a^p * ... * a^(p^(k-1)) is N(a), a nonzero element of F_p, so that
        product scaled by N(a)^(-1) is a^(-1)."""
        if a == self.zero:
            raise ZeroDivisionError("0 has no inverse")
        rest = self._times_conjugates(self.one, a)
        n = self.mul(a, rest)
        if any(n[1:]):
            raise AssertionError("conjugate product did not land in the base field")
        c = fp_inv(n[0], self.p)
        return tuple(x * c % self.p for x in rest)

    # -- field structure -------------------------------------------------

    def frobenius(self, a: ExtElement) -> ExtElement:
        """a^p = sum of a_i * x^(ip), since a(x)^p == a(x^p) mod p: the
        Frobenius matrix times a's coefficients."""
        p = self.p
        return tuple(sum(map(operator.mul, row, a)) % p for row in self._frob)

    def _times_conjugates(self, acc: ExtElement, a: ExtElement) -> ExtElement:
        """acc * a^p * a^(p^2) * ... * a^(p^(k-1)); with acc = a, the norm."""
        conj = a
        for _ in range(self.k - 1):
            conj = self.frobenius(conj)
            acc = self.mul(acc, conj)
        return acc

    def norm_conj(self, a: ExtElement) -> int:
        """Norm to F_p as the product of the k Frobenius conjugates."""
        acc = self._times_conjugates(a, a)
        if any(acc[1:]):
            raise AssertionError("conjugate product did not land in the base field")
        return acc[0]

    def norm_det(self, a: ExtElement) -> int:
        """Norm to F_p as det of the multiplication-by-a matrix, which for
        the monic modulus m is Res(m, a) on the coefficient lists, with no
        field product, Frobenius or inverse: that 3 x 3 determinant written
        out at k = 3, Euclid over F_p at every other k."""
        return resultant(self.modulus, poly_trim(a), self.p)

    def norm_pow(self, a: ExtElement) -> int:
        """Norm to F_p as a^((p^k - 1)/(p - 1))."""
        if a == self.zero:
            return 0
        e = (self.p**self.k - 1) // (self.p - 1)
        v = self.pow(a, e)
        if any(v[1:]):
            raise AssertionError("norm power did not land in the base field")
        return v[0]

    def norm(self, a: ExtElement) -> int:
        """Norm to F_p, computed by two independent routes that must agree."""
        n1 = self.norm_conj(a)
        n2 = self.norm_det(a)
        if n1 != n2:
            raise AssertionError(f"norm mismatch: conjugate product {n1} vs determinant {n2}")
        return n1

    # -- enumeration --------------------------------------------------------

    def order(self) -> int:
        return self.p**self.k

    def index(self, a: ExtElement) -> int:
        """Bijection onto 0..p^k-1: sum of c_i * p^i."""
        n = 0
        for c in reversed(a):
            n = n * self.p + c
        return n

    def element_from_index(self, n: int) -> ExtElement:
        if not 0 <= n < self.order():
            raise ValueError(f"index {n} out of range for a field of order {self.order()}")
        out = []
        for _ in range(self.k):
            out.append(n % self.p)
            n //= self.p
        return tuple(out)

    def elements(self):
        """Yield every element in index order.  Refuses fields above 2^40."""
        if self.order() > _ENUM_LIMIT:
            raise ValueError(f"field of order {self.order()} is too large to enumerate")
        for n in range(self.order()):
            yield self.element_from_index(n)

    def __repr__(self) -> str:
        return f"ExtField(p={self.p}, k={self.k}, modulus={list(self.modulus)})"
