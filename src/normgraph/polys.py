"""Scalars of F_p, and univariate polynomial algebra over F_p, extension
fields and the integers.

Polynomials are dense little-endian coefficient lists.  The zero polynomial
is the empty list; all functions keep coefficients canonical (reduced mod p,
no trailing zeros).
"""

from __future__ import annotations

import math
import operator
import random
from itertools import zip_longest
from typing import TYPE_CHECKING

from .primes import prime_factors

if TYPE_CHECKING:
    from .ff import ExtElement, ExtField

# splitting gives up after this many seeded attempts on the way to one root;
# on valid input with n roots that has probability about n^2 * 2^-64, so
# hitting it means the caller's splitting precondition is wrong
_SPLIT_ATTEMPTS = 64


def fp_pow(a: int, e: int, p: int) -> int:
    """a**e mod p.  Convention: 0**0 == 1.  Negative e inverts first."""
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    return pow(a % p, e, p)


def fp_inv(a: int, p: int) -> int:
    """Multiplicative inverse of a mod prime p."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    return pow(a, -1, p)


def poly_trim(h: list[int]) -> list[int]:
    h = list(h)
    while h and h[-1] == 0:
        h.pop()
    return h


def _norm(h, p: int) -> list[int]:
    h = [c % p for c in h]
    while h and h[-1] == 0:
        h.pop()
    return h


def poly_eval(h, x: int, p: int) -> int:
    """Horner evaluation of h at x over F_p."""
    acc = 0
    for c in reversed(list(h)):
        acc = (acc * x + c) % p
    return acc


def eval_in_ext(h, x: ExtElement, F: ExtField) -> ExtElement:
    """Evaluate h (coefficients over F_p) at an extension element."""
    acc = F.zero
    for c in reversed(list(h)):
        acc = F.mul(acc, x)
        if c % F.p:
            acc = F.add(acc, F.from_base(c))
    return acc


def poly_sub(a, b, p: int) -> list[int]:
    return poly_trim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def poly_divmod(a, b, p: int) -> tuple[list[int], list[int]]:
    a, b = _norm(a, p), _norm(b, p)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return [], a
    inv_lead = fp_inv(b[-1], p)
    rem = a[:]
    q = [0] * (len(a) - len(b) + 1)
    for d in range(len(a) - len(b), -1, -1):
        c = rem[d + len(b) - 1] * inv_lead % p
        if c:
            q[d] = c
            for j, bj in enumerate(b):
                rem[d + j] = (rem[d + j] - c * bj) % p
    return poly_trim(q), poly_trim(rem)


def poly_monic(h, p: int) -> list[int]:
    h = _norm(h, p)
    if not h or h[-1] == 1:
        return h
    inv_lead = fp_inv(h[-1], p)
    return [c * inv_lead % p for c in h]


def poly_gcd(a, b, p: int) -> list[int]:
    """Monic gcd over F_p; poly_gcd(h, 0) is monic(h)."""
    a, b = _norm(a, p), _norm(b, p)
    while b:
        a, b = b, poly_divmod(a, b, p)[1]
    return poly_monic(a, p)


def mulmod(a, b, mod, p: int) -> tuple[int, ...]:
    """a*b mod the monic mod of degree k >= 1 over F_p, irreducible or not.
    a and b hold k coefficients each, as ints that may be unreduced or
    negative; the product is k reduced coefficients."""
    k = len(mod) - 1
    if k == 3:
        # written out: a call per product costs more than the arithmetic,
        # and root extraction in GF(p^3) is made of these products
        a0, a1, a2 = a
        b0, b1, b2 = b
        f0, f1, f2, _ = mod
        d4 = a2 * b2 % p
        d3 = (a1 * b2 + a2 * b1 - d4 * f2) % p
        d2 = a0 * b2 + a1 * b1 + a2 * b0 - d4 * f1 - d3 * f2
        d1 = a0 * b1 + a1 * b0 - d4 * f0 - d3 * f1
        return ((a0 * b0 - d3 * f0) % p, d1 % p, d2 % p)
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    # reduce x^(k+d) via the monic modulus, top down
    for d in range(2 * k - 2, k - 1, -1):
        c = prod[d] % p
        if c:
            for j in range(k):
                prod[d - k + j] -= c * mod[j]
    return tuple(c % p for c in prod[:k])


def powmod(a, e: int, mod, p: int) -> tuple[int, ...]:
    """a^e mod the monic mod over F_p for e >= 0, with a as in mulmod: left
    to right, so every multiply is by a."""
    r = (1,) + (0,) * (len(mod) - 2)
    for bit in bin(e)[2:]:
        r = mulmod(r, r, mod, p)
        if bit == "1":
            r = mulmod(r, a, mod, p)
    return r


def _cubic_pow_mod(e: int, h, p: int) -> tuple[int, int, int]:
    """x^e mod the monic cubic h over F_p, as three reduced coefficients.
    Left to right from x itself, the leading bit of e, so every multiply is
    by x: a shift plus one fold of x^3.  With x^3 == r0 + r1*x + r2*x^2,
    r_i = -h_i, a square's x^4 term is folded into x^3 (x^4 == r0*x +
    r1*x^2 + r2*x^3) and x^3 into the three low terms, so the power stays
    on three coefficients and nothing is trimmed or long-divided inside the
    loop.  The square is written out because a call per product costs more
    than the arithmetic."""
    if not e:
        return 1, 0, 0
    r0, r1, r2 = -h[0] % p, -h[1] % p, -h[2] % p
    c0, c1, c2 = 0, 1, 0
    for bit in bin(e)[3:]:
        d4 = c2 * c2 % p
        d3 = (2 * c1 * c2 + d4 * r2) % p
        d2 = 2 * c0 * c2 + c1 * c1 + d4 * r1
        d1 = 2 * c0 * c1 + d4 * r0
        c0 = (c0 * c0 + d3 * r0) % p
        c1 = (d1 + d3 * r1) % p
        c2 = (d2 + d3 * r2) % p
        if bit == "1":
            c0, c1, c2 = c2 * r0 % p, (c0 + c2 * r1) % p, (c1 + c2 * r2) % p
    return c0, c1, c2


def poly_pow_mod(base, e: int, h, p: int) -> list[int]:
    """base^e mod h over F_p, as the canonical remainder.

    h is made monic and need not be irreducible.  x^e mod a cubic whose
    leading coefficient is 1 mod p, with x given as [0, 1], goes straight
    to _cubic_pow_mod before h is normalised or the base divided; every
    other power is powmod on base's remainder mod the monic h.
    """
    if e < 0:
        raise ValueError("negative exponent")
    if base == [0, 1] and len(h) == 4 and h[3] % p == 1:
        return poly_trim(_cubic_pow_mod(e, h, p))
    h = poly_monic(h, p)
    k = len(h) - 1
    base = poly_divmod(base, h, p)[1]  # raises ZeroDivisionError on h == 0
    if k == 0:  # every remainder mod a unit is 0, but base^0 stays [1]
        return [] if e else [1]
    return poly_trim(powmod(base + [0] * (k - len(base)), e, h, p))


def frobenius_matrix(h, p: int) -> list[tuple[int, ...]]:
    """The p-power map of F_p[x]/(h), for monic h of degree k, as a k x k
    matrix: row j holds coefficient j of each x^(ip) mod h, i < k, so that
    u^p, the image of u = sum u_i x^i, is the matrix times u's coefficients
    (u(x)^p == u(x^p) mod p).  Column i is column i - 1 times x^p."""
    k = len(h) - 1
    xp = poly_pow_mod([0, 1], p, h, p)
    xp += [0] * (k - len(xp))
    cols = [(1,) + (0,) * (k - 1)]
    for _ in range(k - 1):
        cols.append(mulmod(cols[-1], xp, h, p))
    return list(zip(*cols))


def resultant(f, g, p: int) -> int:
    """Res(f, g) over F_p for canonical f and g.  It is nonzero iff gcd(f, g)
    = 1, and for monic f it is the product of g over f's roots, which is the
    determinant of u -> g*u on F_p[x]/(f).

    For f a monic cubic and deg g < 3 (the cubic irreducibility test and
    the norm in GF(p^3)) it is that 3 x 3 determinant, whose rows are g,
    x*g and x^2*g mod f, each the last times x.  Every other pair goes by
    Euclid (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 6):
    with n = deg f, m = deg g and l = deg(f mod g), Res(f, g) = (-1)^(nm)
    lc(g)^(n-l) Res(g, f mod g), Res(f, c) = c^n for a constant c, and 0
    once g or a remainder vanishes.  Remainders are taken in place on
    canonical lists."""
    if not f or not g:
        return 0
    if len(f) == 4 and f[3] == 1 and len(g) < 4:
        r0, r1, r2 = -f[0], -f[1], -f[2]  # x^3 == r0 + r1*x + r2*x^2
        a0, a1, a2 = (*g, 0, 0)[:3]
        b0, b1, b2 = a2 * r0 % p, (a0 + a2 * r1) % p, (a1 + a2 * r2) % p
        c0, c1, c2 = b2 * r0, b0 + b2 * r1, b1 + b2 * r2
        return (a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0)
                + a2 * (b0 * c1 - b1 * c0)) % p
    res, a, b = 1, f, g
    while len(b) > 1:
        lead, n, m = b[-1], len(a) - 1, len(b) - 1
        inv_lead = pow(lead, -1, p)
        r = list(a)
        for d in range(n, m - 1, -1):
            c = r[d] * inv_lead % p
            if c:
                for j in range(m):
                    r[d - m + j] = (r[d - m + j] - c * b[j]) % p
        del r[m:]
        while r and not r[-1]:
            r.pop()
        if not r:
            return 0
        # every exponent is at most max(deg f, deg g), so ** beats a pow call
        res = res * lead ** (n - len(r) + 1) % p
        if n & m & 1:
            res = -res
        a, b = b, r
    return res * b[0] ** (len(a) - 1) % p


def is_irreducible(h, p: int) -> bool:
    """Irreducibility test over F_p.

    A cubic is irreducible iff it has no root in F_p, iff it is coprime to
    x^p - x (the product of all x - a over F_p), iff Res(h, x^p - x) != 0:
    one _cubic_pow_mod on the monic h and one resultant, which for a cubic
    is a 3 x 3 determinant.  Any other degree d >= 2 takes the
    distinct-degree test: h is irreducible iff x^(p^d) == x mod h and
    Res(h, x^(p^(d/l)) - x) != 0 for every prime l dividing d, each
    resultant by Euclid and each x^(p^i) one product by the Frobenius
    matrix of F_p[x]/(h).  h is normalised once and scaled only when not
    monic.
    """
    h = poly_monic(h, p)
    d = len(h) - 1
    if d < 1:
        raise ValueError("irreducibility is only defined for degree >= 1")
    if d == 1:
        return True
    if d == 3:  # x^p - x by editing coefficient 1 of x^p mod h
        c0, c1, c2 = _cubic_pow_mod(p, h, p)
        return resultant(h, poly_trim([c0, (c1 - 1) % p, c2]), p) != 0
    x = [0, 1]
    frob = frobenius_matrix(h, p)
    powers = [x]  # powers[i] = x^(p^i) mod h
    for _ in range(d):
        u = powers[-1] + [0] * (d - len(powers[-1]))
        powers.append(poly_trim([sum(map(operator.mul, row, u)) % p for row in frob]))
    if powers[d] != x:
        return False
    return all(resultant(h, poly_sub(powers[d // ell], x, p), p) for ell in prime_factors(d))


# -- polynomials with extension-field coefficients (for root extraction) --


def _ext_trim(h: list[ExtElement], F: ExtField) -> list[ExtElement]:
    h = list(h)
    while h and h[-1] == F.zero:
        h.pop()
    return h


def _ext_divmod(a, b, F: ExtField):
    """Quotient and remainder of trimmed a by trimmed nonzero b over F."""
    p, mod = F.p, F.modulus
    inv_lead = F.one if b[-1] == F.one else F.inv(b[-1])
    rem, q = a[:], [F.zero] * (len(a) - len(b) + 1)
    for d in range(len(a) - len(b), -1, -1):
        c = mulmod(rem[d + len(b) - 1], inv_lead, mod, p)
        if c != F.zero:
            q[d] = c
            for j, bj in enumerate(b):
                rem[d + j] = F.sub(rem[d + j], mulmod(c, bj, mod, p))
    return q, _ext_trim(rem, F)


def _ext_monic(h, F: ExtField) -> list[ExtElement]:
    if not h or h[-1] == F.one:
        return h
    inv_lead = F.inv(h[-1])
    return [mulmod(c, inv_lead, F.modulus, F.p) for c in h]


def _ext_gcd(a, b, F: ExtField) -> list[ExtElement]:
    """Monic gcd of trimmed a and b over F."""
    while b:
        a, b = b, _ext_divmod(a, b, F)[1]
    return _ext_monic(a, F)


def _norm_selector(h, F: ExtField):
    """For h monic over F_p of degree n >= 2 that splits into distinct
    linears over F (odd p), the map delta -> s in F[y], deg s < n, with
    s(b) == 0 exactly at the roots b of h where (b + delta)^((|F|-1)/2) == 1.

    That power is N(b + delta)^((p-1)/2), and the norm is the value at b of
    Q = prod_{i<k} (Y_i + delta^(p^i)) mod h, where Y_i = y^(p^i) mod h
    comes from h's Frobenius matrix over F_p and Y_i(b) = b^(p^i).  As Q
    takes values in F_p at the roots, its minimal polynomial mu, the first
    F_p-linear dependency among Q^0, ..., Q^n, lies in F_p[X], and s =
    nu(Q) for nu = gcd(mu, X^((p-1)/2) - 1) over F_p.  Without a dependency
    h does not split, and ValueError is raised."""
    p, k, n, mod = F.p, F.k, len(h) - 1, F.modulus
    fold = [(j, c) for j, c in enumerate(h[:-1]) if c]
    frob = frobenius_matrix(h, p)
    times_y = []  # rows of the F_p matrices of u -> u * Y_i mod h, 0 < i < k
    col = [0, 1] + [0] * (n - 2)
    for _ in range(k - 1):
        col = [sum(map(operator.mul, row, col)) % p for row in frob]
        cols = [col]
        for _ in range(n - 1):
            top = cols[-1][-1]
            cols.append([(x - top * c) % p for x, c in zip([0] + cols[-1][:-1], h)])
        times_y.append(list(zip(*cols)))

    def times(a, b):
        s = [[0] * k for _ in range(2 * n - 1)]
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                s[i + j] = [x + y for x, y in zip(s[i + j], mulmod(ai, bj, mod, p))]
        for d in range(2 * n - 2, n - 1, -1):
            for j, c in fold:
                s[d - n + j] = [x - c * y for x, y in zip(s[d - n + j], s[d])]
        return [tuple(x % p for x in c) for c in s[:n]]

    def select(delta):
        q, conj = [delta, F.one] + [F.zero] * (n - 2), delta
        for rows in times_y:  # q * (Y_i + delta^(p^i))
            conj, coords = F.frobenius(conj), list(zip(*q))
            q = [tuple((sum(map(operator.mul, row, c)) + x) % p
                       for c, x in zip(coords, mulmod(conj, a, mod, p)))
                 for row, a in zip(rows, q)]
        powers, basis = [[F.one] + [F.zero] * (n - 1)], []
        for d in range(n + 1):
            if d:
                powers.append(times(powers[-1], q))
            v, mu = [x for c in powers[d] for x in c], [0] * d + [1] + [0] * (n - d)
            for pivot, row, combo in basis:
                f = v[pivot]
                if f:
                    v = [(x - f * y) % p for x, y in zip(v, row)]
                    mu = [(x - f * y) % p for x, y in zip(mu, combo)]
            pivot = next((i for i, x in enumerate(v) if x), None)
            if pivot is None:
                break
            inv = pow(v[pivot], -1, p)
            basis.append((pivot, [x * inv % p for x in v], [x * inv % p for x in mu]))
        else:
            raise ValueError("input does not split into linears over the field")
        mu = mu[:d + 1]
        nu = poly_gcd(mu, poly_sub(poly_pow_mod([0, 1], (p - 1) // 2, mu, p), [1], p), p)
        return _ext_trim([tuple(sum(c * u[t] for c, u in zip(nu, coeffs)) % p for t in range(k))
                          for coeffs in zip(*powers)], F)

    return select


def find_root_in_ext(h, F: ExtField, seed: int) -> ExtElement:
    """One root of h (over F_p) inside F, by seeded equal-degree splitting
    (Cantor-Zassenhaus, Math. Comp. 36, 1981) of h made monic: the roots b
    with b + delta a nonzero square are the zeros of s = select(delta) from
    _norm_selector, so gcd(w, s) splits the current factor w about half the
    time for delta drawn as F.element_from_index(rng.randrange(|F|)).  Each
    split keeps the smaller factor, down to a linear one.  The caller
    guarantees h splits into distinct linear factors over F (h irreducible
    over F_p with degree dividing F.k); input that does not raises
    ValueError and signals a precondition bug.  Deterministic given (h, F,
    seed); the root is checked by evaluation."""
    if F.p == 2:
        raise ValueError("splitting requires odd characteristic")
    monic = poly_monic(h, F.p)
    if len(monic) < 2:
        raise ValueError("root extraction needs degree >= 1")
    rng = random.Random(seed)
    w = [F.from_base(c) for c in monic]
    select = _norm_selector(monic, F) if len(w) > 2 else None
    attempts = 0
    while len(w) > 2:
        if attempts >= _SPLIT_ATTEMPTS:
            raise ValueError(
                "splitting did not terminate; input does not split into linears over the field"
            )
        attempts += 1
        s = select(F.element_from_index(rng.randrange(F.order())))
        if len(s) < 2:  # 0 or a unit: b + delta is a square at every root or at none
            continue
        g = _ext_gcd(w, s, F)
        if 1 < len(g) < len(w):
            other = _ext_divmod(w, g, F)[0]
            w = g if len(g) <= len(other) else other
    root = F.neg(w[0])
    if eval_in_ext(h, root, F) != F.zero:
        raise AssertionError("extracted root fails to satisfy the polynomial")
    return root


# -- residues and roots of unity ------------------------------------------


def power_residue(a: int, m: int, p: int) -> bool:
    """True iff a is an m-th power in F_p*, by a^((p-1)/gcd(m, p-1)) == 1."""
    a %= p
    if a == 0:
        raise ValueError("power residue is defined on nonzero elements")
    d = math.gcd(m, p - 1)
    return fp_pow(a, (p - 1) // d, p) == 1


def _smooth_subgroup(m: int, p: int) -> tuple[int, int, list[int]]:
    # (g, s, primes of m) for m | p - 1: s is the largest divisor of p - 1
    # whose primes all divide m, and g, the first a^((p-1)/s) for a = 1, 2,
    # ... of order exactly s, generates the order-s subgroup of F_p^*
    factors = prime_factors(m)
    q = p - 1
    for ell in factors:
        while q % ell == 0:
            q //= ell
    s = (p - 1) // q
    g = next(g for g in (pow(a, q, p) for a in range(1, p))
             if all(pow(g, s // ell, p) != 1 for ell in factors))
    return g, s, factors


def roots_in_base(m: int, c: int, p: int) -> tuple[int, ...]:
    """The m distinct roots of x^m - c in F_p, ascending, for m | p - 1 and
    c a nonzero m-th power; ValueError otherwise.

    With p - 1 = s*q as in _smooth_subgroup, gcd(m, q) = 1, so theta =
    c^(m^-1 mod q) leaves c / theta^m in the order-s subgroup <g>.  Its
    discrete log there, found by Pohlig-Hellman one prime digit at a time,
    is a multiple x of m, so theta * g^(x/m) is an m-th root of c
    (Adleman-Manders-Miller, 1977) and the others are it times the powers
    of g^(s/m).  Only m is factored, never p - 1.  Every root is checked by
    evaluation."""
    c %= p
    if m < 1 or (p - 1) % m or not c or pow(c, (p - 1) // m, p) != 1:
        raise ValueError(f"x^{m} - {c} does not split into distinct linears mod {p}")
    g, s, factors = _smooth_subgroup(m, p)
    theta = pow(c, pow(m, -1, (p - 1) // s), p)
    eps = c * pow(theta, -m, p) % p
    x, n = 0, 1  # eps == g^x on the subgroup of order n
    for ell in factors:
        gamma = pow(g, s // ell, p)  # of order ell
        logs = {pow(gamma, d, p): d for d in range(ell)}
        while s // n % ell == 0:
            x += logs[pow(eps * pow(g, -x, p), s // (n * ell), p)] * n
            n *= ell
    root, zeta = theta * pow(g, x // m, p) % p, pow(g, s // m, p)
    roots = [root]
    for _ in range(m - 1):
        roots.append(roots[-1] * zeta % p)
    if len(set(roots)) != m or any(pow(r, m, p) != c for r in roots):
        raise AssertionError(f"x^{m} - {c} did not split into {m} distinct roots mod {p}")
    return tuple(sorted(roots))


def primitive_nth_root(n: int, p: int) -> int | None:
    """Smallest element of F_p* with multiplicative order exactly n, or None
    when n does not divide p - 1: with g and s from _smooth_subgroup, zeta =
    g^(s/n) has order n, and the elements of order n are zeta^j for
    gcd(j, n) = 1."""
    if n < 1:
        raise ValueError("order must be positive")
    if (p - 1) % n != 0:
        return None
    g, s, _ = _smooth_subgroup(n, p)
    zeta = pow(g, s // n, p)
    return min(pow(zeta, j, p) for j in range(1, n + 1) if math.gcd(j, n) == 1)


# -- exact integer resultants and discriminants ----------------------------


def int_poly_mul(a, b) -> list[int]:
    a, b = poly_trim(a), poly_trim(b)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return poly_trim(out)


def int_resultant(a, b) -> int:
    """Resultant of integer polynomials: the determinant of their Sylvester
    matrix by Bareiss's fraction-free elimination (Math. Comp. 22, 1968),
    in which every division is exact."""
    a, b = poly_trim(a), poly_trim(b)
    if not a or not b:
        raise ValueError("resultant of the zero polynomial is not defined here")
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    rows = [[0] * i + a[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + b[::-1] + [0] * (m - 1 - i) for i in range(m)]
    sign, prev = 1, 1  # two constants: the empty determinant
    for k in range(size):
        pivot = next((i for i in range(k, size) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        lead, top = rows[k][k], rows[k][k + 1 :]
        for row in rows[k + 1 :]:
            row[k + 1 :] = [(lead * x - row[k] * y) // prev for x, y in zip(row[k + 1 :], top)]
        prev = lead
    return sign * prev


def discriminant(h) -> int:
    """Discriminant of an integer polynomial of degree >= 2:
    (-1)^(d(d-1)/2) * Res(h, h') / lc(h), all exact."""
    h = poly_trim(h)
    d = len(h) - 1
    if d < 2:
        raise ValueError("discriminant needs degree >= 2")
    deriv = poly_trim([c * i for i, c in enumerate(h)][1:])
    r, rem = divmod(int_resultant(h, deriv), h[-1])
    if rem:
        raise AssertionError("discriminant division was not exact")
    return (-1) ** (d * (d - 1) // 2) * r
