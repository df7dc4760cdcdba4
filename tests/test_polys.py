import itertools
import math
import random
from functools import reduce

import pytest

from normgraph import polys
from normgraph.ff import ExtField
from normgraph.general import shifted_poly
from normgraph.graph import _smallest_irreducible
from normgraph.k46 import QualifyingCertificate, is_qualifying_prime
from normgraph.polys import (
    _cubic_pow_mod,
    _ext_divmod,
    _ext_gcd,
    _norm_selector,
    discriminant,
    eval_in_ext,
    find_root_in_ext,
    frobenius_matrix,
    int_poly_mul,
    int_resultant,
    is_irreducible,
    mulmod,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_monic,
    poly_pow_mod,
    poly_sub,
    poly_trim,
    power_residue,
    powmod,
    primitive_nth_root,
    resultant,
    roots_in_base,
)
from normgraph.primes import prime_factors, primes_up_to


def mul_mod_p(a, b, p):
    """a*b over F_p: the integer product reduced mod p, a reference that
    never goes through mulmod."""
    return poly_trim([c % p for c in int_poly_mul(a, b)])


# the cubic whose roots parametrize half the K_{4,6} witness
WITNESS_CUBIC = [7, 3, 21, 1]


def poly_deriv(h, p):
    return poly_trim([c * i % p for i, c in enumerate(h)][1:])


def scan_roots(h, p):
    """Reference: every root of h in F_p by exhaustive scan, mapped to the
    repeated-root flag."""
    h = poly_trim([c % p for c in h])
    sq = poly_gcd(h, poly_deriv(h, p), p)
    return {x: poly_eval(sq, x, p) == 0 for x in range(p) if poly_eval(h, x, p) == 0}


def gcd_coprime(h, p):
    """Reference: h coprime to x^p - x, by the generic poly_gcd."""
    xp = poly_pow_mod([0, 1], p, h, p)
    return len(poly_gcd(poly_sub(xp, [0, 1], p), h, p)) == 1


def scan_primitive_root(n, p):
    """Reference: smallest element of F_p* of order exactly n, by scan."""
    for c in range(1, p):
        if pow(c, n, p) == 1 and all(pow(c, d, p) != 1 for d in range(1, n)):
            return c
    return None


class TestBasicOps:
    def test_trim(self):
        assert poly_trim([1, 2, 0, 0]) == [1, 2]
        assert poly_trim([0]) == []
        assert poly_trim([]) == []

    def test_eval(self):
        assert poly_eval(WITNESS_CUBIC, 0, 7) == 0  # constant term 7 = 0 mod 7
        assert poly_eval(WITNESS_CUBIC, 2, 7) == 0  # 8 + 84 + 6 + 7 = 105 = 0 mod 7
        assert poly_eval([5], 3, 7) == 5
        assert poly_eval([], 3, 7) == 0

    def test_divmod_roundtrip(self):
        rng = random.Random(10)
        for _ in range(200):
            p = rng.choice([5, 7, 13])
            a = [rng.randrange(p) for _ in range(rng.randrange(1, 8))]
            b = [rng.randrange(p) for _ in range(rng.randrange(1, 5))]
            if not poly_trim(b):
                continue
            q, r = poly_divmod(a, b, p)
            prod = mul_mod_p(q, b, p)
            n = max(len(prod), len(r), len(a), 1)
            pad = lambda h: h + [0] * (n - len(h))
            total = poly_trim([(x + y) % p for x, y in zip(pad(prod), pad(r))])
            assert total == poly_trim([c % p for c in a])
            assert len(r) < len(poly_trim([c % p for c in b]))

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod([1, 1], [], 7)

    def test_deriv(self):
        assert poly_deriv([7, 3, 21, 1], 7) == [3, 0, 3]  # 3 + 42x + 3x^2 mod 7
        assert poly_deriv([4], 7) == []


class TestGcd:
    def test_coprime_cubics(self):
        assert poly_gcd([-2, 0, 0, 1], [-3, 0, 0, 1], 7) == [1]

    def test_gcd_self(self):
        h = [3, 0, 2]
        assert poly_gcd(h, h, 7) == poly_monic(h, 7)

    def test_shared_linear_factor(self):
        a = mul_mod_p([-1, 1], [-2, 1], 7)  # (x-1)(x-2)
        b = mul_mod_p([-2, 1], [-3, 1], 7)  # (x-2)(x-3)
        assert poly_gcd(a, b, 7) == [5, 1]  # x - 2

    def test_gcd_with_zero(self):
        h = [2, 0, 4]
        assert poly_gcd(h, [], 7) == poly_monic(h, 7)


def naive_pow_mod(base, e, h, p):
    """Reference power: square-and-multiply on whole lists, every product
    formed by poly_mul and reduced by poly_divmod."""
    result = poly_divmod([1], h, p)[1]
    base = poly_divmod(base, h, p)[1]
    while e:
        if e & 1:
            result = poly_divmod(mul_mod_p(result, base, p), h, p)[1]
        base = poly_divmod(mul_mod_p(base, base, p), h, p)[1]
        e >>= 1
    return result


class TestCubicPowMod:
    # one prime near 10^6 beside the small ones, so products exceed 2^40
    PRIMES = [2, 3, 5, 7, 13, 10007, 999983]

    @staticmethod
    def random_cubic(rng, p):
        """Cubic mod p with unreduced coefficients, often not monic, and
        sometimes a top coefficient that vanishes mod p."""
        h = [rng.randrange(-3 * p, 3 * p) for _ in range(3)]
        h.append(rng.randrange(1, p) + p * rng.randrange(-2, 3))
        if rng.random() < 0.3:
            h.append(p * rng.randrange(-2, 3))
        return h

    @pytest.mark.parametrize("p", PRIMES)
    def test_matches_naive_reference(self, p):
        rng = random.Random(p)
        for _ in range(60):
            h = self.random_cubic(rng, p)
            base = [rng.randrange(-3 * p, 3 * p) for _ in range(rng.randrange(8))]
            e = rng.choice([0, 1, 2, 3, p, p + 1, rng.randrange(4 * p), rng.randrange(p**3)])
            for b in (base, [0, 1]):
                assert poly_pow_mod(b, e, h, p) == naive_pow_mod(b, e, h, p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_repeated_multiplication(self, p):
        # small exponents against e-fold multiplication, no squaring at all
        rng = random.Random(100 + p)
        h = self.random_cubic(rng, p)
        base = [rng.randrange(-p, p) for _ in range(5)]
        acc = poly_divmod([1], h, p)[1]
        for e in range(40):
            assert poly_pow_mod(base, e, h, p) == acc
            acc = poly_divmod(mul_mod_p(acc, base, p), h, p)[1]

    @pytest.mark.parametrize("p", PRIMES)
    def test_zero_base(self, p):
        h = [1, 0, 2 * p, 1]
        for zero in ([], [0], [p, -2 * p]):
            assert poly_pow_mod(zero, 0, h, p) == [1]
            assert poly_pow_mod(zero, 5, h, p) == []

    @pytest.mark.parametrize("p", [7, 13, 10007])
    def test_frobenius_order_on_irreducible(self, p):
        # x^(p^3) == x in GF(p^3) = F_p[x]/(h) for irreducible h
        h = next(
            [c, 1, 0, 1] for c in range(p) if is_irreducible([c, 1, 0, 1], p)
        )
        assert poly_pow_mod([0, 1], p**3, h, p) == [0, 1]
        assert poly_pow_mod([0, 1], p, h, p) != [0, 1]

    def test_negative_exponent(self):
        with pytest.raises(ValueError):
            poly_pow_mod([0, 1], -1, [1, 0, 0, 1], 7)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_binomial_and_generic_cubics_match_powmod(self, p):
        # every x^3 + h2*x^2 + h0: the binomials x^3 - c at h2 = 0, whose
        # folds are products by c alone, and for h2 != 0 cubics whose x term
        # alone vanishes; then seeded cubics with every coefficient drawn
        rng = random.Random(200 + p)
        cubics = [[h0, 0, h2, 1] for h0 in range(p) for h2 in range(p)]
        cubics += [[rng.randrange(p) for _ in range(3)] + [1] for _ in range(20)]
        for h in cubics:
            for e in (0, 1, 2, 3, p, p * p, 12345):
                assert _cubic_pow_mod(e, h, p) == powmod((0, 1, 0), e, h, p), (h, e)


class TestMulmodPowmod:
    PRIMES = [2, 3, 7, 10007]

    @staticmethod
    def moduli(rng, p, k):
        """Monic moduli of degree k: one irreducible, and for k >= 2 a
        product with a linear factor, a power of x and a square."""
        # about 1 in k random monics is irreducible; the bound keeps a broken
        # is_irreducible from looping forever
        candidates = ([rng.randrange(p) for _ in range(k)] + [1] for _ in range(500))
        out = [next(h for h in candidates if is_irreducible(h, p))]
        if k >= 2:
            cofactor = [rng.randrange(p) for _ in range(k - 1)] + [1]
            out.append(mul_mod_p([rng.randrange(p), 1], cofactor, p))
            out.append([0] * k + [1])
        if k % 2 == 0:
            half = [rng.randrange(p) for _ in range(k // 2)] + [1]
            out.append(mul_mod_p(half, half, p))
        return out

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("k", range(1, 7))
    def test_mulmod_matches_poly_reference(self, p, k):
        # unreduced and negative ints, on irreducible and reducible moduli
        rng = random.Random(p * 10 + k)
        for mod in self.moduli(rng, p, k):
            for _ in range(40):
                a = [rng.randrange(-3 * p, 3 * p) for _ in range(k)]
                b = [rng.randrange(-3 * p, 3 * p) for _ in range(k)]
                rem = poly_divmod(mul_mod_p(a, b, p), mod, p)[1]
                assert mulmod(a, b, mod, p) == tuple(rem + [0] * (k - len(rem)))
                assert mulmod(tuple(a), tuple(b), tuple(mod), p) == mulmod(a, b, mod, p)

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("k", range(1, 7))
    def test_powmod_matches_naive_reference(self, p, k):
        rng = random.Random(p * 20 + k)
        for mod in self.moduli(rng, p, k):
            for _ in range(6):
                a = [rng.randrange(-3 * p, 3 * p) for _ in range(k)]
                for e in (0, 1, 2, 3, p, p + 1, rng.randrange(p**k)):
                    got = powmod(a, e, mod, p)
                    assert len(got) == k
                    assert poly_trim(got) == naive_pow_mod(a, e, mod, p), (mod, a, e)

    @pytest.mark.parametrize("p", [2, 3, 7, 101])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_frobenius_matrix_columns_on_any_modulus(self, p, k):
        # column i is x^(ip) mod h, and the matrix maps u to u^p mod h, for
        # reducible h as well
        rng = random.Random(p * 30 + k)
        for h in self.moduli(rng, p, k):
            frob = frobenius_matrix(h, p)
            cols = list(zip(*frob))
            assert len(cols) == k
            for i, col in enumerate(cols):
                assert poly_trim(col) == poly_pow_mod([0, 1], i * p, h, p)
            for _ in range(10):
                u = [rng.randrange(p) for _ in range(k)]
                image = [sum(r * c for r, c in zip(row, u)) % p for row in frob]
                assert poly_trim(image) == naive_pow_mod(u, p, h, p)


    @pytest.mark.parametrize("p", PRIMES)
    def test_poly_pow_mod_any_degree(self, p):
        # non-monic, unreduced moduli of every degree up to 6, long bases
        rng = random.Random(p * 40)
        for _ in range(60):
            h = [rng.randrange(-3 * p, 3 * p) for _ in range(rng.randrange(1, 7))]
            h.append(rng.randrange(1, p) + p * rng.randrange(-2, 3))
            base = [rng.randrange(-3 * p, 3 * p) for _ in range(rng.randrange(10))]
            for e in (0, 1, 2, p, rng.randrange(p**3)):
                assert poly_pow_mod(base, e, h, p) == naive_pow_mod(base, e, h, p)

    def test_poly_pow_mod_constant_and_zero_modulus(self):
        assert poly_pow_mod([3, 1], 0, [5], 7) == [1]
        assert poly_pow_mod([3, 1], 4, [5 + 7], 7) == []
        with pytest.raises(ZeroDivisionError):
            poly_pow_mod([3, 1], 2, [7, 0, 14], 7)

class TestIrreducibility:
    def test_known_cubics_mod_7(self):
        assert is_irreducible([-2, 0, 0, 1], 7) is True  # 2 is not a cube mod 7
        assert is_irreducible([-6, 0, 0, 1], 7) is False  # 3^3 = 27 = 6
        assert is_irreducible([-3, 0, 0, 1], 7) is True

    def test_linear_always(self):
        assert is_irreducible([-5, 1], 7) is True
        assert is_irreducible([0, 3], 13) is True

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible([4], 7)
        with pytest.raises(ValueError):
            is_irreducible([], 7)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_cubic_agrees_with_root_scan(self, p):
        # for degree <= 3 irreducibility is exactly root-freeness, and the
        # cubic's coprimality test agrees with the generic poly_gcd
        for n in range(p**3):
            c0, c1, c2 = n % p, n // p % p, n // p // p % p
            h = [c0, c1, c2, 1]
            has_root = any(poly_eval(h, x, p) == 0 for x in range(p))
            assert is_irreducible(h, p) == (not has_root) == gcd_coprime(h, p)

    @pytest.mark.parametrize("p", [10007, 999983])
    def test_unreduced_cubic_agrees_with_gcd(self, p):
        rng = random.Random(p)
        for _ in range(40):
            h = TestCubicPowMod.random_cubic(rng, p)
            irreducible = is_irreducible(h, p)
            assert irreducible == gcd_coprime(h, p)
            if p < 10**5:
                assert irreducible == all(poly_eval(h, x, p) for x in range(p))

    def test_quadratic_and_higher(self):
        assert is_irreducible([1, 0, 1], 7) is True  # x^2 + 1, -1 non-square mod 7
        assert is_irreducible([-2, 0, 1], 7) is False  # 3^2 = 2
        # x^4 - 2 irreducible mod 5 (no roots, no quadratic factorization)
        assert is_irreducible([-2, 0, 0, 0, 1], 5) is True
        # product of two irreducible quadratics has no roots but is reducible
        # (x^2+1 and x^2+2: both -1 = 6 and -2 = 5 are non-squares mod 7)
        prod = mul_mod_p([1, 0, 1], [2, 0, 1], 7)
        assert all(poly_eval(prod, x, 7) != 0 for x in range(7))
        assert is_irreducible(prod, 7) is False

    @pytest.mark.parametrize(
        "p, d",
        [(2, d) for d in range(2, 9)] + [(3, d) for d in range(2, 6)] + [(5, d) for d in range(2, 5)],
    )
    def test_counts_match_gauss(self, p, d):
        # the monic irreducibles of degree d over F_p number
        # (1/d) * sum over e | d of mu(e) * p^(d/e)
        def mobius(e):
            factors = prime_factors(e)
            squarefree = math.prod(factors) == e
            return (-1) ** len(factors) if squarefree else 0

        gauss = sum(mobius(e) * p ** (d // e) for e in range(1, d + 1) if d % e == 0) // d
        found = 0
        for n in range(p**d):
            h = [n // p**i % p for i in range(d)] + [1]
            found += is_irreducible(h, p)
        assert found == gauss


class TestResultant:
    @pytest.mark.parametrize("p", [2, 3, 7, 101])
    def test_matches_integer_resultant(self, p):
        # leading coefficients nonzero mod p keep both degrees, so reduction
        # mod p commutes with the resultant
        rng = random.Random(p)
        for _ in range(300):
            f, g = (
                [rng.randint(-20, 20) for _ in range(rng.randint(0, 6))]
                + [rng.choice([c for c in range(1, 2 * p) if c % p])]
                for _ in range(2)
            )
            got = resultant(poly_trim([c % p for c in f]), poly_trim([c % p for c in g]), p)
            assert got == int_resultant(f, g) % p

    @pytest.mark.parametrize("p", [2, 3, 7, 101])
    def test_zero_iff_common_factor(self, p):
        rng = random.Random(p + 1)
        common = 0
        for _ in range(300):
            shared = [rng.randrange(p), 1] if rng.random() < 0.5 else [1]
            f, g = (
                mul_mod_p(shared, [rng.randrange(p) for _ in range(rng.randint(0, 4))] + [1], p)
                for _ in range(2)
            )
            nontrivial = len(poly_gcd(f, g, p)) > 1
            common += nontrivial
            assert (resultant(f, g, p) == 0) == nontrivial
        assert 0 < common < 300

    def test_zero_and_constant(self):
        rng = random.Random(7)
        for _ in range(100):
            f = [rng.randrange(7) for _ in range(rng.randint(0, 5))] + [rng.randrange(1, 7)]
            c = rng.randrange(1, 7)
            assert resultant(f, [], 7) == 0
            assert resultant(f, [c], 7) == pow(c, len(f) - 1, 7)

    @pytest.mark.parametrize("p", [2, 3, 7, 101])
    def test_swap_sign(self, p):
        rng = random.Random(p + 2)
        for _ in range(300):
            f, g = (
                [rng.randrange(p) for _ in range(rng.randint(0, 6))] + [rng.randrange(1, p)]
                for _ in range(2)
            )
            sign = (-1) ** ((len(f) - 1) * (len(g) - 1))
            assert resultant(g, f, p) == sign * resultant(f, g, p) % p

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_split_cubic_is_product_over_roots(self, p):
        # the 3 x 3 determinant on (x - u)(x - v)(x - w), with distinct and
        # with repeated roots, against g evaluated at each root
        rng = random.Random(300 + p)
        for roots in itertools.combinations_with_replacement(range(p), 3):
            f = reduce(lambda h, u: mul_mod_p(h, [-u, 1], p), roots, [1])
            for _ in range(3):
                g = poly_trim([rng.randrange(p) for _ in range(rng.randint(1, 3))])
                assert resultant(f, g, p) == math.prod(poly_eval(g, u, p) for u in roots) % p

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_irreducible_cubic_equals_conjugate_norm(self, p):
        rng = random.Random(400 + p)
        cubics = [[*c, 1] for c in itertools.product(range(p), repeat=3)]
        irreducible = [h for h in cubics if is_irreducible(h, p)]
        for f in rng.sample(irreducible, min(4, len(irreducible))):  # p = 2 has two
            F = ExtField(p, 3, f)
            for n in rng.sample(range(1, p**3), min(40, p**3 - 1)):
                a = F.element_from_index(n)
                assert resultant(f, poly_trim(a), p) == F.norm_conj(a)

    @pytest.mark.parametrize("p", [3, 7, 101])
    def test_scaled_cubic_by_euclid(self, p):
        # Res(c*f, g) = c^(deg g) Res(f, g): c*f is not monic, so it goes by
        # Euclid, and the monic f by the determinant
        rng = random.Random(p + 3)
        for _ in range(200):
            f = [rng.randrange(p) for _ in range(3)] + [1]
            g = [rng.randrange(p) for _ in range(rng.randint(0, 2))] + [rng.randrange(1, p)]
            c = rng.randrange(2, p)
            scaled = resultant([x * c % p for x in f], g, p)
            assert scaled == pow(c, len(g) - 1, p) * resultant(f, g, p) % p


def binomial(m, c):
    return [-c] + [0] * (m - 1) + [1]


class TestRoots:
    def test_witness_cubic_roots(self):
        # mod 7 the cubic reduces to x(x^2+3) and 2, 5 square to -3
        assert is_qualifying_prime(7).cubic_roots == (0, 2, 5)

    def test_cube_roots_of_six(self):
        assert roots_in_base(3, 6, 7) == (3, 5, 6)

    def test_rootless(self):
        # -1 is not a square mod 7, 2 is not a cube mod 13, 2 does not divide
        # 1 = 2 - 1, c = 0 is refused and m must be positive
        for m, c, p in ((2, -1, 7), (3, 2, 13), (2, 1, 2), (3, 0, 7), (0, 1, 7)):
            with pytest.raises(ValueError):
                roots_in_base(m, c, p)

    def test_scan_guard(self):
        # no scan, so no guard: primes far above 2^22 are solved, not refused
        for p in (10**9 + 7, 10000000000267):
            for m, c in ((2, 4), (3, 6), (6, 1), (1, 5)):
                if (p - 1) % m == 0 and power_residue(c, m, p):
                    found = roots_in_base(m, c, p)
                    assert len(found) == m and all(pow(x, m, p) == c for x in found)
        # 10000000000267 qualifies, so the witness cubic has three roots
        cert = is_qualifying_prime(10000000000267)
        assert all(poly_eval(WITNESS_CUBIC, x, cert.p) == 0 for x in cert.cubic_roots)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 1009])
    def test_matches_exhaustive_scan(self, p):
        # every m | p - 1 below 60 and every c (a sample at 1009): the roots
        # must be the scan's, ascending and simple, else ValueError
        rng = random.Random(p)
        cs = range(1, p) if p < 100 else rng.sample(range(1, p), 20)
        for m in (m for m in range(1, 60) if (p - 1) % m == 0):
            for c in cs:
                scan = scan_roots(binomial(m, c), p)
                assert not any(scan.values())
                if len(scan) < m:
                    with pytest.raises(ValueError):
                        roots_in_base(m, c, p)
                else:
                    assert roots_in_base(m, c, p) == tuple(scan)

    def test_binomials_below_3000(self):
        # odd p < 3000, every m | p - 1 below 60, c in {2, 3, random, a
        # random m-th power}; the scan reads x^m off one table per (p, m)
        rng = random.Random(3000)
        for p in primes_up_to(3000)[1:]:
            for m in (m for m in range(1, 60) if (p - 1) % m == 0):
                powers = [pow(x, m, p) for x in range(p)]
                for c in (2, 3, rng.randrange(1, p), pow(rng.randrange(1, p), m, p)):
                    scan = tuple(x for x in range(p) if powers[x] == c % p)
                    if len(scan) < m or c % p == 0:  # 0 is refused as in test_rootless
                        with pytest.raises(ValueError):
                            roots_in_base(m, c, p)
                    else:
                        assert roots_in_base(m, c, p) == scan, (m, c, p)

    def test_each_root_checked_by_evaluation(self, monkeypatch):
        # with no discrete-log digit taken, theta = 7 and its multiples by
        # the cube roots of 1 are three distinct values mod 19 that cube to
        # 7^3 = 1, not to 7
        smooth = polys._smooth_subgroup
        monkeypatch.setattr(polys, "_smooth_subgroup", lambda m, p: (*smooth(m, p)[:2], []))
        with pytest.raises(AssertionError, match="did not split into 3 distinct roots"):
            roots_in_base(3, 7, 19)

    def test_7710_roots_of_two_mod_131071(self):
        # 2 has order 17 mod 2^17 - 1 = 131071, and 131070 = 17 * 7710
        p = 131071
        found = roots_in_base(7710, 2, p)
        assert found == tuple(x for x in range(p) if pow(x, 7710, p) == 2)
        assert len(found) == 7710

    def test_witness_cubic_matches_scan_below_5000(self):
        certs = [c for c in map(is_qualifying_prime, primes_up_to(5000))
                 if isinstance(c, QualifyingCertificate)]
        assert len(certs) > 50
        for cert in certs:
            assert cert.cubic_roots == tuple(sorted(scan_roots(WITNESS_CUBIC, cert.p)))


def naive_ext_pow_mod(base, e, w, F):
    """Reference power in F[x]/(w) for monic w: right-to-left
    square-and-multiply on whole lists, every coefficient formed by F.mul and
    F.add, every product reduced by subtracting multiples of w."""
    n = len(w) - 1

    def mulmod(a, b):
        out = [F.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = F.add(out[i + j], F.mul(ai, bj))
        for d in range(len(out) - 1, n - 1, -1):
            c = out[d]
            for j in range(n + 1):
                out[d - n + j] = F.sub(out[d - n + j], F.mul(c, w[j]))
        return out[:n]

    result = [F.one] + [F.zero] * (n - 1)
    base = list(base) + [F.zero] * (n - len(base))
    while e:
        if e & 1:
            result = mulmod(result, base)
        base = mulmod(base, base)
        e >>= 1
    while result and result[-1] == F.zero:
        result.pop()
    return result


class TestRootExtraction:
    def test_defining_cubic(self):
        F = ExtField(7, 3, [-2, 0, 0, 1])
        r = find_root_in_ext([-2, 0, 0, 1], F, seed=0)
        assert F.pow(r, 3) == F.from_base(2)

    def test_scaled_root_also_satisfies(self):
        # the postcondition is evaluation, so any cube root of 2 is fine:
        # (2*theta)^3 = 8*2 = 16 = 2 mod 7
        F = ExtField(7, 3, [-2, 0, 0, 1])
        assert eval_in_ext([-2, 0, 0, 1], (0, 2, 0), F) == F.zero

    def test_shifted_cubic_mod_17(self):
        # x^3 - x + 14 has no roots mod 17, hence splits in GF(17^3)
        F = ExtField(17, 3, [14, 16, 0, 1])
        r = find_root_in_ext([14, -1, 0, 1], F, seed=0)
        assert eval_in_ext([14, -1, 0, 1], r, F) == F.zero

    def test_second_shifted_cubic_same_field(self):
        F = ExtField(17, 3, [14, 16, 0, 1])
        r = find_root_in_ext([2, -1, 0, 1], F, seed=0)
        assert eval_in_ext([2, -1, 0, 1], r, F) == F.zero

    def test_deterministic_given_seed(self):
        F = ExtField(17, 3, [14, 16, 0, 1])
        a = find_root_in_ext([2, -1, 0, 1], F, seed=5)
        b = find_root_in_ext([2, -1, 0, 1], F, seed=5)
        assert a == b

    def test_linear_input(self):
        F = ExtField(7, 3, [-2, 0, 0, 1])
        assert find_root_in_ext([-3, 1], F, seed=0) == F.from_base(3)

    def test_non_splitting_input_detected(self):
        # x^2 + 1 is irreducible mod 7 with degree not dividing 3, so its
        # roots live outside GF(7^3) and the splitting loop must give up
        F = ExtField(7, 3, [-2, 0, 0, 1])
        with pytest.raises(ValueError):
            find_root_in_ext([1, 0, 1], F, seed=0)

    # seed-0 roots of every theta_i for the first parameter sets that
    # find_parameters returns at (t, m) = (4, 2), (4, 3), (5, 2) and (6, 2),
    # recorded before root extraction moved to int lists: (t, p, r, thetas,
    # roots).  They pin the seed-0 witness-general output.
    PINNED = [
        (4, 17, 8, (6, 11), ((0, 1, 0), (12, 5, 16))),
        (4, 17, 9, (6, 11), ((9, 5, 12), (4, 12, 11))),
        (4, 31, 7, (8, 23), ((27, 24, 6), (12, 27, 13))),
        (4, 31, 24, (8, 23), ((0, 1, 0), (29, 15, 3))),
        (4, 43, 5, (20, 32, 34), ((35, 33, 12), (16, 3, 19), (38, 5, 29))),
        (4, 43, 18, (20, 32, 34), ((0, 1, 0), (12, 22, 25), (31, 1, 18))),
        (4, 109, 36, (57, 58, 103), ((78, 20, 101), (25, 47, 17), (82, 86, 95))),
        (4, 127, 29, (32, 100, 122), ((103, 98, 36), (83, 31, 66), (74, 14, 16))),
        (5, 7, 2, (3, 4), ((0, 1, 0, 0), (2, 2, 2, 2))),
        (5, 73, 12, (32, 41), ((48, 67, 31, 9), (15, 72, 7, 53))),
        (5, 79, 1, (9, 70), ((23, 25, 32, 22), (30, 37, 7, 39))),
        (5, 79, 2, (9, 70), ((46, 9, 1, 44), (40, 3, 58, 52))),
        (6, 17, 0, (6, 11), ((2, 14, 8, 6, 6), (15, 3, 9, 11, 11))),
        (6, 89, 9, (25, 64), ((48, 65, 72, 48, 29), (23, 36, 23, 59, 38))),
        (6, 89, 35, (25, 64), ((0, 1, 0, 0, 0), (64, 68, 64, 33, 9))),
        (6, 89, 54, (25, 64), ((22, 31, 77, 11, 17), (28, 0, 23, 14, 54))),
    ]

    @pytest.mark.parametrize("t, p, r, thetas, roots", PINNED)
    def test_pinned_seed0_roots(self, t, p, r, thetas, roots):
        F = ExtField(p, t - 1, shifted_poly(t, thetas[0], r, p))
        got = tuple(find_root_in_ext(shifted_poly(t, th, r, p), F, 0) for th in thetas)
        assert got == roots

    # (p, modulus of degree k, polynomials over F_p that split into distinct
    # linears over GF(p^k)): irreducibles of degree dividing k and products
    # of distinct ones
    SPLITTING = [
        (5, [1, 1, 0, 1], [[1, 1, 0, 1], [4, 1, 0, 1], mul_mod_p([1, 2, 0, 1], [3, 1], 5)]),
        (7, [2, 0, 0, 1], [[2, 0, 0, 1], [3, 0, 0, 1], mul_mod_p([4, 0, 0, 1], [5, 1], 7)]),
        (3, [2, 1, 0, 0, 1], [[2, 2, 0, 0, 1], [1, 0, 1], mul_mod_p([1, 0, 1], [2, 2, 0, 0, 1], 3),
                              mul_mod_p([2, 0, 1, 0, 1], [1, 1], 3)]),
    ]

    @pytest.mark.parametrize("p, modulus, hs", SPLITTING, ids=["5^3", "7^3", "3^4"])
    def test_seeds_reach_every_root(self, p, modulus, hs):
        F = ExtField(p, len(modulus) - 1, modulus)
        for h in hs:
            want = {a for a in F.elements() if eval_in_ext(h, a, F) == F.zero}
            assert len(want) == len(h) - 1
            assert {find_root_in_ext(h, F, s) for s in range(31)} == want

    @staticmethod
    def splitting_polys(p, k):
        """For each n in 2..5, the first product (in combinations order) of
        distinct monic irreducibles over F_p of degrees dividing k with total
        degree n: each splits into n distinct linears over GF(p^k)."""
        pieces = []
        for d in (d for d in range(1, k + 1) if k % d == 0):
            monics = ([enc // p**i % p for i in range(d)] + [1] for enc in range(p**d))
            pieces += itertools.islice(filter(lambda h: is_irreducible(h, p), monics), 6)
        by_degree = {}
        for r in range(1, 6):
            for combo in itertools.combinations(pieces, r):
                h = reduce(lambda a, b: mul_mod_p(a, b, p), combo)
                by_degree.setdefault(len(h) - 1, h)
        return [by_degree[n] for n in range(2, 6) if n in by_degree]

    @staticmethod
    def reference_root(h, F, seed):
        """Reference splitter: the same seeded deltas, but s = (y + delta)^((|F|-1)/2)
        - 1 is powered modulo the current factor by naive_ext_pow_mod and
        split by _ext_gcd, keeping the smaller factor."""
        rng = random.Random(seed)
        w = [F.from_base(c) for c in poly_monic(h, F.p)]
        for _ in range(64):
            if len(w) == 2:
                return F.neg(w[0])
            delta = F.element_from_index(rng.randrange(F.order()))
            s = naive_ext_pow_mod([delta, F.one], (F.order() - 1) // 2, w, F) or [F.zero]
            s = [F.sub(s[0], F.one)] + s[1:]
            while s and s[-1] == F.zero:
                s.pop()
            g = _ext_gcd(w, s, F)
            if 1 < len(g) < len(w):
                other = _ext_divmod(w, g, F)[0]
                w = g if len(g) <= len(other) else other
        raise AssertionError("reference splitter did not terminate")

    @pytest.mark.parametrize("p, modulus, hs", SPLITTING + [
        (p, _smallest_irreducible(p, k), None) for p, k in [(31, 1), (7, 2), (3, 5)]
    ], ids=["5^3", "7^3", "3^4", "31^1", "7^2", "3^5"])
    def test_matches_reference_splitter(self, p, modulus, hs):
        F = ExtField(p, len(modulus) - 1, modulus)
        hs = hs or self.splitting_polys(p, F.k)
        for h in hs + [[2 * c for c in hs[-1]]]:  # the last one again, not monic
            for seed in range(31):
                assert find_root_in_ext(h, F, seed) == self.reference_root(h, F, seed), (h, seed)


class TestNormSelector:
    """s = _norm_selector(h, F)(delta) must vanish exactly at the roots b of
    h with b + delta a nonzero square in F."""

    @staticmethod
    def check(h, F, delta, roots):
        """Compare s's zeros among h's roots with the character by F.pow;
        return s."""
        s = _norm_selector(poly_monic(h, F.p), F)(delta)
        e = (F.order() - 1) // 2
        for b in roots:
            value = F.zero
            for c in reversed(s):
                value = F.add(F.mul(value, b), c)
            assert (value == F.zero) == (F.pow(F.add(b, delta), e) == F.one), (h, delta, b)
        return s

    @staticmethod
    def field_and_roots(p, modulus, h):
        F = ExtField(p, len(modulus) - 1, modulus)
        roots = [b for b in F.elements() if eval_in_ext(h, b, F) == F.zero]
        assert len(roots) == len(h) - 1
        return F, roots

    # (p, modulus, h): h splits into distinct linears over GF(p^k), n >= 3
    CASES = [
        (5, [1, 1, 0, 1], [1, 1, 0, 1]),
        (7, [2, 0, 0, 1], mul_mod_p([4, 0, 0, 1], [5, 1], 7)),
        (3, [2, 1, 0, 0, 1], [2, 2, 0, 0, 1]),
        (3, [2, 1, 0, 0, 1], mul_mod_p([2, 0, 1, 0, 1], [1, 1], 3)),
        (17, [14, 16, 0, 1], [2, 16, 0, 1]),
    ]

    @pytest.mark.parametrize("p, modulus, h", CASES, ids=["5^3", "7^3", "3^4", "3^4 n=5", "17^3"])
    def test_every_delta(self, p, modulus, h):
        F, roots = self.field_and_roots(p, modulus, h)
        rng = random.Random(p)
        deltas = F.elements() if F.order() < 1000 else (
            F.element_from_index(rng.randrange(F.order())) for _ in range(300))
        for delta in deltas:
            self.check(h, F, delta, roots)

    @pytest.mark.parametrize("p, modulus, h", CASES, ids=["5^3", "7^3", "3^4", "3^4 n=5", "17^3"])
    def test_zero_character(self, p, modulus, h):
        # delta = -b: N(b + delta) = 0, a character of 0, so s(b) != 0
        F, roots = self.field_and_roots(p, modulus, h)
        for b in roots:
            assert self.check(h, F, F.neg(b), roots)  # s != 0, as b is not a zero

    @pytest.mark.parametrize("p, modulus, h", CASES, ids=["5^3", "7^3", "3^4", "3^4 n=5", "17^3"])
    def test_base_field_delta_does_not_split(self, p, modulus, h):
        # for delta in F_p the roots of each irreducible factor of h share one
        # norm; an irreducible h gives s = 0 or a unit
        F, roots = self.field_and_roots(p, modulus, h)
        for c in range(p):
            s = self.check(h, F, F.from_base(c), roots)
            if is_irreducible(h, p):
                assert len(s) < 2

    def test_repeated_norm_values(self):
        # a cubic over F_5 at deltas where its three roots take two nonzero
        # norms: deg mu = 2 < n, and s still splits a residue from a non-residue
        p, modulus, h = self.CASES[0]
        F, roots = self.field_and_roots(p, modulus, h)
        splits = 0
        for delta in F.elements():
            norms = {F.norm_conj(F.add(b, delta)) for b in roots}
            if len(norms) == 2 and 0 not in norms:
                s = self.check(h, F, delta, roots)
                if len({power_residue(v, 2, p) for v in norms}) == 2:
                    assert len(s) > 1
                    splits += 1
        assert splits

    def test_no_dependency_raises(self):
        # x^2 + 1 stays irreducible over GF(7^3): F[y]/(h) is GF(7^6), and a
        # norm Q outside every subfield of degree <= 2 has no F_p-dependency
        F = ExtField(7, 3, [-2, 0, 0, 1])
        select = _norm_selector([1, 0, 1], F)
        raised = 0
        for n in range(50):
            try:
                select(F.element_from_index(n))
            except ValueError:
                raised += 1
        assert raised


class TestResidues:
    def test_cube_residues_mod_7(self):
        assert power_residue(2, 3, 7) is False
        assert power_residue(6, 3, 7) is True

    def test_first_powers(self):
        for a in range(1, 7):
            assert power_residue(a, 1, 7) is True

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            power_residue(0, 3, 7)
        with pytest.raises(ValueError):
            power_residue(7, 3, 7)

    @pytest.mark.parametrize("p", [7, 13, 17, 37])
    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_against_exhaustive_power_sets(self, p, m):
        powers = {pow(x, m, p) for x in range(1, p)}
        for a in range(1, p):
            assert power_residue(a, m, p) == (a in powers)


class TestRootsOfUnity:
    def test_cube_root_mod_7(self):
        assert primitive_nth_root(3, 7) == 2

    def test_absent_when_order_missing(self):
        assert primitive_nth_root(3, 5) is None

    def test_minus_one_mod_17(self):
        assert primitive_nth_root(2, 17) == 16

    def test_trivial_order(self):
        assert primitive_nth_root(1, 13) == 1

    def test_order_is_exact(self):
        rng = random.Random(12)
        for _ in range(50):
            p = rng.choice([7, 13, 17, 37, 139])
            n = rng.choice([2, 3, 4, 6, 9])
            z = primitive_nth_root(n, p)
            if (p - 1) % n != 0:
                assert z is None
                continue
            assert pow(z, n, p) == 1
            for d in range(1, n):
                assert pow(z, d, p) != 1 or d == n

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 37, 1009])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9, 12])
    def test_matches_exhaustive_scan(self, n, p):
        assert primitive_nth_root(n, p) == scan_primitive_root(n, p)

    def test_large_prime(self):
        p = 10000000000267
        z = primitive_nth_root(3, p)
        assert pow(z, 3, p) == 1 and z != 1

    def test_smallest_is_returned(self):
        z = primitive_nth_root(3, 13)
        assert z == 3  # 3^3 = 27 = 1 mod 13 and no smaller element works
        for c in range(1, z):
            assert pow(c, 3, 13) != 1 or c == 1


class TestDiscriminant:
    def test_witness_cubic(self):
        assert discriminant(WITNESS_CUBIC) == -248832

    def test_product_of_shifted_cubes(self):
        f = int_poly_mul([-2, 0, 0, 1], [-3, 0, 0, 1])
        assert f == [6, 0, 0, -5, 0, 0, 1]
        assert discriminant(f) == 26244

    def test_depressed_cubic(self):
        # disc(x^3 + px + q) = -4p^3 - 27q^2
        assert discriminant([-2, 0, 0, 1]) == -108
        assert discriminant([1, -1, 0, 1]) == -4 * (-1) ** 3 - 27

    def test_quadratic(self):
        # disc(ax^2 + bx + c) = b^2 - 4ac
        assert discriminant([3, 5, 2]) == 25 - 24
        assert discriminant([1, 0, 1]) == -4

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            discriminant([1, 2])

    def test_resultant_of_linears(self):
        # Res(x - a, x - b) = a - b (evaluate the second at the first's root)
        assert int_resultant([-3, 1], [-5, 1]) == -2
        assert int_resultant([-5, 1], [-3, 1]) == 2

    def test_resultant_with_constant(self):
        assert int_resultant([1, 0, 0, 1], [4]) == 64  # 4^3
        assert int_resultant([7], [5]) == 1

    # (1,1)/(3,3) and (-1,2)/(0,3) leave a zero pivot in the Sylvester
    # elimination that only a row swap gets past
    @pytest.mark.parametrize("seed", range(4))
    def test_resultant_is_the_root_product(self, seed):
        # Res(c prod(x - a_i), d prod(x - b_j)) = c^deg g d^deg f prod(a_i - b_j)
        rng = random.Random(seed)
        cases = [((1, 1), (3, 3)), ((-1, 2), (0, 3)), ((2,), (2, -1)), ((), ())]
        for _ in range(150):
            a_roots = [rng.randint(-4, 4) for _ in range(rng.randint(0, 5))]
            b_roots = [rng.randint(-4, 4) for _ in range(rng.randint(0, 5))]
            if a_roots and b_roots and rng.random() < 0.2:
                b_roots[0] = a_roots[-1]  # a shared root: the resultant is 0
            cases.append((a_roots, b_roots))
        zeros = 0
        for a_roots, b_roots in cases:
            c, d = rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([-2, -1, 1, 2])
            f = reduce(int_poly_mul, ([-r, 1] for r in a_roots), [c])
            g = reduce(int_poly_mul, ([-r, 1] for r in b_roots), [d])
            want = c ** len(b_roots) * d ** len(a_roots)
            for ai, bj in itertools.product(a_roots, b_roots):
                want *= ai - bj
            assert int_resultant(f, g) == want, (f, g)
            zeros += want == 0
        assert zeros > 10

    def test_product_rule_seeded(self):
        # disc(h1*h2) = disc(h1) * disc(h2) * Res(h1,h2)^2
        rng = random.Random(13)
        done = 0
        while done < 60:
            h1 = [rng.randint(-9, 9) for _ in range(3)] + [rng.randint(1, 9)]
            h2 = [rng.randint(-9, 9) for _ in range(3)] + [rng.randint(1, 9)]
            prod = int_poly_mul(h1, h2)
            lhs = discriminant(prod)
            rhs = discriminant(h1) * discriminant(h2) * int_resultant(h1, h2) ** 2
            assert lhs == rhs
            done += 1

