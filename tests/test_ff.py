import random

import pytest

from normgraph.ff import ExtField, fp_inv, fp_pow
from normgraph.polys import int_poly_mul, poly_divmod, poly_sub, poly_trim


def f7_cubic():
    # F_343 as F_7[x]/(x^3 - 2); 2 is not a cube mod 7 so this is irreducible
    return ExtField(7, 3, [-2, 0, 0, 1])


def euclid_inv(f, a):
    """Reference inverse: extended Euclid of a against the modulus over F_p."""
    p = f.p
    r0, r1 = list(f.modulus), poly_trim(a)
    s0, s1 = [], [1]
    while r1:
        q, rem = poly_divmod(r0, r1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, poly_sub(s0, int_poly_mul(q, s1), p)
    assert len(r0) == 1, "not a unit"
    c = fp_inv(r0[0], p)
    out = [x * c % p for x in s0]
    return tuple(out + [0] * (f.k - len(out)))


class TestFpOps:
    def test_fp_pow_values(self):
        assert fp_pow(6, 12, 37) == 1
        assert fp_pow(2, 12, 37) == 26
        assert fp_pow(5, 0, 7) == 1
        assert fp_pow(0, 0, 7) == 1

    def test_fp_pow_negative_exponent(self):
        assert fp_pow(3, -1, 7) == 5  # 3*5 = 15 = 1 mod 7
        assert fp_pow(3, -2, 7) == fp_pow(5, 2, 7)

    def test_fp_pow_bad_modulus(self):
        with pytest.raises(ValueError):
            fp_pow(2, 3, 1)

    def test_fp_inv_values(self):
        assert fp_inv(4, 7) == 2
        assert fp_inv(2, 17) == 9
        assert fp_inv(1, 2) == 1

    def test_fp_inv_zero(self):
        with pytest.raises(ZeroDivisionError):
            fp_inv(0, 7)
        with pytest.raises(ZeroDivisionError):
            fp_inv(14, 7)

    def test_fp_inv_roundtrip(self):
        rng = random.Random(0)
        for _ in range(300):
            p = rng.choice([5, 7, 13, 10**9 + 7])
            a = rng.randrange(1, p)
            assert a * fp_inv(a, p) % p == 1


class TestConstruction:
    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            ExtField(6, 3, [-2, 0, 0, 1])

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            ExtField(7, 3, [5, 0, 0, 2])

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            ExtField(7, 3, [5, 0, 1])

    def test_rejects_reducible_modulus(self):
        # 3^3 = 27 = 6 mod 7, so x^3 - 6 has a root and splits off a factor
        with pytest.raises(ValueError):
            ExtField(7, 3, [-6, 0, 0, 1])
        # x^2 - 2 mod 7: 3^2 = 2, reducible
        with pytest.raises(ValueError):
            ExtField(7, 2, [-2, 0, 1])

    def test_accepts_known_irreducibles(self):
        ExtField(7, 3, [-2, 0, 0, 1])
        ExtField(13, 3, [-2, 0, 0, 1])
        ExtField(37, 3, [-2, 0, 0, 1])  # 2^12 = 26 != 1 mod 37, not a cube
        ExtField(5, 4, [-2, 0, 0, 0, 1])
        # p = 3 mod 4 makes -1 a non-square, so x^2 + 1 works
        ExtField(2**31 - 1, 2, [1, 0, 1])

    def test_degree_one_field(self):
        f = ExtField(7, 1, [5, 1])  # x + 5, so x acts as 2
        assert f.gen == (2,)
        assert f.mul((3,), (4,)) == (5,)
        assert f.frobenius((3,)) == (3,)
        assert f.norm((3,)) == 3


class TestRingOps:
    def test_theta_cubed_is_two(self):
        f = f7_cubic()
        theta = f.gen
        assert f.mul(theta, f.mul(theta, theta)) == (2, 0, 0)

    def test_difference_of_squares(self):
        f = f7_cubic()
        lhs = f.mul((1, 1, 0), (6, 1, 0))  # (theta+1)(theta-1)
        assert lhs == (6, 0, 1)  # theta^2 - 1

    def test_mul_with_reduction(self):
        f = f7_cubic()
        # (theta^2 + theta) * theta = theta^3 + theta^2 = 2 + theta^2
        assert f.mul((0, 1, 1), (0, 1, 0)) == (2, 0, 1)

    @pytest.mark.parametrize(
        "p, k, modulus",
        [(7, 2, [-3, 0, 1]), (13, 3, [2, 5, 7, 1]), (37, 3, [-2, 0, 0, 1]),
         (5, 4, [-2, 0, 0, 0, 1]), (10007, 1, [5, 1])],
    )
    def test_mul_matches_poly_reference_on_unreduced_ints(self, p, k, modulus):
        # root extraction hands mul unreduced and negative ints
        f = ExtField(p, k, modulus)
        rng = random.Random(k * p)
        for _ in range(300):
            a = tuple(rng.randrange(-3 * p, 3 * p) for _ in range(k))
            b = tuple(rng.randrange(-3 * p, 3 * p) for _ in range(k))
            rem = poly_divmod(int_poly_mul(a, b), f.modulus, p)[1]
            assert f.mul(a, b) == tuple(rem + [0] * (k - len(rem)))

    def test_inv_of_generator(self):
        f = f7_cubic()
        # theta * 4theta^2 = 4*theta^3 = 8 = 1
        assert f.inv((0, 1, 0)) == (0, 0, 4)

    @pytest.mark.parametrize(
        "p, modulus",
        [(2, [1, 1, 0, 1]), (3, [1, 0, 1]), (7, [-2, 0, 0, 1]), (5, [-2, 0, 0, 0, 1]),
         (101, [3, 1])],
        ids=["2^3", "3^2", "7^3", "5^4", "101^1"],
    )
    def test_inv_matches_euclid_on_every_unit(self, p, modulus):
        f = ExtField(p, len(modulus) - 1, modulus)
        for a in f.elements():
            if a != f.zero:
                assert f.inv(a) == euclid_inv(f, a)

    def test_inv_zero_raises(self):
        f = f7_cubic()
        with pytest.raises(ZeroDivisionError):
            f.inv(f.zero)

    def test_inv_roundtrip_seeded(self):
        f = f7_cubic()
        rng = random.Random(1)
        for _ in range(200):
            a = f.element_from_index(rng.randrange(1, f.order()))
            assert f.mul(a, f.inv(a)) == f.one

    def test_pow_negative(self):
        f = f7_cubic()
        theta = f.gen
        assert f.pow(theta, -1) == f.inv(theta)
        assert f.pow(theta, -3) == f.inv(f.pow(theta, 3))

    def test_add_sub_neg(self):
        f = f7_cubic()
        a, b = (3, 5, 1), (6, 4, 2)
        assert f.add(a, b) == (2, 2, 3)
        assert f.sub(f.add(a, b), b) == a
        assert f.add(a, f.neg(a)) == f.zero


class TestFrobenius:
    def test_frobenius_of_generator(self):
        f = f7_cubic()
        # theta^7 = theta * (theta^3)^2 = 4*theta
        assert f.frobenius(f.gen) == (0, 4, 0)

    def test_frobenius_matches_pow(self):
        f = f7_cubic()
        rng = random.Random(2)
        for _ in range(100):
            a = f.element_from_index(rng.randrange(f.order()))
            assert f.frobenius(a) == f.pow(a, 7)

    @pytest.mark.parametrize(
        "p, modulus",
        [(101, [5, 1]), (13, [2, 0, 1]), (5, [2, 0, 0, 0, 1]), (89, [3, 1, 0, 0, 0, 1])],
        ids=["101^1", "13^2", "5^4", "89^5"],
    )
    def test_frobenius_matrix_matches_pow_and_inverts(self, p, modulus):
        # frobenius reads precomputed columns; pow and mul do not
        f = ExtField(p, len(modulus) - 1, modulus)
        rng = random.Random(p)
        for _ in range(200):
            a = f.element_from_index(rng.randrange(1, f.order()))
            assert f.frobenius(a) == f.pow(a, p)
            assert f.mul(a, f.inv(a)) == f.one

    def test_frobenius_order_k(self):
        f = f7_cubic()
        rng = random.Random(3)
        for _ in range(100):
            a = f.element_from_index(rng.randrange(f.order()))
            b = f.frobenius(f.frobenius(f.frobenius(a)))
            assert b == a

    def test_frobenius_is_ring_hom(self):
        f = f7_cubic()
        rng = random.Random(4)
        for _ in range(500):
            a = f.element_from_index(rng.randrange(f.order()))
            b = f.element_from_index(rng.randrange(f.order()))
            assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))
            assert f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a), f.frobenius(b))

    def test_frobenius_fixes_base_field(self):
        f = f7_cubic()
        for c in range(7):
            assert f.frobenius(f.from_base(c)) == f.from_base(c)


class TestNorm:
    def test_norm_of_generator(self):
        f = f7_cubic()
        # theta^(1+7+49) = theta^57 = (theta^3)^19 = 2^19 = 2 (ord(2) = 3 mod 7)
        assert f.norm(f.gen) == 2

    def test_norm_fixed_value(self):
        f = f7_cubic()
        # cubic expansion: 6^3 + 2*3^3 + 4*5^3 - 6*5*3*6 = 230 = 6 mod 7
        assert f.norm((6, 3, 5)) == 6

    def test_norm_of_constants(self):
        f = f7_cubic()
        for c in range(7):
            assert f.norm(f.from_base(c)) == pow(c, 3, 7)

    def test_three_routes_agree_exhaustive(self):
        f = f7_cubic()
        for a in f.elements():
            n1 = f.norm_conj(a)
            n2 = f.norm_det(a)
            n3 = f.norm_pow(a)
            assert n1 == n2 == n3

    def test_cubic_expansion_exhaustive(self):
        # norm(a*theta^2 + b*theta + c) over x^3 - 2 expands to
        # c^3 + 2b^3 + 4a^3 - 6abc
        f = f7_cubic()
        for el in f.elements():
            c, b, a = el
            expected = (c**3 + 2 * b**3 + 4 * a**3 - 6 * a * b * c) % 7
            assert f.norm(el) == expected

    def test_worked_example(self):
        f = f7_cubic()
        # 1 + 2*27 + 4*125 - 6*15 = 465 = 3 mod 7, and 5*2 = 10 = 3 mod 7
        v = f.norm((1, 3, 5))
        assert v == 3
        assert v == 5 * 2 % 7

    def test_routes_agree_seeded(self):
        rng = random.Random(5)
        fields = [
            ExtField(7, 3, [-2, 0, 0, 1]),
            ExtField(13, 3, [-2, 0, 0, 1]),
            ExtField(37, 3, [-2, 0, 0, 1]),
            ExtField(5, 4, [-2, 0, 0, 0, 1]),
        ]
        for f in fields:
            for _ in range(1000):
                a = f.element_from_index(rng.randrange(f.order()))
                n1 = f.norm_conj(a)
                assert n1 == f.norm_det(a) == f.norm_pow(a)

    def test_determinant_route_uses_no_field_arithmetic(self, monkeypatch):
        # norm_det must stay independent of norm_conj: with every field
        # product, Frobenius map, power and inverse disabled, it still gives
        # the cubic expansion on all of GF(7^3)
        def forbidden(*args):
            raise AssertionError("determinant route reached field arithmetic")

        for name in ("mul", "frobenius", "pow", "inv"):
            monkeypatch.setattr(ExtField, name, forbidden)
        f = f7_cubic()
        for el in f.elements():
            c, b, a = el
            assert f.norm_det(el) == (c**3 + 2 * b**3 + 4 * a**3 - 6 * a * b * c) % 7

    @pytest.mark.parametrize("route", ["norm_conj", "inv"])
    def test_conjugate_product_must_land_in_the_base_field(self, monkeypatch, route):
        # a conjugate product of 1 + x, outside F_p: norm_conj would read 1
        # off it, and inv would scale it by 1^(-1)
        f = f7_cubic()
        monkeypatch.setattr(ExtField, "_times_conjugates", lambda field, acc, a: (1, 1, 0))
        with pytest.raises(AssertionError, match="did not land in the base field"):
            getattr(f, route)(f.one)

    def test_norm_multiplicative(self):
        f = f7_cubic()
        rng = random.Random(6)
        for _ in range(1000):
            a = f.element_from_index(rng.randrange(f.order()))
            b = f.element_from_index(rng.randrange(f.order()))
            assert f.norm_conj(f.mul(a, b)) == f.norm_conj(a) * f.norm_conj(b) % 7

    def test_norm_zero_iff_zero(self):
        f = f7_cubic()
        for a in f.elements():
            assert (f.norm(a) == 0) == (a == f.zero)


class TestEnumeration:
    def test_index_roundtrip(self):
        f = f7_cubic()
        for n in range(f.order()):
            assert f.index(f.element_from_index(n)) == n

    def test_index_formula(self):
        f = f7_cubic()
        assert f.index((3, 5, 1)) == 3 + 5 * 7 + 1 * 49
        assert f.element_from_index(0) == f.zero
        assert f.element_from_index(1) == f.one

    def test_elements_complete(self):
        f = ExtField(5, 2, [2, 0, 1])  # x^2 + 2: -2 = 3 is a non-square mod 5
        seen = list(f.elements())
        assert len(seen) == 25
        assert len(set(seen)) == 25

    def test_enumeration_guard(self):
        f = ExtField(2**31 - 1, 2, [1, 0, 1])
        with pytest.raises(ValueError):
            next(f.elements())

    def test_index_out_of_range(self):
        f = f7_cubic()
        with pytest.raises(ValueError):
            f.element_from_index(343)
        with pytest.raises(ValueError):
            f.element_from_index(-1)

