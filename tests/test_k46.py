import csv
import itertools
import random
from collections import Counter, defaultdict

import pytest

from normgraph import k46, polys
from normgraph.ff import ExtField
from normgraph.graph import Vertex, make_graph
from normgraph.k46 import (
    DegeneracyError,
    QualifyingCertificate,
    Rejection,
    SieveRow,
    build_witness,
    is_qualifying_prime,
    qualifying_verdict,
    sieve_csv_lines,
    sieve_qualifying,
    sieve_summary,
    verify_witness,
    witness_graph,
)
from normgraph.primes import prime_factors, primes_up_to
from test_acceptance import planted_quadruple

# sieve rejection classes, keyed by a phrase of the reason text
REASON_CLASSES = (
    ("is not 1 mod 3", "not_1_mod_3"),
    ("2 is a cube", "two_cube"),
    ("3 is a cube", "three_cube"),
    ("6 is not a cube", "six_not_cube"),
    ("divides", "disc"),
)


def reason_class(row) -> str:
    if row.qualifying:
        return "qualifying"
    return next(cls for text, cls in REASON_CLASSES if text in row.reason)


class TestQualifying:
    def test_seven_qualifies(self):
        cert = is_qualifying_prime(7)
        assert isinstance(cert, QualifyingCertificate)
        assert cert.zeta == 2
        assert cert.cubic_roots == (0, 2, 5)

    def test_thirtyseven_qualifies(self):
        cert = is_qualifying_prime(37)
        assert isinstance(cert, QualifyingCertificate)
        assert pow(cert.zeta, 3, 37) == 1 and cert.zeta != 1
        for eta in cert.cubic_roots:
            assert (eta**3 + 21 * eta**2 + 3 * eta + 7) % 37 == 0

    def test_thirteen_rejected_on_six(self):
        rej = is_qualifying_prime(13)
        assert isinstance(rej, Rejection)
        assert "6 is not a cube mod 13" in rej.reason

    def test_three_rejected_on_discriminants(self):
        rej = is_qualifying_prime(3)
        assert isinstance(rej, Rejection)
        assert "both discriminants" in rej.reason

    @pytest.mark.parametrize("p", [2, 3])
    def test_discriminant_reason_names_both(self, p):
        # 26244 = 2^2 3^8 and 248832 = 2^10 3^5: a prime divides one exactly
        # when it divides the other, so "both" is the only reason there is
        assert prime_factors(26244) == prime_factors(248832) == [2, 3]
        assert qualifying_verdict(p) == (
            False, f"{p} divides both discriminants 26244 and -248832"
        )

    def test_five_rejected_on_congruence(self):
        rej = is_qualifying_prime(5)
        assert "not 1 mod 3" in rej.reason

    def test_thirtyone_rejected_on_two(self):
        # ord(2) = 5 mod 31, so 2^10 = 1 and 2 is a cube
        rej = is_qualifying_prime(31)
        assert "2 is a cube mod 31" in rej.reason

    def test_composite_rejected(self):
        rej = is_qualifying_prime(49)
        assert "not prime" in rej.reason

    def test_formulations_agree_to_10k(self):
        # qualifying_verdict raises internally on any disagreement
        res = sieve_qualifying(10**4)
        assert res.pi == 1229


class TestSieve:
    def test_up_to_150(self):
        res = sieve_qualifying(150)
        assert res.qualifying == [7, 37, 139]
        assert res.count == 3
        assert res.pi == 35

    def test_small_limits(self):
        assert sieve_qualifying(6).qualifying == []
        assert sieve_qualifying(2).qualifying == []
        with pytest.raises(ValueError):
            sieve_qualifying(1)

    def test_first_six_members(self):
        res = sieve_qualifying(250)
        assert res.qualifying == [7, 37, 139, 163, 181, 241]

    def test_ratio(self):
        res = sieve_qualifying(1000)
        assert res.pi == 168
        assert res.ratio == res.count / 168

    def test_rows_cover_all_primes(self):
        res = sieve_qualifying(100)
        assert [r.p for r in res.rows] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
            47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
        ]
        for row in res.rows:
            assert row.qualifying == (row.reason == "")

    def test_jobs_do_not_change_rows(self):
        base = sieve_qualifying(2000, jobs=1)
        for jobs in (2, 8):
            assert sieve_qualifying(2000, jobs=jobs).rows == base.rows

    def test_uneven_slices_join_in_order(self, monkeypatch):
        # the 303 primes up to 2000 cut into slices of 37 and 38 for two
        # workers; cut so on a machine of any size and run serially, and
        # on a pool where there are two CPUs, they give --jobs 1's bytes
        base = sieve_qualifying(2000, jobs=1)
        assert len(base.verdicts) == base.pi == 303
        assert sieve_qualifying(2000, jobs=2).verdicts == base.verdicts
        sizes = []

        def serial(fn, tasks, jobs):
            sizes.extend(map(len, tasks))
            return [fn(t) for t in tasks]

        monkeypatch.setattr(k46, "worker_count", lambda jobs, total: 2)
        monkeypatch.setattr(k46, "run_tasks", serial)
        assert sieve_qualifying(2000, jobs=2).verdicts == base.verdicts
        assert sizes == [37] + [38] * 7

    def test_csv_roundtrip(self):
        res = sieve_qualifying(100)
        header, *rows = csv.reader(sieve_csv_lines(res))
        assert header == ["p", "qualifying", "reason"]
        back = [SieveRow(int(p), q == "1", reason) for p, q, reason in rows]
        assert back == res.rows

    def test_rows_need_no_second_primality_test(self, monkeypatch):
        # the Eratosthenes list certifies each row; a single p is still tested
        base = sieve_qualifying(3000)

        def forbidden(n):
            raise AssertionError(f"is_prime({n}) called")

        monkeypatch.setattr(k46, "is_prime", forbidden)
        assert sieve_qualifying(3000).rows == base.rows
        monkeypatch.undo()
        assert qualifying_verdict(91) == (False, "91 is not prime")

    def test_reason_counts_to_2e5(self):
        res = sieve_qualifying(200000)
        assert res.pi == 17984
        assert Counter(reason_class(r) for r in res.rows) == {
            "not_1_mod_3": 8994,
            "two_cube": 2987,
            "three_cube": 2001,
            "six_not_cube": 2020,
            "disc": 2,
            "qualifying": 1980,
        }

    def test_summary_fields(self):
        s = sieve_summary(sieve_qualifying(150))
        assert s["limit"] == 150
        assert s["count"] == 3
        assert s["pi"] == 35
        assert s["target"] == 1 / 9
        assert abs(s["ratio"] - 3 / 35) < 1e-12


class TestBuild:
    def test_vertices_at_seven(self):
        w = build_witness(is_qualifying_prime(7))
        assert w.A == [
            Vertex((0, 0, 0), 3),
            Vertex((1, 0, 0), 4),
            Vertex((2, 0, 0), 5),
            Vertex((1, 1, 0), 6),
        ]
        assert w.B == [
            Vertex((6, 0, 1), 1),
            Vertex((6, 0, 2), 1),
            Vertex((6, 0, 4), 1),
            Vertex((6, 3, 5), 2),
            Vertex((6, 2, 2), 5),
            Vertex((6, 4, 1), 5),
        ]

    def test_second_coordinates_at_seven(self):
        w = build_witness(is_qualifying_prime(7))
        assert [v.a for v in w.B] == [1, 1, 1, 2, 5, 5]

    def test_all_ten_distinct(self):
        for p in (7, 37, 139):
            w = build_witness(is_qualifying_prime(p))
            ids = {(v.alpha, v.a) for v in w.A + w.B}
            assert len(ids) == 10

    def test_degeneracy_guard_fires_on_fake_certificate(self):
        # duplicate cubic roots force a vertex collision
        fake = QualifyingCertificate(p=7, zeta=2, cubic_roots=(0, 0, 5))
        with pytest.raises(DegeneracyError):
            build_witness(fake)

    def test_every_root_ordering_gives_the_same_vertex_set(self):
        cert = is_qualifying_prime(37)
        canonical = build_witness(cert)
        for order in itertools.permutations(range(3)):
            w = build_witness(cert, root_order=order)
            assert set(w.B) == set(canonical.B)
            assert verify_witness(w).passed

    @pytest.mark.parametrize("p", [7, 37])
    def test_left_side_at_the_generator_is_A(self, p):
        w = build_witness(is_qualifying_prime(p))
        assert k46.left_side(w.field, w.field.gen) == w.A

    def test_left_side_in_another_field_is_the_planted_quadruple(self):
        from test_acceptance import planted_quadruple

        G = make_graph(7, 4)
        theta = polys.find_root_in_ext(k46.X3_MINUS_2, G.field, seed=0)
        ids = tuple(G.vertex_id(v) for v in k46.left_side(G.field, theta))
        assert ids == planted_quadruple(G)

    def test_root_order_must_be_a_permutation(self):
        cert = is_qualifying_prime(7)
        with pytest.raises(ValueError):
            build_witness(cert, root_order=(0, 1, 1))


def reencode(F, theta, alpha):
    """c0 + c1 x + c2 x^2 over x^3 - 2, as c0 + c1 theta + c2 theta^2 in F."""
    out = F.zero
    for c in reversed(alpha):
        out = F.add(F.mul(out, theta), F.from_base(c))
    return out


def test_planted_quadruple_sees_the_reencoded_right_side():
    G = make_graph(7, 4)
    F = G.field
    # the census field is not the witness field, so x -> theta is no identity
    assert F.modulus != tuple(c % 7 for c in k46.X3_MINUS_2)
    theta = polys.find_root_in_ext(k46.X3_MINUS_2, F, seed=0)
    w = build_witness(is_qualifying_prime(7))
    planted = planted_quadruple(G)
    left = [Vertex(reencode(F, theta, v.alpha), v.a) for v in w.A]
    assert [G.vertex_id(v) for v in left] == list(planted)
    common = G.common_neighbors([G.vertex_from_id(i) for i in planted])
    assert len(common) == 6
    assert set(common) == {Vertex(reencode(F, theta, v.alpha), v.a) for v in w.B}


class TestVerify:
    def test_seven_passes_48(self):
        w = build_witness(is_qualifying_prime(7))
        report = verify_witness(w)
        assert report.passed
        assert report.adjacency_checked == 24
        assert report.adjacency_failures == []
        assert report.identity_checked == 24
        assert report.identity_failures == []

    def test_canonical_witness_recognized(self):
        w = build_witness(is_qualifying_prime(37))
        G = witness_graph(w)
        assert k46.canonical_witness(G, w.A[::-1], w.B).A == w.A[::-1]
        # one left vertex swapped for a right one, or a smaller witness
        assert k46.canonical_witness(G, w.B[:1] + w.A[1:], w.A[:1] + w.B[1:]) is None
        assert k46.canonical_witness(G, w.A, w.B[:5]) is None
        # the same vertices over another modulus
        other = make_graph(37, 4, [3, 0, 0, 1])
        assert k46.canonical_witness(other, w.A, w.B) is None

    def test_witness_graph_refuses_a_foreign_field(self):
        w = build_witness(is_qualifying_prime(37))
        assert witness_graph(w).field is w.field
        foreign = w._replace(field=ExtField(37, 3, [3, 0, 0, 1]))
        with pytest.raises(ValueError, match=r"is not F_37\[x\]/\(x\^3 - 2\)"):
            witness_graph(foreign)

    def test_thirtyseven_passes(self):
        report = verify_witness(build_witness(is_qualifying_prime(37)))
        assert report.passed

    def test_tampered_root_fails(self):
        w = build_witness(is_qualifying_prime(7))
        # rebuild B[3] from eta = 1, which is not a root of the cubic
        eta = 1
        inv2, inv4 = 4, 2
        c2 = -(1 - eta) * inv4 % 7
        c1 = -(1 + eta) * inv2 % 7
        v = (1 + 3 * eta * eta) * inv4 % 7
        w.B[3] = Vertex((6, c1, c2), v)
        report = verify_witness(w)
        assert not report.passed
        assert report.adjacency_failures or report.identity_failures

    def test_bumped_coordinate_fails(self):
        w = build_witness(is_qualifying_prime(7))
        v = w.B[0]
        w.B[0] = Vertex(v.alpha, v.a % 6 + 1)
        assert not verify_witness(w).passed

    def test_common_neighbors_is_exactly_B(self):
        # the witness is maximal at small p: the common neighborhood of A
        # has exactly the six B vertices, the t = 4 ceiling
        for p in (7, 37):
            w = build_witness(is_qualifying_prime(p))
            G = witness_graph(w)
            common = G.common_neighbors(w.A)
            assert sorted(G.vertex_id(v) for v in common) == sorted(
                G.vertex_id(v) for v in w.B
            )

    def test_all_qualifying_below_1000(self):
        res = sieve_qualifying(1000)
        assert len(res.qualifying) >= 10
        for p in res.qualifying:
            report = verify_witness(build_witness(is_qualifying_prime(p)))
            assert report.passed, f"witness failed at p = {p}"


class TestVerdictSampling:
    def test_verdict_matches_naive_cube_counting(self):
        rng = random.Random(30)
        primes = [p for p in range(5, 4000) if all(p % d for d in range(2, p))]
        for p in rng.sample(primes, 60):
            cubes = {pow(x, 3, p) for x in range(1, p)}
            expected = (
                p % 3 == 1 and p % 2 != 0 and 2 not in cubes and 3 not in cubes and 6 in cubes
            )
            got, _ = qualifying_verdict(p)
            assert got == expected, f"verdict mismatch at {p}"


def cube_table(p) -> int | None:
    """The first failed cube condition at p = 1 mod 3, from the set of all
    cubes mod p."""
    cubes = {x**3 % p for x in range(1, p)}
    if 2 in cubes:
        return 0  # "2 is a cube"
    if 3 in cubes:
        return 1  # "3 is a cube"
    return None if 6 in cubes else 2  # "6 is not a cube"


def splitting_oracle(p) -> int | None:
    """The first failed cube condition at p = 1 mod 3, p > 3, by splitting
    tests: the cube roots of unity lie in F_p and the roots of x^3 - c are one
    orbit under them, so x^3 - c has no root in F_p, and is irreducible, or
    three, which it has exactly when x^p == x mod x^3 - c."""
    x = [0, 1]
    for failed, c in enumerate((2, 3)):
        if polys.poly_pow_mod(x, p, [-c, 0, 0, 1], p) == x:
            return failed
    return None if polys.poly_pow_mod(x, p, [-6, 0, 0, 1], p) == x else 2


def least_cube_roots_of_unity(limit) -> dict[int, int]:
    """p -> the least primitive cube root of unity w mod p, for each prime
    p = 1 mod 3 up to limit, with no power taken: walk x = 1, 2, ... and
    divide out of x^2 + x + 1 each prime already found to divide it.  What
    is left is 1 or a new prime q with least root x, as q > x and so two
    such primes would exceed x^2 + x + 1.  q divides again at x + kq and at
    q - 1 - x + kq, its other root.  w^2 + w + 1 = 0 is w^3 = 1, w != 1,
    and the least root is below p/2."""
    roots = {}
    due = defaultdict(list)  # x -> the primes found so far that divide x^2 + x + 1
    for x in range(1, limit // 2 + 1):
        n = x * x + x + 1
        for q in due.pop(x, ()):
            while n % q == 0:
                n //= q
            due[x + q].append(q)
        if n > 1:
            roots[n] = x
            due[x + n].append(n)
            if n - 1 - x != x:
                due[n - 1 - x].append(n)
    return {p: w for p, w in sorted(roots.items()) if p <= limit and p % 3 == 1}


class TestSplittingIndependence:
    def test_least_cube_roots_of_unity_by_search(self):
        roots = least_cube_roots_of_unity(3000)
        assert list(roots) == [p for p in primes_up_to(3000) if p % 3 == 1]
        for p, w in roots.items():
            assert w == next(x for x in range(2, p) if (x * x + x + 1) % p == 0), f"p = {p}"

    def test_splitting_route_never_computes_residues(self, monkeypatch):
        # with every residue computation disabled, the reciprocity route
        # alone must still reproduce a brute-force table of cubes
        def forbidden(*args):
            raise AssertionError("reciprocity route reached the residue route")

        monkeypatch.setattr(k46, "power_residue", forbidden)
        monkeypatch.setattr(polys, "power_residue", forbidden)
        monkeypatch.setattr(polys, "fp_pow", forbidden)
        # the discriminant and p mod 3 tests come first in _prime_verdict, so
        # both formulations see only primes p = 1 mod 3 from 7 on
        for p, w in least_cube_roots_of_unity(2000).items():
            assert k46._reciprocity_formulation(p, 2 * w + 1) == cube_table(p), f"p = {p}"

    def test_residue_route_matches_a_table_of_cubes(self):
        for p in primes_up_to(2000):
            if p % 3 == 1:
                e = (p - 1) // 3
                got = k46._residue_formulation(pow(2, e, p), pow(3, e, p), p)
                assert got == cube_table(p), f"p = {p}"

    def test_the_verdict_hands_reciprocity_a_square_root_of_minus_3(self, monkeypatch):
        # r = 2w + 1 comes from the residue route's powers: w is 2^e but at
        # the 46 primes where 2 is a cube, 31 the first, and it is no
        # power of 2 or 3 at the 12 where 3 is a cube too, 307 the first
        seen = {}
        reciprocity = k46._reciprocity_formulation

        def spy(p, r):
            seen[p] = r
            return reciprocity(p, r)

        monkeypatch.setattr(k46, "_reciprocity_formulation", spy)
        sieve_qualifying(2000)
        assert list(seen) == [p for p in primes_up_to(2000) if p % 3 == 1 and p > 3]
        assert all((r * r + 3) % p == 0 for p, r in seen.items())

    def test_reciprocity_matches_the_splitting_tests_to_1e5(self):
        for p, w in least_cube_roots_of_unity(10**5).items():
            assert k46._reciprocity_formulation(p, 2 * w + 1) == splitting_oracle(p), f"p = {p}"

    def test_the_other_square_root_of_minus_3_gives_the_same_verdicts(self):
        # -r = 2w^2 + 1 for the other primitive cube root of unity w^2: Euclid
        # takes another path to (a, b), and the verdict must not move
        for p, w in least_cube_roots_of_unity(10**4).items():
            r = 2 * w + 1
            assert (r * r + 3) % p == 0
            assert k46._reciprocity_formulation(p, -r) == k46._reciprocity_formulation(p, r)

    @pytest.mark.parametrize("root", [1, 2])
    def test_a_wrong_square_root_fails_the_norm_check(self, root):
        # neither 1 nor 2 squares to -3 mod 37, and Euclid on (37, root)
        # stops at a pair whose norm is not 37
        with pytest.raises(AssertionError, match=r"a\^2 - ab \+ b\^2 = 37"):
            k46._reciprocity_formulation(37, root)

    @pytest.mark.parametrize("p", [5, 11])
    def test_cube_conditions_need_p_1_mod_3(self, p):
        # at p = 2 mod 3 every element is a cube, -3 is no square and p is
        # no a^2 - ab + b^2, so there is no pi to read the characters at
        with pytest.raises(ValueError, match="p = 1 mod 3"):
            k46._reciprocity_formulation(p, 1)

    def test_splitting_calls_count_the_conditions_decided(self, monkeypatch):
        # the tracer's k46.splitting_calls: the sieve makes no poly_pow_mod
        # or is_irreducible call, and each certificate of a qualifying prime
        # makes two is_irreducible calls, one each for x^3 - 2 and x^3 - 3
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(k46, "poly_pow_mod", counted("poly_pow_mod", k46.poly_pow_mod))
        monkeypatch.setattr(k46, "is_irreducible", counted("is_irreducible", k46.is_irreducible))
        res = sieve_qualifying(20000)
        assert calls == []
        for p in res.qualifying[:40]:
            is_qualifying_prime(p)
        assert calls == ["is_irreducible"] * 80
        for p in (5, 13, 31, 49):
            is_qualifying_prime(p)
        assert len(calls) == 80

    def test_certificate_checks_eulers_criterion(self, monkeypatch):
        # a power_residue that calls 6 no cube must stop the certificate of
        # a prime both formulations pass
        residue = k46.power_residue
        monkeypatch.setattr(k46, "power_residue", lambda a, m, p: a != 6 and residue(a, m, p))
        with pytest.raises(AssertionError, match="Euler's criterion .* qualifying p = 37"):
            is_qualifying_prime(37)

    def test_certificate_checks_irreducibility(self, monkeypatch):
        # an is_irreducible that calls x^3 - 3 reducible must stop the
        # certificate of a prime both formulations pass
        monkeypatch.setattr(k46, "is_irreducible", lambda h, p: h != k46.X3_MINUS_3)
        with pytest.raises(AssertionError, match="reducible at qualifying p = 37"):
            is_qualifying_prime(37)
