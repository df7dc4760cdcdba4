"""Parameter search and witness pipeline for the general biclique family."""

import random

import pytest

from normgraph import general, graph
from normgraph.ff import ExtField
from normgraph.general import (
    GeneralParams,
    build_general_witness,
    find_parameters,
    general_witness_from_json,
    general_witness_to_json,
    shifted_poly,
    verify_general_witness,
)
from normgraph.graph import BicliqueReport, BicliqueWitness, Vertex
from normgraph.polys import eval_in_ext, poly_eval, poly_gcd
from normgraph.primes import primes_up_to


def pairs(results):
    return [(g.p, g.r) for g in results]


def alphas(w):
    """The roots alpha_i, read from the B vertices (-alpha_i, theta_i - r)."""
    return [w.field.neg(v.alpha) for v in w.B]


def count_scans(monkeypatch) -> list[int]:
    """Record the prime of every in-process general._scan_prime call."""
    scanned, scan = [], general._scan_prime

    def counted(task):
        scanned.append(task[2])
        return scan(task)

    monkeypatch.setattr(general, "_scan_prime", counted)
    return scanned


class TestFindParameters:
    def test_m2_limit20(self):
        # mod 17: x^3 - x has value set {0,1,4,6,7,8,9,10,11,13,16};
        # 2 has square roots 6 and 11, and r - 6, r - 11 both avoid the
        # value set exactly for r in {8, 9}
        results = find_parameters(4, 2, 20)
        assert pairs(results) == [(17, 8), (17, 9)]
        for g in results:
            assert g.thetas == (6, 11)
            assert g.zeta == 16
            assert g.t == 4 and g.m == 2

    def test_m2_limit10_empty(self):
        # mod 7 the square roots of 2 are 3 and 4, and no r dodges the
        # value set {0,1,3,4,6} for both; smaller primes fail the residue
        # condition (2 is a square mod p only for p = 7 below 10)
        assert find_parameters(4, 2, 10) == []

    def test_m1_limit7(self):
        # theta = 2 and x^3 - x + 2 - r just needs to be root-free:
        # mod 3 the value set is {0}, mod 5 it is {0,1,4}, mod 7 {0,1,3,4,6}
        results = find_parameters(4, 1, 7)
        assert pairs(results) == [(3, 0), (3, 1), (5, 0), (5, 4), (7, 0), (7, 4)]
        assert all(g.thetas == (2,) for g in results)

    def test_max_results_truncates_in_order(self):
        full = find_parameters(4, 1, 7)
        head = find_parameters(4, 1, 7, max_results=3)
        assert head == full[:3]
        assert find_parameters(4, 1, 7, max_results=50) == full

    def test_stable_across_jobs_and_reruns(self):
        base = find_parameters(4, 2, 100)
        assert base == find_parameters(4, 2, 100)
        assert base == find_parameters(4, 2, 100, jobs=2)
        assert base == find_parameters(4, 2, 100, jobs=8)

    def test_max_results_consistent_under_jobs(self):
        full = find_parameters(4, 2, 100)
        assert find_parameters(4, 2, 100, max_results=4, jobs=2) == full[:4]

    def test_first_result_scans_one_block(self, monkeypatch):
        # the answer p = 17 lies in the first block of 64 primes, so the
        # rest of the 2262 primes up to 20000 are never scanned
        scanned = count_scans(monkeypatch)
        assert pairs(find_parameters(4, 2, 20000, max_results=1)) == [(17, 8)]
        assert 0 < len(scanned) <= 64

    def test_quota_past_first_block(self, monkeypatch):
        full = find_parameters(4, 2, 700)
        n = 1 + sum(g.p <= primes_up_to(700)[63] for g in full)
        assert find_parameters(4, 2, 2000, max_results=n, jobs=2) == full[:n]
        scanned = count_scans(monkeypatch)
        assert find_parameters(4, 2, 2000, max_results=n) == full[:n]
        # the scan stops at 313, the 65th prime, where result n is found
        assert full[n - 1].p == 313
        assert scanned == list(primes_up_to(2000)[:65])

    def test_first_result_stops_at_its_prime(self, monkeypatch):
        # (17, 8) is found at 17, the 7th prime, and the scan stops there
        scanned = count_scans(monkeypatch)
        assert pairs(find_parameters(4, 2, 1000, max_results=1, jobs=2)) == [(17, 8)]
        assert scanned == [2, 3, 5, 7, 11, 13, 17]

    def test_all_is_one_pass(self, monkeypatch):
        scanned = count_scans(monkeypatch)
        find_parameters(4, 2, 700)
        assert scanned == list(primes_up_to(700))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            find_parameters(3, 2, 100)
        with pytest.raises(ValueError):
            find_parameters(4, 0, 100)

    def test_t5_congruence_filter(self):
        # t = 5 needs p = 1 mod 3; no prime below 7 has both that and a
        # root-free quartic shift for theta = 2
        for g in find_parameters(5, 1, 60):
            assert g.p % 3 == 1
            assert pow(g.zeta, 3, g.p) == 1 and g.zeta != 1


class TestBuildWitness:
    def params_17_9(self):
        results = find_parameters(4, 2, 20)
        return results[1]

    def test_structure_at_17_9(self):
        w = build_general_witness(self.params_17_9())
        assert w.A == [
            Vertex((16, 0, 0), 1),
            Vertex((1, 0, 0), 1),
            Vertex((0, 0, 0), 1),
        ]
        assert alphas(w)[0] == w.field.gen
        assert w.B[0] == Vertex(w.field.neg(w.field.gen), 14)  # 6 - 9 = -3
        assert w.B[1].a == 2  # 11 - 9
        # the second root solves x^3 - x + 2 over the extension
        h2 = shifted_poly(4, 11, 9, 17)
        assert eval_in_ext(h2, alphas(w)[1], w.field) == w.field.zero

    def test_first_modulus_is_first_shift(self):
        w = build_general_witness(self.params_17_9())
        assert list(w.field.modulus) == shifted_poly(4, 6, 9, 17)
        assert eval_in_ext(w.field.modulus, alphas(w)[0], w.field) == w.field.zero

    def test_m1_witness_shape(self):
        g = find_parameters(4, 1, 7)[4]
        assert (g.p, g.r) == (7, 0)
        w = build_general_witness(g)
        assert [v.a for v in w.A] == [1, 1, 1]
        assert w.B == [Vertex(w.field.neg(w.field.gen), 2)]

    def test_distinct_vertices(self):
        w = build_general_witness(self.params_17_9())
        seen = {(v.alpha, v.a) for v in w.A + w.B}
        assert len(seen) == 5

    def test_rejects_vanishing_shift(self):
        bad = GeneralParams(t=4, m=1, p=7, r=2, thetas=(2,), zeta=6)
        with pytest.raises(ValueError):
            build_general_witness(bad)

    def test_repeated_root_is_refused(self, monkeypatch):
        # the splitter returns the first root, the class of x, again
        monkeypatch.setattr(general, "find_root_in_ext", lambda h, field, seed: field.gen)
        with pytest.raises(AssertionError, match="extracted roots are not pairwise distinct"):
            build_general_witness(self.params_17_9())

    def test_repeated_vertex_is_refused(self):
        # zeta = 1 at t = 4 makes A's first two vertices both (1, 1)
        params = self.params_17_9()._replace(zeta=1)
        with pytest.raises(AssertionError, match="witness vertices are not pairwise distinct"):
            build_general_witness(params)


class TestVerifyWitness:
    def build_17_9(self, seed=0):
        return build_general_witness(find_parameters(4, 2, 20)[1], seed=seed)

    def test_passes_both_layers(self):
        report = verify_general_witness(self.build_17_9())
        assert report.passed
        assert report.adjacency_checked == 6
        assert report.identity_checked == 6
        assert report.biclique.report.pairs_checked == 6
        assert report.adjacency_failures == []
        assert report.identity_failures == []

    def test_identity_count_follows_the_checks_run(self):
        # one identity per (B vertex, c): a side one vertex short runs 3
        w = self.build_17_9()
        report = verify_general_witness(w._replace(B=w.B[:1]))
        assert report.identity_checked == 3 and report.identity_failures == []

    def test_m1_passes(self):
        g = find_parameters(4, 1, 7)[4]
        report = verify_general_witness(build_general_witness(g))
        assert report.passed
        assert report.adjacency_checked == 3

    def test_every_seed_yields_valid_witness(self):
        base = None
        for seed in (0, 1, 2, 3):
            w = self.build_17_9(seed=seed)
            assert verify_general_witness(w).passed
            if base is None:
                base = w.B
        # seed 0 twice gives the identical witness
        assert self.build_17_9(seed=0).B == base

    def test_all_parameters_below_100_verify(self):
        results = find_parameters(4, 2, 100)
        assert results, "search space unexpectedly empty"
        for g in results:
            report = verify_general_witness(build_general_witness(g))
            assert report.passed, f"witness for p={g.p}, r={g.r} failed"

    def test_shifted_polynomials_pairwise_coprime(self):
        for g in find_parameters(4, 2, 50):
            a, b = (shifted_poly(4, th, g.r, g.p) for th in g.thetas)
            assert poly_gcd(a, b, g.p) == [1]

    def test_norm_matches_evaluation_at_random_points(self):
        w = self.build_17_9()
        rng = random.Random(20260816)
        for _ in range(100):
            c = rng.randrange(17)
            ce = w.field.from_base(c)
            for alpha, th in zip(alphas(w), w.params.thetas):
                h = shifted_poly(4, th, 9, 17)
                assert w.field.norm(w.field.sub(ce, alpha)) == poly_eval(h, c, 17)

    def test_tampered_second_coordinate_fails(self):
        w = self.build_17_9()
        w.B[0] = Vertex(w.B[0].alpha, (w.B[0].a + 1) % 17)
        report = verify_general_witness(w)
        assert not report.passed
        assert report.identity_failures

    def test_tampered_alpha_fails(self):
        w = self.build_17_9()
        w.B[1] = Vertex(w.field.from_base(5), w.B[1].a)
        report = verify_general_witness(w)
        assert not report.passed

    def test_identities_catch_a_zeta_that_passed_its_check(self, monkeypatch):
        # zeta = 3 with A rebuilt around it, and the least-root check fooled:
        # at c = 3 and 9, c^3 - c != 0 mod 17, so h_i(c) != theta_i - r
        w = self.build_17_9()
        A = [Vertex(w.field.from_base(c), 1) for c in (3, 9)] + [Vertex(w.field.zero, 1)]
        w = w._replace(params=w.params._replace(zeta=3), A=A)
        monkeypatch.setattr(general, "primitive_nth_root", lambda n, p: 3)
        report = verify_general_witness(w)
        assert report.identity_checked == 6
        assert [msg.split(":")[0] for msg in report.identity_failures] == [
            f"identity fails for B[{i}] at c = {c}" for i in (0, 1) for c in (3, 9)
        ]


# the first parameter set each search finds at (t, m) = (4, 2), (5, 3), (6, 3)
LAYER_CASES = [(4, 2, 20), (5, 3, 50), (6, 3, 2000)]


def passing_graph_layer(monkeypatch):
    """Stub NormGraph.verify_biclique with a passing report, so that a test
    sees the identity layer alone."""

    def passing(self, L, R):
        report = BicliqueReport(True, True, True, len(L) * len(R), [])
        return BicliqueWitness(list(L), list(R), report)

    monkeypatch.setattr(graph.NormGraph, "verify_biclique", passing)


def no_norms(monkeypatch):
    def refuse(self, a):
        raise AssertionError("a norm was computed")

    for name in ("norm", "norm_conj", "norm_det"):
        monkeypatch.setattr(ExtField, name, refuse)


def replace_theta(w, i, theta):
    thetas = list(w.params.thetas)
    thetas[i] = theta
    return w._replace(params=w.params._replace(thetas=tuple(thetas)))


def non_root(w):
    """theta_2 moved to the least residue that is not a root of x^m - 2."""
    p, m = w.params.p, w.params.m
    return replace_theta(w, 1, next(x for x in range(p) if pow(x, m, p) != 2))


def swapped_thetas(w):
    first, second, *rest = w.params.thetas
    return w._replace(params=w.params._replace(thetas=(second, first, *rest)))


def edited_zeta(w):
    return w._replace(params=w.params._replace(zeta=w.params.zeta ** 2 % w.params.p))


def edited_left_vertex(w):
    alpha = (w.A[0].alpha[0], 1, *w.A[0].alpha[2:])
    return w._replace(A=[Vertex(alpha, 1), *w.A[1:]])


def edited_alpha(w):
    alpha = list(w.B[1].alpha)
    alpha[1] = (alpha[1] + 1) % w.params.p
    return w._replace(B=[w.B[0], Vertex(tuple(alpha), w.B[1].a), *w.B[2:]])


class TestIdentityLayer:
    @pytest.mark.parametrize("t, m, limit", LAYER_CASES)
    def test_passes_with_every_norm_route_refused(self, monkeypatch, t, m, limit):
        w = build_general_witness(find_parameters(t, m, limit, max_results=1)[0])
        passing_graph_layer(monkeypatch)
        no_norms(monkeypatch)
        report = verify_general_witness(w)
        assert report.passed
        assert report.identity_checked == (t - 1) * m

    @pytest.mark.parametrize(
        "edit", [non_root, swapped_thetas, edited_zeta, edited_left_vertex, edited_alpha]
    )
    @pytest.mark.parametrize("t, m, limit", LAYER_CASES)
    def test_each_edit_fails_the_layer(self, monkeypatch, t, m, limit, edit):
        w = edit(build_general_witness(find_parameters(t, m, limit, max_results=1)[0]))
        passing_graph_layer(monkeypatch)
        no_norms(monkeypatch)
        try:
            report = verify_general_witness(w)
        except ValueError:
            return
        assert report.identity_failures

    def test_thetas_off_x_m_minus_2_are_refused(self):
        # x^3 - x + s is irreducible mod 17 for s = 7 - 9 and 12 - 9, so the
        # witness on thetas 7 and 12 is consistent but for 7^2, 12^2 != 2
        w = build_general_witness(find_parameters(4, 2, 20)[1]._replace(thetas=(7, 12)))
        with pytest.raises(ValueError, match=r"thetas \[7, 12\] are not all roots of x\^2 - 2"):
            verify_general_witness(w)

    def test_repeated_theta_is_refused(self):
        # B[1] on the conjugate x^17 of B[0]'s root, with theta_2 = theta_1:
        # a K_{3,2}, but not the construction's
        w = build_general_witness(find_parameters(4, 2, 20)[1])
        conjugate = w.field.neg(w.field.frobenius(w.field.gen))
        w = replace_theta(w, 1, 6)._replace(B=[w.B[0], Vertex(conjugate, w.B[0].a)])
        with pytest.raises(ValueError, match=r"thetas \[6, 6\] are not distinct mod 17"):
            verify_general_witness(w)

    def test_reducible_shift_fails_its_identities(self):
        # at r = 1, h_1 = x^3 - x + 5 is irreducible mod 17 but h_2 =
        # x^3 - x + 10 has a root x0 in F_17, which B[1] stores
        p, r = 17, 1
        h2 = shifted_poly(4, 11, r, p)
        x0 = next(x for x in range(p) if poly_eval(h2, x, p) == 0)
        params = find_parameters(4, 2, 20)[1]._replace(r=r)
        field = ExtField(p, 3, shifted_poly(4, 6, r, p))
        A = [Vertex(field.from_base(c), 1) for c in (16, 1, 0)]
        B = [Vertex(field.neg(field.gen), 5), Vertex(field.from_base(-x0), 10)]
        report = verify_general_witness(general.GeneralWitness(params, field, A, B))
        assert [msg.split(":")[:2] for msg in report.identity_failures] == [
            [f"identity fails for B[1] at c = {c}", " h irreducible False, h(alpha) = 0 True, "
             "evaluation 10, second coordinate 10, expected 10"]
            for c in (0, 16, 1)
        ]

    def test_edited_alpha_is_not_a_root(self):
        w = edited_alpha(build_general_witness(find_parameters(4, 2, 20)[1]))
        report = verify_general_witness(w)
        assert [msg.split(",")[1] for msg in report.identity_failures] == [" h(alpha) = 0 False"] * 3

    def test_field_must_be_over_the_first_shift(self):
        w = build_general_witness(find_parameters(4, 2, 20)[1])
        other = ExtField(17, 3, shifted_poly(4, 11, 9, 17))
        with pytest.raises(ValueError, match="field is not F_17"):
            verify_general_witness(w._replace(field=other))


class TestSerialization:
    def make(self):
        w = build_general_witness(find_parameters(4, 2, 20)[1])
        return w, general_witness_to_json(w, verified=True)

    def test_keys_exact(self):
        _, data = self.make()
        assert set(data) == {"t", "m", "p", "r", "thetas", "zeta", "A", "B", "verified"}
        assert data["p"] == 17 and data["r"] == 9
        assert data["thetas"] == [6, 11]
        assert data["zeta"] == 16
        assert data["verified"] is True

    def test_graph_witness_rejected(self):
        G = graph.make_graph(3, 3)
        data = graph.witness_to_json(G, [G.vertex_from_id(0)], [G.vertex_from_id(1)], True)
        with pytest.raises(ValueError, match="not a general witness"):
            general_witness_from_json(data)

    def test_roundtrip_verifies(self):
        w, data = self.make()
        back = general_witness_from_json(data)
        assert back.A == w.A and back.B == w.B
        assert back.field.modulus == w.field.modulus
        assert verify_general_witness(back).passed

    def test_missing_key_rejected(self):
        _, data = self.make()
        del data["zeta"]
        with pytest.raises(ValueError):
            general_witness_from_json(data)

    def test_wrong_vertex_count_rejected(self):
        _, data = self.make()
        data["A"] = data["A"][:2]
        with pytest.raises(ValueError):
            general_witness_from_json(data)

    def test_out_of_range_coordinate_rejected(self):
        _, data = self.make()
        data["B"][0]["alpha"][0] = 17
        with pytest.raises(ValueError):
            general_witness_from_json(data)

    def test_zero_second_coordinate_rejected(self):
        _, data = self.make()
        data["A"][0]["a"] = 0
        with pytest.raises(ValueError):
            general_witness_from_json(data)

    def test_shift_tampered_to_reducible_modulus(self):
        _, data = self.make()
        # r = 10 puts a root back into x^3 - x + 6 - r, so the field
        # constructor itself must refuse
        data["r"] = 10
        with pytest.raises(ValueError):
            general_witness_from_json(data)

    def test_shift_tampered_to_other_valid_modulus(self):
        _, data = self.make()
        # r = 8 keeps every shift irreducible but breaks the stored
        # second coordinates, so verification has to fail
        data["r"] = 8
        back = general_witness_from_json(data)
        report = verify_general_witness(back)
        assert not report.passed
        assert report.identity_failures
