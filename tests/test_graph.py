import functools
import itertools
import math
import operator
import os
import random
import tracemalloc

import pytest

from normgraph import ff, general, graph, k46
from normgraph.graph import (
    NormGraph,
    Vertex,
    _census_search,
    check_vertices,
    make_graph,
    vertex_to_obj,
    witness_to_json,
)


def p74():
    return make_graph(7, 4, [-2, 0, 0, 1])


def vertices(G):
    return map(G.vertex_from_id, range(G.n))


def neighbors(G, u):
    return G.common_neighbors([u])


class TestConstruction:
    def test_vertex_counts(self):
        assert p74().n == 2058  # 343 * 6
        assert make_graph(3, 4).n == 54  # 27 * 2
        assert make_graph(5, 3).n == 100  # 25 * 4

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_graph(6, 4)
        with pytest.raises(ValueError):
            make_graph(7, 2)
        with pytest.raises(ValueError):
            make_graph(7, 4, [-6, 0, 0, 1])  # x^3 - 6 splits mod 7

    def test_default_modulus_is_stable(self):
        g1 = make_graph(3, 4)
        g2 = make_graph(3, 4)
        assert g1.field.modulus == g2.field.modulus

    def test_vertex_id_bijection(self):
        G = make_graph(3, 4)
        seen = set()
        for v in vertices(G):
            vid = G.vertex_id(v)
            assert G.vertex_from_id(vid) == v
            seen.add(vid)
        assert seen == set(range(54))

    def test_vertex_validation(self):
        G = p74()
        with pytest.raises(ValueError):
            G.check_vertex(Vertex((0, 0, 0), 0))  # a must be nonzero
        with pytest.raises(ValueError):
            G.check_vertex(Vertex((0, 0), 3))  # wrong alpha length
        with pytest.raises(ValueError):
            G.check_vertex(Vertex((0, 0, 7), 3))  # coefficient out of range
        with pytest.raises(ValueError):
            G.check_vertex(Vertex((0, 0, 0), True))  # a bool is not an int
        with pytest.raises(ValueError):
            G.check_vertex(Vertex((0.5, 0, 0), 1))  # float coefficient
        with pytest.raises(ValueError):
            G.check_vertex(Vertex([0, 0, 0], 1))  # alpha is not a tuple
        # the rule holds on every path in, as it does for JSON vertices
        with pytest.raises(ValueError):
            G.adjacent(Vertex((0.5, 0, 0), 1), Vertex((0, 0, 0), 1))
        with pytest.raises(ValueError):
            G.common_neighbors([Vertex((1.0, 0, 0), 1)])


class TestAdjacency:
    def test_known_edge(self):
        G = p74()
        # norm(theta^2 - 1) = (-1)^3 + 4*1 = 3 = 3*1
        assert G.adjacent(Vertex((0, 0, 0), 3), Vertex((6, 0, 1), 1)) is True

    def test_second_known_edge(self):
        G = p74()
        # norm(5theta^2 + 3theta) = 2*27 + 4*125 = 1 = 4*2 mod 7
        assert G.adjacent(Vertex((1, 0, 0), 4), Vertex((6, 3, 5), 2)) is True

    def test_opposite_alphas_never_adjacent(self):
        G = p74()
        rng = random.Random(20)
        for _ in range(50):
            alpha = G.field.element_from_index(rng.randrange(343))
            a = rng.randrange(1, 7)
            b = rng.randrange(1, 7)
            u = Vertex(alpha, a)
            v = Vertex(G.field.neg(alpha), b)
            if u == v:
                continue
            assert G.adjacent(u, v) is False

    def test_loop_query_rejected(self):
        G = p74()
        u = Vertex((1, 2, 3), 4)
        with pytest.raises(ValueError):
            G.adjacent(u, u)

    def test_symmetry_seeded(self):
        G = p74()
        rng = random.Random(21)
        for _ in range(10**4):
            u = G.vertex_from_id(rng.randrange(G.n))
            v = G.vertex_from_id(rng.randrange(G.n))
            if u == v:
                continue
            assert G.adjacent(u, v) == G.adjacent(v, u)


class TestNeighborhoods:
    def test_degree_range_p33(self):
        G = make_graph(3, 3)
        degs = {len(neighbors(G, v)) for v in vertices(G)}
        assert degs <= {7, 8}  # p^(t-1) - 2 and - 1

    def test_degree_range_p34_and_p53(self):
        for G in (make_graph(3, 4), make_graph(5, 3)):
            lo = G.qprime - 2
            for v in vertices(G):
                nbrs = neighbors(G, v)
                assert len(nbrs) in (lo, lo + 1)

    def test_neighbors_sorted_and_adjacent(self):
        G = make_graph(3, 3)
        for vid in range(0, G.n, 5):
            u = G.vertex_from_id(vid)
            nbrs = neighbors(G, u)
            ids = [G.vertex_id(w) for w in nbrs]
            assert ids == sorted(ids)
            for w in nbrs:
                assert G.adjacent(u, w)

    def test_neighbors_complete(self):
        # brute force against the adjacency oracle
        G = make_graph(3, 3)
        for vid in range(G.n):
            u = G.vertex_from_id(vid)
            expected = [
                w for w in vertices(G) if w != u and G.adjacent(u, w)
            ]
            assert neighbors(G, u) == expected

    def test_common_neighbors_definition(self):
        G = make_graph(3, 4)
        rng = random.Random(22)
        for _ in range(30):
            ids = rng.sample(range(G.n), 3)
            S = [G.vertex_from_id(i) for i in ids]
            got = G.common_neighbors(S)
            expected = [
                w
                for w in vertices(G)
                if G.vertex_id(w) not in ids
                and all(G.adjacent(w, s) for s in S)
            ]
            assert got == expected

    def test_query_size_limits(self):
        G = make_graph(3, 4)
        with pytest.raises(ValueError):
            G.common_neighbors([])
        with pytest.raises(ValueError):
            G.common_neighbors([G.vertex_from_id(i) for i in range(9)])
        with pytest.raises(ValueError):
            G.common_neighbors([G.vertex_from_id(0), G.vertex_from_id(0)])


def direct_bitset(G, vid):
    """Vertex vid's bitset from field.add and the norm table, with no
    rotation: bit id(beta, b) for each beta with N(alpha + beta) = ab."""
    p, norms = G.p, G._norm_table()
    alpha, a = G.vertex_from_id(vid)
    bits = 0
    for j, beta in enumerate(G.field.elements()):
        v = norms[G.field.index(G.field.add(alpha, beta))]
        if v:
            bits |= 1 << (j * (p - 1) + v * ff.fp_inv(a, p) % p - 1)
    return bits & ~(1 << vid)


class TestBitsets:
    """The census bitsets, the base rows of the vertices (0, a) rotated by
    alpha's digits, against the adjacency oracle, which runs both norm routes
    on every pair, and against bitsets built with no rotation."""

    @staticmethod
    def agrees(G, bitsets, u, v):
        if u == v:
            return not bitsets[u] >> u & 1  # no bitset holds its own bit
        adjacent = G.adjacent(G.vertex_from_id(u), G.vertex_from_id(v))
        return (bitsets[u] >> v & 1) == adjacent

    @pytest.mark.parametrize("p, t", [(2, 5), (3, 4), (5, 3), (3, 5)])
    def test_every_ordered_pair(self, p, t):
        G = make_graph(p, t)
        bitsets = G._all_bitsets()
        assert all(bits < 1 << G.n for bits in bitsets)
        for u, v in itertools.product(range(G.n), repeat=2):
            assert self.agrees(G, bitsets, u, v), (u, v)

    @pytest.mark.parametrize("p, t", [(7, 4), (5, 5)])
    def test_seeded_pairs(self, p, t):
        G = make_graph(p, t)
        bitsets = G._all_bitsets()
        assert all(not bits >> vid & 1 for vid, bits in enumerate(bitsets))
        rng = random.Random(p * 10 + t)
        for _ in range(500):
            u, v = rng.randrange(G.n), rng.randrange(G.n)
            assert self.agrees(G, bitsets, u, v), (u, v)

    @pytest.mark.parametrize("p, t", [(2, 4), (2, 5), (3, 4), (5, 3), (3, 5)])
    def test_table_equals_unrotated_build(self, p, t):
        G = make_graph(p, t)
        assert G._all_bitsets() == [direct_bitset(G, vid) for vid in range(G.n)]

    @pytest.mark.parametrize("p, t", [(7, 4), (11, 4)])
    def test_seeded_vertices_equal_unrotated_build(self, p, t):
        G = make_graph(p, t)
        bitsets = G._all_bitsets()
        for vid in random.Random(p).sample(range(G.n), 200):
            assert bitsets[vid] == direct_bitset(G, vid), vid

    @pytest.mark.parametrize("p, t", [(2, 5), (3, 4), (5, 3), (7, 3)])
    def test_degrees_sum_to_identity(self, p, t):
        G = make_graph(p, t)
        degrees = sum(bits.bit_count() for bits in G._all_bitsets())
        assert degrees == G.degree_sum()
        assert degrees == (G.qprime - 1) * (G.n - (p % 2))

    def test_kept_loop_fails_the_degree_sum(self, monkeypatch):
        G = make_graph(3, 4)
        loops = G._loop_ids()
        monkeypatch.setattr(NormGraph, "_loop_ids", lambda graph: loops - {min(loops)})
        with pytest.raises(AssertionError, match="bitset degrees sum to 1379, not 1378"):
            G._all_bitsets()
        assert G._bitsets is None

    @pytest.mark.parametrize("both_ways", [False, True])
    def test_probe_catches_a_flipped_bit(self, both_ways):
        # the first probed pair; flipped both ways the table stays symmetric,
        # and only the adjacency check sees it
        G = make_graph(3, 4)
        rng = random.Random(graph.SYMMETRY_SEED)
        i, j = rng.randrange(G.n), rng.randrange(G.n)
        assert i != j
        table = list(G._iter_bitsets())
        G._probe_symmetry(table)
        table[i] ^= 1 << j
        if both_ways:
            table[j] ^= 1 << i
        with pytest.raises(AssertionError, match=rf"bitsets disagree at vertex pair \({i}, {j}\)"):
            G._probe_symmetry(table)

    @staticmethod
    def corrupt_table(monkeypatch, route):
        # P(3,4) with one norm route wrong at element 5 only
        G = make_graph(3, 4)
        bad = G.field.element_from_index(5)
        norm = getattr(ff.ExtField, route)

        def corrupted(field, a):
            n = norm(field, a)
            return (n + 1) % field.p if a == bad else n

        monkeypatch.setattr(ff.ExtField, route, corrupted)
        with pytest.raises(AssertionError, match="norm table mismatch at element 5"):
            G._all_bitsets()

    def test_norm_table_routes_must_agree(self, monkeypatch):
        self.corrupt_table(monkeypatch, "norm_conj")

    def test_norm_table_takes_the_determinant_of_every_element(self, monkeypatch):
        self.corrupt_table(monkeypatch, "norm_det")


class TestBiclique:
    def test_pass_by_construction(self):
        G = make_graph(3, 4)
        u = G.vertex_from_id(0)
        nbrs = neighbors(G, u)[:3]
        w = G.verify_biclique([u], nbrs)
        assert w.report.passed
        assert w.report.pairs_checked == 3
        assert w.report.failed_pairs == []

    def test_fail_on_shared_vertex(self):
        G = make_graph(3, 4)
        u = G.vertex_from_id(5)
        w = G.verify_biclique([u], [u])
        assert not w.report.disjoint
        assert not w.report.passed

    def test_fail_on_duplicates(self):
        G = make_graph(3, 4)
        u, v = G.vertex_from_id(1), G.vertex_from_id(2)
        w = G.verify_biclique([u, u], [v])
        assert not w.report.left_distinct
        assert not w.report.passed

    def test_fail_lists_offending_pairs(self):
        G = make_graph(3, 4)
        u = G.vertex_from_id(0)
        nbr = neighbors(G, u)[0]
        # bump the a-coordinate to break the norm equation
        bad = Vertex(nbr.alpha, nbr.a % (G.p - 1) + 1)
        w = G.verify_biclique([u], [bad])
        if bad != nbr:  # p = 3 leaves one alternative a, always != nbr.a
            assert w.report.failed_pairs == [(G.vertex_id(u), G.vertex_id(bad))]
            assert not w.report.passed

    def test_identity_failure_fails_a_passing_biclique(self):
        G = make_graph(3, 4)
        u = G.vertex_from_id(0)
        biclique = G.verify_biclique([u], neighbors(G, u)[:3])
        assert biclique.report.passed
        assert graph.WitnessReport(biclique, 1, []).passed
        assert not graph.WitnessReport(biclique, 1, ["stub identity failure"]).passed


    @staticmethod
    def counted(monkeypatch, owner, name) -> list:
        """Record the argument of every call to owner.name."""
        calls, orig = [], getattr(owner, name)

        def wrapper(self, arg):
            calls.append(arg)
            return orig(self, arg)

        monkeypatch.setattr(owner, name, wrapper)
        return calls

    @pytest.mark.parametrize("kind", ["canonical 4x6", "general 3x2"])
    def test_each_vertex_checked_once_and_each_pair_normed_once(self, monkeypatch, kind):
        if kind == "general 3x2":
            w = general.build_general_witness(general.find_parameters(4, 2, 20)[1])
            verify = general.verify_general_witness
        else:
            w = k46.build_witness(k46.is_qualifying_prime(7))
            verify = k46.verify_witness
        checked = self.counted(monkeypatch, NormGraph, "check_vertex")
        normed = self.counted(monkeypatch, ff.ExtField, "norm")
        report = verify(w)
        assert report.passed
        assert checked == w.A + w.B
        # ExtField.norm runs both norm routes and compares them
        assert len(normed) == len(w.A) * len(w.B) == report.adjacency_checked

    def test_malformed_vertex_refused_before_any_norm(self, monkeypatch):
        G = make_graph(3, 4)
        u = G.vertex_from_id(0)
        R = [*neighbors(G, u)[:2], Vertex((0, 0, 3), 1)]

        def refuse(self, a):
            raise AssertionError("a norm was computed")

        monkeypatch.setattr(ff.ExtField, "norm", refuse)
        with pytest.raises(ValueError, match="malformed vertex"):
            G.verify_biclique([u], R)


class TestCensus:
    def test_exhaustive_p34(self):
        G = make_graph(3, 4)
        size, subset = G.census_max_common(4)
        assert size <= 6  # the t = 4 ceiling is (t-1)! = 6
        assert size == 4  # exhaustively computed value for this graph
        assert len(subset) == 4
        common = G.common_neighbors([G.vertex_from_id(i) for i in subset])
        assert len(common) == size

    def test_exhaustive_p53(self):
        G = make_graph(5, 3)
        size, subset = G.census_max_common(3)
        assert size == 2  # hits the t = 3 ceiling (t-1)! = 2
        common = G.common_neighbors([G.vertex_from_id(i) for i in subset])
        assert len(common) == 2

    def test_exhaustive_p33(self):
        G = make_graph(3, 3)
        size, _ = G.census_max_common(3)
        assert size <= 2

    def test_budget_guard(self):
        G = p74()
        with pytest.raises(ValueError):
            G.census_max_common(4)  # C(2058,4) is astronomically over budget

    def test_memory_guard(self):
        G = make_graph(13, 5)  # n = 342732: 14.7 GB of bitsets
        with pytest.raises(ValueError, match="memory guard"):
            G.census_max_common(1, budget=10**9)
        with pytest.raises(ValueError, match="memory guard"):
            G.sample_max_common(1, trials=1, seed=0)
        assert G._norms is None  # nothing was built

    def test_memory_guard_boundary(self, monkeypatch):
        G = make_graph(3, 3)  # n = 18: 18 bitsets of 3 bytes
        monkeypatch.setattr(graph, "CENSUS_MEMORY", 54)
        assert G.census_max_common(1)[0] == G.qprime - 1
        monkeypatch.setattr(graph, "CENSUS_MEMORY", 53)
        with pytest.raises(ValueError, match="memory guard"):
            G.census_max_common(1)

    def test_sampled_census_bounds(self):
        G = make_graph(3, 4)
        size, subset = G.sample_max_common(4, trials=500, seed=0)
        assert size <= 6
        assert len(subset) == 4

    def test_sampled_census_deterministic(self):
        G = make_graph(3, 4)
        a = G.sample_max_common(4, trials=300, seed=7)
        b = G.sample_max_common(4, trials=300, seed=7)
        assert a == b

    def test_planted_subset_is_found(self):
        G = make_graph(3, 4)
        true_max, argmax = G.census_max_common(4)
        size, subset = G.sample_max_common(4, trials=5, seed=1, planted=(argmax,))
        assert size == true_max

    def test_sample_keeps_the_first_maximum(self):
        # the same stream drawn here, each trial counted through common_neighbors
        G = make_graph(3, 4)
        rng = random.Random(7)
        drawn = [tuple(sorted(rng.sample(range(G.n), 3))) for _ in range(300)]
        sizes = [len(G.common_neighbors([G.vertex_from_id(i) for i in s])) for s in drawn]
        first = drawn[sizes.index(max(sizes))]
        assert sizes.count(max(sizes)) > 1
        planted = (tuple(reversed(first)),)
        assert G.sample_max_common(3, trials=300, seed=7, planted=planted) == (max(sizes), first)
        assert G.sample_max_common(3, trials=300, seed=7) == (max(sizes), first)

    def test_bad_planted_subset_refused_before_any_work(self, monkeypatch):
        def no_bitsets(graph):
            raise AssertionError("bitsets built before the planted check")

        G = make_graph(3, 4)
        monkeypatch.setattr(NormGraph, "_all_bitsets", no_bitsets)
        for bad in ((0, 1, 2), (0, 1, 2, 2)):
            with pytest.raises(ValueError, match="planted subset"):
                G.sample_max_common(4, trials=10**6, seed=0, planted=(bad,))

    def test_second_census_reuses_the_bitsets(self, monkeypatch):
        G = make_graph(3, 4)
        sampled = G.sample_max_common(4, trials=300, seed=7)
        exhaustive = G.census_max_common(3)
        bitsets = G._all_bitsets()

        def no_rows(graph):
            raise AssertionError("bitsets rebuilt")

        monkeypatch.setattr(NormGraph, "_iter_bitsets", no_rows)
        assert G.sample_max_common(4, trials=300, seed=7) == sampled
        assert G.census_max_common(3) == exhaustive
        assert G._all_bitsets() is bitsets

    def test_sample_memory_does_not_grow_with_trials(self):
        # 200,000 kept 3-subsets alone would take about 16 MB
        G = make_graph(5, 3)
        G._all_bitsets()  # builds the cached bitsets outside the traced region
        tracemalloc.start()
        try:
            G.sample_max_common(3, trials=200_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_single_vertex_sampling_hits_max_degree(self):
        G = make_graph(3, 3)
        size, _ = G.sample_max_common(1, trials=200, seed=0)
        assert size == G.qprime - 1

    def test_census_matches_sampling_with_all_subsets(self):
        # tiny graph: sampling with many trials can't beat the census
        G = make_graph(3, 3)
        census_size, _ = G.census_max_common(3)
        sampled_size, _ = G.sample_max_common(3, trials=2000, seed=3)
        assert sampled_size <= census_size


class TestDrawSubsets:
    """graph._draw_subsets against rng.sample(range(n), k) on a twin stream."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "n,k",
        # random.sample takes its pool branch for n <= 21 at k <= 5 and for
        # n <= 85 at k = 6, its set branch above
        [(n, k) for n in (20, 21, 22) for k in (3, 4, 5)]
        + [(85, 6), (86, 6), (2058, 4), (2058, 1), (20, 1), (20, 20), (22, 22)],
    )
    def test_same_subsets_as_random_sample(self, n, k, seed):
        # a set-branch trial reads at least k words, so these trials read
        # more than two blocks of DRAW_WORDS
        trials = 2 * graph.DRAW_WORDS + 1
        twin = random.Random(seed)
        want = [twin.sample(range(n), k) for _ in range(trials)]
        got = graph._draw_subsets(random.Random(seed), n, k, trials)
        assert [list(subset) for subset in got] == want


def colex_first_max(bitsets, k, tops=None):
    """The oracle: the largest |N(S)| over every k-subset whose largest
    member lies in tops (by default anywhere), by brute force, with the
    first maximizing subset in colex order, which compares reversed tuples;
    (-1, ()) when there is none."""
    best, best_subset = -1, ()
    for subset in itertools.combinations(range(len(bitsets)), k):
        if tops is not None and subset[-1] not in tops:
            continue
        size = functools.reduce(operator.and_, map(bitsets.__getitem__, subset))
        size = size.bit_count()
        if size > best or (size == best and subset[::-1] < best_subset[::-1]):
            best, best_subset = size, subset
    return best, best_subset


@pytest.fixture
def tasks_in_process(monkeypatch):
    """run_tasks mapped in process, and as many CPUs as --jobs asks for: the
    tasks, not the processes, decide the merge.  Returns the task lists."""
    mapped = []

    def run_tasks(fn, tasks, jobs):
        mapped.append(tasks)
        return [fn(task) for task in tasks]

    monkeypatch.setattr(graph, "run_tasks", run_tasks)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    return mapped


class TestColex:
    def test_worker_covers_range(self):
        # a fake graph where every "bitset" is the same: counts are constant,
        # so the search must return the colex-first subset
        bitsets = [0b1111] * 4
        assert _census_search(bitsets, 2) == (4, (0, 1))

    @pytest.mark.parametrize("k", [1, 2, 3, 17])
    @pytest.mark.parametrize(
        "tops", [range(0, 18, 4), range(5, 18, 3), range(16, 18), range(15, 18, 2)],
        ids=lambda tops: f"from{tops.start}by{tops.step}",
    )
    def test_search_below_strided_tops(self, k, tops):
        # tops may hold ids below k - 1, such as 0, that top no k-subset
        bitsets = make_graph(3, 3)._all_bitsets()
        assert _census_search(bitsets, k, tops) == colex_first_max(bitsets, k, tops)

    @pytest.mark.parametrize(
        "p, t, k", [(3, 4, 1), (3, 4, 2), (3, 4, 3), (3, 4, 4), (5, 3, 2), (5, 3, 3)]
    )
    def test_phase_one_is_the_max_through_a_representative(self, monkeypatch, p, t, k):
        G = make_graph(p, t)
        bitsets, reps = G._all_bitsets(), G._orbit_representatives()
        want = max(
            functools.reduce(operator.and_, map(bitsets.__getitem__, rest), bitsets[r]).bit_count()
            for r in reps
            for rest in itertools.combinations([v for v in range(G.n) if v != r], k - 1)
        )
        phase_one = []

        def run_tasks(fn, tasks, jobs):
            phase_one.append([fn(task) for task in tasks])
            return phase_one[-1]

        monkeypatch.setattr(graph, "run_tasks", run_tasks)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        for jobs in (1, 2, p):
            G.census_max_common(k, jobs=jobs)
            assert max(phase_one[-1]) == want, jobs

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_all_equal_table_at_every_jobs(self, monkeypatch, tasks_in_process, k):
        G = make_graph(3, 3)
        G._bitsets = [0b111] * G.n
        # no norm table has this table's counts
        monkeypatch.setattr(NormGraph, "_checked_by_norms", lambda graph, *result: result)
        want = colex_first_max(G._bitsets, k)
        assert want == (3, tuple(range(k)))
        for jobs in (1, 2, 3, 4):
            assert G.census_max_common(k, jobs=jobs) == want, jobs
            # one task per worker, and no more workers than the p orbits
            assert len(tasks_in_process[-1]) == min(jobs, 3)

    # P(3,4) at k >= 3, P(5,3) at k = 3 and P(3,3) at k = 4 prune prefixes
    @pytest.mark.parametrize(
        "p, t, k",
        [(3, 4, 1), (3, 4, 2), (3, 4, 3), (3, 4, 4), (5, 3, 3), (3, 3, 4), (2, 5, 3), (5, 3, 2),
         (5, 3, 4), (3, 4, 5), (2, 5, 5), (2, 5, 15), (2, 5, 16), (3, 3, 17)],
    )
    def test_worker_matches_brute_force(self, tasks_in_process, p, t, k):
        G = make_graph(p, t)
        want = colex_first_max(G._all_bitsets(), k)
        for jobs in (1, 2, 3, 4):
            assert G.census_max_common(k, jobs=jobs) == want, jobs

    def test_pruned_prefixes_are_not_climbed(self):
        # P(3,3) at k = 4: without the prune the smallest member would climb
        # once below every 3-subset of ids 1..17
        class Counted(list):
            climbs = 0

            def __getitem__(self, index):
                Counted.climbs += isinstance(index, slice)
                return super().__getitem__(index)

        G = make_graph(3, 3)
        bitsets = Counted(G._all_bitsets())
        assert _census_search(bitsets, 4) == colex_first_max(bitsets, 4)
        assert 0 < Counted.climbs < math.comb(G.n - 1, 3)

    @pytest.mark.parametrize("p, t, k", [(3, 3, 2), (3, 3, 3), (5, 3, 2)])
    def test_chunked_census_keeps_colex_first_argmax(self, monkeypatch, p, t, k):
        G = make_graph(p, t)
        serial = G.census_max_common(k)
        # a serial map in place of the pool: the tasks, not the processes,
        # decide the merge
        monkeypatch.setattr(graph, "run_tasks", lambda fn, tasks, jobs: [fn(t) for t in tasks])
        assert G.census_max_common(k, jobs=3) == serial


def scalings(G):
    """Every scaling (alpha, a) -> (lambda alpha, mu a) with mu^2 = N(lambda),
    N by both routes, as a list mapping each vertex id to its image."""
    p, field = G.p, G.field
    out = []
    for lam in itertools.islice(field.elements(), 1, None):
        for mu in range(1, p):
            if mu * mu % p == field.norm(lam):
                out.append([
                    G.vertex_id(Vertex(field.mul(lam, alpha), mu * a % p))
                    for alpha, a in vertices(G)
                ])
    return out


class TestOrbits:
    """The scalings, automorphisms of P(p,t), and the p classes of
    _orbit_keys(), whose representatives start every exhaustive census."""

    @pytest.mark.parametrize("p, t", [(2, 5), (3, 4), (5, 3), (3, 5)])
    def test_scalings_map_the_table_onto_itself(self, p, t):
        # N(sigma u) = sigma N(u) for every u: bit(u, v) == bit(sigma u, sigma v)
        G = make_graph(p, t)
        table = G._all_bitsets()
        maps = scalings(G)
        assert len(maps) == G.qprime - 1
        for sigma in random.Random(p * 10 + t).sample(maps, min(50, len(maps))):
            assert sorted(sigma) == list(range(G.n))
            for u, bits in enumerate(table):
                assert table[sigma[u]] == sum(1 << sigma[v] for v in graph._iter_bits(bits)), u

    @pytest.mark.parametrize("p, t", [(2, 5), (3, 4), (5, 3), (3, 5)])
    def test_classes_are_the_scaling_orbits(self, p, t):
        G = make_graph(p, t)
        keys, reps = G._orbit_keys(), G._orbit_representatives()
        maps = scalings(G)
        assert len(reps) == p and reps[0] == 0
        orbits = [{sigma[r] for sigma in maps} for r in reps]
        for r, orbit in zip(reps, orbits):
            assert orbit == {v for v in range(G.n) if keys[v] == keys[r]}, r
        assert sorted(map(len, orbits)) == [p - 1] + [G.qprime - 1] * (p - 1)
        assert set().union(*orbits) == set(range(G.n))

    def test_norm_route_counts_common_neighbors(self):
        G = make_graph(3, 4)
        rng = random.Random(0)
        for k in (1, 2, 3, 4):
            for _ in range(20):
                subset = tuple(sorted(rng.sample(range(G.n), k)))
                want = len(G.common_neighbors([G.vertex_from_id(i) for i in subset]))
                assert G._checked_by_norms(want, subset) == (want, subset)
                with pytest.raises(AssertionError, match="the norm route counts"):
                    G._checked_by_norms(want + 1, subset)


class TestExport:
    def test_edge_count_is_half_degree_sum(self):
        for G in (make_graph(3, 3), make_graph(3, 4), make_graph(5, 3)):
            deg_sum = sum(len(neighbors(G, v)) for v in vertices(G))
            edges = len(list(G.edge_lines()))
            assert 2 * edges == deg_sum
            assert edges >= G.n * (G.qprime - 2) // 2

    def test_edge_lines_sorted_and_complete(self):
        G = make_graph(3, 3)
        lines = list(G.edge_lines())
        deg_sum = sum(len(neighbors(G, v)) for v in vertices(G))
        assert 2 * len(lines) == deg_sum
        pairs = [tuple(map(int, ln.split())) for ln in lines]
        assert pairs == sorted(pairs)
        for u, v in pairs[:40]:
            assert u < v
            assert G.adjacent(G.vertex_from_id(u), G.vertex_from_id(v))

    def test_enumeration_guard(self):
        # constructing P(101,4) itself is fine; only enumeration is guarded
        big = make_graph(101, 4)
        assert big.n == 101**3 * 100
        with pytest.raises(ValueError):
            list(big.edge_lines())
        with pytest.raises(ValueError):
            big.common_neighbors([big.vertex_from_id(0)])


class TestWitnessJson:
    def test_roundtrip(self):
        G = p74()
        L = [Vertex((0, 0, 0), 3), Vertex((1, 0, 0), 4)]
        R = [Vertex((6, 0, 1), 1)]
        data = witness_to_json(G, L, R, True)
        assert data["p"] == 7 and data["t"] == 4
        assert data["modulus"] == [5, 0, 0, 1]
        assert data["verified"] is True
        assert check_vertices(data["L"], "L", G.p, G.field.k) == L
        assert check_vertices(data["R"], "R", G.p, G.field.k) == R

    def test_vertex_objects(self):
        v = Vertex((6, 3, 5), 2)
        assert vertex_to_obj(v) == {"alpha": [6, 3, 5], "a": 2}
        assert check_vertices([vertex_to_obj(v)], "L", 7, 3) == [v]

    def test_malformed_rejected(self):
        good = vertex_to_obj(Vertex((0, 0, 0), 1))
        for obj in (
            {"alpha": [1, 2], "a": 1},  # alpha too short
            {"alpha": [0, 0, 0], "a": 0},  # a out of range
            {"alpha": [0, 0, 7], "a": 1},  # coefficient out of range
            {"alpha": [0, 0, 0], "a": True},  # JSON boolean
            {"alpha": [0, 0, 0], "a": "3"},  # string
            {"alpha": [0, 0, 0]},  # missing a
            [0, 0, 0, 1],  # not an object
        ):
            with pytest.raises(ValueError, match="malformed vertex in R"):
                check_vertices([good, obj], "R", 7, 3)

    def test_pair_cap_admits_its_edge(self):
        # parse_witness checks sizes, not distinctness, so repeats fill the sides
        G = p74()
        u, v = Vertex((0, 0, 0), 3), Vertex((6, 0, 1), 1)
        kind, L, R = graph.parse_witness(witness_to_json(G, [u] * 128, [v] * 256, True))
        assert kind == "graph"
        assert len(L) * len(R) == graph.MAX_PAIRS
        with pytest.raises(ValueError, match="L x R has 32896 vertex pairs"):
            graph.parse_witness(witness_to_json(G, [u] * 128, [v] * 257, True))
