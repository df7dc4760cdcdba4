"""The projective norm graph P(p,t) as an implicit graph.

Vertices are pairs (alpha, a) with alpha in GF(p^(t-1)) and a a nonzero
residue mod p; (alpha, a) is adjacent to (beta, b) exactly when
norm(alpha + beta) = a*b.  Nothing materializes edges; neighborhoods are
computed from a norm lookup table and packed into integer bitsets when the
graph is small enough.
"""

from __future__ import annotations

import itertools
import math
import random
import struct
from typing import NamedTuple

from .ff import ExtElement, ExtField, fp_inv
from .parallel import run_tasks, worker_count
from .polys import is_irreducible
from .primes import PSI_12, is_prime

# bitset-indexed neighborhoods (and edge export) refuse graphs above this
ENUM_LIMIT = 2**22

CENSUS_BUDGET = 10**7

# a census holds n bitsets of ceil(n/8) bytes; every n above ENUM_LIMIT
# is over this too
CENSUS_MEMORY = 2**30

MAX_COMMON_QUERY = 8

# every bitset table is probed for bit(i, j) == bit(j, i) on this many seeded
# pairs, the first SYMMETRY_ORACLE of them also against adjacent()
SYMMETRY_SEED = 0
SYMMETRY_PAIRS = 256
SYMMETRY_ORACLE = 16

# 32-bit Mersenne Twister words a sampled census reads per getrandbits call
# (a 2 KB block)
DRAW_WORDS = 512

# a row's bit string as 0/1 flags for itertools.compress
BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")

# the largest t a search or a witness file may name: the degree t - 1 sizes
# every field build, irreducibility test and norm (2-vCPU Xeon, Python 3.11:
# searches to p = 1000 took < 2.5 s for t <= 24 and 48 s at t = 64; a 2-vertex
# witness over P(1000003, t) took 0.22 s to verify at t = 60, 8.5 s at 240)
MAX_T = 24


class Vertex(NamedTuple):
    alpha: ExtElement
    a: int


class BicliqueReport(NamedTuple):
    left_distinct: bool
    right_distinct: bool
    disjoint: bool
    pairs_checked: int
    failed_pairs: list

    @property
    def passed(self) -> bool:
        return (
            self.left_distinct
            and self.right_distinct
            and self.disjoint
            and not self.failed_pairs
        )


class BicliqueWitness(NamedTuple):
    left: list
    right: list
    report: BicliqueReport


class WitnessReport(NamedTuple):
    """A witness's two verification layers: the biclique's adjacencies and
    its closed-form identities."""

    biclique: BicliqueWitness
    identity_checked: int
    identity_failures: list[str]

    @property
    def adjacency_checked(self) -> int:
        return self.biclique.report.pairs_checked

    @property
    def adjacency_failures(self) -> list:
        return self.biclique.report.failed_pairs

    @property
    def passed(self) -> bool:
        return self.biclique.report.passed and not self.identity_failures


def _smallest_irreducible(p: int, k: int) -> list[int]:
    # scan monic degree-k polynomials in integer-encoding order of their
    # lower coefficients; first irreducible wins, so the choice is stable
    for enc in range(p**k):
        coeffs = []
        n = enc
        for _ in range(k):
            coeffs.append(n % p)
            n //= p
        coeffs.append(1)
        if is_irreducible(coeffs, p):
            return coeffs
    raise AssertionError(f"no irreducible of degree {k} over F_{p}")


def make_graph(p: int, t: int, modulus=None) -> "NormGraph":
    """P(p,t) over GF(p^(t-1)); the modulus defaults to the smallest
    irreducible of degree t-1 under the integer coefficient encoding."""
    # primality first: the modulus search below assumes a prime field
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if t < 3:
        raise ValueError(f"t must be >= 3, got {t}")
    k = t - 1
    if modulus is None:
        if k >= ENUM_LIMIT.bit_length():  # 2^k above it, before a p^k search
            raise ValueError(
                f"P({p},{t}) has at least 2^{k} vertices, above the enumeration guard {ENUM_LIMIT}"
            )
        modulus = _smallest_irreducible(p, k)
    field = ExtField(p, k, modulus)  # validates p prime + irreducibility
    return NormGraph(p, t, field)


class NormGraph:
    def __init__(self, p: int, t: int, field: ExtField):
        if field.p != p or field.k != t - 1:
            raise ValueError("field does not match the graph parameters")
        self.p = p
        self.t = t
        self.field = field
        self.qprime = p ** (t - 1)
        self.n = self.qprime * (p - 1)
        self._norms: list[int] | None = None
        self._rows: tuple[list[int], list[tuple[int, int, int, int]]] | None = None
        self._bitsets: list[int] | None = None

    # -- vertex indexing -------------------------------------------------

    def check_vertex(self, v: Vertex) -> Vertex:
        alpha, a = v
        if type(alpha) is not tuple or not vertex_ok(alpha, a, self.p, self.field.k):
            raise ValueError(f"malformed vertex {v!r} for P({self.p},{self.t})")
        return v

    def vertex_id(self, v: Vertex) -> int:
        return self.field.index(v.alpha) * (self.p - 1) + (v.a - 1)

    def vertex_from_id(self, vid: int) -> Vertex:
        if not 0 <= vid < self.n:
            raise ValueError(f"vertex id {vid} out of range [0, {self.n})")
        idx, rem = divmod(vid, self.p - 1)
        return Vertex(self.field.element_from_index(idx), rem + 1)

    # -- adjacency --------------------------------------------------------

    def adjacent(self, u: Vertex, v: Vertex) -> bool:
        """Norm adjacency between two distinct vertices; the norm runs
        through both computation routes (verification path)."""
        self.check_vertex(u)
        self.check_vertex(v)
        if u == v:
            raise ValueError("adjacency is defined on distinct vertices only")
        return self._adjacent_checked(u, v)

    def _adjacent_checked(self, u: Vertex, v: Vertex) -> bool:
        """adjacent() for two vertices already checked and distinct."""
        return self.field.norm(self.field.add(u.alpha, v.alpha)) == u.a * v.a % self.p

    def _require_enumerable(self) -> None:
        if self.n > ENUM_LIMIT:
            raise ValueError(
                f"graph has {self.n} vertices, above the enumeration guard {ENUM_LIMIT}"
            )

    def _norm_table(self) -> list[int]:
        """N(e) for every element e in index order, by the two routes that
        ExtField.norm compares, the conjugate product and the determinant,
        which must agree."""
        if self._norms is None:
            self._require_enumerable()
            field = self.field
            conj = [field.norm_conj(e) for e in field.elements()]
            dets = [field.norm_det(e) for e in field.elements()]
            if conj != dets:
                i = next(i for i, (x, y) in enumerate(zip(conj, dets)) if x != y)
                raise AssertionError(
                    f"norm table mismatch at element {i}: conjugate product "
                    f"{conj[i]} vs determinant {dets[i]}"
                )
            self._norms = conj
        return self._norms

    def _block_table(self) -> list[list[str]]:
        """blocks[a-1][v]: the p-1 bits, most significant first, that vertex
        (alpha, a) holds for a beta with N(alpha + beta) = v: one-hot at
        b = v/a (bit b-1 of the block), all zero for v = 0."""
        p = self.p
        onehot = ["0" * (p - 1)] + [
            "0" * (p - 1 - b) + "1" + "0" * (b - 1) for b in range(1, p)
        ]
        return [[onehot[v * fp_inv(a, p) % p] for v in range(p)] for a in range(1, p)]

    def _rotation(self) -> tuple[list[int], list[tuple[int, int, int, int]]]:
        """The bitsets of the p-1 vertices (0, a), and one mask quadruple per
        digit axis.  N(0) = 0, so no base row holds its own bit.

        Indices add digit-wise mod p, so vertex (alpha, a)'s bits are those
        of (0, a) with digit axis i rotated by alpha's digit i: the block of
        beta takes that of beta + alpha.  A unit step of digit i moves a
        block by s = p^i (p-1) bits, and one rotation step on axis i, after
        which each beta's block holds that of beta + e_i, is
        (x >> s) & low | (x << back) & high with back = (p-1) s; high holds
        the blocks whose digit i is p-1, low all others."""
        if self._rows is None:
            n, span = self.n, self.p - 1
            # beta's block sits at bits j*(p-1)..; the last beta leads the string
            norms = self._norm_table()[::-1]
            rows = [int("".join(map(b.__getitem__, norms)), 2) for b in self._block_table()]
            full = (1 << n) - 1
            masks = []
            for _ in range(self.field.k):
                back = span * (self.p - 1)
                # full // (2^(p span) - 1) sets the lowest bit of every run of
                # p spans, so low repeats p-1 spans of ones in every run
                low = ((1 << back) - 1) * (full // ((1 << (back + span)) - 1))
                masks.append((span, back, low, full ^ low))
                span *= self.p
            self._rows = rows, masks
        return self._rows

    def _loop_ids(self) -> set[int]:
        """Ids of the vertices (alpha, a) with a^2 = N(2 alpha): the rotated
        rows that hold their own bit."""
        p, field, norms = self.p, self.field, self._norm_table()
        roots = [[] for _ in range(p)]
        for a in range(1, p):
            roots[a * a % p].append(a)
        return {
            idx * (p - 1) + a - 1
            for idx, alpha in enumerate(field.elements())
            for a in roots[norms[field.index(field.add(alpha, alpha))]]
        }

    def degree_sum(self) -> int:
        """Sum of all degrees: each vertex meets one b for each of the q'-1
        betas with N(alpha + beta) != 0, loop included when a^2 = N(2 alpha).
        For odd p, q'-1 vertices have that loop; for p = 2, 2 alpha = 0, so
        none does."""
        return (self.qprime - 1) * (self.n - 1 if self.p % 2 else self.n)

    def _require_memory(self) -> None:
        need = self.n * -(-self.n // 8)
        if need > CENSUS_MEMORY:
            raise ValueError(
                f"census bitsets for {self.n} vertices need {need} bytes, "
                f"above the memory guard {CENSUS_MEMORY}"
            )

    def _all_bitsets(self) -> list[int]:
        self._require_memory()
        if self._bitsets is None:
            bitsets = list(self._iter_bitsets())
            self._probe_symmetry(bitsets)
            self._bitsets = bitsets
        return self._bitsets

    def _iter_bitsets(self):
        """Every vertex's bitset in id order: the base rows rotated by each
        alpha in index order, the p-1 rows of one alpha together.  Digit 0
        varies fastest, so each alpha's rows are those of an earlier alpha
        rotated one step on one axis.  Once the last bitset is out, their
        bit counts must add up to degree_sum()."""
        base, masks = self._rotation()
        loops = self._loop_ids()
        degrees = 0
        vid = 0
        for rows in _rotations(base, masks, self.p):
            for row in rows:
                if vid in loops:  # simple graph: drop the loop
                    row ^= 1 << vid
                degrees += row.bit_count()
                yield row
                vid += 1
        if degrees != self.degree_sum():
            raise AssertionError(
                f"bitset degrees sum to {degrees}, not {self.degree_sum()}"
            )

    def _probe_symmetry(self, bitsets: list[int]) -> None:
        """bit(i, j) == bit(j, i) on SYMMETRY_PAIRS seeded pairs, the first
        SYMMETRY_ORACLE of them (when i != j) also against adjacent(), which
        runs both norm routes."""
        rng = random.Random(SYMMETRY_SEED)
        for m in range(SYMMETRY_PAIRS):
            i, j = rng.randrange(self.n), rng.randrange(self.n)
            bit = bitsets[i] >> j & 1
            if bit != bitsets[j] >> i & 1 or (
                m < SYMMETRY_ORACLE
                and i != j
                and bit != self.adjacent(self.vertex_from_id(i), self.vertex_from_id(j))
            ):
                raise AssertionError(f"bitsets disagree at vertex pair ({i}, {j})")

    def common_neighbors(self, S: list[Vertex]) -> list[Vertex]:
        """Vertices outside S adjacent to every member of S, ascending."""
        if not 1 <= len(S) <= MAX_COMMON_QUERY:
            raise ValueError(f"query size must be in 1..{MAX_COMMON_QUERY}")
        ids = [self.vertex_id(self.check_vertex(s)) for s in S]
        if len(set(ids)) != len(ids):
            raise ValueError("query vertices must be distinct")
        common = set.intersection(*map(self._norm_neighbours, ids))  # no set holds its own id
        return [self.vertex_from_id(i) for i in sorted(common)]

    def _norm_neighbours(self, vid: int) -> set[int]:
        """Ids of vertex vid's neighbours, read from the checked norm table
        with no bitset: (alpha, a) meets (beta, N(alpha + beta) / a) for
        every beta with N(alpha + beta) != 0, itself dropped."""
        p, field, norms = self.p, self.field, self._norm_table()
        alpha, a = self.vertex_from_id(vid)
        inv = fp_inv(a, p)
        return {
            j * (p - 1) + v * inv % p - 1
            for j, beta in enumerate(field.elements())
            if (v := norms[field.index(field.add(alpha, beta))])
        } - {vid}

    # -- biclique verification ---------------------------------------------

    def verify_biclique(self, L: list[Vertex], R: list[Vertex]) -> BicliqueWitness:
        l_ids = [self.vertex_id(self.check_vertex(v)) for v in L]
        r_ids = [self.vertex_id(self.check_vertex(v)) for v in R]
        failed = [
            (uid, vid)
            for u, uid in zip(L, l_ids)
            for v, vid in zip(R, r_ids)
            if uid == vid or not self._adjacent_checked(u, v)
        ]
        report = BicliqueReport(
            left_distinct=len(set(l_ids)) == len(l_ids),
            right_distinct=len(set(r_ids)) == len(r_ids),
            disjoint=not set(l_ids) & set(r_ids),
            pairs_checked=len(L) * len(R),
            failed_pairs=failed,
        )
        return BicliqueWitness(left=list(L), right=list(R), report=report)

    # -- scaling orbits ------------------------------------------------------

    def _orbit_keys(self) -> list[int]:
        """Per vertex id, its class under the scalings (alpha, a) ->
        (lambda alpha, mu a) with mu^2 = N(lambda), automorphisms because N
        is multiplicative: 0 for alpha = 0, else a^2 / N(alpha), from the
        checked norm table.  Each class is one orbit: lambda = beta / alpha
        and mu = b / a take (alpha, a) to any (beta, b) of its class."""
        p = self.p
        squares = [a * a % p for a in range(1, p)]
        invs = [fp_inv(v, p) if v else 0 for v in self._norm_table()]
        return [s * inv % p for inv in invs for s in squares]

    def _orbit_representatives(self) -> list[int]:
        """The first id of each class of _orbit_keys(), in key order, so
        vertex 0 = (0, 1) first; the classes must be the alpha = 0 one of
        size p-1 and one of size q'-1 for each key in F_p^*."""
        keys, p = self._orbit_keys(), self.p
        sizes = [keys.count(key) for key in range(p)]
        if sizes != [p - 1] + [self.qprime - 1] * (p - 1):
            raise AssertionError(
                f"scaling orbits of keys 0..{p - 1} have sizes {sizes}, "
                f"not {p - 1} and then {self.qprime - 1}"
            )
        return [keys.index(key) for key in range(p)]

    def _checked_by_norms(self, best: int, subset: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        """(best, subset), every census's answer, once |N(subset)| is within
        (t-1)! for k > t, and is best when recounted by _norm_neighbours.
        N(S) lies in N(S') for each t-subset S' of S, so no k > t passes the
        bound."""
        k, bound = len(subset), math.factorial(self.t - 1)
        if k > self.t and best > bound:
            raise AssertionError(f"{k}-subset has {best} common neighbours, over (t-1)! = {bound}")
        count = len(set.intersection(*map(self._norm_neighbours, subset)))
        if count != best:
            raise AssertionError(
                f"the norm route counts {count} common neighbours of {subset}, not {best}"
            )
        return best, subset

    # -- censuses ------------------------------------------------------------

    def _require_subset_size(self, k: int) -> None:
        if not 1 <= k <= self.n:
            raise ValueError(f"k must be between 1 and {self.n}, got {k}")

    def census_max_common(
        self, k: int, budget: int = CENSUS_BUDGET, jobs: int = 1
    ) -> tuple[int, tuple[int, ...]]:
        """Exhaustive max of |common neighborhood| over all k-subsets.

        Returns (max size, the colex-first maximizing subset as vertex ids).
        Refuses a table over the memory guard, then C(n, k) over the budget;
        the guard bounds n, so C(n, k) is cheap to count.  The scalings are
        automorphisms with p vertex orbits, so some maximizing subset holds
        one of the p representatives: phase 1 searches the k-subsets whose
        largest member is one, one task per worker; phase 2 runs the colex
        search over all k-subsets from a best of max - 1 and stops at its
        first hit, the colex-first maximizer."""
        self._require_subset_size(k)
        self._require_memory()
        if (total := math.comb(self.n, k)) > budget:
            shown = f" = {total}" if total < 10**4300 else ""  # str() stops at 4300 digits
            raise ValueError(
                f"exhaustive census needs C({self.n},{k}){shown} subsets, "
                f"over the budget of {budget}; rerun with --sample"
            )
        bitsets = self._all_bitsets()
        reps = dict.fromkeys(self._orbit_representatives())  # in order, found in O(1)
        # with the representatives last, a subset holds one exactly when its
        # largest member is one of the last p; each task pickles the whole
        # table, so one task per worker, not per --jobs, and task i takes
        # every workers-th representative from the i-th
        table = [b for vid, b in enumerate(bitsets) if vid not in reps] + [bitsets[r] for r in reps]
        n, workers = self.n, worker_count(jobs, len(reps))
        tasks = [(table, k, range(n - len(reps) + i, n, workers)) for i in range(workers)]
        best = max(run_tasks(_orbit_search, tasks, jobs))
        reached, subset = _census_search(bitsets, k, best=best - 1, first=True)
        if reached != best:
            raise AssertionError(
                f"the colex search reached {reached} common neighbours, "
                f"the orbit search {best}"
            )
        return self._checked_by_norms(best, subset)

    def sample_max_common(
        self,
        k: int,
        trials: int,
        seed: int,
        planted: tuple = (),
        budget: int = CENSUS_BUDGET,
    ) -> tuple[int, tuple[int, ...]]:
        """Max |common neighborhood| over seeded random k-subsets, then any
        planted id-subsets, with the first maximizing subset.  The trials
        are those of rng.sample(range(n), k) on rng = random.Random(seed),
        drawn from batched words and counted in one serial loop by
        _sample_search.  For P(7,4) at 50,000 trials that loop takes about
        0.07 s, three quarters of it the draw; only one process can read
        the stream in order, so a pool could share just the count, and
        starting one costs about 0.01 s.
        Refuses more trials than the budget, k above MAX_COMMON_QUERY, and a
        planted subset that is not a k-subset, before any work.  The norm
        route recounts the maximum for the subset returned."""
        if trials < 1:
            raise ValueError("trials must be >= 1")
        if trials > budget:
            raise ValueError(
                f"sampled census needs {trials} trials, over the budget of {budget}"
            )
        self._require_subset_size(k)
        if k > MAX_COMMON_QUERY:
            raise ValueError(f"sampled census takes k in 1..{MAX_COMMON_QUERY}, got {k}")
        extras = []
        for extra in planted:
            ids = tuple(sorted(extra))
            if len(ids) != k or len(set(ids)) != k:
                raise ValueError(f"planted subset {extra!r} is not a {k}-subset")
            extras.append(ids)
        rng = random.Random(seed)
        return self._checked_by_norms(*_sample_search(self._all_bitsets(), rng, k, trials, extras))

    # -- export -----------------------------------------------------------

    def edge_lines(self):
        """Edges as 'id_u id_v' text lines, ascending, loops omitted: the
        set bits of each row above its own id, picked from a list of the n
        id strings by one compress over the row's bit string, reversed so
        that flag j is bit j.  The size guard raises here, before the caller
        consumes a line."""
        self._require_enumerable()
        ids, width = [str(vid) for vid in range(self.n)], f"0{self.n}b"
        return itertools.chain.from_iterable(
            map(f"{uid} ".__add__, itertools.compress(
                ids, format(bits >> uid + 1 << uid + 1, width).encode().translate(BIT_FLAGS)[::-1]))
            for uid, bits in enumerate(self._iter_bitsets())
        )


def _rotations(rows: list[int], masks: list, p: int):
    """rows rotated by every alpha in index order, axis len(masks) - 1
    outermost: digit 0, the fastest, is the innermost loop.  Each mask is
    from _rotation and turns its axis one step."""
    if not masks:
        yield rows
        return
    *inner, (s, back, low, high) = masks
    for digit in range(p):
        if digit:
            rows = [x >> s & low | x << back & high for x in rows]
        yield from _rotations(rows, inner, p)


def _sample_search(
    bitsets: list[int], rng: random.Random, k: int, trials: int, planted=()
) -> tuple[int, tuple[int, ...]]:
    """Max |common neighbourhood| over the k-subsets that `trials` calls of
    rng.sample(range(n), k) return, then the planted ones, with the first
    maximizing subset, sorted; one loop draws each subset and ANDs its
    rows, in draw order, so memory does not grow with trials.  No bitset
    may hold its own bit, so the AND already excludes the subset.

    random.sample draws from a list pool when n is at most its `setsize`; the
    draws for those small n still go through it.  Otherwise it draws
    randbelow(n) until the value is new, and for n < 2^32 (the census memory
    guard keeps n far below) each randbelow attempt is the top
    n.bit_length() bits of one 32-bit Mersenne Twister word, kept if below
    n.  getrandbits(32 * B) returns B such words, the first drawn least
    significant, so the kept values are read DRAW_WORDS at a time and each
    trial takes the next k distinct ones; rng ends in another state."""
    n = len(bitsets)
    setsize = 21  # random.sample's branch threshold, computed as it computes it
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        drawn = map(rng.sample, itertools.repeat(range(n), trials), itertools.repeat(k))
    else:
        shift = 32 - n.bit_length()
        limit = n << shift
        unpack = struct.Struct(f"<{DRAW_WORDS}I").unpack

        def block() -> list[int]:
            raw = rng.getrandbits(32 * DRAW_WORDS).to_bytes(4 * DRAW_WORDS, "little")
            return [w >> shift for w in unpack(raw) if w < limit]

        values = itertools.chain.from_iterable(iter(block, None))  # block() forever
        # zip takes k values per trial from the one stream, and a redraw takes
        # its values from that stream too, so the next trial starts after them
        drawn = itertools.islice(zip(*[values] * k), trials)
    best, best_subset = -1, ()
    for subset in itertools.chain(drawn, planted):
        if len(set(subset)) < k:  # a set-branch repeat, redrawn as random.sample does
            subset = list(dict.fromkeys(subset))
            while len(subset) < k:
                value = next(values)
                if value not in subset:
                    subset.append(value)
        inter = -1
        for vid in subset:
            inter &= bitsets[vid]
        if (size := inter.bit_count()) > best:  # in draw order until it leads
            best, best_subset = size, tuple(sorted(subset))
    return best, best_subset


def _orbit_search(task) -> int:
    """Phase 1's task: the best count of _census_search(table, k, tops)."""
    return _census_search(*task)[0]


def _census_search(
    bitsets: list[int], k: int, tops: range | None = None, best: int = -1, first: bool = False
) -> tuple[int, tuple[int, ...]]:
    """Max |common neighbourhood| over the k-subsets of ids into bitsets
    whose largest member lies in tops (by default anywhere), with the
    colex-first maximizing subset, or (best, ()) when none beats best: a
    depth-first walk in colex order, largest member outermost, that does not
    extend a prefix whose AND has no more bits than the best so far.  The
    smallest member climbs in one list, one AND and one bit_count a subset.
    With first set it returns at the first subset that beats best.  No
    bitset may hold its own bit, so the AND already excludes the subset.
    Open levels are kept in a list, not on the call stack: k may be large."""
    best_subset = ()
    members = []  # the prefix, largest first
    span = range(k - 1, len(bitsets)) if tops is None else tops  # where the next member lies
    levels, inter = [], -1  # open levels (members left, AND above); the prefix's AND
    while True:
        if len(members) < k - 1:
            levels.append((iter(span), inter))
        else:
            sizes = [(b & inter).bit_count() for b in bitsets[span.start:span.stop:span.step]]
            if sizes and (top := max(sizes)) > best:  # no span lies below a top of 0
                best, best_subset = top, (span[sizes.index(top)], *reversed(members))
                if first:
                    return best, best_subset
        while levels:  # the next prefix worth extending
            todo, above = levels[-1]
            member = next(todo, None)
            if member is None:
                levels.pop()
            elif (inter := above & bitsets[member]).bit_count() > best:
                break
        else:
            return best, best_subset
        members[len(levels) - 1:] = [member]
        span = range(k - 1 - len(members), member)


# -- witness serialization ---------------------------------------------------


def vertex_to_obj(v: Vertex) -> dict:
    return {"alpha": list(v.alpha), "a": v.a}


def is_json_int(x) -> bool:
    """True for a JSON integer.  bool subclasses int, so isinstance(x, int)
    would also accept JSON true and false."""
    return type(x) is int


def vertex_ok(alpha, a, p: int, k: int) -> bool:
    """The vertex rule of P(p, k + 1), in memory and in JSON: `a` an int in
    [1, p) and `alpha` k ints in [0, p)."""
    return is_json_int(a) and 1 <= a < p and len(alpha) == k and all(
        is_json_int(c) and 0 <= c < p for c in alpha
    )


def check_vertices(items, part: str, p: int, k: int) -> list[Vertex]:
    """Vertices from JSON objects {"alpha": [...], "a": ...} that pass vertex_ok;
    anything else raises ValueError naming `part`."""
    out = []
    for v in items:
        if (
            not isinstance(v, dict)
            or not isinstance(v.get("alpha"), list)
            or not vertex_ok(v["alpha"], v.get("a"), p, k)
        ):
            raise ValueError(f"malformed vertex in {part}")
        out.append(Vertex(tuple(v["alpha"]), v["a"]))
    return out


# each witness kind's top-level keys, in the order its encoder writes them;
# GENERAL_KEYS begins with GeneralParams' fields, in their order
GRAPH_KEYS = ("p", "t", "modulus", "L", "R", "verified")
GENERAL_KEYS = ("t", "m", "p", "r", "thetas", "zeta", "A", "B", "verified")

MAX_PAIRS = 2**15

# verify refuses a longer file.  The pair cap admits the most vertices at
# t = 4, 1 + 2^15 = 32,769, each 176 bytes in json.dumps(indent=2) with
# 24-digit coordinates (p < PSI_12): 5.8 MB, the largest file at any t
MAX_WITNESS_BYTES = 2**23


def pair_cap(t: int) -> int:
    """The most vertex pairs a witness file of P(p,t) may hold: MAX_PAIRS,
    shrunk as (t-1)^-2 above t = 4.  verify checks each pair through two
    norm routes, whose cost grows about as (t-1)^2, so a file at the cap
    took 1.0 to 1.8 s to verify at every t from 4 to 24 (p = 3, 2-vCPU Xeon)."""
    return min(MAX_PAIRS, MAX_PAIRS * 9 // (t - 1) ** 2)


def encode_witness(keys: tuple, params, left, right, verified: bool) -> dict:
    """A witness JSON object: the parameter values, the two vertex sides
    and the verdict, under `keys` in order."""
    sides = ([vertex_to_obj(v) for v in side] for side in (left, right))
    return dict(zip(keys, (*params, *sides, bool(verified))))


def witness_to_json(G: NormGraph, L, R, verified: bool) -> dict:
    return encode_witness(GRAPH_KEYS, (G.p, G.t, list(G.field.modulus)), L, R, verified)


def parse_witness(data) -> tuple[str, list[Vertex], list[Vertex]]:
    """The kind ("graph" or "general") and the two vertex sides of a witness
    object as witness_to_json or general_witness_to_json write it; an object
    with both key sets is general.  Checks shape and size only, and raises
    ValueError on a malformed object before any field is built."""
    if not isinstance(data, dict):
        raise ValueError("witness JSON must be an object")
    if data.keys() >= set(GENERAL_KEYS):
        kind, ints, coeffs, names = "general", ("t", "m", "p", "r", "zeta"), "thetas", "AB"
    elif data.keys() >= set(GRAPH_KEYS):
        kind, ints, coeffs, names = "graph", ("p", "t"), "modulus", "LR"
    else:
        raise ValueError("unrecognized witness schema (expected L/R or A/B keys)")
    for key in ints:
        if not is_json_int(data[key]):
            raise ValueError(f"{key!r} must be an integer")
    if type(data["verified"]) is not bool:
        raise ValueError("'verified' must be true or false")
    p, t = data["p"], data["t"]
    if kind == "general":  # m coefficients and a (t-1) x m biclique
        m = data["m"]
        in_range, count, sizes = t >= 4 and m >= 1, m, (t - 1, m)
        message = f"t, m, p out of range (4 <= t <= {MAX_T}, m >= 1, p >= 2)"
    else:  # t coefficients and two nonempty sides
        in_range, count, sizes = t >= 3, t, (None, None)
        message = f"p and t must be integers with p >= 2, 3 <= t <= {MAX_T}"
    if not in_range or p < 2 or t > MAX_T:
        raise ValueError(message)
    if p >= PSI_12:
        raise ValueError(f"p must be < {PSI_12}, got {p}")
    values = data[coeffs]
    if not isinstance(values, list) or len(values) != count or not all(
        is_json_int(c) for c in values
    ):
        raise ValueError(f"{coeffs} must list {count} integers")
    for part, size in zip(names, sizes):
        side = data[part]
        if not isinstance(side, list) or not side or size not in (None, len(side)):
            raise ValueError(f"{part} must list {size or 'one or more'} vertices")
    pairs, cap = len(data[names[0]]) * len(data[names[1]]), pair_cap(t)
    if pairs > cap:
        raise ValueError(
            f"{names[0]} x {names[1]} has {pairs} vertex pairs, above the cap of {cap}"
        )
    left, right = (check_vertices(data[part], part, p, t - 1) for part in names)
    return kind, left, right
