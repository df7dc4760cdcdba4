"""Span tracing of normgraph's layer boundaries, installed from outside.

`Tracer.install` rebinds, for the duration of one traced repetition, the
names through which one normgraph module calls another module's public
functions: `k46.is_irreducible` is the splitting route as k46 sees it,
`general.is_irreducible` the general search's irreducibility tests, and so
on.  Class methods that form a layer's interface (`NormGraph.census_max_common`,
`ExtField.norm`, ...) are rebound on the class.  Per-element arithmetic
(`ExtField.mul`/`add`, the census inner loop) is never wrapped.

Each wrapped call appends a span [name, start, end, parent, op] to an
in-memory list; spans are written out once, when the run ends.  A span's self
time is its duration minus its children's.  A process pool's workers would
keep their spans; no workload starts one, and parallel.pools checks that.
Span times include the speed probe's slices (about 2%, see speed.py), and the
reported layer times are rescaled like the end-to-end ones.
"""

from __future__ import annotations

import functools
import math
import statistics
from collections import Counter
from time import perf_counter

# (name, unit, the end-to-end metric and workload it should move)
LAYER_METRICS = (
    ("run.primes_per_s", "1/s", "untraced: primes given a cross-checked verdict per second"),
    ("run.subsets_per_s", "1/s", "untraced: k-subsets counted per second, exhaustive + sampled"),
    ("run.witnesses_per_s", "1/s", "untraced: witnesses built or re-verified per second"),
    ("run.first_witness_s", "s", "untraced: witness-general stopping at its first result"),
    ("run.failed_frac", "ratio", "untraced and traced: failed ops / attempted ops"),
    ("primes.sieve_s", "s", "primes_per_s on sieve; under 1%, predicted not to move"),
    ("k46.verdicts", "count", "number of qualifying verdicts"),
    ("k46.splitting_s", "s", "primes_per_s on sieve"),
    ("k46.splitting_calls", "count", "primes_per_s on sieve"),
    ("k46.residue_s", "s", "should not move"),
    ("k46.reject.not_1_mod_3", "count", "correctness: must not change"),
    ("k46.reject.two_cube", "count", "correctness: must not change"),
    ("k46.reject.three_cube", "count", "correctness: must not change"),
    ("k46.reject.six_not_cube", "count", "correctness: must not change"),
    ("k46.reject.disc", "count", "correctness: must not change"),
    ("k46.qualifying", "count", "correctness: must not change"),
    ("k46.pi", "count", "base of k46.qualifying_ratio and the densities"),
    ("k46.qualifying_ratio", "ratio", "qualifying / pi; Chebotarev predicts 1/9"),
    ("k46.density.not_1_mod_3", "ratio", "reject count / pi; predicted 1/2"),
    ("k46.density.two_cube", "ratio", "reject count / pi; predicted 1/6"),
    ("k46.density.three_cube", "ratio", "reject count / pi; predicted 1/9"),
    ("k46.density.six_not_cube", "ratio", "reject count / pi; predicted 1/9"),
    ("k46.density.qualifying", "ratio", "qualifying / pi; predicted 1/9"),
    ("k46.certify_s", "s", "witnesses_per_s on witness"),
    ("k46.build_s", "s", "witnesses_per_s on witness"),
    ("k46.identity_s", "s", "witnesses_per_s on witness"),
    ("polys.roots_in_base_s", "s", "witnesses_per_s on witness"),
    ("polys.roots_in_base_calls", "count", "witnesses_per_s on witness"),
    ("polys.find_root_s", "s", "witnesses_per_s on witness"),
    ("polys.find_root_calls", "count", "witnesses_per_s on witness"),
    ("polys.irreducible_s.general", "s", "first_witness_s and witnesses_per_s on witness"),
    ("polys.irreducible_calls.general", "count", "first_witness_s and witnesses_per_s on witness"),
    ("ff.norm_s", "s", "witnesses_per_s on witness"),
    ("ff.norm_calls", "count", "witnesses_per_s on witness"),
    ("ff.norm_conj_calls", "count", "wall_s on census (the bulk norm table)"),
    ("graph.make_s", "s", "wall_s on every workload (field and graph construction)"),
    ("graph.prepare_s", "s", "wall_s and subsets_per_s on census"),
    ("graph.scan_s", "s", "subsets_per_s on census"),
    ("graph.subsets", "count", "subsets_per_s on census"),
    ("graph.export_s", "s", "wall_s on census"),
    ("graph.edges", "count", "wall_s on census"),
    ("graph.bitset_bytes", "bytes_computed", "peak_rss_mb on census; n*ceil(n/8), computed"),
    ("graph.biclique_s", "s", "witnesses_per_s on witness"),
    ("graph.pairs_checked", "count", "witnesses_per_s on witness"),
    ("general.search_s", "s", "first_witness_s on witness"),
    ("general.primes_scanned", "count", "first_witness_s on witness"),
    ("general.prefilter_s", "s", "first_witness_s on witness"),
    ("general.irreducible_tests", "count", "base of general.hit_ratio"),
    ("general.found", "count", "parameter sets the first-result scan found"),
    ("general.hit_ratio", "ratio", "found / irreducible_tests, with first_witness_s"),
    ("general.control_search_s", "s", "the --all search: an early exit must not move it"),
    ("general.control_primes_scanned", "count", "the --all search: an early exit must not move it"),
    ("general.build_s", "s", "witnesses_per_s on witness"),
    ("general.verify_s", "s", "witnesses_per_s on witness"),
    ("parallel.pools", "count", "must stay 0: every op runs at --jobs 1"),
    ("parallel.tasks", "count", "wall_s on every workload (run_tasks, in process)"),
    ("parallel.run_s", "s", "wall_s on every workload (run_tasks, in process)"),
    ("cli.self_s", "s", "wall_s on every workload (parsing, formatting, printing, file IO)"),
    ("trace.overhead_frac", "ratio", "traced wall / untraced wall - 1"),
)

# metrics that must repeat exactly from one repetition (and run) to the next
COUNT_METRICS = tuple(name for name, unit, _ in LAYER_METRICS
                      if unit in ("count", "bytes_computed") or name.startswith("k46.density")
                      or name in ("k46.qualifying_ratio", "general.hit_ratio"))

_REASON_TEXT = (
    ("is not 1 mod 3", "not_1_mod_3"),
    ("2 is a cube", "two_cube"),
    ("3 is a cube", "three_cube"),
    ("6 is not a cube", "six_not_cube"),
    ("divides", "disc"),
)


def reason_class(row) -> str:
    if row.qualifying:
        return "qualifying"
    for text, cls in _REASON_TEXT:
        if text in row.reason:
            return cls
    return "other"


class Rep:
    """What one traced repetition recorded."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op index]
        self.counts: Counter = Counter()  # (op index, counter) -> n
        self.sieves: list = []  # SieveResults the CLI received
        self.bitset_bytes = 0

    @property
    def classes(self) -> Counter:
        """Sieve reason class -> rows, over every sieve of the repetition."""
        return Counter(reason_class(row) for res in self.sieves for row in res.rows)


class Tracer:
    def __init__(self, modules: dict):
        self.m = modules
        self.reps: list[Rep] = []
        self.rep = Rep()
        self.stack: list[int] = []
        self.op = -1
        self._saved: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """fn wrapped in a span; after(args, kwargs, result) records counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rep, stack = self.rep, self.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(rep.spans))
            rep.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def count(self, name: str, n: int = 1) -> None:
        self.rep.counts[(self.op, name)] += n

    def begin_rep(self) -> None:
        self.rep = Rep()
        self.reps.append(self.rep)

    # -- installing ------------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, after=None, wrap=None):
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, self.span(name, wrap(orig) if wrap else orig, after))

    def install(self) -> None:
        m = self.m
        cli, k46, graph, general, ff, parallel = (
            m["cli"], m["k46"], m["graph"], m["general"], m["ff"], m["parallel"])
        P = self._patch
        for site in (cli, k46, general):
            P(site, "primes_up_to", "primes.primes_up_to")
            P(site, "make_graph", "graph.make")
        P(k46, "is_irreducible", "k46.splitting")
        P(k46, "poly_pow_mod", "k46.splitting")
        P(k46, "power_residue", "k46.residue")
        P(k46, "qualifying_verdict", "k46.verdict")
        P(k46, "is_qualifying_prime", "k46.certify")
        P(k46, "sieve_qualifying", "k46.sieve", after=self._sieve_rows)
        P(k46, "build_witness", "k46.build")
        P(k46, "verify_witness", "k46.verify_witness")
        for site in (k46, general):
            P(site, "roots_in_base", "polys.roots_in_base")
        for site in (cli, general):
            P(site, "find_root_in_ext", "polys.find_root")
        P(general, "is_irreducible", "polys.irreducible.general")
        P(general, "find_parameters", "general.search")
        P(general, "build_general_witness", "general.build")
        P(general, "verify_general_witness", "general.verify")
        P(graph.NormGraph, "census_max_common", "graph.census", after=self._exhaustive)
        P(graph.NormGraph, "sample_max_common", "graph.census", after=self._sampled)
        P(graph.NormGraph, "edge_lines", "graph.export", after=self._edges, wrap=_materialized)
        P(graph.NormGraph, "verify_biclique", "graph.biclique", after=self._pairs)
        P(ff.ExtField, "norm", "ff.norm")
        P(graph, "run_tasks", "graph.scan", after=self._tasks)
        P(k46, "run_tasks", "k46.scan", after=self._tasks)
        P(general, "run_tasks", "general.scan", after=self._scanned)

        # counters without spans: bulk norms and pool start-ups
        norm_conj = ff.ExtField.norm_conj
        self._saved.append((ff.ExtField, "norm_conj", norm_conj))

        def counted_norm_conj(field, a):
            # calls from inside ExtField.norm are its first route, not the table
            if not self.stack or self.rep.spans[self.stack[-1]][0] != "ff.norm":
                self.count("ff.norm_conj_calls")
            return norm_conj(field, a)

        ff.ExtField.norm_conj = counted_norm_conj
        pool_cls = parallel.ProcessPoolExecutor
        self._saved.append((parallel, "ProcessPoolExecutor", pool_cls))
        tracer = self

        class CountedPool(pool_cls):
            def __init__(self, *args, **kwargs):
                tracer.count("parallel.pools")
                super().__init__(*args, **kwargs)

        parallel.ProcessPoolExecutor = CountedPool

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- after-hooks: cheap bookkeeping only; anything costly waits for the end

    def _sieve_rows(self, args, kwargs, res) -> None:
        self.rep.sieves.append(res)

    def _exhaustive(self, args, kwargs, res) -> None:
        graph, k = args[0], args[1]
        self.count("graph.subsets", math.comb(graph.n, k))
        self._bitsets(graph)

    def _sampled(self, args, kwargs, res) -> None:
        graph, trials = args[0], args[2]
        self.count("graph.subsets", trials + len(kwargs.get("planted", ())))
        self._bitsets(graph)

    def _bitsets(self, graph) -> None:
        self.rep.bitset_bytes = max(self.rep.bitset_bytes, graph.n * math.ceil(graph.n / 8))

    def _edges(self, args, kwargs, lines) -> None:
        self.count("graph.edges", len(lines))

    def _pairs(self, args, kwargs, res) -> None:
        self.count("graph.pairs_checked", res.report.pairs_checked)

    def _tasks(self, args, kwargs, res) -> None:
        self.count("parallel.tasks", len(args[1]))

    def _scanned(self, args, kwargs, res) -> None:
        self._tasks(args, kwargs, res)
        self.count("general.primes_scanned", len(args[1]))
        self.count("general.found", sum(len(r) for r in res))

    # -- aggregation -------------------------------------------------------------------

    def rep_metrics(self, rep: Rep, kinds: list[str]) -> dict[str, float]:
        """Per-layer metrics of one traced repetition; kinds[op] is the op's kind."""
        spans = rep.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, op in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total, own, calls = Counter(), Counter(), Counter()
        for i, (name, t0, t1, parent, op) in enumerate(spans):
            for key in (name, (kinds[op], name)):
                total[key] += t1 - t0
                own[key] += t1 - t0 - child[i]
                calls[key] += 1
        counts, by_kind = Counter(), Counter()
        for (op, name), n in rep.counts.items():
            counts[name] += n
            by_kind[(kinds[op], name)] += n

        cls = rep.classes
        pi = sum(cls.values())
        first_tests = calls[("first", "polys.irreducible.general")]
        out = {
            "primes.sieve_s": total["primes.primes_up_to"],
            "k46.verdicts": calls["k46.verdict"],
            "k46.splitting_s": total["k46.splitting"],
            "k46.splitting_calls": calls["k46.splitting"],
            "k46.residue_s": total["k46.residue"],
            **{f"k46.reject.{c}": cls[c] for c in
               ("not_1_mod_3", "two_cube", "three_cube", "six_not_cube", "disc")},
            "k46.qualifying": cls["qualifying"],
            "k46.pi": pi,
            "k46.qualifying_ratio": cls["qualifying"] / pi if pi else 0.0,
            **{f"k46.density.{c}": cls[c] / pi if pi else 0.0 for c in
               ("not_1_mod_3", "two_cube", "three_cube", "six_not_cube", "qualifying")},
            "k46.certify_s": own["k46.certify"],
            "k46.build_s": total["k46.build"],
            "k46.identity_s": own["k46.verify_witness"],
            "polys.roots_in_base_s": total["polys.roots_in_base"],
            "polys.roots_in_base_calls": calls["polys.roots_in_base"],
            "polys.find_root_s": total["polys.find_root"],
            "polys.find_root_calls": calls["polys.find_root"],
            "polys.irreducible_s.general": total["polys.irreducible.general"],
            "polys.irreducible_calls.general": calls["polys.irreducible.general"],
            "ff.norm_s": total["ff.norm"],
            "ff.norm_calls": calls["ff.norm"],
            "ff.norm_conj_calls": counts["ff.norm_conj_calls"],
            "graph.make_s": total["graph.make"],
            "graph.prepare_s": own["graph.census"],
            "graph.scan_s": total["graph.scan"],
            "graph.subsets": counts["graph.subsets"],
            "graph.export_s": total["graph.export"],
            "graph.edges": counts["graph.edges"],
            "graph.bitset_bytes": rep.bitset_bytes,
            "graph.biclique_s": total["graph.biclique"],
            "graph.pairs_checked": counts["graph.pairs_checked"],
            "general.search_s": total[("first", "general.search")],
            "general.primes_scanned": by_kind[("first", "general.primes_scanned")],
            "general.prefilter_s": total[("first", "general.scan")]
            - total[("first", "polys.irreducible.general")],
            "general.irreducible_tests": first_tests,
            "general.found": by_kind[("first", "general.found")],
            "general.hit_ratio": by_kind[("first", "general.found")] / first_tests
            if first_tests else 0.0,
            "general.control_search_s": total[("all", "general.search")],
            "general.control_primes_scanned": by_kind[("all", "general.primes_scanned")],
            "general.build_s": total["general.build"],
            "general.verify_s": total["general.verify"],
            "parallel.pools": counts["parallel.pools"],
            "parallel.tasks": counts["parallel.tasks"],
            "parallel.run_s": sum(total[n] for n in ("graph.scan", "k46.scan", "general.scan")),
            "cli.self_s": own["cli.main"],
        }
        return out

    def layer_metrics(self, kinds: list[str], scales: list[float]) -> tuple[dict, list[str]]:
        """Median over traced repetitions, times rescaled by each repetition's
        machine-speed scale; counts must repeat exactly."""
        seconds = {name for name, unit, _ in LAYER_METRICS if unit == "s"}
        per_rep = [
            {k: v * scale if k in seconds else v for k, v in self.rep_metrics(rep, kinds).items()}
            for rep, scale in zip(self.reps, scales)
        ]
        problems = []
        merged = {}
        for name in per_rep[0]:
            values = [r[name] for r in per_rep]
            if name in COUNT_METRICS:
                if len(set(values)) != 1:
                    problems.append(f"count {name} did not repeat: {values}")
                merged[name] = values[0]
            else:
                merged[name] = statistics.median(values)
        return merged, problems

    def dump(self, run_start: float) -> list:
        """Every span of every traced repetition, times in ns from run start."""
        return [
            [r, name, round((t0 - run_start) * 1e9), round((t1 - run_start) * 1e9), parent, op]
            for r, rep in enumerate(self.reps)
            for name, t0, t1, parent, op in rep.spans
        ]


def _materialized(edge_lines):
    """edge_lines run to completion inside its span, so the span holds the
    graph layer's work and not the caller's writes between lines."""

    def lines(graph, *args, **kwargs):
        return list(edge_lines(graph, *args, **kwargs))

    return lines
