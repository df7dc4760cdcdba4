"""The benchmark's workloads: seeded lists of normgraph CLI invocations.

Each op is one call of `normgraph.cli.main` with the argv below, plus a check
of its exit code and output that runs outside the timed region.  Sieve
verdicts are checked against `oracle` (which never imports normgraph);
census maxima are re-attained through the dual-norm adjacency oracle
`NormGraph.adjacent`; witnesses must pass `verify` with 24/24 + 24/24.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle

SIEVE_LIMIT = 200_000

# (p, t, k, max common neighbourhood): the exhaustive censuses.  P(3,4) and
# P(5,3) are the paper's values; P(3,5) at k=3 was recorded at the seed commit.
EXHAUSTIVE = ((3, 4, 4, 4), (5, 3, 3, 2), (3, 5, 3, 20))

# the sampled census plants the 4x6 witness quadruple, so it reaches (t-1)! = 6
SAMPLE_P, SAMPLE_T, SAMPLE_TRIALS = 7, 4, 50_000

EXPORT_P, EXPORT_T, EXPORT_EDGES = 5, 4, 30_938

# qualifying primes per witness run: near 10^6 (the O(p) root scans dominate)
# and below 1000 (fixed costs dominate)
WITNESS_LARGE = (990_000, 1_000_000, 2)
WITNESS_SMALL = (7, 1_000, 3)

FIRST_LIMIT, FIRST_ANSWER = 1_000, (17, 8)
ALL_LIMIT, ALL_COUNT = 300, 410


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    stderr: str
    wall: float
    cpu: float
    scale: float = 1.0  # machine-speed rescaling of wall and cpu, from run.calibrate


@dataclass
class Op:
    key: str
    argv: list[str]
    kind: str  # sieve | census | sample | export | witness46 | verify | first | all
    check: Callable[[Outcome], list[str]]
    work: int = 0  # primes, subsets or witnesses this op settles


@dataclass
class Workload:
    ops: list[Op]
    # reason class -> count for the sieve limit, from the oracle
    sieve_classes: Counter = field(default_factory=Counter)


def build(name: str, seed: int, tmp: Path) -> Workload:
    if name == "sieve":
        classes = _sieve_classes()
        return Workload([_sieve_op(classes)], classes)
    if name == "census":
        ops = [_census_op(p, t, k, want) for p, t, k, want in EXHAUSTIVE]
        ops.append(_sample_op(seed))
        ops.append(_export_op(tmp, seed))
        return Workload(ops)
    if name == "witness":
        return Workload(_witness_ops(seed, tmp))
    raise ValueError(f"unknown workload {name!r}")


def _problem(cond: bool, msg: str) -> list[str]:
    return [] if cond else [msg]


def _rc(out: Outcome, want: int = 0) -> list[str]:
    return _problem(out.rc == want, f"exit code {out.rc}, expected {want}")


# -- sieve ---------------------------------------------------------------------


def _sieve_classes() -> Counter:
    return Counter(oracle.sieve_class(p) for p in oracle.primes_up_to(SIEVE_LIMIT))


_SIEVE_SUMMARY = re.compile(
    r"(\d+) qualifying of (\d+) primes up to (\d+); ratio ([0-9.]+) \(target [0-9.]+\)"
)


def _sieve_op(classes: Counter) -> Op:
    pi = sum(classes.values())
    want = [p for p in oracle.primes_up_to(SIEVE_LIMIT)
            if oracle.sieve_class(p) == "qualifying"]

    def check(out: Outcome) -> list[str]:
        lines = out.stdout.splitlines()
        if out.rc != 0 or not lines:
            return _rc(out) or ["empty stdout"]
        m = _SIEVE_SUMMARY.fullmatch(lines[-1])
        if m is None:
            return [f"unparsed summary line {lines[-1]!r}"]
        count, got_pi, limit = (int(g) for g in m.groups()[:3])
        return (
            _problem(lines[:-1] == [str(p) for p in want], "qualifying list differs from the recount")
            + _problem((count, got_pi, limit) == (len(want), pi, SIEVE_LIMIT),
                       f"summary {count}/{got_pi}/{limit}, recount {len(want)}/{pi}/{SIEVE_LIMIT}")
            + _problem(abs(float(m.group(4)) - len(want) / pi) < 1e-6, "ratio differs from count/pi")
        )

    argv = ["sieve", "--limit", str(SIEVE_LIMIT), "--no-cache", "--jobs", "1"]
    return Op("sieve:jobs1", argv, "sieve", check, work=pi)


# -- census and export ---------------------------------------------------------------


_CENSUS_MAX = re.compile(r"max common neighbors over (\d+)-subsets: (\d+)")


def _graph(p: int, t: int):
    from normgraph.graph import make_graph

    return make_graph(p, t)


def common_count(p: int, t: int, ids: list[int]) -> int:
    """|common neighbourhood| of the vertex ids, by the adjacency oracle."""
    G = _graph(p, t)
    S = [G.vertex_from_id(i) for i in ids]
    return sum(
        1
        for vid in range(G.n)
        if vid not in ids and all(G.adjacent(G.vertex_from_id(vid), s) for s in S)
    )


def _census_check(p: int, t: int, k: int, want: int, planted: bool):
    def check(out: Outcome) -> list[str]:
        if out.rc != 0:
            return _rc(out)
        lines = out.stdout.splitlines()
        m = _CENSUS_MAX.fullmatch(lines[2]) if len(lines) > 3 else None
        if m is None or not lines[3].startswith("achieved by vertex ids: "):
            return ["unparsed census output"]
        mx = int(m.group(2))
        ids = [int(x) for x in lines[3].split(": ")[1].split()]
        bound = math.factorial(t - 1)
        probs = _problem(mx == want, f"max {mx}, expected {want}")
        probs += _problem(len(set(ids)) == k, f"argmax {ids} is not a {k}-subset")
        if k == t:
            probs += _problem(mx <= bound, f"max {mx} exceeds (t-1)! = {bound}")
            probs += _problem(lines[4:] == [f"bound (t-1)! = {bound}: within bound"],
                              "missing within-bound line")
        if planted:
            probs += _problem(lines[1].endswith("planted=witness-quadruple"), "witness not planted")
        if not probs:
            again = common_count(p, t, ids)
            probs += _problem(again == mx, f"argmax re-attains {again}, not {mx}")
        return probs

    return check


def _census_op(p: int, t: int, k: int, want: int) -> Op:
    n = p ** (t - 1) * (p - 1)
    argv = ["census", "--p", str(p), "--t", str(t), "--k", str(k), "--jobs", "1"]
    return Op(f"census:P({p},{t})k{k}", argv, "census",
              _census_check(p, t, k, want, planted=False), work=math.comb(n, k))


def _sample_op(seed: int) -> Op:
    p, t = SAMPLE_P, SAMPLE_T
    argv = ["census", "--p", str(p), "--t", str(t), "--k", str(t), "--sample",
            "--trials", str(SAMPLE_TRIALS), "--seed", str(seed), "--jobs", "1"]
    check = _census_check(p, t, t, math.factorial(t - 1), planted=True)
    return Op(f"sample:P({p},{t})k{t}:jobs1", argv, "sample", check,
              work=SAMPLE_TRIALS + 1)


def _export_op(tmp: Path, seed: int) -> Op:
    p, t = EXPORT_P, EXPORT_T
    path = tmp / f"edges-{p}-{t}.txt"

    def check(out: Outcome) -> list[str]:
        if out.rc != 0:
            return _rc(out)
        G = _graph(p, t)
        want = f"vertices: {G.n}\nedges: {EXPORT_EDGES}\n"
        if out.stdout != want:
            return [f"stdout {out.stdout!r}, expected {want!r}"]
        edges = [tuple(map(int, ln.split())) for ln in path.read_text().splitlines()]
        probs = _problem(len(edges) == EXPORT_EDGES, f"{len(edges)} edge lines")
        probs += _problem(all(u < v for u, v in edges) and edges == sorted(set(edges)),
                          "edge list not strictly ascending")
        # spot-check both directions of the adjacency relation
        rng = random.Random(seed)
        edge_set = set(edges)
        pairs = rng.sample(edges, 25) + [tuple(sorted(rng.sample(range(G.n), 2))) for _ in range(25)]
        for u, v in pairs:
            if G.adjacent(G.vertex_from_id(u), G.vertex_from_id(v)) != ((u, v) in edge_set):
                probs.append(f"edge list disagrees with adjacency at ({u}, {v})")
        return probs

    argv = ["export", "--p", str(p), "--t", str(t), "--output", str(path)]
    return Op(f"export:P({p},{t})", argv, "export", check)


# -- witnesses ------------------------------------------------------------------------


_PASS_LINES = ["adjacency checks: 24/24 passed", "identity checks: 24/24 passed", "result: PASS"]


def _witness_ops(seed: int, tmp: Path) -> list[Op]:
    rng = random.Random(seed)
    primes = []
    for lo, hi, count in (WITNESS_SMALL, WITNESS_LARGE):
        primes += sorted(rng.sample(oracle.qualifying_primes(lo, hi), count))
    ops = []
    for p in primes:
        path = tmp / f"w46-{p}.json"

        def check_build(out: Outcome, p=p, path=path) -> list[str]:
            probs = _rc(out) + _problem(out.stdout.splitlines() == _PASS_LINES,
                                        "witness46 did not report 24/24 + 24/24 PASS")
            data = json.loads(path.read_text())
            shape = (data["p"], data["t"], len(data["L"]), len(data["R"]), data["verified"])
            return probs + _problem(shape == (p, 4, 4, 6, True), f"witness JSON shape {shape}")

        def check_verify(out: Outcome) -> list[str]:
            return _rc(out) + _problem(
                out.stdout.splitlines() == ["witness kind: canonical 4x6"] + _PASS_LINES,
                "verify did not report a canonical 4x6 PASS")

        ops.append(Op(f"witness46:p={p}", ["witness46", "--p", str(p), "--output", str(path)],
                      "witness46", check_build, work=1))
        ops.append(Op(f"verify:p={p}", ["verify", str(path)], "verify", check_verify, work=1))

    def check_first(out: Outcome) -> list[str]:
        if out.rc != 0:
            return _rc(out)
        d = json.loads(out.stdout)
        got = (d["t"], d["m"], d["p"], d["r"], d["verified"])
        return _problem(got == (4, 2, *FIRST_ANSWER, True), f"first result {got}")

    line = re.compile(r"t=4 m=2 p=(\d+) r=(\d+) verified=True")

    def check_all(out: Outcome) -> list[str]:
        if out.rc != 0:
            return _rc(out)
        found = [line.fullmatch(ln) for ln in out.stdout.splitlines()]
        if not all(found):
            return ["unverified or unparsed witness line"]
        sets = [(int(m.group(1)), int(m.group(2))) for m in found]
        return (_problem(len(sets) == ALL_COUNT, f"{len(sets)} witnesses, expected {ALL_COUNT}")
                + _problem(sets == sorted(set(sets)) and sets[-1][0] <= ALL_LIMIT,
                           "parameter sets not ascending and distinct"))

    ops.append(Op("witness-general:first",
                  ["witness-general", "--t", "4", "--m", "2", "--limit", str(FIRST_LIMIT),
                   "--seed", str(seed)], "first", check_first))
    ops.append(Op("witness-general:all",
                  ["witness-general", "--t", "4", "--m", "2", "--limit", str(ALL_LIMIT),
                   "--all", "--format", "text", "--seed", str(seed)],
                  "all", check_all, work=ALL_COUNT))
    return ops
