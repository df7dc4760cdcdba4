"""Command-line front end.

Subcommands: sieve, witness46, census, verify, export, witness-general.
Exit codes: 0 success/verified, 1 mathematical failure (failed check or
cross-check, non-qualifying prime, bound violation, empty search), 2 usage
or input error.  Every subcommand is deterministic given its flags; --jobs
changes wall time, never output bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
from pathlib import Path

from . import general, graph, k46
from .graph import CENSUS_BUDGET, NormGraph, WitnessReport, make_graph, witness_to_json
from .polys import find_root_in_ext
# primes_up_to is unused here; perfbench/layers.py rebinds cli.primes_up_to
from .primes import PSI_12, SIEVE_LIMIT, primes_up_to  # noqa: F401


# -- output helpers ------------------------------------------------------------


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(lines, output: str | None) -> int:
    """The one writer: each line and a newline, to the --output file or else
    to stdout, as `lines` yields it.  Returns how many lines it wrote."""
    with (open(output, "w", encoding="utf-8") if output
          else contextlib.nullcontext(sys.stdout)) as out:
        count = 0
        for count, line in enumerate(lines, 1):
            out.write(line + "\n")
    return count


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


# -- sieve ----------------------------------------------------------------------


def cmd_sieve(args) -> int:
    res = k46.sieve_qualifying(args.limit, jobs=args.jobs)
    if args.format == "csv":
        lines = k46.sieve_csv_lines(res)
    elif args.format == "json":
        lines = [json.dumps(k46.sieve_summary(res), indent=2)]
    else:
        summary = (
            f"{res.count} qualifying of {res.pi} primes up to {res.limit}; "
            f"ratio {res.ratio:.6f} (target {k46.DENSITY_TARGET:.6f})"
        )
        lines = itertools.chain(map(str, res.qualifying), [summary])
    _emit(lines, args.output)
    return 0


# -- witness46 -------------------------------------------------------------------


def _check_lines(report: WitnessReport) -> list[str]:
    """A witness's check counts, then every failure, then the result.  A
    bare biclique is a report with no identity checks and no identity line."""
    rep = report.biclique.report
    adj_failed = len(report.adjacency_failures)
    id_failed = len(report.identity_failures)
    lines = [
        f"adjacency checks: {report.adjacency_checked - adj_failed}"
        f"/{report.adjacency_checked} passed",
    ]
    if report.identity_checked:
        lines.append(
            f"identity checks: {report.identity_checked - id_failed}"
            f"/{report.identity_checked} passed"
        )
    if not rep.left_distinct:
        lines.append("  left side has duplicate vertices")
    if not rep.right_distinct:
        lines.append("  right side has duplicate vertices")
    if not rep.disjoint:
        lines.append("  sides are not disjoint")
    for uid, vid in report.adjacency_failures:
        lines.append(f"  adjacency failed: vertex ids {uid}, {vid}")
    for msg in report.identity_failures:
        lines.append(f"  identity failed: {msg}")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    return lines


def cmd_witness46(args) -> int:
    p = 7 if args.p is None else args.p
    cert = k46.is_qualifying_prime(p)
    if isinstance(cert, k46.Rejection):
        print(f"not qualifying: {cert.reason}")
        return 1
    try:
        w = k46.build_witness(cert)
    except k46.DegeneracyError as exc:
        print(f"degenerate witness: {exc}", file=sys.stderr)
        return 1
    report = k46.verify_witness(w)
    payload = json.dumps(
        witness_to_json(k46.witness_graph(w), w.A, w.B, report.passed), indent=2
    )
    lines = _check_lines(report)
    all_ok = report.passed
    if args.all_orderings:
        canonical = set(w.B)
        for order in itertools.permutations(range(3)):
            wo = k46.build_witness(cert, root_order=order)
            ro = k46.verify_witness(wo)
            all_ok = all_ok and ro.passed and set(wo.B) == canonical
            lines.append(
                f"root ordering {order}: "
                f"{'PASS' if ro.passed else 'FAIL'}, vertex set "
                f"{'identical' if set(wo.B) == canonical else 'DIFFERS'}"
            )
    _emit([payload], args.output)
    if args.output or args.format == "text":
        _emit(lines, None)
    else:
        for ln in lines:
            _note(ln)
    return 0 if all_ok else 1


# -- census ----------------------------------------------------------------------


def _planted_subsets(G: NormGraph, args) -> tuple[tuple[int, ...], ...]:
    """The canonical witness left side, re-encoded in the census field.

    The census graph may use a different modulus than the witness pipeline,
    so the left side is rebuilt around a cube root of 2 extracted
    deterministically inside the census field itself."""
    if args.t != 4 or args.k != 4 or not args.sample:
        return ()
    ok, _ = k46.qualifying_verdict(args.p)
    if not ok:
        return ()
    theta = find_root_in_ext(k46.X3_MINUS_2, G.field, seed=0)
    return (tuple(G.vertex_id(v) for v in k46.left_side(G.field, theta)),)


def cmd_census(args) -> int:
    if args.sample and args.trials < 1:
        return _usage_error("--trials must be >= 1")
    try:
        G = make_graph(args.p, args.t)
        if args.sample:
            planted = _planted_subsets(G, args)
            mx, argmax = G.sample_max_common(
                args.k, args.trials, args.seed, planted=planted, budget=args.budget
            )
            mode = {
                "mode": "sample",
                "trials": args.trials,
                "seed": args.seed,
                "planted": bool(planted),
            }
        else:
            mx, argmax = G.census_max_common(args.k, budget=args.budget, jobs=args.jobs)
            mode = {"mode": "exhaustive", "subsets": math.comb(G.n, args.k)}
    except ValueError as exc:
        return _usage_error(str(exc))
    bound = math.factorial(args.t - 1)
    bound_applies = args.k == args.t
    within = mx <= bound
    result = {
        "p": args.p,
        "t": args.t,
        "k": args.k,
        "n": G.n,
        **mode,
        "max_common": mx,
        "argmax": list(argmax),
        "bound": bound,
        "bound_applies": bound_applies,
        "within_bound": within,
    }
    if args.format == "json":
        lines = [json.dumps(result, indent=2)]
    else:
        lines = [
            f"graph: p={args.p} t={args.t} n={G.n}",
            "mode: "
            + (
                f"sample trials={args.trials} seed={args.seed}"
                + (" planted=witness-quadruple" if mode.get("planted") else "")
                if args.sample
                else f"exhaustive subsets={mode['subsets']}"
            ),
            f"max common neighbors over {args.k}-subsets: {mx}",
            f"achieved by vertex ids: {' '.join(str(i) for i in argmax)}",
        ]
        if bound_applies:
            lines.append(
                f"bound (t-1)! = {bound}: "
                + ("within bound" if within else "VIOLATED")
            )
    _emit(lines, args.output)
    return 0 if (within or not bound_applies) else 1


# -- verify ----------------------------------------------------------------------


def _verify_sides(data: dict, kind: str, L, R) -> tuple[list[str], bool]:
    """verify's lines and verdict for a witness that parse_witness has read."""
    if kind == "general":
        report = general.verify_general_witness(general.witness_from_sides(data, L, R))
        label = f"general {data['t'] - 1}x{data['m']}"
    else:
        G = make_graph(data["p"], data["t"], list(data["modulus"]))
        canonical = k46.canonical_witness(G, L, R)
        if canonical is None:
            label = "graph biclique"
            report = WitnessReport(
                G.verify_biclique(L, R), identity_checked=0, identity_failures=[]
            )
        else:
            label, report = "canonical 4x6", k46.verify_witness(canonical)
    return [f"witness kind: {label}", *_check_lines(report)], report.passed


def cmd_verify(args) -> int:
    try:
        text = Path(args.path).read_text(encoding="utf-8")
    except OSError as exc:
        return _usage_error(f"cannot read {args.path}: {exc}")
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long ints, deep nesting
        return _usage_error(f"malformed JSON: {exc}")
    try:
        kind, L, R = graph.parse_witness(data)
    except ValueError as exc:
        return _usage_error(str(exc))

    # schema is sound; everything after this point is mathematics
    try:
        lines, passed = _verify_sides(data, kind, L, R)
    except (ValueError, AssertionError) as exc:
        print(f"witness invalid: {exc}")
        print("result: FAIL")
        return 1
    _emit(lines, None)
    return 0 if passed else 1


# -- export ----------------------------------------------------------------------


def cmd_export(args) -> int:
    try:
        G = make_graph(args.p, args.t)
        lines = G.edge_lines()  # raises on a graph over the size guard
    except ValueError as exc:
        return _usage_error(str(exc))
    try:  # lines printed before a failed check stay printed
        count = _emit(lines, args.output)
        if 2 * count != G.degree_sum():
            raise AssertionError(f"{count} edges, not half the degree sum {G.degree_sum()}")
    except AssertionError:
        if args.output:  # a failed check leaves no edge list behind
            os.remove(args.output)
        raise
    report = print if args.output else _note
    report(f"vertices: {G.n}")
    report(f"edges: {count}")
    return 0


# -- witness-general ---------------------------------------------------------------


def cmd_witness_general(args) -> int:
    try:
        found = general.find_parameters(
            args.t,
            args.m,
            args.limit,
            max_results=None if args.all else 1,
            jobs=args.jobs,
        )
    except ValueError as exc:
        return _usage_error(str(exc))
    if not found:
        print(
            f"no parameters found for t={args.t}, m={args.m} with p <= {args.limit}",
            file=sys.stderr,
        )
        return 1
    payloads = []
    all_ok = True
    for params in found:
        try:
            w = general.build_general_witness(params, seed=args.seed)
        except (ValueError, AssertionError) as exc:
            _note(f"build failed at p={params.p}, r={params.r}: {exc}")
            all_ok = False
            continue
        report = general.verify_general_witness(w)
        all_ok = all_ok and report.passed
        payloads.append(general.general_witness_to_json(w, report.passed))
    if not payloads:
        return 1
    if args.format == "text":
        lines = (
            f"t={d['t']} m={d['m']} p={d['p']} r={d['r']} "
            f"verified={d['verified']}"
            for d in payloads
        )
    else:
        lines = [json.dumps(payloads if args.all else payloads[0], indent=2)]
    _emit(lines, args.output)
    return 0 if all_ok else 1


# -- parser ----------------------------------------------------------------------


def _add_common(sp, jobs=True, output=True) -> None:
    if jobs:
        sp.add_argument("--jobs", type=int, default=1, help="worker processes")
    if output:
        sp.add_argument("--output", help="write primary output to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normgraph",
        description="Projective norm graphs: qualifying-prime sieves, "
        "biclique witnesses, and common-neighborhood censuses.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sieve = sub.add_parser("sieve", help="sieve qualifying primes up to a limit")
    p_sieve.add_argument("--limit", type=int, required=True)
    p_sieve.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_sieve.add_argument(
        "--no-cache", action="store_true",
        help="accepted and ignored: the sieve keeps no cache",
    )
    _add_common(p_sieve)
    p_sieve.set_defaults(fn=cmd_sieve)

    p_w46 = sub.add_parser(
        "witness46", help="build and verify the 4x6 witness for a qualifying prime"
    )
    p_w46.add_argument("--p", type=int, default=None, help="prime (default 7)")
    p_w46.add_argument(
        "--all-orderings",
        action="store_true",
        help="also build and verify all 3! cubic-root orderings",
    )
    p_w46.add_argument("--format", choices=("text", "json"), default="text")
    _add_common(p_w46, jobs=False)
    p_w46.set_defaults(fn=cmd_witness46)

    p_census = sub.add_parser(
        "census", help="max common neighborhood size over k-subsets"
    )
    p_census.add_argument("--p", type=int, required=True)
    p_census.add_argument("--t", type=int, required=True)
    p_census.add_argument("--k", type=int, required=True)
    p_census.add_argument("--budget", type=int, default=CENSUS_BUDGET)
    p_census.add_argument("--sample", action="store_true")
    p_census.add_argument("--trials", type=int, default=100000)
    p_census.add_argument("--seed", type=int, default=0)
    p_census.add_argument("--format", choices=("text", "json"), default="text")
    _add_common(p_census)
    p_census.set_defaults(fn=cmd_census)

    p_verify = sub.add_parser("verify", help="re-verify a stored witness JSON file")
    p_verify.add_argument("path")
    p_verify.set_defaults(fn=cmd_verify)

    p_export = sub.add_parser("export", help="write the edge list of P(p,t)")
    p_export.add_argument("--p", type=int, required=True)
    p_export.add_argument("--t", type=int, required=True)
    _add_common(p_export, jobs=False)
    p_export.set_defaults(fn=cmd_export)

    p_gen = sub.add_parser(
        "witness-general", help="search parameters and emit general witnesses"
    )
    p_gen.add_argument("--t", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--limit", type=int, required=True)
    p_gen.add_argument("--all", action="store_true", help="emit every parameter set")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--format", choices=("json", "text"), default="json")
    _add_common(p_gen)
    p_gen.set_defaults(fn=cmd_witness_general)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        return _usage_error(f"--jobs must be >= 1, got {args.jobs}")
    if getattr(args, "limit", 2) < 2:
        return _usage_error("--limit must be >= 2")
    if getattr(args, "limit", 0) > SIEVE_LIMIT:
        return _usage_error(f"--limit must be <= {SIEVE_LIMIT}, got {args.limit}")
    if (getattr(args, "p", None) or 0) >= PSI_12:
        return _usage_error(f"--p must be < {PSI_12}, got {args.p}")
    output = getattr(args, "output", None)
    if output:
        out = Path(output)
        if out.is_dir() or not (
            out.parent.is_dir() and os.access(out.parent, os.W_OK | os.X_OK)
        ):
            return _usage_error(f"--output {output} is not a file in a writable directory")
    try:
        return args.fn(args)
    except OSError as exc:  # e.g. an --output path that cannot be written
        return _usage_error(str(exc))
    except AssertionError as exc:  # a failed internal cross-check
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
