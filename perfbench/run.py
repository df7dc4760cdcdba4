"""The normgraph benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Runs one workload from BENCHMARK.json through the public CLI entry point
`normgraph.cli.main` (in process, stdout captured, exit code kept), repeating
its op list until --seconds is spent, and prints as the last stdout line one
JSON object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run alternates untraced
and traced repetitions and reports the per-layer ones (see layers.py).  Each op
is timed alone, its times are rescaled to a reference machine speed (see
speed.py), and a workload's time is the sum of its ops' medians.  Outputs
are checked after the timed region (see workloads.py).  `--workload all` runs
every workload once at --trace 0 in a child process and prints one table.

Sieve runs use --no-cache, and NORMGRAPH_CACHE and every file the program
writes point into a temporary directory under perfbench/out that is removed
at exit.  A record of each run (commit, Python, nproc, load, seed, jobs, per-op
stdout digests) and the spans of traced runs are written to perfbench/out.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SRC = ROOT / "src"
REFERENCE = HERE / "reference_seed0.json"

SETUP_RUNS = 11
MIN_REPS = 3  # repetitions at --trace 0; a traced run alternates at least 2 pairs

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def execute(main, argv: list[str], probe: speed.Probe) -> workloads.Outcome:
    """One CLI call, stdout and stderr captured; a traceback is an exit of None.
    Times exclude the probe's slices and are not yet rescaled."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    c0 = _cpu()
    t0 = time.perf_counter()
    with probe.during():
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed op, not a failed benchmark
            rc = None
            err.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    probed = sum(probe.inside)
    return workloads.Outcome(rc, out.getvalue(), err.getvalue(), wall - probed,
                             _cpu() - c0 - probed)


def measure_setup(env: dict) -> tuple[float, float]:
    """Median (rescaled, raw) wall time of a fresh interpreter importing normgraph.cli."""
    argv = [sys.executable, "-c", "import normgraph.cli"]
    # the first import may compile bytecode
    subprocess.run(argv, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    probe = speed.Probe()
    raw, scaled = [], []
    before = probe.bracket()
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
        after = probe.bracket()
        scaled.append(raw[-1] * speed.scale(before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def environment(seed: int, jobs: int, nproc: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "normgraph").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": None,  # filled in by _commit() once peak memory is read
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": nproc,
        "loadavg": Path("/proc/loadavg").read_text().split()[:3],
        "seed": seed,
        "jobs": jobs,
    }


def _commit() -> str | None:
    """HEAD when run from a git work tree; the src digest identifies the code otherwise."""
    if not (ROOT / ".git").exists():
        return None
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return git.stdout.strip() or None


def repeat(ops, main, tracer, probe, seconds: float, trace: bool) -> list[tuple[bool, list]]:
    """The op list, over and over until `seconds` are spent; with tracing,
    every second repetition runs with the tracer installed."""
    reps: list[tuple[bool, list[workloads.Outcome]]] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        if traced:
            tracer.begin_rep()
            tracer.install()
        try:
            call = tracer.span("cli.main", main) if traced else main
            outcomes = []
            before = probe.bracket()
            for i, op in enumerate(ops):
                tracer.op = i
                out = execute(call, op.argv, probe)
                after = probe.bracket()
                out.scale = speed.scale(before + probe.inside + after)
                before = after
                outcomes.append(out)
        finally:
            tracer.uninstall()
        reps.append((traced, outcomes))
        elapsed = time.perf_counter() - start
        if len(reps) >= (4 if trace else MIN_REPS) and elapsed * (1 + 1 / len(reps)) > seconds:
            return reps


def check_outputs(name, seed, ops, reps) -> tuple[set, list[str], dict]:
    """Check each op's output once, and that every repetition printed the same."""
    failed: set[tuple[int, int]] = set()  # (repetition, op)
    problems: list[str] = []
    digests = {}
    first = reps[0][1]
    reference = json.loads(REFERENCE.read_text()).get(name, {}) if seed == 0 else None
    for i, op in enumerate(ops):
        try:
            found = op.check(first[i])
        except Exception as exc:  # a malformed output is a failed check
            found = [f"check raised {exc!r}"]
        digests[op.key] = {"sha256": hashlib.sha256(first[i].stdout.encode()).hexdigest(),
                           "exit": first[i].rc}
        if reference is not None and reference.get(op.key) != digests[op.key]:
            found.append("stdout or exit differs from the seed-0 reference")
        found += [f"repetition {r} output differs from repetition 0"
                  for r, (_, outs) in enumerate(reps)
                  if (outs[i].rc, outs[i].stdout) != (first[i].rc, first[i].stdout)]
        if found:
            found.append(f"stderr: {first[i].stderr[-2000:]!r}")
            failed |= {(r, i) for r in range(len(reps))}
        problems += [f"{op.key}: {p}" for p in found]
    return failed, problems, digests


def _rep_scale(outs) -> float:
    return sum(o.wall * o.scale for o in outs) / sum(o.wall for o in outs)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from normgraph import cli, ff, general, graph, k46, parallel

    nproc = len(os.sched_getaffinity(0))
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        os.environ["NORMGRAPH_CACHE"] = str(tmp / "cache")
        wl = workloads.build(name, seed, tmp)
        # every op passes --jobs 1: the program does not clamp --jobs to nproc
        record = {"workload": name, "trace": int(trace), **environment(seed, 1, nproc)}
        ops, kinds = wl.ops, [op.kind for op in wl.ops]
        probe = speed.Probe()
        tracer = layers.Tracer(
            {"cli": cli, "ff": ff, "general": general, "graph": graph, "k46": k46,
             "parallel": parallel})
        start = time.perf_counter()
        reps = repeat(ops, cli.main, tracer, probe, seconds, trace)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + kids) / 1024
        record["commit"] = _commit()  # a child process: only after the peak is read

        failed, problems, digests = check_outputs(name, seed, ops, reps)
        untraced = [outs for traced, outs in reps if not traced]
        wall = [statistics.median(o[i].wall * o[i].scale for o in untraced) for i in range(len(ops))]
        attempted = len(reps) * len(ops)

        if trace:
            scales = [_rep_scale(outs) for traced, outs in reps if traced]
            metrics, count_problems = tracer.layer_metrics(kinds, scales)
            if count_problems:
                problems += count_problems
                failed |= {(r, i) for r, (t, _) in enumerate(reps) if t for i in range(len(ops))}
            wrong = [dict(rep.classes) for rep in tracer.reps if rep.classes != wl.sieve_classes]
            if wl.sieve_classes and wrong:
                problems.append(f"sieve reason counts {wrong} differ from the recount "
                                f"{dict(wl.sieve_classes)}")
                failed |= {(r, kinds.index("sieve")) for r in range(len(reps))}
            rep_walls = {t: statistics.median(sum(o.wall * o.scale for o in outs)
                                              for tt, outs in reps if tt == t) for t in (False, True)}
            metrics["trace.overhead_frac"] = rep_walls[True] / rep_walls[False] - 1
            metrics.update(_throughput(ops, wall))
            metrics["run.failed_frac"] = len(failed) / attempted
            (OUT / f"spans-{name}-seed{seed}.json").write_text(json.dumps({
                "note": "spans [rep, name, start_ns, end_ns, parent, op], raw times",
                "ops": [op.key for op in ops],
                "spans": tracer.dump(start),
            }))
            units = {n: u for n, u, _ in layers.LAYER_METRICS}
        else:
            path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
            env = {**os.environ, "PYTHONPATH": path}
            setup_s, record["raw_setup_s"] = measure_setup(env)
            cpu = [statistics.median(o[i].cpu * o[i].scale for o in untraced)
                   for i in range(len(ops))]
            metrics = {
                "wall_s": sum(wall),
                "cpu_s": sum(cpu),
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb,
            }
            units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

        result = {
            "correct": not problems and not failed,
            "attempted": attempted,
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        record.update(
            result=result, problems=problems, digests=digests,
            op_wall_s=dict(zip([op.key for op in ops], wall)),
            raw_wall_s=sum(statistics.median(o[i].wall for o in untraced) for i in range(len(ops))),
            rep_raw_wall_s=[[o.wall for o in outs] for _, outs in reps],
            rep_scale=[[o.scale for o in outs] for _, outs in reps],
        )
        (OUT / f"run-{name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=1))
        _report(record, trace)
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _throughput(ops, wall) -> dict[str, float]:
    def rate(kinds):
        idx = [i for i, op in enumerate(ops) if op.kind in kinds]
        secs = sum(wall[i] for i in idx)
        return sum(ops[i].work for i in idx) / secs if secs else 0.0

    return {
        "run.primes_per_s": rate({"sieve"}),
        "run.subsets_per_s": rate({"census", "sample"}),
        "run.witnesses_per_s": rate({"witness46", "verify", "all"}),
        "run.first_witness_s": sum(w for op, w in zip(ops, wall) if op.kind == "first"),
    }


def _report(record: dict, trace: bool) -> None:
    """Human-readable summary on stderr."""
    say = lambda s="": print(s, file=sys.stderr)  # noqa: E731
    env = {k: record[k] for k in ("commit", "src_sha256", "python", "nproc", "loadavg", "seed", "jobs")}
    say(f"workload {record['workload']} trace={int(trace)} "
        f"reps={len(record['rep_raw_wall_s'])} raw_wall_s={record['raw_wall_s']:.4g}")
    say(f"  {json.dumps(env)}")
    notes = {n: why for n, _, why in layers.LAYER_METRICS}
    for name, m in record["result"]["metrics"].items():
        say(f"  {name:34s} {m['value']:>16.6g} {m['unit']:15s} {notes.get(name, '')}")
    res = record["result"]
    say(f"  failed_frac {res['failed']}/{res['attempted']}")
    for p in record["problems"]:
        say(f"  PROBLEM {p}")


def run_all(seed: int, seconds: int) -> int:
    """Every workload at --trace 0, one child process each, as one table."""
    results = {}
    for wl in _config()["workloads"]:
        argv = [sys.executable, str(Path(__file__)), "--workload", wl["name"], "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{wl['name']}: exit {proc.returncode}", file=sys.stderr)
            return 1
        results[wl["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'workload':10s} {'metric':12s} {'value':>12s} unit")
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:10s} {metric:12s} {m['value']:12.6g} {m['unit']}")
        print(f"{name:10s} {'failed_frac':12s} {res['failed'] / res['attempted']:12.6g} ratio")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    config = _config()
    names = [w["name"] for w in config["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=config["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    sys.path.insert(0, str(SRC))
    try:
        import normgraph.cli
    except ImportError as exc:
        print(f"cannot import normgraph from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC not in Path(normgraph.cli.__file__).resolve().parents:
        print(f"normgraph was imported from {normgraph.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    listed = config["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        print(f"metrics {sorted(set(got) ^ set(want))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
