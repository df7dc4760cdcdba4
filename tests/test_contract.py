"""The exit contract under hostile input, run through cli.main in process.

Seeded mutations of both witness JSON kinds go through `verify`, and hostile
argv vectors through all six subcommands.  Every run exits 0, 1 or 2 and no
exception escapes main.  Exit 2 prints nothing on stdout and exactly one
`error:` line on stderr.  A mutant that `verify` passes is re-checked here by
brute force: two duplicate-free, disjoint sides, and every pair adjacent by
ExtField.norm_pow over the file's own field.  Standard library and pytest
only.
"""

import json
import random
import subprocess
import sys

import pytest

from normgraph import cli, general, graph, k46, parallel
from normgraph.ff import ExtField
from normgraph.graph import witness_to_json

MUTANTS_PER_KIND = 500

# what a mutation puts where an int or a list belongs
HOSTILE = (True, False, None, 1.5, "7", [1], [[1]], {"a": 1}, -1, 0, 10**30, 2**64)


def graph_witness() -> dict:
    """The canonical 4x6 witness in P(37,4), as witness46 writes it."""
    w = k46.build_witness(k46.is_qualifying_prime(37))
    return witness_to_json(k46.witness_graph(w), w.A, w.B, True)


def general_witness() -> dict:
    """The first 4x2 general witness in P(p,5), as witness-general writes it."""
    params = general.find_parameters(5, 2, 200, max_results=1)[0]
    w = general.build_general_witness(params)
    return general.general_witness_to_json(w, True)


def run_main(capsys, argv) -> tuple[int, str, str]:
    """main's exit code, stdout and stderr; an exception escaping main fails
    the test by propagating."""
    try:
        code = cli.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse refusing the argv
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def assert_contract(code: int, out: str, err: str, what) -> None:
    assert code in (0, 1, 2), what
    if code == 2:
        assert out == "", what
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (
            what, err)


def brute_force_passes(data: dict) -> bool:
    """Both sides duplicate-free and disjoint, and N(alpha + beta) = ab for
    every pair, by the power route over the field the file names."""
    p, t = data["p"], data["t"]
    if data.keys() >= set(graph.GENERAL_KEYS):
        modulus = general.shifted_poly(t, data["thetas"][0], data["r"], p)
        sides = data["A"], data["B"]
    else:
        modulus, sides = data["modulus"], (data["L"], data["R"])
    field = ExtField(p, t - 1, modulus)
    left, right = ([(tuple(v["alpha"]), v["a"]) for v in side] for side in sides)
    if len(set(left)) < len(left) or len(set(right)) < len(right) or set(left) & set(right):
        return False
    return all(
        field.norm_pow(field.add(alpha, beta)) == a * b % p
        for alpha, a in left
        for beta, b in right
    )


def _slots(node, path=()):
    """Every (path, value) below node, lists and dicts included."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,), value
            yield from _slots(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield path + (i,), value
            yield from _slots(value, path + (i,))


def _set(data, path, value):
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


def mutate(base: dict, rng: random.Random) -> tuple[str, bytes]:
    """One seeded mutation of a witness: its name and the file's bytes."""
    data = json.loads(json.dumps(base))
    text = json.dumps(data, indent=2)
    slots = list(_slots(data))
    lists = [(path, v) for path, v in slots if isinstance(v, list) and v]
    ints = [(path, v) for path, v in slots if type(v) is int]
    kind = rng.choice(("drop", "duplicate", "hostile", "nudge", "short", "long",
                       "truncate", "not-utf8"))
    if kind == "drop":
        key = rng.choice(list(data))
        del data[key]
        return f"drop {key}", json.dumps(data).encode()
    if kind == "duplicate":  # json.loads keeps the later value
        key, value = rng.choice(list(data)), rng.choice(HOSTILE)
        return f"duplicate {key} as {value!r}", (
            text[:-1] + f', "{key}": {json.dumps(value)}}}').encode()
    if kind == "hostile":
        path, _ = rng.choice(slots)
        value = rng.choice(HOSTILE)
        _set(data, path, value)
        return f"{path} = {value!r}", json.dumps(data).encode()
    if kind == "nudge":
        path, value = rng.choice(ints)
        value += rng.choice((-1, 1, 2, data["p"]))
        _set(data, path, value)
        return f"{path} = {value}", json.dumps(data).encode()
    if kind in ("short", "long"):
        path, value = rng.choice(lists)
        i = rng.randrange(len(value))
        value = value[:i] + value[i + 1:] if kind == "short" else value + [value[i]]
        _set(data, path, value)
        return f"{path} one {kind}", json.dumps(data).encode()
    raw = text.encode()
    cut = rng.randrange(len(raw))
    if kind == "truncate":
        return f"truncated at {cut}", raw[:cut]
    return f"byte {cut} = 0xff", raw[:cut] + b"\xff" + raw[cut + 1:]


@pytest.mark.parametrize("make", [graph_witness, general_witness], ids=["graph", "general"])
def test_witness_mutants_keep_the_contract(tmp_path, capsys, make):
    base = make()
    path = tmp_path / "w.json"
    rng = random.Random(0)
    codes = set()
    for _ in range(MUTANTS_PER_KIND):
        what, raw = mutate(base, rng)
        path.write_bytes(raw)
        code, out, err = run_main(capsys, ["verify", path])
        assert_contract(code, out, err, what)
        if code == 0:
            assert brute_force_passes(json.loads(raw)), what
        codes.add(code)
    assert codes == {0, 1, 2}


@pytest.mark.parametrize("make", [graph_witness, general_witness], ids=["graph", "general"])
@pytest.mark.parametrize("value", [0, 1, 3, "true", None, [True]], ids=repr)
def test_verified_must_be_a_bool(tmp_path, capsys, make, value):
    data = make()
    data["verified"] = value
    path = tmp_path / "w.json"
    path.write_text(json.dumps(data))
    code, out, err = run_main(capsys, ["verify", path])
    assert (code, out, err) == (2, "", "error: 'verified' must be true or false\n")


@pytest.mark.parametrize("make", [graph_witness, general_witness], ids=["graph", "general"])
def test_verified_false_is_not_trusted_either_way(tmp_path, capsys, make):
    data = make()
    data["verified"] = False
    path = tmp_path / "w.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_main(capsys, ["verify", path])
    assert code == 0 and out.endswith("result: PASS\n")


def test_non_utf8_file_is_a_read_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"p": 7}')
    code, out, err = run_main(capsys, ["verify", path])
    assert (code, out) == (2, "")
    assert err == (
        f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte\n"
    )


def test_read_stops_one_byte_past_the_bound(tmp_path, capsys, monkeypatch):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(graph_witness()))
    size = path.stat().st_size
    monkeypatch.setattr(graph, "MAX_WITNESS_BYTES", size)
    assert run_main(capsys, ["verify", path])[0] == 0
    monkeypatch.setattr(graph, "MAX_WITNESS_BYTES", size - 1)
    code, out, err = run_main(capsys, ["verify", path])
    assert (code, out, err) == (2, "", f"error: cannot read {path}: over {size - 1} bytes\n")


def test_the_largest_file_the_pair_cap_admits_is_under_the_bound():
    # 24-digit coordinates, the most any p below PSI_12 needs
    big = 10**23
    for t in range(3, graph.MAX_T + 1):
        side = [graph.Vertex((big,) * (t - 1), big)]
        data = graph.encode_witness(
            graph.GRAPH_KEYS, (big, t, [big] * t), side, side * graph.pair_cap(t), True
        )
        assert len(json.dumps(data, indent=2).encode()) <= graph.MAX_WITNESS_BYTES, t


# the hostile argv vectors of ROADMAP item 13, each with the exit code it
# gets; the --limit 10^8 runs are in SIZED
ARGV = [
    *[(["witness46", "--p", p], code) for p, code in ((1, 1), (0, 1), (-7, 1), (4, 1), (9, 1))],
    *[(["census", "--p", p, "--t", 3, "--k", 1], 2) for p in (1, 0, -7, 4, 9)],
    *[(["export", "--p", p, "--t", 3], 2) for p in (1, 0, -7, 4, 9)],
    *[(["census", "--p", 3, "--t", t, "--k", 1], 2) for t in (1, 2, 25)],
    *[(["export", "--p", 3, "--t", t], 2) for t in (1, 2, 25)],
    *[(["witness-general", "--t", t, "--m", 2, "--limit", 20], 2) for t in (1, 2, 25)],
    (["census", "--p", 3, "--t", 3, "--k", 0], 2),
    (["census", "--p", 3, "--t", 3, "--k", 19], 2),
    *[([*argv, "--jobs", jobs], 2)
      for argv in (["sieve", "--limit", 100], ["census", "--p", 3, "--t", 3, "--k", 1],
                   ["witness-general", "--t", 4, "--m", 2, "--limit", 20])
      for jobs in (0, -3)],
    (["census", "--p", 3, "--t", 3, "--k", 1, "--budget", -1], 2),
    (["census", "--p", 3, "--t", 3, "--k", 1, "--sample", "--trials", 0], 2),
    (["sieve", "--limit", -5], 2),
    (["witness-general", "--t", 4, "--m", 2, "--limit", -5], 2),
    (["witness-general", "--t", 4, "--m", 0, "--limit", 20], 2),
]


@pytest.mark.parametrize("argv, code", ARGV, ids=[" ".join(map(str, a)) for a, _ in ARGV])
def test_hostile_argv_keeps_the_contract(capsys, argv, code):
    got, out, err = run_main(capsys, argv)
    assert_contract(got, out, err, argv)
    assert got == code


# a child that runs `python -m normgraph ARGV` as its own child, under a
# 1 GiB address-space cap that the grandchild inherits and a 30 s timeout,
# and prints its exit code, stdout, stderr and peak RSS in kB; RUSAGE_CHILDREN
# of the test process would also count every earlier test's children
CAPPED = """
import json, resource, subprocess, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
r = subprocess.run([sys.executable, "-m", "normgraph", *sys.argv[1:]],
                   capture_output=True, text=True, timeout=30)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps([r.returncode, r.stdout, r.stderr, peak]))
"""

# work-sizing flags and inputs far past their bounds, each with the start of
# its error line
SIZED = [
    (["verify", "/dev/zero"], "error: cannot read /dev/zero: over "),
    (["sieve", "--limit", 10**8], "error: --limit must be <= "),
    (["witness-general", "--t", 4, "--m", 2, "--limit", 10**8], "error: --limit must be <= "),
    (["census", "--p", 7, "--t", 4, "--k", 2, "--sample", "--trials", 10**9],
     "error: sampled census needs 1000000000 trials, over the budget of "),
    (["census", "--p", 7, "--t", 4, "--k", 10**6], "error: k must be between 1 and "),
]


@pytest.mark.parametrize("argv, error", SIZED, ids=[" ".join(map(str, a)) for a, _ in SIZED])
def test_refused_in_bounded_memory(argv, error):
    r = subprocess.run(
        [sys.executable, "-c", CAPPED, *map(str, argv)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    code, out, err, peak_kb = json.loads(r.stdout)
    assert_contract(code, out, err, argv)
    assert code == 2 and err.startswith(error)
    assert peak_kb < 100 * 1024


# each subcommand that takes --jobs, on inputs that cut more than one task,
# so that --jobs 2 starts a pool wherever the host has two CPUs
POOLED = [
    ["sieve", "--limit", 1000],
    ["census", "--p", 3, "--t", 3, "--k", 2],
    ["witness-general", "--t", 4, "--m", 2, "--limit", 200, "--all"],
]


@pytest.mark.parametrize("argv", POOLED, ids=[a[0] for a in POOLED])
def test_two_workers_print_the_serial_bytes_in_bounded_memory(capsys, argv):
    r = subprocess.run(
        [sys.executable, "-c", CAPPED, *map(str, argv), "--jobs", "2"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    code, out, err, peak_kb = json.loads(r.stdout)
    assert (code, out, err) == run_main(capsys, [*argv, "--jobs", 1])
    assert code == 0
    assert peak_kb < 100 * 1024


def test_export_takes_no_jobs_flag():
    # export is serial; argparse refuses the flag, with its usage lines
    # before the one error line
    r = subprocess.run(
        [sys.executable, "-c", CAPPED, "export", "--p", "3", "--t", "3", "--jobs", "2"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    code, out, err, peak_kb = json.loads(r.stdout)
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --jobs 2\n")
    assert peak_kb < 100 * 1024


class SerialPool:
    """A ProcessPoolExecutor that starts no process: map runs in this one,
    and each pool's max_workers is recorded."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize("argv", POOLED, ids=[a[0] for a in POOLED])
def test_a_million_jobs_are_clamped_to_the_cpus(capsys, monkeypatch, argv):
    want = run_main(capsys, [*argv, "--jobs", 1])
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(SerialPool, "sizes", [])
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)
    assert run_main(capsys, [*argv, "--jobs", 10**6]) == want
    assert SerialPool.sizes and all(2 <= size <= 4 for size in SerialPool.sizes)


@pytest.mark.parametrize(
    "argv, name",
    [(["sieve", "--limit", "100"], "sieve_qualifying"),
     (["witness46", "--p", "37"], "is_qualifying_prime")],
    ids=["sieve", "witness46"],
)
def test_a_library_value_error_is_exit_2(capsys, monkeypatch, argv, name):
    def refuse(*args, **kwargs):
        raise ValueError("refused")

    monkeypatch.setattr(k46, name, refuse)
    assert run_main(capsys, argv) == (2, "", "error: refused\n")


def test_a_degenerate_reordered_witness_is_exit_1(capsys, monkeypatch):
    # DegeneracyError is a ValueError, which main alone would call exit 2
    build = k46.build_witness

    def degenerate_when_reordered(cert, root_order=(0, 1, 2)):
        if root_order != (0, 1, 2):
            raise k46.DegeneracyError("collided")
        return build(cert, root_order)

    monkeypatch.setattr(k46, "build_witness", degenerate_when_reordered)
    code, out, err = run_main(capsys, ["witness46", "--all-orderings"])
    assert (code, out, err) == (1, "", "degenerate witness: collided\n")


def test_export_removes_its_output_on_a_refusal(tmp_path, capsys, monkeypatch):
    def refused_midway(G):
        yield "0 1"
        raise ValueError("refused")

    monkeypatch.setattr(graph.NormGraph, "edge_lines", refused_midway)
    out = tmp_path / "edges.txt"
    assert run_main(capsys, ["export", "--p", 3, "--t", 3, "--output", out]) == (
        2, "", "error: refused\n")
    assert not out.exists()


def test_a_read_only_output_starts_no_work(tmp_path, capsys, monkeypatch):
    # export would remove an --output that it failed to open
    out = tmp_path / "edges.txt"
    out.write_text("kept\n")
    access = cli.os.access
    monkeypatch.setattr(cli.os, "access", lambda path, mode: path != out and access(path, mode))
    def work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "make_graph", work)
    code, stdout, err = run_main(capsys, ["export", "--p", 3, "--t", 3, "--output", out])
    assert (code, stdout) == (2, "")
    assert err == f"error: --output {out} is not a file in a writable directory\n"
    assert out.read_text() == "kept\n"
