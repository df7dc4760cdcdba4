"""End-to-end CLI behavior: flags, exit codes, formats, determinism."""

import functools
import hashlib
import itertools
import json
import os
import resource
import subprocess
import sys
import time

import pytest

from normgraph import cli, general, graph, k46
from normgraph.ff import ExtField
from normgraph.graph import make_graph, witness_to_json
from normgraph.primes import PSI_12


def run(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "normgraph", *map(str, argv)],
        capture_output=True,
        text=True,
        **kwargs,
    )


def cap_address_space():
    # a run that ignores the --limit bound fails on this cap instead of
    # trying to allocate limit + 1 bytes
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def assert_usage_error(r, message):
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"error: {message}\n"


class TestUsage:
    def test_no_subcommand(self):
        assert run().returncode == 2

    def test_unknown_subcommand(self):
        assert run("frobnicate").returncode == 2

    def test_missing_required_flag(self):
        assert run("sieve").returncode == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("sieve", "--limit", 150, "--no-cache"),
            ("census", "--p", 3, "--t", 4, "--k", 4),
            ("witness-general", "--t", 4, "--m", 2, "--limit", 20),
        ],
        ids=["sieve", "census", "witness-general"],
    )
    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, argv, jobs):
        r = run(*argv, "--jobs", jobs)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == f"error: --jobs must be >= 1, got {jobs}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("sieve", "--limit", 150, "--no-cache"),
            ("witness46",),
            ("census", "--p", 3, "--t", 3, "--k", 2),
            ("export", "--p", 3, "--t", 3),
            ("witness-general", "--t", 4, "--m", 2, "--limit", 20),
        ],
        ids=["sieve", "witness46", "census", "export", "witness-general"],
    )
    def test_unwritable_output(self, tmp_path, argv):
        out = tmp_path / "missing" / "x"
        r = run(*argv, "--output", out)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.startswith("error: ")
        assert str(out) in r.stderr
        assert r.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, owner, name",
        [
            (["sieve", "--limit", "1000000", "--no-cache"], k46, "sieve_qualifying"),
            (["census", "--p", "3", "--t", "3", "--k", "2"],
             graph.NormGraph, "census_max_common"),
            (["witness-general", "--t", "4", "--m", "2", "--limit", "2000"],
             general, "find_parameters"),
        ],
        ids=["sieve", "census", "witness-general"],
    )
    def test_unwritable_output_starts_no_work(
        self, tmp_path, monkeypatch, capsys, argv, owner, name
    ):
        def work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(owner, name, work)
        plain = tmp_path / "plain"
        plain.write_text("")
        for out in (tmp_path / "missing" / "x", plain / "x", tmp_path):
            assert cli.main([*argv, "--output", str(out)]) == 2
            stdout, stderr = capsys.readouterr()
            assert stdout == ""
            assert stderr == (
                f"error: --output {out} is not a file in a writable directory\n"
            )

    @pytest.mark.parametrize(
        "argv, owner, name",
        [
            (["sieve", "--limit"], k46, "sieve_qualifying"),
            (["witness-general", "--t", "4", "--m", "2", "--limit"],
             general, "find_parameters"),
        ],
        ids=["sieve", "witness-general"],
    )
    def test_limit_below_two_starts_no_work(self, monkeypatch, capsys, argv, owner, name):
        def work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(owner, name, work)
        for limit in ("1", "0", "-5"):
            assert cli.main([*argv, limit]) == 2
            stdout, stderr = capsys.readouterr()
            assert stdout == ""
            assert stderr == "error: --limit must be >= 2\n"

    @pytest.mark.parametrize(
        "argv",
        [("witness46", "--p", PSI_12), ("census", "--p", PSI_12, "--t", 3, "--k", 1)],
        ids=["witness46", "census"],
    )
    def test_p_at_psi_12_refused(self, capsys, argv):
        # below PSI_12 the twelve-base Miller-Rabin test is exact; PSI_12
        # itself is a composite it passes
        assert cli.main([str(a) for a in argv]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr == f"error: --p must be < {PSI_12}, got {PSI_12}\n"


class TestSieve:
    def test_text_150(self):
        r = run("sieve", "--limit", 150)
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines[:3] == ["7", "37", "139"]
        assert lines[3] == (
            "3 qualifying of 35 primes up to 150; ratio 0.085714 (target 0.111111)"
        )

    def test_empty_below_seven(self):
        r = run("sieve", "--limit", 6)
        assert r.returncode == 0
        assert r.stdout.splitlines() == [
            "0 qualifying of 3 primes up to 6; ratio 0.000000 (target 0.111111)"
        ]

    def test_json_summary_keys(self):
        r = run("sieve", "--limit", 150, "--format", "json")
        data = json.loads(r.stdout)
        assert list(data) == ["limit", "count", "pi", "ratio", "target"]
        assert data["limit"] == 150
        assert data["count"] == 3
        assert data["pi"] == 35
        assert data["ratio"] == pytest.approx(3 / 35)
        assert data["target"] == pytest.approx(1 / 9)

    def test_csv_format(self):
        r = run("sieve", "--limit", 30, "--format", "csv")
        lines = r.stdout.splitlines()
        assert lines[0] == "p,qualifying,reason"
        assert len(lines) == 11  # ten primes below 30
        assert lines[4].startswith("7,1,")

    def test_limit_too_small(self):
        assert run("sieve", "--limit", 1).returncode == 2

    def test_limit_above_bound(self):
        r = run("sieve", "--limit", 10**11, "--no-cache",
                preexec_fn=cap_address_space)
        assert_usage_error(r, f"--limit must be <= {10**7}, got {10**11}")

    def test_no_cache_writes_nothing(self, tmp_path):
        # --no-cache is accepted and ignored: no run writes a file
        env = {**os.environ, "HOME": str(tmp_path)}
        for flags in ((), ("--no-cache",)):
            assert run("sieve", "--limit", 100, *flags, env=env).returncode == 0
        assert list(tmp_path.rglob("*")) == []

    def test_pinned_csv_digest(self):
        # every reason class occurs below 3000, the discriminants' at p = 2
        # and 3, so a reworded reason changes the digest
        r = run("sieve", "--limit", 3000, "--format", "csv")
        assert r.returncode == 0
        assert r.stdout.count("divides both discriminants") == 2
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == (
            "f6f08f269854f0cfb8e29ff34915971e0d81132ff58f8d9fa1b965449e3254e3"
        )

    def test_jobs_do_not_change_bytes(self):
        outs = {
            run(
                "sieve", "--limit", 3000, "--no-cache", "--format", "csv",
                "--jobs", j,
            ).stdout
            for j in (1, 2, 8)
        }
        assert len(outs) == 1

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
    def test_csv_streams_below_30_mb_at_1e6(self):
        # the wrapper's only child is the sieve, so RUSAGE_CHILDREN holds that
        # run's peak; streamed, the 78,499 CSV lines peak near 20 MB, and
        # built as one string near 41 MB
        wrapper = (
            "import resource, subprocess, sys\n"
            "subprocess.run([sys.executable, '-m', 'normgraph', 'sieve', '--limit', '1000000',"
            " '--format', 'csv', '--jobs', '1'], stdout=subprocess.DEVNULL, check=True)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        r = subprocess.run([sys.executable, "-c", wrapper], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert int(r.stdout) / 1024 < 30


class TestWitness46:
    def test_default_prime_seven(self):
        r = run("witness46")
        assert r.returncode == 0
        assert "adjacency checks: 24/24 passed" in r.stdout
        assert "identity checks: 24/24 passed" in r.stdout
        assert "result: PASS" in r.stdout

    def test_json_format_parses(self):
        r = run("witness46", "--format", "json")
        data = json.loads(r.stdout)
        assert data["p"] == 7 and data["t"] == 4
        assert data["modulus"] == [5, 0, 0, 1]
        assert len(data["L"]) == 4 and len(data["R"]) == 6
        assert data["verified"] is True
        assert "24/24" in r.stderr

    def test_ten_distinct_vertices(self):
        data = json.loads(run("witness46", "--format", "json").stdout)
        seen = {(tuple(v["alpha"]), v["a"]) for v in data["L"] + data["R"]}
        assert len(seen) == 10

    def test_non_qualifying_rejected(self):
        r = run("witness46", "--p", 13)
        assert r.returncode == 1
        assert r.stdout.startswith("not qualifying:")

    def test_composite_rejected(self):
        r = run("witness46", "--p", 8)
        assert r.returncode == 1
        assert "not qualifying" in r.stdout

    def test_larger_qualifying_prime(self):
        assert run("witness46", "--p", 37).returncode == 0

    def test_above_root_scan_guard(self):
        # 4194433, the first qualifying prime above 2^22, where roots were
        # once found by scanning F_p and refused
        r = run("witness46", "--p", 4194433, timeout=60)
        assert r.returncode == 0
        assert r.stdout.splitlines()[-3:] == [
            "adjacency checks: 24/24 passed",
            "identity checks: 24/24 passed",
            "result: PASS",
        ]

    def test_thirteen_digit_prime_then_verify(self, tmp_path):
        # a qualifying prime near 10^13: root finding is polylogarithmic in
        # p, so building and re-verifying the witness takes well under a
        # second
        out = tmp_path / "w.json"
        r = run("witness46", "--p", 10000000000267, "--output", out, timeout=60)
        assert r.returncode == 0
        assert r.stdout.splitlines() == [
            "adjacency checks: 24/24 passed",
            "identity checks: 24/24 passed",
            "result: PASS",
        ]
        r = run("verify", out, timeout=60)
        assert r.returncode == 0
        assert r.stdout.splitlines() == [
            "witness kind: canonical 4x6",
            "adjacency checks: 24/24 passed",
            "identity checks: 24/24 passed",
            "result: PASS",
        ]

    def test_all_orderings(self):
        r = run("witness46", "--all-orderings")
        assert r.returncode == 0
        ordering_lines = [
            ln for ln in r.stdout.splitlines() if ln.startswith("root ordering")
        ]
        assert len(ordering_lines) == 6
        assert all("PASS, vertex set identical" in ln for ln in ordering_lines)

    def test_all_orderings_compare_vertex_sets(self, monkeypatch, capsys):
        # every ordering but the first builds p = 37's witness, which passes
        # its checks with another vertex set
        build, other = k46.build_witness, k46.is_qualifying_prime(37)

        def mixed(cert, root_order=(0, 1, 2)):
            return build(cert if root_order == (0, 1, 2) else other, root_order)

        monkeypatch.setattr(k46, "build_witness", mixed)
        assert cli.main(["witness46", "--all-orderings"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "root ordering (0, 1, 2): PASS, vertex set identical" in lines
        assert "root ordering (2, 1, 0): PASS, vertex set DIFFERS" in lines

    def test_output_file_then_verify(self, tmp_path):
        out = tmp_path / "w.json"
        r = run("witness46", "--output", out)
        assert r.returncode == 0
        v = run("verify", out)
        assert v.returncode == 0
        assert "canonical 4x6" in v.stdout
        assert "result: PASS" in v.stdout


class TestCensus:
    def test_exhaustive_p3_t4(self):
        r = run("census", "--p", 3, "--t", 4, "--k", 4)
        assert r.returncode == 0
        assert "max common neighbors over 4-subsets: 4" in r.stdout
        assert "within bound" in r.stdout

    def test_exhaustive_p5_t3_json(self):
        r = run(
            "census", "--p", 5, "--t", 3, "--k", 3, "--format", "json",
        )
        data = json.loads(r.stdout)
        assert data["max_common"] == 2
        assert data["bound"] == 2
        assert data["within_bound"] is True
        assert r.returncode == 0

    def test_infeasible_exhaustive_needs_sample(self):
        r = run("census", "--p", 7, "--t", 4, "--k", 4)
        assert r.returncode == 2
        assert "--sample" in r.stderr

    def test_sampled_with_planted_witness(self):
        r = run(
            "census", "--p", 7, "--t", 4, "--k", 4, "--sample",
            "--trials", 2000,
        )
        assert r.returncode == 0
        assert "planted=witness-quadruple" in r.stdout
        assert "max common neighbors over 4-subsets: 6" in r.stdout

    @pytest.mark.parametrize(
        "argv,stdout",
        [
            (
                [2, 4, 4, 5, 1],
                "graph: p=2 t=4 n=8\n"
                "mode: sample trials=5 seed=1\n"
                "max common neighbors over 4-subsets: 4\n"
                "achieved by vertex ids: 0 2 4 7\n"
                "bound (t-1)! = 6: within bound\n",
            ),
            (
                [3, 3, 3, 50, 1],
                "graph: p=3 t=3 n=18\n"
                "mode: sample trials=50 seed=1\n"
                "max common neighbors over 3-subsets: 2\n"
                "achieved by vertex ids: 6 12 15\n"
                "bound (t-1)! = 2: within bound\n",
            ),
            (
                [7, 4, 4, 50000, 0],
                "graph: p=7 t=4 n=2058\n"
                "mode: sample trials=50000 seed=0 planted=witness-quadruple\n"
                "max common neighbors over 4-subsets: 6\n"
                "achieved by vertex ids: 570 894 1154 1466\n"
                "bound (t-1)! = 6: within bound\n",
            ),
        ],
        # n = 8 and 18 take random.sample's pool branch, n = 2058 its set branch
        ids=["P(2,4)", "P(3,3)", "P(7,4)"],
    )
    def test_sampled_census_bytes(self, argv, stdout):
        p, t, k, trials, seed = argv
        r = run(
            "census", "--p", p, "--t", t, "--k", k, "--sample",
            "--trials", trials, "--seed", seed,
        )
        assert r.returncode == 0
        assert r.stdout == stdout

    @pytest.mark.parametrize("trials", [0, -5])
    def test_sample_needs_a_trial(self, trials):
        r = run(
            "census", "--p", 3, "--t", 3, "--k", 3, "--sample",
            "--trials", trials,
        )
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == "error: --trials must be >= 1\n"

    def test_trials_over_budget_starts_no_work(self, monkeypatch, capsys):
        def work(*args, **kwargs):
            raise AssertionError("work started")

        # bitsets and trial draws both come after the guard
        monkeypatch.setattr(graph.NormGraph, "_all_bitsets", work)
        monkeypatch.setattr(graph.random, "Random", work)
        trials = graph.CENSUS_BUDGET + 1
        argv = ["census", "--p", "5", "--t", "3", "--k", "3", "--sample"]
        assert cli.main([*argv, "--trials", str(trials)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: sampled census needs {trials} trials, "
            f"over the budget of {graph.CENSUS_BUDGET}\n"
        )

    def test_sampled_k_over_query_cap_starts_no_work(self, monkeypatch, capsys):
        def work(*args, **kwargs):
            raise AssertionError("work started")

        # each trial ANDs k bitsets, which the trial budget does not count
        monkeypatch.setattr(graph.NormGraph, "_all_bitsets", work)
        monkeypatch.setattr(graph.random, "Random", work)
        k = graph.MAX_COMMON_QUERY + 1
        argv = ["census", "--p", "7", "--t", "4", "--k", str(k), "--sample"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: sampled census takes k in 1..{graph.MAX_COMMON_QUERY}, got {k}\n"

    def test_trials_at_budget_run(self):
        argv = ["census", "--p", 3, "--t", 3, "--k", 3, "--sample", "--budget", 40]
        r = run(*argv, "--trials", 40)
        assert r.returncode == 0
        assert "mode: sample trials=40 seed=0" in r.stdout
        r = run(*argv, "--trials", 41)
        assert_usage_error(r, "sampled census needs 41 trials, over the budget of 40")

    @pytest.mark.parametrize("p,t", [(4, 3), (4, 4), (9, 4), (4, 5)])
    def test_composite_p_reported_as_such(self, p, t):
        r = run("census", "--p", p, "--t", t, "--k", 3)
        assert r.returncode == 2
        assert r.stderr == f"error: p must be prime, got {p}\n"

    @pytest.mark.parametrize(
        "flags", [["--sample", "--trials", 1], ["--budget", 10**8]]
    )
    def test_over_memory_guard(self, flags):
        # P(3,16) has 28697814 vertices, above both guards
        r = run("census", "--p", 3, "--t", 16, "--k", 1, *flags)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.startswith("error: census bitsets for 28697814 vertices")
        assert r.stderr.count("\n") == 1

    @pytest.mark.parametrize("t", [24, 40, 150])
    def test_modulus_search_refused_above_enumeration_guard(self, t):
        # P(3,t) has over 2^(t-1) > 2^22 vertices, refused before the
        # degree t-1 modulus search, whose cost grows with 3^(t-1)
        r = run("census", "--p", 3, "--t", t, "--k", 1, "--sample", "--trials", 1,
                timeout=60)
        assert_usage_error(
            r, f"P(3,{t}) has at least 2^{t - 1} vertices, above the enumeration "
            "guard 4194304"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["census", "--p", 3, "--t", 400_000_000, "--k", 1], "P(3,400000000) has at least "
             "2^399999999 vertices, above the enumeration guard 4194304"),
            (["census", "--p", 3, "--t", 10**12, "--k", 1], "P(3,1000000000000) has at least "
             "2^999999999999 vertices, above the enumeration guard 4194304"),
            (["export", "--p", 3, "--t", 10**12], "P(3,1000000000000) has at least "
             "2^999999999999 vertices, above the enumeration guard 4194304"),
            # the memory guard, which needs only n, comes before C(n,k)
            (["census", "--p", 1000003, "--t", 4, "--k", 10**6], "census bitsets for "
             f"{(n := 1000003**3 * 1000002)} vertices need {n * -(-n // 8)} bytes, above the "
             f"memory guard {graph.CENSUS_MEMORY}"),
            # C(78608,39304) has 23,661 digits, more than str() writes
            (["census", "--p", 17, "--t", 4, "--k", 39304], "exhaustive census needs "
             f"C(78608,39304) subsets, over the budget of {graph.CENSUS_BUDGET}; rerun with --sample"),
        ],
        ids=["t-4e8", "t-1e12", "export-t-1e12", "memory-before-budget", "count-unprintable"],
    )
    def test_size_flags_refused_at_once(self, argv, message):
        # no refusal builds a number as large as the flags name: a run that
        # does fails under the 1 GB cap, or times out
        start = time.monotonic()
        r = run(*argv, timeout=10, preexec_fn=cap_address_space)
        assert time.monotonic() - start < 1
        assert_usage_error(r, message)

    def test_k_not_t_skips_bound(self):
        r = run("census", "--p", 3, "--t", 4, "--k", 2)
        assert r.returncode == 0
        assert "bound" not in r.stdout

    def test_count_above_the_bound_is_violated(self, monkeypatch, capsys):
        # a census that reports one more common neighbour than (t-1)! = 6
        monkeypatch.setattr(
            graph.NormGraph, "census_max_common", lambda G, k, **kw: (7, (0, 1, 2, 3))
        )
        assert cli.main(["census", "--p", "3", "--t", "4", "--k", "4"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "bound (t-1)! = 6: VIOLATED"

    def test_count_above_the_bound_above_t_is_an_internal_fault(self, monkeypatch, capsys):
        # N(S) lies in the common neighbourhood of each 4-subset of S; both
        # censuses return through the library's check, before the recount
        monkeypatch.setattr(graph, "_census_search", lambda *a, **kw: (7, (0, 1, 2, 3, 4)))
        monkeypatch.setattr(graph, "_subset_census", lambda bitsets, subset: 7)
        argv = ["census", "--p", "3", "--t", "4", "--k", "5"]
        for mode in ([], ["--sample", "--trials", "3"]):
            code = cli.main(argv + mode)
            TestFailedCrossCheck.assert_one_line_exit(
                capsys, code, "5-subset has 7 common neighbours, over (t-1)! = 6"
            )

    def test_k_above_t_skips_bound(self, capsys):
        argv = ["census", "--p", "3", "--t", "3", "--k", "4"]
        assert cli.main(argv) == 0
        assert "bound" not in capsys.readouterr().out
        assert cli.main([*argv, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["bound_applies"] is False

    def test_one_trial_reaches_the_planted_quadruple(self, capsys):
        # the seed-0 draw alone reaches 1, so the 6 comes from the planted
        # witness quadruple, the argmax
        argv = ["census", "--p", "7", "--t", "4", "--k", "4", "--sample",
                "--trials", "1", "--seed", "0"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == (
            "graph: p=7 t=4 n=2058\n"
            "mode: sample trials=1 seed=0 planted=witness-quadruple\n"
            "max common neighbors over 4-subsets: 6\n"
            "achieved by vertex ids: 2 9 16 263\n"
            "bound (t-1)! = 6: within bound\n"
        )
        assert make_graph(7, 4).sample_max_common(4, 1, 0)[0] == 1

    def test_bad_graph_params(self):
        assert run("census", "--p", 4, "--t", 4, "--k", 4).returncode == 2
        assert run("census", "--p", 3, "--t", 4, "--k", 0).returncode == 2
        assert run("census", "--p", 3, "--t", 4, "--k", 55).returncode == 2

    def test_jobs_do_not_change_bytes(self):
        outs = {
            run(
                "census", "--p", 3, "--t", 4, "--k", 4, "--jobs", j,
            ).stdout
            for j in (1, 2)
        }
        assert len(outs) == 1

    def test_pinned_matrix_digest_at_every_jobs(self, monkeypatch, capsys):
        # stdout, stderr and exit codes of 162 exhaustive censuses and
        # refusals, text and JSON at --jobs 1, 2 and 8, as the colex search
        # over all k-subsets printed them; tasks map in process, cut for as
        # many workers as --jobs asks, and each graph is built once
        cases = (
            [(2, 5, k) for k in range(1, 6)] + [(3, 3, k) for k in range(1, 5)]
            + [(3, 4, k) for k in range(1, 6)] + [(5, 3, k) for k in range(2, 5)]
            + [(3, 5, 2), (3, 5, 3), (5, 4, 2), (7, 4, 1), (7, 4, 2), (7, 3, 3), (13, 4, 1)]
            + [(3, 5, 4), (5, 4, 3), (7, 4, 3)]  # over the default budget
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(graph, "run_tasks", lambda fn, tasks, jobs: [fn(t) for t in tasks])
        monkeypatch.setattr(cli, "make_graph", functools.lru_cache(maxsize=1)(make_graph))
        digest = hashlib.sha256()
        for (p, t, k), fmt, jobs in itertools.product(cases, ("text", "json"), ("1", "2", "8")):
            argv = ["census", "--p", str(p), "--t", str(t), "--k", str(k),
                    "--format", fmt, "--jobs", jobs]
            code = cli.main(argv)
            out, err = capsys.readouterr()
            digest.update(f"{' '.join(argv)}\n{code}\n{out}{err}".encode())
        assert digest.hexdigest() == (
            "c73d282abdc0848ae30de2de09db4c03c6e196db0fe8550cfb4724233a825ca3"
        )

    def test_sample_seed_changes_draws(self):
        a = run(
            "census", "--p", 3, "--t", 3, "--k", 3, "--sample", "--trials", 50,
            "--seed", 0, "--format", "json",
        )
        b = run(
            "census", "--p", 3, "--t", 3, "--k", 3, "--sample", "--trials", 50,
            "--seed", 1, "--format", "json",
        )
        assert json.loads(a.stdout)["seed"] == 0
        assert json.loads(b.stdout)["seed"] == 1


class TestVerify:
    def test_general_witness_roundtrip(self, tmp_path):
        out = tmp_path / "g.json"
        r = run(
            "witness-general", "--t", 4, "--m", 2, "--limit", 20,
            "--output", out,
        )
        assert r.returncode == 0
        v = run("verify", out)
        assert v.returncode == 0
        assert "general 3x2" in v.stdout

    def test_byte_edited_general_fails(self, tmp_path):
        out = tmp_path / "g.json"
        run("witness-general", "--t", 4, "--m", 2, "--limit", 20, "--output", out)
        data = json.loads(out.read_text())
        data["B"][0]["a"] = data["B"][0]["a"] % (data["p"] - 1) + 1
        out.write_text(json.dumps(data))
        assert run("verify", out).returncode == 1

    def test_shift_tamper_reducible_modulus_fails(self, tmp_path):
        out = tmp_path / "g.json"
        run("witness-general", "--t", 4, "--m", 2, "--limit", 20, "--output", out)
        data = json.loads(out.read_text())
        data["r"] = 10  # x^3 - x + 6 - 10 has a root mod 17
        out.write_text(json.dumps(data))
        v = run("verify", out)
        assert v.returncode == 1
        assert "witness invalid" in v.stdout

    def test_truncated_file(self, tmp_path):
        out = tmp_path / "w.json"
        run("witness46", "--output", out)
        out.write_text(out.read_text()[:100])
        assert run("verify", out).returncode == 2

    def test_missing_file(self, tmp_path):
        assert run("verify", tmp_path / "absent.json").returncode == 2

    # json.loads raises ValueError past int_max_str_digits (4,300) and
    # RecursionError on deep nesting; both are malformed JSON, not a crash
    @pytest.mark.parametrize(
        "text", ['{"p": ' + "7" * 5000 + "}", "[" * 100_000], ids=["long-int", "deep"]
    )
    def test_hostile_json_is_malformed(self, tmp_path, capsys, text):
        out = tmp_path / "w.json"
        out.write_text(text)
        assert cli.main(["verify", str(out)]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith("error: malformed JSON: ")
        assert len(stderr.splitlines()) == 1

    def test_non_object_json(self, tmp_path):
        out = tmp_path / "arr.json"
        out.write_text("[1, 2, 3]")
        assert run("verify", out).returncode == 2

    def test_unrecognized_schema(self, tmp_path):
        out = tmp_path / "odd.json"
        out.write_text(json.dumps({"hello": "world"}))
        assert run("verify", out).returncode == 2

    def test_out_of_range_vertex_is_malformed(self, tmp_path):
        out = tmp_path / "w.json"
        run("witness46", "--output", out)
        data = json.loads(out.read_text())
        data["R"][0]["alpha"][0] = 7
        out.write_text(json.dumps(data))
        assert run("verify", out).returncode == 2

    def test_boolean_for_integer_is_malformed(self, tmp_path):
        # the p=7 witness has a = 1 on its first right vertex, and JSON true
        # would pass for 1 if booleans counted as integers
        out = tmp_path / "w.json"
        run("witness46", "--output", out)
        data = json.loads(out.read_text())
        assert data["R"][0]["a"] == 1
        data["R"][0]["a"] = True
        out.write_text(json.dumps(data))
        r = run("verify", out)
        assert r.returncode == 2
        assert "malformed vertex in R" in r.stderr

    @pytest.mark.parametrize("field", ["vertex", "theta"])
    def test_boolean_in_general_witness_is_malformed(self, tmp_path, field):
        out = tmp_path / "g.json"
        run("witness-general", "--t", 4, "--m", 2, "--limit", 20, "--output", out)
        data = json.loads(out.read_text())
        if field == "vertex":
            assert data["A"][0]["a"] == 1
            data["A"][0]["a"] = True
        else:
            data["thetas"][0] = True
        out.write_text(json.dumps(data))
        assert run("verify", out).returncode == 2

    def test_both_key_sets_take_general_schema(self, tmp_path):
        gen, w46 = tmp_path / "g.json", tmp_path / "w.json"
        run("witness-general", "--t", 4, "--m", 2, "--limit", 20, "--output", gen)
        run("witness46", "--output", w46)
        data = {**json.loads(w46.read_text()), **json.loads(gen.read_text())}
        assert set(data) >= set(graph.GENERAL_KEYS) | set(graph.GRAPH_KEYS)
        out = tmp_path / "both.json"
        out.write_text(json.dumps(data))
        r = run("verify", out)
        assert r.returncode == 0
        assert r.stdout.startswith("witness kind: general 3x2\n")

    @pytest.mark.parametrize(
        "argv",
        [["witness46"], ["witness-general", "--t", "4", "--m", "2", "--limit", "20"]],
        ids=["graph", "general"],
    )
    def test_p_at_psi_12_refused(self, tmp_path, capsys, argv):
        out = tmp_path / "w.json"
        assert cli.main([*argv, "--output", str(out)]) == 0
        out.write_text(json.dumps({**json.loads(out.read_text()), "p": PSI_12}))
        capsys.readouterr()
        assert cli.main(["verify", str(out)]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr == f"error: p must be < {PSI_12}, got {PSI_12}\n"

    @pytest.mark.parametrize("edit", [lambda th: th[:-1], lambda th: th + th[:1]],
                             ids=["short", "long"])
    def test_thetas_of_wrong_length_are_malformed(self, tmp_path, capsys, edit):
        # unchecked, a short list ends in an IndexError and a long one passes
        out = tmp_path / "g.json"
        argv = ["witness-general", "--t", "4", "--m", "2", "--limit", "20"]
        assert cli.main([*argv, "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        out.write_text(json.dumps({**data, "thetas": edit(data["thetas"])}))
        capsys.readouterr()
        assert cli.main(["verify", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: thetas must list 2 integers\n")

    def test_pairs_above_cap_refused_before_any_field(self, tmp_path, capsys, monkeypatch):
        G = make_graph(3, 3)
        u, v = G.vertex_from_id(0), G.vertex_from_id(1)
        out = tmp_path / "big.json"
        out.write_text(json.dumps(witness_to_json(G, [u] * 128, [v] * 257, True)))

        def no_field(*args):
            raise AssertionError("a field was built")

        monkeypatch.setattr(ExtField, "__init__", no_field)
        assert cli.main(["verify", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: L x R has 32896 vertex pairs, above the cap of {graph.MAX_PAIRS}\n"
        )

    def test_plain_graph_biclique(self, tmp_path):
        G = make_graph(3, 3)
        u = G.vertex_from_id(0)
        v = G.common_neighbors([u])[0]
        out = tmp_path / "pair.json"
        out.write_text(json.dumps(witness_to_json(G, [u], [v], True)))
        r = run("verify", out)
        assert r.returncode == 0
        assert "graph biclique" in r.stdout

    @pytest.mark.parametrize(
        "argv",
        [["witness46"], ["witness-general", "--t", "4", "--m", "2", "--limit", "20"]],
        ids=["graph", "general"],
    )
    def test_schema_checked_once(self, tmp_path, monkeypatch, capsys, argv):
        out = tmp_path / "w.json"
        assert cli.main([*argv, "--output", str(out)]) == 0
        calls = []
        parse = graph.parse_witness
        monkeypatch.setattr(graph, "parse_witness", lambda data: calls.append(data) or parse(data))
        assert cli.main(["verify", str(out)]) == 0
        assert "result: PASS" in capsys.readouterr().out
        assert len(calls) == 1

    def test_canonical_witness_above_root_scan_guard(self, tmp_path):
        # a canonical-looking 4x6 over x^3 - 2 at the qualifying prime
        # 4194433, above 2^22: it is recognized and checked, and its right
        # side is not the witness's
        p = 4194433
        left = [([0, 0, 0], 3), ([1, 0, 0], 4), ([2, 0, 0], 5), ([1, 1, 0], 6)]
        right = [([c, 0, 0], 1) for c in range(3, 9)]
        data = {
            "p": p,
            "t": 4,
            "modulus": [p - 2, 0, 0, 1],
            "L": [{"alpha": alpha, "a": a} for alpha, a in left],
            "R": [{"alpha": alpha, "a": a} for alpha, a in right],
            "verified": True,
        }
        out = tmp_path / "big.json"
        out.write_text(json.dumps(data))
        r = run("verify", out, timeout=60)
        assert r.returncode == 1
        lines = r.stdout.splitlines()
        assert lines[0] == "witness kind: canonical 4x6"
        assert lines[-1] == "result: FAIL"

    def test_overlapping_sides_fail(self, tmp_path):
        G = make_graph(3, 3)
        u = G.vertex_from_id(0)
        out = tmp_path / "loop.json"
        out.write_text(json.dumps(witness_to_json(G, [u], [u], True)))
        r = run("verify", out)
        assert r.returncode == 1
        assert "not disjoint" in r.stdout


    @staticmethod
    def verify_edited(tmp_path, capsys, argv, edit):
        # write a passing witness, edit its JSON, verify it in process
        out = tmp_path / "w.json"
        assert cli.main([*argv, "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        edit(data)
        out.write_text(json.dumps(data))
        capsys.readouterr()
        code = cli.main(["verify", str(out)])
        return code, capsys.readouterr().out.splitlines()

    def test_repeated_vertex_in_canonical_witness_names_the_reason(self, tmp_path, capsys):
        def repeat(data):
            data["R"][5] = data["R"][0]

        code, lines = self.verify_edited(tmp_path, capsys, ["witness46", "--p", "7"], repeat)
        assert code == 1
        assert lines == [
            "witness kind: canonical 4x6",
            "adjacency checks: 24/24 passed",
            "identity checks: 24/24 passed",
            "  right side has duplicate vertices",
            "result: FAIL",
        ]

    def test_shared_vertex_in_canonical_witness_names_the_reason(self, tmp_path, capsys):
        def share(data):
            data["R"][0] = data["L"][0]

        code, lines = self.verify_edited(tmp_path, capsys, ["witness46", "--p", "7"], share)
        assert code == 1
        assert lines[0] == "witness kind: canonical 4x6"
        assert "  sides are not disjoint" in lines
        assert lines[-1] == "result: FAIL"

    def test_repeated_vertex_in_general_witness_names_the_reason(self, tmp_path, capsys):
        def repeat(data):
            data["A"][1] = data["A"][0]

        argv = ["witness-general", "--t", "4", "--m", "2", "--limit", "20"]
        code, lines = self.verify_edited(tmp_path, capsys, argv, repeat)
        assert code == 1
        assert lines == [
            "witness kind: general 3x2",
            "adjacency checks: 6/6 passed",
            "identity checks: 6/6 passed",
            "  left side has duplicate vertices",
            "result: FAIL",
        ]

    # zeta = 16 at p = 17; at c = 0 and 1 every identity holds for any zeta
    @pytest.mark.parametrize("zeta", [0, 1, 3])
    def test_edited_zeta_fails(self, tmp_path, capsys, zeta):
        def edit(data):
            assert (data["p"], data["zeta"]) == (17, 16)
            data["zeta"] = zeta

        argv = ["witness-general", "--t", "4", "--m", "2", "--limit", "1000"]
        code, lines = self.verify_edited(tmp_path, capsys, argv, edit)
        assert code == 1
        assert lines == [
            f"witness invalid: zeta = {zeta} is not the least element of order 2 mod 17",
            "result: FAIL",
        ]

    def test_edited_left_vertex_fails(self, tmp_path, capsys):
        def edit(data):
            assert data["A"][0] == {"alpha": [16, 0, 0], "a": 1}
            data["A"][0]["alpha"] = [3, 0, 0]

        argv = ["witness-general", "--t", "4", "--m", "2", "--limit", "1000"]
        code, lines = self.verify_edited(tmp_path, capsys, argv, edit)
        assert code == 1
        assert lines == [
            "witness invalid: A is not the construction's {(zeta^k, 1)} with (0, 1)",
            "result: FAIL",
        ]

    def test_edited_constant_term_fails_its_four_identities(self, tmp_path, capsys):
        # the four identities of a B vertex assume its constant term is -1
        def edit(data):
            data["R"][3]["alpha"][0] = 0

        code, lines = self.verify_edited(tmp_path, capsys, ["witness46", "--p", "7"], edit)
        assert code == 1
        assert "identity checks: 20/24 passed" in lines
        failed = [ln for ln in lines if ln.startswith("  identity failed:")]
        assert len(failed) == 4
        assert all("B[3]" in ln and "constant term 0 vs 6" in ln for ln in failed)

    def test_shifted_second_coordinate_fails_its_four_identities(self, tmp_path, capsys):
        # v enters the four identities of a B vertex as 3v, 4v, 5v and 6v,
        # and a shift by 1 leaves none of them fixed mod 7
        def edit(data):
            data["R"][0]["a"] = data["R"][0]["a"] % 6 + 1

        code, lines = self.verify_edited(tmp_path, capsys, ["witness46", "--p", "7"], edit)
        assert code == 1
        assert "identity checks: 20/24 passed" in lines
        failed = [ln for ln in lines if ln.startswith("  identity failed:")]
        assert len(failed) == 4 and all("B[0]" in ln for ln in failed)

    def test_edited_second_coordinate_fails_its_identities(self, tmp_path, capsys):
        def edit(data):
            data["B"][0]["a"] = data["B"][0]["a"] % 16 + 1

        argv = ["witness-general", "--t", "4", "--m", "2", "--limit", "20"]
        code, lines = self.verify_edited(tmp_path, capsys, argv, edit)
        assert code == 1
        assert "identity checks: 3/6 passed" in lines
        failed = [ln for ln in lines if ln.startswith("  identity failed:")]
        assert len(failed) == 3 and all("B[0]" in ln for ln in failed)

    def test_pairs_above_cap_at_t12_refused_before_any_field(self, tmp_path, capsys, monkeypatch):
        # the cap shrinks as (t-1)^-2 above t = 4: 2,437 pairs at t = 12
        assert graph.pair_cap(12) == 2437
        u, v = graph.Vertex((0,) * 11, 1), graph.Vertex((1,) + (0,) * 10, 1)
        modulus = [1] * 12
        at_cap = graph.encode_witness(graph.GRAPH_KEYS, (3, 12, modulus), [u], [v] * 2437, True)
        assert graph.parse_witness(at_cap)[0] == "graph"
        over = graph.encode_witness(graph.GRAPH_KEYS, (3, 12, modulus), [u] * 2, [v] * 1219, True)
        out = tmp_path / "big.json"
        out.write_text(json.dumps(over))

        def no_field(*args):
            raise AssertionError("a field was built")

        monkeypatch.setattr(ExtField, "__init__", no_field)
        assert cli.main(["verify", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "error: L x R has 2438 vertex pairs, above the cap of 2437\n"
        )

    @staticmethod
    def witnesses_at_t24(tmp_path):
        """A 1x1 graph witness over P(3, 24) and the general 23x1 witness at
        p = 23, as JSON objects."""
        G = make_graph(3, 24, graph._smallest_irreducible(3, 23))
        u, v = graph.Vertex(G.field.zero, 1), graph.Vertex(G.field.one, 1)
        out = tmp_path / "g.json"
        argv = ["witness-general", "--t", "24", "--m", "1", "--limit", "30"]
        assert cli.main([*argv, "--output", str(out)]) == 0
        return witness_to_json(G, [u], [v], True), json.loads(out.read_text())

    def test_t_at_cap_verifies(self, tmp_path, capsys):
        for data in self.witnesses_at_t24(tmp_path):
            out = tmp_path / "w.json"
            out.write_text(json.dumps(data))
            capsys.readouterr()
            assert cli.main(["verify", str(out)]) == 0
            assert capsys.readouterr().out.endswith("result: PASS\n")

    def test_t_above_cap_is_usage_error(self, tmp_path, capsys, monkeypatch):
        graph_data, general_data = self.witnesses_at_t24(tmp_path)
        graph_data.update(t=25, modulus=graph_data["modulus"] + [0])
        general_data.update(t=25)

        def no_field(*args):
            raise AssertionError("a field was built")

        monkeypatch.setattr(ExtField, "__init__", no_field)
        messages = (
            "p and t must be integers with p >= 2, 3 <= t <= 24",
            "t, m, p out of range (4 <= t <= 24, m >= 1, p >= 2)",
        )
        for data, message in zip((graph_data, general_data), messages):
            out = tmp_path / "w.json"
            out.write_text(json.dumps(data))
            capsys.readouterr()
            assert cli.main(["verify", str(out)]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")


class TestFailedCrossCheck:
    """A failed internal cross-check exits 1 with one stderr line and no
    traceback; the line is not an "error:" line, which marks exit 2."""

    @staticmethod
    def assert_one_line_exit(capsys, code, message):
        stdout, stderr = capsys.readouterr()
        assert code == 1
        assert stdout == ""
        assert len(stderr.splitlines()) == 1 and stderr.endswith("\n")
        assert not stderr.startswith("error:")
        assert message in stderr

    @staticmethod
    def corrupt_norm_conj(monkeypatch):
        # a wrong conjugate-product norm at element 4 of GF(3^3)
        norm_conj = ExtField.norm_conj

        def corrupted(field, a):
            n = norm_conj(field, a)
            if (field.p, field.k) == (3, 3) and a == field.element_from_index(4):
                return (n + 1) % 3
            return n

        monkeypatch.setattr(ExtField, "norm_conj", corrupted)

    def test_census(self, monkeypatch, capsys):
        self.corrupt_norm_conj(monkeypatch)
        code = cli.main(["census", "--p", "3", "--t", "4", "--k", "2"])
        self.assert_one_line_exit(capsys, code, "norm table mismatch at element 4")

    def test_export(self, monkeypatch, capsys):
        self.corrupt_norm_conj(monkeypatch)
        code = cli.main(["export", "--p", "3", "--t", "4"])
        self.assert_one_line_exit(capsys, code, "norm table mismatch at element 4")

    @staticmethod
    def keep_one_loop(monkeypatch):
        # the rotated row of the lowest looped vertex keeps its own bit
        loop_ids = graph.NormGraph._loop_ids
        monkeypatch.setattr(
            graph.NormGraph, "_loop_ids", lambda G: (loops := loop_ids(G)) - {min(loops)}
        )

    def test_census_with_a_kept_loop(self, monkeypatch, capsys):
        self.keep_one_loop(monkeypatch)
        code = cli.main(["census", "--p", "3", "--t", "4", "--k", "2"])
        self.assert_one_line_exit(capsys, code, "bitset degrees sum to 1379, not 1378")

    def test_export_with_a_kept_loop(self, monkeypatch, capsys, tmp_path):
        # the count lines are not printed
        self.keep_one_loop(monkeypatch)
        out = tmp_path / "e"
        code = cli.main(["export", "--p", "3", "--t", "4", "--output", str(out)])
        self.assert_one_line_exit(capsys, code, "bitset degrees sum to 1379, not 1378")
        assert not out.exists()

    def test_export_with_a_lost_edge(self, monkeypatch, capsys, tmp_path):
        edge_lines = graph.NormGraph.edge_lines
        monkeypatch.setattr(
            graph.NormGraph, "edge_lines", lambda G: itertools.islice(edge_lines(G), 1, None)
        )
        out = tmp_path / "e"
        code = cli.main(["export", "--p", "3", "--t", "4", "--output", str(out)])
        self.assert_one_line_exit(capsys, code, "688 edges, not half the degree sum 1378")
        assert not out.exists()

    def test_census_with_wrong_orbit_sizes(self, monkeypatch, capsys):
        # vertex 0 = (0, 1) moved from the alpha = 0 class to key 1
        keys = graph.NormGraph._orbit_keys
        monkeypatch.setattr(graph.NormGraph, "_orbit_keys", lambda G: [1, *keys(G)[1:]])
        code = cli.main(["census", "--p", "3", "--t", "4", "--k", "2"])
        self.assert_one_line_exit(
            capsys, code, "scaling orbits of keys 0..2 have sizes [1, 27, 26], not 2 and then 26"
        )

    def test_census_with_a_missed_orbit(self, monkeypatch, capsys):
        # only the class of key N(2) = 2, the looped vertices of degree
        # q'-2 = 25; the other classes reach q'-1 = 26
        reps = graph.NormGraph._orbit_representatives
        monkeypatch.setattr(graph.NormGraph, "_orbit_representatives", lambda G: reps(G)[2:])
        code = cli.main(["census", "--p", "3", "--t", "4", "--k", "1"])
        self.assert_one_line_exit(
            capsys, code, "the colex search reached 26 common neighbours, the orbit search 25"
        )

    @pytest.mark.parametrize(
        "mode", [[], ["--sample", "--trials", "200"]], ids=["exhaustive", "sampled"]
    )
    def test_census_with_a_bit_flipped_after_the_probes(self, monkeypatch, capsys, mode):
        # vertex 0 = (0, 1) gains vertex 1 = (0, 2), no neighbour as N(0) = 0
        probe = graph.NormGraph._probe_symmetry

        def probe_then_flip(G, bitsets):
            probe(G, bitsets)
            bitsets[0] |= 1 << 1

        monkeypatch.setattr(graph.NormGraph, "_probe_symmetry", probe_then_flip)
        code = cli.main(["census", "--p", "3", "--t", "3", "--k", "1", *mode])
        self.assert_one_line_exit(
            capsys, code, "the norm route counts 8 common neighbours of (0,), not 9"
        )

    def test_sieve_with_a_lying_residue_route(self, monkeypatch, capsys):
        # the residue route calls 2 a cube mod 37, a qualifying prime
        residue = k46._residue_formulation
        monkeypatch.setattr(
            k46, "_residue_formulation",
            lambda two, three, p: 0 if p == 37 else residue(two, three, p),
        )
        code = cli.main(["sieve", "--limit", "100"])
        self.assert_one_line_exit(
            capsys, code,
            "internal check failed: reciprocity and residue formulations disagree at p = 37: ",
        )

    def test_witness46_with_a_wrong_determinant(self, monkeypatch, capsys):
        monkeypatch.setattr(ExtField, "norm_det", lambda field, a: 1)
        code = cli.main(["witness46"])
        self.assert_one_line_exit(
            capsys, code, "internal check failed: norm mismatch: conjugate product "
        )

    def test_witness46_with_roots_off_the_cubic(self, monkeypatch, capsys):
        # c = 0, 1 and 6 give the three distinct values 0, 1 and 2 of
        # -7 - 4c - 2c^2 mod 7, and the witness cubic's roots are 0, 2 and 5
        monkeypatch.setattr(k46, "roots_in_base", lambda m, c, p: (0, 1, 6))
        code = cli.main(["witness46"])
        self.assert_one_line_exit(capsys, code, "witness cubic failed to split")

    def test_witness46(self, monkeypatch, capsys):
        # the cube roots of 1 in place of those of 6 mod 7
        monkeypatch.setattr(k46, "roots_in_base", lambda m, c, p: (1, 2, 4))
        code = cli.main(["witness46"])
        self.assert_one_line_exit(capsys, code, "witness cubic failed to split")


class TestExport:
    def test_p3_t3_to_file(self, tmp_path):
        out = tmp_path / "edges.txt"
        r = run("export", "--p", 3, "--t", 3, "--output", out)
        assert r.returncode == 0
        assert r.stdout.splitlines() == ["vertices: 18", "edges: 68"]
        lines = out.read_text().splitlines()
        assert len(lines) == 68
        pairs = [tuple(map(int, ln.split())) for ln in lines]
        assert all(u < v for u, v in pairs)
        assert pairs == sorted(pairs)

    def test_stdout_mode(self):
        r = run("export", "--p", 3, "--t", 3)
        assert len(r.stdout.splitlines()) == 68
        assert "vertices: 18" in r.stderr

    def test_p3_t4_vertex_count(self, tmp_path):
        out = tmp_path / "edges.txt"
        r = run("export", "--p", 3, "--t", 4, "--output", out)
        assert "vertices: 54" in r.stdout

    @pytest.mark.parametrize("p, t, edges", [(3, 4, 689), (5, 3, 1188), (2, 5, 120)])
    def test_edge_count(self, tmp_path, capsys, p, t, edges):
        # each vertex (alpha, a) meets one b for each of the q'-1 betas with
        # N(alpha + beta) != 0, a loop included when a^2 = N(2 alpha); for odd
        # p, q'-1 vertices have that loop, and for p = 2, 2 alpha = 0, so none
        q = p ** (t - 1)
        n = q * (p - 1)
        assert edges == ((q - 1) * (n - 1) // 2 if p % 2 else n * (q - 1) // 2)
        out = tmp_path / "edges.txt"
        assert cli.main(["export", "--p", str(p), "--t", str(t), "--output", str(out)]) == 0
        assert capsys.readouterr().out == f"vertices: {n}\nedges: {edges}\n"
        assert len(out.read_text().splitlines()) == edges

    def test_size_guard(self):
        assert run("export", "--p", 101, "--t", 4).returncode == 2

    def test_size_guard_before_output(self, tmp_path):
        out = tmp_path / "f"
        r = run("export", "--p", 101, "--t", 4, "--output", out)
        assert_usage_error(
            r, "graph has 103030100 vertices, above the enumeration guard 4194304"
        )
        assert not out.exists()

    def test_bad_params(self):
        assert run("export", "--p", 6, "--t", 3).returncode == 2

    def test_modulus_search_refused_above_enumeration_guard(self, tmp_path):
        out = tmp_path / "f"
        r = run("export", "--p", 3, "--t", 40, "--output", out,
                timeout=60)
        assert_usage_error(
            r, "P(3,40) has at least 2^39 vertices, above the enumeration guard 4194304"
        )
        assert not out.exists()

    def test_composite_p_reported_as_such(self):
        r = run("export", "--p", 6, "--t", 3)
        assert r.stderr == "error: p must be prime, got 6\n"


class TestWitnessGeneral:
    def test_single_result_json(self):
        r = run("witness-general", "--t", 4, "--m", 2, "--limit", 20)
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert (data["p"], data["r"]) == (17, 8)
        assert data["thetas"] == [6, 11]
        assert data["verified"] is True

    def test_all_results_array(self):
        r = run(
            "witness-general", "--t", 4, "--m", 2, "--limit", 20, "--all",
        )
        data = json.loads(r.stdout)
        assert [(d["p"], d["r"]) for d in data] == [(17, 8), (17, 9)]
        assert all(d["verified"] for d in data)

    def test_empty_search_exits_one(self):
        r = run("witness-general", "--t", 4, "--m", 2, "--limit", 10)
        assert r.returncode == 1
        assert "no parameters found" in r.stderr

    def test_text_format(self):
        r = run(
            "witness-general", "--t", 4, "--m", 2, "--limit", 20,
            "--format", "text",
        )
        assert r.stdout.splitlines() == ["t=4 m=2 p=17 r=8 verified=True"]

    def test_limit_above_bound(self):
        r = run("witness-general", "--t", 4, "--m", 2, "--limit", 10**11,
                preexec_fn=cap_address_space)
        assert_usage_error(r, f"--limit must be <= {10**7}, got {10**11}")

    def test_bad_t_is_usage_error(self):
        assert run("witness-general", "--t", 3, "--m", 2, "--limit", 20).returncode == 2

    @pytest.mark.parametrize("t", [general.MAX_T + 1, 10**6])
    def test_t_above_cap_is_usage_error(self, t):
        r = run("witness-general", "--t", t, "--m", 1, "--limit", 1000, timeout=30)
        assert_usage_error(r, f"t must be between 4 and {general.MAX_T}, got {t}")

    # stdout sha256 of --all at the default seed and --format json: t = 5
    # and 6 split quartics and quintics, t = 4, m = 3 takes two roots per
    # witness, and the benchmark's --all run prints text, which holds no roots
    @pytest.mark.parametrize("t, m, limit, digest", [
        (6, 2, 300, "74c3cdf67c621d44ec9aecb48ede89f07afac83e20ee243af7848dde318da9aa"),
        (5, 2, 200, "457b83439d30e4897bd392794b26d6897042f6131751599838d0e899538f2993"),
        (4, 3, 400, "ad1c86dfc496790270005414dd04cd4d49708019970c342313d2dbb21548c024"),
    ], ids=["t6-m2", "t5-m2", "t4-m3"])
    def test_pinned_all_digests(self, t, m, limit, digest):
        r = run("witness-general", "--t", t, "--m", m, "--limit", limit, "--all",
                "--format", "json")
        assert r.returncode == 0
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest

    def test_many_roots_end_quickly(self):
        # below 131071 = 2^17 - 1 no prime qualifies; there x^7710 - 2 has all
        # 7710 roots, taken in closed form, and no shift r survives
        r = run("witness-general", "--t", 4, "--m", 7710, "--limit", 131071, timeout=30)
        assert r.returncode == 1
        assert r.stdout == ""
        assert "no parameters found" in r.stderr

    @pytest.mark.parametrize("t", [4, general.MAX_T])
    def test_m_above_pair_cap_refused_before_sieving(self, monkeypatch, capsys, t):
        def no_sieve(limit):
            raise AssertionError("primes were sieved")

        monkeypatch.setattr(general, "primes_up_to", no_sieve)
        m_max = graph.pair_cap(t) // (t - 1)  # 10922 at t = 4, 24 at t = 24
        argv = ["witness-general", "--t", str(t), "--limit", "20"]
        assert cli.main([*argv, "--m", str(m_max + 1)]) == 2
        assert capsys.readouterr() == (
            "", f"error: m must be between 1 and {m_max} at t = {t}, got {m_max + 1}\n"
        )
        monkeypatch.undo()  # at the cap the search runs; m_max divides no p - 1 for p <= 20
        assert cli.main([*argv, "--m", str(m_max)]) == 1
        assert "no parameters found" in capsys.readouterr().err

    def test_failed_verification_written_as_unverified(self, tmp_path, monkeypatch, capsys):
        verify = general.verify_general_witness

        def failing(w):
            return verify(w)._replace(identity_failures=["stub identity failure"])

        monkeypatch.setattr(general, "verify_general_witness", failing)
        out = tmp_path / "g.json"
        argv = ["witness-general", "--t", "4", "--m", "2", "--limit", "20"]
        assert cli.main([*argv, "--output", str(out)]) == 1
        assert json.loads(out.read_text())["verified"] is False

    def test_first_result_same_across_jobs(self):
        outs = [
            run("witness-general", "--t", 4, "--m", 2, "--limit", 20000, "--jobs", j)
            for j in (1, 2)
        ]
        assert outs[0].returncode == 0
        assert outs[0].stdout == outs[1].stdout
        data = json.loads(outs[0].stdout)
        assert (data["p"], data["r"]) == (17, 8)

    def test_deterministic_across_jobs(self):
        outs = {
            run(
                "witness-general", "--t", 4, "--m", 1, "--limit", 60, "--all",
                "--jobs", j,
            ).stdout
            for j in (1, 2, 8)
        }
        assert len(outs) == 1


class TestOneFieldPerWitness:
    @staticmethod
    def count_fields(monkeypatch) -> list:
        """Record the modulus of every ExtField built."""
        moduli, init = [], ExtField.__init__

        def counted(self, p, k, modulus):
            moduli.append(list(modulus))
            init(self, p, k, modulus)

        monkeypatch.setattr(ExtField, "__init__", counted)
        return moduli

    def test_witness_general_builds_one_field_per_witness(self, monkeypatch, capsys):
        moduli = self.count_fields(monkeypatch)
        argv = ["witness-general", "--t", "4", "--m", "2", "--limit", "20", "--all"]
        assert cli.main([*argv, "--format", "text"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "t=4 m=2 p=17 r=8 verified=True",
            "t=4 m=2 p=17 r=9 verified=True",
        ]
        assert moduli == [general.shifted_poly(4, 6, r, 17) for r in (8, 9)]

    def test_verify_of_a_general_file_builds_one_field(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "g.json"
        assert cli.main(["witness-general", "--t", "4", "--m", "2", "--limit", "20",
                         "--output", str(out)]) == 0
        moduli = self.count_fields(monkeypatch)
        assert cli.main(["verify", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "result: PASS"
        assert moduli == [general.shifted_poly(4, 6, 8, 17)]

    def test_witness46_and_verify_of_its_file_build_one_field_each(
        self, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "w.json"
        moduli = self.count_fields(monkeypatch)
        assert cli.main(["witness46", "--p", "37", "--output", str(out)]) == 0
        assert moduli == [k46.X3_MINUS_2]
        moduli.clear()
        assert cli.main(["verify", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "result: PASS"
        assert moduli == [[-2 % 37, 0, 0, 1]]


class TestOneWriter:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sieve", "--limit", "3000"],
            ["sieve", "--limit", "3000", "--format", "csv"],
            ["sieve", "--limit", "3000", "--format", "json"],
            ["census", "--p", "3", "--t", "4", "--k", "3"],
            ["census", "--p", "3", "--t", "4", "--k", "3", "--format", "json"],
            ["witness-general", "--t", "4", "--m", "2", "--limit", "60", "--all"],
            ["witness-general", "--t", "4", "--m", "2", "--limit", "60", "--all", "--format", "text"],
            ["export", "--p", "3", "--t", "3"],
            ["witness46", "--format", "json"],
        ],
        ids=["sieve-text", "sieve-csv", "sieve-json", "census-text", "census-json",
             "witness-general-json", "witness-general-text", "export", "witness46-json"],
    )
    def test_output_file_holds_the_printed_bytes(self, tmp_path, argv):
        # one writer serves stdout and --output, so the file holds the bytes
        # that the same run prints to stdout without --output
        out = tmp_path / "out"
        printed = subprocess.run([sys.executable, "-m", "normgraph", *argv], capture_output=True)
        written = subprocess.run(
            [sys.executable, "-m", "normgraph", *argv, "--output", str(out)], capture_output=True
        )
        assert printed.returncode == written.returncode == 0
        assert printed.stdout and out.read_bytes() == printed.stdout
