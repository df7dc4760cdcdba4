"""The process-pool helper: its worker clamp, its chunk size, and which
commands start a pool at all."""

import os
import subprocess
import sys

import pytest

import normgraph
from normgraph import cli, graph, parallel
from normgraph.graph import _orbit_search, make_graph


@pytest.fixture
def pools(monkeypatch):
    """Replaces the pool with a recorder that maps in process: no process
    starts.  Each pool appends [max_workers, chunksize of each map]."""
    created = []

    class FakePool:
        def __init__(self, max_workers):
            created.append([max_workers])

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            created[-1].append(chunksize)
            return map(fn, tasks)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", FakePool)
    return created


def test_workers_clamped_to_tasks_and_cpus(monkeypatch, pools):
    tasks = list(range(8))
    for jobs, cpus, want in ((10**6, 64, 8), (10**6, 4, 4), (10**6, None, 1), (3, 64, 3)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        started = len(pools)
        assert parallel.run_tasks(abs, tasks, jobs) == tasks
        # one worker maps in process: no pool starts
        assert [pool[0] for pool in pools[started:]] == ([want] if want > 1 else [])
    assert len(pools) == 3


@pytest.mark.parametrize("total, jobs", [(100, 3), (17984, 2), (5, 3), (9, 2)])
def test_chunksize_follows_chunk_ranges(monkeypatch, pools, total, jobs):
    # pieces of ceil(total / (4 * workers)): at most 4 per worker, and one
    # task each when there are fewer tasks than that
    monkeypatch.setattr(os, "cpu_count", lambda: 64)  # so the worker count is jobs
    tasks = list(range(total))
    assert parallel.run_tasks(abs, tasks, jobs) == tasks
    chunksize = pools[-1][1]
    assert chunksize == -(-total // (4 * jobs))
    assert -(-total // chunksize) <= min(total, jobs * 4)


def test_census_cuts_its_tasks_for_the_workers_not_the_jobs(monkeypatch, pools, capsys):
    # each census task pickles the whole bitset table, so a huge --jobs
    # must not cut C(n,k) tasks; chunking by --jobs cut 1,431 here
    mapped = []

    def worker(task):
        mapped.append(task)
        return _orbit_search(task)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(graph, "_orbit_search", worker)
    argv = ["census", "--p", "3", "--t", "4", "--k", "2"]
    assert cli.main(argv + ["--jobs", "1000000"]) == 0
    assert pools == [[2, 1]]
    # worker_count(10**6, 3) = 2 tasks, task i from the i-th of the
    # representatives 0, 2 and 4, whose bitsets the table holds last
    bitsets = make_graph(3, 4)._all_bitsets()
    assert len(set(bitsets)) == len(bitsets)
    assert [task[2] for task in mapped] == [range(51, 54, 2), range(52, 54, 2)]
    assert [[bitsets.index(task[0][top]) for top in task[2]] for task in mapped] == [[0, 4], [2]]
    many = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == many


def test_one_pool_per_search_and_none_for_a_sampled_census(pools, capsys):
    argv = ["witness-general", "--t", "4", "--m", "2", "--limit", "300", "--all"]
    assert cli.main(argv + ["--jobs", "2"]) == 0
    assert len(pools) == 1 and len(pools[0]) == 2  # one pool, one map
    parallel_out = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == parallel_out
    census = ["census", "--p", "5", "--t", "3", "--k", "3", "--sample", "--trials", "500"]
    assert cli.main(census + ["--jobs", "2"]) == 0
    assert len(pools) == 1


@pytest.mark.parametrize(
    "search", [["--m", "2", "--limit", "1000"], ["--m", "7", "--limit", "20000"]],
    ids=["m2", "m7"],
)
@pytest.mark.parametrize("jobs", ["2", "8"])
def test_first_result_search_starts_no_pool(monkeypatch, pools, capsys, search, jobs):
    # it maps one prime at a time, so no map has a second task for a worker
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    argv = ["witness-general", "--t", "4", *search]
    assert cli.main(argv + ["--jobs", jobs]) == 0
    assert pools == []
    parallel_out = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == parallel_out


def test_cli_import_loads_no_process_pool():
    # a fresh interpreter: this one has imported the pool already
    src = os.path.dirname(os.path.dirname(normgraph.__file__))
    probe = (
        "import sys, normgraph.cli; "
        "print(sorted({'concurrent.futures.process', 'multiprocessing', 'dataclasses', "
        "'inspect', 'fractions', 'decimal', 'numbers'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
