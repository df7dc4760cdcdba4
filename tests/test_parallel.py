"""The process-pool helper: its worker clamp and its chunking rule."""

import os

from normgraph import parallel


def test_workers_clamped_to_tasks_and_cpus(monkeypatch):
    created = []

    class FakePool:
        """Records max_workers and maps in process: no process starts."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", FakePool)
    tasks = list(range(8))
    for jobs, cpus, want in ((10**6, 64, 8), (10**6, 4, 4), (10**6, None, 1), (3, 64, 3)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert parallel.run_tasks(abs, tasks, jobs) == tasks
        assert created[-1] == want
    assert len(created) == 4


def test_chunks_follow_jobs():
    assert parallel.chunk_ranges(100, 1) == [(0, 100)]
    assert parallel.chunk_ranges(0, 3) == []
    pieces = parallel.chunk_ranges(100, 3)
    assert len(pieces) == 12
    assert [s for s, _ in pieces] == [sum(c for _, c in pieces[:i]) for i in range(12)]
    assert sum(c for _, c in pieces) == 100
    assert parallel.chunk_ranges(5, 3) == [(i, 1) for i in range(5)]
    items = list(range(50))
    assert [x for chunk in parallel.chunk_list(items, 2) for x in chunk] == items
