"""Deterministic helpers for spreading pure per-item work across processes.

The contract: tasks are mapped in order and results returned in task order,
so any merge that respects list order gives byte-identical output whatever
the worker count.  Workers must be module-level functions (picklable).
"""

from __future__ import annotations

import os
import sys


def __getattr__(name: str):
    # loaded on first use: concurrent.futures.process imports multiprocessing
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor


def worker_count(jobs: int, total: int) -> int:
    """The one worker count for `total` items at `jobs`: no more than the
    items or the CPUs.  Pools start this many and work is cut for this many."""
    return min(jobs, total, os.cpu_count() or 1)


def run_tasks(fn, tasks: list, jobs: int) -> list:
    """fn over tasks, in order, serially unless worker_count(jobs, len(tasks))
    is above 1.  Then a pool of that many workers takes the tasks in pieces
    of ceil(len / (4 * workers)), so that uneven pieces keep each one busy."""
    count = worker_count(jobs, len(tasks))
    if count <= 1:
        return [fn(t) for t in tasks]
    chunksize = -(-len(tasks) // (4 * count))
    pool_cls = sys.modules[__name__].ProcessPoolExecutor  # honours a class set on the module
    with pool_cls(max_workers=count) as pool:
        return list(pool.map(fn, tasks, chunksize=chunksize))
