"""The one process fan-out of labeling and cross-validation."""

import multiprocessing
import os

from qexp.config import resolve_workers


def fan_out(fn, tasks, workers: int, init, ctx) -> list:
    """[fn(task, ctx) for task in tasks], in task order. Runs on min(workers,
    len(tasks)) forked processes (workers 0: one per usable CPU), each pinned to
    its share of the CPUs; init(ctx) in each lets fn(task) find the ctx the fork
    copied unpickled. Runs here, in order, for one process or where no fork exists."""
    n = min(resolve_workers(workers), len(tasks))
    if n < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(task, ctx) for task in tasks]
    mp = multiprocessing.get_context("fork")
    # a counter, not a Queue: a Queue starts a feeder thread in this process
    pool = mp.Pool(n, _start_worker, (mp.Value("i", 0), n, init, ctx))
    try:
        return pool.map(fn, tasks, chunksize=1)
    finally:
        # not close(): after an interrupt killed a worker mid-task, join() would wait forever
        pool.terminate()
        pool.join()


def _start_worker(counter, n, init, ctx):
    """Pin the k-th worker started to the k-th of n disjoint, near-equal slices of
    the parent's CPUs, where the OS can and there are n of them; then init(ctx)."""
    with counter.get_lock():
        k = counter.value
        counter.value += 1
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))  # the parent's, until set here
        if n <= len(cpus):
            os.sched_setaffinity(0, cpus[k * len(cpus) // n:(k + 1) * len(cpus) // n])
    init(ctx)
