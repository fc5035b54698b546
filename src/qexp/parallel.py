"""The one process fan-out of labeling and cross-validation."""

import multiprocessing
import os

from qexp.config import resolve_workers

_JOB = None  # (fn, tasks), set in each pool worker only


def fan_out(fn, tasks, workers: int) -> list:
    """[fn(task) for task in tasks], in task order. Runs on min(workers,
    len(tasks)) forked processes (workers 0: one per usable CPU), each pinned to
    its share of the CPUs. The fork copies fn and tasks into each worker
    unpickled, so fn may be a closure; only task indexes and results cross the
    pipe. A worker that dies stops the run with ChildProcessError. Runs here,
    in order, for one process or where no fork exists."""
    n = min(resolve_workers(workers), len(tasks))
    if n < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(task) for task in tasks]
    mp = multiprocessing.get_context("fork")
    # a counter, not a Queue: a Queue starts a feeder thread in this process
    started = mp.Value("i", 0)
    pool = mp.Pool(n, _start_worker, (started, n, fn, tasks))
    try:
        result = pool.map_async(_run, range(len(tasks)), chunksize=1)
        while not result.ready():
            result.wait(0.1)
            # workers only leave when terminated: a start past n replaced a
            # dead one, whose task the pool will never finish
            if started.value > n:
                raise ChildProcessError("a worker process died before its task "
                                        "finished (killed, or out of memory?)")
        return result.get()
    finally:
        # not close(): after an interrupt killed a worker mid-task, join() would wait forever
        pool.terminate()
        pool.join()


def _start_worker(started, n, fn, tasks):
    """Pin the k-th worker started to the k-th of n disjoint, near-equal slices of
    the parent's CPUs, where the OS can and there are n of them; then hold the job."""
    global _JOB
    with started.get_lock():
        k = started.value
        started.value += 1
    if k < n and hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))  # the parent's, until set here
        if n <= len(cpus):
            os.sched_setaffinity(0, cpus[k * len(cpus) // n:(k + 1) * len(cpus) // n])
    _JOB = fn, tasks


def _run(i: int):
    """Task i of the job, in a pool worker: the one place each pool task runs."""
    fn, tasks = _JOB
    return fn(tasks[i])
