"""The process fan-out of labeling and cross-validation: any callable as a
task, results in task order, the same bytes for every worker count, errors
raised in the caller, a dead worker stopping the run, nothing left running,
pools no larger than their work, one CPU count, and each worker on its own
share of the CPUs."""

import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from qexp.classifier import network
from qexp import parallel
from qexp.config import Config, ConfigError, resolve_workers
from qexp.experiment import cross_validate, format_report, per_query_csv, report_tsv
from qexp.labeling import LabeledDataset, build_dataset
from qexp.parallel import fan_out

from synthworld import mismatch_world
from test_experiment import DEC_KWARGS, _mini_dataset


def _reports(*args, **kwargs):
    result = cross_validate(*args, **kwargs)
    return format_report(result), report_tsv(result), per_query_csv(result)


def _nothing_left_running(threads):
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


def test_a_task_may_be_a_closure_over_what_cannot_be_pickled():
    lock = threading.Lock()

    def square(task):
        with lock:
            return task * task

    for workers in (1, 2):
        assert fan_out(square, range(4), workers) == [0, 1, 4, 9]


def test_results_come_back_in_task_order_whatever_order_they_finish_in():
    second_done = multiprocessing.get_context("fork").Event()

    def task(i):
        if i == 0:
            assert second_done.wait(30)  # task 0 finishes only after task 1
        else:
            second_done.set()
        return i

    assert fan_out(task, range(2), 2) == [0, 1]
    assert multiprocessing.active_children() == []


def test_only_pool_workers_hold_the_job():
    for workers in (1, 2):
        assert fan_out(str, range(3), workers) == ["0", "1", "2"]
        assert parallel._JOB is None


DEAD_WORKER = '''
import multiprocessing, os, signal, time
from qexp.parallel import fan_out

def task(i):
    if i == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return i

start = time.monotonic()
try:
    fan_out(task, range(2), 2)
except ChildProcessError as error:
    print(type(error).__name__, error)
print(round(time.monotonic() - start), multiprocessing.active_children())
'''


def test_a_dead_worker_stops_the_run_and_leaves_nothing_running():
    """A worker killed mid-task (as by the OOM killer): its task will never
    finish, so the run stops with ChildProcessError instead of waiting."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", DEAD_WORKER], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    raised, left = proc.stdout.splitlines()
    assert raised.startswith("ChildProcessError a worker process died"), proc.stdout
    seconds, children = left.split(" ", 1)
    assert int(seconds) < 10 and children == "[]", proc.stdout
    assert "Traceback" not in proc.stderr, proc.stderr


def test_fixture_reports_keep_their_bytes_for_any_worker_count(
        mini_topics, mini_index, mini_qrels, tiny_table, stopwords):
    args = (mini_topics, mini_index, mini_qrels, tiny_table, _mini_dataset())
    kwargs = dict(folds=2, seed=3, stopwords=stopwords, **DEC_KWARGS)
    want = _reports(*args, workers=1, **kwargs)
    threads = threading.active_count()  # the serial run started any helper thread
    for workers in (2, 3):
        assert _reports(*args, workers=workers, **kwargs) == want
        _nothing_left_running(threads)


def test_a_worker_that_runs_two_folds_keeps_the_bytes():
    topics, idx, qrels, table = mismatch_world(n_queries=6)
    dataset = build_dataset(topics, idx, qrels, table, pool_size=12, workers=1)
    kwargs = dict(folds=3, seed=1, stopwords=frozenset(), **DEC_KWARGS)
    want = _reports(topics, idx, qrels, table, dataset, workers=1, **kwargs)
    threads = threading.active_count()
    for workers in (2, 3):
        got = _reports(topics, idx, qrels, table, dataset, workers=workers, **kwargs)
        assert got == want
        _nothing_left_running(threads)


def test_a_fold_error_reaches_the_caller_unchanged(
        monkeypatch, mini_topics, mini_index, mini_qrels, tiny_table, stopwords):
    for_queries = LabeledDataset.for_queries
    monkeypatch.setattr(  # the fold that tests 701 trains on 702 alone: nothing
        LabeledDataset, "for_queries", lambda self, qids: LabeledDataset([])
        if list(qids) == ["702"] else for_queries(self, qids))
    raised = []
    for workers in (1, 2):
        with pytest.raises(ValueError, match=r"^fold \d: no labeled training examples$") \
                as error:
            cross_validate(mini_topics, mini_index, mini_qrels, tiny_table,
                           _mini_dataset(), folds=2, seed=3, stopwords=stopwords,
                           workers=workers, **DEC_KWARGS)
        raised.append((type(error.value), str(error.value)))
        assert multiprocessing.active_children() == []
    assert raised[0] == raised[1]


def _record_pools(monkeypatch):
    """The sizes of the pools asked for; asking stops the run with _Stopped."""
    sizes = []

    def pool(processes, *args):
        sizes.append(processes)
        raise _Stopped

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", pool)
    return sizes


class _Stopped(Exception):
    pass


def test_each_pool_is_capped_at_its_task_count(monkeypatch):
    topics, idx, qrels, table = mismatch_world(n_queries=4)
    dataset = build_dataset(topics, idx, qrels, table, pool_size=12, workers=1)
    sizes = _record_pools(monkeypatch)
    with pytest.raises(_Stopped):
        build_dataset(topics, idx, qrels, table, pool_size=12, workers=64)
    with pytest.raises(_Stopped):
        cross_validate(topics, idx, qrels, table, dataset, folds=3, workers=64,
                       **DEC_KWARGS)
    assert sizes == [4, 3]


def test_one_usable_cpu_means_one_process_everywhere(monkeypatch):
    """Under taskset -c 0: labeling and the folds run here, and so do both scans."""
    topics, idx, qrels, table = mismatch_world(n_queries=4)
    want = build_dataset(topics, idx, qrels, table, pool_size=12, workers=1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    sizes = _record_pools(monkeypatch)
    assert resolve_workers(Config().workers) == 1
    assert network._cpus() == 1
    got = build_dataset(topics, idx, qrels, table, pool_size=12, workers=0)
    assert got.examples == want.examples
    cross_validate(topics, idx, qrels, table, want, folds=2, workers=0, **DEC_KWARGS)
    assert sizes == []


def test_without_fork_the_tasks_run_here_in_order(monkeypatch):
    topics, idx, qrels, table = mismatch_world(n_queries=4)
    want = build_dataset(topics, idx, qrels, table, pool_size=12, workers=1)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    sizes = _record_pools(monkeypatch)
    got = build_dataset(topics, idx, qrels, table, pool_size=12, workers=2)
    assert got.examples == want.examples
    assert sizes == []


def test_a_negative_worker_count_is_refused(mini_topics, mini_index, mini_qrels,
                                            tiny_table):
    with pytest.raises(ConfigError, match="workers must be >= 0, got -1"):
        build_dataset(mini_topics, mini_index, mini_qrels, tiny_table, workers=-1)
    with pytest.raises(ConfigError, match="workers must be >= 0, got -1"):
        cross_validate(mini_topics, mini_index, mini_qrels, tiny_table, None,
                       methods=("qlm",), folds=2, workers=-1)


def _where(barrier):
    """This worker's pid and CPUs, once every worker holds a task."""
    barrier.wait(30)
    return os.getpid(), frozenset(os.sched_getaffinity(0))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="the OS cannot pin")
def test_each_worker_is_pinned_to_its_own_share_of_the_cpus():
    cpus = os.sched_getaffinity(0)
    n = min(len(cpus), 3)
    if n < 2:
        pytest.skip("one usable CPU: no share to hand out")
    barrier = multiprocessing.get_context("fork").Barrier(n)
    shares = dict(fan_out(lambda task: _where(barrier), range(n), n)).values()
    assert len(shares) == n  # each task held its worker until all n had one
    assert sum(map(len, shares)) == len(cpus)
    assert frozenset().union(*shares) == cpus
    assert max(map(len, shares)) - min(map(len, shares)) <= 1
    assert os.sched_getaffinity(0) == cpus
    assert multiprocessing.active_children() == []
