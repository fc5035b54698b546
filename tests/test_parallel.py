"""The process fan-out of labeling and cross-validation: the same bytes for
every worker count, errors raised in the caller, nothing left running, pools
no larger than their work, one CPU count, and each worker on its own share
of the CPUs."""

import multiprocessing
import os
import threading

import pytest

from qexp.classifier import network
from qexp.config import Config, ConfigError
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
    assert Config().resolved_workers() == 1
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


_BARRIER = None


def _keep_barrier(barrier):
    global _BARRIER
    _BARRIER = barrier


def _where(task, barrier=None):
    """This worker's pid and CPUs, once every worker holds a task."""
    (barrier or _BARRIER).wait(30)
    return os.getpid(), frozenset(os.sched_getaffinity(0))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="the OS cannot pin")
def test_each_worker_is_pinned_to_its_own_share_of_the_cpus():
    cpus = os.sched_getaffinity(0)
    n = min(len(cpus), 3)
    if n < 2:
        pytest.skip("one usable CPU: no share to hand out")
    barrier = multiprocessing.get_context("fork").Barrier(n)
    shares = dict(fan_out(_where, range(n), n, _keep_barrier, barrier)).values()
    assert len(shares) == n  # each task held its worker until all n had one
    assert sum(map(len, shares)) == len(cpus)
    assert frozenset().union(*shares) == cpus
    assert max(map(len, shares)) - min(map(len, shares)) <= 1
    assert os.sched_getaffinity(0) == cpus
    assert multiprocessing.active_children() == []
