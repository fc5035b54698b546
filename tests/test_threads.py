"""The encoder's two scan directions run on two threads when the process may
use two CPUs: the same bits as one after the other, errors raised in the
caller, a forked child that starts its own helper, and the same bits where
the OS has no CPU affinity or fork hooks."""

import hashlib
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from qexp.classifier import network
from qexp.classifier.network import PARAM_ORDER, SiameseModel, _both
from qexp.classifier.training import Adam


def _cpus(monkeypatch, n):
    """Let _both see n CPUs: 1 runs its calls in order, 2 on two threads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _batches(seed, d, count=4):
    """count batches of (lefts, rights, same) with sequence lengths 1-5."""
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(count):
        n = int(rng.integers(1, 6))
        lefts = [rng.standard_normal((int(rng.integers(1, 6)), d)) for _ in range(n)]
        rights = [rng.standard_normal((int(rng.integers(1, 6)), d)) for _ in range(n)]
        batches.append((lefts, rights, [k % 2 == 0 for k in range(n)]))
    return batches


def _digest(model):
    return hashlib.sha256(b"".join(model.params[name].tobytes()
                                   for name in PARAM_ORDER)).hexdigest()


def _run(monkeypatch, cpus, pooling, batches, d=7, h=5, r=6):
    """Losses, gradient bytes per step and the final parameter digest of a
    model trained on batches while _both sees cpus CPUs (None: as it finds)."""
    if cpus is not None:
        _cpus(monkeypatch, cpus)
    model = SiameseModel(d, h, r, np.random.default_rng(5), pooling)
    adam = Adam(model.params, 0.01)
    losses, grads_seen = [], []
    for batch in batches:
        loss, grads = model.pair_loss_and_grads(*batch)
        losses.append(loss)
        grads_seen.append({name: grads[name].tobytes() for name in PARAM_ORDER})
        adam.step(model.params, grads)
    return losses, grads_seen, _digest(model)


@pytest.fixture
def short_switches():
    """Switch threads every microsecond, so two threads that share a buffer
    interleave their writes to it within one step."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("pooling", ["last", "mean"])
@pytest.mark.parametrize("sizes", [(7, 5, 6), (40, 30, 20)])
def test_threaded_and_serial_steps_keep_the_same_bits(monkeypatch, short_switches,
                                                      pooling, sizes):
    """At the larger sizes NumPy releases the interpreter lock inside the
    gate arithmetic too, so the two scans overlap there."""
    batches = _batches(40, sizes[0])
    serial = _run(monkeypatch, 1, pooling, batches, *sizes)
    threaded = _run(monkeypatch, 2, pooling, batches, *sizes)
    assert threaded[0] == serial[0]
    for step, (got, want) in enumerate(zip(threaded[1], serial[1])):
        for name in PARAM_ORDER:
            assert got[name] == want[name], (step, name)
    assert threaded[2] == serial[2]


def test_each_direction_runs_on_its_own_thread(monkeypatch):
    _cpus(monkeypatch, 2)
    model = SiameseModel(4, 3, 5, np.random.default_rng(6))
    threads = {}
    forward = model._lstm_forward

    def spy(x, direction):
        threads[direction] = threading.get_ident()
        return forward(x, direction)

    monkeypatch.setattr(model, "_lstm_forward", spy)
    model.encode_batch(np.random.default_rng(7).standard_normal((3, 2, 4)))
    assert threads["fwd"] == threading.get_ident() != threads["bwd"]


class _Refused(Exception):
    pass


@pytest.mark.parametrize("cpus", [1, 2])
def test_an_error_in_the_backward_direction_reaches_the_caller(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    model = SiameseModel(4, 3, 5, np.random.default_rng(8))
    seqs = list(np.random.default_rng(9).standard_normal((2, 3, 4)))
    want = model.encode_batch(seqs)
    forward = model._lstm_forward

    def refuse_bwd(x, direction):
        if direction == "bwd":
            raise _Refused(threading.get_ident())
        return forward(x, direction)

    monkeypatch.setattr(model, "_lstm_forward", refuse_bwd)
    with pytest.raises(_Refused) as raised:
        model.encode_batch(seqs)
    assert (raised.value.args[0] != threading.get_ident()) == (cpus == 2)
    monkeypatch.setattr(model, "_lstm_forward", forward)
    assert model.encode_batch(seqs).tobytes() == want.tobytes()


def test_an_error_in_the_first_call_waits_for_the_second(monkeypatch):
    _cpus(monkeypatch, 2)
    started, finished = threading.Event(), threading.Event()

    def call(fail):
        if fail:
            assert started.wait(10)
            raise _Refused()
        started.set()
        time.sleep(0.2)  # still running when the first call fails
        finished.set()

    with pytest.raises(_Refused):
        _both(call, (True,), (False,))
    assert finished.is_set()


def test_concurrent_callers_each_get_their_own_results(monkeypatch, short_switches):
    """More calling threads than cores share the one helper, with a short
    switch interval: every call gets back its own pair."""
    _cpus(monkeypatch, 2)
    wrong = []

    def caller(k):
        for i in range(200):
            got = _both(lambda x: (x, threading.get_ident()), ((k, i),), ((k, -i),))
            if [got[0][0], got[1][0]] != [(k, i), (k, -i)]:
                wrong.append((k, i, got))

    callers = [threading.Thread(target=caller, args=(k,)) for k in range(6)]
    for t in callers:
        t.start()
    for t in callers:
        t.join(60)
    assert not any(t.is_alive() for t in callers)
    assert wrong == []


def _train_two_batches(batches):
    model = SiameseModel(7, 5, 6, np.random.default_rng(5), "mean")
    adam = Adam(model.params, 0.01)
    for batch in batches:
        adam.step(model.params, model.pair_loss_and_grads(*batch)[1])
    return _digest(model)


def test_a_child_forked_after_training_trains_with_its_own_helper(monkeypatch):
    _cpus(monkeypatch, 2)
    batches = _batches(41, 7, count=2)
    want = _train_two_batches(batches)  # the parent's helper thread now exists
    assert network._helper.cache_info().currsize == 1
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)

    def child():
        send.send((network._helper.cache_info().currsize, _train_two_batches(batches)))

    proc = ctx.Process(target=child)
    proc.start()
    try:
        assert receive.poll(30), "the forked child did not finish training"
        helpers_at_fork, got = receive.recv()
    finally:
        proc.join(5)
        if proc.is_alive():
            proc.kill()
            proc.join()
    assert proc.exitcode == 0
    assert helpers_at_fork == 0
    assert got == want


@pytest.mark.parametrize("cpu_count", [1, 2, None])
def test_without_cpu_affinity_the_machine_count_decides(monkeypatch, cpu_count):
    """macOS has no os.sched_getaffinity: _both goes by os.cpu_count(), and
    runs in order when that is unknown (None). Either way, the same bits."""
    batches = _batches(42, 7)
    want = _run(monkeypatch, 1, "mean", batches)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert network._cpus() == (cpu_count or 1)
    assert _run(monkeypatch, None, "mean", batches) == want


WITHOUT_FORK_HOOKS = '''
import multiprocessing, os, sys
import numpy, pytest  # the test module's other imports, before os loses its hooks
del os.register_at_fork, os.sched_getaffinity  # as on Windows
sys.path.insert(0, sys.argv[1])
from test_threads import _batches, _train_two_batches
print(_train_two_batches(_batches(41, 7, count=2)))
'''


def test_the_package_imports_and_trains_without_fork_hooks_or_cpu_affinity(monkeypatch):
    _cpus(monkeypatch, 1)
    want = _train_two_batches(_batches(41, 7, count=2))
    src = str(Path(network.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", WITHOUT_FORK_HOOKS, str(Path(__file__).parent)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == want
