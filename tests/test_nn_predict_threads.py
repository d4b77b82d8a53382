"""Threaded chunk walk of ``Network.predict``, held to the serial walk.

``predict(x, batch_size)`` runs its chunks on one thread per usable CPU
(``repro.nn.model._usable_cpus``, monkeypatched here to 1, 2 and 4). Its
output must be the bytes of the serial walk spelled out below — each
chunk's forward in order, concatenated — for every chunk count, in both
detmath modes, and no thread may outlive the call.
"""

import os
import subprocess
import sys
import threading
from contextlib import nullcontext

import numpy as np
import pytest

import repro
from repro.nas.space.builder import build_network
from repro.nas.space.search_space import StackedLSTMSpace
from repro.nn import model
from repro.nn.detmath import batch_invariant, batch_invariant_enabled
from repro.nn.layers import GRULayer, LSTMLayer, SimpleRNNLayer
from repro.nn.model import Network

BATCH = 256
#: 1, 2 and 5.75 chunks; the last has more chunks (6) than 4 threads.
ROWS = (256, 512, 1472)
CPUS = (1, 2, 4)
#: The quick preset's searched architecture (the emulate benchmark's
#: network), as in tests/test_forecast_pod_lstm.py.
EMULATE_ARCH = (0, 0, 6, 4, 5, 1, 1, 1, 1, 0, 1, 1, 0, 1)


def serial_walk(net, x, batch_size):
    """The serial chunk walk ``predict`` ran before it was threaded."""
    if x.shape[0] <= batch_size:
        return net.forward(x)
    return np.concatenate([net.forward(x[s:s + batch_size])
                           for s in range(0, x.shape[0], batch_size)],
                          axis=0)


def make_network(name):
    if name == "emulate":
        return build_network(StackedLSTMSpace(), EMULATE_ARCH, rng=0)
    net = Network(input_dim=5, rng=0)
    net.add_node("gru", GRULayer(24), ["input"])
    net.add_node("rnn", SimpleRNNLayer(16), ["gru"])
    net.add_node("output", LSTMLayer(5), ["rnn"])
    return net


def windows(rows):
    return np.random.default_rng(rows).standard_normal((rows, 8, 5))


def assert_threaded_equals_serial(net, rows, invariant):
    x = windows(rows)
    with batch_invariant() if invariant else nullcontext():
        want = serial_walk(net, x, BATCH)
        got = net.predict(x, batch_size=BATCH)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (rows, invariant)


@pytest.fixture(scope="module", params=["emulate", "gru_rnn"])
def network(request):
    return make_network(request.param)


@pytest.mark.parametrize("invariant", [False, True],
                         ids=["default", "batch_invariant"])
@pytest.mark.parametrize("cpus", CPUS)
@pytest.mark.parametrize("rows", ROWS)
def test_threaded_walk_is_the_serial_walk(network, rows, cpus, invariant,
                                          monkeypatch):
    monkeypatch.setattr(model, "_usable_cpus", lambda: list(range(cpus)))
    before = threading.active_count()
    assert_threaded_equals_serial(network, rows, invariant)
    assert threading.active_count() == before


def spy_on_chunks(monkeypatch, fail_at=None, parties=0):
    """Wrap ``Network.forward``: record the thread and detmath mode of
    each chunk, hold the first ``parties`` chunks at a barrier until that
    many threads have each claimed one, and raise on the chunk whose
    first value is ``fail_at``."""
    forward = Network.forward
    calls = []
    lock = threading.Lock()
    barrier = threading.Barrier(max(parties, 1), timeout=30)

    def spy(net, x, training=False):
        with lock:
            calls.append((threading.get_ident(), batch_invariant_enabled(),
                          x[0, 0, 0]))
            first_round = len(calls) <= parties
        if first_round:
            barrier.wait()
        if x[0, 0, 0] == fail_at:
            raise ValueError("chunk failed")
        return forward(net, x, training)

    monkeypatch.setattr(Network, "forward", spy)
    return calls


@pytest.mark.parametrize("invariant", [False, True],
                         ids=["default", "batch_invariant"])
@pytest.mark.parametrize("cpus,chunks,threads",
                         [(1, 6, 1), (2, 6, 2), (4, 6, 4), (4, 2, 2)])
def test_one_thread_per_usable_cpu(cpus, chunks, threads, invariant,
                                   monkeypatch):
    monkeypatch.setattr(model, "_usable_cpus", lambda: list(range(cpus)))
    net = make_network("gru_rnn")
    # A thread blocked at the barrier claims no second chunk, so the
    # first ``threads`` chunks go to distinct threads; a missing thread
    # breaks the barrier.
    calls = spy_on_chunks(monkeypatch, parties=threads)
    x = windows(16 * chunks - 3)
    with batch_invariant() if invariant else nullcontext():
        net.predict(x, batch_size=16)
    idents = {ident for ident, _, _ in calls}
    assert len(idents) == threads
    assert threading.get_ident() in idents  # the caller works too
    assert all(mode == invariant for _, mode, _ in calls)
    # Every chunk ran exactly once.
    assert sorted(first for _, _, first in calls) == sorted(x[::16, 0, 0])


@pytest.mark.parametrize("cpus", CPUS)
def test_worker_exception_reaches_the_caller(cpus, monkeypatch):
    monkeypatch.setattr(model, "_usable_cpus", lambda: list(range(cpus)))
    net = make_network("gru_rnn")
    forward = Network.forward
    x = windows(92)
    spy_on_chunks(monkeypatch, fail_at=x[48, 0, 0])
    before = threading.active_count()
    with pytest.raises(ValueError, match="chunk failed"):
        net.predict(x, batch_size=16)
    assert threading.active_count() == before
    # A later call on the same network still gives the serial bytes.
    monkeypatch.setattr(Network, "forward", forward)
    assert_threaded_equals_serial(net, 512, invariant=False)
    assert threading.active_count() == before


def test_stress_more_threads_than_cores(monkeypatch):
    """Eight threads on a 1 us switch interval over 67 three-row chunks:
    a chunk claimed twice or never changes the call count or the bytes."""
    monkeypatch.setattr(model, "_usable_cpus", lambda: list(range(8)))
    net = make_network("gru_rnn")
    x = windows(200)
    want = serial_walk(net, x, 3)
    forward, calls, lock = Network.forward, [], threading.Lock()

    def counting(net, x, training=False):
        with lock:
            calls.append(len(x))
        return forward(net, x, training)

    monkeypatch.setattr(Network, "forward", counting)
    result = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(
            target=lambda: result.append(net.predict(x, batch_size=3)))
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert sorted(calls) == [2] + [3] * 66
    assert result[0].tobytes() == want.tobytes()


def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5, 0, 3},
                        raising=False)
    assert model._usable_cpus() == [0, 3, 5]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert model._usable_cpus() == [0, 1, 2]


def test_helpers_are_pinned_and_the_caller_is_not(monkeypatch):
    """Each helper thread keeps to one CPU of the mask; the caller's own
    mask is left as it was."""
    monkeypatch.setattr(model, "_usable_cpus", lambda: [4, 7, 9])
    pins = []
    monkeypatch.setattr(model, "_pin", lambda cpu: pins.append(
        (threading.get_ident(), cpu)))
    net = make_network("gru_rnn")
    spy_on_chunks(monkeypatch)
    net.predict(windows(64), batch_size=16)
    assert sorted(cpu for _, cpu in pins) == [7, 9]
    assert threading.get_ident() not in {ident for ident, _ in pins}


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="no CPU affinity on this platform")
def test_pin_outside_the_mask_is_ignored():
    """A CPU the thread may not use leaves it as it was instead of
    failing the predict."""
    before = os.sched_getaffinity(0)
    model._pin(10**6)
    assert os.sched_getaffinity(0) == before


_CHILD = """
import sys
sys.path.insert(0, {root!r})
from repro.nn import model
from tests.test_nn_predict_threads import (
    ROWS, assert_threaded_equals_serial, make_network)
model._usable_cpus = lambda: [0, 1]
for name in ("emulate", "gru_rnn"):
    net = make_network(name)
    for rows in ROWS:
        for invariant in (False, True):
            assert_threaded_equals_serial(net, rows, invariant)
print("ok")
"""


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_byte_equal_at_each_blas_thread_count(blas_threads):
    """The BLAS thread count alone can change a product's bits, so the
    threaded and serial walks are compared inside one child process per
    count."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=blas_threads,
               OMP_NUM_THREADS=blas_threads, MKL_NUM_THREADS=blas_threads)
    child = subprocess.run([sys.executable, "-c", _CHILD.format(root=root)],
                           capture_output=True, text=True, env=env,
                           timeout=300)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "ok"
