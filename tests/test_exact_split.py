"""The threaded build of exact.build_kernel: row blocks converted on worker
threads of this process make the same bits as the stable-sort
reference, in private arrays; an error on a worker is the call's error,
raised after every worker has stopped; and a kernel built so solves to the
bits of the pi @ P reference in this process, without a fork."""
import os
import sys
import threading
import time

import numpy as np
import pytest

from bslab import exact
from bslab.dynamics import ModelParams
from bslab.exact import build_kernel, stationary
from bslab.graphs import parse_graph_spec
from oracle_utils import kernel_oracle, stationary_oracle

GRAPHS = ["cycle:5", "cycle:10", "torus2d:3x3", "path:7", "complete:5"]
PS = [0.1, 0.3, 0.7]
ALLONES = ["resample", "frozen"]


@pytest.fixture
def converters(monkeypatch):
    """Build every kernel in blocks of at most 64 slots on four
    worker threads, more than this host may have CPUs, with the thread
    switch interval shortened; the list collects the ident of the thread
    that converts each block."""
    idents = []
    block_csr = exact._block_csr

    def recorded(*args):
        idents.append(threading.get_ident())
        return block_csr(*args)

    monkeypatch.setattr(exact, "_BLOCK_ENTRIES", 64)
    monkeypatch.setattr(exact.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(exact, "_block_csr", recorded)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield idents
    finally:
        sys.setswitchinterval(interval)


def _assert_kernel_matches_oracle(tm, g, params, allones):
    ref = kernel_oracle(g, params, allones)
    assert tm.kernel.format == "csr" and tm.kernel.shape == ref.kernel.shape
    for name in ("data", "indices", "indptr"):
        got, want = getattr(tm.kernel, name), getattr(ref.kernel, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert tm.kernel.has_canonical_format


@pytest.mark.parametrize("allones", ALLONES)
@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("spec", GRAPHS)
def test_split_build_matches_oracle_bitwise(converters, spec, p, allones):
    g, params = parse_graph_spec(spec), ModelParams(p=p)
    before = threading.enumerate()
    tm = build_kernel(g, params, allones=allones)
    assert threading.enumerate() == before
    assert len(converters) > 1 and threading.get_ident() not in converters
    _assert_kernel_matches_oracle(tm, g, params, allones)
    # private arrays, not views of a block's CSR
    for name in ("data", "indices", "indptr"):
        root = getattr(tm.kernel, name)
        while isinstance(root.base, np.ndarray):
            root = root.base
        assert root.base is None and root.flags.owndata, name


def test_error_on_a_worker_thread_is_raised_by_the_build(converters, monkeypatch):
    """Every block after the first fails on its worker: the build raises
    that same exception, and no worker thread outlives the call."""
    error = MemoryError("block")
    block_csr = exact._block_csr

    def failing(pats, allones, zero_counts, a, b, scratch):
        if a > 0:
            raise error
        return block_csr(pats, allones, zero_counts, a, b, scratch)

    monkeypatch.setattr(exact, "_block_csr", failing)
    before = threading.enumerate()
    t0 = time.monotonic()
    with pytest.raises(MemoryError) as raised:
        build_kernel(parse_graph_spec("cycle:8"), ModelParams(p=0.3))
    assert time.monotonic() - t0 < 5.0
    assert raised.value is error
    assert threading.enumerate() == before


def test_error_in_the_callers_copy_stops_the_workers(converters, monkeypatch):
    """The caller fails while copying the second block: the build raises
    that error, the blocks not yet started are never converted, and no
    worker thread outlives the call."""
    error = ValueError("copy")
    copies = []

    def failing(*args):
        copies.append(None)
        if len(copies) == 2:
            raise error
        return append(*args)

    append = exact._append
    monkeypatch.setattr(exact, "_append", failing)
    g = parse_graph_spec("cycle:10")
    before = threading.enumerate()
    with pytest.raises(ValueError) as raised:
        build_kernel(g, ModelParams(p=0.3))
    assert raised.value is error
    assert threading.enumerate() == before
    # blocks 0 to 9 at most, of the hundreds the build would convert
    assert len(converters) <= 2 + 2 * 4


def test_blocks_in_flight_are_bounded(converters, monkeypatch):
    """Before the caller copies block i, at most blocks 0 to i + 8 have
    been handed to a worker: two ahead for each of the four workers, and
    the block handed out in place of block i."""
    started = []

    def recorded(out, nnz, row, *csr):
        started.append(len(converters))
        return append(out, nnz, row, *csr)

    append = exact._append
    monkeypatch.setattr(exact, "_append", recorded)
    g = parse_graph_spec("cycle:10")
    build_kernel(g, ModelParams(p=0.3))
    assert len(started) > 2 * 4
    assert all(n <= i + 1 + 2 * 4 for i, n in enumerate(started)), started


def test_build_beside_a_live_thread_gives_the_same_bits(converters):
    """Another thread builds its own kernel and stays alive while this
    thread builds; both kernels are the oracle's bits."""
    release, built = threading.Event(), {}

    def other():
        built["tm"] = build_kernel(parse_graph_spec("torus2d:3x3"), ModelParams(p=0.7))
        release.wait(timeout=60.0)

    thread = threading.Thread(target=other)
    thread.start()
    try:
        g, params = parse_graph_spec("cycle:10"), ModelParams(p=0.3)
        tm = build_kernel(g, params)
        assert thread.is_alive()
    finally:
        release.set()
        thread.join(timeout=60.0)
    assert not thread.is_alive()
    _assert_kernel_matches_oracle(tm, g, params, "resample")
    _assert_kernel_matches_oracle(built["tm"], parse_graph_spec("torus2d:3x3"), ModelParams(p=0.7), "resample")


def _no_fork():
    raise AssertionError("stationary forked")


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("allones", ALLONES)
@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("spec", GRAPHS)
def test_split_stationary_matches_oracle_bitwise(converters, monkeypatch, spec, p, allones):
    """A thread-built kernel solves to the reference's bits, and the solve
    forks nothing."""
    tm = build_kernel(parse_graph_spec(spec), ModelParams(p=p), allones=allones)
    assert len(converters) > 1
    monkeypatch.setattr(exact.os, "fork", _no_fork)
    for flavor in ("embedded", "continuous"):
        sd = stationary(tm, flavor=flavor)
        ref = stationary_oracle(tm, flavor=flavor)
        assert np.array_equal(sd.probs, ref.probs), flavor
        assert sd.residual == ref.residual, flavor


def test_error_in_the_power_loop_leaves_no_child(converters, monkeypatch):
    """The power loop, cut short on a thread-built kernel, raises, and
    neither the build nor the solve started a process."""
    monkeypatch.setattr(exact, "_STATIONARY_MAX_ITER", 3)
    tm = build_kernel(parse_graph_spec("cycle:8"), ModelParams(p=0.3))
    monkeypatch.setattr(exact.os, "fork", _no_fork)
    with pytest.raises(RuntimeError, match="did not reach"):
        stationary(tm)
    _no_children()
