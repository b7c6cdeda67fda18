"""The split build of exact.build_kernel: with a helper process, the
kernel is the same bits as the whole-matrix conversion, the helper never
outlives the call, however the call ends, and a kernel built so solves
to the bits of the pi @ P reference in this process, without a fork."""
import os
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

pytestmark = pytest.mark.skipif(
    not exact._helper_allowed(exact._SPLIT_MIN_NNZ),
    reason="a helper process for the build needs os.fork, sched_setaffinity and two CPUs",
)


def _reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def builders(monkeypatch):
    """Build every kernel of several row blocks with a helper, at blocks of
    at most 64 COO entries; the list collects the pid of each build helper
    forked."""
    pids = []

    class Recorded(exact._Forked):
        def __init__(self, *args):
            super().__init__(*args)
            pids.append(self.pid)

    monkeypatch.setattr(exact, "_BLOCK_ENTRIES", 64)
    monkeypatch.setattr(exact, "_SPLIT_MIN_NNZ", 0)
    monkeypatch.setattr(exact, "_Forked", Recorded)
    return pids


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
def test_split_build_matches_oracle_bitwise(builders, spec, p, allones):
    g, params = parse_graph_spec(spec), ModelParams(p=p)
    tm = build_kernel(g, params, allones=allones)
    assert len(builders) == 1
    _assert_kernel_matches_oracle(tm, g, params, allones)
    # private arrays, not views of the helper's shared buffer
    for name in ("data", "indices", "indptr"):
        root = getattr(tm.kernel, name)
        while isinstance(root.base, np.ndarray):
            root = root.base
        assert root.base is None and root.flags.owndata, name


def test_split_build_leaves_no_child_and_restores_affinity(builders):
    before = os.sched_getaffinity(0)
    build_kernel(parse_graph_spec("cycle:8"), ModelParams(p=0.3))
    assert len(builders) == 1
    _reaped(builders[0])
    _no_children()
    assert os.sched_getaffinity(0) == before


@pytest.mark.parametrize("how", ["exit", "raise"])
def test_dead_build_helper_makes_the_build_raise(builders, monkeypatch, how):
    parent, block_csr = os.getpid(), exact._block_csr

    def dying(*args):
        if os.getpid() != parent:
            if how == "exit":
                os._exit(0)
            raise MemoryError("helper")
        return block_csr(*args)

    monkeypatch.setattr(exact, "_block_csr", dying)
    before = os.sched_getaffinity(0)
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="helper process has exited"):
        build_kernel(parse_graph_spec("cycle:8"), ModelParams(p=0.3))
    assert time.monotonic() - t0 < 5.0
    _reaped(builders[0])
    _no_children()
    assert os.sched_getaffinity(0) == before


def test_error_in_the_callers_half_kills_the_build_helper(builders, monkeypatch):
    """The helper would convert for a minute; the caller's error ends it."""
    parent = os.getpid()

    def failing(*args):
        if os.getpid() != parent:
            time.sleep(60)
        raise ValueError("caller")

    monkeypatch.setattr(exact, "_block_csr", failing)
    before = os.sched_getaffinity(0)
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="caller"):
        build_kernel(parse_graph_spec("cycle:8"), ModelParams(p=0.3))
    assert time.monotonic() - t0 < 5.0
    _reaped(builders[0])
    _no_children()
    assert os.sched_getaffinity(0) == before


def test_live_thread_keeps_the_build_in_one_process(builders):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        g, params = parse_graph_spec("cycle:10"), ModelParams(p=0.3)
        tm = build_kernel(g, params)
    finally:
        release.set()
        thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert builders == []
    _assert_kernel_matches_oracle(tm, g, params, "resample")


def _no_fork():
    raise AssertionError("stationary forked")


@pytest.mark.parametrize("allones", ALLONES)
@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("spec", GRAPHS)
def test_split_stationary_matches_oracle_bitwise(builders, monkeypatch, spec, p, allones):
    """A split-built kernel solves to the reference's bits, and the solve
    forks nothing."""
    tm = build_kernel(parse_graph_spec(spec), ModelParams(p=p), allones=allones)
    assert len(builders) == 1
    monkeypatch.setattr(exact.os, "fork", _no_fork)
    for flavor in ("embedded", "continuous"):
        sd = stationary(tm, flavor=flavor)
        ref = stationary_oracle(tm, flavor=flavor)
        assert np.array_equal(sd.probs, ref.probs), flavor
        assert sd.residual == ref.residual, flavor


def test_error_in_the_power_loop_leaves_no_child(builders, monkeypatch):
    """The power loop, cut short on a split-built kernel, raises, and the
    build's helper is already reaped."""
    monkeypatch.setattr(exact, "_STATIONARY_MAX_ITER", 3)
    tm = build_kernel(parse_graph_spec("cycle:8"), ModelParams(p=0.3))
    monkeypatch.setattr(exact.os, "fork", _no_fork)
    with pytest.raises(RuntimeError, match="did not reach"):
        stationary(tm)
    _reaped(builders[0])
    _no_children()
