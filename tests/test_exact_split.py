"""The split power step of exact.stationary and the split build of
exact.build_kernel: with a helper process, the law and its residual are
the same bits as the pi @ P reference and the kernel the same bits as the
whole-matrix conversion, and the helper never outlives the call, however
the call ends."""
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

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
SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(
    not exact._helper_allowed(exact._SPLIT_MIN_NNZ),
    reason="a helper process needs os.fork, sched_setaffinity and two CPUs",
)


@pytest.fixture
def helpers(monkeypatch):
    """Split every kernel's power steps with a helper; the list collects
    the pid of each helper forked."""
    pids = []

    class Recorded(exact._Helper):
        def __init__(self, *args):
            super().__init__(*args)
            pids.append(self.pid)

    monkeypatch.setattr(exact, "_SPLIT_MIN_NNZ", 0)
    monkeypatch.setattr(exact, "_Helper", Recorded)
    return pids


def _reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("allones", ALLONES)
@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("spec", GRAPHS)
def test_split_stationary_matches_oracle_bitwise(helpers, spec, p, allones):
    tm = build_kernel(parse_graph_spec(spec), ModelParams(p=p), allones=allones)
    for flavor in ("embedded", "continuous"):
        sd = stationary(tm, flavor=flavor)
        ref = stationary_oracle(tm, flavor=flavor)
        assert np.array_equal(sd.probs, ref.probs), flavor
        assert sd.residual == ref.residual, flavor
    # a frozen kernel's law is a point mass, found without power steps
    assert len(helpers) == (2 if allones == "resample" else 0)


def test_normal_return_leaves_no_child(helpers):
    tm = build_kernel(parse_graph_spec("cycle:8"), ModelParams(p=0.3))
    stationary(tm, flavor="continuous")
    assert len(helpers) == 1
    _reaped(helpers[0])
    _no_children()


def test_error_in_the_power_loop_leaves_no_child(helpers, monkeypatch):
    monkeypatch.setattr(exact, "_STATIONARY_MAX_ITER", 3)
    tm = build_kernel(parse_graph_spec("cycle:8"), ModelParams(p=0.3))
    with pytest.raises(RuntimeError, match="did not reach"):
        stationary(tm)
    _reaped(helpers[0])
    _no_children()


def test_affinity_is_restored(helpers):
    before = os.sched_getaffinity(0)
    tm = build_kernel(parse_graph_spec("cycle:8"), ModelParams(p=0.3))
    stationary(tm)
    assert os.sched_getaffinity(0) == before


@pytest.mark.parametrize("steps", [0, 3])
def test_dead_helper_makes_the_solve_raise(helpers, monkeypatch, steps):
    def serve_then_die(requests, replies, upper, x, y):
        for _ in range(steps):
            os.read(requests, 1)
            y[:] = upper @ x
            os.write(replies, b"\x01")
        os._exit(0)

    monkeypatch.setattr(exact, "_serve", serve_then_die)
    tm = build_kernel(parse_graph_spec("cycle:8"), ModelParams(p=0.3))
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="helper process has exited"):
        stationary(tm)
    assert time.monotonic() - t0 < 5.0
    _reaped(helpers[0])
    _no_children()


def test_helper_exits_when_its_caller_dies(tmp_path):
    """A caller that exits mid-solve closes its pipe ends; the helper reads
    end of file and exits."""
    script = textwrap.dedent(f"""
        import os, sys
        sys.path.insert(0, {str(SRC)!r})
        from bslab import exact
        from bslab.dynamics import ModelParams
        from bslab.exact import build_kernel, stationary
        from bslab.graphs import parse_graph_spec

        class Abandoned(exact._Helper):
            def product(self, x):
                print(self.pid, flush=True)
                os._exit(0)

        exact._SPLIT_MIN_NNZ = 0
        exact._Helper = Abandoned
        stationary(build_kernel(parse_graph_spec("cycle:8"), ModelParams(p=0.3)))
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=60, check=True)
    stat = Path(f"/proc/{int(out.stdout)}/stat")
    deadline = time.monotonic() + 5.0
    # gone, or a zombie that no reaper has collected yet
    while stat.exists() and stat.read_text().rsplit(")", 1)[1].split()[0] != "Z":
        assert time.monotonic() < deadline, "helper outlived its caller"
        time.sleep(0.02)


# the split build: a helper converts the upper half of the row blocks


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
