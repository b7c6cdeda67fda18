"""The exact layer against its reference arithmetic, bit for bit: the
row-blocked kernel assembly, at any block size, and the row-gather power
iteration must reproduce the concatenated COO build and the pi @ P loop
exactly."""
import time
import tracemalloc

import numpy as np
import pytest

from bslab import exact
from bslab.cli import main
from bslab.dynamics import ModelParams
from bslab.exact import build_kernel, stationary
from bslab.graphs import parse_graph_spec
from oracle_utils import kernel_oracle, stationary_oracle

GRAPHS = ["cycle:5", "cycle:10", "torus2d:3x3", "path:7", "complete:5"]
PS = [0.1, 0.3, 0.7]
ALLONES = ["resample", "frozen"]


@pytest.mark.parametrize("allones", ALLONES)
@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("spec", GRAPHS)
def test_kernel_matches_oracle_bitwise(spec, p, allones):
    g, params = parse_graph_spec(spec), ModelParams(p=p)
    tm, ref = build_kernel(g, params, allones=allones), kernel_oracle(g, params, allones)
    assert tm.kernel.format == "csr" and tm.kernel.shape == ref.kernel.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(tm.kernel, name), getattr(ref.kernel, name)), name
    assert np.array_equal(tm.exit_rates, ref.exit_rates)
    assert tm.exit_rates.dtype == ref.exit_rates.dtype


@pytest.mark.parametrize("allones", ALLONES)
@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("spec", GRAPHS)
def test_stationary_matches_oracle_bitwise(spec, p, allones):
    tm = build_kernel(parse_graph_spec(spec), ModelParams(p=p), allones=allones)
    for flavor in ("embedded", "continuous"):
        sd = stationary(tm, flavor=flavor)
        ref = stationary_oracle(tm, flavor=flavor)
        assert sd.flavor == flavor
        assert sd.probs.tobytes() == ref.probs.tobytes(), flavor
        assert sd.residual == ref.residual, flavor


# one row per block, a few rows per block, and cycle:10 split in the middle
BLOCKS = [1, 64, exact._kernel_entries(parse_graph_spec("cycle:10"), "resample") // 2]


@pytest.mark.parametrize("allones", ALLONES)
@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("spec", GRAPHS)
@pytest.mark.parametrize("block", BLOCKS)
def test_row_blocked_kernel_matches_oracle_bitwise(monkeypatch, block, spec, p, allones):
    monkeypatch.setattr(exact, "_BLOCK_ENTRIES", block)
    g, params = parse_graph_spec(spec), ModelParams(p=p)
    tm, ref = build_kernel(g, params, allones=allones), kernel_oracle(g, params, allones)
    assert tm.kernel.format == "csr" and tm.kernel.shape == ref.kernel.shape
    for name in ("data", "indices", "indptr"):
        got, want = getattr(tm.kernel, name), getattr(ref.kernel, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert tm.kernel.has_canonical_format == ref.kernel.has_canonical_format


def test_row_blocked_kernel_solves_to_the_same_bits(monkeypatch):
    """A kernel of many row blocks, solved by the power loop, against the
    pi @ P loop on the oracle kernel."""
    monkeypatch.setattr(exact, "_BLOCK_ENTRIES", 4096)
    g, params = parse_graph_spec("cycle:12"), ModelParams(p=0.3)
    sd = stationary(build_kernel(g, params), flavor="continuous")
    ref = stationary_oracle(kernel_oracle(g, params), flavor="continuous")
    assert sd.probs.tobytes() == ref.probs.tobytes()
    assert sd.residual == ref.residual


def test_row_blocked_build_peaks_below_sixteen_bytes_per_entry(monkeypatch):
    """The whole-matrix build held 16 B of COO and 12 B of CSR per entry at
    once (28.4 B traced); blocked, the kernel's 12 B and small blocks stay."""
    monkeypatch.setattr(exact, "_BLOCK_ENTRIES", 2**14)
    g, params = parse_graph_spec("cycle:14"), ModelParams(p=0.3)
    entries = exact._kernel_entries(g, "resample")
    assert entries == 917_616
    tracemalloc.start()
    try:
        tm = build_kernel(g, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tm.kernel.nnz > 0
    assert peak <= 16 * entries, peak / entries


def test_one_process_row_blocked_build_peaks_below_sixteen_bytes_per_entry(monkeypatch):
    """The guard above with the build kept in this process: where a helper
    converts half of the blocks, tracemalloc sees neither the helper nor
    its shared buffer, so this traces every block's CSR and scratch."""
    monkeypatch.setattr(exact, "_BLOCK_ENTRIES", 2**14)
    g, params = parse_graph_spec("cycle:14"), ModelParams(p=0.3)
    entries = exact._kernel_entries(g, "resample")
    monkeypatch.setattr(exact, "_SPLIT_MIN_NNZ", entries + 1)
    tracemalloc.start()
    try:
        tm = build_kernel(g, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tm.kernel.nnz > 0
    assert peak <= 16 * entries, peak / entries


def test_kernel_memory_estimate_rejects_before_allocating():
    """complete:20 is within the 2^20 state budget, but its 20 * 2^39 COO
    entries cannot fit: the build refuses from the degrees alone."""
    g = parse_graph_spec("complete:20")
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="bytes"):
        build_kernel(g, ModelParams(p=0.3))
    assert time.perf_counter() - t0 < 1.0


def test_kernel_rejects_more_than_thirty_vertices():
    with pytest.raises(ValueError, match="int32"):
        build_kernel(parse_graph_spec("cycle:31"), ModelParams(p=0.3), budget=40)


def test_cli_exact_reports_oversized_kernel(tmp_path, capsys):
    rc = main(["exact", "--graph", "complete:20", "--p", "0.3", "--seed", "1",
               "--out", str(tmp_path / "exact")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "bytes" in err
