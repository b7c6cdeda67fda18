"""The exact layer against its reference arithmetic, bit for bit: the
one-allocation kernel assembly and the row-gather power iteration must
reproduce the concatenated COO build and the pi @ P loop exactly."""
import time

import numpy as np
import pytest

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
