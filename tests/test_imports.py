"""Import discipline: `import bslab` loads numpy but no scipy module, no
process pool and no thread pool, and a kernel build of several row blocks
runs in this process without a fork."""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

from bslab import exact
from bslab.dynamics import ModelParams
from bslab.graphs import parse_graph_spec
from oracle_utils import kernel_oracle

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent


def _fresh(*parts: str) -> dict:
    """Run the script `parts` make up in a fresh interpreter that imports
    from this checkout; its last stdout line is a JSON object."""
    head = f"import json, sys; sys.path[:0] = [{str(SRC)!r}, {str(TESTS)!r}]\n"
    script = head + "".join(textwrap.dedent(part) for part in parts)
    res = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_import_loads_no_scipy_and_no_process_pool():
    out = _fresh("""
        import bslab, bslab.cli
        print(json.dumps({
            "where": bslab.cli.__file__,
            "loaded": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
                             or m in ("concurrent.futures.process", "concurrent.futures.thread")),
        }))
    """)
    assert out["where"].startswith(str(SRC))
    assert out["loaded"] == []


def test_multi_block_build_forks_nothing(monkeypatch):
    """A kernel of several row blocks is converted on threads of this
    process, to the oracle's bits."""
    def no_fork():
        raise AssertionError("build_kernel forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(exact, "_BLOCK_ENTRIES", 64)
    g, params = parse_graph_spec("cycle:8"), ModelParams(p=0.3)
    assert exact._kernel_entries(g, "resample") > 64
    tm = exact.build_kernel(g, params)
    ref = kernel_oracle(g, params, "resample").kernel
    for name in ("data", "indices", "indptr"):
        got, want = getattr(tm.kernel, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
