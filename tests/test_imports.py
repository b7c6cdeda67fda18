"""Import discipline: `import bslab` loads numpy but no scipy module and no
process pool, and the split kernel build loads scipy.sparse before its
helper process forks, so that the helper runs no import of its own."""
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from bslab import exact

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent

needs_helper = pytest.mark.skipif(
    not exact._helper_allowed(exact._SPLIT_MIN_NNZ),
    reason="a helper process needs os.fork, sched_setaffinity and two CPUs",
)


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
                             or m == "concurrent.futures.process"),
        }))
    """)
    assert out["where"].startswith(str(SRC))
    assert out["loaded"] == []


# Run in a fresh interpreter: _Forked.__init__ records whether scipy.sparse
# is loaded when a helper forks, and each helper installs an import hook
# that reports, through a pipe, every module it would have to import.
_WATCH = """
    import os
    from bslab import exact
    from bslab.dynamics import ModelParams
    from bslab.graphs import parse_graph_spec

    imports, report = os.pipe()
    os.set_blocking(imports, False)
    loaded_at_fork = []
    init = exact._Forked.__init__

    class Watch:
        def find_spec(self, name, path=None, target=None):
            os.write(report, (name + "\\n").encode())
            return None

    def watched_init(self, work):
        loaded_at_fork.append("scipy.sparse" in sys.modules)

        def watched(requests, replies):
            sys.meta_path.insert(0, Watch())
            work(requests, replies)

        init(self, watched)

    def helper_imports():
        try:
            return os.read(imports, 1 << 16).decode().split()
        except BlockingIOError:
            return []

    exact._Forked.__init__ = watched_init
    g, params = parse_graph_spec("cycle:8"), ModelParams(p=0.3)
"""


@needs_helper
def test_split_build_loads_scipy_sparse_before_its_helper_forks():
    out = _fresh(_WATCH, """
        fresh = "scipy.sparse" not in sys.modules
        exact._SPLIT_MIN_NNZ = 0
        exact._BLOCK_ENTRIES = 64
        tm = exact.build_kernel(g, params)
        from oracle_utils import kernel_oracle  # loads scipy.sparse itself

        ref = kernel_oracle(g, params, "resample").kernel
        print(json.dumps({
            "fresh": fresh,
            "loaded_at_fork": loaded_at_fork,
            "helper_imports": helper_imports(),
            "same": all(getattr(tm.kernel, a).dtype == getattr(ref, a).dtype
                        and (getattr(tm.kernel, a) == getattr(ref, a)).all()
                        for a in ("data", "indices", "indptr")),
        }))
    """)
    assert out["fresh"]
    assert out["loaded_at_fork"] == [True]
    assert out["helper_imports"] == []
    assert out["same"]
