"""The benchmark's own test, on tiny sizes (--smoke).

    python3 -m pytest bench/test_bench.py

Checks that every workload runs and prints every named metric with its
unit, that a seed reproduces counts and estimates exactly while another
seed changes the estimates, and that the benchmark refuses to run without
the package.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# per-layer values that count work rather than time it
COUNTS = (
    "exact.kernel_nnz",
    "exact.stationary.residual",
    "montecarlo.updates",
    "montecarlo.degenerate_estimates",
    "dynamics.rings",
    "blocks.propagation.applicable_frac",
)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--seconds", "0.1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    assert out["correct"] == (out["failed"] == 0)
    return out


def digests(proc: subprocess.CompletedProcess) -> dict[str, str]:
    found = re.findall(r"^\[(\w+)\] record: (\{.*\})$", proc.stdout, flags=re.M)
    return {name: json.loads(rec)["digest"] for name, rec in found}


@pytest.fixture(scope="module")
def traced():
    """Two traced smoke runs on one seed and one on another."""
    runs = [bench("--workload", "all", "--smoke", "--trace", "1", "--seed", s) for s in ("5", "5", "6")]
    return [(result(p), digests(p)) for p in runs]


@pytest.mark.parametrize("trace,table", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_its_unit(trace, table, traced):
    if trace == "1":
        out = traced[0][0]
    else:
        out = result(bench("--workload", "all", "--smoke", "--trace", "0", "--seed", "5"))
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC[table]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    for name, m in out["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_single_workload_prints_bare_names():
    out = result(bench("--workload", "blocks", "--smoke", "--trace", "0", "--seed", "5"))
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_same_seed_repeats_and_other_seed_changes(traced):
    (first, dig1), (again, dig2), (other, dig3) = traced
    assert dig1 == dig2 and set(dig1) == set(WORKLOADS)
    for w in WORKLOADS:
        for name in COUNTS:
            key = f"{w}.{name}"
            assert first["metrics"][key] == again["metrics"][key], key
    # exhaustive inputs are deterministic; the stochastic workloads are not
    assert dig3["exhaustive"] == dig1["exhaustive"]
    assert dig3["mc"] != dig1["mc"] and dig3["blocks"] != dig1["blocks"]


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "mc", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
