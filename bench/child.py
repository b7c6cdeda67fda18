"""One workload run in a fresh process: set-up, timed passes, checks.

run.py starts this script; it is not meant to be run by hand:

    python3 bench/child.py WORKLOAD SEED SIZE LAUNCHED_AT setup
    python3 bench/child.py WORKLOAD SEED SIZE LAUNCHED_AT run SECONDS TRACE

LAUNCHED_AT is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC, shared by all processes on Linux), so setup_s
covers interpreter start, importing bslab and building the workload's
inputs.  The last stdout line is one JSON object for run.py.
"""
from __future__ import annotations

import hashlib
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import OFF, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2  # so every run can compare a pass against the first one


def _digest(out: dict) -> str:
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def _timed_passes(wl, seconds: float, trace: bool):
    """Run passes for about `seconds`: another pass starts only while it is
    expected to end no more than half a pass late.  With tracing, every
    second pass is traced so the untraced ones measure the overhead."""
    walls: list[tuple[bool, float]] = []
    tracers: list[Tracer] = []
    digests: list[str] = []
    first = None
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or (
        time.perf_counter() - start + 0.5 * statistics.median(w for _, w in walls) <= seconds
    ):
        traced = trace and len(walls) % 2 == 1
        tr = Tracer() if traced else OFF
        t0 = time.perf_counter()
        out = wl.run_pass(tr)
        walls.append((traced, time.perf_counter() - t0))
        if traced:
            tracers.append(tr)
        digests.append(_digest(out))
        if first is None:
            first = out
    return walls, tracers, digests, first


def main(argv: list[str]) -> int:
    name, seed, size, launched_at, mode = argv[:5]
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports bslab

    import bslab

    if Path(bslab.__file__).resolve().parent != ROOT / "src" / "bslab":
        raise SystemExit(f"bslab imported from {bslab.__file__}, not from this checkout")
    wl = workloads.WORKLOADS[name](int(seed), size)
    setup_s = time.monotonic() - float(launched_at)
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import scipy

    seconds, trace = float(argv[5]), argv[6] == "1"
    walls, tracers, digests, first = _timed_passes(wl, seconds, trace)
    checks = workloads.Checks()
    wl.check(first, checks)
    checks.add("every pass reproduces the first pass exactly", len(set(digests)) == 1)
    failed, known_failed = checks.failed, checks.known_failed
    all_checks = len(checks.results) + len(checks.known_results)
    untraced = [w for traced, w in walls if not traced]
    result = {
        "setup_s": setup_s,
        "wall_s": statistics.median(untraced),
        "walls": [w for _, w in walls],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(checks.results),
        "failed": failed,
        "known_attempted": len(checks.known_results),
        "known_failed": known_failed,
        "known_defect": workloads.KNOWN_DEFECT,
        "digest": digests[0],
        "record": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "mc_n_jobs": workloads.MonteCarlo.N_JOBS,
        },
    }
    if trace:
        traced = [w for t, w in walls if t]
        overhead = statistics.median(traced) / result["wall_s"] - 1.0
        failed_frac = (len(failed) + len(known_failed)) / all_checks
        result["per_layer"] = layer_metrics(tracers, overhead, failed_frac)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
