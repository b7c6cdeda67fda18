"""Run the bslab benchmark and print its metrics.

    python3 bench/run.py --workload exhaustive|mc|blocks|all --seed N \
        [--seconds S] [--trace 0|1] [--smoke]

Run it from anywhere; it measures the package in ../src of this file.
Each workload runs in fresh processes: SETUP_PROBES processes that only set
up, then one that sets up, runs timed passes of the workload's fixed call
script for --seconds (at least two passes) and checks the outputs.  Stdout
carries a run record, any failed checks and a metric table; its last line
is one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics and --trace 1 the per-layer ones
(traced runs alternate untraced and traced passes).  --workload all runs
the three workloads in turn and prefixes each metric with its workload.
--smoke uses tiny sizes; its numbers are not measurements.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "bslab"
WORKLOADS = ("exhaustive", "mc", "blocks")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 2  # extra set-up-only processes; setup_s is the median with the run's own
TIME_LIMIT_S = 170.0  # for one workload, every process included
# BLAS/OpenMP pools pinned to one thread: the only parallelism measured is
# the package's own n_jobs process pool
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
THREADS = "1"


class BenchError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: THREADS for v in THREAD_VARS})
    # no bytecode written into the checkout; every run compiles the same way
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args: list[str], deadline: float) -> dict:
    """Start child.py, wait for it, return its last stdout line as JSON."""
    launched = time.monotonic()
    cmd = [sys.executable, str(BENCH / "child.py"), *args[:3], repr(launched), *args[3:]]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        # the package's process pool joins its workers; this reaps any left over
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:1])} process exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no result")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    base = [name, str(seed), size]
    try:
        probes = [_child([*base, "setup"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        res = _child([*base, "run", repr(float(seconds)), "1" if trace else "0"], deadline)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload {name} exceeded {TIME_LIMIT_S:g} s") from None
    res["setup_samples"] = [*probes, res["setup_s"]]
    res["setup_s"] = statistics.median(res["setup_samples"])
    return res


def _first_line(path: Path, prefix: str) -> str | None:
    try:
        for line in path.read_text().splitlines():
            if line.startswith(prefix):
                return line
    except OSError:
        pass
    return None


def machine_record(args) -> dict:
    cpu = _first_line(Path("/proc/cpuinfo"), "model name")
    head = _first_line(ROOT / ".git" / "HEAD", "")
    commit = "unknown (not a git checkout)"
    if head is not None:
        ref = head.removeprefix("ref: ").strip()
        commit = _first_line(ROOT / ".git" / ref, "") or ref
    src = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu.split(":", 1)[1].strip() if cpu else platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "smoke" if args.smoke else "full",
        "threads": {v: THREADS for v in THREAD_VARS},
    }


def _metrics(res: dict, trace: bool) -> dict[str, dict]:
    if trace:
        return {n: {"value": res["per_layer"][n], "unit": u} for n, u, _ in PER_LAYER}
    return {n: {"value": res[n], "unit": u} for n, u in END_TO_END}


def _report(name: str, res: dict, metrics: dict[str, dict]) -> None:
    print(f"[{name}] passes: {', '.join(f'{w:.3f}' for w in res['walls'])} s; "
          f"set-up samples: {', '.join(f'{s:.3f}' for s in res['setup_samples'])} s")
    for label in res["failed"]:
        print(f"[{name}] FAILED check: {label}")
    if res["known_failed"]:
        print(f"[{name}] known package defect, counted but not failing the run: {res['known_defect']}")
    for label in res["known_failed"]:
        print(f"[{name}] KNOWN DEFECT check: {label}")
    failed, attempted = len(res["failed"]), res["attempted"]
    known_failed, known_attempted = len(res["known_failed"]), res["known_attempted"]
    rows = [(n, res[n], u) for n, u in END_TO_END if n not in metrics]
    rows += [(n, m["value"], m["unit"]) for n, m in metrics.items()]
    if "checks_failed_frac" not in metrics:
        frac = (failed + known_failed) / (attempted + known_attempted)
        rows.append(("checks_failed_frac", frac, "ratio"))
    for n, v, u in rows:
        note = ""
        if n == "checks_failed_frac":
            note = (f"  ({failed} of {attempted} checks and {known_failed} of "
                    f"{known_attempted} known-defect checks failed)")
        print(f"[{name}] {n:<44} {v:>16.6g} {u}{note}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    args = ap.parse_args(argv)
    # a terminated run still kills and reaps its workload processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"bench: no bslab package at {PACKAGE}; run from a full checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print("record:", json.dumps(machine_record(args)))
    results = {}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), "smoke" if args.smoke else "full")
            print(f"[{name}] record:", json.dumps({**res["record"], "digest": res["digest"]}))
            metrics = _metrics(res, bool(args.trace))
            _report(name, res, metrics)
            results[name] = (res, metrics)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]][1]
    else:
        metrics = {f"{n}.{m}": v for n, (_, ms) in results.items() for m, v in ms.items()}
    attempted = sum(res["attempted"] for res, _ in results.values())
    failed = sum(len(res["failed"]) for res, _ in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
