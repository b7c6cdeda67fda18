"""The three benchmark workloads: exhaustive, mc and blocks.

Each workload is a closed loop with one client: `run_pass` issues a fixed
script of bslab library calls in this process, each call starting when the
previous one returns.  The only parallelism is the library's own `n_jobs=2`
process pool in the mc long chains.  Constructing a workload (graphs,
chains, L values, drift h) is the set-up that `setup_s` measures; `check`
turns the outputs of a pass into named pass/fail checks.

The workload seed is expanded into one library seed per stochastic call,
so the package only ever sees generated inputs.  Sizes come in two scales:
"full" for measurement and "smoke" for the benchmark's own test.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bslab.blocks import (
    Block2,
    Block4,
    block2_proposition_check,
    block4_independence_check,
    block4_propagation_check,
    sample_block2_stats,
    sample_block4_stats,
    sample_stick_stats,
)
from bslab.bounds import choose_h, hat_L, tilde_L
from bslab.drift import verify_all_bounds
from bslab.dynamics import ModelParams, sample_graphical_batch
from bslab.exact import build_kernel, marginals, stationary
from bslab.graphs import closed_neighbourhood, parse_graph_spec, shortest_path
from bslab.montecarlo import (
    expected_zeros_from_batches,
    marginal_from_batches,
    proportion_tail_from_batches,
    run_batches,
    tail_fit_from_batches,
    zeros_tail_from_batches,
)
from bslab.percolation import prob_connect_theta_sweep

REFERENCE = Path(__file__).with_name("reference.json")

# stderr at or below this is a zero-width interval, never a precise one
ZERO_SE = 1e-12
# floating-point slack of a mean of batch fractions (a sum of histogram cells)
ROUNDING = 1e-12
# a zero-width estimate must sit this close to the exact value: the event it
# never saw (or always saw) has to be nearly impossible (or certain) in fact
SATURATED_TOL = 1e-3
STATIONARY_TOL = 1e-10  # the tolerance exact.stationary iterates to
MARGINAL_TOL = 1e-8  # reference agreement of vertex marginals
EXPECTED_ZEROS_TOL = 1e-7  # reference agreement of expected zero counts
N_SIGMA = 4.0


class Checks:
    """Named pass/fail outcomes; a failure is counted, never raised.

    `add` records a check of the package's outputs; any failure makes the
    run incorrect.  `known` records a condition that a documented package
    defect breaks (an expected failure, KNOWN_DEFECT): it runs on every
    pass, its failures are printed and counted in checks_failed_frac, but
    they do not make the run incorrect.  Every `known` condition comes with
    an `add` check on the same output that still gates the run.
    """

    def __init__(self) -> None:
        self.results: list[tuple[str, bool]] = []
        self.known_results: list[tuple[str, bool]] = []

    def add(self, name: str, ok) -> None:
        self.results.append((name, bool(ok)))

    def known(self, name: str, ok) -> None:
        self.known_results.append((name, bool(ok)))

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.results if not ok]

    @property
    def known_failed(self) -> list[str]:
        return [name for name, ok in self.known_results if not ok]


KNOWN_DEFECT = (
    "batch-means estimates of a saturated event have a zero-width interval "
    "and sometimes a mean just above 1"
)


def library_seeds(seed: int, n: int) -> list[int]:
    """n distinct library seeds generated from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, dtype=np.uint32)]


def _valid(mean: float, stderr: float, hi: float = 1.0) -> bool:
    """Finite, inside [0, hi], with an interval of positive width."""
    return (
        math.isfinite(mean) and math.isfinite(stderr) and 0.0 <= mean <= hi and stderr > ZERO_SE
    )


def _sound(mean: float, stderr: float, hi: float = 1.0) -> bool:
    """Finite and inside [0, hi] up to ROUNDING: what `_valid` asks except
    what KNOWN_DEFECT breaks."""
    return (
        math.isfinite(mean)
        and math.isfinite(stderr)
        and stderr >= 0.0
        and -ROUNDING <= mean <= hi + ROUNDING
    )


def exact_solve(tr, g, params: ModelParams):
    """Kernel, continuous-time stationary law and marginals of g.

    Returns (marginals, residual, kernel nnz); the kernel itself is dropped
    here, so consecutive solves never hold two kernels at once.
    """
    with tr.span("exact.build_kernel"):
        tm = build_kernel(g, params)
    with tr.span("exact.stationary"):
        sd = stationary(tm, flavor="continuous")
    k = tm.kernel
    tr.peak("exact.kernel_nnz", k.nnz)
    tr.peak("exact.kernel_mb", (k.data.nbytes + k.indices.nbytes + k.indptr.nbytes) / 2**20)
    tr.peak("exact.stationary.residual", sd.residual)
    return marginals(sd, g), sd.residual, int(k.nnz)


# ---------------------------------------------------------------------------
# exhaustive: the 2^n routes


class Exhaustive:
    """Exact solves and exhaustive drift certificates.

    `exact` does about two thirds of a pass and `drift` the rest; nothing
    runs Monte Carlo, so this is the bypass for `montecarlo` changes.  The
    torus kernel sets the only large peak RSS of the three workloads.  The
    inputs are deterministic: the seed is recorded but changes nothing.
    """

    P = 0.3
    SIZES = {
        "full": (("cycle:16", "torus2d:4x4"), (("cycle:14", 0.3), ("torus2d:3x3", 0.15))),
        "smoke": (("cycle:10", "torus2d:3x3"), (("cycle:8", 0.3), ("torus2d:3x3", 0.15))),
    }

    def __init__(self, seed: int, size: str) -> None:
        exact_specs, drift_specs = self.SIZES[size]
        self.params = ModelParams(p=self.P)
        self.exact = [(spec, parse_graph_spec(spec)) for spec in exact_specs]
        self.drift = []
        for spec, q in drift_specs:
            g = parse_graph_spec(spec)
            self.drift.append((spec, g, ModelParams.from_q(q), choose_h(q, g.max_degree)))
        self.reference = json.loads(REFERENCE.read_text())[f"exact p={self.P}"]

    def run_pass(self, tr) -> dict:
        out = {}
        for spec, g in self.exact:
            mg, residual, nnz = exact_solve(tr, g, self.params)
            out[f"exact {spec}"] = {
                "vertex_one": mg.vertex_one.tolist(),
                "expected_zeros": mg.expected_zeros,
                "residual": residual,
                "nnz": nnz,
            }
        for spec, g, params, h in self.drift:
            with tr.span("drift.verify_all_bounds"):
                rep = verify_all_bounds(g, params, h, keep_rows=False)
            tr.add("drift.configs", rep.n_configs)
            tr.add("drift.sites", rep.n_sites)
            out[f"drift {spec}"] = {
                "all_hold": rep.all_hold,
                "all_negative": rep.all_negative,
                "max_cond_drift": rep.max_cond_drift,
                "configs": rep.n_configs,
                "sites": rep.n_sites,
            }
        return out

    def check(self, out: dict, checks: Checks) -> None:
        for spec, _ in self.exact:
            o = out[f"exact {spec}"]
            ref = self.reference[spec]
            v1 = o["vertex_one"]
            checks.add(f"exact {spec}: residual below {STATIONARY_TOL}", o["residual"] < STATIONARY_TOL)
            # both graphs are vertex-transitive
            checks.add(f"exact {spec}: vertex marginals equal", max(v1) - min(v1) <= 1e-9)
            checks.add(
                f"exact {spec}: marginal matches reference",
                abs(v1[0] - ref["vertex_one"]) <= MARGINAL_TOL,
            )
            checks.add(
                f"exact {spec}: expected zeros match reference",
                abs(o["expected_zeros"] - ref["expected_zeros"]) <= EXPECTED_ZEROS_TOL,
            )
        for spec, *_ in self.drift:
            o = out[f"drift {spec}"]
            checks.add(f"drift {spec}: all bounds hold", o["all_hold"])
            checks.add(f"drift {spec}: all conditional drifts negative", o["all_negative"])


# ---------------------------------------------------------------------------
# mc: long preset chains through the pool, short serial many-replica chains

BURN_FRAC = 0.1  # run_batches' default, passed explicitly so updates are computable


@dataclass(frozen=True)
class LongRun:
    """One preset's run_batches call and the functionals the preset reads."""

    name: str
    spec: str
    params: ModelParams
    budget: int
    proportions: tuple[float, ...] = ()
    zeros: tuple[int, ...] = ()
    expected_zeros: bool = False
    tail_fit: bool = False
    # the all-zeros or tail event whose probability is far from 0 and 1
    informative_k: int = 0


LONG_RUNS = (
    LongRun("thm1_survival", "cycle:200", ModelParams(p=0.001), 250_000,
            proportions=(0.5,), zeros=(100,), expected_zeros=True, informative_k=200),
    LongRun("thm2_proportion", "cycle:100", ModelParams(p=0.005), 150_000,
            zeros=(50, 75, 90), informative_k=100),
    # the preset also prints zeros_ge 0, which the package returns as the constant 1
    LongRun("thm3_extinction", "cycle:50", ModelParams.from_q(0.3), 250_000,
            zeros=tuple(range(1, 13)), tail_fit=True, informative_k=2),
)
SHORT_SPECS = ("cycle:8", "cycle:12", "torus2d:3x3")
SHORT_PS = (0.1, 0.3, 0.7)


def _lag1_autocorr(bd) -> float | None:
    """Pooled lag-1 autocorrelation of consecutive batch one-densities
    within each replica; None when the batch means do not vary."""
    x = bd.bits.mean(axis=1).reshape(bd.n_replicas, -1)
    x = x - x.mean(axis=1, keepdims=True)
    den = float((x * x).sum())
    if den <= 0.0:
        return None
    return float((x[:, 1:] * x[:, :-1]).sum()) / den


def _updates(budget: int, n_replicas: int) -> int:
    return (budget + math.ceil(BURN_FRAC * budget)) * n_replicas


class MonteCarlo:
    """`montecarlo` used two ways.

    (a) The thm1_survival, thm2_proportion and thm3_extinction preset calls:
    few replicas through the n_jobs=2 pool.  (b) Short chains, serial, with
    16 replicas each, checked against an exact solve of the same graph.  A
    change that helps one shape and costs the other shows on wall_s.
    """

    SIZES = {"full": (1.0, 10_000), "smoke": (0.016, 800)}
    LONG_REPLICAS = 4
    SHORT_REPLICAS = 16
    N_BATCHES = 16
    N_JOBS = 2

    def __init__(self, seed: int, size: str) -> None:
        scale, self.short_budget = self.SIZES[size]
        self.long = [
            (run, parse_graph_spec(run.spec), max(self.N_BATCHES, int(run.budget * scale)))
            for run in LONG_RUNS
        ]
        self.short = [
            (spec, parse_graph_spec(spec), ModelParams(p=p)) for spec in SHORT_SPECS for p in SHORT_PS
        ]
        self.seeds = library_seeds(seed, len(self.long) + len(self.short))

    def _read_long(self, run: LongRun, bd) -> tuple[dict, list | None]:
        ests = {"marginal_one 0": marginal_from_batches(bd, 0)}
        for a in run.proportions:
            ests[f"proportion_ones_ge {a}"] = proportion_tail_from_batches(bd, a)
        for k in sorted(set(run.zeros) | {run.informative_k}):
            ests[f"zeros_ge {k}"] = zeros_tail_from_batches(bd, k)
        if run.expected_zeros:
            ests["expected_zeros"] = expected_zeros_from_batches(bd)
        fit = None
        if run.tail_fit:
            f = tail_fit_from_batches(bd)
            if f is not None:
                fit = [f.c2, f.c2_stderr, f.c2_ci95[0], f.c2_ci95[1], list(f.ks)]
        return ests, fit

    def _diagnose(self, tr, bd, ests: dict) -> None:
        r = _lag1_autocorr(bd)
        if r is not None:
            tr.peak("montecarlo.batch_lag1_autocorr", r)
        tr.add("montecarlo.absorbed_replicas", sum("absorbed" in note for note in bd.notes))
        for label, e in ests.items():
            if label != "expected_zeros" and not _valid(e.mean, e.stderr):
                tr.add("montecarlo.degenerate_estimates")

    def run_pass(self, tr) -> dict:
        out = {}
        seeds = iter(self.seeds)
        hw_logs = []
        for run, g, budget in self.long:
            with tr.span("montecarlo.run_batches.long") as span:
                bd = run_batches(
                    g, run.params, budget, next(seeds), n_replicas=self.LONG_REPLICAS,
                    n_batches=self.N_BATCHES, burn_frac=BURN_FRAC, flavor="continuous",
                    n_jobs=self.N_JOBS,
                )
            with tr.span("montecarlo.estimators"):
                ests, fit = self._read_long(run, bd)
            tr.add("montecarlo.updates.long", _updates(budget, self.LONG_REPLICAS))
            if tr.on:
                self._diagnose(tr, bd, ests)
                for label in ("marginal_one 0", f"zeros_ge {run.informative_k}"):
                    e = ests[label]
                    if _valid(e.mean, e.stderr):
                        half = 0.5 * (e.ci95[1] - e.ci95[0])
                        hw_logs.append(math.log(half * math.sqrt(span.seconds)))
            out[run.name] = {
                "estimates": {k: [e.mean, e.stderr] for k, e in ests.items()},
                "tail_fit": fit,
                "n": g.num_vertices,
            }
        if hw_logs:
            tr.value("mc.hw_sqrt_wall", math.exp(sum(hw_logs) / len(hw_logs)))
        for spec, g, params in self.short:
            mg, _, _ = exact_solve(tr, g, params)
            # test_04's informative tail index
            k = int(np.argmin(np.abs(mg.zeros_tail - 0.5)))
            with tr.span("montecarlo.run_batches.small"):
                bd = run_batches(
                    g, params, self.short_budget, next(seeds), n_replicas=self.SHORT_REPLICAS,
                    n_batches=self.N_BATCHES, burn_frac=BURN_FRAC, flavor="continuous", n_jobs=1,
                )
            with tr.span("montecarlo.estimators"):
                ests = {
                    "marginal_one 0": marginal_from_batches(bd, 0),
                    "proportion_ones_ge 0.5": proportion_tail_from_batches(bd, 0.5),
                    f"zeros_ge {k + 1}": zeros_tail_from_batches(bd, k + 1),
                }
            tr.add("montecarlo.updates.small", _updates(self.short_budget, self.SHORT_REPLICAS))
            if tr.on:
                self._diagnose(tr, bd, ests)
            exact = (mg.vertex_one[0], mg.prob_mean_at_least(0.5), mg.zeros_tail[k])
            out[f"{spec} p={params.p}"] = {
                label: [e.mean, e.stderr, float(x)] for (label, e), x in zip(ests.items(), exact)
            }
        return out

    def check(self, out: dict, checks: Checks) -> None:
        for run, g, _ in self.long:
            o = out[run.name]
            ests = o["estimates"]
            n = o["n"]
            for label, (mean, se) in ests.items():
                hi = n if label == "expected_zeros" else 1.0
                checks.add(f"{run.name} {label}: finite and in range", _sound(mean, se, hi))
                checks.known(f"{run.name} {label}: positive stderr, mean in range", _valid(mean, se, hi))
            # the phase-picture statements of test_10, one per preset
            if run.name == "thm1_survival":
                checks.add("thm1_survival: ones stay rare (marginal < 0.9)", ests["marginal_one 0"][0] < 0.9)
            elif run.name == "thm2_proportion":
                half = math.ceil(0.5 * n)
                checks.add(
                    f"thm2_proportion: zeros_ge {half} above 1/2", ests[f"zeros_ge {half}"][0] > 0.5
                )
            else:
                fit = o["tail_fit"]
                checks.add(
                    "thm3_extinction: geometric tail fit with c2 CI above 0",
                    fit is not None and fit[0] > 0 and fit[2] > 0,
                )
        for spec, _, params in self.short:
            for label, (mean, se, exact) in out[f"{spec} p={params.p}"].items():
                name = f"{spec} p={params.p} {label}"
                tol = N_SIGMA * se if se > ZERO_SE else SATURATED_TOL
                checks.add(
                    f"{name}: within {N_SIGMA:g} sigma of exact ({SATURATED_TOL:g} at zero width)",
                    _sound(mean, se) and abs(mean - exact) <= tol,
                )
                checks.known(f"{name}: positive stderr, mean in range", _valid(mean, se))


# ---------------------------------------------------------------------------
# blocks: the simulations behind the analytic route


class Blocks:
    """Graphical-construction batches, block evaluators and percolation.

    The per-sample pathwise evaluators driven by sample_graphical_batch
    dominate; the direct samplers are the already-vectorised path, so a
    change that folds both into one evaluator shows on each.  Percolation
    is a small share.
    """

    P = 0.01
    DIRECT_PS = (0.02, 0.01, 0.005, 0.0015)  # the block_bounds preset sweep
    THETAS = (0.90, 0.93, 0.96, 0.99)  # the percolation_sweep preset
    STRIP_N, STRIP_K = 6, 3
    # samples: independence (each pair), block-2 and block-4 propagation,
    # direct samplers (each cell), percolation strips
    SIZES = {"full": (5_000, 5_000, 5_000, 20_000, 1_500), "smoke": (300, 300, 300, 2_000, 60)}

    def __init__(self, seed: int, size: str) -> None:
        self.n_ind, self.n_prop2, self.n_prop4, self.n_direct, self.n_perc = self.SIZES[size]
        self.params = ModelParams(p=self.P)
        self.g16 = parse_graph_spec("cycle:16")
        self.chain16 = tuple(range(12))
        self.L4 = tilde_L(self.P, 2)
        self.g12 = parse_graph_spec("cycle:12")
        self.L2 = hat_L(self.P, 2)
        # test_05's blocks and bottom configurations
        self.blk2 = Block2(1, 2, 1, self.L2)
        self.bottom2 = np.ones(12, dtype=np.uint8)
        self.bottom2[1] = 0
        self.blk4 = Block4(self.chain16, 0, 0.0, self.L4)
        self.bottom4 = np.ones(16, dtype=np.uint8)
        self.bottom4[0] = 0
        # the block_bounds preset cells
        self.cells = []
        for d, spec in ((2, "cycle:12"), (4, "torus2d:5x5")):
            g = parse_graph_spec(spec)
            chain = tuple(range(10)) if d == 2 else shortest_path(g, 0, 12).vertices
            A = closed_neighbourhood(g, chain[0])
            for p in self.DIRECT_PS:
                self.cells.append((spec, g, chain, A, ModelParams(p=p), hat_L(p, d), tilde_L(p, d)))
        self.seeds = library_seeds(seed, 5 + 3 * len(self.cells))

    def _propagation(self, tr, g, L, n, seed, check, block, bottom) -> dict:
        it = sample_graphical_batch(g, self.params, L, n, seed)
        applicable = failures = rings = 0
        while True:
            with tr.span("dynamics.sample_graphical_batch"):
                gc = next(it, None)
            if gc is None:
                break
            with tr.span("blocks.propagation"):
                res = check(g, gc, block, bottom)
            if res.applicable:
                applicable += 1
                failures += not res.passed
            if tr.on:
                rings += sum(len(t) for t in gc.times)
        tr.add("dynamics.samples", n)
        tr.add("dynamics.rings", rings)
        tr.add("blocks.propagation.attempted", n)
        tr.add("blocks.propagation.applicable", applicable)
        return {"applicable": applicable, "failures": failures}

    def run_pass(self, tr) -> dict:
        out = {}
        seeds = iter(self.seeds)
        for pair, chain in (("same_level", self.chain16), ("adjacent_level", self.chain16[:8])):
            with tr.span("blocks.block4_independence_check"):
                rep = block4_independence_check(
                    self.g16, chain, self.params, self.L4, self.n_ind, next(seeds), pair=pair
                )
            tr.add("blocks.independence.samples", self.n_ind)
            out[f"independence {pair}"] = {
                "corr": rep.corr, "threshold": rep.threshold, "within": rep.within,
                "rates": [rep.rate_a, rep.rate_b],
            }
        out["propagation block2"] = self._propagation(
            tr, self.g12, self.L2, self.n_prop2, next(seeds),
            block2_proposition_check, self.blk2, self.bottom2,
        )
        out["propagation block4"] = self._propagation(
            tr, self.g16, self.L4, self.n_prop4, next(seeds),
            block4_propagation_check, self.blk4, self.bottom4,
        )
        for spec, g, chain, A, params, Lh, Lt in self.cells:
            calls = (
                ("stick", lambda s: sample_stick_stats(g, params, chain[0], A, Lh, self.n_direct, s)),
                ("two", lambda s: sample_block2_stats(g, params, chain[0], chain[1], Lh, self.n_direct, s)),
                ("four", lambda s: sample_block4_stats(g, params, chain, 0, Lt, self.n_direct, s)),
            )
            for flavor, call in calls:
                with tr.span(f"blocks.direct.{flavor}"):
                    st = call(next(seeds))
                tr.add(f"blocks.direct.samples.{flavor}", self.n_direct)
                out[f"direct {spec} p={params.p} {flavor}"] = [st.nice_rate, st.stderr, st.analytic_lb]
        with tr.span("percolation.prob_connect_theta_sweep"):
            res = prob_connect_theta_sweep(
                self.STRIP_N, self.THETAS, self.STRIP_K, 0, 0, self.n_perc, next(seeds)
            )
        tr.add("percolation.fields", self.n_perc * len(self.THETAS))
        out["percolation"] = [[t, res[t].mean, res[t].stderr] for t in sorted(res)]
        return out

    def check(self, out: dict, checks: Checks) -> None:
        for pair in ("same_level", "adjacent_level"):
            o = out[f"independence {pair}"]
            checks.add(f"independence {pair}: |corr| within the library threshold", o["within"])
        for blk in ("block2", "block4"):
            o = out[f"propagation {blk}"]
            checks.add(f"propagation {blk}: no failures among {o['applicable']} applicable", o["failures"] == 0)
        for key, val in out.items():
            if key.startswith("direct "):
                rate, se, lb = val
                checks.add(f"{key}: nice_rate >= analytic_lb - {N_SIGMA:g} sigma", rate >= lb - N_SIGMA * se)
        means = [m for _, m, _ in out["percolation"]]
        checks.add(
            "percolation: estimates in [0, 1] and nondecreasing in theta",
            all(0.0 <= m <= 1.0 for m in means) and means == sorted(means),
        )


WORKLOADS = {"exhaustive": Exhaustive, "mc": MonteCarlo, "blocks": Blocks}
