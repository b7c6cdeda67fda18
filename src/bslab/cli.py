"""Reproducible experiment driver.

Every subcommand resolves its options (command line over config-file
defaults over built-ins), runs with an explicit seed, writes CSV files
plus a JSON run manifest into --out, and prints a short summary.  Reruns
with identical options are byte-identical on the CSV side regardless of
--threads; the manifest carries wall time and a start stamp and is not
meant for byte comparison.

Config files are flat JSON objects whose keys are option names with
underscores (e.g. {"graph": "cycle:8", "p": 0.3, "budget": 50000});
values must already have the right JSON type.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .blocks import (
    INDEPENDENCE_CELLS,
    block4_independence_check,
    independence_chain_sites,
    sample_block2_stats,
    sample_block4_stats,
    sample_stick_stats,
)
from .bounds import (
    FORMULAS,
    choose_h,
    evaluate_formula,
    hat_L,
    q0,
    q0_d2_closed_form,
    q0_highprec,
    q0_simple,
    theta_4block,
    tilde_L,
)
from .drift import verify_all_bounds
from .dynamics import (
    ALLONES_SEMANTICS,
    FLAVORS,
    ModelParams,
    all_ones,
    all_zeros,
    classical_fitness_samples,
    format_configuration,
    format_state,
    parse_configuration,
    random_configuration,
    replay,
    sample_graphical,
    step_discrete,
)
from .exact import build_kernel, marginals, stationary
from .graphs import (
    BudgetExceeded,
    chain_cover,
    closed_neighbourhood,
    is_chain,
    longest_chain,
    parse_graph_spec,
    shortest_path,
)
from .montecarlo import (
    expected_zeros_from_batches,
    marginal_from_batches,
    proportion_tail_from_batches,
    run_batches,
    tail_fit_from_batches,
    zeros_tail_from_batches,
)
from .percolation import (
    LevelSet,
    contour_bounds,
    prob_connect_theta_sweep,
    prob_good_level,
    sites_at_level,
)
from .rng import Stream, substream


def _fmt(x) -> str:
    """Shortest round-trip text for CSV cells; None is an empty cell."""
    if x is None:
        return ""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


# commands that print one closed-form value and write no file, not even a manifest
_PRINT_ONLY = ("q0", "theta")


class Run:
    """One run, built by main: collects the command's CSV outputs and writes the manifest.

    --out is created at the first write, so a command that fails before
    writing anything leaves no directory behind."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.command = f"preset:{args.name}" if args.command == "preset" else args.command
        self.args = args
        self.out = Path(args.out)
        self.outputs: list[str] = []
        self.started_at = datetime.now(timezone.utc).isoformat()
        self._t0 = time.perf_counter()

    def write_csv(self, name: str, header, rows) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        with open(self.out / name, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            for row in rows:
                w.writerow([_fmt(c) for c in row])
        self.outputs.append(name)

    def finish(self) -> None:
        if self.command in _PRINT_ONLY:
            return
        # the installed versions, read without importing scipy or mpmath
        from importlib.metadata import version

        arguments = {
            k: (str(v) if isinstance(v, Path) else v)
            for k, v in vars(self.args).items()
            if k not in ("func",) and not k.startswith("_")
        }
        manifest = {
            "command": self.command,
            "arguments": arguments,
            "seed": getattr(self.args, "seed", None),
            "versions": {
                "artifact": __version__,
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": version("scipy"),
                "mpmath": version("mpmath"),
            },
            "started_at": self.started_at,
            "wall_time_s": round(time.perf_counter() - self._t0, 3),
            "outputs": self.outputs,
        }
        self.out.mkdir(parents=True, exist_ok=True)
        with open(self.out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _require_seed(args) -> int:
    if args.seed is None:
        raise ValueError("a seed is required (--seed or BSLAB_SEED)")
    return args.seed


def _graph(args):
    return parse_graph_spec(args.graph, seed=args.seed)


def _interval(mean, stderr, ci, n):
    """The cells estimate, stderr, ci_lo, ci_hi and the batch or point count."""
    return (mean, stderr, ci[0], ci[1], n)


def _estimate_rows(pairs):
    """Rows (functional, param, Estimate) -> CSV cells."""
    return [
        (functional, param, *_interval(est.mean, est.stderr, est.ci95, est.n_batches),
         est.total_budget, ";".join(est.notes))
        for functional, param, est in pairs
    ]


_ESTIMATE_HEADER = (
    "functional",
    "param",
    "estimate",
    "stderr",
    "ci_lo",
    "ci_hi",
    "n_batches",
    "total_budget",
    "notes",
)

_PERCOLATION_HEADER = ("N", "theta", "K", "h", "functional", "estimate", "stderr", "n_samples", "seed")

_BLOCK_STATS_HEADER = ("flavor", "p", "d", "L", "blocks_sampled", "nice_rate", "stderr", "analytic_lb")


def _block_stats_row(st):
    return (st.flavor, st.p, st.d, st.L, st.n_samples, st.nice_rate, st.stderr, st.analytic_lb)


def _connect_rows(N, thetas, K, x, y, n_samples, seed):
    """percolation.csv rows of P[x -> y] on shared uniforms, theta ascending."""
    res = prob_connect_theta_sweep(N, thetas, K, x, y, n_samples, seed)
    return [
        (N, t, K, "", "prob_connect", est.mean, est.stderr, n_samples, seed)
        for t, est in sorted(res.items())
    ]


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args, run: Run) -> None:
    seed = _require_seed(args)
    g = _graph(args)
    params = ModelParams(p=args.p)
    every = float(args.snapshot_every)
    if args.flavor == "embedded" and every != 0.0 and not (every >= 1.0 and every.is_integer()):
        raise ValueError(
            "--snapshot-every must be 0 or a whole number of steps >= 1 for the embedded flavor"
        )
    if args.flavor == "continuous" and not 0.0 <= every < math.inf:
        raise ValueError("--snapshot-every must be a finite time >= 0 for the continuous flavor")
    if args.steps < 0:
        raise ValueError("--steps must be nonnegative")
    if args.init == "random":
        config0 = random_configuration(g, params, substream(seed, Stream.SIMULATE_INIT))
    elif args.init == "ones":
        config0 = all_ones(g)
    elif args.init == "zeros":
        config0 = all_zeros(g)
    else:
        config0 = parse_configuration(args.init)
        if config0.shape != (g.num_vertices,):
            raise ValueError("--init bit string length must match the graph")
    if args.flavor == "continuous":
        gc = sample_graphical(g, params, args.horizon, seed, replica=args.replica)
        snaps = None
        if args.snapshot_every > 0:
            snaps = np.arange(args.snapshot_every, args.horizon + 1e-12, args.snapshot_every)
        res = replay(g, config0, gc, snapshot_times=snaps, allones=args.allones)
        # marks over the ringing vertex's closed neighbourhood, sorted-id order
        run.write_csv(
            "events.csv",
            ("time", "vertex", "applied", "marks"),
            [(t, x, int(fired), format_configuration(row)) for t, x, fired, row in res.log],
        )
        if snaps is not None:
            run.write_csv(
                "snapshots.csv",
                ("time", "configuration"),
                [(t, format_configuration(c)) for t, c in zip(snaps, res.snapshots)],
            )
        final = res.final
        print(f"applied {res.applied_count} events, muted {res.muted_count}")
    else:
        rng = substream(seed, Stream.EMBEDDED_STEPS)
        config = config0
        rows = []
        for k in range(1, args.steps + 1):
            config = step_discrete(g, config, params, rng)
            if every > 0 and k % int(every) == 0:
                rows.append((k, format_configuration(config)))
        if rows:
            run.write_csv("snapshots.csv", ("step", "configuration"), rows)
        final = config
        print(f"ran {args.steps} embedded steps")
    print(f"final {format_configuration(final)} (ones {int(final.sum())}/{g.num_vertices})")


def cmd_exact(args, run: Run) -> None:
    g = _graph(args)
    params = ModelParams(p=args.p)
    tm = build_kernel(g, params, allones=args.allones)
    sd = stationary(tm, flavor=args.flavor)
    mg = marginals(sd, g)
    n = g.num_vertices
    run.write_csv(
        "stationary.csv",
        ("state_bits", "probability"),
        [(format_state(s, n), p) for s, p in enumerate(sd.probs.tolist())],
    )
    rows = [("vertex_one", x, v) for x, v in enumerate(mg.vertex_one)]
    rows += [("ones_hist", j, v) for j, v in enumerate(mg.ones_hist)]
    rows += [("zeros_tail_gt", k, v) for k, v in enumerate(mg.zeros_tail)]
    run.write_csv("marginals.csv", ("kind", "index", "value"), rows)
    print(
        f"stationary ({sd.flavor}) residual {sd.residual:.3e}; "
        f"expected zeros {mg.expected_zeros!r}; "
        f"P(all ones) {float(mg.ones_hist[g.num_vertices])!r}"
    )


def cmd_mc(args, run: Run) -> None:
    seed = _require_seed(args)
    g = _graph(args)
    params = ModelParams(p=args.p)
    if not (0 <= args.vertex < g.num_vertices):
        raise ValueError("vertex out of range")
    bd = run_batches(
        g,
        params,
        args.budget,
        seed,
        n_replicas=args.replicas,
        n_batches=args.batches,
        burn_frac=args.burn_frac,
        flavor=args.flavor,
        allones=args.allones,
        n_jobs=args.threads,
    )
    pairs = [
        (f"marginal_one({args.vertex})", marginal_from_batches(bd, args.vertex)),
        (f"proportion_ones_ge({args.alpha!r})", proportion_tail_from_batches(bd, args.alpha)),
        (f"zeros_ge({args.k})", zeros_tail_from_batches(bd, args.k)),
        ("expected_zeros", expected_zeros_from_batches(bd)),
    ]
    rows = [
        (functional, args.p, args.graph,
         *_interval(est.mean, est.stderr, est.ci95, est.n_batches), seed)
        for functional, est in pairs
    ]
    if args.tail_fit:
        fit = tail_fit_from_batches(bd)
        if fit is not None:
            rows.append(
                (f"tail_fit_c2(k={fit.ks[0]}..{fit.ks[-1]})", args.p, args.graph,
                 *_interval(fit.c2, fit.c2_stderr, fit.c2_ci95, len(fit.ks)), seed)
            )
        else:
            print("tail fit skipped: too few usable points")
    run.write_csv(
        "mc_estimates.csv",
        ("functional", "param_p", "graph", "estimate", "stderr", "ci_lo", "ci_hi", "batches", "seed"),
        rows,
    )
    for functional, est in pairs:
        extra = f"  [{'; '.join(est.notes)}]" if est.notes else ""
        print(f"{functional} = {est.mean!r} +- {est.stderr!r}{extra}")


def _auto_chain(g, want: int):
    path = longest_chain(g, mode="heuristic")
    if path.length < want:
        path = longest_chain(g, mode="exact")
    if path.length < want:
        raise ValueError(f"graph has no chain of {want} sites (best {path.length})")
    return path.vertices


# each `blocks` flavor's default window; the keys are the --flavor choices
_WINDOWS = {"stick": hat_L, "two": hat_L, "four": tilde_L, "independence": tilde_L}


def cmd_blocks(args, run: Run) -> None:
    seed = _require_seed(args)
    g = _graph(args)
    params = ModelParams(p=args.p)
    if args.chain:
        chain = tuple(int(v) for v in args.chain.split(","))
        if not is_chain(g, chain):
            raise ValueError("--chain is not a chain of this graph")
    else:
        chain = None
    L = args.L if args.L is not None else _WINDOWS[args.flavor](args.p, g.max_degree)
    if args.flavor == "stick":
        if not (0 <= args.base < g.num_vertices):
            raise ValueError("--base vertex out of range")
        if args.a_size < 0:
            raise ValueError("--a-size must be nonnegative")
        A = closed_neighbourhood(g, args.base)[: args.a_size]
    elif chain is None:
        want = {"two": 2, "four": 4}.get(args.flavor) or independence_chain_sites(args.pair)
        chain = _auto_chain(g, want)
    elif args.flavor == "two" and len(chain) < 2:
        raise ValueError("--chain needs two sites for the two flavor")
    if args.flavor == "independence":
        rep = block4_independence_check(
            g, chain, params, L, args.n_samples, seed, pair=args.pair
        )
        run.write_csv(
            "independence.csv",
            ("pair", "n_samples", "rate_a", "rate_b", "corr", "threshold", "within", "notes"),
            [
                (
                    rep.pair,
                    rep.n_samples,
                    rep.rate_a,
                    rep.rate_b,
                    rep.corr,
                    rep.threshold,
                    int(rep.within),
                    ";".join(rep.notes),
                )
            ],
        )
        print(
            f"{rep.pair}: corr {rep.corr!r} (threshold {rep.threshold!r}, "
            f"{'within' if rep.within else 'OUTSIDE'})"
        )
        return
    if args.flavor == "stick":
        st = sample_stick_stats(g, params, args.base, A, L, args.n_samples, seed)
    elif args.flavor == "two":
        st = sample_block2_stats(g, params, chain[0], chain[1], L, args.n_samples, seed)
    else:
        st = sample_block4_stats(g, params, chain, args.k0, L, args.n_samples, seed)
    run.write_csv("block_stats.csv", _BLOCK_STATS_HEADER, [_block_stats_row(st)])
    print(
        f"{st.flavor}: nice rate {st.nice_rate!r} +- {st.stderr!r}, "
        f"analytic lb {st.analytic_lb!r}"
    )


def cmd_percolate(args, run: Run) -> None:
    rows = []
    if args.mode == "contour":
        rep = contour_bounds(args.N, args.theta, args.h, args.K)
        for functional, value in (
            ("contour_short_sum", rep.short_sum),
            ("contour_long_term", rep.long_term),
            ("series_ratio", rep.series_ratio),
        ):
            rows.append((args.N, args.theta, args.K, args.h, functional, value, "", "", ""))
        print(
            f"short {rep.short_sum!r}, long {rep.long_term!r}, "
            f"side condition {'ok' if rep.side_ok else 'FAILS'}"
        )
    elif args.mode in ("connect", "sweep"):
        seed = _require_seed(args)
        connect = args.mode == "connect"
        thetas = [args.theta] if connect else [float(t) for t in args.thetas.split(",")]
        rows = _connect_rows(args.N, thetas, args.K, args.x, args.y, args.n_samples, seed)
        for _, t, _, _, _, mean, stderr, _, _ in rows:
            label = f"P[{args.x} -> {args.y}] =" if connect else f"theta {t!r}:"
            print(f"{label} {mean!r} +- {stderr!r}")
    else:
        seed = _require_seed(args)
        B = LevelSet.from_sites(args.N, 0, list(sites_at_level(args.N, 0)))
        est = prob_good_level(args.N, args.theta, args.K, args.h, B, args.n_samples, seed)
        rows.append(
            (args.N, args.theta, args.K, args.h, "prob_good_level", est.mean, est.stderr, args.n_samples, seed)
        )
        print(f"P[(1-h)-good level] = {est.mean!r} +- {est.stderr!r}")
    run.write_csv("percolation.csv", _PERCOLATION_HEADER, rows)


def cmd_formulas(args, run: Run) -> None:
    if args.p is not None and args.q is not None:
        raise ValueError("give at most one of --p or --q")
    have = {"d": args.d}
    if args.p is not None:
        have.update(p=args.p, q=1.0 - args.p)
    elif args.q is not None:
        have.update(p=1.0 - args.q, q=args.q)
    if args.L is not None:
        have["L"] = args.L
    if args.a is not None:
        have["a"] = args.a
    rows = []
    for name, formula in FORMULAS.items():
        needed = formula.inputs
        if not all(k in have for k in needed):
            continue
        try:
            rep = evaluate_formula(name, **{k: have[k] for k in needed})
        except ValueError as exc:
            print(f"{name}: not computed: {exc}")
            continue
        inputs = ";".join(f"{k}={_fmt(rep.inputs[k])}" for k in needed)
        rows.append((name, inputs, rep.value, ";".join(rep.flags)))
        flagtxt = f"  [{','.join(rep.flags)}]" if rep.flags else ""
        print(f"{name}({inputs}) = {rep.value!r}{flagtxt}")
    if not rows:
        raise ValueError("no formula is computable from the given inputs")
    run.write_csv("formulas.csv", ("formula", "inputs", "value", "flags"), rows)


def cmd_q0(args, run: Run) -> None:
    if args.simple + args.closed_form + (args.dps is not None) > 1:
        raise ValueError("give at most one of --simple, --closed-form or --dps")
    if args.simple:
        print(repr(q0_simple(args.d)))
    elif args.closed_form:
        if args.d != 2:
            raise ValueError("the closed form is only stated for d = 2")
        print(repr(q0_d2_closed_form()))
    elif args.dps is not None:
        print(repr(q0_highprec(args.d, dps=args.dps)))
    else:
        print(repr(q0(args.d)))


def cmd_theta(args, run: Run) -> None:
    print(repr(theta_4block(args.L, args.p, args.d)))


def cmd_drift(args, run: Run) -> None:
    g = _graph(args)
    if (args.p is None) == (args.q is None):
        raise ValueError("give exactly one of --p or --q")
    params = ModelParams(p=args.p) if args.p is not None else ModelParams.from_q(args.q)
    d = g.max_degree
    h = args.h if args.h is not None else choose_h(params.q, d)
    report = verify_all_bounds(g, params, h, keep_rows=True)
    run.write_csv(
        "drift_scan.csv",
        ("graph", "q", "h", "config_bits", "cond_type", "m", "exact_drift", "bound", "margin"),
        [(args.graph, report.q, report.h, *row) for row in report.rows],
    )
    verdict = "hold" if report.all_hold else "VIOLATED"
    sign = "negative" if report.all_negative else "NOT all negative"
    print(
        f"h {h!r}: {report.n_configs} configs, {report.n_sites} site updates; "
        f"bounds {verdict}; conditional drifts {sign}; "
        f"max {report.max_cond_drift!r}"
    )
    if report.restricted:
        print("note: irregular graph, only degree-local bounds were checked")
    for st in report.checks:
        print(f"  {st.name}: min margin {st.min_margin!r} over {st.count}")


def cmd_chains(args, run: Run) -> None:
    g = _graph(args)
    rows = []
    if args.mode == "longest":
        path = longest_chain(g, mode=args.search, budget=args.budget)
        rows.append(("longest", path.length, "-".join(map(str, path.vertices))))
        print(f"longest chain: {path.length} vertices: {path.vertices}")
    elif args.mode == "shortest":
        path = shortest_path(g, args.u, args.v)
        rows.append(("shortest", path.length, "-".join(map(str, path.vertices))))
        print(f"shortest {args.u}->{args.v}: {path.length} vertices (a chain)")
    else:
        cover = chain_cover(g, args.min_len, budget=args.budget)
        for i, ch in enumerate(cover.chains):
            rows.append((f"cover_{i}", ch.length, "-".join(map(str, ch.vertices))))
        if not cover.covered:
            print(f"cover FAILED; uncovered: {cover.uncovered}")
        else:
            print(f"covered by {cover.k} chains of >= {args.min_len} vertices")
    run.write_csv("chains.csv", ("kind", "length", "vertices"), rows)


# ---------------------------------------------------------------------------
# presets

def _preset_batches(spec: str, params: ModelParams, budget: int, seed: int, threads: int):
    """The theorem presets' chains: 4 continuous replicas x `budget` updates, 16 batches."""
    return run_batches(
        parse_graph_spec(spec), params, budget, seed,
        n_replicas=4, n_batches=16, flavor="continuous", n_jobs=threads,
    )


def _preset_thm1_survival(run: Run, seed: int, threads: int) -> None:
    """Small p on a long cycle: ones never take over.

    Budget: 4 replicas x 275k updates on cycle(200), about a second on two cores.
    """
    bd = _preset_batches("cycle:200", ModelParams(p=0.001), 250_000, seed, threads)
    pairs = [
        ("marginal_one", "0", marginal_from_batches(bd, 0)),
        ("proportion_ones_ge", "0.5", proportion_tail_from_batches(bd, 0.5)),
        ("zeros_ge", "100", zeros_tail_from_batches(bd, 100)),
        ("expected_zeros", "", expected_zeros_from_batches(bd)),
    ]
    run.write_csv("survival.csv", _ESTIMATE_HEADER, _estimate_rows(pairs))


def _preset_thm2_proportion(run: Run, seed: int, threads: int) -> None:
    """Small p: a fixed proportion of sites stays at zero.

    Budget: 4 replicas x 165k updates on cycle(100).
    """
    bd = _preset_batches("cycle:100", ModelParams(p=0.005), 150_000, seed, threads)
    pairs = []
    for frac in (0.5, 0.75, 0.9):
        k = math.ceil(frac * bd.num_vertices)
        pairs.append((f"zeros_ge", f"{k}", zeros_tail_from_batches(bd, k)))
    pairs.append(("marginal_one", "0", marginal_from_batches(bd, 0)))
    run.write_csv("proportion.csv", _ESTIMATE_HEADER, _estimate_rows(pairs))


def _preset_thm3_extinction(run: Run, seed: int, threads: int) -> None:
    """q below threshold: zero counts have a geometric tail.

    Budget: 4 replicas x 275k updates on cycle(50) plus a tail fit.
    """
    bd = _preset_batches("cycle:50", ModelParams.from_q(0.3), 250_000, seed, threads)
    pairs = [(f"zeros_ge", str(k), zeros_tail_from_batches(bd, k)) for k in range(0, 13)]
    rows = _estimate_rows(pairs)
    fit = tail_fit_from_batches(bd)
    if fit is not None:
        rows.append(
            ("tail_fit_c2", f"k={fit.ks[0]}..{fit.ks[-1]}",
             *_interval(fit.c2, fit.c2_stderr, fit.c2_ci95, len(fit.ks)),
             bd.budget * bd.n_replicas, f"rms={fit.rms!r}")
        )
    run.write_csv("tail.csv", _ESTIMATE_HEADER, rows)


def _preset_classic_eta_c(run: Run, seed: int, threads: int) -> None:
    """Classical model on cycle(1000): fitness mass accumulates above ~0.66.

    Budget: 400k steps, 100k burn-in, snapshot every 2000 steps.
    """
    g = parse_graph_spec("cycle:1000")
    values = classical_fitness_samples(g, steps=400_000, burn_in=100_000, sample_every=2_000, seed=seed)
    edges = np.linspace(0.0, 1.0, 51)
    hist, _ = np.histogram(values, bins=edges)
    mass = hist / len(values)
    run.write_csv("classic.csv", ("bin_lo", "bin_hi", "mass"), zip(edges, edges[1:], mass))


def _preset_block_bounds(run: Run, seed: int, threads: int) -> None:
    """Nice rates vs analytic lower bounds over a p sweep, d in {2, 4}.

    Budget: 20k direct samples per cell, seconds in total.
    """
    stats = []
    n = 20_000
    for d in (2, 4):
        if d == 2:
            g = parse_graph_spec("cycle:12")
            chain = tuple(range(10))
        else:
            g = parse_graph_spec("torus2d:5x5")
            chain = shortest_path(g, 0, 12).vertices
        A = closed_neighbourhood(g, chain[0])
        for p in (0.02, 0.01, 0.005, 0.0015):
            params = ModelParams(p=p)
            L = {flavor: window(p, d) for flavor, window in _WINDOWS.items()}
            stats.append(sample_stick_stats(g, params, chain[0], A, L["stick"], n, seed))
            stats.append(sample_block2_stats(g, params, chain[0], chain[1], L["two"], n, seed))
            stats.append(sample_block4_stats(g, params, chain, 0, L["four"], n, seed))
    run.write_csv("block_bounds.csv", _BLOCK_STATS_HEADER, map(_block_stats_row, stats))


def _preset_percolation_sweep(run: Run, seed: int, threads: int) -> None:
    """Connectivity across a theta sweep on shared uniforms, plus contour
    bound shapes.  Budget: 1500 samples on a width-6 strip, seconds."""
    N, K = 6, 3
    thetas = (0.90, 0.93, 0.96, 0.99)
    rows = _connect_rows(N, thetas, K, 0, 0, 1_500, seed)
    h = 0.75
    for t in thetas:
        rep = contour_bounds(N, t, h, K)
        rows.append((N, t, K, h, "contour_short_sum", rep.short_sum, "", "", seed))
        rows.append((N, t, K, h, "contour_long_term", rep.long_term, "", "", seed))
    run.write_csv("percolation.csv", _PERCOLATION_HEADER, rows)


_PRESETS = {
    "thm1_survival": _preset_thm1_survival,
    "thm2_proportion": _preset_thm2_proportion,
    "thm3_extinction": _preset_thm3_extinction,
    "classic_eta_c": _preset_classic_eta_c,
    "block_bounds": _preset_block_bounds,
    "percolation_sweep": _preset_percolation_sweep,
}
PRESET_NAMES = tuple(_PRESETS)


def cmd_preset(args, run: Run) -> None:
    seed = _require_seed(args)
    if args.name not in _PRESETS:
        raise ValueError(f"unknown preset {args.name!r}; choose from {PRESET_NAMES}")
    _PRESETS[args.name](run, seed, args.threads)
    print(f"preset {args.name}: wrote {', '.join(run.outputs)}")


# ---------------------------------------------------------------------------
# parser plumbing

def _env_seed() -> int | None:
    raw = os.environ.get("BSLAB_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError("BSLAB_SEED must be an integer") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bslab",
        description="Zero/one Bak-Sneppen laboratory: simulation, exact solves, "
        "block statistics, percolation and drift verification.",
    )
    parser.add_argument("--version", action="version", version=f"bslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="master seed (or env BSLAB_SEED)")
    common.add_argument("--config", type=str, default=None, help="JSON file with option defaults")
    common.add_argument("--out", type=str, default=".", help="output directory")
    common.add_argument(
        "--threads", type=int, default=os.cpu_count() or 1, help="replica parallelism cap"
    )

    gopt = argparse.ArgumentParser(add_help=False)
    gopt.add_argument(
        "--graph",
        type=str,
        required=True,
        help="cycle:N | path:N | torus2d:AxB | complete:N | regular:N:d | file:PATH",
    )

    # the model law of simulate, exact and mc
    law = argparse.ArgumentParser(add_help=False)
    law.add_argument("--p", type=float, required=True)
    law.add_argument("--flavor", choices=FLAVORS, default="continuous")
    law.add_argument("--allones", choices=ALLONES_SEMANTICS, default="resample")

    ps = sub.add_parser("simulate", parents=[common, gopt, law], help="run one seeded trajectory")
    ps.add_argument("--horizon", type=float, default=20.0)
    ps.add_argument("--steps", type=int, default=1000)
    ps.add_argument("--init", type=str, default="random", help="random | ones | zeros | bit string")
    ps.add_argument("--snapshot-every", type=float, default=0.0)
    ps.add_argument("--replica", type=int, default=0)
    ps.set_defaults(func=cmd_simulate)

    pe = sub.add_parser("exact", parents=[common, gopt, law], help="stationary law by a lumped solve or power iteration")
    pe.set_defaults(func=cmd_exact)

    pm = sub.add_parser("mc", parents=[common, gopt, law], help="batch-means Monte Carlo estimates")
    pm.add_argument("--budget", type=int, default=100_000, help="post-burn-in updates per replica")
    pm.add_argument("--replicas", type=int, default=4)
    pm.add_argument("--batches", type=int, default=16)
    pm.add_argument("--burn-frac", type=float, default=0.1)
    pm.add_argument("--vertex", type=int, default=0)
    pm.add_argument("--alpha", type=float, default=0.5)
    pm.add_argument("--k", type=int, default=1)
    pm.add_argument("--tail-fit", action="store_true")
    pm.set_defaults(func=cmd_mc)

    pb = sub.add_parser("blocks", parents=[common, gopt], help="stick/block statistics")
    pb.add_argument("--p", type=float, required=True)
    pb.add_argument("--flavor", choices=tuple(_WINDOWS), default="two")
    pb.add_argument("--L", type=float, default=None, help="window length (default: formula optimum)")
    pb.add_argument("--n-samples", type=int, default=20_000)
    pb.add_argument("--chain", type=str, default=None, help="comma-separated chain vertices")
    pb.add_argument("--base", type=int, default=0, help="stick base vertex")
    pb.add_argument("--a-size", type=int, default=2, help="stick flavor: size of A")
    pb.add_argument("--k0", type=int, default=0, help="four flavor: chain offset")
    pb.add_argument("--pair", choices=tuple(INDEPENDENCE_CELLS), default="same_level")
    pb.set_defaults(func=cmd_blocks)

    pp = sub.add_parser("percolate", parents=[common], help="oriented percolation on the strip")
    pp.add_argument("--mode", choices=("connect", "sweep", "good", "contour"), default="connect")
    pp.add_argument("--N", type=int, required=True)
    pp.add_argument("--K", type=int, default=3)
    pp.add_argument("--theta", type=float, default=0.95)
    pp.add_argument("--thetas", type=str, default="0.9,0.93,0.96,0.99")
    pp.add_argument("--h", type=float, default=0.75)
    pp.add_argument("--x", type=int, default=0)
    pp.add_argument("--y", type=int, default=0)
    pp.add_argument("--n-samples", type=int, default=2_000)
    pp.set_defaults(func=cmd_percolate)

    pf = sub.add_parser("formulas", parents=[common], help="evaluate the closed forms")
    pf.add_argument("--d", type=int, required=True)
    pf.add_argument("--p", type=float, default=None)
    pf.add_argument("--q", type=float, default=None)
    pf.add_argument("--L", type=float, default=None)
    pf.add_argument("--a", type=int, default=None)
    pf.set_defaults(func=cmd_formulas)

    pq = sub.add_parser("q0", parents=[common], help="extinction threshold q0(d)")
    pq.add_argument("--d", type=int, required=True)
    pq.add_argument("--simple", action="store_true", help="the simpler closed-form bound")
    pq.add_argument("--closed-form", action="store_true", help="cubic-root closed form (d=2)")
    pq.add_argument("--dps", type=int, default=None, help="high-precision digits")
    pq.set_defaults(func=cmd_q0)

    pt = sub.add_parser("theta", parents=[common], help="four-block niceness bound")
    pt.add_argument("--L", type=float, required=True)
    pt.add_argument("--p", type=float, required=True)
    pt.add_argument("--d", type=int, required=True)
    pt.set_defaults(func=cmd_theta)

    pd = sub.add_parser("drift", parents=[common, gopt], help="exhaustive drift certificates")
    pd.add_argument("--p", type=float, default=None)
    pd.add_argument("--q", type=float, default=None)
    pd.add_argument("--h", type=float, default=None, help="default: midpoint of the valid window")
    pd.set_defaults(func=cmd_drift)

    pc = sub.add_parser("chains", parents=[common, gopt], help="chain search and covers")
    pc.add_argument("--mode", choices=("longest", "cover", "shortest"), default="longest")
    pc.add_argument("--search", choices=("exact", "heuristic"), default="exact")
    pc.add_argument("--min-len", type=int, default=4)
    pc.add_argument("--u", type=int, default=0)
    pc.add_argument("--v", type=int, default=1)
    pc.add_argument("--budget", type=int, default=10_000_000)
    pc.set_defaults(func=cmd_chains)

    pr = sub.add_parser("preset", parents=[common], help="named experiment batteries")
    pr.add_argument("--name", type=str, required=True, help="|".join(PRESET_NAMES))
    pr.set_defaults(func=cmd_preset)

    return parser


def _apply_config(parser: argparse.ArgumentParser, overrides: dict) -> None:
    """Install config values as defaults; keys must name real options.

    Options the config supplies stop being required, so a config file can
    stand in for --graph and friends while the command line still wins.
    """
    keys: set[str] = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sp in action.choices.values():
                sub_keys = {a.dest for a in sp._actions if a.dest != "help"}
                keys |= sub_keys
                hit = {k: v for k, v in overrides.items() if k in sub_keys}
                if hit:
                    # subparsers parse into a fresh namespace, so defaults
                    # must land on the subparser itself
                    sp.set_defaults(**hit)
                for a in sp._actions:
                    if a.required and a.dest in overrides:
                        a.required = False
    unknown = sorted(set(overrides) - keys)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", type=str, default=None)
    known, _ = pre.parse_known_args(argv)
    try:
        if known.config is not None:
            with open(known.config) as fh:
                overrides = json.load(fh)
            if not isinstance(overrides, dict):
                raise ValueError("config file must hold a JSON object")
            _apply_config(parser, overrides)
        args = parser.parse_args(argv)
        if getattr(args, "seed", None) is None:
            args.seed = _env_seed()
        run = Run(args)
        args.func(args, run)
        run.finish()
        return 0
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
