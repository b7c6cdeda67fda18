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
    block4_independence_check,
    block_stats_rows,
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
from .drift import scan_rows, verify_all_bounds
from .dynamics import (
    ModelParams,
    all_ones,
    all_zeros,
    classical_fitness_samples,
    event_log_rows,
    format_configuration,
    parse_configuration,
    random_configuration,
    replay,
    sample_graphical,
    step_discrete,
)
from .exact import build_kernel, marginals, stationary, stationary_rows
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
    _check_site,
    contour_bounds,
    prob_connect,
    prob_connect_theta_sweep,
    prob_good_level,
    sites_at_level,
)
from .rng import substream


def _fmt(x) -> str:
    """Shortest round-trip text for CSV cells."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (np.integer,)):
        return str(int(x))
    return str(x)


class Run:
    """Collects CSV outputs of one command and writes the manifest."""

    def __init__(self, args: argparse.Namespace, command: str) -> None:
        self.command = command
        self.args = args
        self.out = Path(args.out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.outputs: list[str] = []
        self.started_at = datetime.now(timezone.utc).isoformat()
        self._t0 = time.perf_counter()

    def write_csv(self, name: str, header, rows) -> Path:
        path = self.out / name
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            for row in rows:
                w.writerow([_fmt(c) for c in row])
        self.outputs.append(name)
        return path

    def write_lines(self, name: str, lines) -> Path:
        path = self.out / name
        path.write_text("\n".join(lines) + "\n")
        self.outputs.append(name)
        return path

    def finish(self) -> int:
        import mpmath
        import scipy

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
                "scipy": scipy.__version__,
                "mpmath": mpmath.__version__,
            },
            "started_at": self.started_at,
            "wall_time_s": round(time.perf_counter() - self._t0, 3),
            "outputs": self.outputs,
        }
        with open(self.out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return 0


def _require_seed(args) -> int:
    if args.seed is None:
        raise ValueError("a seed is required (--seed or BSLAB_SEED)")
    return args.seed


def _graph(args):
    return parse_graph_spec(args.graph, seed=args.seed)


def _estimate_rows(pairs):
    """Rows (functional, param, Estimate) -> CSV cells."""
    rows = []
    for functional, param, est in pairs:
        rows.append(
            (
                functional,
                param,
                est.mean,
                est.stderr,
                est.ci95[0],
                est.ci95[1],
                est.n_batches,
                est.total_budget,
                ";".join(est.notes),
            )
        )
    return rows


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


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args) -> int:
    seed = _require_seed(args)
    g = _graph(args)
    params = ModelParams(p=args.p)
    every = float(args.snapshot_every)
    if args.flavor == "embedded" and every != 0.0 and not (every >= 1.0 and every.is_integer()):
        raise ValueError(
            "--snapshot-every must be 0 or a whole number of steps >= 1 for the embedded flavor"
        )
    run = Run(args, "simulate")
    if args.init == "random":
        config0 = random_configuration(g, params, substream(seed, 11))
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
        run.write_csv("events.csv", ("time", "vertex", "applied", "marks"), event_log_rows(g, res))
        if snaps is not None:
            run.write_csv(
                "snapshots.csv",
                ("time", "configuration"),
                [(t, format_configuration(c)) for t, c in zip(snaps, res.snapshots)],
            )
        final = res.final
        print(f"applied {res.applied_count} events, muted {res.muted_count}")
    else:
        rng = substream(seed, 19)
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
    return run.finish()


def cmd_exact(args) -> int:
    g = _graph(args)
    params = ModelParams(p=args.p)
    run = Run(args, "exact")
    tm = build_kernel(g, params, allones=args.allones)
    sd = stationary(tm, flavor=args.flavor)
    mg = marginals(sd, g)
    run.write_csv("stationary.csv", ("state_bits", "probability"), stationary_rows(sd, g))
    rows = []
    for x in range(g.num_vertices):
        rows.append(("vertex_one", x, mg.vertex_one[x]))
    for j in range(g.num_vertices + 1):
        rows.append(("ones_hist", j, float(mg.ones_hist[j])))
    for k in range(g.num_vertices + 1):
        rows.append(("zeros_tail_gt", k, float(mg.zeros_tail[k])))
    run.write_csv("marginals.csv", ("kind", "index", "value"), rows)
    print(
        f"stationary ({sd.flavor}) residual {sd.residual:.3e}; "
        f"expected zeros {mg.expected_zeros!r}; "
        f"P(all ones) {float(mg.ones_hist[g.num_vertices])!r}"
    )
    return run.finish()


def cmd_mc(args) -> int:
    seed = _require_seed(args)
    g = _graph(args)
    params = ModelParams(p=args.p)
    if not (0 <= args.vertex < g.num_vertices):
        raise ValueError("vertex out of range")
    run = Run(args, "mc")
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
        (
            functional,
            args.p,
            args.graph,
            est.mean,
            est.stderr,
            est.ci95[0],
            est.ci95[1],
            est.n_batches,
            seed,
        )
        for functional, est in pairs
    ]
    if args.tail_fit:
        fit = tail_fit_from_batches(bd)
        if fit is not None:
            rows.append(
                (
                    f"tail_fit_c2(k={fit.ks[0]}..{fit.ks[-1]})",
                    args.p,
                    args.graph,
                    fit.c2,
                    fit.c2_stderr,
                    fit.c2_ci95[0],
                    fit.c2_ci95[1],
                    len(fit.ks),
                    seed,
                )
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
    return run.finish()


def _auto_chain(g, want: int):
    path = longest_chain(g, mode="heuristic")
    if path.length < want:
        path = longest_chain(g, mode="exact")
    if path.length < want:
        raise ValueError(f"graph has no chain of {want} sites (best {path.length})")
    return path.vertices


def cmd_blocks(args) -> int:
    seed = _require_seed(args)
    g = _graph(args)
    params = ModelParams(p=args.p)
    run = Run(args, "blocks")
    if args.chain:
        chain = tuple(int(v) for v in args.chain.split(","))
        if not is_chain(g, chain):
            raise ValueError("--chain is not a chain of this graph")
    else:
        chain = None
    if args.flavor == "independence":
        L = args.L if args.L is not None else tilde_L(args.p, g.max_degree)
        need = 12 if args.pair == "same_level" else 8
        if chain is None:
            chain = _auto_chain(g, need)
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
        return run.finish()
    if args.flavor == "stick":
        L = args.L if args.L is not None else hat_L(args.p, g.max_degree)
        A = closed_neighbourhood(g, args.base)[: args.a_size]
        st = sample_stick_stats(g, params, args.base, A, L, args.n_samples, seed)
    elif args.flavor == "two":
        L = args.L if args.L is not None else hat_L(args.p, g.max_degree)
        if chain is None:
            chain = _auto_chain(g, 2)
        st = sample_block2_stats(g, params, chain[0], chain[1], L, args.n_samples, seed)
    else:
        L = args.L if args.L is not None else tilde_L(args.p, g.max_degree)
        if chain is None:
            chain = _auto_chain(g, 4)
        st = sample_block4_stats(g, params, chain, args.k0, L, args.n_samples, seed)
    run.write_lines("block_stats.csv", block_stats_rows([st]))
    print(
        f"{st.flavor}: nice rate {st.nice_rate!r} +- {st.stderr!r}, "
        f"analytic lb {st.analytic_lb!r}"
    )
    return run.finish()


def cmd_percolate(args) -> int:
    if args.mode in ("connect", "sweep"):
        # before Run creates --out, so a target that is not a site leaves no directory
        _check_site(args.N, 0, args.x, "x")
        _check_site(args.N, args.K * args.N, args.y, "y")
    run = Run(args, "percolate")
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
    elif args.mode == "connect":
        seed = _require_seed(args)
        est = prob_connect(args.N, args.theta, args.K, args.x, args.y, args.n_samples, seed)
        rows.append(
            (args.N, args.theta, args.K, "", "prob_connect", est.mean, est.stderr, args.n_samples, seed)
        )
        print(f"P[{args.x} -> {args.y}] = {est.mean!r} +- {est.stderr!r}")
    elif args.mode == "sweep":
        seed = _require_seed(args)
        thetas = [float(t) for t in args.thetas.split(",")]
        res = prob_connect_theta_sweep(args.N, thetas, args.K, args.x, args.y, args.n_samples, seed)
        for t in sorted(res):
            est = res[t]
            rows.append((args.N, t, args.K, "", "prob_connect", est.mean, est.stderr, args.n_samples, seed))
            print(f"theta {t!r}: {est.mean!r} +- {est.stderr!r}")
    else:
        seed = _require_seed(args)
        B = LevelSet.from_sites(args.N, 0, list(sites_at_level(args.N, 0)))
        est = prob_good_level(args.N, args.theta, args.K, args.h, B, args.n_samples, seed)
        rows.append(
            (args.N, args.theta, args.K, args.h, "prob_good_level", est.mean, est.stderr, args.n_samples, seed)
        )
        print(f"P[(1-h)-good level] = {est.mean!r} +- {est.stderr!r}")
    run.write_csv("percolation.csv", _PERCOLATION_HEADER, rows)
    return run.finish()


def cmd_formulas(args) -> int:
    run = Run(args, "formulas")
    have = {"d": args.d}
    if args.p is not None:
        have["p"] = args.p
        have["q"] = 1.0 - args.p
    if args.q is not None:
        have["q"] = args.q
        have.setdefault("p", 1.0 - args.q)
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
    return run.finish()


def cmd_q0(args) -> int:
    if args.simple:
        print(repr(q0_simple(args.d)))
    elif args.closed_form:
        if args.d != 2:
            raise ValueError("the closed form is only stated for d = 2")
        print(repr(q0_d2_closed_form()))
    elif args.dps:
        print(repr(q0_highprec(args.d, dps=args.dps)))
    else:
        print(repr(q0(args.d)))
    return 0


def cmd_theta(args) -> int:
    print(repr(theta_4block(args.L, args.p, args.d)))
    return 0


def cmd_drift(args) -> int:
    g = _graph(args)
    if (args.p is None) == (args.q is None):
        raise ValueError("give exactly one of --p or --q")
    params = ModelParams(p=args.p) if args.p is not None else ModelParams.from_q(args.q)
    d = g.max_degree
    h = args.h if args.h is not None else choose_h(params.q, d)
    run = Run(args, "drift")
    report = verify_all_bounds(g, params, h, keep_rows=True)
    run.write_csv(
        "drift_scan.csv",
        ("graph", "q", "h", "config_bits", "cond_type", "m", "exact_drift", "bound", "margin"),
        scan_rows(report, args.graph),
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
    return run.finish()


def cmd_chains(args) -> int:
    g = _graph(args)
    run = Run(args, "chains")
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
    return run.finish()


# ---------------------------------------------------------------------------
# presets

def _preset_thm1_survival(run: Run, seed: int, threads: int) -> None:
    """Small p on a long cycle: ones never take over.

    Budget: 4 replicas x 275k updates on cycle(200), about a minute.
    """
    g = parse_graph_spec("cycle:200")
    params = ModelParams(p=0.001)
    bd = run_batches(
        g, params, 250_000, seed, n_replicas=4, n_batches=16, flavor="continuous", n_jobs=threads
    )
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
    g = parse_graph_spec("cycle:100")
    params = ModelParams(p=0.005)
    bd = run_batches(
        g, params, 150_000, seed, n_replicas=4, n_batches=16, flavor="continuous", n_jobs=threads
    )
    n = g.num_vertices
    pairs = []
    for frac in (0.5, 0.75, 0.9):
        k = math.ceil(frac * n)
        pairs.append((f"zeros_ge", f"{k}", zeros_tail_from_batches(bd, k)))
    pairs.append(("marginal_one", "0", marginal_from_batches(bd, 0)))
    run.write_csv("proportion.csv", _ESTIMATE_HEADER, _estimate_rows(pairs))


def _preset_thm3_extinction(run: Run, seed: int, threads: int) -> None:
    """q below threshold: zero counts have a geometric tail.

    Budget: 4 replicas x 275k updates on cycle(50) plus a tail fit.
    """
    g = parse_graph_spec("cycle:50")
    params = ModelParams.from_q(0.3)
    bd = run_batches(
        g, params, 250_000, seed, n_replicas=4, n_batches=16, flavor="continuous", n_jobs=threads
    )
    pairs = [(f"zeros_ge", str(k), zeros_tail_from_batches(bd, k)) for k in range(0, 13)]
    rows = _estimate_rows(pairs)
    fit = tail_fit_from_batches(bd)
    if fit is not None:
        rows.append(
            (
                "tail_fit_c2",
                f"k={fit.ks[0]}..{fit.ks[-1]}",
                fit.c2,
                fit.c2_stderr,
                fit.c2_ci95[0],
                fit.c2_ci95[1],
                len(fit.ks),
                bd.budget * bd.n_replicas,
                f"rms={fit.rms!r}",
            )
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
            Lh = hat_L(p, d)
            Lt = tilde_L(p, d)
            stats.append(sample_stick_stats(g, params, chain[0], A, Lh, n, seed))
            stats.append(sample_block2_stats(g, params, chain[0], chain[1], Lh, n, seed))
            stats.append(sample_block4_stats(g, params, chain, 0, Lt, n, seed))
    run.write_lines("block_bounds.csv", block_stats_rows(stats))


def _preset_percolation_sweep(run: Run, seed: int, threads: int) -> None:
    """Connectivity across a theta sweep on shared uniforms, plus contour
    bound shapes.  Budget: 1500 samples on a width-6 strip, seconds."""
    N, K = 6, 3
    thetas = (0.90, 0.93, 0.96, 0.99)
    res = prob_connect_theta_sweep(N, thetas, K, 0, 0, 1_500, seed)
    rows = []
    for t in sorted(res):
        est = res[t]
        rows.append((N, t, K, "", "prob_connect", est.mean, est.stderr, 1_500, seed))
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


def cmd_preset(args) -> int:
    seed = _require_seed(args)
    if args.name not in _PRESETS:
        raise ValueError(f"unknown preset {args.name!r}; choose from {PRESET_NAMES}")
    run = Run(args, f"preset:{args.name}")
    _PRESETS[args.name](run, seed, args.threads)
    print(f"preset {args.name}: wrote {', '.join(run.outputs)}")
    return run.finish()


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

    ps = sub.add_parser("simulate", parents=[common, gopt], help="run one seeded trajectory")
    ps.add_argument("--p", type=float, required=True)
    ps.add_argument("--flavor", choices=("continuous", "embedded"), default="continuous")
    ps.add_argument("--horizon", type=float, default=20.0)
    ps.add_argument("--steps", type=int, default=1000)
    ps.add_argument("--allones", choices=("resample", "frozen"), default="resample")
    ps.add_argument("--init", type=str, default="random", help="random | ones | zeros | bit string")
    ps.add_argument("--snapshot-every", type=float, default=0.0)
    ps.add_argument("--replica", type=int, default=0)
    ps.set_defaults(func=cmd_simulate)

    pe = sub.add_parser("exact", parents=[common, gopt], help="stationary law by power iteration")
    pe.add_argument("--p", type=float, required=True)
    pe.add_argument("--flavor", choices=("embedded", "continuous"), default="continuous")
    pe.add_argument("--allones", choices=("resample", "frozen"), default="resample")
    pe.set_defaults(func=cmd_exact)

    pm = sub.add_parser("mc", parents=[common, gopt], help="batch-means Monte Carlo estimates")
    pm.add_argument("--p", type=float, required=True)
    pm.add_argument("--budget", type=int, default=100_000, help="post-burn-in updates per replica")
    pm.add_argument("--replicas", type=int, default=4)
    pm.add_argument("--batches", type=int, default=16)
    pm.add_argument("--burn-frac", type=float, default=0.1)
    pm.add_argument("--flavor", choices=("continuous", "embedded"), default="continuous")
    pm.add_argument("--allones", choices=("resample", "frozen"), default="resample")
    pm.add_argument("--vertex", type=int, default=0)
    pm.add_argument("--alpha", type=float, default=0.5)
    pm.add_argument("--k", type=int, default=1)
    pm.add_argument("--tail-fit", action="store_true")
    pm.set_defaults(func=cmd_mc)

    pb = sub.add_parser("blocks", parents=[common, gopt], help="stick/block statistics")
    pb.add_argument("--p", type=float, required=True)
    pb.add_argument("--flavor", choices=("stick", "two", "four", "independence"), default="two")
    pb.add_argument("--L", type=float, default=None, help="window length (default: formula optimum)")
    pb.add_argument("--n-samples", type=int, default=20_000)
    pb.add_argument("--chain", type=str, default=None, help="comma-separated chain vertices")
    pb.add_argument("--base", type=int, default=0, help="stick base vertex")
    pb.add_argument("--a-size", type=int, default=2, help="stick flavor: size of A")
    pb.add_argument("--k0", type=int, default=0, help="four flavor: chain offset")
    pb.add_argument("--pair", choices=("same_level", "adjacent_level", "self"), default="same_level")
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
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
