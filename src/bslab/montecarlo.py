"""Monte Carlo estimation of stationary functionals via batch means.

The sampler runs the embedded jump chain (uniform zero vertex, closed
neighbourhood resample).  The continuous-time flavor weights each
visited state by its expected holding time 1/r, r = number of unmuted
clocks, which reweights the embedded chain into the time-stationary
law.  Replicas run on disjoint substreams and merge in index order, so
estimates never depend on worker count or scheduling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ALLONES_SEMANTICS, FLAVORS, ModelParams
from .graphs import Graph, closed_neighbourhood
from .rng import Stream, substream

__all__ = [
    "Estimate",
    "TailFit",
    "BatchData",
    "run_batches",
    "marginal_from_batches",
    "proportion_tail_from_batches",
    "zeros_tail_from_batches",
    "expected_zeros_from_batches",
    "tail_fit_from_batches",
    "estimate_from_samples",
]

_CHUNK = 8192


@dataclass(frozen=True)
class Estimate:
    """Batch-means point estimate with a t-interval."""

    mean: float
    stderr: float
    ci95: tuple[float, float]
    n_batches: int
    total_budget: int
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class TailFit:
    """Weighted least-squares fit of log P(zeros >= k) = ln c1 - c2 k."""

    c1: float
    c2: float
    c2_stderr: float
    c2_ci95: tuple[float, float]
    ks: tuple[int, ...]
    rms: float


@dataclass(frozen=True)
class BatchData:
    """Per-batch weighted frequencies, one row per (replica, batch)."""

    bits: np.ndarray  # (n_batches_total, n): one-frequency per vertex
    hist: np.ndarray  # (n_batches_total, n+1): ones-count frequencies
    num_vertices: int
    n_replicas: int
    flavor: str
    budget: int  # post-burn-in updates per replica
    notes: tuple[str, ...]


def _replica_batches(
    g: Graph,
    params: ModelParams,
    budget: int,
    seed: int,
    replica: int,
    n_batches: int,
    burn_in: int,
    flavor: str,
    allones: str,
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    # Python lists, ints and floats in the step loop: indexing a numpy
    # scalar costs more than the arithmetic done with it.  A float is the
    # same IEEE double as a float64, so the sums do not depend on which.
    rng = substream(seed, Stream.MC_REPLICA, replica)
    n = g.num_vertices
    p = params.p
    nbhds = [tuple(enumerate(closed_neighbourhood(g, x))) for x in range(n)]
    kmax = g.max_degree + 1
    resample = allones == "resample"
    # holding-time weight of a state with r zeros (r = 0: all-ones, n clocks)
    weight = [1.0 / (r or n) if flavor == "continuous" else 1.0 for r in range(n + 1)]

    config = (rng.random(n) < p).astype(np.uint8).tolist()
    zeros = [x for x in range(n) if config[x] == 0]
    pos = [-1] * n
    for i, x in enumerate(zeros):
        pos[x] = i
    ones_count = n - len(zeros)

    per_batch = budget // n_batches
    bits_rows = np.zeros((n_batches, n))
    hist_rows = np.zeros((n_batches, n + 1))
    notes: list[str] = []

    # chunked pre-draws: one uniform for the vertex pick, then kmax marks
    # per step; mark j of step `cursor` is bits[cursor * kmax + j]
    cursor = _CHUNK  # the first chunk is drawn at the first step
    # segment b = -1 is the burn-in, whose weights are discarded
    for b, steps in enumerate([burn_in] + [per_batch] * n_batches, start=-1):
        hist = [0.0] * (n + 1)
        acc = [0.0] * n
        mark = [0.0] * n
        W = 0.0
        absorbed = False
        for _ in range(steps):
            if cursor == _CHUNK:
                upick = rng.random(_CHUNK).tolist()
                bits = (rng.random((_CHUNK, kmax)) < p).tobytes()
                cursor = 0
            r = len(zeros)
            w = weight[r]
            hist[ones_count] += w
            W += w
            if r == 0:
                if not resample:
                    absorbed = True
                    break
                v = int(upick[cursor] * n)
            else:
                v = zeros[int(upick[cursor] * r)]
            base = cursor * kmax
            cursor += 1
            for j, t in nbhds[v]:
                new = bits[base + j]
                if config[t] == new:
                    continue
                config[t] = new
                if new:
                    i = pos[t]
                    last = zeros[-1]
                    zeros[i] = last
                    pos[last] = i
                    zeros.pop()
                    pos[t] = -1
                    ones_count += 1
                    mark[t] = W
                else:
                    pos[t] = len(zeros)
                    zeros.append(t)
                    ones_count -= 1
                    acc[t] += W - mark[t]
        if absorbed:
            # frozen all-ones is a trap: every later state is all-ones, so
            # the unfinished rows are exactly the point mass there
            notes.append(f"replica {replica} absorbed at all-ones")
            b = max(b, 0)
            bits_rows[b:] = 1.0
            hist_rows[b:] = 0.0
            hist_rows[b:, n] = 1.0
            break
        if b >= 0:
            for t in range(n):
                if config[t]:
                    acc[t] += W - mark[t]
            bits_rows[b] = [a / W for a in acc]
            hist_rows[b] = [h / W for h in hist]
    return bits_rows, hist_rows, tuple(notes)


def run_batches(
    g: Graph,
    params: ModelParams,
    budget: int,
    seed: int,
    *,
    n_replicas: int = 4,
    n_batches: int = 16,
    burn_frac: float = 0.1,
    flavor: str = "continuous",
    allones: str = "resample",
    n_jobs: int = 1,
) -> BatchData:
    """Run independent replicas and stack their batch frequencies.

    `budget` counts post-burn-in updates per replica, of which each
    replica runs the multiple of n_batches at or below it; burn-in adds
    ceil(burn_frac * budget) more.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}")
    if allones not in ALLONES_SEMANTICS:
        raise ValueError(f"allones must be one of {ALLONES_SEMANTICS}")
    if not 0.0 <= burn_frac < math.inf:
        raise ValueError("burn_frac must be a finite number >= 0")
    if n_batches < 8:
        raise ValueError("need at least 8 batches per replica for a usable stderr")
    if budget < n_batches:
        raise ValueError("budget smaller than the number of batches")
    if n_replicas < 1:
        raise ValueError("need at least one replica")
    if n_jobs < 1:
        raise ValueError("n_jobs must be at least 1")
    if seed is None:
        raise ValueError("seed is required")
    burn_in = math.ceil(burn_frac * budget)
    args = [
        (g, params, budget, seed, rep, n_batches, burn_in, flavor, allones)
        for rep in range(n_replicas)
    ]
    if n_jobs == 1 or n_replicas == 1:
        results = [_replica_batches(*a) for a in args]
    else:
        from concurrent.futures import ProcessPoolExecutor  # slow to import; only the pool needs it

        with ProcessPoolExecutor(max_workers=min(n_jobs, n_replicas)) as ex:
            results = list(ex.map(_replica_batches, *zip(*args)))
    bits = np.vstack([r[0] for r in results])
    hist = np.vstack([r[1] for r in results])
    notes: list[str] = []
    for r in results:
        notes.extend(r[2])
    updates = (budget // n_batches) * n_batches
    return BatchData(bits, hist, g.num_vertices, n_replicas, flavor, updates, tuple(notes))


def _t_estimate(values, total_budget: int, notes: tuple[str, ...]) -> Estimate:
    """Mean, stderr and 95% t-interval treating each value as one batch."""
    from scipy.special import stdtrit  # slow to import; only the intervals need it

    b = np.asarray(values, dtype=float)
    nb = b.size
    mean = float(b.mean())
    se = float(b.std(ddof=1) / math.sqrt(nb))
    tq = float(stdtrit(nb - 1, 0.975))
    return Estimate(mean, se, (mean - tq * se, mean + tq * se), nb, total_budget, notes)


def _reduce(batch_vals: np.ndarray, bd: BatchData) -> Estimate:
    b = np.asarray(batch_vals, dtype=float)
    notes = bd.notes
    if b.min() == b.max():
        notes += ("all batch means equal: the interval has zero width",)
    return _t_estimate(b, bd.budget * bd.n_replicas, notes)


def marginal_from_batches(bd: BatchData, x: int) -> Estimate:
    """Stationary P(bit_x = 1)."""
    if not (0 <= x < bd.num_vertices):
        raise ValueError("vertex out of range")
    return _reduce(bd.bits[:, x], bd)


def _tail_from_hist(bd: BatchData, lo: int, hi: int) -> Estimate:
    """Probability that the ones count lies in [lo, hi].

    Summed histogram cells can overshoot 1 by rounding; clipping each
    batch to [0, 1] keeps the mean a probability.
    """
    lo = max(lo, 0)
    if lo > hi:
        vals = np.zeros(bd.hist.shape[0])
    else:
        vals = np.clip(bd.hist[:, lo : hi + 1].sum(axis=1), 0.0, 1.0)
    return _reduce(vals, bd)


def proportion_tail_from_batches(bd: BatchData, a: float) -> Estimate:
    """Stationary P(ones >= a * n)."""
    n = bd.num_vertices
    return _tail_from_hist(bd, math.ceil(a * n - 1e-12), n)


def zeros_tail_from_batches(bd: BatchData, k: int) -> Estimate:
    """Stationary P(number of zeros >= k)."""
    n = bd.num_vertices
    if k <= 0:
        return _reduce(np.ones(bd.hist.shape[0]), bd)
    return _tail_from_hist(bd, 0, n - k)


def expected_zeros_from_batches(bd: BatchData) -> Estimate:
    n = bd.num_vertices
    weights = n - np.arange(n + 1)
    return _reduce(bd.hist @ weights, bd)


_TAIL_MAX_REL_ERR = 0.5
# a relative stderr this small is rounding noise on a mass of one, and its
# weight mean / stderr would make the fit's normal matrix singular
_TAIL_MIN_REL_ERR = 1e-12
_TAIL_MIN_POINTS = 3


def tail_fit_from_batches(bd: BatchData, k_lo: int = 1, k_hi: int | None = None) -> TailFit | None:
    """Fit the geometric tail of the zero count.

    Points with zero mass, or a relative stderr at most _TAIL_MIN_REL_ERR
    or above _TAIL_MAX_REL_ERR, are dropped; returns None when fewer than
    _TAIL_MIN_POINTS survive.
    """
    from scipy.special import stdtrit  # slow to import; only the intervals need it

    n = bd.num_vertices
    if k_hi is None:
        k_hi = n
    ks, ys, ws = [], [], []
    for k in range(max(k_lo, 1), k_hi + 1):
        est = zeros_tail_from_batches(bd, k)
        if est.mean <= 0.0 or not _TAIL_MIN_REL_ERR < est.stderr / est.mean <= _TAIL_MAX_REL_ERR:
            continue
        ks.append(k)
        ys.append(math.log(est.mean))
        ws.append(est.mean / est.stderr)
    if len(ks) < _TAIL_MIN_POINTS:
        return None
    x = np.array(ks, dtype=float)
    y = np.array(ys)
    w = np.array(ws)
    coeffs, cov = np.polyfit(x, y, 1, w=w, cov="unscaled")
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    c2 = -slope
    c2_se = float(math.sqrt(cov[0, 0]))
    dof = len(ks) - 2
    tq = float(stdtrit(dof, 0.975)) if dof > 0 else float("inf")
    resid = y - (slope * x + intercept)
    rms = float(math.sqrt(np.mean(resid**2)))
    return TailFit(
        math.exp(intercept), c2, c2_se, (c2 - tq * c2_se, c2 + tq * c2_se), tuple(ks), rms
    )


def estimate_from_samples(values: np.ndarray, notes: tuple[str, ...] = ()) -> Estimate:
    """Estimate from i.i.d. samples; every sample is its own batch."""
    b = np.asarray(values, dtype=float)
    if b.size < 2:
        raise ValueError("need at least two samples")
    return _t_estimate(b, b.size, notes)
