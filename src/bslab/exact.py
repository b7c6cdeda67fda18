"""Exact stationary analysis of the embedded chain on small graphs.

States are integers in [0, 2^n) with bit x holding the fitness of vertex
x.  The embedded kernel averages, over the uniformly chosen zero vertex,
the product resampling law of its closed neighbourhood; self-loops are
kept (they cancel in the generator, so they do not affect either flavor).
The continuous-time stationary law reweights the embedded one by the
expected holding time 1/r(state), where r is the number of zeros, or n at
all-ones under the `resample` semantics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dynamics import ModelParams
from .graphs import Graph, closed_neighbourhood

__all__ = [
    "TransitionModel",
    "StationaryDist",
    "Marginals",
    "build_kernel",
    "stationary",
    "marginals",
    "transition_matrix_t",
    "balance_residual",
    "escape_entry_check",
    "EscapeEntryReport",
    "tail_geometric_fit",
    "GeomTailFit",
    "stationary_rows",
]


@dataclass(frozen=True)
class TransitionModel:
    graph: Graph
    params: ModelParams
    allones: str
    kernel: sp.csr_matrix
    exit_rates: np.ndarray


def _nbhd_patterns(g: Graph, params: ModelParams, v: int):
    """All resample outcomes of v's closed neighbourhood.

    Returns (clear_mask, targets, weights): state bits to clear, the OR of
    the proposed one-bits per outcome, and the outcome probabilities.
    """
    nbhd = closed_neighbourhood(g, v)
    k = len(nbhd)
    clear = 0
    for u in nbhd:
        clear |= 1 << u
    targets = np.zeros(1 << k, dtype=np.int64)
    weights = np.ones(1 << k, dtype=np.float64)
    for i, u in enumerate(nbhd):
        hi = (np.arange(1 << k) >> i) & 1
        targets |= (hi.astype(np.int64)) << u
        weights *= np.where(hi, params.p, params.q)
    return clear, targets, weights


def build_kernel(
    g: Graph, params: ModelParams, allones: str = "resample", budget: int = 20
) -> TransitionModel:
    """Assemble the sparse embedded kernel for all 2^n states."""
    n = g.num_vertices
    if n > budget:
        raise ValueError(f"state space 2^{n} exceeds budget 2^{budget}")
    if allones not in ("resample", "frozen"):
        raise ValueError("allones must be 'resample' or 'frozen'")
    size = 1 << n
    states = np.arange(size, dtype=np.int64)
    zero_counts = np.zeros(size, dtype=np.int64)
    for x in range(n):
        zero_counts += 1 - ((states >> x) & 1)
    pats = [_nbhd_patterns(g, params, v) for v in range(n)]

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for v in range(n):
        clear, targets, weights = pats[v]
        v_zero = ((states >> v) & 1) == 0
        src = states[v_zero]
        share = 1.0 / zero_counts[v_zero]
        base = src & ~clear
        rows.append(np.repeat(src, len(targets)))
        cols.append((base[:, None] | targets[None, :]).ravel())
        vals.append((share[:, None] * weights[None, :]).ravel())
    ones_state = size - 1
    if allones == "resample":
        for v in range(n):
            clear, targets, weights = pats[v]
            base = ones_state & ~clear
            rows.append(np.full(len(targets), ones_state, dtype=np.int64))
            cols.append(base | targets)
            vals.append(weights / n)
    else:
        rows.append(np.array([ones_state], dtype=np.int64))
        cols.append(np.array([ones_state], dtype=np.int64))
        vals.append(np.array([1.0]))
    kernel = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    ).tocsr()
    exit_rates = zero_counts.astype(np.float64)
    exit_rates[ones_state] = float(n) if allones == "resample" else 0.0
    return TransitionModel(g, params, allones, kernel, exit_rates)


@dataclass(frozen=True)
class StationaryDist:
    probs: np.ndarray
    flavor: str
    residual: float


def stationary(
    tm: TransitionModel,
    flavor: str = "embedded",
    tol: float = 1e-10,
    max_iter: int = 2_000_000,
) -> StationaryDist:
    """Stationary law by sparse power iteration (residual in l1 below tol).

    flavor="embedded" solves pi P = pi for the jump chain;
    flavor="continuous" reweights by expected holding times.
    """
    if flavor not in ("embedded", "continuous"):
        raise ValueError("flavor must be 'embedded' or 'continuous'")
    size = tm.kernel.shape[0]
    if tm.allones == "frozen":
        pi = np.zeros(size)
        pi[size - 1] = 1.0
        return StationaryDist(pi, flavor, 0.0)
    pi = np.full(size, 1.0 / size)
    residual = np.inf
    for _ in range(max_iter):
        nxt = pi @ tm.kernel
        nxt /= nxt.sum()
        residual = float(np.abs(nxt - pi).sum())
        pi = nxt
        if residual < tol:
            if flavor == "embedded":
                break
            # the reweighted flux residual is residual / sum(pi/r); keep
            # iterating until that, not the embedded residual, meets tol
            if residual / float((pi / tm.exit_rates).sum()) < tol:
                break
    else:
        raise RuntimeError(f"power iteration did not reach tol={tol}")
    if flavor == "continuous":
        weights = pi / tm.exit_rates
        pi = weights / weights.sum()
        residual_ct = float(np.abs((pi * tm.exit_rates) @ tm.kernel - pi * tm.exit_rates).sum())
        return StationaryDist(pi, flavor, residual_ct)
    return StationaryDist(pi, flavor, residual)


@dataclass(frozen=True)
class Marginals:
    vertex_one: np.ndarray
    ones_hist: np.ndarray
    zeros_tail: np.ndarray
    num_vertices: int

    def prob_mean_at_least(self, a: float) -> float:
        """P(average fitness >= a)."""
        thresh = a * self.num_vertices - 1e-12
        js = np.arange(self.num_vertices + 1)
        return float(self.ones_hist[js >= thresh].sum())

    @property
    def expected_zeros(self) -> float:
        js = np.arange(self.num_vertices + 1)
        return float((self.ones_hist * (self.num_vertices - js)).sum())


def marginals(sd: StationaryDist, g: Graph) -> Marginals:
    n = g.num_vertices
    states = np.arange(1 << n, dtype=np.int64)
    vertex_one = np.array(
        [float(sd.probs[((states >> x) & 1) == 1].sum()) for x in range(n)]
    )
    ones = np.zeros(1 << n, dtype=np.int64)
    for x in range(n):
        ones += (states >> x) & 1
    ones_hist = np.bincount(ones, weights=sd.probs, minlength=n + 1)
    zeros = n - ones
    zeros_tail = np.array(
        [float(sd.probs[zeros > k].sum()) for k in range(n + 1)]
    )
    return Marginals(vertex_one, ones_hist, zeros_tail, n)


def transition_matrix_t(tm: TransitionModel, t: float, flavor: str, tail: float = 1e-12) -> np.ndarray:
    """Dense t-step (embedded) or time-t (continuous) transition matrix.

    The continuous flavor uses uniformization at rate n with the Poisson
    series truncated once the neglected tail mass is below `tail`.
    """
    from scipy import stats  # slow to import; only this path needs it

    dense = tm.kernel.toarray()
    if flavor == "embedded":
        if t != int(t) or t < 0:
            raise ValueError("embedded flavor needs a nonnegative integer t")
        return np.linalg.matrix_power(dense, int(t))
    if flavor != "continuous":
        raise ValueError("flavor must be 'embedded' or 'continuous'")
    n = tm.graph.num_vertices
    lam = float(n)
    size = dense.shape[0]
    rate_frac = tm.exit_rates / lam
    p_unif = dense * rate_frac[:, None]
    p_unif[np.arange(size), np.arange(size)] += 1.0 - rate_frac
    mu = lam * float(t)
    if mu == 0:
        return np.eye(size)
    k_hi = int(stats.poisson.ppf(1.0 - tail / 2, mu)) + 2
    pmf = stats.poisson.pmf(np.arange(k_hi + 1), mu)
    if 1.0 - pmf.sum() > tail:
        raise RuntimeError("uniformization truncation failed to meet tail bound")
    out = pmf[0] * np.eye(size)
    acc = np.eye(size)
    for k in range(1, k_hi + 1):
        acc = acc @ p_unif
        out += pmf[k] * acc
    return out


def balance_residual(
    tm: TransitionModel, sd: StationaryDist, a_mask: np.ndarray, t: float, flavor: str
) -> float:
    """|flux out of A - flux into A| under the time-t transition law."""
    a_mask = np.asarray(a_mask, dtype=bool)
    m = transition_matrix_t(tm, t, flavor)
    pi = sd.probs
    out_flux = float(pi[a_mask] @ m[np.ix_(a_mask, ~a_mask)].sum(axis=1))
    in_flux = float(pi[~a_mask] @ m[np.ix_(~a_mask, a_mask)].sum(axis=1))
    return abs(out_flux - in_flux)


@dataclass(frozen=True)
class EscapeEntryReport:
    escape_c: float
    entry_eps: float
    pi_a: float
    bound: float
    holds: bool
    vacuous: bool

    def as_json(self) -> dict:
        """JSON-ready dict under the report's canonical field names."""
        return {
            "c": self.escape_c,
            "epsilon": self.entry_eps,
            "bound": self.bound,
            "pi_A": self.pi_a,
            "holds": self.holds,
        }


def escape_entry_check(
    tm: TransitionModel, sd: StationaryDist, a_mask: np.ndarray, t: float, flavor: str
) -> EscapeEntryReport:
    """Escape/entry mass bound: pi(A) < eps/c.

    c is the worst-case time-t escape mass from A, eps the worst-case
    entry mass from outside; c = 0 makes the bound vacuous.
    """
    a_mask = np.asarray(a_mask, dtype=bool)
    if not a_mask.any() or a_mask.all():
        raise ValueError("A must be a proper nonempty subset of states")
    m = transition_matrix_t(tm, t, flavor)
    c = float(m[np.ix_(a_mask, ~a_mask)].sum(axis=1).min())
    eps = float(m[np.ix_(~a_mask, a_mask)].sum(axis=1).max())
    pi_a = float(sd.probs[a_mask].sum())
    if c <= 0.0:
        return EscapeEntryReport(c, eps, pi_a, np.inf, False, True)
    bound = eps / c
    return EscapeEntryReport(c, eps, pi_a, bound, pi_a < bound, False)


@dataclass(frozen=True)
class GeomTailFit:
    c1: float
    c2: float
    k_lo: int
    k_hi: int
    rms: float


def tail_geometric_fit(sd: StationaryDist, g: Graph, floor: float = 1e-14) -> GeomTailFit:
    """Least-squares geometric fit of the zero-count tail.

    Fits log P(#zeros > k) ~ log c1 - c2 k over the ks whose tail mass
    exceeds `floor`; needs at least three usable points.
    """
    mg = marginals(sd, g)
    tail = mg.zeros_tail
    ks = np.flatnonzero(tail > floor)
    if len(ks) < 3:
        raise ValueError("fewer than three usable tail points")
    y = np.log(tail[ks])
    slope, intercept = np.polyfit(ks, y, 1)
    fit = intercept + slope * ks
    rms = float(np.sqrt(np.mean((fit - y) ** 2)))
    return GeomTailFit(float(np.exp(intercept)), float(-slope), int(ks[0]), int(ks[-1]), rms)


def stationary_rows(sd: StationaryDist, g: Graph) -> list[tuple[str, str]]:
    """CSV rows (state_bits, probability), states ascending; bit x of the
    state integer is the fitness of vertex x, printed vertex 0 first."""
    n = g.num_vertices
    rows = []
    for s in range(1 << n):
        bits = "".join("1" if (s >> x) & 1 else "0" for x in range(n))
        rows.append((bits, repr(float(sd.probs[s]))))
    return rows
