"""Oriented bond percolation on a strip.

Sites live at (m, n) with m + n even and 0 <= m <= 2N; each site has
oriented bonds to (m-1, n+1) and (m+1, n+1), clipped at the strip
walls.  Level n holds N+1 sites when n is even and N when odd.  Sites
at level n are indexed i = (m - (n mod 2)) / 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .montecarlo import Estimate, estimate_from_samples
from .rng import Stream, substream

__all__ = [
    "level_size",
    "sites_at_level",
    "StripField",
    "LevelSet",
    "strip_uniforms",
    "field_from_uniforms",
    "sample_strip",
    "evolve",
    "is_h_good",
    "prob_connect",
    "prob_connect_theta_sweep",
    "prob_good_level",
    "ContourReport",
    "contour_bounds",
    "side_condition_ok",
]


def level_size(N: int, n: int) -> int:
    return N + 1 if n % 2 == 0 else N


def sites_at_level(N: int, n: int) -> np.ndarray:
    """Horizontal coordinates m of the sites in H_n."""
    return np.arange(n % 2, 2 * N + 1, 2)


def _check_strip(N: int, levels: int) -> None:
    if N < 1 or levels < 1:
        raise ValueError("need N >= 1 and levels >= 1")


@dataclass(frozen=True)
class StripField:
    """Open/closed status of every bond, one array pair per level.

    bonds_left[n][i] is the bond from site i of level n to its upper
    left target; clipped bonds (leaving the strip) are stored False.
    theta is None for fields induced from other processes.
    """

    N: int
    levels: int  # number of bond layers; sites exist at 0..levels
    bonds_left: tuple[np.ndarray, ...]
    bonds_right: tuple[np.ndarray, ...]
    theta: float | None = None

    def __post_init__(self) -> None:
        _check_strip(self.N, self.levels)
        if len(self.bonds_left) != self.levels or len(self.bonds_right) != self.levels:
            raise ValueError("bond arrays must cover every level")
        for n in range(self.levels):
            w = level_size(self.N, n)
            if self.bonds_left[n].shape != (w,) or self.bonds_right[n].shape != (w,):
                raise ValueError(f"bond arrays at level {n} must have length {w}")
            if n % 2 == 0:
                if self.bonds_left[n][0] or self.bonds_right[n][w - 1]:
                    raise ValueError("clipped wall bonds must be closed")

    def open_fraction(self) -> float:
        """Open share among existing (non-clipped) bonds."""
        open_count = 0
        total = 0
        for n in range(self.levels):
            w = level_size(self.N, n)
            if n % 2 == 0:
                open_count += int(self.bonds_left[n][1:].sum())
                open_count += int(self.bonds_right[n][: w - 1].sum())
                total += 2 * w - 2
            else:
                open_count += int(self.bonds_left[n].sum())
                open_count += int(self.bonds_right[n].sum())
                total += 2 * w
        return open_count / total if total else float("nan")


@dataclass(frozen=True)
class LevelSet:
    """A subset of the sites of one level, as a mask over H_n."""

    N: int
    level: int
    mask: np.ndarray

    def __post_init__(self) -> None:
        if self.mask.shape != (level_size(self.N, self.level),):
            raise ValueError("mask length must match the level size")

    @property
    def count(self) -> int:
        return int(self.mask.sum())

    @property
    def sites(self) -> np.ndarray:
        return sites_at_level(self.N, self.level)[self.mask]

    @classmethod
    def from_sites(cls, N: int, level: int, ms) -> "LevelSet":
        width = level_size(N, level)
        mask = np.zeros(width, dtype=bool)
        for m in ms:
            m = int(m)
            _check_site(N, level, m, "m")
            mask[(m - level % 2) // 2] = True
        return cls(N, level, mask)


def strip_uniforms(N: int, levels: int, rng: np.random.Generator):
    """One uniform per potential bond; shared across a theta sweep."""
    ul = [rng.random(level_size(N, n)) for n in range(levels)]
    ur = [rng.random(level_size(N, n)) for n in range(levels)]
    return ul, ur


def field_from_uniforms(N: int, theta: float, ul, ur) -> StripField:
    levels = len(ul)
    bl, br = [], []
    for n in range(levels):
        w = level_size(N, n)
        left = ul[n] < theta
        right = ur[n] < theta
        if n % 2 == 0:
            left = left.copy()
            right = right.copy()
            left[0] = False
            right[w - 1] = False
        bl.append(left)
        br.append(right)
    return StripField(N, levels, tuple(bl), tuple(br), float(theta))


def sample_strip(N: int, theta: float, levels: int, rng: np.random.Generator) -> StripField:
    """Independent Bernoulli(theta) bonds."""
    if not (0.0 <= theta <= 1.0):
        raise ValueError("theta must lie in [0, 1]")
    ul, ur = strip_uniforms(N, levels, rng)
    return field_from_uniforms(N, theta, ul, ur)


def _check_start(B: LevelSet, N: int) -> None:
    if B.level != 0:
        raise ValueError("starting set must sit at level 0")
    if B.N != N:
        raise ValueError("level set and field disagree on N")


def evolve(field: StripField, B: LevelSet, upto: int) -> LevelSet:
    """Frontier of sites reachable from B along open bonds, at level `upto`."""
    _check_start(B, field.N)
    if not (0 <= upto <= field.levels):
        raise ValueError("level out of range")
    N = field.N
    cur = B.mask.copy()
    for n in range(upto):
        cur = _advance(cur, field.bonds_left[n], field.bonds_right[n], n, N)
    return LevelSet(N, upto, cur)


def _advance(cur: np.ndarray, bl: np.ndarray, br: np.ndarray, n: int, N: int) -> np.ndarray:
    """The sites of level n + 1 reached along the open bonds (bl, br) of
    level n from the sites `cur` of level n, as masks along the last axis."""
    if n % 2 == 0:
        return (cur[..., 1:] & bl[..., 1:]) | (cur[..., :N] & br[..., :N])
    nxt = np.zeros(cur.shape[:-1] + (N + 1,), dtype=bool)
    nxt[..., :N] = cur & bl
    nxt[..., 1:] |= cur & br
    return nxt


def is_h_good(S: LevelSet, h: float) -> bool:
    """|S| / |H_n| >= h, inclusive."""
    if not (0.0 < h <= 1.0):
        raise ValueError("h must lie in (0, 1]")
    return S.count / level_size(S.N, S.level) >= h


def _check_site(N: int, level: int, m: int, who: str) -> None:
    if m % 2 != level % 2 or not (0 <= m <= 2 * N):
        raise ValueError(f"{who}={m} is not a site of level {level}")


def _check_n_samples(n_samples: int) -> None:
    if n_samples < 2:
        raise ValueError("need at least two samples")


# uniforms drawn per chunk of samples by _strip_frontiers: 512 KiB of
# doubles, whatever N, K or n_samples
_CHUNK_DOUBLES = 1 << 16


def _strip_frontiers(N: int, levels: int, start: np.ndarray, thetas, n_samples: int, rng):
    """Yield (m, [frontier for each theta]) for successive chunks of samples.

    A frontier is the (m, level_size(N, levels)) boolean mask of the sites
    at level `levels` reachable from the level-0 mask `start`, in the
    field that evolve would see on each sample.  A chunk takes its
    uniforms in one rng.random((m, 2W)) call, W the bond count over all
    levels: row i holds the doubles, in order, of the i-th of m successive
    strip_uniforms calls (every level's ul, then every level's ur).  A
    bond is open iff its uniform is below theta; clipped wall bonds are
    never read.
    """
    offsets = np.cumsum([0] + [level_size(N, n) for n in range(levels)]).tolist()
    W = offsets[-1]
    chunk = max(1, _CHUNK_DOUBLES // (2 * W))
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        u = rng.random((m, 2 * W))
        frontiers = []
        for t in thetas:
            bonds = u < t
            cur = np.broadcast_to(start, (m, len(start)))
            for n in range(levels):
                bl = bonds[:, offsets[n] : offsets[n + 1]]
                br = bonds[:, W + offsets[n] : W + offsets[n + 1]]
                cur = _advance(cur, bl, br, n, N)
            frontiers.append(cur)
        yield m, frontiers
        done += m


def prob_connect(
    N: int, theta: float, K: int, x: int, y: int, n_samples: int, seed: int
) -> Estimate:
    """MC estimate of P[x -> y] for x in H_0, y in H_{KN}."""
    return prob_connect_theta_sweep(N, [theta], K, x, y, n_samples, seed)[float(theta)]


def prob_connect_theta_sweep(
    N: int, thetas, K: int, x: int, y: int, n_samples: int, seed: int
) -> dict[float, Estimate]:
    """P[x -> y] across thetas on shared uniforms; per-sample indicators
    are nondecreasing in theta by construction, which is asserted."""
    _check_n_samples(n_samples)
    levels = K * N
    _check_site(N, 0, x, "x")
    _check_site(N, levels, y, "y")
    thetas = sorted(float(t) for t in thetas)
    if not all(0.0 <= t <= 1.0 for t in thetas):
        raise ValueError("theta must lie in [0, 1]")
    _check_strip(N, levels)
    if abs(y - x) > levels:
        unreachable = Estimate(0.0, 0.0, (0.0, 0.0), n_samples, n_samples, ("target unreachable",))
        return {t: unreachable for t in thetas}
    if not thetas:
        return {}
    rng = substream(seed, Stream.PERCOLATION_CONNECT)
    start = LevelSet.from_sites(N, 0, [x]).mask
    j = (y - levels % 2) // 2
    hits = {t: np.empty(n_samples, dtype=float) for t in thetas}
    done = 0
    for m, frontiers in _strip_frontiers(N, levels, start, list(hits), n_samples, rng):
        chunk_hits = np.array([f[:, j] for f in frontiers])
        if (chunk_hits[1:] < chunk_hits[:-1]).any():
            raise AssertionError("connectivity decreased on a shared-uniform sample")
        for t, h in zip(hits, chunk_hits):
            hits[t][done : done + m] = h
        done += m
    return {t: estimate_from_samples(v) for t, v in hits.items()}


def side_condition_ok(theta: float, h: float) -> bool:
    """(h/2) ln(1/(1-theta)) > (1-h) ln 3."""
    if theta >= 1.0:
        return True
    return 0.5 * h * math.log(1.0 / (1.0 - theta)) > (1.0 - h) * math.log(3.0)


def prob_good_level(
    N: int, theta: float, K: int, h: float, B: LevelSet, n_samples: int, seed: int
) -> Estimate:
    """MC estimate of P[the level-KN frontier of B is (1-h)-good]."""
    if not (0.0 < h < 1.0):
        raise ValueError("h must lie in (0, 1)")
    _check_n_samples(n_samples)
    if not (0.0 <= theta <= 1.0):
        raise ValueError("theta must lie in [0, 1]")
    levels = K * N
    _check_strip(N, levels)
    _check_start(B, N)
    rng = substream(seed, Stream.PERCOLATION_GOOD_LEVEL)
    notes = []
    if not side_condition_ok(theta, h):
        notes.append("side condition fails: analytic bound shape not applicable")
    width = level_size(N, levels)
    good = np.empty(n_samples, dtype=float)
    done = 0
    for m, (frontier,) in _strip_frontiers(N, levels, B.mask, [theta], n_samples, rng):
        # the count / width >= 1 - h of is_h_good, in the same double arithmetic
        good[done : done + m] = frontier.sum(axis=1) / width >= 1.0 - h
        done += m
    return estimate_from_samples(good, tuple(notes))


@dataclass(frozen=True)
class ContourReport:
    N: int
    theta: float
    h: float
    K: int
    short_sum: float
    long_term: float
    side_ok: bool
    series_ratio: float  # 3 sqrt(1-theta), < 1 in the admissible regime
    decrease_threshold: int | None  # long_term falls monotonically from here on


# k 3^k is a finite double up to this k
_SHORT_DIRECT_TOP = 640


def contour_bounds(N: int, theta: float, h: float, K: int) -> ContourReport:
    """Numeric shape of the two contour-count bounds.

    short_sum = (1-theta) + sum_{k=2}^{floor(hN)} k 3^k (1-theta)^{k/2}
    counts the short separating contours; long_term =
    N^2 exp((1-h)N ln3 - (hN/2) ln(1/(1-theta))) the long ones (unit
    leading constant, reported as a shape).  Needs theta > 8/9 so that
    3 sqrt(1-theta) < 1 makes the series summable.
    """
    if not (0.0 < h < 1.0):
        raise ValueError("h must lie in (0, 1)")
    if not (8.0 / 9.0 < theta <= 1.0):
        raise ValueError("contour bounds need theta > 8/9")
    _check_strip(N, K * N)
    one = 1.0 - theta
    short = one
    top = math.floor(h * N)
    for k in range(2, min(top, _SHORT_DIRECT_TOP) + 1):
        short += k * 3.0**k * one ** (k / 2.0)
    if one > 0.0:  # the later terms k (3 sqrt(1-theta))^k in log space; zero at theta = 1
        log_ratio = math.log(3.0) + 0.5 * math.log(one)
        for k in range(_SHORT_DIRECT_TOP + 1, top + 1):
            short += math.exp(math.log(k) + k * log_ratio)
    if one == 0.0:
        long_term = 0.0
        alpha = math.inf
    else:
        alpha = 0.5 * h * math.log(1.0 / one) - (1.0 - h) * math.log(3.0)
        try:
            long_term = N * N * math.exp(-alpha * N)
        except OverflowError:  # alpha < 0: a vacuous bound, which side_ok flags
            long_term = math.inf
    ok = side_condition_ok(theta, h)
    # N^2 e^{-aN} decreases once 2 ln(1+1/N) < a, guaranteed by N > 2/a
    thr = None
    if alpha > 0.0:
        thr = 1 if math.isinf(alpha) else max(1, math.ceil(2.0 / alpha))
    return ContourReport(N, theta, h, K, short, long_term, ok, 3.0 * math.sqrt(one), thr)
