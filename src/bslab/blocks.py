"""Stick and block events measured on graphical-construction realizations.

A stick is one vertex's time window; it is A-good when every ring on it
proposed a zero for every vertex of A.  Goodness of different sticks is
independent because each stick owns its own marked clock.  Two-block and
four-block niceness bundle goodness conditions with ring-count (and, for
four-blocks, ring-order) conditions so that a zero entering the block at
the bottom is guaranteed to sit at prescribed sites at the top.  The
tiling of a chain by overlapping two-blocks, and the sparser four-block
grid, both induce oriented-percolation bond fields on the strip.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import block2_nice_lb, stick_good_lb, theta_4block
from .dynamics import (
    GraphicalConstruction,
    ModelParams,
    replay,
    sample_graphical_batch,
)
from .graphs import Graph, closed_neighbourhood
from .montecarlo import Estimate, estimate_from_samples
from .percolation import StripField, level_size
from .rng import substream

__all__ = [
    "Stick",
    "Block2",
    "Block4",
    "BlockGrid",
    "BlockStats",
    "PropagationResult",
    "IndependenceReport",
    "ring_count",
    "stick_is_good",
    "required_goods_pair",
    "required_goods_quad",
    "blocks_separated",
    "block2_is_nice",
    "block2_proposition_check",
    "block4_is_nice",
    "block4_ring_pattern_sufficient",
    "block4_propagation_check",
    "block4_independence_check",
    "sample_stick_stats",
    "sample_block2_stats",
    "sample_block4_stats",
    "chain_to_percolation",
    "block_stats_rows",
]

_EPS = 1e-9


@dataclass(frozen=True)
class Stick:
    """One vertex's window ((level-1)L, level L]."""

    base: int
    level: int
    L: float

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError("stick level starts at 1")
        if self.L <= 0:
            raise ValueError("window length must be positive")

    @property
    def window(self) -> tuple[float, float]:
        return ((self.level - 1) * self.L, self.level * self.L)


@dataclass(frozen=True)
class Block2:
    """An adjacent pair sharing the window ((level-1)L, level L]."""

    x: int
    y: int
    level: int
    L: float

    def __post_init__(self) -> None:
        if self.x == self.y:
            raise ValueError("block pair must be two distinct vertices")
        if self.level < 1:
            raise ValueError("block level starts at 1")
        if self.L <= 0:
            raise ValueError("window length must be positive")

    @property
    def window(self) -> tuple[float, float]:
        return ((self.level - 1) * self.L, self.level * self.L)


@dataclass(frozen=True)
class Block4:
    """Four consecutive chain sites over the window (t, t+L].

    The chain is assumed valid (see is_chain); only the local shape is
    re-checked where it matters.
    """

    chain: tuple[int, ...]
    k0: int
    t: float
    L: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "chain", tuple(int(v) for v in self.chain))
        if not (0 <= self.k0 <= len(self.chain) - 4):
            raise ValueError("need four chain sites from k0")
        if self.t < 0 or self.L <= 0:
            raise ValueError("need t >= 0 and a positive window length")

    @property
    def sites(self) -> tuple[int, int, int, int]:
        return self.chain[self.k0 : self.k0 + 4]

    @property
    def window(self) -> tuple[float, float]:
        return (self.t, self.t + self.L)


def _check_window(gc: GraphicalConstruction, t0: float, t1: float) -> None:
    if t0 < -_EPS or t1 > gc.horizon + _EPS:
        raise ValueError("block window extends past the construction horizon")


def _window_rows(gc: GraphicalConstruction, x: int, t0: float, t1: float) -> tuple[int, int]:
    ts = gc.times[x]
    lo = int(np.searchsorted(ts, t0, side="right"))
    hi = int(np.searchsorted(ts, t1, side="right"))
    return lo, hi


def ring_count(gc: GraphicalConstruction, x: int, window: tuple[float, float]) -> int:
    lo, hi = _window_rows(gc, x, window[0], window[1])
    return hi - lo


def _good_in_window(g: Graph, gc: GraphicalConstruction, base: int, A, t0: float, t1: float) -> bool:
    nbhd = closed_neighbourhood(g, base)
    cols = []
    for a in sorted(set(int(v) for v in A)):
        try:
            cols.append(nbhd.index(a))
        except ValueError:
            raise ValueError(f"vertex {a} is outside the closed neighbourhood of {base}") from None
    lo, hi = _window_rows(gc, base, t0, t1)
    if lo == hi or not cols:
        return True
    return not gc.marks[base][lo:hi][:, cols].any()


def stick_is_good(g: Graph, gc: GraphicalConstruction, stick: Stick, A) -> bool:
    """True iff every ring on the stick proposed 0 for every vertex of A.

    A must sit inside the closed neighbourhood of the base (marks exist
    only there).  No rings in the window means good.
    """
    t0, t1 = stick.window
    _check_window(gc, t0, t1)
    return _good_in_window(g, gc, stick.base, A, t0, t1)


def required_goods_pair(g: Graph, x: int, y: int) -> dict[int, frozenset[int]]:
    """Stick goodness demands whose conjunction makes {x, y} pair nice.

    Both pair sticks must be {x,y}-good; the stick of every neighbour v
    of x must be {x}-good and of every neighbour w of y {y}-good, which
    makes common neighbours {x,y}-good via the union.
    """
    req: dict[int, set[int]] = {x: {x, y}, y: {x, y}}
    for v in g.adjacency[x]:
        req.setdefault(v, set()).add(x)
    for w in g.adjacency[y]:
        req.setdefault(w, set()).add(y)
    return {v: frozenset(a) for v, a in req.items()}


def required_goods_quad(g: Graph, sites: tuple[int, int, int, int]) -> dict[int, frozenset[int]]:
    """Stick goodness demands for a four-site block a-b-c-e.

    The four block sticks carry the explicit sets {a,b}, {a,b,c},
    {b,c,e}, {c,e}; on top of that, every stick whose base is adjacent
    to some block site must be good for exactly the block sites it is
    adjacent to.  The second rule is applied to block sites as well,
    which matters when the chain has a gap-two chord.
    """
    a, b, c, e = sites
    req: dict[int, set[int]] = {
        a: {a, b},
        b: {a, b, c},
        c: {b, c, e},
        e: {c, e},
    }
    for v in sites:
        for w in g.adjacency[v]:
            req.setdefault(w, set()).add(v)
    return {w: frozenset(A) for w, A in req.items()}


def blocks_separated(g: Graph, first: Block2, second: Block2) -> bool:
    """Disjoint neighbourhood unions, the exact independence condition."""
    left = set(g.adjacency[first.x]) | set(g.adjacency[first.y])
    right = set(g.adjacency[second.x]) | set(g.adjacency[second.y])
    return not (left & right)


def _require_adjacent(g: Graph, x: int, y: int) -> None:
    if y not in g.adjacency[x]:
        raise ValueError(f"block pair {x},{y} is not an edge")


def block2_is_nice(g: Graph, gc: GraphicalConstruction, block: Block2) -> bool:
    """Ring at least once on both pair sticks, plus all goodness demands."""
    _require_adjacent(g, block.x, block.y)
    t0, t1 = block.window
    _check_window(gc, t0, t1)
    if ring_count(gc, block.x, (t0, t1)) == 0 or ring_count(gc, block.y, (t0, t1)) == 0:
        return False
    for v, A in required_goods_pair(g, block.x, block.y).items():
        if not _good_in_window(g, gc, v, A, t0, t1):
            return False
    return True


@dataclass(frozen=True)
class PropagationResult:
    """Outcome of a nice-block zero-propagation assertion.

    applicable is False when the block is not nice or no zero sits at a
    watched bottom site; passed is None in that vacuous case.
    """

    nice: bool
    applicable: bool
    passed: bool | None
    bottom: tuple[int, ...]
    top: tuple[int, ...] | None


def _propagation(
    g: Graph,
    gc: GraphicalConstruction,
    window: tuple[float, float],
    watched: tuple[int, ...],
    nice: bool,
    config_bottom: np.ndarray,
) -> PropagationResult:
    cb = np.asarray(config_bottom, dtype=np.uint8)
    if cb.shape != (g.num_vertices,):
        raise ValueError("bottom configuration size does not match graph")
    bottom = tuple(int(cb[v]) for v in watched)
    applicable = nice and any(b == 0 for b in bottom)
    if not applicable:
        return PropagationResult(nice, False, None, bottom, None)
    res = replay(g, cb, gc, collect_log=False, window=window)
    top = tuple(int(res.final[v]) for v in watched)
    return PropagationResult(nice, True, all(b == 0 for b in top), bottom, top)


def block2_proposition_check(
    g: Graph,
    gc: GraphicalConstruction,
    block: Block2,
    config_bottom: np.ndarray,
) -> PropagationResult:
    """Nice block with a bottom zero at x or y must end with both zero."""
    nice = block2_is_nice(g, gc, block)
    return _propagation(g, gc, block.window, (block.x, block.y), nice, config_bottom)


def _has_increasing_rings(rows, t0: float, t1: float) -> bool:
    """Greedy search for one ring per sorted time row, in row order, at
    strictly increasing times inside (t0, t1]."""
    t = t0
    for ts in rows:
        i = int(np.searchsorted(ts, t, side="right"))
        if i >= len(ts) or ts[i] > t1:
            return False
        t = float(ts[i])
    return True


def block4_is_nice(g: Graph, gc: GraphicalConstruction, block: Block4) -> bool:
    """All seven four-block conditions on one realization.

    Every block stick rings at least once; the four explicit goodness
    sets plus the adjacency-derived ones all hold; and rings occur in
    increasing order along a->b->c and along e->c->b.
    """
    a, b, c, e = block.sites
    for u, v in ((a, b), (b, c), (c, e)):
        _require_adjacent(g, u, v)
    t0, t1 = block.window
    _check_window(gc, t0, t1)
    for v in block.sites:
        if ring_count(gc, v, (t0, t1)) == 0:
            return False
    for order in ((a, b, c), (e, c, b)):
        if not _has_increasing_rings([gc.times[v] for v in order], t0, t1):
            return False
    for w, A in required_goods_quad(g, block.sites).items():
        if not _good_in_window(g, gc, w, A, t0, t1):
            return False
    return True


def block4_ring_pattern_sufficient(gc: GraphicalConstruction, block: Block4) -> bool:
    """Third-of-window ring pattern that forces the ring-order conditions.

    Extremes ring in the first third, middles in both the second and the
    last third.  Together with the goodness conditions this implies the
    block is nice.
    """
    a, b, c, e = block.sites
    t0 = block.t
    third = block.L / 3.0
    cuts = (t0, t0 + third, t0 + 2 * third, t0 + 3 * third)
    def rings_in(v: int, lo: float, hi: float) -> bool:
        return ring_count(gc, v, (lo, hi)) >= 1
    return (
        rings_in(a, cuts[0], cuts[1])
        and rings_in(e, cuts[0], cuts[1])
        and rings_in(b, cuts[1], cuts[2])
        and rings_in(b, cuts[2], cuts[3])
        and rings_in(c, cuts[1], cuts[2])
        and rings_in(c, cuts[2], cuts[3])
    )


def block4_propagation_check(
    g: Graph,
    gc: GraphicalConstruction,
    block: Block4,
    config_bottom: np.ndarray,
) -> PropagationResult:
    """Nice block with a zero at an extreme must end with both extremes zero."""
    nice = block4_is_nice(g, gc, block)
    a, _, _, e = block.sites
    return _propagation(g, gc, block.window, (a, e), nice, config_bottom)


# ---------------------------------------------------------------------------
# direct samplers for stick and block statistics
#
# Ring counts are Poisson(L) per stick and the number of one-marks among
# k rings on an |A|-column union is Binomial(k|A|, p), so goodness can be
# sampled without materialising times or mark rows.  Ring times are only
# needed for the four-block ordering conditions and are drawn lazily,
# conditionally on the counts, for the samples that survive the count
# and goodness filters (times and marks are independent given counts).

@dataclass(frozen=True)
class BlockStats:
    flavor: str
    p: float
    d: int
    L: float
    n_samples: int
    estimate: Estimate
    analytic_lb: float

    @property
    def nice_rate(self) -> float:
        return self.estimate.mean

    @property
    def stderr(self) -> float:
        return self.estimate.stderr


_SAMPLE_CHUNK = 1 << 16


def _direct_stats(
    flavor: str,
    g: Graph,
    params: ModelParams,
    sizes: list[int],
    ring_idx: tuple[int, ...],
    L: float,
    n_samples: int,
    seed: int,
    analytic_lb: float,
    orders: tuple[tuple[int, ...], ...] = (),
) -> BlockStats:
    """Sample niceness directly from ring counts and mark counts.

    Stick j needs no one-mark on its `sizes[j]` goodness columns, the
    sticks in `ring_idx` must ring, and for each order (positions into
    `ring_idx`) those sticks must ring at increasing times.  Ring times
    are drawn only for samples that pass the count and goodness filters.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = substream(seed, 41)
    sizes_row = np.array(sizes)[None, :]
    values = np.empty(n_samples, dtype=float)
    done = 0
    while done < n_samples:
        m = min(_SAMPLE_CHUNK, n_samples - done)
        ks = rng.poisson(L, size=(m, len(sizes)))
        ok = (ks[:, list(ring_idx)] >= 1).all(axis=1)
        ok &= ~(rng.binomial(ks * sizes_row, params.p) > 0).any(axis=1)
        if orders:
            for s in np.nonzero(ok)[0]:
                times = [np.sort(L * (1.0 - rng.random(int(ks[s, j])))) for j in ring_idx]
                ok[s] = all(_has_increasing_rings([times[i] for i in o], 0.0, L) for o in orders)
        values[done : done + m] = ok
        done += m
    return BlockStats(
        flavor=flavor,
        p=params.p,
        d=g.max_degree,
        L=float(L),
        n_samples=n_samples,
        estimate=estimate_from_samples(values),
        analytic_lb=analytic_lb,
    )


def sample_stick_stats(
    g: Graph,
    params: ModelParams,
    base: int,
    A,
    L: float,
    n_samples: int,
    seed: int,
) -> BlockStats:
    """Frequency of A-goodness for one stick, against the closed form."""
    nbhd = set(closed_neighbourhood(g, base))
    aset = set(int(v) for v in A)
    if not aset <= nbhd:
        raise ValueError("A must sit inside the closed neighbourhood of the base")
    lb = stick_good_lb(L, params.q, len(aset))
    return _direct_stats("stick", g, params, [len(aset)], (), L, n_samples, seed, lb)


def sample_block2_stats(
    g: Graph,
    params: ModelParams,
    x: int,
    y: int,
    L: float,
    n_samples: int,
    seed: int,
) -> BlockStats:
    """Nice-rate of the pair block {x, y}, against the analytic bound."""
    _require_adjacent(g, x, y)
    req = required_goods_pair(g, x, y)
    sticks = sorted(req)
    ring_idx = (sticks.index(x), sticks.index(y))
    lb = block2_nice_lb(L, params.p, g.max_degree)
    return _direct_stats(
        "two", g, params, [len(req[v]) for v in sticks], ring_idx, L, n_samples, seed, lb
    )


def sample_block4_stats(
    g: Graph,
    params: ModelParams,
    chain,
    k0: int,
    L: float,
    n_samples: int,
    seed: int,
) -> BlockStats:
    """Nice-rate of a four-block, against the analytic bound."""
    sites = Block4(tuple(chain), k0, 0.0, L).sites
    for u, v in ((sites[0], sites[1]), (sites[1], sites[2]), (sites[2], sites[3])):
        _require_adjacent(g, u, v)
    req = required_goods_quad(g, sites)
    sticks = sorted(req)
    ring_idx = tuple(sticks.index(v) for v in sites)
    lb = theta_4block(L, params.p, g.max_degree)
    # ring order a->b->c and e->c->b, as positions into the four sites
    orders = ((0, 1, 2), (3, 2, 1))
    return _direct_stats(
        "four", g, params, [len(req[v]) for v in sticks], ring_idx, L, n_samples, seed, lb, orders
    )


_INDEPENDENCE_PAIRS = ("same_level", "adjacent_level", "self")


@dataclass(frozen=True)
class IndependenceReport:
    pair: str
    n_samples: int
    rate_a: float
    rate_b: float
    corr: float
    threshold: float
    within: bool
    notes: tuple[str, ...] = ()


def block4_independence_check(
    g: Graph,
    chain,
    params: ModelParams,
    L: float,
    n_samples: int,
    seed: int,
    pair: str = "same_level",
) -> IndependenceReport:
    """Empirical correlation of niceness for two grid cells.

    same_level takes the cells over chain positions 0..3 and 8..11 in
    one window; adjacent_level the cell over 0..3 followed by the one
    over 4..7 in the next window; self compares a cell with itself as a
    positive control (correlation one).
    """
    chain = tuple(int(v) for v in chain)
    if pair not in _INDEPENDENCE_PAIRS:
        raise ValueError(f"pair must be one of {_INDEPENDENCE_PAIRS}")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if pair == "same_level":
        cells = ((0, 0.0), (8, 0.0))
        horizon = L
    elif pair == "adjacent_level":
        cells = ((0, 0.0), (4, L))
        horizon = 2.0 * L
    else:
        cells = ((0, 0.0), (0, 0.0))
        horizon = L
    need = max(k0 for k0, _ in cells) + 4
    if len(chain) < need:
        raise ValueError(f"chain too short: the {pair} pair needs {need} sites")
    blocks = tuple(Block4(chain, k0, t, L) for k0, t in cells)
    dep: set[int] = set()
    for blk in blocks:
        for v in blk.sites:
            dep.update(closed_neighbourhood(g, v))
    ind = np.empty((n_samples, 2), dtype=bool)
    stream = sample_graphical_batch(g, params, horizon, n_samples, seed, vertices=sorted(dep))
    for i, gc in enumerate(stream):
        ind[i, 0] = block4_is_nice(g, gc, blocks[0])
        ind[i, 1] = block4_is_nice(g, gc, blocks[1])
    va = ind[:, 0].astype(float)
    vb = ind[:, 1].astype(float)
    notes: list[str] = []
    if va.var() == 0.0 or vb.var() == 0.0:
        corr = 0.0
        notes.append("degenerate indicator, correlation set to zero")
    else:
        corr = float(np.corrcoef(va, vb)[0, 1])
    threshold = 4.0 / math.sqrt(n_samples)
    within = abs(corr) <= threshold if pair != "self" else corr >= 1.0 - _EPS
    return IndependenceReport(
        pair=pair,
        n_samples=n_samples,
        rate_a=float(va.mean()),
        rate_b=float(vb.mean()),
        corr=corr,
        threshold=threshold,
        within=within,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class BlockGrid:
    """Staggered two-site tiling of a chain.

    Level n covers chain positions {2k, 2k+1} when n is even and
    {2k-1, 2k} when n is odd, over the time window (nL, (n+1)L].  Each
    block shares one position with each of its two descendants.
    """

    chain: tuple[int, ...]
    L: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "chain", tuple(int(v) for v in self.chain))
        if len(self.chain) < 2:
            raise ValueError("grid needs a chain of at least two sites")
        if self.L <= 0:
            raise ValueError("window length must be positive")

    def positions(self, k: int, n: int) -> tuple[int, int]:
        if n % 2 == 0:
            return (2 * k, 2 * k + 1)
        return (2 * k - 1, 2 * k)

    def in_range(self, k: int, n: int) -> bool:
        lo, hi = self.positions(k, n)
        return 0 <= lo and hi <= len(self.chain) - 1

    def k_range(self, n: int) -> range:
        m = len(self.chain)
        if n % 2 == 0:
            return range(0, (m - 2) // 2 + 1)
        return range(1, (m - 1) // 2 + 1)

    def block(self, k: int, n: int) -> Block2:
        if not self.in_range(k, n):
            raise ValueError(f"block ({k},{n}) leaves the chain")
        lo, hi = self.positions(k, n)
        return Block2(self.chain[lo], self.chain[hi], n + 1, self.L)

    def descendants(self, k: int, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
        if n % 2 == 0:
            return ((k, n + 1), (k + 1, n + 1))
        return ((k - 1, n + 1), (k, n + 1))

    def neighbours(self, k: int, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((k - 1, n), (k + 1, n))


_FLAVORS = ("two_block", "four_block")


def chain_to_percolation(
    g: Graph,
    chain,
    gc: GraphicalConstruction,
    L: float,
    flavor: str = "two_block",
) -> StripField:
    """Bond field on the strip induced by block niceness along a chain.

    A bond is open iff its target block (two_block: the descendant pair
    block; four_block: the destination grid cell) is nice on this
    realization.  Bonds whose target leaves the chain stay closed, which
    also covers the strip's clipped wall bonds.
    """
    chain = tuple(int(v) for v in chain)
    if flavor not in _FLAVORS:
        raise ValueError(f"flavor must be one of {_FLAVORS}")
    levels = int(math.floor(gc.horizon / L + _EPS)) - 1
    if levels < 1:
        raise ValueError("horizon too short: need at least two block windows")
    memo: dict[tuple[int, int], bool] = {}
    if flavor == "two_block":
        N = (len(chain) - 2) // 2
        if N < 1:
            raise ValueError("chain too short for a two-site block strip")
        grid = BlockGrid(chain, L)
        def target_nice(k: int, n: int) -> bool:
            key = (k, n)
            if key not in memo:
                memo[key] = block2_is_nice(g, gc, grid.block(k, n))
            return memo[key]
        bl, br = [], []
        for n in range(levels):
            w = level_size(N, n)
            left = np.zeros(w, dtype=bool)
            right = np.zeros(w, dtype=bool)
            if n % 2 == 0:
                for i in range(1, w):
                    left[i] = target_nice(i, n + 1)
                for i in range(w - 1):
                    right[i] = target_nice(i + 1, n + 1)
            else:
                for i in range(w):
                    left[i] = target_nice(i, n + 1)
                    right[i] = target_nice(i + 1, n + 1)
            bl.append(left)
            br.append(right)
        return StripField(N, levels, tuple(bl), tuple(br), None)
    kmax = (len(chain) - 4) // 4
    N = kmax // 2
    if N < 1:
        raise ValueError("chain too short for a four-site block strip")
    def cell_nice(kc: int, j: int) -> bool:
        key = (kc, j)
        if key not in memo:
            memo[key] = block4_is_nice(g, gc, Block4(chain, 4 * kc, j * L, L))
        return memo[key]
    bl, br = [], []
    for n in range(levels):
        w = level_size(N, n)
        left = np.zeros(w, dtype=bool)
        right = np.zeros(w, dtype=bool)
        for i in range(w):
            m = 2 * i + (n % 2)
            if m - 1 >= 0:
                left[i] = cell_nice(m - 1, n + 1)
            if m + 1 <= 2 * N:
                right[i] = cell_nice(m + 1, n + 1)
        bl.append(left)
        br.append(right)
    return StripField(N, levels, tuple(bl), tuple(br), None)


def block_stats_rows(stats) -> list[str]:
    """CSV lines for a collection of BlockStats."""
    rows = ["flavor,p,d,L,blocks_sampled,nice_rate,stderr,analytic_lb"]
    for st in stats:
        rows.append(
            f"{st.flavor},{st.p!r},{st.d},{st.L!r},{st.n_samples},"
            f"{st.nice_rate!r},{st.stderr!r},{st.analytic_lb!r}"
        )
    return rows
