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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import block2_nice_lb, stick_good_lb, theta_4block
from .dynamics import GraphicalConstruction, ModelParams, _graphical_chunks, replay
from .graphs import Graph, closed_neighbourhood
from .montecarlo import Estimate, estimate_from_samples
from .percolation import StripField, sites_at_level
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
    return int(ts.searchsorted(t0, side="right")), int(ts.searchsorted(t1, side="right"))


def ring_count(gc: GraphicalConstruction, x: int, window: tuple[float, float]) -> int:
    lo, hi = _window_rows(gc, x, window[0], window[1])
    return hi - lo


def _mark_columns(g: Graph, base: int, A) -> tuple[int, ...]:
    """Columns of base's mark rows that propose for the vertices of A, sorted."""
    nbhd = closed_neighbourhood(g, base)
    cols = []
    for a in sorted(set(int(v) for v in A)):
        try:
            cols.append(nbhd.index(a))
        except ValueError:
            raise ValueError(f"vertex {a} is outside the closed neighbourhood of {base}") from None
    return tuple(cols)


def _good_rows(gc: GraphicalConstruction, base: int, cols: tuple[int, ...], lo: int, hi: int) -> bool:
    """No one proposed in the given columns of base's mark rows lo..hi-1."""
    return not gc.marks[base][lo:hi, cols].any()


def stick_is_good(g: Graph, gc: GraphicalConstruction, stick: Stick, A) -> bool:
    """True iff every ring on the stick proposed 0 for every vertex of A.

    A must sit inside the closed neighbourhood of the base (marks exist
    only there).  No rings in the window means good.
    """
    t0, t1 = stick.window
    _check_window(gc, t0, t1)
    cols = _mark_columns(g, stick.base, A)
    return _good_rows(gc, stick.base, cols, *_window_rows(gc, stick.base, t0, t1))


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


def _require_adjacent(g: Graph, sites) -> None:
    for x, y in zip(sites, sites[1:]):
        if y not in g.adjacency[x]:
            raise ValueError(f"block pair {x},{y} is not an edge")


# ring order a->b->c and e->c->b, as positions into the four block sites
_ORDERS4 = ((0, 1, 2), (3, 2, 1))


@dataclass(frozen=True)
class _NiceSpec:
    """A block's requirement (sites, req, orders), with each stick's set
    req[v] resolved to mark columns: goods holds (v, columns) in req order."""

    sites: tuple[int, ...]
    goods: tuple[tuple[int, tuple[int, ...]], ...]
    orders: tuple[tuple[int, ...], ...]


@functools.lru_cache
def _nice_spec(g: Graph, sites: tuple[int, ...]) -> _NiceSpec:
    """The spec of the pair block (two sites) or the four-block (four).

    A spec depends only on the graph and the block's sites, and
    chain_to_percolation and the propagation checks ask for the same few
    blocks again and again."""
    _require_adjacent(g, sites)
    if len(sites) == 2:
        req, orders = required_goods_pair(g, *sites), ()
    else:
        req, orders = required_goods_quad(g, sites), _ORDERS4
    goods = tuple((v, _mark_columns(g, v, A)) for v, A in req.items())
    return _NiceSpec(sites, goods, orders)


def _is_nice(gc: GraphicalConstruction, spec: _NiceSpec, window) -> bool:
    """Every site's stick rings, each order of sites rings at increasing
    times, and every stick v is req[v]-good, all inside the window."""
    t0, t1 = window
    _check_window(gc, t0, t1)
    cuts = {}
    for v in spec.sites:
        lo, hi = cuts[v] = _window_rows(gc, v, t0, t1)
        if lo == hi:
            return False
    for o in spec.orders:
        if not _has_increasing_rings([gc.times[spec.sites[i]] for i in o], t0, t1):
            return False
    for v, cols in spec.goods:
        lo, hi = cuts[v] if v in cuts else _window_rows(gc, v, t0, t1)
        if not _good_rows(gc, v, cols, lo, hi):
            return False
    return True


def block2_is_nice(g: Graph, gc: GraphicalConstruction, block: Block2) -> bool:
    """Ring at least once on both pair sticks, plus all goodness demands."""
    return _is_nice(gc, _nice_spec(g, (block.x, block.y)), block.window)


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
        i = int(ts.searchsorted(t, side="right"))
        if i >= len(ts) or ts[i] > t1:
            return False
        t = float(ts[i])
    return True


def _rings_in_order(rows, t0: float, t1: float) -> np.ndarray:
    """_has_increasing_rings for m samples at once: rows[i] is an (m, k_i)
    array of ring times padded with inf; the greedy step takes each
    sample's earliest ring after its current time."""
    t = np.full(len(rows[0]), float(t0))
    for ts in rows:
        t = np.where(ts > t[:, None], ts, np.inf).min(axis=1, initial=np.inf)
    return t <= t1


def block4_is_nice(g: Graph, gc: GraphicalConstruction, block: Block4) -> bool:
    """All seven four-block conditions on one realization.

    Every block stick rings at least once; the four explicit goodness
    sets plus the adjacency-derived ones all hold; and rings occur in
    increasing order along a->b->c and along e->c->b.
    """
    return _is_nice(gc, _nice_spec(g, block.sites), block.window)


def _chunk_is_nice(chunk, col: dict[int, int], spec: _NiceSpec, window) -> np.ndarray:
    """_is_nice for every sample of one chunk of dynamics._graphical_chunks,
    whose column for vertex v is col[v]."""
    counts, times, marks = chunk
    t0, t1 = window
    sites = spec.sites
    inside = (times > t0) & (times <= t1)
    ok = inside[:, [col[v] for v in sites]].any(axis=2).all(axis=1)
    for o in spec.orders:
        ok &= _rings_in_order([times[:, col[sites[i]]] for i in o], t0, t1)
    sample = np.arange(len(counts))
    for v, cols in spec.goods:
        j = col[v]
        bad = marks[j][:, cols].any(axis=1)
        bad &= inside[:, j][times[:, j] < np.inf]
        ok &= np.bincount(np.repeat(sample, counts[:, j])[bad], minlength=len(counts)) == 0
    return ok


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
    sites: tuple[int, ...],
    req: dict[int, frozenset[int]],
    orders: tuple[tuple[int, ...], ...],
    L: float,
    n_samples: int,
    seed: int,
    analytic_lb: float,
) -> BlockStats:
    """Sample niceness of the spec (sites, req, orders) of _is_nice directly
    from ring counts and mark counts, one column per stick of req in
    sorted order.  Ring times of the sites' sticks are drawn only for
    samples that pass the count and goodness filters, in (sample, site)
    order, one uniform per ring.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = substream(seed, 41)
    sticks = sorted(req)
    sizes_row = np.array([len(req[v]) for v in sticks])[None, :]
    ring_idx = [sticks.index(v) for v in sites]
    values = np.empty(n_samples, dtype=float)
    done = 0
    while done < n_samples:
        m = min(_SAMPLE_CHUNK, n_samples - done)
        ks = rng.poisson(L, size=(m, len(sticks)))
        ok = (ks[:, ring_idx] >= 1).all(axis=1)
        ok &= ~(rng.binomial(ks * sizes_row, params.p) > 0).any(axis=1)
        if orders:
            counts = ks[ok][:, ring_idx]
            kmax = int(counts.max(initial=0))
            times = np.full(counts.shape + (kmax,), np.inf)
            times[np.arange(kmax) < counts[:, :, None]] = L * (1.0 - rng.random(int(counts.sum())))
            times.sort(axis=2)
            in_order = [_rings_in_order([times[:, i] for i in o], 0.0, L) for o in orders]
            ok[ok] = np.logical_and.reduce(in_order)
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
    aset = frozenset(int(v) for v in A)
    if not aset <= nbhd:
        raise ValueError("A must sit inside the closed neighbourhood of the base")
    lb = stick_good_lb(L, params.q, len(aset))
    return _direct_stats("stick", g, params, (), {base: aset}, (), L, n_samples, seed, lb)


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
    _require_adjacent(g, (x, y))
    lb = block2_nice_lb(L, params.p, g.max_degree)
    req = required_goods_pair(g, x, y)
    return _direct_stats("two", g, params, (x, y), req, (), L, n_samples, seed, lb)


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
    _require_adjacent(g, sites)
    req = required_goods_quad(g, sites)
    lb = theta_4block(L, params.p, g.max_degree)
    return _direct_stats("four", g, params, sites, req, _ORDERS4, L, n_samples, seed, lb)


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
        cells = ((0, 0.0),)  # the one column serves as both indicators
        horizon = L
    need = max(k0 for k0, _ in cells) + 4
    if len(chain) < need:
        raise ValueError(f"chain too short: the {pair} pair needs {need} sites")
    blocks = tuple(Block4(chain, k0, t, L) for k0, t in cells)
    specs = [(_nice_spec(g, blk.sites), blk.window) for blk in blocks]
    wanted = sorted({u for blk in blocks for v in blk.sites for u in closed_neighbourhood(g, v)})
    col = {v: j for j, v in enumerate(wanted)}
    ind = np.concatenate([
        np.stack([_chunk_is_nice(chunk, col, *spec) for spec in specs], axis=1)
        for chunk in _graphical_chunks(g, params, horizon, n_samples, seed, wanted)
    ])
    va = ind[:, 0].astype(float)
    vb = ind[:, -1].astype(float)
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

    def block(self, k: int, n: int) -> Block2:
        lo, hi = self.positions(k, n)
        if lo < 0 or hi > len(self.chain) - 1:
            raise ValueError(f"block ({k},{n}) leaves the chain")
        return Block2(self.chain[lo], self.chain[hi], n + 1, self.L)


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
    if flavor == "two_block":
        N = (len(chain) - 2) // 2
        if N < 1:
            raise ValueError("chain too short for a two-site block strip")
        grid = BlockGrid(chain, L)

        @functools.cache
        def nice(m: int, level: int) -> bool:
            return block2_is_nice(g, gc, grid.block((m + 1) // 2, level))
    else:
        N = (len(chain) - 4) // 8
        if N < 1:
            raise ValueError("chain too short for a four-site block strip")

        @functools.cache
        def nice(m: int, level: int) -> bool:
            return block4_is_nice(g, gc, Block4(chain, 4 * m, level * L, L))
    bl, br = [], []
    for n in range(levels):
        ms = sites_at_level(N, n)
        bl.append(np.array([m >= 1 and nice(m - 1, n + 1) for m in ms], dtype=bool))
        br.append(np.array([m < 2 * N and nice(m + 1, n + 1) for m in ms], dtype=bool))
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
