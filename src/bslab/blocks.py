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
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .bounds import block2_nice_lb, stick_good_lb, theta_4block
from .dynamics import (
    GraphicalConstruction,
    ModelParams,
    _check_configuration,
    _graphical_chunks,
    replay,
    sample_graphical_batch,
)
from .graphs import Graph, closed_neighbourhood
from .montecarlo import Estimate, estimate_from_samples
from .percolation import LevelSet, StripField, evolve, sites_at_level
from .rng import Stream, substream

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
    "required_goods",
    "blocks_separated",
    "block2_is_nice",
    "block2_proposition_check",
    "block4_is_nice",
    "block4_ring_pattern_sufficient",
    "block4_propagation_check",
    "block4_independence_check",
    "nice_probability",
    "INDEPENDENCE_CELLS",
    "independence_chain_sites",
    "sample_stick_stats",
    "sample_block2_stats",
    "sample_block4_stats",
    "chain_to_percolation",
    "CouplingReport",
    "coupling_check",
]

_EPS = 1e-9


def _check_window_length(L: float) -> None:
    if not 0 < L < math.inf:
        raise ValueError("window length must be positive and finite")


@dataclass(frozen=True)
class Stick:
    """One vertex's window ((level-1)L, level L]."""

    base: int
    level: int
    L: float

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError("stick level starts at 1")
        _check_window_length(self.L)

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
        _check_window_length(self.L)

    @property
    def sites(self) -> tuple[int, int]:
        return (self.x, self.y)

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
        _check_window_length(self.L)
        if not 0 <= self.t < math.inf:
            raise ValueError("need a finite t >= 0")

    @property
    def sites(self) -> tuple[int, int, int, int]:
        return self.chain[self.k0 : self.k0 + 4]

    @property
    def window(self) -> tuple[float, float]:
        return (self.t, self.t + self.L)


def _check_window(gc: GraphicalConstruction, t0: float, t1: float) -> None:
    if t0 < -_EPS or t1 > gc.horizon + _EPS:
        raise ValueError("block window extends past the construction horizon")


def ring_count(gc: GraphicalConstruction, x: int, window: tuple[float, float]) -> int:
    """Rings of x in the window (t0, t1]."""
    lo, hi = gc.times[x].searchsorted(window, side="right").tolist()
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


def stick_is_good(g: Graph, gc: GraphicalConstruction, stick: Stick, A) -> bool:
    """True iff every ring on the stick proposed 0 for every vertex of A.

    A must sit inside the closed neighbourhood of the base (marks exist
    only there).  No rings in the window means good.
    """
    return _is_nice(gc, _stick_spec(g, stick.base, A), stick.window)


def required_goods(g: Graph, sites: tuple[int, ...]) -> dict[int, frozenset[int]]:
    """Stick goodness demands of the pair block or four-block on `sites`.

    Each stick w in the closed neighbourhood of a block site must be good
    for the block sites in N[w], so a common neighbour of two sites, or a
    site on a chord, is good for both.  Keys run over the sites first,
    then each site's neighbours in adjacency order.
    """
    block = set(sites)
    sticks = dict.fromkeys([*sites, *(w for v in sites for w in g.adjacency[v])])
    return {w: frozenset(block.intersection(closed_neighbourhood(g, w))) for w in sticks}


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


@functools.cache
def _nice_spec(g: Graph, sites: tuple[int, ...]) -> _NiceSpec:
    """The spec of the pair block (two sites) or the four-block (four).

    A spec depends only on the graph and the block's sites, and
    chain_to_percolation and the propagation checks ask for the same few
    blocks again and again."""
    _require_adjacent(g, sites)
    goods = tuple((v, _mark_columns(g, v, A)) for v, A in required_goods(g, sites).items())
    return _NiceSpec(sites, goods, _ORDERS4 if len(sites) == 4 else ())


def _stick_spec(g: Graph, base: int, A) -> _NiceSpec:
    """The spec of one stick that must be A-good: no sites, no orders."""
    return _NiceSpec((), ((base, _mark_columns(g, base, A)),), ())


def _is_nice(gc: GraphicalConstruction, spec: _NiceSpec, window) -> bool:
    """Every site's stick rings, each order of sites rings at increasing
    times, and every stick v is req[v]-good, all inside the window.

    Ring times are Python lists, cut at the window with bisect_right (the
    rings in (t0, t1]); an order is found greedily, each site taking its
    earliest ring after the previous site's.  A goodness demand scans the
    bytes of the window's mark rows for a one, and then each of its
    columns."""
    t0, t1 = window
    _check_window(gc, t0, t1)
    times = {}
    cuts = {}
    for v in spec.sites:
        ts = times[v] = gc.times[v].tolist()
        lo, hi = cuts[v] = bisect_right(ts, t0), bisect_right(ts, t1)
        if lo == hi:
            return False
    for o in spec.orders:
        t = t0
        for i in o:
            ts = times[spec.sites[i]]
            j = bisect_right(ts, t)
            if j == len(ts) or ts[j] > t1:
                return False
            t = ts[j]
    for v, cols in spec.goods:
        if v in cuts:
            lo, hi = cuts[v]
        else:
            ts = gc.times[v].tolist()
            lo, hi = bisect_right(ts, t0), bisect_right(ts, t1)
        m = gc.marks[v]
        rows = m[lo:hi].tobytes()
        if 1 in rows:  # a one was proposed: is it in one of the columns?
            w = m.shape[1]
            for c in cols:
                if 1 in rows[c::w]:
                    return False
    return True


def _block_is_nice(g: Graph, gc: GraphicalConstruction, block: Block2 | Block4) -> bool:
    """All niceness conditions of a pair block or a four-block on one
    realization: every block stick rings at least once, every goodness
    demand holds, and a four-block's rings occur in increasing order along
    a->b->c and along e->c->b."""
    return _is_nice(gc, _nice_spec(g, block.sites), block.window)


block2_is_nice = block4_is_nice = _block_is_nice


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


def _propagation_check(
    g: Graph,
    gc: GraphicalConstruction,
    block: Block2 | Block4,
    config_bottom: np.ndarray,
) -> PropagationResult:
    """A nice block with a bottom zero at one of its two ends (x, y for a
    pair, a, e for a four-block) must end with both ends zero."""
    cb = _check_configuration(g, config_bottom)
    sites, window = block.sites, block.window
    nice = _is_nice(gc, _nice_spec(g, sites), window)
    a, e = sites[0], sites[-1]
    bottom = (int(cb[a]), int(cb[e]))
    if not (nice and 0 in bottom):
        return PropagationResult(nice, False, None, bottom, None)
    final = replay(g, cb, gc, collect_log=False, window=window).final
    top = (int(final[a]), int(final[e]))
    return PropagationResult(nice, True, top == (0, 0), bottom, top)


block2_proposition_check = block4_propagation_check = _propagation_check


def _rings_in_order(rows, t0: float, t1: float) -> np.ndarray:
    """_is_nice's ring-order greedy for m samples at once: rows[i] is an
    (m, k_i) array of ring times padded with inf, in any order within a
    row; the greedy step takes each sample's earliest ring after its
    current time, a minimum over the row."""
    t = np.full(len(rows[0]), float(t0))
    for ts in rows:
        t = np.where(ts > t[:, None], ts, np.inf).min(axis=1, initial=np.inf)
    return t <= t1


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


def nice_probability(g: Graph, sites, p: float, L: float) -> float:
    """Exact probability that the pair block (two sites) or the four-block
    (four) on `sites` is nice in a window of length L, from its spec.

    A stick v that must be A_v-good has no ring proposing a one on A_v with
    probability exp(-L (1 - q^|A_v|)); given that, its rings are a Poisson
    process of rate q^|A_v|, independently across sticks (Poisson
    thinning).  Each site that no ring order names must ring at least
    once, 1 - exp(-L q^|A_s|), which is all of a pair block's sites.  The
    four-block's orders (_ORDERS4) must each ring through, greedily, within
    the window: entry (start, end) of exp(L G), where G is the generator of
    the orders' joint progress, each site's rings advancing every order
    that waits for that site next.
    """
    sites = tuple(int(v) for v in sites)
    if len(sites) not in (2, 4):
        raise ValueError("a pair block has two sites and a four-block four")
    if not 0.0 < p < 1.0:
        raise ValueError("need 0 < p < 1")
    _check_window_length(L)
    spec = _nice_spec(g, sites)
    rate = {v: (1.0 - p) ** len(cols) for v, cols in spec.goods}
    ordered = {i for o in spec.orders for i in o}
    value = math.exp(-L * sum(1.0 - r for r in rate.values())) * math.prod(
        -math.expm1(-L * rate[v]) for i, v in enumerate(sites) if i not in ordered
    )
    if not spec.orders:
        return value
    from scipy.linalg import expm  # slow to import; only this path needs it

    # progress (sites rung so far) through each order, first state none and
    # last state all
    states = list(itertools.product(*(range(len(o) + 1) for o in spec.orders)))
    index = {state: k for k, state in enumerate(states)}
    gen = np.zeros((len(states), len(states)))
    for state in states:
        for i, v in enumerate(sites):
            nxt = tuple(at + (at < len(o) and o[at] == i) for at, o in zip(state, spec.orders))
            if nxt != state:
                gen[index[state], index[nxt]] += rate[v]
                gen[index[state], index[state]] -= rate[v]
    return value * float(expm(L * gen)[0, -1])


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
    spec: _NiceSpec,
    L: float,
    n_samples: int,
    seed: int,
    analytic_lb: float,
) -> BlockStats:
    """Sample niceness of `spec` directly from ring counts and mark counts,
    one column per stick of spec.goods in sorted vertex order.  Ring times
    of the sites' sticks are drawn only for samples that pass the count
    and goodness filters, in (sample, site) order, one uniform per ring.
    They stay unsorted: the ring-order greedy takes a minimum over each
    row, which no order within the row changes.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    rng = substream(seed, Stream.BLOCK_DIRECT)
    goods = sorted(spec.goods)
    sticks = [v for v, _ in goods]
    sizes_row = np.array([len(cols) for _, cols in goods])[None, :]
    ring_idx = [sticks.index(v) for v in spec.sites]
    values = np.empty(n_samples, dtype=float)
    done = 0
    while done < n_samples:
        m = min(_SAMPLE_CHUNK, n_samples - done)
        ks = rng.poisson(L, size=(m, len(sticks)))
        ok = (ks[:, ring_idx] >= 1).all(axis=1)
        ok &= ~(rng.binomial(ks * sizes_row, params.p) > 0).any(axis=1)
        if spec.orders:
            counts = ks[ok][:, ring_idx]
            kmax = int(counts.max(initial=0))
            # laid out (site, sample, ring), so each site's rows are one
            # contiguous block, and filled through the (sample, site, ring) view
            times = np.full((len(spec.sites), len(counts), kmax), np.inf)
            times.transpose(1, 0, 2)[np.arange(kmax) < counts[:, :, None]] = L * (
                1.0 - rng.random(int(counts.sum()))
            )
            in_order = [_rings_in_order([times[i] for i in o], 0.0, L) for o in spec.orders]
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
    _check_window_length(L)
    if not (0 <= base < g.num_vertices):
        raise ValueError("base vertex out of range")
    spec = _stick_spec(g, base, A)
    lb = stick_good_lb(L, params.q, len(spec.goods[0][1]))
    return _direct_stats("stick", g, params, spec, L, n_samples, seed, lb)


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
    _check_window_length(L)
    spec = _nice_spec(g, (x, y))
    lb = block2_nice_lb(L, params.p, g.max_degree)
    return _direct_stats("two", g, params, spec, L, n_samples, seed, lb)


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
    spec = _nice_spec(g, Block4(tuple(chain), k0, 0.0, L).sites)
    lb = theta_4block(L, params.p, g.max_degree)
    return _direct_stats("four", g, params, spec, L, n_samples, seed, lb)


# The four-block grid: strip site m at level k is the four-block over
# chain positions _STRIDE m .. _STRIDE m + 3 in the window (k L, (k + 1) L].
_STRIDE = 4


def _grid_cell(chain: tuple[int, ...], m: int, k: int, L: float) -> Block4:
    return Block4(chain, _STRIDE * m, k * L, L)


# each independence pair's grid cells as (strip site, level): same_level
# takes two cells of one level, adjacent_level a cell and one of its bond
# targets on the next
INDEPENDENCE_CELLS = {
    "same_level": ((0, 0), (2, 0)),
    "adjacent_level": ((0, 0), (1, 1)),
    "self": ((0, 0),),  # the one column serves as both indicators
}


def independence_chain_sites(pair: str) -> int:
    """Chain sites the cells of an independence pair cover."""
    return _STRIDE * max(m for m, _ in INDEPENDENCE_CELLS[pair]) + 4


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

    same_level takes strip sites 0 and 2 of the first level;
    adjacent_level site 0 and its bond target 1 on the next level; self
    compares a cell with itself as a positive control (correlation one).
    """
    chain = tuple(int(v) for v in chain)
    if pair not in INDEPENDENCE_CELLS:
        raise ValueError(f"pair must be one of {tuple(INDEPENDENCE_CELLS)}")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    cells = INDEPENDENCE_CELLS[pair]
    need = independence_chain_sites(pair)
    if len(chain) < need:
        raise ValueError(f"chain too short: the {pair} pair needs {need} sites")
    horizon = (max(k for _, k in cells) + 1) * L
    blocks = tuple(_grid_cell(chain, m, k, L) for m, k in cells)
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
    block shares one position with each of its two descendants.  Block
    ((m + 1) // 2, n) is chain_to_percolation's two_block cell at strip
    site m, the pair at positions (m, m + 1).
    """

    chain: tuple[int, ...]
    L: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "chain", tuple(int(v) for v in self.chain))
        if len(self.chain) < 2:
            raise ValueError("grid needs a chain of at least two sites")
        _check_window_length(self.L)

    def positions(self, k: int, n: int) -> tuple[int, int]:
        if n % 2 == 0:
            return (2 * k, 2 * k + 1)
        return (2 * k - 1, 2 * k)

    def block(self, k: int, n: int) -> Block2:
        lo, hi = self.positions(k, n)
        if lo < 0 or hi > len(self.chain) - 1:
            raise ValueError(f"block ({k},{n}) leaves the chain")
        return Block2(self.chain[lo], self.chain[hi], n + 1, self.L)


# Each flavour's strip cells as (stride, width, cell): strip site m at
# level k is the block cell(chain, m, k, L) over the width chain positions
# from stride m, in the window (k L, (k + 1) L].  A two_block cell is the
# pair at chain positions (m, m + 1).
_STRIP_CELLS = {
    "two_block": (1, 2, lambda chain, m, k, L: Block2(chain[m], chain[m + 1], k + 1, L)),
    "four_block": (_STRIDE, 4, _grid_cell),
}


def chain_to_percolation(
    g: Graph,
    chain,
    gc: GraphicalConstruction,
    L: float,
    flavor: str = "two_block",
) -> StripField:
    """Bond field on the strip induced by block niceness along a chain.

    A bond is open iff its target cell (see _STRIP_CELLS) is nice on this
    realization.  Bonds whose target leaves the chain stay closed, which
    also covers the strip's clipped wall bonds.
    """
    chain = tuple(int(v) for v in chain)
    if flavor not in _STRIP_CELLS:
        raise ValueError(f"flavor must be one of {tuple(_STRIP_CELLS)}")
    _check_window_length(L)
    levels = int(math.floor(gc.horizon / L + _EPS)) - 1
    if levels < 1:
        raise ValueError("horizon too short: need at least two block windows")
    stride, width, cell = _STRIP_CELLS[flavor]
    N = (len(chain) - width) // (2 * stride)
    if N < 1:
        raise ValueError(f"chain too short for a {flavor.removesuffix('_block')}-site block strip")

    @functools.cache
    def nice(m: int, level: int) -> bool:
        return _block_is_nice(g, gc, cell(chain, m, level, L))

    bl, br = [], []
    for n in range(levels):
        ms = sites_at_level(N, n)
        bl.append(np.array([m >= 1 and nice(m - 1, n + 1) for m in ms], dtype=bool))
        br.append(np.array([m < 2 * N and nice(m + 1, n + 1) for m in ms], dtype=bool))
    return StripField(N, levels, tuple(bl), tuple(br), None)


@dataclass(frozen=True)
class CouplingReport:
    """Outcome of coupling_check: `claims` (sample, level, strip site)
    triples were checked, `violations` of them failed, the first failure
    in sample, level, site order is `first_violation`, and `reached_top`
    samples have a strip site reachable at the top level."""

    claims: int
    violations: int
    first_violation: tuple[int, int, int] | None
    reached_top: int


def coupling_check(
    g: Graph,
    chain,
    params: ModelParams,
    L: float,
    levels: int,
    n_samples: int,
    seed: int,
    flavor: str = "two_block",
    config0=None,
) -> CouplingReport:
    """The coupling with oriented percolation, composed on one realization.

    Each sample is one graphical construction on (0, (levels + 1) L],
    replayed from config0 (all zeros by default) with snapshots at L, 2L,
    ..., (levels + 1) L, and mapped to a bond field by
    chain_to_percolation.  The watched ends of strip site m are the first
    and last chain sites of its _STRIP_CELLS cell.  B0 holds the level-0
    sites whose watched ends are both zero at time L.  The claim: for k = 1
    .. levels, every site of evolve(field, B0, k) has both watched ends
    zero at time (k + 1) L, the end of its cell's window.
    """
    if flavor not in _STRIP_CELLS:
        raise ValueError(f"flavor must be one of {tuple(_STRIP_CELLS)}")
    if levels < 1:
        raise ValueError("need at least one level")
    config = np.zeros(g.num_vertices, np.uint8) if config0 is None else _check_configuration(g, config0)
    stride, width, _ = _STRIP_CELLS[flavor]
    snapshot_times = [(k + 1) * L for k in range(levels + 1)]
    claims = violations = reached = 0
    first = None
    for s, gc in enumerate(sample_graphical_batch(g, params, (levels + 1) * L, n_samples, seed)):
        field = chain_to_percolation(g, chain, gc, L, flavor)
        ms = np.arange(2 * field.N + 1)
        ends = np.array(chain)[np.stack([stride * ms, stride * ms + width - 1])]
        snaps = replay(g, config, gc, snapshot_times, collect_log=False).snapshots
        # zero_ends[k][m]: both watched ends of strip site m are zero at (k + 1) L
        zero_ends = [(snap[ends] == 0).all(axis=0) for snap in snaps]
        start = LevelSet(field.N, 0, zero_ends[0][sites_at_level(field.N, 0)])
        for k in range(1, levels + 1):
            sites = evolve(field, start, k).sites
            bad = sites[~zero_ends[k][sites]]
            claims += len(sites)
            violations += len(bad)
            if len(bad) and first is None:
                first = (s, k, int(bad[0]))
        reached += len(sites) > 0
    return CouplingReport(claims, violations, first, reached)
