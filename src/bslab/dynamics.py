"""Zero/one Bak-Sneppen dynamics on a finite graph.

Discrete step: pick a uniformly random vertex among those with fitness
zero (uniform over all vertices when there is none), then resample the
closed neighbourhood of the pick i.i.d. Bernoulli(p), where p is the
probability of drawing a one.

Continuous time attaches a rate-1 marked Poisson clock to every vertex.
A ring at a vertex currently at one is muted.  When the configuration is
all ones, the default `resample` semantics lets the next ring anywhere
apply its marks, reproducing the discrete chain's uniform choice; the
alternative `frozen` semantics keeps such rings muted, making all-ones
absorbing.

The classical real-valued variant (uniform fitnesses, global minimum and
its neighbours resampled) is included for reference experiments.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .graphs import Graph, closed_neighbourhood
from .rng import substream

__all__ = [
    "ModelParams",
    "GraphicalConstruction",
    "ReplayResult",
    "parse_configuration",
    "format_configuration",
    "all_ones",
    "all_zeros",
    "random_configuration",
    "step_discrete",
    "sample_graphical",
    "sample_graphical_batch",
    "replay",
    "classical_fitness_samples",
    "event_log_rows",
]

ALLONES_SEMANTICS = ("resample", "frozen")


@dataclass(frozen=True)
class ModelParams:
    """Resampling law: each bit is one with probability p, zero with q = 1 - p."""

    p: float

    def __post_init__(self) -> None:
        if not (0.0 < self.p < 1.0):
            raise ValueError("p must lie strictly between 0 and 1")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @classmethod
    def from_q(cls, q: float) -> "ModelParams":
        return cls(p=1.0 - q)


def parse_configuration(text: str) -> np.ndarray:
    bits = text.strip()
    if not bits or any(c not in "01" for c in bits):
        raise ValueError("configuration must be a nonempty string of 0/1")
    return np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")


def format_configuration(config: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in np.asarray(config))


def all_ones(g: Graph) -> np.ndarray:
    return np.ones(g.num_vertices, dtype=np.uint8)


def all_zeros(g: Graph) -> np.ndarray:
    return np.zeros(g.num_vertices, dtype=np.uint8)


def random_configuration(g: Graph, params: ModelParams, rng: np.random.Generator) -> np.ndarray:
    return (rng.random(g.num_vertices) < params.p).astype(np.uint8)


def step_discrete(
    g: Graph, config: np.ndarray, params: ModelParams, rng: np.random.Generator
) -> np.ndarray:
    """One update of the embedded chain; returns a new configuration."""
    config = np.asarray(config, dtype=np.uint8)
    if config.shape != (g.num_vertices,):
        raise ValueError("configuration size does not match graph")
    zeros = np.flatnonzero(config == 0)
    if len(zeros) == 0:
        v = int(rng.integers(g.num_vertices))
    else:
        v = int(zeros[rng.integers(len(zeros))])
    nbhd = closed_neighbourhood(g, v)
    out = config.copy()
    out[list(nbhd)] = (rng.random(len(nbhd)) < params.p).astype(np.uint8)
    return out


@dataclass(frozen=True)
class GraphicalConstruction:
    """Marked Poisson clocks on (0, horizon].

    times[x] is the sorted ring-time array of vertex x; marks[x] has one
    row per ring with the proposed bits for the closed neighbourhood of x
    in sorted-id order.  Sampled vertex streams are pure functions of
    (seed, replica, vertex), so restricting `vertices` yields exactly the
    corresponding marginal of the full construction.
    """

    horizon: float
    times: tuple[np.ndarray, ...]
    marks: tuple[np.ndarray, ...]
    seed: int
    replica: int


def sample_graphical(
    g: Graph,
    params: ModelParams,
    horizon: float,
    seed: int,
    replica: int = 0,
    vertices=None,
) -> GraphicalConstruction:
    """Sample the graphical construction on (0, horizon].

    Each vertex draws from its own substream in the order
    (gap, marks, gap, marks, ...), the order in which an event-driven
    simulation consumes its clocks, so one that draws lazily from the same
    substreams reproduces replay(sample_graphical(...)) bit for bit.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    wanted = range(g.num_vertices) if vertices is None else sorted(set(int(v) for v in vertices))
    times: list[np.ndarray] = [np.empty(0)] * g.num_vertices
    marks: list[np.ndarray] = [np.empty((0, 0), dtype=np.uint8)] * g.num_vertices
    for x in wanted:
        nbhd = closed_neighbourhood(g, x)
        rng = substream(seed, replica, x)
        ts: list[float] = []
        ms: list[np.ndarray] = []
        t = 0.0
        while True:
            t += rng.exponential()
            if t > horizon:
                break
            ts.append(t)
            ms.append((rng.random(len(nbhd)) < params.p).astype(np.uint8))
        times[x] = np.asarray(ts)
        marks[x] = np.asarray(ms, dtype=np.uint8).reshape(len(ts), len(nbhd))
    return GraphicalConstruction(
        horizon=float(horizon),
        times=tuple(times),
        marks=tuple(marks),
        seed=int(seed),
        replica=int(replica),
    )


def _graphical_chunks(
    g: Graph, params: ModelParams, horizon: float, n_samples: int, seed: int, wanted
):
    """Yield (counts, times, marks) for successive chunks of samples.

    counts is (m, w) over the `wanted` vertices; times is (m, w, kmax)
    with each row's ring times sorted and padded with inf; marks[j] is
    vertex j's (counts[:, j].sum(), |N[x]|) uint8 mark rows, sample by
    sample, ring by ring.
    """
    sizes = [len(closed_neighbourhood(g, x)) for x in wanted]
    rng = substream(seed, 71)
    chunk = 4096
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        counts = rng.poisson(horizon, size=(m, len(wanted)))
        kmax = int(counts.max(initial=0))
        times = (1.0 - rng.random((m, len(wanted), kmax))) * horizon
        times[np.arange(kmax) >= counts[:, :, None]] = np.inf
        times.sort(axis=2)
        marks = [
            (rng.random((int(counts[:, j].sum()), size)) < params.p).astype(np.uint8)
            for j, size in enumerate(sizes)
        ]
        yield counts, times, marks
        done += m


def sample_graphical_batch(
    g: Graph,
    params: ModelParams,
    horizon: float,
    n_samples: int,
    seed: int,
    vertices=None,
):
    """Yield n_samples independent graphical constructions on (0, horizon].

    Law-identical to repeated sample_graphical calls (Poisson ring counts,
    then sorted uniform ring times, i.i.d. Bernoulli marks) but vectorised
    over whole chunks of samples, which matters when a block statistic
    needs 10**5 draws over a handful of vertices.  The replica field holds
    the sample index; unlike sample_graphical, the streams here are not
    replayable per vertex.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    wanted = list(range(g.num_vertices)) if vertices is None else sorted(set(int(v) for v in vertices))
    done = 0
    for counts, times, marks in _graphical_chunks(g, params, horizon, n_samples, seed, wanted):
        offsets = np.vstack((np.zeros_like(counts[:1]), counts.cumsum(axis=0)))
        for s in range(len(counts)):
            tlist: list[np.ndarray] = [np.empty(0)] * g.num_vertices
            mlist: list[np.ndarray] = [np.empty((0, 0), dtype=np.uint8)] * g.num_vertices
            # Python ints for the cuts; the time rows are views of the fresh
            # chunk array, which no other sample's rows overlap
            ts, c, lo, hi = times[s], counts[s].tolist(), offsets[s].tolist(), offsets[s + 1].tolist()
            for j, x in enumerate(wanted):
                tlist[x] = ts[j, : c[j]]
                mlist[x] = marks[j][lo[j] : hi[j]]
            yield GraphicalConstruction(
                horizon=float(horizon),
                times=tuple(tlist),
                marks=tuple(mlist),
                seed=int(seed),
                replica=done + s,
            )
        done += len(counts)


@dataclass
class ReplayResult:
    final: np.ndarray
    log: list[tuple[float, int, bool, np.ndarray]]
    snapshots: list[np.ndarray]
    applied_count: int
    muted_count: int


def _merged_events(gc: GraphicalConstruction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All events sorted by time: (times, vertices, per-vertex row index)."""
    if not gc.times:
        return np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # a few calls on whole arrays: the per-vertex pieces hold ~10 events each
    counts = [len(t) for t in gc.times]
    ts = np.concatenate(gc.times)
    vs = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    starts = np.repeat(np.array(list(accumulate(counts[:-1], initial=0)), dtype=np.int64), counts)
    rows = np.arange(len(ts), dtype=np.int64) - starts
    order = ts.argsort(kind="stable")
    ts, vs, rows = ts[order], vs[order], rows[order]
    if (ts[1:] == ts[:-1]).any():
        raise ValueError("coincident event times in graphical construction")
    return ts, vs, rows


def replay(
    g: Graph,
    config0: np.ndarray,
    gc: GraphicalConstruction,
    snapshot_times=None,
    allones: str = "resample",
    collect_log: bool = True,
    window: tuple[float, float] | None = None,
) -> ReplayResult:
    """Deterministically apply a graphical construction to a configuration.

    An event at vertex x applies its marks to the closed neighbourhood of
    x iff x is currently zero, or the configuration is all ones under the
    `resample` semantics; otherwise it is muted.  A snapshot at time t
    reflects all events with time <= t.  With window=(t0, t1), config0 is
    the state at t0 and only events in (t0, t1] are applied.
    """
    if allones not in ALLONES_SEMANTICS:
        raise ValueError(f"allones must be one of {ALLONES_SEMANTICS}")
    config = np.asarray(config0, dtype=np.uint8)
    if config.shape != (g.num_vertices,):
        raise ValueError("configuration size does not match graph")
    ts, vs, rows = _merged_events(gc)
    if window is not None:
        t0, t1 = float(window[0]), float(window[1])
        if not (0.0 <= t0 < t1 <= gc.horizon + 1e-9):
            raise ValueError("window must satisfy 0 <= t0 < t1 <= horizon")
        keep = (ts > t0) & (ts <= t1)
        ts, vs, rows = ts[keep], vs[keep], rows[keep]
    snaps = sorted(float(s) for s in (snapshot_times if snapshot_times is not None else ()))
    n = g.num_vertices
    resample = allones == "resample"
    nbhds = g.closed_neighbourhoods
    # Python lists and ints in the event loop: indexing a numpy scalar
    # costs more than the comparison or addition done with it
    cfg = config.tolist()
    n_ones = sum(cfg)
    log: list[tuple[float, int, bool, np.ndarray]] = []
    snapshots: list[np.ndarray] = []
    applied = muted = 0
    si = 0
    for t, x, r in zip(ts.tolist(), vs.tolist(), rows.tolist()):
        while si < len(snaps) and snaps[si] < t:
            snapshots.append(np.array(cfg, dtype=np.uint8))
            si += 1
        fire = cfg[x] == 0 or (resample and n_ones == n)
        if fire:
            for y, b in zip(nbhds[x], gc.marks[x][r].tolist()):
                n_ones += b - cfg[y]
                cfg[y] = b
            applied += 1
        else:
            muted += 1
        if collect_log:
            log.append((t, x, fire, gc.marks[x][r]))
    while si < len(snaps):
        snapshots.append(np.array(cfg, dtype=np.uint8))
        si += 1
    return ReplayResult(np.array(cfg, dtype=np.uint8), log, snapshots, applied, muted)


def event_log_rows(g: Graph, result: ReplayResult) -> list[tuple[str, str, str, str]]:
    """Event log as CSV rows (time, vertex, applied, marks bitstring).

    Marks are reported over the ringing vertex's closed neighbourhood in
    sorted-id order.
    """
    rows = []
    for t, x, fired, row in result.log:
        rows.append((repr(t), str(x), "1" if fired else "0", "".join(str(int(b)) for b in row)))
    return rows


def classical_fitness_samples(
    g: Graph,
    steps: int,
    burn_in: int,
    sample_every: int,
    seed: int,
) -> np.ndarray:
    """Pool fitness values from periodic snapshots after burn-in.

    Each step of the classical model resamples the closed neighbourhood
    of the minimum with fresh uniforms; ties pick the smallest index.
    """
    rng = substream(seed, 17)
    fitness = rng.random(g.num_vertices)
    nbhd_cache = [list(closed_neighbourhood(g, x)) for x in range(g.num_vertices)]
    samples: list[np.ndarray] = []
    for k in range(steps):
        v = int(np.argmin(fitness))
        nb = nbhd_cache[v]
        fitness[nb] = rng.random(len(nb))
        if k >= burn_in and (k - burn_in) % sample_every == 0:
            samples.append(fitness.copy())
    if not samples:
        raise ValueError("no samples collected; increase steps")
    return np.concatenate(samples)
