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

import heapq
from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph, closed_neighbourhood
from .rng import substream

__all__ = [
    "ModelParams",
    "GraphicalConstruction",
    "ReplayResult",
    "SimulationResult",
    "parse_configuration",
    "format_configuration",
    "all_ones",
    "all_zeros",
    "random_configuration",
    "step_discrete",
    "sample_graphical",
    "sample_graphical_batch",
    "replay",
    "simulate_continuous",
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
    (gap, marks, gap, marks, ...), matching the lazy event-driven
    consumption in simulate_continuous bit for bit.
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
    if n_samples <= 0:
        return
    wanted = list(range(g.num_vertices)) if vertices is None else sorted(set(int(v) for v in vertices))
    sizes = [len(closed_neighbourhood(g, x)) for x in wanted]
    rng = substream(seed, 71)
    nw = len(wanted)
    chunk = 4096
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        counts = rng.poisson(horizon, size=(m, nw))
        maxk = int(counts.max()) if counts.size else 0
        if maxk > 0:
            times = (1.0 - rng.random((m, nw, maxk))) * horizon
            times[np.arange(maxk) >= counts[:, :, None]] = np.inf
            times.sort(axis=2)
        else:
            times = np.empty((m, nw, 0))
        flat_marks = []
        offsets = []
        for j in range(nw):
            total = int(counts[:, j].sum())
            flat_marks.append((rng.random((total, sizes[j])) < params.p).astype(np.uint8))
            offsets.append(np.concatenate(([0], np.cumsum(counts[:, j]))))
        for s in range(m):
            tlist: list[np.ndarray] = [np.empty(0)] * g.num_vertices
            mlist: list[np.ndarray] = [np.empty((0, 0), dtype=np.uint8)] * g.num_vertices
            for j, x in enumerate(wanted):
                k = int(counts[s, j])
                tlist[x] = times[s, j, :k].copy()
                lo, hi = int(offsets[j][s]), int(offsets[j][s + 1])
                mlist[x] = flat_marks[j][lo:hi]
            yield GraphicalConstruction(
                horizon=float(horizon),
                times=tuple(tlist),
                marks=tuple(mlist),
                seed=int(seed),
                replica=done + s,
            )
        done += m


@dataclass
class ReplayResult:
    final: np.ndarray
    log: list[tuple[float, int, bool, np.ndarray]]
    snapshots: list[np.ndarray]
    applied_count: int
    muted_count: int


def _merged_events(gc: GraphicalConstruction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All events sorted by time: (times, vertices, per-vertex row index)."""
    ts = np.concatenate([t for t in gc.times]) if gc.times else np.empty(0)
    vs = np.concatenate(
        [np.full(len(t), x, dtype=np.int64) for x, t in enumerate(gc.times)]
    ) if gc.times else np.empty(0, dtype=np.int64)
    rows = np.concatenate(
        [np.arange(len(t), dtype=np.int64) for t in gc.times]
    ) if gc.times else np.empty(0, dtype=np.int64)
    order = np.argsort(ts, kind="stable")
    ts, vs, rows = ts[order], vs[order], rows[order]
    if len(ts) > 1 and np.any(np.diff(ts) == 0.0):
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
    config = np.asarray(config0, dtype=np.uint8).copy()
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
    nbhds = [closed_neighbourhood(g, x) for x in range(g.num_vertices)]
    n_ones = int(config.sum())
    log: list[tuple[float, int, bool, np.ndarray]] = []
    snapshots: list[np.ndarray] = []
    applied = muted = 0
    si = 0
    for t, x, r in zip(ts, vs, rows):
        while si < len(snaps) and snaps[si] < t:
            snapshots.append(config.copy())
            si += 1
        fire = config[x] == 0 or (allones == "resample" and n_ones == g.num_vertices)
        if fire:
            nb = list(nbhds[x])
            row = gc.marks[x][r]
            n_ones += int(row.sum()) - int(config[nb].sum())
            config[nb] = row
            applied += 1
        else:
            muted += 1
        if collect_log:
            log.append((float(t), int(x), bool(fire), gc.marks[x][r]))
    while si < len(snaps):
        snapshots.append(config.copy())
        si += 1
    return ReplayResult(config, log, snapshots, applied, muted)


@dataclass
class SimulationResult:
    final: np.ndarray
    horizon: float
    sampled_events: int
    applied_events: int
    muted_events: int


def simulate_continuous(
    g: Graph,
    config0: np.ndarray,
    params: ModelParams,
    horizon: float,
    seed: int,
    replica: int = 0,
    allones: str = "resample",
) -> SimulationResult:
    """Event-driven simulation, never materializing the full construction.

    Consumes the same per-vertex substreams as sample_graphical, in the
    same order, so for equal (seed, replica) the final configuration is
    bit-identical to replay(sample_graphical(...)).
    """
    if allones not in ALLONES_SEMANTICS:
        raise ValueError(f"allones must be one of {ALLONES_SEMANTICS}")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    config = np.asarray(config0, dtype=np.uint8).copy()
    if config.shape != (g.num_vertices,):
        raise ValueError("configuration size does not match graph")
    nbhds = [list(closed_neighbourhood(g, x)) for x in range(g.num_vertices)]
    gens = [substream(seed, replica, x) for x in range(g.num_vertices)]
    heap: list[tuple[float, int]] = []
    for x in range(g.num_vertices):
        t = gens[x].exponential()
        if t <= horizon:
            heapq.heappush(heap, (t, x))
    n_ones = int(config.sum())
    sampled = applied = muted = 0
    while heap:
        t, x = heapq.heappop(heap)
        sampled += 1
        row = (gens[x].random(len(nbhds[x])) < params.p).astype(np.uint8)
        if config[x] == 0 or (allones == "resample" and n_ones == g.num_vertices):
            n_ones += int(row.sum()) - int(config[nbhds[x]].sum())
            config[nbhds[x]] = row
            applied += 1
        else:
            muted += 1
        t2 = t + gens[x].exponential()
        if t2 <= horizon:
            heapq.heappush(heap, (t2, x))
    return SimulationResult(config, float(horizon), sampled, applied, muted)


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
