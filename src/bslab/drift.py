"""Exact one-step drift of the typed-zero Lyapunov function.

Zeros are particles: type 1 when no neighbouring site holds a zero,
type 2 otherwise.  The weight function f = n1 + (1-h) n2 contracts in
the extinction regime; this module computes its one-step expected
change exactly (enumerating every mark outcome of an update) and
compares the conditional drifts against the displayed closed-form
bounds, per update type and per count m of neighbouring particles.

Configurations are int64 bitmasks (bit x set = fitness one at vertex
x).  One kernel, `_Enumerator.site_arrays`, evaluates an update site v
on a whole array of states in which v holds a zero: it loops over the
2^(deg+1) mark patterns of v's closed neighbourhood and does everything
inside that loop as bit and array operations on the states.  The
expectations accumulate pattern by pattern in a fixed order, so every
float equals the one-state-at-a-time enumeration bit for bit.
`verify_all_bounds` runs the kernel once per site over all 2^(n-1)
states with that site zero and reduces each check to its minimum, ties
going to the first (state, site) pair in ascending order;
`exact_drift` runs it on a one-state array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _progeny_type2_lb, drift_bounds
from .dynamics import ModelParams, format_state
from .graphs import BudgetExceeded, Graph, closed_neighbourhood

__all__ = [
    "TypedCensus",
    "classify_zeros",
    "lyapunov_f",
    "UpdateDecomposition",
    "DriftReport",
    "exact_drift",
    "CheckStat",
    "ScanReport",
    "verify_all_bounds",
    "increment_bound",
]

_TOL = 1e-9


@dataclass(frozen=True)
class TypedCensus:
    n1: int
    n2: int

    @property
    def total(self) -> int:
        return self.n1 + self.n2


def classify_zeros(g: Graph, config: np.ndarray) -> tuple[TypedCensus, np.ndarray]:
    """Label every vertex: 0 = one, 1 = lonely zero, 2 = zero with a
    zero neighbour.  Returns the census and the label array."""
    config = np.asarray(config)
    if config.shape != (g.num_vertices,):
        raise ValueError("configuration size does not match graph")
    labels = np.zeros(g.num_vertices, dtype=np.int8)
    for x in range(g.num_vertices):
        if config[x] != 0:
            continue
        lonely = all(config[y] != 0 for y in g.adjacency[x])
        labels[x] = 1 if lonely else 2
    n1 = int(np.count_nonzero(labels == 1))
    n2 = int(np.count_nonzero(labels == 2))
    return TypedCensus(n1, n2), labels


def lyapunov_f(census: TypedCensus, h: float) -> float:
    """Weight of a census: n1 + (1-h) n2."""
    if not (0.0 <= h < 1.0):
        raise ValueError("h must lie in [0, 1)")
    return census.n1 + (1.0 - h) * census.n2


def increment_bound(d: int, h: float) -> float:
    """Crude a.s. bound on |f-change| per update: (d+1) + h d(d-1) + 1.

    Gains are at most d+1 new unit-weight particles plus h per outside
    promotion (at most d(d-1) of them); losses are no larger.  The
    extra +1 is slack; exhaustive small-graph scans confirm the bound.
    """
    return (d + 1) + h * d * (d - 1) + 1.0


@dataclass(frozen=True)
class UpdateDecomposition:
    """Exact conditional expectations for one update site.

    m counts neighbouring particles of the site; weight is 1 for a
    lonely particle and 1-h otherwise (weight == 1 iff m == 0).  x1/x2
    are expected new particles by type, z the expected promotions of
    outside particles (type 2 to 1), z_rev the reverse moves that the
    one-sided bounds ignore.
    """

    site: int
    vtype: int
    m: int
    weight: float
    x1: float
    x2: float
    z: float
    z_rev: float
    drift_f: float
    drift_n: float
    drift_n2: float
    max_abs_df: float
    pathwise_ok: bool
    identity_err: float


class _Enumerator:
    """Per-graph tables and the per-site array kernel of the exact
    update enumeration."""

    def __init__(self, g: Graph, params: ModelParams, h: float):
        if not (0.0 <= h < 1.0):
            raise ValueError("h must lie in [0, 1)")
        n = g.num_vertices
        if g.max_degree + 1 > 20:
            raise BudgetExceeded("degree too large to enumerate 2^(deg+1) outcomes")
        if n > 63:
            raise BudgetExceeded("states are int64 bitmasks: at most 63 vertices")
        self.h = h
        self.cmask = g.closed_nbhd_masks()
        self.nmask = [self.cmask[v] ^ (1 << v) for v in range(n)]
        self.nb = [list(closed_neighbourhood(g, v)) for v in range(n)]
        # sites whose type can move: the rewritten ones and their neighbours
        self.aff = []
        self.ext = []
        for v in range(n):
            amask = 0
            for u in self.nb[v]:
                amask |= self.cmask[u]
            aff = [u for u in range(n) if (amask >> u) & 1]
            self.aff.append(aff)
            self.ext.append([u for u in aff if not (self.cmask[v] >> u) & 1])
        # mark patterns of each site: bit j of pat is the new fitness of
        # nb[v][j]; (rewritten-ones mask, probability) in pattern order
        self.patterns = []
        for nb in self.nb:
            k = len(nb)
            self.patterns.append([
                (
                    sum(1 << u for j, u in enumerate(nb) if (pat >> j) & 1),
                    params.p ** pat.bit_count() * params.q ** (k - pat.bit_count()),
                )
                for pat in range(1 << k)
            ])

    def _t2(self, zn: np.ndarray, u: int) -> np.ndarray:
        """Type-2 indicator of u over zero masks zn (bit x set = zero at x)."""
        return (((zn >> u) & 1) != 0) & ((zn & self.nmask[u]) != 0)

    def site_arrays(self, states: np.ndarray, v: int) -> tuple[np.ndarray, ...]:
        """The UpdateDecomposition fields after `site` (vtype, m, weight,
        x1, x2, z, z_rev, drift_f, drift_n, drift_n2, max_abs_df,
        pathwise_ok, identity_err), each an array over `states`: int64
        bitmasks that all hold a zero at v."""
        h = self.h
        zs = ~states
        m = np.bitwise_count(zs & self.nmask[v]).astype(np.int64)
        vtype = np.where(m == 0, 1, 2)
        w = np.where(m == 0, 1.0, 1.0 - h)
        old_t2_count = sum(self._t2(zs, u) for u in self.aff[v])
        old_ext = [self._t2(zs, u) for u in self.ext[v]]
        clear = states & ~self.cmask[v]

        ex1, ex2, ez, ezrev, edf, edn, edn2, max_abs, ident_err = (
            np.zeros(states.size) for _ in range(9)
        )
        pathwise_ok = np.ones(states.size, dtype=bool)
        for mask, pr in self.patterns[v]:
            zn = ~(clear | mask)
            x2 = sum(self._t2(zn, u) for u in self.nb[v])
            x1 = np.bitwise_count(zn & self.cmask[v]) - x2
            new_ext = [self._t2(zn, u) for u in self.ext[v]]
            z = sum(old & ~new for old, new in zip(old_ext, new_ext))
            zrev = sum(new & ~old for old, new in zip(old_ext, new_ext))
            dn = (x1 + x2) - (m + 1)
            dn2 = x2 + sum(new_ext) - old_t2_count
            df = dn - h * dn2
            rhs_exact = x1 + (1.0 - h) * x2 + h * (z - zrev) - (1.0 - h) * m - w
            ident_err = np.maximum(ident_err, np.abs(df - rhs_exact))
            pathwise_ok &= ~(df > x1 + (1.0 - h) * x2 + h * z - (1.0 - h) * m - w + _TOL)
            max_abs = np.maximum(max_abs, np.abs(df))
            ex1 += pr * x1
            ex2 += pr * x2
            ez += pr * z
            ezrev += pr * zrev
            edf += pr * df
            edn += pr * dn
            edn2 += pr * dn2
        return (
            vtype, m, w, ex1, ex2, ez, ezrev, edf, edn, edn2, max_abs, pathwise_ok, ident_err
        )


@dataclass(frozen=True)
class DriftReport:
    """Exact drift of one configuration and the displayed bounds."""

    h: float
    census: TypedCensus
    exact_drift: float
    drift_n: float
    drift_n2: float
    cond_type1: float | None
    cond_type2: float | None
    cond_h_ok: bool
    bounds: dict[str, float]
    margins: dict[str, float]
    passes: dict[str, bool]
    sites: tuple[UpdateDecomposition, ...]


def exact_drift(g: Graph, config: np.ndarray, params: ModelParams, h: float) -> DriftReport:
    """Exact expected f-change of one update: uniform particle choice,
    then full enumeration of the 2^(deg+1) mark outcomes.

    Bounds in the report use d = max degree; on irregular graphs the
    typed bounds are only heuristics (see verify_all_bounds).
    """
    config = np.asarray(config)
    census, labels = classify_zeros(g, config)
    if census.total == 0:
        raise ValueError("configuration has no zeros")
    enum = _Enumerator(g, params, h)
    state = np.array([(config != 0) @ (1 << np.arange(g.num_vertices))], dtype=np.int64)
    sites = tuple(
        UpdateDecomposition(v, *(a.item() for a in enum.site_arrays(state, v)))
        for v in range(g.num_vertices)
        if labels[v] != 0
    )
    exact = sum(s.drift_f for s in sites) / len(sites)
    dn = sum(s.drift_n for s in sites) / len(sites)
    dn2 = sum(s.drift_n2 for s in sites) / len(sites)
    t1 = [s.drift_f for s in sites if s.vtype == 1]
    t2 = [s.drift_f for s in sites if s.vtype == 2]
    cond1 = sum(t1) / len(t1) if t1 else None
    cond2 = sum(t2) / len(t2) if t2 else None

    db = drift_bounds(params.q, g.max_degree, h, census.n2 / census.total)
    bounds: dict[str, float] = {"count": db.n_drift_bound}
    margins: dict[str, float] = {"count": bounds["count"] - dn}
    if cond1 is not None:
        bounds["type1"] = db.type1_bound
        margins["type1"] = db.type1_bound - cond1
    if cond2 is not None and db.type2_bound is not None:
        bounds["type2"] = db.type2_bound
        margins["type2"] = db.type2_bound - cond2
    passes = {k: v >= -_TOL for k, v in margins.items()}
    return DriftReport(
        h,
        census,
        exact,
        dn,
        dn2,
        cond1,
        cond2,
        db.cond_h_ok,
        bounds,
        margins,
        passes,
        sites,
    )


@dataclass(frozen=True)
class CheckStat:
    name: str
    count: int
    min_margin: float
    worst_config: str
    worst_site: int | None


@dataclass(frozen=True)
class ScanReport:
    d: int
    q: float
    h: float
    restricted: bool
    n_configs: int
    n_sites: int
    checks: tuple[CheckStat, ...]
    all_hold: bool
    all_negative: bool
    max_cond_drift: float
    epsilon: float
    rows: tuple[tuple[str, int, int, float, float | None, float | None], ...]
    notes: tuple[str, ...]


class _Tracker:
    """Minimum margin of one check over (state, site) pairs.  Ties go to
    the smallest state, then to the site added first, so the result is
    the first minimum of a scan in that order with a strict `<`."""

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.min_margin = math.inf
        self.worst_state = -1  # no state yet: an infinite margin never replaces it
        self.worst_site: int | None = None

    def add(self, margins: np.ndarray, states: np.ndarray, site: int | None) -> None:
        if margins.size == 0:
            return
        self.count += margins.size
        i = int(np.argmin(margins))
        margin, state = float(margins[i]), int(states[i])
        if (margin, state) < (self.min_margin, self.worst_state):
            self.min_margin = margin
            self.worst_state = state
            self.worst_site = site

    def stat(self, n: int) -> CheckStat:
        config = format_state(self.worst_state, n) if self.worst_state >= 0 else ""
        return CheckStat(self.name, self.count, self.min_margin, config, self.worst_site)


def verify_all_bounds(
    g: Graph, params: ModelParams, h: float, keep_rows: bool = True
) -> ScanReport:
    """Exhaustively scan every configuration with a zero and compare the
    exact conditional drifts against every displayed bound.

    On a constant-degree graph all typed bounds apply.  Otherwise only
    the degree-local statements are checked (restricted mode): the
    assembled type-1/type-2 drift formulas assume constant degree.
    """
    n = g.num_vertices
    if n > 16:
        raise BudgetExceeded("configuration scan limited to 16 vertices")
    q = params.q
    d = g.max_degree
    regular = g.is_regular()
    notes: list[str] = []
    if not regular:
        notes.append("graph is not constant-degree: typed drift formulas skipped")
    enum = _Enumerator(g, params, h)
    db = drift_bounds(q, d, h)
    cond_ok = db.cond_h_ok
    if regular and not cond_ok:
        notes.append("h fails the m-reduction ceiling: final type-2 bound skipped")
    c_bound = increment_bound(d, h)

    trackers = {
        name: _Tracker(name)
        for name in (
            "type1_drift",
            "type2_drift_m",
            "type2_drift",
            "count_drift",
            "new_type2_type1",
            "new_type2_type2",
            "progeny_total",
            "progeny_type2",
            "transitions_type1",
            "transitions_type2",
            "pathwise_f",
            "increment",
            "decomposition",
        )
    }
    cond_max = _Tracker("max_cond_drift")  # minimum of -drift_f
    full = (1 << n) - 1
    all_states = np.arange(full, dtype=np.int64)
    # per-state sums over zero sites, accumulated site by site in ascending
    # order, as the per-state Python sum did
    sum_dn = np.zeros(full)
    n2 = np.zeros(full, dtype=np.int64)
    row_parts = []
    n_sites = 0

    for v in range(n):
        states = all_states[((all_states >> v) & 1) == 0]
        n_sites += states.size
        vtype, m, _, x1, x2, z, _, drift_f, drift_n, drift_n2, max_abs, path_ok, ident = (
            enum.site_arrays(states, v)
        )
        sum_dn[states] += drift_n
        n2[states] += vtype == 2
        cond_max.add(-drift_f, states, v)
        deg = g.degree(v)
        # exact decomposition identity and the one-sided pathwise form
        trackers["decomposition"].add(_TOL - ident, states, v)
        trackers["pathwise_f"].add(np.where(path_ok, 0.0, -1.0), states, v)
        trackers["increment"].add(c_bound - max_abs, states, v)
        # progeny counts use the site's own degree; exact equality
        total_err = np.abs((x1 + x2) - q * (deg + 1))
        trackers["progeny_total"].add(_TOL - total_err, states, v)
        trackers["progeny_type2"].add(x2 - _progeny_type2_lb(q, deg), states, v)
        t1 = vtype == 1
        t2 = ~t1
        s1, s2 = states[t1], states[t2]
        trackers["transitions_type1"].add(_TOL - np.abs(z[t1]), s1, v)
        trackers["new_type2_type1"].add(drift_n2[t1] - 2.0 * q * q, s1, v)
        trackers["transitions_type2"].add((m * (1.0 - q) * (d - 1) - z)[t2], s2, v)
        trackers["new_type2_type2"].add(drift_n2[t2] + (1.0 + d * d), s2, v)
        if regular:
            mid = (
                q * (d + 1)
                - h * (q * q * d + q * (1.0 - (1.0 - q) ** d))
                + h * m * (1.0 - q) * (d - 1)
                - (1.0 - h) * (m + 1)
            )
            trackers["type1_drift"].add(db.type1_bound - drift_f[t1], s1, v)
            trackers["type2_drift_m"].add((mid - drift_f)[t2], s2, v)
            if cond_ok:
                trackers["type2_drift"].add(db.type2_bound - drift_f[t2], s2, v)
            bound = np.where(t1, db.type1_bound, db.type2_bound if cond_ok else mid)
        if keep_rows:
            row_parts.append((states, vtype, m, drift_f) + ((bound,) if regular else ()))

    zeros = n - np.bitwise_count(all_states)
    count_bound = db.n_drift_bound - n2 / zeros
    trackers["count_drift"].add(count_bound - sum_dn / zeros, all_states, None)

    rows: list[tuple[str, int, int, float, float | None, float | None]] = []
    if keep_rows:
        # sites were added in ascending order: a stable sort by state gives
        # the (state, site) order
        states, vtype, m, drift_f, *bound = (np.concatenate(c) for c in zip(*row_parts))
        order = np.argsort(states, kind="stable")
        bits = np.array([format_state(state, n) for state in range(full)], dtype=object)
        cols = [bits[states], vtype, m, drift_f]
        cols += [bound[0], bound[0] - drift_f] if regular else [np.full(n_sites, None)] * 2
        rows = list(zip(*(c[order].tolist() for c in cols)))

    stats = tuple(t.stat(n) for t in trackers.values() if t.count > 0)
    all_hold = all(st.min_margin >= -_TOL for st in stats)
    max_cond = -cond_max.min_margin
    return ScanReport(
        d,
        q,
        h,
        not regular,
        full,
        n_sites,
        stats,
        all_hold,
        max_cond < 0.0,
        max_cond,
        -max_cond,
        tuple(rows),
        tuple(notes),
    )
