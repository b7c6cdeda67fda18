"""Exact one-step drift of the typed-zero Lyapunov function.

Zeros are particles: type 1 when no neighbouring site holds a zero,
type 2 otherwise.  The weight function f = n1 + (1-h) n2 contracts in
the extinction regime; this module computes its one-step expected
change exactly (enumerating every mark outcome of an update) and
compares the conditional drifts against the displayed closed-form
bounds, per update type and per count m of neighbouring particles.

The enumeration works on integer bitmasks (bit x set = fitness one at
vertex x) so exhaustive scans over all configurations of graphs up to
16 vertices stay cheap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import cond_h_upper, drift_bounds
from .dynamics import ModelParams
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
    "scan_rows",
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
    """Per-graph precomputation for exact update enumeration."""

    def __init__(self, g: Graph, params: ModelParams, h: float):
        if not (0.0 <= h < 1.0):
            raise ValueError("h must lie in [0, 1)")
        n = g.num_vertices
        if g.max_degree + 1 > 20:
            raise BudgetExceeded("degree too large to enumerate 2^(deg+1) outcomes")
        self.g = g
        self.h = h
        self.p = params.p
        self.q = params.q
        self.n = n
        self.full = (1 << n) - 1
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
        self.pmask = []
        self.probs = []
        for v in range(n):
            nb = self.nb[v]
            k = len(nb)
            masks = []
            prob = []
            for pat in range(1 << k):
                mask = 0
                for j in range(k):
                    if (pat >> j) & 1:
                        mask |= 1 << nb[j]
                masks.append(mask)
                ones = pat.bit_count()
                prob.append(self.p**ones * self.q ** (k - ones))
            self.pmask.append(masks)
            self.probs.append(prob)

    def _is_t2(self, state: int, u: int) -> bool:
        zn = ~state
        return bool((zn >> u) & 1) and (zn & self.nmask[u] & self.full) != 0

    def site_update(self, state: int, v: int) -> UpdateDecomposition:
        if (state >> v) & 1:
            raise ValueError("update site must hold a zero")
        h = self.h
        nb = self.nb[v]
        k = len(nb)
        m = ((~state) & self.nmask[v] & self.full).bit_count()
        vtype = 1 if m == 0 else 2
        w = 1.0 if m == 0 else 1.0 - h
        aff = self.aff[v]
        ext = self.ext[v]
        old_t2 = {u: self._is_t2(state, u) for u in aff}
        old_t2_count = sum(old_t2.values())
        clear = state & ~self.cmask[v]

        ex1 = ex2 = ez = ezrev = edf = edn = edn2 = 0.0
        max_abs = 0.0
        pathwise_ok = True
        ident_err = 0.0
        pmask = self.pmask[v]
        probs = self.probs[v]
        nmask = self.nmask
        full = self.full
        for pat in range(1 << k):
            ns = clear | pmask[pat]
            pr = probs[pat]
            zn = ~ns
            x1 = x2 = 0
            for u in nb:
                if (zn >> u) & 1:
                    if zn & nmask[u] & full:
                        x2 += 1
                    else:
                        x1 += 1
            z = zrev = 0
            new_t2_count = 0
            for u in aff:
                t2 = bool((zn >> u) & 1) and (zn & nmask[u] & full) != 0
                if t2:
                    new_t2_count += 1
            for u in ext:
                if not (zn >> u) & 1:
                    continue
                t2_new = (zn & nmask[u] & full) != 0
                if old_t2[u] and not t2_new:
                    z += 1
                elif not old_t2[u] and t2_new:
                    zrev += 1
            dn = (x1 + x2) - (m + 1)
            dn2 = new_t2_count - old_t2_count
            df = dn - h * dn2
            rhs_exact = x1 + (1.0 - h) * x2 + h * (z - zrev) - (1.0 - h) * m - w
            ident_err = max(ident_err, abs(df - rhs_exact))
            if df > x1 + (1.0 - h) * x2 + h * z - (1.0 - h) * m - w + _TOL:
                pathwise_ok = False
            max_abs = max(max_abs, abs(df))
            ex1 += pr * x1
            ex2 += pr * x2
            ez += pr * z
            ezrev += pr * zrev
            edf += pr * df
            edn += pr * dn
            edn2 += pr * dn2
        return UpdateDecomposition(
            v, vtype, m, w, ex1, ex2, ez, ezrev, edf, edn, edn2, max_abs, pathwise_ok, ident_err
        )


def _state_of(config: np.ndarray, n: int) -> int:
    state = 0
    for u in range(n):
        if config[u]:
            state |= 1 << u
    return state


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
    state = _state_of(config, g.num_vertices)
    sites = tuple(
        enum.site_update(state, v) for v in range(g.num_vertices) if labels[v] != 0
    )
    exact = sum(s.drift_f for s in sites) / len(sites)
    dn = sum(s.drift_n for s in sites) / len(sites)
    dn2 = sum(s.drift_n2 for s in sites) / len(sites)
    t1 = [s.drift_f for s in sites if s.vtype == 1]
    t2 = [s.drift_f for s in sites if s.vtype == 2]
    cond1 = sum(t1) / len(t1) if t1 else None
    cond2 = sum(t2) / len(t2) if t2 else None

    d = g.max_degree
    q = params.q
    db = drift_bounds(q, d, h)
    frac2 = census.n2 / census.total
    bounds: dict[str, float] = {"count": (d + 1) * q - 1.0 - frac2}
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


def _bits(state: int, n: int) -> str:
    return "".join("1" if (state >> u) & 1 else "0" for u in range(n))


class _Tracker:
    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.min_margin = math.inf
        self.worst_config = ""
        self.worst_site: int | None = None

    def add(self, margin: float, config_bits: str, site: int | None) -> None:
        self.count += 1
        if margin < self.min_margin:
            self.min_margin = margin
            self.worst_config = config_bits
            self.worst_site = site

    def stat(self) -> CheckStat:
        return CheckStat(self.name, self.count, self.min_margin, self.worst_config, self.worst_site)


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
    p = params.p
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
    rows: list[tuple[str, int, int, float, float | None, float | None]] = []
    all_hold = True
    max_cond = -math.inf
    n_sites = 0

    full = (1 << n) - 1
    for state in range(full):
        bits = _bits(state, n)
        zeros = [u for u in range(n) if not (state >> u) & 1]
        decs = [enum.site_update(state, u) for u in zeros]
        n_sites += len(decs)
        n2 = sum(1 for s in decs if s.vtype == 2)
        frac2 = n2 / len(decs)

        count_bound = (d + 1) * q - 1.0 - frac2
        e_dn = sum(s.drift_n for s in decs) / len(decs)
        trackers["count_drift"].add(count_bound - e_dn, bits, None)

        for s in decs:
            deg = g.degree(s.site)
            max_cond = max(max_cond, s.drift_f)
            # exact decomposition identity and the one-sided pathwise form
            trackers["decomposition"].add(_TOL - s.identity_err, bits, s.site)
            trackers["pathwise_f"].add(0.0 if s.pathwise_ok else -1.0, bits, s.site)
            trackers["increment"].add(c_bound - s.max_abs_df, bits, s.site)
            # progeny counts use the site's own degree; exact equality
            total_err = abs((s.x1 + s.x2) - q * (deg + 1))
            trackers["progeny_total"].add(_TOL - total_err, bits, s.site)
            x2_lb = deg * q * q + q * (1.0 - (1.0 - q) ** deg)
            trackers["progeny_type2"].add(s.x2 - x2_lb, bits, s.site)
            bound: float | None = None
            if s.vtype == 1:
                trackers["transitions_type1"].add(_TOL - abs(s.z), bits, s.site)
                trackers["new_type2_type1"].add(s.drift_n2 - 2.0 * q * q, bits, s.site)
                if regular:
                    bound = db.type1_bound
                    trackers["type1_drift"].add(bound - s.drift_f, bits, s.site)
            else:
                trackers["transitions_type2"].add(
                    s.m * (1.0 - q) * (d - 1) - s.z, bits, s.site
                )
                trackers["new_type2_type2"].add(s.drift_n2 + (1.0 + d * d), bits, s.site)
                if regular:
                    mid = (
                        q * (d + 1)
                        - h * (q * q * d + q * (1.0 - (1.0 - q) ** d))
                        + h * s.m * (1.0 - q) * (d - 1)
                        - (1.0 - h) * (s.m + 1)
                    )
                    trackers["type2_drift_m"].add(mid - s.drift_f, bits, s.site)
                    if cond_ok:
                        bound = db.type2_bound
                        trackers["type2_drift"].add(bound - s.drift_f, bits, s.site)
                    else:
                        bound = mid
            if keep_rows:
                margin = None if bound is None else bound - s.drift_f
                rows.append((bits, s.vtype, s.m, s.drift_f, bound, margin))

    stats = tuple(t.stat() for t in trackers.values() if t.count > 0)
    all_hold = all(st.min_margin >= -_TOL for st in stats)
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


def scan_rows(report: ScanReport, graph_label: str) -> list[tuple[str, ...]]:
    """CSV rows: graph,q,h,config_bits,cond_type,m,exact_drift,bound,margin."""
    out = []
    for bits, vtype, m, exact, bound, margin in report.rows:
        out.append(
            (
                graph_label,
                repr(report.q),
                repr(report.h),
                bits,
                str(vtype),
                str(m),
                repr(exact),
                "" if bound is None else repr(bound),
                "" if margin is None else repr(margin),
            )
        )
    return out
