"""Independent brute-force oracles shared by the unit and acceptance tests."""
import csv
import heapq
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from bslab.bounds import block2_nice_lb, drift_bounds, stick_good_lb, theta_4block
from bslab.drift import (
    CheckStat,
    ScanReport,
    UpdateDecomposition,
    _Enumerator,
    _TOL,
    increment_bound,
)
from bslab.blocks import (
    _ORDERS4,
    _SAMPLE_CHUNK,
    Block2,
    Block4,
    BlockStats,
    PropagationResult,
    _check_window,
    _require_adjacent,
    _rings_in_order,
)
from bslab.dynamics import (
    ALLONES_SEMANTICS,
    GraphicalConstruction,
    ModelParams,
    ReplayResult,
    _graphical_chunks,
    format_state,
)
from bslab.exact import (
    _STATIONARY_MAX_ITER,
    _STATIONARY_TOL,
    StationaryDist,
    TransitionModel,
    _nbhd_patterns,
)
from bslab.graphs import BudgetExceeded, ChainCover, ChainPath, Graph, closed_neighbourhood
from bslab.montecarlo import _CHUNK, Estimate, estimate_from_samples
from bslab.percolation import (
    LevelSet,
    StripField,
    _check_site,
    evolve,
    field_from_uniforms,
    is_h_good,
    level_size,
    sample_strip,
    side_condition_ok,
    strip_uniforms,
)
from bslab.rng import substream


def reachable_brute(field: StripField, start_ms, upto: int) -> set[int]:
    """Set-of-coordinates reachability by explicit frontier chasing.

    Deliberately written against the (m, n) coordinates rather than the
    packed index arrays used by evolve.
    """
    N = field.N
    frontier = set(int(m) for m in start_ms)
    for n in range(upto):
        par = n % 2
        nxt: set[int] = set()
        for m in frontier:
            i = (m - par) // 2
            if m - 1 >= 0 and field.bonds_left[n][i]:
                nxt.add(m - 1)
            if m + 1 <= 2 * N and field.bonds_right[n][i]:
                nxt.add(m + 1)
        frontier = nxt
    return frontier


def free_bond_slots(N: int, levels: int) -> list[tuple[int, int, int]]:
    """(level, side, index) triples of the bonds that exist (not clipped)."""
    slots = []
    for n in range(levels):
        w = level_size(N, n)
        for i in range(w):
            if not (n % 2 == 0 and i == 0):
                slots.append((n, 0, i))
        for i in range(w):
            if not (n % 2 == 0 and i == w - 1):
                slots.append((n, 1, i))
    return slots


def field_from_bits(N: int, levels: int, slots, bits: int) -> StripField:
    bl = [np.zeros(level_size(N, n), dtype=bool) for n in range(levels)]
    br = [np.zeros(level_size(N, n), dtype=bool) for n in range(levels)]
    for j, (n, side, i) in enumerate(slots):
        if (bits >> j) & 1:
            (bl if side == 0 else br)[n][i] = True
    return StripField(N, levels, tuple(bl), tuple(br))


def iter_all_fields(N: int, levels: int):
    slots = free_bond_slots(N, levels)
    for bits in range(1 << len(slots)):
        yield field_from_bits(N, levels, slots, bits)


# ---------------------------------------------------------------------------
# drift: one state and one update site at a time, Python integers throughout


def _is_t2(enum: _Enumerator, state: int, u: int) -> bool:
    full = (1 << len(enum.nb)) - 1
    zn = ~state
    return bool((zn >> u) & 1) and (zn & enum.nmask[u] & full) != 0


def site_update(enum: _Enumerator, state: int, v: int) -> UpdateDecomposition:
    """Scalar oracle for `_Enumerator.site_arrays`: loops over the mark
    patterns and the affected sites of one (state, zero site) pair."""
    if (state >> v) & 1:
        raise ValueError("update site must hold a zero")
    h = enum.h
    full = (1 << len(enum.nb)) - 1
    nb = enum.nb[v]
    m = ((~state) & enum.nmask[v] & full).bit_count()
    vtype = 1 if m == 0 else 2
    w = 1.0 if m == 0 else 1.0 - h
    aff = enum.aff[v]
    ext = enum.ext[v]
    old_t2 = {u: _is_t2(enum, state, u) for u in aff}
    old_t2_count = sum(old_t2.values())
    clear = state & ~enum.cmask[v]

    ex1 = ex2 = ez = ezrev = edf = edn = edn2 = 0.0
    max_abs = 0.0
    pathwise_ok = True
    ident_err = 0.0
    nmask = enum.nmask
    for pmask, pr in enum.patterns[v]:
        ns = clear | pmask
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


class _ScalarTracker:
    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.min_margin = math.inf
        self.worst_config = ""
        self.worst_site = None

    def add(self, margin: float, config_bits: str, site) -> None:
        self.count += 1
        if margin < self.min_margin:
            self.min_margin = margin
            self.worst_config = config_bits
            self.worst_site = site

    def stat(self) -> CheckStat:
        return CheckStat(self.name, self.count, self.min_margin, self.worst_config, self.worst_site)


def scan_oracle(g, params, h: float, keep_rows: bool = True) -> ScanReport:
    """Scalar `verify_all_bounds`: every (state, zero site) pair in
    ascending order through `site_update`, one running minimum per check."""
    n = g.num_vertices
    q = params.q
    d = g.max_degree
    regular = g.is_regular()
    notes = []
    if not regular:
        notes.append("graph is not constant-degree: typed drift formulas skipped")
    enum = _Enumerator(g, params, h)
    db = drift_bounds(q, d, h)
    cond_ok = db.cond_h_ok
    if regular and not cond_ok:
        notes.append("h fails the m-reduction ceiling: final type-2 bound skipped")
    c_bound = increment_bound(d, h)
    names = (
        "type1_drift", "type2_drift_m", "type2_drift", "count_drift",
        "new_type2_type1", "new_type2_type2", "progeny_total", "progeny_type2",
        "transitions_type1", "transitions_type2", "pathwise_f", "increment",
        "decomposition",
    )
    trackers = {name: _ScalarTracker(name) for name in names}
    rows = []
    max_cond = -math.inf
    n_sites = 0
    full = (1 << n) - 1
    for state in range(full):
        bits = "".join("1" if (state >> u) & 1 else "0" for u in range(n))
        decs = [site_update(enum, state, u) for u in range(n) if not (state >> u) & 1]
        n_sites += len(decs)
        n2 = sum(1 for s in decs if s.vtype == 2)
        frac2 = n2 / len(decs)
        count_bound = (d + 1) * q - 1.0 - frac2
        e_dn = sum(s.drift_n for s in decs) / len(decs)
        trackers["count_drift"].add(count_bound - e_dn, bits, None)
        for s in decs:
            deg = g.degree(s.site)
            max_cond = max(max_cond, s.drift_f)
            trackers["decomposition"].add(_TOL - s.identity_err, bits, s.site)
            trackers["pathwise_f"].add(0.0 if s.pathwise_ok else -1.0, bits, s.site)
            trackers["increment"].add(c_bound - s.max_abs_df, bits, s.site)
            total_err = abs((s.x1 + s.x2) - q * (deg + 1))
            trackers["progeny_total"].add(_TOL - total_err, bits, s.site)
            x2_lb = deg * q * q + q * (1.0 - (1.0 - q) ** deg)
            trackers["progeny_type2"].add(s.x2 - x2_lb, bits, s.site)
            bound = None
            if s.vtype == 1:
                trackers["transitions_type1"].add(_TOL - abs(s.z), bits, s.site)
                trackers["new_type2_type1"].add(s.drift_n2 - 2.0 * q * q, bits, s.site)
                if regular:
                    bound = db.type1_bound
                    trackers["type1_drift"].add(bound - s.drift_f, bits, s.site)
            else:
                trackers["transitions_type2"].add(s.m * (1.0 - q) * (d - 1) - s.z, bits, s.site)
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
        d, q, h, not regular, full, n_sites, stats, all_hold, max_cond < 0.0, max_cond,
        -max_cond, tuple(rows), tuple(notes),
    )


def dense_transition_t(tm, t: float) -> np.ndarray:
    """Dense time-t transition matrix expm(t Q), Q = diag(exit_rates)(P - I),
    by scipy's dense Pade scaling and squaring."""
    from scipy.linalg import expm

    P = tm.kernel.toarray()
    return expm(t * (np.diag(tm.exit_rates) @ (P - np.eye(len(P)))))


def kernel_oracle(g, params, allones: str = "resample") -> TransitionModel:
    """The embedded kernel from per-site int64 COO triplets, without scipy's
    conversion: the triplets are concatenated site by site (then the
    all-ones row), put in (row, column) order by a stable `np.lexsort`, and
    each run of equal (row, column) is summed by a left fold, so duplicates
    add in site order."""
    n = g.num_vertices
    size = 1 << n
    states = np.arange(size, dtype=np.int64)
    zero_counts = np.zeros(size, dtype=np.int64)
    for x in range(n):
        zero_counts += 1 - ((states >> x) & 1)
    pats = [_nbhd_patterns(g, params, v) for v in range(n)]

    rows, cols, vals = [], [], []
    for v in range(n):
        clear, targets, weights = pats[v]
        targets = targets.astype(np.int64)
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
            cols.append(base | targets.astype(np.int64))
            vals.append(weights / n)
    else:
        rows.append(np.array([ones_state], dtype=np.int64))
        cols.append(np.array([ones_state], dtype=np.int64))
        vals.append(np.array([1.0]))
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])])
    lengths = np.diff(np.r_[starts, len(rows)])
    data = vals[starts].copy()
    for k in range(1, int(lengths.max())):
        more = lengths > k
        data[more] += vals[starts[more] + k]
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows[starts], minlength=size), out=indptr[1:])
    kernel = sp.csr_matrix((data, cols[starts].astype(np.int32), indptr), shape=(size, size))
    exit_rates = zero_counts.astype(np.float64)
    exit_rates[ones_state] = float(n) if allones == "resample" else 0.0
    return TransitionModel(g, params, allones, kernel, exit_rates)


def stationary_oracle(tm: TransitionModel, flavor: str = "embedded") -> StationaryDist:
    """Power iteration as the row-vector product pi @ P (a column scatter
    over the transpose view), with the stopping rule of `stationary`."""
    size = tm.kernel.shape[0]
    if tm.allones == "frozen":
        pi = np.zeros(size)
        pi[size - 1] = 1.0
        return StationaryDist(pi, flavor, 0.0)
    pi = np.full(size, 1.0 / size)
    for _ in range(_STATIONARY_MAX_ITER):
        nxt = pi @ tm.kernel
        nxt /= nxt.sum()
        residual = float(np.abs(nxt - pi).sum())
        pi = nxt
        if residual < _STATIONARY_TOL and (
            flavor == "embedded"
            or residual / float((pi / tm.exit_rates).sum()) < _STATIONARY_TOL
        ):
            break
    else:
        raise RuntimeError("power iteration did not converge")
    if flavor == "continuous":
        weights = pi / tm.exit_rates
        pi = weights / weights.sum()
        residual = float(np.abs((pi * tm.exit_rates) @ tm.kernel - pi * tm.exit_rates).sum())
    return StationaryDist(pi, flavor, residual)


def replica_batches_oracle(
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
    """montecarlo._replica_batches on numpy arrays and scalars, step by step.

    The reference the list-based loop must match bit for bit.
    """
    rng = substream(seed, 29, replica)
    n = g.num_vertices
    p = params.p
    nbhds = [list(closed_neighbourhood(g, x)) for x in range(n)]
    kmax = g.max_degree + 1
    resample = allones == "resample"
    continuous = flavor == "continuous"

    config = (rng.random(n) < p).astype(np.uint8)
    zeros = [x for x in range(n) if config[x] == 0]
    pos = [-1] * n
    for i, x in enumerate(zeros):
        pos[x] = i
    ones_count = n - len(zeros)

    per_batch = budget // n_batches
    bits_rows = np.zeros((n_batches, n))
    hist_rows = np.zeros((n_batches, n + 1))
    notes: list[str] = []

    # chunked pre-draws: one uniform for the vertex pick, kmax for marks
    upick = rng.random(_CHUNK)
    umark = rng.random((_CHUNK, kmax))
    cursor = 0

    hist = np.zeros(n + 1)
    acc = np.zeros(n)
    mark = np.zeros(n)
    W = 0.0
    absorbed = False
    batch_idx = -1  # negative while burning in
    step_in_batch = 0
    total = burn_in + per_batch * n_batches
    measuring = burn_in == 0
    if measuring:
        batch_idx = 0

    for _ in range(total):
        if cursor == _CHUNK:
            upick = rng.random(_CHUNK)
            umark = rng.random((_CHUNK, kmax))
            cursor = 0
        r = len(zeros)
        if measuring:
            w = (1.0 / (r if r > 0 else n)) if continuous else 1.0
            hist[ones_count] += w
            W += w
        if r == 0:
            if not resample:
                absorbed = True
                notes.append(f"replica {replica} absorbed at all-ones")
                break
            v = int(upick[cursor] * n)
        else:
            v = zeros[int(upick[cursor] * r)]
        targets = nbhds[v]
        row = umark[cursor]
        cursor += 1
        for j, t in enumerate(targets):
            new = 1 if row[j] < p else 0
            old = config[t]
            if old == new:
                continue
            config[t] = new
            if new == 1:
                i = pos[t]
                last = zeros[-1]
                zeros[i] = last
                pos[last] = i
                zeros.pop()
                pos[t] = -1
                ones_count += 1
                if measuring:
                    mark[t] = W
            else:
                pos[t] = len(zeros)
                zeros.append(t)
                ones_count -= 1
                if measuring:
                    acc[t] += W - mark[t]

        if measuring:
            step_in_batch += 1
            if step_in_batch == per_batch:
                live = config == 1
                acc[live] += W - mark[live]
                bits_rows[batch_idx] = acc / W
                hist_rows[batch_idx] = hist / W
                batch_idx += 1
                step_in_batch = 0
                hist[:] = 0.0
                acc[:] = 0.0
                mark[:] = 0.0
                W = 0.0
        else:
            burn_in -= 1
            if burn_in == 0:
                measuring = True
                batch_idx = 0

    if absorbed:
        # frozen all-ones is a trap: every later state is all-ones, so
        # the unfinished rows are exactly the point mass there
        for b in range(max(batch_idx, 0), n_batches):
            bits_rows[b] = 1.0
            hist_rows[b] = 0.0
            hist_rows[b, n] = 1.0
    return bits_rows, hist_rows, tuple(notes)


def replay_oracle(
    g: Graph,
    config0: np.ndarray,
    gc: GraphicalConstruction,
    snapshot_times=None,
    allones: str = "resample",
    collect_log: bool = True,
    window: tuple[float, float] | None = None,
) -> ReplayResult:
    """dynamics.replay on a numpy configuration, event by event.

    The reference the list-based loop must match bit for bit.

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
    ts, vs, rows = merged_events_oracle(gc)
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


# ---------------------------------------------------------------------------
# the per-sample strip loops, the per-vertex event merge and niceness
# evaluator, and the copying batch sampler that the batched and lean paths
# replaced; each must be matched exactly


def prob_connect_theta_sweep_oracle(
    N: int, thetas, K: int, x: int, y: int, n_samples: int, seed: int
) -> dict[float, Estimate]:
    """percolation.prob_connect_theta_sweep, one sample and one field at a time."""
    levels = K * N
    _check_site(N, 0, x, "x")
    _check_site(N, levels, y, "y")
    thetas = sorted(float(t) for t in thetas)
    if not all(0.0 <= t <= 1.0 for t in thetas):
        raise ValueError("theta must lie in [0, 1]")
    if abs(y - x) > levels:
        unreachable = Estimate(0.0, 0.0, (0.0, 0.0), n_samples, n_samples, ("target unreachable",))
        return {t: unreachable for t in thetas}
    rng = substream(seed, 31)
    B = LevelSet.from_sites(N, 0, [x])
    j = (y - levels % 2) // 2
    hits = {t: np.empty(n_samples, dtype=float) for t in thetas}
    for i in range(n_samples):
        ul, ur = strip_uniforms(N, levels, rng)
        prev = 0.0
        for t in thetas:
            field = field_from_uniforms(N, t, ul, ur)
            hit = 1.0 if evolve(field, B, levels).mask[j] else 0.0
            if hit < prev:
                raise AssertionError("connectivity decreased on a shared-uniform sample")
            prev = hit
            hits[t][i] = hit
    return {t: estimate_from_samples(v) for t, v in hits.items()}


def prob_good_level_oracle(
    N: int, theta: float, K: int, h: float, B: LevelSet, n_samples: int, seed: int
) -> Estimate:
    """percolation.prob_good_level, one sampled strip at a time."""
    if not (0.0 < h < 1.0):
        raise ValueError("h must lie in (0, 1)")
    levels = K * N
    rng = substream(seed, 37)
    notes = []
    if not side_condition_ok(theta, h):
        notes.append("side condition fails: analytic bound shape not applicable")
    good = np.empty(n_samples, dtype=float)
    for i in range(n_samples):
        field = sample_strip(N, theta, levels, rng)
        S = evolve(field, B, levels)
        good[i] = 1.0 if is_h_good(S, 1.0 - h) else 0.0
    return estimate_from_samples(good, tuple(notes))


def merged_events_oracle(gc: GraphicalConstruction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """dynamics._merged_events from one small array per vertex."""
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


def _ring_count_oracle(gc: GraphicalConstruction, x: int, t0: float, t1: float) -> int:
    ts = gc.times[x]
    return int(np.searchsorted(ts, t1, side="right")) - int(np.searchsorted(ts, t0, side="right"))


def _good_in_window_oracle(g: Graph, gc: GraphicalConstruction, base: int, A, t0: float, t1: float) -> bool:
    nbhd = closed_neighbourhood(g, base)
    cols = []
    for a in sorted(set(int(v) for v in A)):
        try:
            cols.append(nbhd.index(a))
        except ValueError:
            raise ValueError(f"vertex {a} is outside the closed neighbourhood of {base}") from None
    ts = gc.times[base]
    lo = int(np.searchsorted(ts, t0, side="right"))
    hi = int(np.searchsorted(ts, t1, side="right"))
    if lo == hi or not cols:
        return True
    return not gc.marks[base][lo:hi][:, cols].any()


def _has_increasing_rings_oracle(rows, t0: float, t1: float) -> bool:
    t = t0
    for ts in rows:
        i = int(np.searchsorted(ts, t, side="right"))
        if i >= len(ts) or ts[i] > t1:
            return False
        t = float(ts[i])
    return True


# the pair and four-block requirement rules as two separate functions, the
# form blocks.required_goods merged; the block oracles below use these


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


def is_nice_oracle(g: Graph, gc: GraphicalConstruction, sites, req, orders, window) -> bool:
    """blocks._is_nice, resolving every stick's columns on every call."""
    t0, t1 = window
    _check_window(gc, t0, t1)
    return (
        all(_ring_count_oracle(gc, v, t0, t1) > 0 for v in sites)
        and all(_has_increasing_rings_oracle([gc.times[sites[i]] for i in o], t0, t1) for o in orders)
        and all(_good_in_window_oracle(g, gc, v, A, t0, t1) for v, A in req.items())
    )


def block2_is_nice_oracle(g: Graph, gc: GraphicalConstruction, block: Block2) -> bool:
    _require_adjacent(g, (block.x, block.y))
    req = required_goods_pair(g, block.x, block.y)
    return is_nice_oracle(g, gc, (block.x, block.y), req, (), block.window)


def block4_is_nice_oracle(g: Graph, gc: GraphicalConstruction, block: Block4) -> bool:
    _require_adjacent(g, block.sites)
    return is_nice_oracle(g, gc, block.sites, required_goods_quad(g, block.sites), _ORDERS4, block.window)


def nice_probability_oracle(g: Graph, sites, p: float, L: float) -> float:
    """blocks.nice_probability by uniformization, on the oracle requirement
    rules.  A four-block's order factor is a Poisson(L * total rate)
    mixture, over the number of site rings, of the chance that a word of
    that many i.i.d. sites, each drawn in proportion to its ring rate,
    holds a -> b -> c and e -> c -> b as greedy subsequences."""
    q = 1.0 - p
    req = required_goods_pair(g, *sites) if len(sites) == 2 else required_goods_quad(g, tuple(sites))
    rate = {v: q ** len(A) for v, A in req.items()}
    good = math.exp(-L * sum(1.0 - r for r in rate.values()))
    if len(sites) == 2:
        return good * math.prod(1.0 - math.exp(-L * rate[v]) for v in sites)
    a, b, c, e = sites
    first, second = (a, b, c), (e, c, b)
    total = sum(rate[v] for v in sites)
    mean = L * total
    word = {(0, 0): 1.0}  # progress through the two orders after n rings
    through = 0.0
    for n in range(int(mean + 40.0 * math.sqrt(mean) + 60.0)):
        through += math.exp(n * math.log(mean) - mean - math.lgamma(n + 1)) * word.get((3, 3), 0.0)
        nxt: dict[tuple[int, int], float] = {}
        for (i, j), prob in word.items():
            for v in sites:
                key = (i + (i < 3 and first[i] == v), j + (j < 3 and second[j] == v))
                nxt[key] = nxt.get(key, 0.0) + prob * rate[v] / total
        word = nxt
    return good * through


def classical_fitness_samples_oracle(g: Graph, steps: int, burn_in: int, sample_every: int, seed: int) -> np.ndarray:
    """dynamics.classical_fitness_samples as an argmin over the fitness
    array each step, with one draw per resampled neighbourhood."""
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


def propagation_check_oracle(g: Graph, gc: GraphicalConstruction, block, config_bottom) -> PropagationResult:
    """blocks._propagation_check from the niceness oracles and replay_oracle."""
    if isinstance(block, Block2):
        nice, watched = block2_is_nice_oracle(g, gc, block), (block.x, block.y)
    else:
        a, _, _, e = block.sites
        nice, watched = block4_is_nice_oracle(g, gc, block), (a, e)
    cb = np.asarray(config_bottom, dtype=np.uint8)
    bottom = tuple(int(cb[v]) for v in watched)
    if not (nice and 0 in bottom):
        return PropagationResult(nice, False, None, bottom, None)
    final = replay_oracle(g, cb, gc, collect_log=False, window=block.window).final
    top = tuple(int(final[v]) for v in watched)
    return PropagationResult(nice, True, all(b == 0 for b in top), bottom, top)


def sample_graphical_batch_oracle(g, params, horizon, n_samples, seed, vertices=None):
    """dynamics.sample_graphical_batch, copying every vertex's ring times."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    wanted = list(range(g.num_vertices)) if vertices is None else sorted(set(int(v) for v in vertices))
    done = 0
    for counts, times, marks in _graphical_chunks(g, params, horizon, n_samples, seed, wanted):
        offsets = np.vstack((np.zeros_like(counts[:1]), counts.cumsum(axis=0)))
        for s in range(len(counts)):
            tlist: list[np.ndarray] = [np.empty(0)] * g.num_vertices
            mlist: list[np.ndarray] = [np.empty((0, 0), dtype=np.uint8)] * g.num_vertices
            for j, x in enumerate(wanted):
                tlist[x] = times[s, j, : counts[s, j]].copy()
                mlist[x] = marks[j][offsets[s, j] : offsets[s + 1, j]]
            yield GraphicalConstruction(
                horizon=float(horizon),
                times=tuple(tlist),
                marks=tuple(mlist),
                seed=int(seed),
                replica=done + s,
            )
        done += len(counts)


# ---------------------------------------------------------------------------
# the two chain searches that graphs._chain_walk replaced, and the direct
# block samplers as they were before they shared blocks._nice_spec; each
# must be matched exactly, budget errors included


def longest_chain_exact_oracle(g: Graph, anchor: int | None, budget: int) -> ChainPath:
    """graphs.longest_chain(mode="exact") as its own depth-first search."""
    masks = g.closed_nbhd_masks()
    n = g.num_vertices
    best: list[int] = []
    extensions = 0
    path: list[int] = []
    # forbidden[k] = union of closed neighbourhoods of path[0..k-3]
    forbidden: list[int] = []
    visited = 0

    def consider() -> None:
        nonlocal best
        if len(path) > len(best) and (anchor is None or anchor in path):
            best = list(path)

    def extend() -> None:
        nonlocal extensions, visited
        consider()
        last = path[-1]
        fb = forbidden[-1]
        for v in g.adjacency[last]:
            extensions += 1
            if extensions > budget:
                raise BudgetExceeded(
                    f"longest_chain: extension budget {budget} exceeded"
                )
            if (visited >> v) & 1:
                continue
            if masks[v] & fb:
                continue
            path.append(v)
            visited |= 1 << v
            k = len(path)
            add = masks[path[k - 3]] if k >= 3 else 0
            forbidden.append(fb | add)
            extend()
            forbidden.pop()
            visited ^= 1 << v
            path.pop()

    for start in range(n):
        path = [start]
        visited = 1 << start
        forbidden = [0]
        extend()
    return ChainPath(tuple(best))


def _chain_from_oracle(g: Graph, start: int, min_len: int, uncovered: set[int], budget: int) -> ChainPath | None:
    """First chain of `min_len` vertices from `start`, preferring uncovered."""
    masks = g.closed_nbhd_masks()
    extensions = 0

    def order(cands):
        return sorted(cands, key=lambda v: (v not in uncovered, v))

    def extend(path: list[int], visited: int, forbidden: list[int]):
        nonlocal extensions
        if len(path) >= min_len:
            return list(path)
        for v in order(g.adjacency[path[-1]]):
            extensions += 1
            if extensions > budget:
                raise BudgetExceeded("chain_cover: extension budget exceeded")
            if (visited >> v) & 1 or (masks[v] & forbidden[-1]):
                continue
            path.append(v)
            k = len(path)
            forbidden.append(forbidden[-1] | (masks[path[k - 3]] if k >= 3 else 0))
            got = extend(path, visited | (1 << v), forbidden)
            forbidden.pop()
            path.pop()
            if got is not None:
                return got
        return None

    got = extend([start], 1 << start, [0])
    return ChainPath(tuple(got)) if got is not None else None


def chain_cover_oracle(g: Graph, min_len: int, budget: int) -> ChainCover:
    """graphs.chain_cover with its own search per chain."""
    if min_len < 1:
        raise ValueError("min_len must be >= 1")
    uncovered = set(range(g.num_vertices))
    chains: list[ChainPath] = []
    while uncovered:
        start = min(uncovered)
        got = _chain_from_oracle(g, start, min_len, uncovered, budget)
        if got is None:
            return ChainCover(tuple(chains), False, tuple(sorted(uncovered)))
        chains.append(got)
        uncovered.difference_update(got.vertices)
    return ChainCover(tuple(chains), True, ())


def _direct_stats_oracle(
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
    """blocks._direct_stats on a requirement (sites, req, orders) given
    as a dict of stick sets."""
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


def sample_stick_stats_oracle(g, params, base, A, L, n_samples, seed) -> BlockStats:
    nbhd = set(closed_neighbourhood(g, base))
    aset = frozenset(int(v) for v in A)
    if not aset <= nbhd:
        raise ValueError("A must sit inside the closed neighbourhood of the base")
    lb = stick_good_lb(L, params.q, len(aset))
    return _direct_stats_oracle("stick", g, params, (), {base: aset}, (), L, n_samples, seed, lb)


def sample_block2_stats_oracle(g, params, x, y, L, n_samples, seed) -> BlockStats:
    _require_adjacent(g, (x, y))
    lb = block2_nice_lb(L, params.p, g.max_degree)
    req = required_goods_pair(g, x, y)
    return _direct_stats_oracle("two", g, params, (x, y), req, (), L, n_samples, seed, lb)


def sample_block4_stats_oracle(g, params, chain, k0, L, n_samples, seed) -> BlockStats:
    sites = Block4(tuple(chain), k0, 0.0, L).sites
    _require_adjacent(g, sites)
    req = required_goods_quad(g, sites)
    lb = theta_4block(L, params.p, g.max_degree)
    return _direct_stats_oracle("four", g, params, sites, req, _ORDERS4, L, n_samples, seed, lb)


# ---------------------------------------------------------------------------
# the library's CSV row builders and the second writer that cli.write_csv
# replaced; the command line's CSV files must match what these write, byte
# for byte


def write_lines_oracle(path, lines) -> None:
    path.write_text("\n".join(lines) + "\n")


def write_rows_oracle(path, header, rows) -> None:
    """The CSV writer applied to rows whose cells are already strings."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def stationary_rows_oracle(sd: StationaryDist, g: Graph) -> list[tuple[str, str]]:
    n = g.num_vertices
    return [(format_state(s, n), repr(p)) for s, p in enumerate(sd.probs.tolist())]


def scan_rows_oracle(report: ScanReport, graph_label: str) -> list[tuple[str, ...]]:
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


def event_log_rows_oracle(g: Graph, result: ReplayResult) -> list[tuple[str, str, str, str]]:
    rows = []
    for t, x, fired, row in result.log:
        rows.append((repr(t), str(x), "1" if fired else "0", "".join(str(int(b)) for b in row)))
    return rows


def block_stats_rows_oracle(stats) -> list[str]:
    rows = ["flavor,p,d,L,blocks_sampled,nice_rate,stderr,analytic_lb"]
    for st in stats:
        rows.append(
            f"{st.flavor},{st.p!r},{st.d},{st.L!r},{st.n_samples},"
            f"{st.nice_rate!r},{st.stderr!r},{st.analytic_lb!r}"
        )
    return rows
