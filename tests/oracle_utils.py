"""Independent brute-force oracles shared by the unit and acceptance tests."""
import math

import numpy as np
import scipy.sparse as sp

from bslab.bounds import drift_bounds
from bslab.drift import (
    CheckStat,
    ScanReport,
    UpdateDecomposition,
    _Enumerator,
    _TOL,
    increment_bound,
)
from bslab.exact import (
    _STATIONARY_MAX_ITER,
    _STATIONARY_TOL,
    StationaryDist,
    TransitionModel,
    _nbhd_patterns,
)
from bslab.percolation import StripField, level_size


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
    """The embedded kernel from per-site int64 COO pieces, concatenated and
    converted by `coo_matrix`: the reference for `build_kernel`'s int32
    fill of preallocated arrays."""
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
    kernel = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    ).tocsr()
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
