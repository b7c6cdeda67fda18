"""Tests for the exact typed-zero drift enumeration and bound scans."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracle_utils import scan_oracle, site_update

from bslab.bounds import choose_h, cond_h_upper, q0
from bslab.drift import (
    TypedCensus,
    _Enumerator,
    classify_zeros,
    exact_drift,
    increment_bound,
    lyapunov_f,
    verify_all_bounds,
)
from bslab.dynamics import ModelParams
from bslab.graphs import BudgetExceeded, generate


def _random_config_with_zero(g, rng, p=0.5):
    while True:
        c = (rng.random(g.num_vertices) < p).astype(np.int8)
        if (c == 0).any():
            return c


def _census_brute(g, config, h):
    """Recompute f = n1 + (1-h) n2 from first principles."""
    n1 = n2 = 0
    for v in range(g.num_vertices):
        if config[v] != 0:
            continue
        if any(config[u] == 0 for u in g.adjacency[v]):
            n2 += 1
        else:
            n1 += 1
    return n1 + (1.0 - h) * n2, n1, n2


def _drift_brute(g, config, p, h):
    """Independent enumeration: resample each zero's closed neighbourhood
    over all bit patterns and average the from-scratch f change."""
    f0, _, _ = _census_brute(g, config, h)
    zeros = [v for v in range(g.num_vertices) if config[v] == 0]
    total = 0.0
    for v in zeros:
        nbhd = [v, *g.adjacency[v]]
        ev = 0.0
        for pat in range(1 << len(nbhd)):
            c = config.copy()
            pr = 1.0
            for j, u in enumerate(nbhd):
                bit = (pat >> j) & 1
                c[u] = bit
                pr *= p if bit else 1.0 - p
            f1, _, _ = _census_brute(g, c, h)
            ev += pr * (f1 - f0)
        total += ev
    return total / len(zeros)


def test_classify_zeros_census():
    rng = np.random.default_rng(5)
    for g in (generate("cycle", 8), generate("torus2d", 3, 3), generate("path", 5)):
        for _ in range(20):
            c = _random_config_with_zero(g, rng)
            census, labels = classify_zeros(g, c)
            _, n1, n2 = _census_brute(g, c, 0.3)
            assert census == TypedCensus(n1, n2)
            assert census.total == int((c == 0).sum())
            for v in range(g.num_vertices):
                if c[v] != 0:
                    assert labels[v] == 0
                elif any(c[u] == 0 for u in g.adjacency[v]):
                    assert labels[v] == 2
                else:
                    assert labels[v] == 1


def test_classify_zeros_rejects_bad_shape():
    g = generate("cycle", 5)
    with pytest.raises(ValueError):
        classify_zeros(g, np.zeros(4, dtype=np.int8))


def test_lyapunov_f_values():
    assert lyapunov_f(TypedCensus(3, 2), 0.25) == pytest.approx(3 + 0.75 * 2)
    assert lyapunov_f(TypedCensus(0, 4), 0.0) == 4.0
    with pytest.raises(ValueError):
        lyapunov_f(TypedCensus(1, 1), 1.0)
    with pytest.raises(ValueError):
        lyapunov_f(TypedCensus(1, 1), -0.1)


def test_exact_drift_matches_brute_oracle():
    rng = np.random.default_rng(11)
    cases = [
        (generate("cycle", 6), 0.7, 0.2),
        (generate("path", 5), 0.5, 0.35),
        (generate("torus2d", 3, 3), 0.85, 0.1),
    ]
    for g, p, h in cases:
        params = ModelParams(p=p)
        for _ in range(12):
            c = _random_config_with_zero(g, rng)
            rep = exact_drift(g, c, params, h)
            assert rep.exact_drift == pytest.approx(_drift_brute(g, c, p, h), abs=1e-10)
            # count drift has a closed per-site form: q(deg+1) - zeros in nbhd
            q = params.q
            per_site = []
            for v in range(g.num_vertices):
                if c[v] != 0:
                    continue
                z_nb = sum(1 for u in (v, *g.adjacency[v]) if c[u] == 0)
                per_site.append(q * (g.degree(v) + 1) - z_nb)
            assert rep.drift_n == pytest.approx(float(np.mean(per_site)), abs=1e-12)


def test_drift_linear_in_h():
    g = generate("cycle", 8)
    params = ModelParams(p=0.6)
    rng = np.random.default_rng(3)
    for _ in range(10):
        c = _random_config_with_zero(g, rng)
        h = float(rng.uniform(0.05, 0.9))
        rep = exact_drift(g, c, params, h)
        # f = N - h n2, so the drift splits the same way
        assert rep.exact_drift == pytest.approx(rep.drift_n - h * rep.drift_n2, abs=1e-12)
        rep0 = exact_drift(g, c, params, 0.0)
        assert rep0.exact_drift == pytest.approx(rep0.drift_n, abs=1e-12)
        assert rep0.drift_n == pytest.approx(rep.drift_n, abs=1e-12)
        assert rep0.drift_n2 == pytest.approx(rep.drift_n2, abs=1e-12)


def test_single_zero_spot_values():
    g = generate("cycle", 8)
    q = 0.3
    params = ModelParams.from_q(q)
    c = np.ones(8, dtype=np.int8)
    c[0] = 0
    rep = exact_drift(g, c, params, 0.2)
    assert rep.census == TypedCensus(1, 0)
    # a lone zero dies and leaves Binomial(3, q) zeros behind
    assert rep.drift_n == pytest.approx(3 * q - 1, abs=1e-12)
    assert rep.cond_type1 == pytest.approx(rep.exact_drift, abs=1e-15)
    assert rep.cond_type2 is None
    assert len(rep.sites) == 1
    assert rep.sites[0].vtype == 1
    assert rep.sites[0].m == 0
    assert rep.sites[0].weight == 1.0


def test_conditional_means_and_weights():
    g = generate("torus2d", 3, 3)
    params = ModelParams(p=0.7)
    rng = np.random.default_rng(23)
    for _ in range(10):
        c = _random_config_with_zero(g, rng)
        rep = exact_drift(g, c, params, 0.15)
        t1 = [s.drift_f for s in rep.sites if s.vtype == 1]
        t2 = [s.drift_f for s in rep.sites if s.vtype == 2]
        if t1:
            assert rep.cond_type1 == pytest.approx(float(np.mean(t1)), abs=1e-12)
        else:
            assert rep.cond_type1 is None
        if t2:
            assert rep.cond_type2 == pytest.approx(float(np.mean(t2)), abs=1e-12)
        for s in rep.sites:
            assert (s.m == 0) == (s.weight == 1.0)
            assert (s.m == 0) == (s.vtype == 1)
            assert s.max_abs_df <= increment_bound(g.max_degree, rep.h) + 1e-12
            assert s.identity_err < 1e-9
            assert s.pathwise_ok


def test_exact_drift_rejects_no_zeros():
    g = generate("cycle", 5)
    with pytest.raises(ValueError):
        exact_drift(g, np.ones(5, dtype=np.int8), ModelParams(p=0.5), 0.1)


def test_drift_matches_direct_simulation():
    """Monte Carlo route: sample one update from a fixed configuration."""
    g = generate("cycle", 6)
    q = 0.3
    p = 1.0 - q
    h = choose_h(q, 2)
    c = np.array([0, 1, 0, 0, 1, 1], dtype=np.int8)
    rep = exact_drift(g, c, ModelParams(p=p), h)

    n = g.num_vertices
    adj = np.zeros((n, n), dtype=np.int8)
    for v in range(n):
        for u in g.adjacency[v]:
            adj[v, u] = 1
    f0, _, _ = _census_brute(g, c, h)
    rng = np.random.default_rng(99)
    nsamp = 120_000
    zeros = np.flatnonzero(c == 0)
    sites = rng.choice(zeros, size=nsamp)
    deltas = np.empty(nsamp)
    for v in np.unique(sites):
        idx = np.flatnonzero(sites == v)
        nbhd = [v, *g.adjacency[v]]
        bits = (rng.random((idx.size, len(nbhd))) < p).astype(np.int8)
        confs = np.broadcast_to(c, (idx.size, n)).copy()
        confs[:, nbhd] = bits
        zero = confs == 0
        zero_nb = zero @ adj
        n2 = (zero & (zero_nb > 0)).sum(axis=1)
        deltas[idx] = (zero.sum(axis=1) - h * n2) - f0
    mean = float(deltas.mean())
    stderr = float(deltas.std(ddof=1) / math.sqrt(nsamp))
    assert abs(mean - rep.exact_drift) < 4 * stderr


def test_scan_negative_below_threshold():
    # comfortably inside the extinction window for each degree
    assert 0.40 < q0(2) - 0.01
    assert 0.20 < q0(4) - 0.01
    cases = [
        (generate("cycle", 8), (0.40, 0.30, 0.15)),
        (generate("torus2d", 3, 3), (0.20, 0.10)),
    ]
    for g, qs in cases:
        d = g.max_degree
        for q in qs:
            rep = verify_all_bounds(g, ModelParams.from_q(q), choose_h(q, d), keep_rows=False)
            assert not rep.restricted
            assert rep.all_hold
            assert rep.all_negative
            assert rep.max_cond_drift < 0
            assert rep.epsilon == pytest.approx(-rep.max_cond_drift)
            assert rep.n_configs == (1 << g.num_vertices) - 1
            names = {s.name for s in rep.checks}
            assert {"type1_drift", "type2_drift", "count_drift", "increment"} <= names
            for stat in rep.checks:
                assert stat.min_margin >= -1e-9
                assert stat.count > 0


def test_report_rows_one_per_site_update():
    g = generate("cycle", 5)
    q = 0.3
    rep = verify_all_bounds(g, ModelParams.from_q(q), choose_h(q, 2))
    assert rep.n_sites == sum(1 for r in rep.rows)


def test_scan_restricted_on_irregular_graph():
    g = generate("path", 5)
    rep = verify_all_bounds(g, ModelParams.from_q(0.3), 0.2)
    assert rep.restricted
    assert any("constant-degree" in n for n in rep.notes)
    names = {s.name for s in rep.checks}
    assert "type1_drift" not in names
    assert "type2_drift" not in names
    assert "type2_drift_m" not in names
    # degree-local statements still checked
    assert {"progeny_total", "progeny_type2", "count_drift", "increment"} <= names
    for stat in rep.checks:
        assert stat.min_margin >= -1e-9
    for bits, vtype, m, exact, bound, margin in rep.rows:
        assert bound is None and margin is None


def test_scan_skips_final_type2_bound_above_ceiling():
    # h above the m-reduction ceiling: the assembled type-2 bound is not valid
    g = generate("cycle", 5)
    q = 0.3
    from bslab.bounds import cond_h_upper

    h = min(0.95, cond_h_upper(q, 2) + 0.05)
    rep = verify_all_bounds(g, ModelParams.from_q(q), h, keep_rows=False)
    names = {s.name for s in rep.checks}
    assert "type2_drift" not in names
    assert "type2_drift_m" in names
    assert any("ceiling" in n for n in rep.notes)


def test_budget_guards():
    with pytest.raises(BudgetExceeded):
        verify_all_bounds(generate("cycle", 17), ModelParams.from_q(0.3), 0.2)
    g = generate("complete", 22)
    c = np.ones(22, dtype=np.int8)
    c[0] = 0
    with pytest.raises(BudgetExceeded):
        exact_drift(g, c, ModelParams(p=0.5), 0.1)


@settings(max_examples=30, deadline=None)
@given(
    bits=st.integers(min_value=0, max_value=(1 << 8) - 2),
    q=st.floats(min_value=0.05, max_value=0.9),
    h=st.floats(min_value=0.0, max_value=0.95),
)
def test_drift_count_identity_property(bits, q, h):
    g = generate("cycle", 8)
    c = np.array([(bits >> v) & 1 for v in range(8)], dtype=np.int8)
    rep = exact_drift(g, c, ModelParams.from_q(q), h)
    per_site = []
    for v in range(8):
        if c[v] != 0:
            continue
        z_nb = sum(1 for u in (v, *g.adjacency[v]) if c[u] == 0)
        per_site.append(q * 3 - z_nb)
    assert rep.drift_n == pytest.approx(float(np.mean(per_site)), abs=1e-12)
    assert rep.exact_drift == pytest.approx(rep.drift_n - h * rep.drift_n2, abs=1e-12)
    for key, ok in rep.passes.items():
        assert ok == (rep.margins[key] >= -1e-9)


_ORACLE_SCANS = {
    "cycle:10": (generate("cycle", 10), 0.3, choose_h(0.3, 2)),
    "torus2d:3x3": (generate("torus2d", 3, 3), 0.15, choose_h(0.15, 4)),
    "path:7": (generate("path", 7), 0.3, 0.2),
    "cycle:5-above-ceiling": (generate("cycle", 5), 0.3, min(0.95, cond_h_upper(0.3, 2) + 0.05)),
    "complete:5": (generate("complete", 5), 0.1, 0.3),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_SCANS))
def test_scan_matches_scalar_oracle(case):
    """The array scan reproduces the scalar scan bit for bit: every
    field, worst (config, site) of every check, and every row."""
    g, q, h = _ORACLE_SCANS[case]
    params = ModelParams.from_q(q)
    expected = scan_oracle(g, params, h)
    rep = verify_all_bounds(g, params, h, keep_rows=True)
    assert rep == expected
    # repr also tells -0.0 from 0.0 and numpy scalars from Python ones
    assert repr(rep) == repr(expected)
    lean = verify_all_bounds(g, params, h, keep_rows=False)
    assert repr(lean) == repr(dataclasses.replace(expected, rows=()))


_ORACLE_GRAPHS = {"cycle:8": generate("cycle", 8), "torus2d:3x3": generate("torus2d", 3, 3)}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_ORACLE_GRAPHS)),
    bits=st.integers(min_value=0, max_value=(1 << 9) - 1),
    q=st.floats(min_value=0.01, max_value=0.99),
    h=st.floats(min_value=0.0, max_value=0.99),
)
def test_exact_drift_sites_match_scalar_oracle(name, bits, q, h):
    g = _ORACLE_GRAPHS[name]
    n = g.num_vertices
    state = bits & ((1 << n) - 1)
    assume(state != (1 << n) - 1)
    c = np.array([(state >> v) & 1 for v in range(n)], dtype=np.int8)
    params = ModelParams.from_q(q)
    rep = exact_drift(g, c, params, h)
    enum = _Enumerator(g, params, h)
    expected = tuple(site_update(enum, state, v) for v in range(n) if not (state >> v) & 1)
    assert rep.sites == expected
    assert repr(rep.sites) == repr(expected)


def test_exact_drift_rejects_graphs_wider_than_int64_states():
    c = np.ones(64, dtype=np.int8)
    c[0] = 0
    with pytest.raises(BudgetExceeded):
        exact_drift(generate("cycle", 64), c, ModelParams(p=0.5), 0.1)
    c63 = c[:63]
    assert exact_drift(generate("cycle", 63), c63, ModelParams(p=0.5), 0.1).census == TypedCensus(1, 0)
