import json
import tracemalloc

import numpy as np
import pytest

from bslab import exact
from bslab.dynamics import ModelParams
from bslab.exact import (
    Marginals,
    _apply_t,
    balance_residual,
    build_kernel,
    escape_entry_check,
    marginals,
    stationary,
    tail_geometric_fit,
)
from bslab.graphs import automorphisms, generate, parse_graph_spec
from bslab.rng import substream
from oracle_utils import dense_transition_t, stationary_oracle


def _model(n=5, p=0.3, allones="resample", family="cycle"):
    g = generate(family, n) if family != "torus2d" else generate("torus2d", 3, 3)
    return g, build_kernel(g, ModelParams(p=p), allones=allones)


def test_kernel_is_stochastic():
    _, tm = _model()
    rows = np.asarray(tm.kernel.sum(axis=1)).ravel()
    assert np.allclose(rows, 1.0, atol=1e-12)
    assert tm.exit_rates.shape == (32,)
    assert (tm.exit_rates >= 1).all()  # resample semantics never stalls


def test_kernel_budget_guard():
    g = generate("cycle", 21)
    with pytest.raises(Exception):
        build_kernel(g, ModelParams(p=0.3))


def test_stationary_embedded_and_continuous():
    _, tm = _model()
    for flavor in ("embedded", "continuous"):
        sd = stationary(tm, flavor=flavor)
        assert sd.flavor == flavor
        assert (sd.probs >= 0).all()
        assert abs(sd.probs.sum() - 1.0) < 1e-12
        assert sd.residual < 1e-10
    emb = stationary(tm, flavor="embedded").probs
    # fixed point of the kernel
    assert np.abs(emb @ tm.kernel - emb).sum() < 1e-10


def test_continuous_stationary_solves_rate_matrix():
    """Independent oracle: nullspace of the generator Q = R(P - I)."""
    g, tm = _model(n=5, p=0.35)
    sd = stationary(tm, flavor="continuous")
    P = tm.kernel.toarray()
    Q = np.diag(tm.exit_rates) @ (P - np.eye(len(P)))
    resid = np.abs(sd.probs @ Q).sum()
    assert resid < 1e-9
    # and it differs from the embedded flavor (different time weighting)
    emb = stationary(tm, flavor="embedded")
    assert np.abs(emb.probs - sd.probs).max() > 1e-4


def test_frozen_semantics_absorbs_at_all_ones():
    g, tm = _model(p=0.4, allones="frozen")
    sd = stationary(tm, flavor="embedded")
    full = (1 << g.num_vertices) - 1
    assert sd.probs[full] == pytest.approx(1.0, abs=1e-9)
    assert sd.probs[:full].sum() < 1e-9


def test_marginals_consistency():
    g, tm = _model(n=6, p=0.3)
    sd = stationary(tm, flavor="continuous")
    mg = marginals(sd, g)
    assert mg.num_vertices == 6
    # vertex symmetry on the cycle
    assert np.allclose(mg.vertex_one, mg.vertex_one[0], atol=1e-10)
    assert abs(mg.ones_hist.sum() - 1.0) < 1e-12
    # direct state sums reproduce every marginal
    probs = sd.probs
    ones = np.array([bin(s).count("1") for s in range(64)])
    for j in range(7):
        assert mg.ones_hist[j] == pytest.approx(probs[ones == j].sum(), abs=1e-12)
    for k in range(7):
        assert mg.zeros_tail[k] == pytest.approx(probs[6 - ones > k].sum(), abs=1e-12)
    assert mg.expected_zeros == pytest.approx(6 - probs @ ones, abs=1e-10)
    assert mg.prob_mean_at_least(0.5) == pytest.approx(probs[ones >= 3].sum(), abs=1e-12)


def test_transition_matrix_t_semigroup():
    g, tm = _model(n=4, p=0.4)
    m1 = _apply_t(tm, np.eye(16), 0.7, "continuous")
    m2 = _apply_t(tm, np.eye(16), 1.4, "continuous")
    assert np.allclose(m1.sum(axis=1), 1.0, atol=1e-10)
    assert np.allclose(m1 @ m1, m2, atol=1e-9)
    m0 = _apply_t(tm, np.eye(16), 1e-12, "continuous")
    assert np.allclose(m0, np.eye(16), atol=1e-9)


def test_transition_matrix_embedded_power():
    g, tm = _model(n=4, p=0.4)
    P = tm.kernel.toarray()
    m3 = _apply_t(tm, np.eye(16), 3, "embedded")
    assert np.allclose(m3, np.linalg.matrix_power(P, 3), atol=1e-12)


@pytest.mark.parametrize("allones", ["resample", "frozen"])
@pytest.mark.parametrize("family", ["cycle", "torus2d"])
def test_apply_t_matches_dense_expm(family, allones):
    """The vector action on the identity is the dense matrix exponential."""
    _, tm = _model(n=5, p=0.3, allones=allones, family=family)
    size = tm.kernel.shape[0]
    for t in (0.0, 0.05, 0.7, 2.5):
        assert np.abs(_apply_t(tm, np.eye(size), t, "continuous") - dense_transition_t(tm, t)).max() < 1e-12


def test_time_t_checks_scale_to_two_to_the_fourteen_states():
    """cycle:14 (16384 states): a dense P_t alone would take 2 GiB."""
    g = generate("cycle", 14)
    tm = build_kernel(g, ModelParams(p=0.3))
    sd = stationary(tm, flavor="continuous")
    a_mask = substream(71, 0).random(1 << 14) < 0.5
    assert balance_residual(tm, sd, a_mask, 1.0, "continuous") < 1e-8
    rep = escape_entry_check(tm, sd, a_mask, 1.0, "continuous")
    assert not rep.vacuous
    assert 0.0 < rep.escape_c <= 1.0 and 0.0 < rep.entry_eps <= 1.0
    assert rep.bound == rep.entry_eps / rep.escape_c


@pytest.mark.parametrize("check", [balance_residual, escape_entry_check])
@pytest.mark.parametrize("length", [8, 17])
def test_time_t_checks_reject_masks_of_the_wrong_length(check, length):
    g, tm = _model(n=4, p=0.4)
    sd = stationary(tm, flavor="continuous")
    a_mask = np.zeros(length, dtype=bool)
    a_mask[:3] = True
    with pytest.raises(ValueError, match="length 2\\^n = 16"):
        check(tm, sd, a_mask, 1.0, "continuous")


def test_balance_residual_small_over_random_sets():
    g, tm = _model(n=5, p=0.3)
    sd = stationary(tm, flavor="continuous")
    rng = substream(61, 0)
    for _ in range(100):
        a_mask = rng.random(32) < rng.uniform(0.2, 0.8)
        if not a_mask.any() or a_mask.all():
            continue
        t = float(rng.uniform(0.05, 3.0))
        assert balance_residual(tm, sd, a_mask, t, "continuous") < 1e-8


def test_escape_entry_bound_holds_with_positive_escape():
    g, tm = _model(n=5, p=0.3)
    sd = stationary(tm, flavor="continuous")
    rng = substream(67, 0)
    seen = 0
    for _ in range(50):
        a_mask = rng.random(32) < 0.5
        if not a_mask.any() or a_mask.all():
            continue
        rep = escape_entry_check(tm, sd, a_mask, float(rng.uniform(0.2, 2.0)), "continuous")
        if rep.vacuous:
            continue
        assert rep.escape_c > 0
        assert rep.holds
        assert rep.pi_a < rep.bound
        seen += 1
    assert seen >= 30


def test_escape_entry_vacuous_when_absorbing():
    g = generate("cycle", 4)
    tm = build_kernel(g, ModelParams(p=0.4), allones="frozen")
    sd = stationary(tm, flavor="embedded")
    a_mask = np.zeros(16, dtype=bool)
    a_mask[15] = True  # the absorbing all-ones state never escapes
    rep = escape_entry_check(tm, sd, a_mask, 1.0, "embedded")
    assert rep.vacuous and not rep.holds


def test_escape_entry_json_field_names():
    g, tm = _model(n=4, p=0.4)
    sd = stationary(tm, flavor="continuous")
    a_mask = np.zeros(16, dtype=bool)
    a_mask[:4] = True
    rep = escape_entry_check(tm, sd, a_mask, 0.5, "continuous")
    blob = json.loads(json.dumps(rep.as_json()))
    assert set(blob) == {"c", "epsilon", "bound", "pi_A", "holds"}
    assert blob["holds"] == rep.holds


def test_escape_entry_rejects_trivial_sets():
    g, tm = _model(n=4, p=0.4)
    sd = stationary(tm, flavor="continuous")
    with pytest.raises(ValueError):
        escape_entry_check(tm, sd, np.zeros(16, dtype=bool), 1.0, "continuous")
    with pytest.raises(ValueError):
        escape_entry_check(tm, sd, np.ones(16, dtype=bool), 1.0, "continuous")


def test_escape_entry_rejects_trivial_sets_before_the_time_t_product(monkeypatch):
    g, tm = _model(n=4, p=0.4)
    sd = stationary(tm, flavor="continuous")

    def no_product(*args):
        raise AssertionError("the time-t product ran")

    monkeypatch.setattr(exact, "_apply_t", no_product)
    for a_mask in (np.zeros(16, dtype=bool), np.ones(16, dtype=bool)):
        with pytest.raises(ValueError, match="proper nonempty subset"):
            escape_entry_check(tm, sd, a_mask, 1.0, "continuous")
    with pytest.raises(ValueError, match="length 2\\^n = 16"):
        escape_entry_check(tm, sd, np.ones(8, dtype=bool), 1.0, "continuous")


def test_tail_geometric_fit_positive_slope_in_subcritical_regime():
    g = generate("cycle", 8)
    tm = build_kernel(g, ModelParams.from_q(0.3))
    sd = stationary(tm, flavor="continuous")
    fit = tail_geometric_fit(sd, g)
    assert fit.c2 > 0
    assert fit.k_lo < fit.k_hi
    mg = marginals(sd, g)
    assert (np.diff(mg.zeros_tail) <= 1e-15).all()


def test_tail_geometric_fit_recovers_synthetic_slope():
    """Oracle: a distribution with an exactly geometric zero count."""
    from math import comb

    from bslab.exact import StationaryDist

    g = generate("cycle", 8)
    rho = 0.1
    pmf = np.array([(1 - rho) * rho**z for z in range(9)])
    pmf /= pmf.sum()
    probs = np.zeros(256)
    for s in range(256):
        z = 8 - bin(s).count("1")
        probs[s] = pmf[z] / comb(8, z)
    sd = StationaryDist(probs, "continuous", 0.0)
    fit = tail_geometric_fit(sd, g)
    assert fit.c2 == pytest.approx(-np.log(rho), rel=0.05)
    assert fit.rms < 0.1


# regular:10:4 (seed 1) has no automorphism but the identity
LUMPED_GRAPHS = [f"cycle:{n}" for n in range(5, 13)] + ["torus2d:3x3", "complete:6", "path:7", "regular:10:4"]


@pytest.fixture
def lumped(monkeypatch):
    """Every kernel takes the lumped route."""
    monkeypatch.setattr(exact, "_LUMP_MIN_STATES", 0)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.7])
@pytest.mark.parametrize("spec", LUMPED_GRAPHS)
def test_lumped_stationary_matches_the_power_loop(lumped, spec, p):
    g = parse_graph_spec(spec, seed=1)
    tm = build_kernel(g, ModelParams(p=p))
    for flavor in ("embedded", "continuous"):
        sd = stationary(tm, flavor=flavor)
        ref = stationary_oracle(tm, flavor=flavor)
        assert sd.flavor == flavor
        assert (sd.probs >= 0).all() and abs(sd.probs.sum() - 1.0) < 1e-12
        assert np.abs(sd.probs - ref.probs).sum() <= 1e-8
        assert sd.residual < exact._STATIONARY_TOL
        # the residual is the law's own, on the whole kernel
        law = sd.probs * (tm.exit_rates if flavor == "continuous" else 1.0)
        assert sd.residual == pytest.approx(np.abs(law @ tm.kernel - law).sum(), rel=1e-6, abs=1e-15)
        if not spec.startswith(("path", "regular")):
            v1 = marginals(sd, g).vertex_one
            assert v1.max() - v1.min() <= 1e-12


def test_lumped_solve_that_goes_nowhere_raises(lumped, monkeypatch):
    import scipy.sparse.linalg

    monkeypatch.setattr(scipy.sparse.linalg, "gmres", lambda A, b, **kw: (np.zeros_like(b), 0))
    tm = build_kernel(generate("cycle", 8), ModelParams(p=0.3))
    for flavor in ("embedded", "continuous"):
        with pytest.raises(RuntimeError, match="lumped solve"):
            stationary(tm, flavor=flavor)


@pytest.fixture(scope="module")
def regular14():
    """regular:14:4 (seed 1): 2^14 states, at the orbit gate, 2.7 M kernel
    nonzeros, and no automorphism but the identity."""
    g = parse_graph_spec("regular:14:4", seed=1)
    tm = build_kernel(g, ModelParams(p=0.3))
    assert automorphisms(g) == () and tm.kernel.shape[0] == exact._LUMP_MIN_STATES
    return tm


def test_trivial_group_at_the_gate_takes_the_orbit_route(regular14, monkeypatch):
    """One orbit per state: the orbit route solves the kernel itself, to
    within 1e-8 in l1 of the power loop and a true residual below 1e-10."""
    groups, lumped_stationary = [], exact._lumped_stationary

    def recorded(tm, gens, flavor):
        groups.append(gens)
        return lumped_stationary(tm, gens, flavor)

    monkeypatch.setattr(exact, "_lumped_stationary", recorded)
    tm = regular14
    for flavor in ("embedded", "continuous"):
        sd, ref = stationary(tm, flavor=flavor), stationary_oracle(tm, flavor=flavor)
        assert np.abs(sd.probs - ref.probs).sum() <= 1e-8
        law = sd.probs * (tm.exit_rates if flavor == "continuous" else 1.0)
        assert sd.residual < 1e-10
        assert np.abs(law @ tm.kernel - law).sum() < 1e-10
    assert groups == [(), ()]


def test_stationary_forks_nothing(regular14, monkeypatch):
    """Kernels large enough for a split build solve in this process, at
    the orbit gate (regular:14:4) and below it (regular:13:4, 1.2 M
    nonzeros, the power loop)."""
    below = build_kernel(parse_graph_spec("regular:13:4", seed=1), ModelParams(p=0.3))
    assert below.kernel.shape[0] < exact._LUMP_MIN_STATES

    def no_fork():
        raise AssertionError("stationary forked")

    monkeypatch.setattr(exact.os, "fork", no_fork)
    for tm in (regular14, below):
        assert tm.kernel.nnz >= exact._SPLIT_MIN_NNZ
        for flavor in ("embedded", "continuous"):
            assert stationary(tm, flavor=flavor).residual < exact._STATIONARY_TOL


@pytest.mark.parametrize("flavor", ["embedded", "continuous"])
def test_trivial_group_orbit_solve_copies_no_kernel(regular14, flavor):
    """With one orbit per state the kernel is its own lumping: the solve
    peaks below 6 B per kernel nonzero, most of it the GMRES basis of 61
    vectors (3 B).  Lumping through a copy of every row (12 B) and its
    int64 column orbits (8 B) would not fit."""
    import scipy.sparse.linalg  # noqa: F401  (its import is not the solve's)

    tracemalloc.start()
    try:
        sd = stationary(regular14, flavor=flavor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sd.residual < exact._STATIONARY_TOL
    assert peak < 6 * regular14.kernel.nnz, peak / regular14.kernel.nnz
