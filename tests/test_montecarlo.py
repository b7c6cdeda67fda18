import math

import numpy as np
import pytest

from bslab.dynamics import ModelParams
from bslab.exact import build_kernel, marginals, stationary
from bslab.graphs import generate
from bslab.montecarlo import (
    estimate_from_samples,
    expected_zeros_from_batches,
    marginal_from_batches,
    proportion_tail_from_batches,
    run_batches,
    tail_fit_from_batches,
    zeros_tail_from_batches,
)


def _exact_marginals(g, p, flavor="continuous", allones="resample"):
    tm = build_kernel(g, ModelParams(p=p), allones=allones)
    return marginals(stationary(tm, flavor=flavor), g)


def test_run_batches_shapes_and_validation():
    g = generate("cycle", 5)
    params = ModelParams(p=0.3)
    bd = run_batches(g, params, 4000, seed=1, n_replicas=3, n_batches=10)
    assert bd.bits.shape == (30, 5)
    assert bd.hist.shape == (30, 6)
    assert np.allclose(bd.hist.sum(axis=1), 1.0, atol=1e-9)
    assert ((bd.bits >= 0) & (bd.bits <= 1)).all()
    with pytest.raises(ValueError):
        run_batches(g, params, 4000, seed=1, n_batches=4)
    with pytest.raises(ValueError):
        run_batches(g, params, 4, seed=1, n_batches=16)
    with pytest.raises(ValueError):
        run_batches(g, params, 4000, seed=1, flavor="bogus")


def test_run_batches_reproducible_and_thread_invariant():
    g = generate("cycle", 6)
    params = ModelParams(p=0.4)
    a = run_batches(g, params, 3000, seed=5, n_replicas=4)
    b = run_batches(g, params, 3000, seed=5, n_replicas=4)
    c = run_batches(g, params, 3000, seed=5, n_replicas=4, n_jobs=4)
    assert np.array_equal(a.bits, b.bits)
    assert np.array_equal(a.hist, b.hist)
    assert np.array_equal(a.bits, c.bits)
    assert np.array_equal(a.hist, c.hist)
    d = run_batches(g, params, 3000, seed=6, n_replicas=4)
    assert not np.array_equal(a.bits, d.bits)


def test_estimate_invariants():
    g = generate("cycle", 5)
    bd = run_batches(g, ModelParams(p=0.3), 4000, seed=7)
    for est in (
        marginal_from_batches(bd, 2),
        proportion_tail_from_batches(bd, 0.4),
        zeros_tail_from_batches(bd, 2),
        expected_zeros_from_batches(bd),
    ):
        assert est.stderr >= 0
        assert est.n_batches == 64
        assert est.total_budget == 16000
        lo, hi = est.ci95
        assert lo <= est.mean <= hi
        assert (est.mean - lo) == pytest.approx(hi - est.mean, rel=1e-9, abs=1e-12)


def test_marginal_matches_exact_across_p():
    g = generate("cycle", 6)
    for p in (0.1, 0.3, 0.7):
        mg = _exact_marginals(g, p)
        est = marginal_from_batches(run_batches(g, ModelParams(p=p), 40_000, seed=11), 0)
        err = max(3 * est.stderr, 1e-4)
        assert abs(est.mean - mg.vertex_one[0]) < err


def test_proportion_and_zeros_tails_match_exact():
    g = generate("cycle", 6)
    p = 0.3
    mg = _exact_marginals(g, p)
    params = ModelParams(p=p)
    est = proportion_tail_from_batches(run_batches(g, params, 40_000, seed=13), 0.5)
    assert abs(est.mean - mg.prob_mean_at_least(0.5)) < 3 * est.stderr
    # MC tail counts zeros >= k; the exact table stores P(zeros > k)
    bd = run_batches(g, params, 40_000, seed=17)
    for k in (1, 2, 3):
        est = zeros_tail_from_batches(bd, k)
        assert abs(est.mean - mg.zeros_tail[k - 1]) < max(3 * est.stderr, 2e-3)


def test_expected_zeros_matches_exact():
    g = generate("cycle", 6)
    mg = _exact_marginals(g, 0.3)
    bd = run_batches(g, ModelParams(p=0.3), 40_000, seed=19)
    est = expected_zeros_from_batches(bd)
    assert abs(est.mean - mg.expected_zeros) < 3 * est.stderr


def test_flavors_differ_and_each_matches_its_exact_law():
    g = generate("cycle", 6)
    p = 0.3
    params = ModelParams(p=p)
    mg_ct = _exact_marginals(g, p, flavor="continuous")
    mg_emb = _exact_marginals(g, p, flavor="embedded")
    gap = abs(mg_ct.vertex_one[0] - mg_emb.vertex_one[0])
    assert gap > 5e-3  # the two time weightings genuinely differ
    for flavor, target in (("continuous", mg_ct), ("embedded", mg_emb)):
        est = marginal_from_batches(run_batches(g, params, 60_000, seed=23, flavor=flavor), 0)
        assert abs(est.mean - target.vertex_one[0]) < max(3 * est.stderr, 1e-3)
        wrong = mg_emb if flavor == "continuous" else mg_ct
        assert abs(est.mean - wrong.vertex_one[0]) > 3 * est.stderr


def test_frozen_allones_absorbs_and_notes():
    g = generate("cycle", 4)
    params = ModelParams(p=0.9)
    bd = run_batches(g, params, 2000, seed=29, allones="frozen", n_replicas=2)
    assert any("absorbed" in note for note in bd.notes)
    est = marginal_from_batches(bd, 0)
    assert est.mean > 0.99  # trapped at all ones


def test_tail_fit_from_batches():
    g = generate("cycle", 20)
    bd = run_batches(g, ModelParams.from_q(0.3), 60_000, seed=31)
    fit = tail_fit_from_batches(bd)
    assert fit is not None
    assert fit.c2 > 0
    assert fit.c2_ci95[0] > 0
    assert len(fit.ks) >= 3
    assert fit.ks == tuple(sorted(fit.ks))


def test_tail_fit_needs_enough_points():
    g = generate("cycle", 4)
    bd = run_batches(g, ModelParams(p=0.9), 2000, seed=37)
    fit = tail_fit_from_batches(bd, k_lo=3, k_hi=4)
    assert fit is None


def test_estimate_from_samples():
    vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    est = estimate_from_samples(vals)
    assert est.mean == pytest.approx(4.5)
    assert est.stderr == pytest.approx(np.std(vals, ddof=1) / math.sqrt(8))
    assert est.n_batches == 8


def test_saturated_tails_stay_probabilities_and_note_zero_width():
    # at p=0.7 on the 12-cycle the upper ones tail holds all the mass, and
    # summed histogram cells overshoot 1 by rounding
    g = generate("cycle", 12)
    bd = run_batches(g, ModelParams(p=0.7), 4000, seed=1)
    for est in (
        proportion_tail_from_batches(bd, 0.0),
        proportion_tail_from_batches(bd, 0.5),
        zeros_tail_from_batches(bd, 0),
        zeros_tail_from_batches(bd, 1),
        zeros_tail_from_batches(bd, 13),
    ):
        assert 0.0 <= est.mean <= 1.0
        lo, hi = est.ci95
        assert lo <= est.mean <= hi
    never = zeros_tail_from_batches(bd, 13)  # more zeros than vertices
    assert never.stderr == 0.0
    assert any("zero width" in note for note in never.notes)
    # the absorbed-replica count keys on that word; keep it out
    assert not any("absorbed" in note for note in never.notes)
    live = marginal_from_batches(bd, 0)
    assert live.stderr > 0.0 and live.notes == ()
    # i.i.d. estimates are a different path and carry no note
    assert estimate_from_samples(np.ones(8)).notes == ()
