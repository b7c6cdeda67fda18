import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bslab.dynamics import (
    ModelParams,
    all_ones,
    all_zeros,
    classical_fitness_samples,
    event_log_rows,
    format_configuration,
    parse_configuration,
    random_configuration,
    replay,
    sample_graphical,
    sample_graphical_batch,
    simulate_continuous,
    step_discrete,
)
from bslab.exact import build_kernel
from bslab.graphs import closed_neighbourhood, generate
from bslab.rng import substream


def test_model_params():
    mp = ModelParams(p=0.3)
    assert mp.q == 1 - 0.3
    assert ModelParams.from_q(0.25).p == 0.75
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            ModelParams(p=bad)


def test_configuration_text_round_trip():
    c = parse_configuration("0110")
    assert format_configuration(c) == "0110"
    assert c.dtype == np.uint8
    with pytest.raises(ValueError):
        parse_configuration("01x0")
    with pytest.raises(ValueError):
        parse_configuration("")


def test_initial_configurations():
    g = generate("cycle", 5)
    assert all_ones(g).sum() == 5
    assert all_zeros(g).sum() == 0
    rc = random_configuration(g, ModelParams(p=0.5), substream(0, 1))
    assert rc.shape == (5,) and set(np.unique(rc)) <= {0, 1}


def test_step_discrete_changes_one_neighbourhood():
    g = generate("cycle", 8)
    params = ModelParams(p=0.5)
    rng = substream(3, 0)
    config = parse_configuration("10110111")
    for _ in range(200):
        new = step_discrete(g, config, params, rng)
        changed = np.flatnonzero(new != config)
        if len(changed):
            # all changes inside one closed neighbourhood centred on a zero
            # (or anywhere when the configuration was all ones)
            zeros = np.flatnonzero(config == 0)
            candidates = zeros if len(zeros) else np.arange(8)
            hosts = [
                x
                for x in candidates
                if set(changed) <= set(closed_neighbourhood(g, int(x)))
            ]
            assert hosts
        config = new


def test_step_discrete_all_ones_resamples_somewhere():
    g = generate("cycle", 4)
    params = ModelParams(p=0.2)
    rng = substream(4, 0)
    hits = 0
    for _ in range(200):
        new = step_discrete(g, all_ones(g), params, rng)
        hits += int((new == 0).any())
    assert hits > 150  # p(all stay one) = 0.2^3 per step


# ---------------------------------------------------------------------------
# graphical construction

def test_sample_graphical_shapes_and_order():
    g = generate("torus2d", 3, 3)
    gc = sample_graphical(g, ModelParams(p=0.3), 5.0, seed=7, replica=1)
    assert gc.horizon == 5.0
    for x in range(9):
        ts = gc.times[x]
        assert (ts > 0).all() and (ts <= 5.0).all()
        assert (np.diff(ts) > 0).all()
        assert gc.marks[x].shape == (len(ts), len(closed_neighbourhood(g, x)))


def test_sample_graphical_restriction_is_marginal():
    g = generate("cycle", 6)
    params = ModelParams(p=0.4)
    full = sample_graphical(g, params, 8.0, seed=9)
    part = sample_graphical(g, params, 8.0, seed=9, vertices=[2, 5])
    for x in (2, 5):
        assert np.array_equal(full.times[x], part.times[x])
        assert np.array_equal(full.marks[x], part.marks[x])
    assert part.times[0].size == 0


def test_replay_is_pure_and_counts_events():
    g = generate("cycle", 6)
    params = ModelParams(p=0.4)
    gc = sample_graphical(g, params, 10.0, seed=11)
    c0 = random_configuration(g, params, substream(11, 1))
    r1 = replay(g, c0, gc)
    r2 = replay(g, c0, gc)
    assert np.array_equal(r1.final, r2.final)
    assert r1.applied_count == r2.applied_count
    total = sum(len(t) for t in gc.times)
    assert r1.applied_count + r1.muted_count == total
    assert r1.applied_count <= total


def test_replay_applied_events_write_one_neighbourhood():
    g = generate("cycle", 7)
    params = ModelParams(p=0.35)
    gc = sample_graphical(g, params, 12.0, seed=13)
    c0 = all_zeros(g)
    res = replay(g, c0, gc)
    config = c0.copy()
    for t, x, fired, row in res.log:
        nbhd = list(closed_neighbourhood(g, x))
        before = config.copy()
        if fired:
            assert before[x] == 0 or before.sum() == g.num_vertices
            config[nbhd] = row
        else:
            assert before[x] == 1
        # nothing outside the neighbourhood may move
        outside = np.setdiff1d(np.arange(7), nbhd)
        assert np.array_equal(config[outside], before[outside])
    assert np.array_equal(config, res.final)


def test_replay_snapshots_reflect_prefix():
    g = generate("cycle", 5)
    params = ModelParams(p=0.5)
    gc = sample_graphical(g, params, 6.0, seed=17)
    c0 = all_zeros(g)
    res = replay(g, c0, gc, snapshot_times=[2.0, 4.0, 6.0])
    assert len(res.snapshots) == 3
    assert np.array_equal(res.snapshots[-1], res.final)
    # a prefix construction reproduces the interior snapshot
    sub = replay(g, c0, gc, window=(0.0, 2.0))
    assert np.array_equal(sub.final, res.snapshots[0])


def test_replay_window_composition():
    g = generate("torus2d", 3, 3)
    params = ModelParams(p=0.25)
    gc = sample_graphical(g, params, 9.0, seed=19)
    c0 = random_configuration(g, params, substream(19, 5))
    whole = replay(g, c0, gc)
    first = replay(g, c0, gc, window=(0.0, 4.5))
    second = replay(g, first.final, gc, window=(4.5, 9.0))
    assert np.array_equal(second.final, whole.final)
    assert first.applied_count + second.applied_count == whole.applied_count


def test_replay_window_validation():
    g = generate("cycle", 4)
    gc = sample_graphical(g, ModelParams(p=0.5), 3.0, seed=1)
    c0 = all_zeros(g)
    for bad in ((-1.0, 2.0), (2.0, 2.0), (1.0, 99.0)):
        with pytest.raises(ValueError):
            replay(g, c0, gc, window=bad)


def test_event_driven_matches_replay_bitwise():
    g = generate("torus2d", 3, 3)
    params = ModelParams(p=0.3)
    for replica in (0, 3):
        c0 = random_configuration(g, params, substream(23, replica, 99))
        sim = simulate_continuous(g, c0, params, 7.0, seed=23, replica=replica)
        gc = sample_graphical(g, params, 7.0, seed=23, replica=replica)
        rep = replay(g, c0, gc)
        assert np.array_equal(sim.final, rep.final)
        assert sim.applied_events == rep.applied_count
        assert sim.muted_events == rep.muted_count


def test_allones_frozen_absorbs():
    g = generate("cycle", 5)
    params = ModelParams(p=0.6)
    gc = sample_graphical(g, params, 10.0, seed=29)
    res = replay(g, all_ones(g), gc, allones="frozen")
    assert res.applied_count == 0
    assert res.final.sum() == 5
    res2 = replay(g, all_ones(g), gc, allones="resample")
    assert res2.applied_count > 0


def test_event_log_rows_format():
    g = generate("cycle", 4)
    gc = sample_graphical(g, ModelParams(p=0.5), 2.0, seed=31)
    res = replay(g, all_zeros(g), gc)
    rows = event_log_rows(g, res)
    assert len(rows) == sum(len(t) for t in gc.times)
    for t_str, x_str, applied, marks in rows:
        assert float(t_str) > 0
        assert applied in ("0", "1")
        assert set(marks) <= {"0", "1"}
        assert len(marks) == len(closed_neighbourhood(g, int(x_str)))
    times = [float(r[0]) for r in rows]
    assert times == sorted(times)


def test_embedded_chain_of_continuous_matches_exact_kernel():
    """Applied-event transition frequencies agree with the exact kernel
    (chi-square per visited source state at the 0.001 level)."""
    g = generate("cycle", 4)
    params = ModelParams(p=0.4)
    tm = build_kernel(g, params)
    kernel = tm.kernel.toarray()
    counts = np.zeros((16, 16), dtype=np.int64)
    for replica in range(40):
        c0 = all_zeros(g)
        gc = sample_graphical(g, params, 150.0, seed=37, replica=replica)
        res = replay(g, c0, gc)
        state = int(sum(int(b) << i for i, b in enumerate(c0)))
        for t, x, fired, row in res.log:
            if not fired:
                continue
            nbhd = list(closed_neighbourhood(g, x))
            cfg = np.array([(state >> i) & 1 for i in range(4)], dtype=np.uint8)
            cfg[nbhd] = row
            new = int(sum(int(b) << i for i, b in enumerate(cfg)))
            counts[state, new] += 1
            state = new
    tested = 0
    for s in range(16):
        n = counts[s].sum()
        if n < 400:
            continue
        probs = kernel[s]
        support = probs > 0
        assert counts[s][~support].sum() == 0
        chi2 = ((counts[s][support] - n * probs[support]) ** 2 / (n * probs[support])).sum()
        dof = support.sum() - 1
        assert chi2 < stats.chi2.ppf(0.999, dof)
        tested += 1
    assert tested >= 12


# ---------------------------------------------------------------------------
# batch sampling

def test_batch_sampler_matches_single_sample_law():
    g = generate("cycle", 6)
    params = ModelParams(p=0.3)
    horizon = 4.0
    n = 4000
    count_tot = 0
    mark_sum = 0
    mark_n = 0
    seen = 0
    for gc in sample_graphical_batch(g, params, horizon, n, seed=41):
        assert gc.replica == seen
        seen += 1
        for x in range(6):
            ts = gc.times[x]
            assert (ts > 0).all() and (ts <= horizon).all()
            assert (np.diff(ts) > 0).all()
            assert gc.marks[x].shape == (len(ts), 3)
            count_tot += len(ts)
            mark_sum += int(gc.marks[x].sum())
            mark_n += gc.marks[x].size
    assert seen == n
    # ring counts ~ Poisson(horizon) per vertex, marks ~ Bernoulli(p)
    lam = horizon * 6 * n
    assert abs(count_tot - lam) < 5 * np.sqrt(lam)
    assert abs(mark_sum / mark_n - params.p) < 5 * np.sqrt(params.p * params.q / mark_n)


def test_batch_sampler_restricts_vertices():
    g = generate("cycle", 6)
    for gc in sample_graphical_batch(g, ModelParams(p=0.3), 3.0, 5, seed=43, vertices=[1, 4]):
        assert gc.times[0].size == 0
        assert gc.times[1].size + gc.times[4].size >= 0
        assert gc.marks[2].size == 0


def test_batch_sampler_deterministic():
    g = generate("cycle", 5)
    params = ModelParams(p=0.2)
    a = list(sample_graphical_batch(g, params, 2.0, 7, seed=47))
    b = list(sample_graphical_batch(g, params, 2.0, 7, seed=47))
    for ga, gb in zip(a, b):
        for x in range(5):
            assert np.array_equal(ga.times[x], gb.times[x])
            assert np.array_equal(ga.marks[x], gb.marks[x])


# ---------------------------------------------------------------------------
# classical model

def test_classical_step_replaces_min_neighbourhood():
    g = generate("cycle", 6)
    # the sampler's initial fitness is the first draw of its stream
    fitness = substream(53, 17).random(6)
    new = classical_fitness_samples(g, steps=1, burn_in=0, sample_every=1, seed=53)
    nbhd = list(closed_neighbourhood(g, int(np.argmin(fitness))))
    rest = [x for x in range(6) if x not in nbhd]
    assert np.array_equal(new[rest], fitness[rest])
    assert not np.array_equal(new[nbhd], fitness[nbhd])


def test_classical_samples_concentrate_above_half():
    g = generate("cycle", 60)
    vals = classical_fitness_samples(g, steps=30_000, burn_in=10_000, sample_every=500, seed=59)
    assert vals.min() >= 0 and vals.max() <= 1
    assert (vals < 0.5).mean() < 0.2


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), p=st.floats(0.05, 0.95))
def test_replay_reproducible_across_seeds(seed, p):
    g = generate("cycle", 5)
    params = ModelParams(p=p)
    gc = sample_graphical(g, params, 3.0, seed=seed)
    c0 = all_zeros(g)
    assert np.array_equal(replay(g, c0, gc).final, replay(g, c0, gc).final)
