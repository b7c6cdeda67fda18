import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bslab.percolation import (
    ContourReport,
    LevelSet,
    StripField,
    contour_bounds,
    evolve,
    field_from_uniforms,
    is_h_good,
    level_size,
    prob_connect,
    prob_connect_theta_sweep,
    prob_good_level,
    sample_strip,
    side_condition_ok,
    sites_at_level,
    strip_uniforms,
)
from bslab.rng import substream
from oracle_utils import iter_all_fields, reachable_brute


def test_level_sizes_and_sites():
    for N in (1, 2, 5):
        for n in range(8):
            ms = sites_at_level(N, n)
            assert len(ms) == level_size(N, n)
            assert len(ms) == (N + 1 if n % 2 == 0 else N)
            assert ((ms + n) % 2 == 0).all()
            assert ms.min() >= 0 and ms.max() <= 2 * N


def test_strip_field_validation():
    bl = (np.array([False, True]), np.array([True]))
    br = (np.array([True, False]), np.array([True]))
    f = StripField(1, 2, bl, br)
    assert f.levels == 2
    with pytest.raises(ValueError):
        StripField(1, 2, bl[:1], br[:1])
    with pytest.raises(ValueError):  # wall bond forced open
        StripField(1, 1, (np.array([True, True]),), (np.array([True, False]),))
    with pytest.raises(ValueError):  # wrong width
        StripField(1, 1, (np.array([False, True, True]),), (np.array([True, False]),))


def test_sample_strip_extremes_and_determinism():
    f1 = sample_strip(3, 1.0, 6, substream(1, 0))
    assert f1.open_fraction() == 1.0
    f0 = sample_strip(3, 0.0, 6, substream(1, 0))
    assert f0.open_fraction() == 0.0
    a = sample_strip(3, 0.6, 6, substream(2, 0))
    b = sample_strip(3, 0.6, 6, substream(2, 0))
    for n in range(6):
        assert np.array_equal(a.bonds_left[n], b.bonds_left[n])
        assert np.array_equal(a.bonds_right[n], b.bonds_right[n])
    with pytest.raises(ValueError):
        sample_strip(3, 1.5, 4, substream(1, 0))


def test_level_set_round_trip():
    ls = LevelSet.from_sites(2, 1, [1, 3])
    assert ls.count == 2
    assert list(ls.sites) == [1, 3]
    with pytest.raises(ValueError):
        LevelSet.from_sites(2, 1, [2])  # wrong parity
    with pytest.raises(ValueError):
        LevelSet.from_sites(2, 0, [6])  # outside the strip


def test_evolve_matches_brute_force_exhaustively():
    """Every bond field on small strips, against an independent oracle."""
    from oracle_utils import free_bond_slots

    for N, levels in ((1, 4), (2, 2)):
        start = LevelSet.from_sites(N, 0, [0])
        checked = 0
        for field in iter_all_fields(N, levels):
            expect = reachable_brute(field, [0], levels)
            got = set(int(m) for m in evolve(field, start, levels).sites)
            assert got == expect
            checked += 1
        assert checked == 1 << len(free_bond_slots(N, levels))


def test_evolve_interior_levels_match_oracle():
    rng = substream(3, 0)
    start = LevelSet.from_sites(2, 0, [0, 4])
    for _ in range(50):
        field = sample_strip(2, 0.7, 5, rng)
        for upto in range(6):
            got = set(int(m) for m in evolve(field, start, upto).sites)
            assert got == reachable_brute(field, [0, 4], upto)


def test_evolve_monotone_in_start_set():
    rng = substream(5, 0)
    for _ in range(60):
        field = sample_strip(3, 0.6, 9, rng)
        small = LevelSet.from_sites(3, 0, [2])
        big = LevelSet.from_sites(3, 0, [0, 2, 4])
        for upto in (3, 6, 9):
            s = evolve(field, small, upto)
            b = evolve(field, big, upto)
            assert (~s.mask | b.mask).all()  # s subset of b


def test_evolve_monotone_in_field_shared_uniforms():
    rng = substream(7, 0)
    start = LevelSet.from_sites(3, 0, [2, 6])
    for _ in range(60):
        ul, ur = strip_uniforms(3, 9, rng)
        lo = field_from_uniforms(3, 0.5, ul, ur)
        hi = field_from_uniforms(3, 0.8, ul, ur)
        for upto in (4, 9):
            a = evolve(lo, start, upto)
            b = evolve(hi, start, upto)
            assert (~a.mask | b.mask).all()


def test_evolve_validation():
    field = sample_strip(2, 0.5, 4, substream(9, 0))
    with pytest.raises(ValueError):
        evolve(field, LevelSet.from_sites(2, 1, [1]), 2)  # start not at level 0
    with pytest.raises(ValueError):
        evolve(field, LevelSet.from_sites(3, 0, [0]), 2)  # wrong N
    with pytest.raises(ValueError):
        evolve(field, LevelSet.from_sites(2, 0, [0]), 5)  # beyond sampled levels


def test_is_h_good_threshold():
    S = LevelSet.from_sites(2, 0, [0, 2])  # 2 of 3 sites
    assert is_h_good(S, 0.5)
    assert is_h_good(S, 2 / 3)
    assert not is_h_good(S, 0.7)
    with pytest.raises(ValueError):
        is_h_good(S, 0.0)
    with pytest.raises(ValueError):
        is_h_good(S, 1.2)


def test_prob_connect_basics():
    # theta=1: the full diamond is open, connectivity is certain
    est = prob_connect(2, 1.0, 2, 0, 0, 50, seed=11)
    assert est.mean == 1.0
    est0 = prob_connect(2, 0.0, 2, 0, 0, 50, seed=11)
    assert est0.mean == 0.0
    with pytest.raises(ValueError):
        prob_connect(2, 0.5, 2, 1, 0, 10, seed=1)  # x has odd parity at level 0


def test_prob_connect_unreachable_note():
    # |y - x| beyond the light cone
    est = prob_connect(4, 0.9, 1, 0, 8, 10, seed=13)
    assert est.mean == 0.0
    assert "target unreachable" in est.notes


def test_prob_connect_matches_exhaustive_average():
    """MC against the exact average over all fields at N=1."""
    N, K, theta = 1, 2, 0.7
    levels = K * N
    total = 0.0
    count = 0
    from oracle_utils import free_bond_slots

    slots = free_bond_slots(N, levels)
    for field in iter_all_fields(N, levels):
        bits_open = sum(
            1
            for j, _ in enumerate(slots)
            if field.bonds_left[slots[j][0]][slots[j][2]]
            if slots[j][1] == 0
        ) + sum(
            1
            for j, _ in enumerate(slots)
            if field.bonds_right[slots[j][0]][slots[j][2]]
            if slots[j][1] == 1
        )
        w = theta**bits_open * (1 - theta) ** (len(slots) - bits_open)
        total += w * (0 in reachable_brute(field, [0], levels))
        count += 1
    est = prob_connect(N, theta, K, 0, 0, 4000, seed=17)
    assert abs(est.mean - total) < 4 * max(est.stderr, 1e-4)


def test_theta_sweep_monotone_and_consistent():
    res = prob_connect_theta_sweep(3, [0.6, 0.8, 0.95, 1.0], 2, 0, 0, 500, seed=19)
    means = [res[t].mean for t in sorted(res)]
    assert means == sorted(means)
    assert res[1.0].mean == 1.0
    single = prob_connect(3, 0.8, 2, 0, 0, 500, seed=19)
    assert abs(res[0.8].mean - single.mean) < 4 * (res[0.8].stderr + single.stderr + 1e-6)


@pytest.mark.parametrize("y", [0, 2])
def test_connect_refuses_a_strip_without_levels(y):
    """K = 0 leaves no level above the start, so a target out of reach
    (y = 2) is refused like one in reach, not estimated as 0."""
    with pytest.raises(ValueError, match="levels >= 1"):
        prob_connect_theta_sweep(4, [0.9], 0, 0, y, 10, 1)
    with pytest.raises(ValueError, match="levels >= 1"):
        prob_connect(4, 0.9, 0, 0, y, 10, 1)


def test_theta_sweep_rejects_theta_outside_unit_interval():
    for bad in (1.5, -0.2):
        with pytest.raises(ValueError, match="theta"):
            prob_connect_theta_sweep(6, [0.5, bad], 3, 0, 0, 50, seed=4)
        with pytest.raises(ValueError, match="theta"):
            prob_connect(6, bad, 3, 0, 0, 50, seed=4)


def test_prob_good_level_and_side_condition():
    B = LevelSet.from_sites(2, 0, [0, 2, 4])
    est = prob_good_level(2, 0.95, 2, 0.7, B, 400, seed=23)
    assert 0.0 <= est.mean <= 1.0
    assert est.notes == ()
    low = prob_good_level(2, 0.5, 2, 0.25, B, 50, seed=23)
    assert any("side condition" in n for n in low.notes)
    assert side_condition_ok(0.95, 0.7)
    assert not side_condition_ok(0.5, 0.25)
    with pytest.raises(ValueError):
        prob_good_level(2, 0.95, 2, 1.0, B, 10, seed=1)


def test_contour_bounds_shape():
    rep = contour_bounds(10, 0.95, 0.6, 3)
    assert isinstance(rep, ContourReport)
    assert rep.series_ratio == pytest.approx(3 * np.sqrt(0.05), rel=1e-12)
    assert rep.short_sum > 0
    assert rep.long_term > 0
    with pytest.raises(ValueError):
        contour_bounds(10, 0.8, 0.6, 3)  # theta below 8/9
    with pytest.raises(ValueError):
        contour_bounds(10, 0.95, 1.0, 3)


@pytest.mark.parametrize("N,K", [(-2, 3), (0, 3), (4, -3), (4, 0)])
def test_contour_bounds_refuse_an_empty_strip(N, K):
    """contour_bounds checks its strip like the other entry points do."""
    with pytest.raises(ValueError, match="need N >= 1 and levels >= 1"):
        contour_bounds(N, 0.95, 0.75, K)


def test_contour_bounds_improve_with_theta():
    reps = [contour_bounds(12, t, 0.6, 3) for t in (0.91, 0.95, 0.99, 0.999)]
    shorts = [r.short_sum for r in reps]
    longs = [r.long_term for r in reps]
    assert shorts == sorted(shorts, reverse=True)
    assert longs == sorted(longs, reverse=True)
    perfect = contour_bounds(12, 1.0, 0.6, 3)
    assert perfect.short_sum == 0.0 and perfect.long_term == 0.0


@pytest.mark.parametrize("N,theta", [(1000, 0.9), (2000, 8 / 9 + 1e-6)], ids=["theta-0.9", "theta-near-8/9"])
def test_contour_short_sum_past_the_double_range(N, theta):
    """From k = 641 on, k 3^k overflows a double; the log-space terms keep
    the short sum within 1e-12 of an mpmath sum."""
    mp = pytest.importorskip("mpmath")
    h = 0.999
    with mp.workdps(40):
        one = mp.mpf(1.0 - theta)
        ks = range(2, int(h * N) + 1)
        want = float(one + mp.fsum(k * mp.mpf(3) ** k * one ** (mp.mpf(k) / 2) for k in ks))
    assert contour_bounds(N, theta, h, 1).short_sum == pytest.approx(want, rel=1e-12)


def test_contour_long_term_is_infinite_when_its_exponent_overflows():
    """With the side condition failing, -alpha N passes exp's range: the
    long term is an infinite, vacuous bound that side_ok flags."""
    rep = contour_bounds(700, 0.9, 0.001, 1)
    assert rep.long_term == np.inf
    assert not rep.side_ok


def test_contour_long_term_decreases_past_threshold():
    rep = contour_bounds(6, 0.97, 0.7, 3)
    if rep.decrease_threshold is not None:
        n0 = rep.decrease_threshold
        vals = [contour_bounds(n, 0.97, 0.7, 3).long_term for n in range(n0, n0 + 6)]
        assert vals == sorted(vals, reverse=True)


@settings(max_examples=30, deadline=None)
@given(
    N=st.integers(1, 4),
    theta=st.floats(0.1, 1.0),
    seed=st.integers(0, 10_000),
)
def test_frontier_never_exceeds_level(N, theta, seed):
    field = sample_strip(N, theta, 2 * N, substream(seed, 0))
    B = LevelSet(N, 0, np.ones(N + 1, dtype=bool))
    for upto in range(2 * N + 1):
        S = evolve(field, B, upto)
        assert S.level == upto
        assert S.count <= level_size(N, upto)
