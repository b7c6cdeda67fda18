import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bslab.bounds import (
    FORMULAS,
    block2_asymptote,
    block2_nice_lb,
    choose_h,
    cond_h_upper,
    domination_density,
    drift_bounds,
    evaluate_formula,
    h_window,
    hat_L,
    q0,
    q0_d2_closed_form,
    q0_highprec,
    q0_simple,
    stick_good_lb,
    theta_4block,
    theta_4block_highprec,
    theta_asymptote,
    tilde_L,
    T1,
    T2,
)


def test_stick_good_lb_formula():
    # independent recomputation for a grid of inputs
    for L in (0.5, 2.0, 7.3):
        for q in (0.3, 0.9, 0.999):
            for a in (0, 1, 2, 5):
                assert stick_good_lb(L, q, a) == pytest.approx(
                    math.exp(-L * (1 - q**a)), rel=1e-14
                )
    assert stick_good_lb(3.0, 0.5, 0) == 1.0
    with pytest.raises(ValueError):
        stick_good_lb(-1.0, 0.5, 2)
    with pytest.raises(ValueError):
        stick_good_lb(1.0, 1.5, 2)


@settings(max_examples=100, deadline=None)
@given(
    L=st.floats(0.0, 50.0),
    q=st.floats(0.01, 0.99),
    a=st.integers(0, 6),
)
def test_stick_good_lb_monotone_and_bounded(L, q, a):
    v = stick_good_lb(L, q, a)
    assert 0.0 <= v <= 1.0
    # shrinking the target set can only help
    assert stick_good_lb(L, q, a + 1) <= v + 1e-15
    # longer windows can only hurt
    assert stick_good_lb(L + 1.0, q, a) <= v + 1e-15


def test_block2_nice_lb_formula_and_clip():
    for L in (1.0, 4.0):
        for p in (0.01, 0.1):
            for d in (2, 4):
                q = 1 - p
                raw = math.exp(-2 * L * (d - 1) * p) * (
                    math.exp(-L * (1 - q * q)) - math.exp(-L)
                ) ** 2
                assert block2_nice_lb(L, p, d) == pytest.approx(raw, rel=1e-14)
    assert block2_nice_lb(0.0, 0.1, 2) == 0.0  # no time to ring


def test_hat_L_maximizes_block2_lb():
    for p in (0.01, 0.003, 1e-4):
        for d in (2, 4):
            L0 = hat_L(p, d)
            best = block2_nice_lb(L0, p, d)
            grid = np.linspace(0.2 * L0, 3.0 * L0, 400)
            vals = [block2_nice_lb(L, p, d) for L in grid]
            assert best >= max(vals) - 1e-12


def test_theta_4block_formula():
    for L in (5.0, 14.0):
        for p in (0.0015, 0.01):
            for d in (2, 4):
                q = 1 - p
                coeff = 2 * q**3 / 3 + 4 * q * q / 3 + (4 * d - 6) * q - (4 * d - 2)
                raw = (
                    math.exp(coeff * L)
                    * (math.exp(L * q * q / 3) - 1) ** 2
                    * (math.exp(L * q**3 / 3) - 1) ** 4
                )
                assert theta_4block(L, p, d) == pytest.approx(raw, rel=1e-12)


def test_theta_reproduces_published_value():
    val = theta_4block(14.0, 0.0015, 2)
    assert 0.726 < val < 0.74
    hp = theta_4block_highprec(14.0, 0.0015, 2)
    assert val == pytest.approx(hp, abs=1e-12)


def test_tilde_L_is_near_optimal_for_small_p():
    for p in (1e-3, 1e-4):
        for d in (2, 4):
            Lt = tilde_L(p, d)
            assert Lt == pytest.approx(3 * math.log(1 / (2 * p * d)), rel=1e-14)
            grid = np.linspace(0.5 * Lt, 2.0 * Lt, 600)
            best = max(theta_4block(L, p, d) for L in grid)
            assert theta_4block(Lt, p, d) >= 0.98 * best
    with pytest.raises(ValueError):
        tilde_L(0.3, 2)  # 2pd >= 1


def test_asymptote_residuals_scale_linearly_in_p():
    for d in (2, 4):
        for p in (1e-3, 1e-4, 1e-5, 1e-6):
            r2 = abs(block2_nice_lb(hat_L(p, d), p, d) - block2_asymptote(p, d)) / p
            r4 = abs(theta_4block(tilde_L(p, d), p, d) - theta_asymptote(p, d)) / p
            assert r2 <= 10.0
            assert r4 <= 150.0


def test_domination_density_values():
    assert domination_density(1e-4, 2) == pytest.approx(
        1 - 3 * math.sqrt(2 * 3 * 1e-4 * math.log(1e4)), rel=1e-14
    )
    assert domination_density(1e-4, 2) == pytest.approx(0.7769846686690096, abs=1e-12)
    assert domination_density(0.1, 2) < 0  # flagged, not raised


# ---------------------------------------------------------------------------
# weight window and thresholds

def test_weight_window_open_below_threshold():
    for d in (2, 3, 4):
        thr = q0(d)
        win = h_window(thr - 0.01, d)
        assert win is not None
        lo, hi = win
        assert 0 <= lo < hi <= 1
        h = choose_h(thr - 0.01, d)
        assert lo < h < hi
        assert h_window(thr + 0.01, d) is None
        with pytest.raises(ValueError):
            choose_h(thr + 0.01, d)


def test_window_edges_match_bound_signs():
    q, d = 0.35, 2
    lo, hi = h_window(q, d)
    eps = 1e-6
    inside = drift_bounds(q, d, 0.5 * (lo + hi))
    assert inside.type1_bound < 0
    assert inside.type2_bound is not None and inside.type2_bound < 0
    below = drift_bounds(q, d, max(lo - eps, 1e-9))
    assert below.type1_bound > 0 or lo == 0.0
    above = drift_bounds(q, d, hi + eps)
    assert above.type2_bound is None or above.type2_bound > 0


def test_window_matches_displayed_formula_when_denominator_positive():
    for q, d in ((0.3, 2), (0.38, 2), (0.18, 4)):
        lo, hi = h_window(q, d)
        assert lo == pytest.approx(max(T1(q, d), 0.0), abs=1e-15)
        assert hi == pytest.approx(min(1.0, T2(q, d), cond_h_upper(q, d)), abs=1e-15)


def test_q0_values():
    assert abs(q0(2) - 0.412) < 5e-4
    assert abs(q0(2) - q0_d2_closed_form()) < 1e-9
    assert abs(q0(4) - 0.2145549758) < 1e-9
    root = q0_d2_closed_form()
    assert root**3 - 7 * root**2 + 10 * root - 3 == pytest.approx(0.0, abs=1e-12)


def test_q0_highprec_agrees():
    for d in (2, 4):
        assert abs(q0(d) - q0_highprec(d)) < 1e-10
    assert abs(q0_highprec(2, dps=60) - q0_d2_closed_form()) < 1e-14


def test_q0_simple_values_and_ordering():
    assert q0_simple(2) == pytest.approx(0.3446457824128541, abs=1e-12)
    assert q0_simple(4) == pytest.approx(0.20084927221365803, abs=1e-12)
    for d in (2, 3, 4, 6):
        # the cruder threshold is more conservative
        assert 1 / (d + 1) < q0_simple(d) < q0(d)


def test_drift_bounds_fields():
    db = drift_bounds(0.3, 2, 0.2, frac_type2=0.5)
    assert db.cond_h_ok
    assert db.n_drift_bound == pytest.approx(3 * 0.3 - 1 - 0.5, abs=1e-15)
    too_big = drift_bounds(0.3, 2, 0.99)
    assert not too_big.cond_h_ok or too_big.type2_bound is not None
    db2 = drift_bounds(0.3, 2, cond_h_upper(0.3, 2) + 0.01)
    assert db2.type2_bound is None and not db2.cond_h_ok


# ---------------------------------------------------------------------------
# report layer

def test_evaluate_formula_reports():
    rep = evaluate_formula("stick_good_lb", L=5.0, q=0.99, a=3)
    assert rep.formula == "stick_good_lb"
    assert rep.inputs == {"L": 5.0, "q": 0.99, "a": 3}
    assert rep.value == pytest.approx(stick_good_lb(5.0, 0.99, 3), rel=1e-15)
    assert rep.flags == ()


def test_evaluate_formula_flags():
    rep = evaluate_formula("domination_density", p=0.1, d=2)
    assert "nonpositive_density" in rep.flags
    rep3 = evaluate_formula("T2", q=0.99, d=2)
    assert "denominator_nonpositive" in rep3.flags
    # each flag follows its rule on both sides of the edge
    seen = set()
    for p in (1e-6, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.9):
        for d in (2, 4):
            nonpositive = domination_density(p, d) <= 0.0
            rep = evaluate_formula("domination_density", p=p, d=d)
            assert rep.flags == (("nonpositive_density",) if nonpositive else ())
            seen.add(("density", nonpositive))
    for i in range(48):
        q = 0.05 + 0.02 * i
        for d in (2, 3, 4):
            den = 1 + d * (1 - q - q * q) + q * (1 - q) ** d
            rep = evaluate_formula("T2", q=q, d=d)
            assert rep.flags == (("denominator_nonpositive",) if den <= 0.0 else ())
            seen.add(("T2", den <= 0.0))
    assert seen == {("density", True), ("density", False), ("T2", True), ("T2", False)}
    # theta stays inside [0,1] across its whole domain; the flag is a
    # tripwire and must stay silent
    for L in (0.1, 5.0, 40.0, 200.0):
        for p in (1e-8, 1e-3, 0.3, 0.9):
            rep2 = evaluate_formula("theta_4block", L=L, p=p, d=2)
            assert 0.0 <= rep2.value <= 1.0
            assert rep2.flags == ()
            # the high-precision path runs the same formula; doubles only
            # lose relative accuracy where theta underflows (L=200, p=0.3)
            hp = theta_4block_highprec(L, p, 2)
            assert rep2.value == pytest.approx(hp, rel=1e-12, abs=1e-250)


def test_formula_table_matches_direct_calls():
    L, p, q, d, a = 5.0, 0.01, 0.99, 2, 3
    direct = {
        "stick_good_lb": ({"L": L, "q": q, "a": a}, stick_good_lb(L, q, a)),
        "block2_nice_lb": ({"L": L, "p": p, "d": d}, block2_nice_lb(L, p, d)),
        "hat_L": ({"p": p, "d": d}, hat_L(p, d)),
        "theta_4block": ({"L": L, "p": p, "d": d}, theta_4block(L, p, d)),
        "tilde_L": ({"p": p, "d": d}, tilde_L(p, d)),
        "block2_asymptote": ({"p": p, "d": d}, block2_asymptote(p, d)),
        "theta_asymptote": ({"p": p, "d": d}, theta_asymptote(p, d)),
        "domination_density": ({"p": p, "d": d}, domination_density(p, d)),  # < 0 here
        "T1": ({"q": q, "d": d}, T1(q, d)),
        "T2": ({"q": q, "d": d}, T2(q, d)),  # denominator < 0 here
        "q0_simple": ({"d": d}, q0_simple(d)),
        "q0": ({"d": d}, q0(d)),
    }
    flagged = {"domination_density": ("nonpositive_density",), "T2": ("denominator_nonpositive",)}
    assert tuple(FORMULAS) == tuple(direct)
    for name, (kwargs, value) in direct.items():
        rep = evaluate_formula(name, **kwargs)
        assert rep.formula == name
        assert rep.inputs == kwargs
        assert rep.value == value
        assert rep.flags == flagged.get(name, ())


def test_evaluate_formula_probability_range():
    for name in ("stick_good_lb", "block2_nice_lb"):
        for p in (0.001, 0.05):
            kwargs = {"L": 4.0, "p": p, "d": 2}
            if name == "stick_good_lb":
                kwargs = {"L": 4.0, "q": 1 - p, "a": 2}
            rep = evaluate_formula(name, **kwargs)
            assert 0.0 <= rep.value <= 1.0


def test_evaluate_formula_rejects_unknown():
    with pytest.raises(ValueError):
        evaluate_formula("not_a_formula", p=0.1)
    assert len(FORMULAS) == 12
    assert "q0" in FORMULAS and "theta_4block" in FORMULAS


@settings(max_examples=60, deadline=None)
@given(q=st.floats(0.05, 0.95), d=st.integers(2, 5))
def test_window_consistent_with_drift_bounds(q, d):
    win = h_window(q, d)
    if win is None:
        return
    h = 0.5 * (win[0] + win[1])
    db = drift_bounds(q, d, h)
    assert db.type1_bound < 1e-12
    assert db.type2_bound is not None
    assert db.type2_bound < 1e-12
