"""Closed-form bounds and thresholds for the zero/one dynamics.

All functions are pure and evaluate the displayed formulas exactly;
nothing here simulates.  Monte Carlo and exact-solve modules cross-check
these values from independent routes.  q denotes the per-bit probability
of a zero, q = 1 - p, and d the (maximum) degree.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable

__all__ = [
    "stick_good_lb",
    "block2_nice_lb",
    "hat_L",
    "theta_4block",
    "tilde_L",
    "block2_asymptote",
    "theta_asymptote",
    "domination_density",
    "T1",
    "T2",
    "cond_h_upper",
    "h_window",
    "choose_h",
    "q0",
    "q0_d2_closed_form",
    "q0_simple",
    "drift_bounds",
    "DriftBounds",
    "theta_4block_highprec",
    "q0_highprec",
    "BoundReport",
    "Formula",
    "evaluate_formula",
    "FORMULAS",
]


def _check_pd(p: float, d: int, name: str = "p") -> None:
    if not (0.0 < p < 1.0):
        raise ValueError(f"{name} must lie strictly between 0 and 1")
    if d < 1:
        raise ValueError("d must be a positive integer")


def _check_L(L: float) -> None:
    if not 0 <= L < math.inf:
        raise ValueError("L must be nonnegative and finite")


def stick_good_lb(L: float, q: float, a: int) -> float:
    """P(a stick of length L proposes zeros on a target set of size a):
    exp(-L (1 - q^a))."""
    _check_L(L)
    if not (0.0 < q < 1.0) or a < 0:
        raise ValueError("need 0 < q < 1, a >= 0")
    return math.exp(-L * (1.0 - q**a))


def block2_nice_lb(L: float, p: float, d: int) -> float:
    """Lower bound for a two-block being nice, clipped to [0, 1]:
    exp(-2L(d-1)p) (exp(-L(1-q^2)) - exp(-L))^2."""
    _check_pd(p, d)
    _check_L(L)
    q = 1.0 - p
    val = math.exp(-2.0 * (L * (d - 1) * p)) * (math.exp(-L * (1.0 - q * q)) - math.exp(-L)) ** 2
    return min(max(val, 0.0), 1.0)


def hat_L(p: float, d: int) -> float:
    """Window length maximizing block2_nice_lb:
    (1/q^2) ln(1 + q^2 / ((q + d) p))."""
    _check_pd(p, d)
    q = 1.0 - p
    return math.log1p(q * q / ((q + d) * p)) / (q * q)


def theta_4block(L: float, p: float, d: int) -> float:
    """Lower bound for a four-block being nice:
    exp((2q^3/3 + 4q^2/3 + (4d-6)q - (4d-2)) L)
    (exp(L q^2 / 3) - 1)^2 (exp(L q^3 / 3) - 1)^4."""
    _check_pd(p, d)
    _check_L(L)
    q = 1.0 - p
    try:
        val = _theta_4block(L, q, d, math)
    except OverflowError:
        val = math.inf
    if L == 0.0 or sys.float_info.min <= val <= 1.0:
        return val
    # The product under- or overflowed on the way, or q = 1 - p rounded up
    # so far that the bound passed 1.  Taking exp(x) out of
    # each expm1(x) leaves the same formula as
    # exp(-L p (4(d+1) - 8p + 2p^2)) (1 - exp(-L q^2/3))^2 (1 - exp(-L q^3/3))^4,
    # whose exponents no longer cancel, so it is summed in log space.
    log_val = -L * p * (4 * (d + 1) - 8 * p + 2 * p * p)
    return math.exp(log_val + 2 * _log1mexp(L * q * q / 3) + 4 * _log1mexp(L * q**3 / 3))


def _theta_4block(L, q, d: int, num):
    """theta_4block's formula over the exp/expm1 of `num` (math or mpmath)."""
    coeff = 2 * q**3 / 3 + 4 * q * q / 3 + (4 * d - 6) * q - (4 * d - 2)
    return num.exp(coeff * L) * num.expm1(L * q * q / 3) ** 2 * num.expm1(L * q**3 / 3) ** 4


def _log1mexp(x: float) -> float:
    """log(1 - exp(-x)) for x >= 0; -inf at x = 0."""
    return math.log(-math.expm1(-x)) if x > 0.0 else -math.inf


def tilde_L(p: float, d: int) -> float:
    """Near-optimal four-block window: 3 ln(1 / (2 p d))."""
    _check_pd(p, d)
    if 2.0 * p * d >= 1.0:
        raise ValueError("tilde_L needs 2 p d < 1")
    return 3.0 * math.log(1.0 / (2.0 * p * d))


def block2_asymptote(p: float, d: int) -> float:
    """Small-p expansion of block2_nice_lb(hat_L): 1 - 2(d+1) p ln(1/p)."""
    _check_pd(p, d)
    return 1.0 - 2.0 * (d + 1) * p * math.log(1.0 / p)


def theta_asymptote(p: float, d: int) -> float:
    """Small-p expansion of theta_4block(tilde_L): 1 - 12(d+1) p ln(1/p)."""
    _check_pd(p, d)
    return 1.0 - 12.0 * (d + 1) * p * math.log(1.0 / p)


def domination_density(p: float, d: int) -> float:
    """Density of the dominated product field:
    1 - 3 sqrt(2 (d+1) p ln(1/p)).  May be negative for large p; the
    report path flags that instead of raising."""
    _check_pd(p, d)
    return 1.0 - 3.0 * math.sqrt(2.0 * (d + 1) * p * math.log(1.0 / p))


def T1(q: float, d: int) -> float:
    """Lower edge of the drift weight window:
    (q(d+1) - 1) / (d q^2 + q(1 - (1-q)^d))."""
    _check_pd(q, d, "q")
    return (q * (d + 1) - 1.0) / _progeny_type2_lb(q, d)


def _progeny_type2_lb(q: float, d: int) -> float:
    """Lower bound d q^2 + q(1 - (1-q)^d) on the expected type-2 progeny
    of an update at a degree-d site."""
    return d * q * q + q * (1.0 - (1.0 - q) ** d)


def T2(q: float, d: int) -> float:
    """Ratio (2 - q(d+1)) / (1 + d(1 - q - q^2) + q(1-q)^d).

    This is the type-2 negativity edge only while the denominator is
    positive; h_window handles the sign change."""
    _check_pd(q, d, "q")
    return (2.0 - q * (d + 1)) / _t2_den(q, d)


def _t2_den(q: float, d: int) -> float:
    return 1.0 + d * (1.0 - q - q * q) + q * (1.0 - q) ** d


def cond_h_upper(q: float, d: int) -> float:
    """Weight ceiling 1 / (q + d - d q) from the type-2 reduction."""
    return 1.0 / (q + d - d * q)


def h_window(q: float, d: int) -> tuple[float, float] | None:
    """Feasible weights h in (0,1): both typed drift bounds negative and
    h below cond_h_upper.  Returns (lo, hi) or None when empty.

    While the T2 denominator is positive the window is the displayed
    (T1, min(1, T2, 1/(q+d-dq))); when it turns negative the type-2
    condition h*den < 2-q(d+1) flips into a lower bound (or into no
    constraint if 2-q(d+1) >= 0).  Plain arithmetic only, so q0_highprec
    can run it on mpmath numbers.
    """
    lo = max(T1(q, d), 0.0)
    hi = min(1.0, cond_h_upper(q, d))
    num = 2.0 - q * (d + 1)
    den = _t2_den(q, d)
    if den > 0.0:
        hi = min(hi, num / den)
    elif den == 0.0:
        if num <= 0.0:
            return None
    else:
        if num < 0.0:
            lo = max(lo, num / den)
        elif num == 0.0:
            return None
    if lo < hi:
        return (lo, hi)
    return None


def choose_h(q: float, d: int) -> float:
    """Midpoint of the feasible weight window; error when empty."""
    win = h_window(q, d)
    if win is None:
        raise ValueError(f"no feasible weight h for q={q}, d={d}")
    return 0.5 * (win[0] + win[1])


# width at which the q0 bisection stops
_Q0_TOL = 1e-12


def _check_q0_d(d: int) -> None:
    if d < 2:
        raise ValueError("d must be at least 2")


def _check_q0_bracket(lo, d: int) -> None:
    """The bisection's low end 1/(d+1) + 1e-9 must see a nonempty window;
    above d = 1176, q0 - 1/(d+1) is below that offset."""
    if h_window(lo, d) is None:
        raise ValueError(f"the weight window is empty at 1/(d+1) + 1e-9, so q0 is not resolved for d = {d}")


def q0(d: int) -> float:
    """Largest q below which the weight window is nonempty (bisection)."""
    _check_q0_d(d)
    lo = 1.0 / (d + 1) + 1e-9
    hi = 1.0 - 1e-12
    _check_q0_bracket(lo, d)
    if h_window(hi, d) is not None:
        raise RuntimeError("window unexpectedly nonempty near q=1")
    while hi - lo > _Q0_TOL:
        mid = 0.5 * (lo + hi)
        if h_window(mid, d) is None:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def q0_d2_closed_form() -> float:
    """Trigonometric real root of q^3 - 7q^2 + 10q - 3 (the degree-2
    window-closing point): 7/3 - (2 sqrt(19)/3) sin(arctan(9 sqrt(107)/137)/3 + pi/6)."""
    return 7.0 / 3.0 - (2.0 * math.sqrt(19.0) / 3.0) * math.sin(
        math.atan(9.0 * math.sqrt(107.0) / 137.0) / 3.0 + math.pi / 6.0
    )


def q0_simple(d: int) -> float:
    """Cruder threshold from the untyped drift at h = 1/(d^2+3):
    1 / (d + 1 - 4h (d + 1 + sqrt((d+1)^2 - 8h))^{-1})."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    h = 1.0 / (d * d + 3.0)
    root = math.sqrt((d + 1.0) ** 2 - 8.0 * h)
    return 1.0 / (d + 1.0 - 4.0 * h / (d + 1.0 + root))


@dataclass(frozen=True)
class DriftBounds:
    type1_bound: float
    type2_bound: float | None
    n_drift_bound: float
    cond_h_ok: bool


def drift_bounds(q: float, d: int, h: float, frac_type2: float = 0.0) -> DriftBounds:
    """Evaluate the displayed drift bounds at weight h.

    type1: q(d+1) - h(d q^2 + q(1-(1-q)^d)) - 1.
    type2: q(d+1) - 2 + h(1 + d(1-q-q^2) + q(1-q)^d), valid only under
    h < 1/(q+d-dq) (None otherwise).
    n_drift: (d+1) q - 1 - frac_type2, the particle-count drift bound at
    the given type-2 fraction n2/(n1+n2).
    """
    if not (0.0 < q < 1.0):
        raise ValueError("q must lie strictly between 0 and 1")
    if not (0.0 <= frac_type2 <= 1.0):
        raise ValueError("frac_type2 must lie in [0, 1]")
    t1 = q * (d + 1) - h * _progeny_type2_lb(q, d) - 1.0
    ok = h < cond_h_upper(q, d)
    t2 = q * (d + 1) - 2.0 + h * _t2_den(q, d) if ok else None
    nd = (d + 1) * q - 1.0 - frac_type2
    return DriftBounds(t1, t2, nd, ok)


def theta_4block_highprec(L: float, p: float, d: int, dps: int = 40) -> float:
    """theta_4block evaluated with mpmath at `dps` digits (128-bit class
    cross-check path)."""
    import mpmath as mp  # slow to import; only the cross-check paths need it

    _check_pd(p, d)
    _check_L(L)
    if dps < 1:
        raise ValueError("dps must be >= 1")
    with mp.workdps(dps):
        q = mp.mpf(1) - mp.mpf(repr(p))
        return float(_theta_4block(mp.mpf(repr(L)), q, d, mp))


def q0_highprec(d: int, dps: int = 40) -> float:
    """q0 bisection on h_window itself, run on mpmath numbers at `dps` digits."""
    _check_q0_d(d)
    import mpmath as mp  # slow to import; only the cross-check paths need it

    if dps < 1:
        raise ValueError("dps must be >= 1")
    with mp.workdps(dps):
        lo = mp.mpf(1) / (d + 1) + mp.mpf("1e-9")
        hi = mp.mpf(1) - mp.mpf("1e-20")
        _check_q0_bracket(lo, d)
        for _ in range(200):
            mid = (lo + hi) / 2
            if h_window(mid, d) is None:
                hi = mid
            else:
                lo = mid
        return float((lo + hi) / 2)


@dataclass(frozen=True)
class BoundReport:
    formula: str
    inputs: dict
    value: float
    flags: tuple[str, ...]


@dataclass(frozen=True)
class Formula:
    """A named formula: its function, the input names it takes in call
    order, and an optional validity flag raised when `flagged(value,
    *args)` holds."""

    fn: Callable[..., float]
    inputs: tuple[str, ...]
    flag: str | None = None
    flagged: Callable[..., bool] | None = None


FORMULAS = MappingProxyType({
    "stick_good_lb": Formula(stick_good_lb, ("L", "q", "a")),
    "block2_nice_lb": Formula(block2_nice_lb, ("L", "p", "d")),
    "hat_L": Formula(hat_L, ("p", "d")),
    "theta_4block": Formula(
        theta_4block, ("L", "p", "d"), "outside_unit_interval", lambda v, L, p, d: not (0.0 <= v <= 1.0)
    ),
    "tilde_L": Formula(tilde_L, ("p", "d")),
    "block2_asymptote": Formula(block2_asymptote, ("p", "d")),
    "theta_asymptote": Formula(theta_asymptote, ("p", "d")),
    "domination_density": Formula(
        domination_density, ("p", "d"), "nonpositive_density", lambda v, p, d: v <= 0.0
    ),
    "T1": Formula(T1, ("q", "d")),
    "T2": Formula(T2, ("q", "d"), "denominator_nonpositive", lambda v, q, d: _t2_den(q, d) <= 0.0),
    "q0_simple": Formula(q0_simple, ("d",)),
    "q0": Formula(q0, ("d",)),
})


def evaluate_formula(formula: str, **inputs) -> BoundReport:
    """Evaluate a named formula of FORMULAS into a report with validity flags."""
    f = FORMULAS.get(formula)
    if f is None:
        raise ValueError(f"unknown formula {formula!r}")
    args = [inputs[k] for k in f.inputs]
    value = f.fn(*args)
    flags = (f.flag,) if f.flagged is not None and f.flagged(value, *args) else ()
    return BoundReport(formula, dict(inputs), float(value), flags)
