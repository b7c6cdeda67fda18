"""Cross-route check of the one-step law: the drift enumerator against the
exact kernel.

`drift._Enumerator` and `exact.build_kernel` each encode one update of the
embedded chain (a uniform zero site, then an i.i.d. resample of its closed
neighbourhood), independently of each other.  For every state with a zero,
the drift scan's expected changes, averaged over the state's zero sites,
must equal one kernel step applied to the weight function F = n1 +
(1-h) n2 and to the zero count Z.  The two routes sum their floats in
different orders, so they agree to rounding (under 5e-15 on these graphs),
not bit for bit; a relative change of 1e-6 in one mark weight of either
route moves the difference past the 1e-12 tolerance.
"""
import numpy as np
import pytest

from bslab.drift import _Enumerator, classify_zeros, lyapunov_f
from bslab.dynamics import ModelParams
from bslab.exact import build_kernel
from bslab.graphs import parse_graph_spec

CASES = [("cycle:8", 0.3), ("torus2d:3x3", 0.15), ("complete:5", 0.2), ("path:7", 0.3)]
H = 0.3
TOL = 1e-12


@pytest.mark.parametrize("spec,q", CASES)
def test_drift_scan_matches_one_kernel_step(spec, q):
    g = parse_graph_spec(spec)
    n = g.num_vertices
    params = ModelParams.from_q(q)
    full = (1 << n) - 1
    states = np.arange(1 << n, dtype=np.int64)

    # drift route: per-state sums over zero sites, then the uniform average
    enum = _Enumerator(g, params, H)
    sum_f = np.zeros(1 << n)
    sum_n = np.zeros(1 << n)
    zeros = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        at = states[((states >> v) & 1) == 0]
        arrays = enum.site_arrays(at, v)
        sum_f[at] += arrays[7]  # drift_f
        sum_n[at] += arrays[8]  # drift_n
        zeros[at] += 1
    with_zero = states[:full]
    assert (zeros[with_zero] > 0).all() and zeros[full] == 0
    drift_f = sum_f[with_zero] / zeros[with_zero]
    drift_n = sum_n[with_zero] / zeros[with_zero]

    # kernel route: one step of P on F and on Z
    kernel = build_kernel(g, params).kernel
    bits = (states[:, None] >> np.arange(n)) & 1
    F = np.array([lyapunov_f(classify_zeros(g, row)[0], H) for row in bits])
    Z = (n - bits.sum(axis=1)).astype(np.float64)
    kernel_f = (kernel @ F - F)[with_zero]
    kernel_n = (kernel @ Z - Z)[with_zero]

    assert np.abs(drift_f - kernel_f).max() <= TOL
    assert np.abs(drift_n - kernel_n).max() <= TOL
    # the drifts vary from state to state, so the check is not vacuous
    assert drift_f.max() - drift_f.min() > 0.1
