"""blocks.nice_probability, the exact niceness probability of the pair block
and the four-block: it agrees with an independent uniformization oracle,
both Monte Carlo routes (the direct samplers and the pathwise evaluator on
graphical constructions) land within 4 sigma of it, and the closed-form
lower bounds lie below it."""
import math

import numpy as np
import pytest

from bslab.blocks import (
    _chunk_is_nice,
    _nice_spec,
    nice_probability,
    sample_block2_stats,
    sample_block4_stats,
)
from bslab.bounds import block2_nice_lb, hat_L, theta_4block, tilde_L
from bslab.dynamics import ModelParams, _graphical_chunks
from bslab.graphs import closed_neighbourhood, parse_graph_spec
from oracle_utils import nice_probability_oracle

# each graph with a four-block's sites, a walk of four adjacent vertices;
# the pair block is its first two
CASES = [("cycle:16", (0, 1, 2, 3)), ("torus2d:4x4", (0, 1, 2, 6)), ("torus2d:3x3", (0, 1, 4, 7))]
PS = [0.005, 0.02, 0.05]
# sample counts, fixed before any run
N_DIRECT = 40_000
N_PATHWISE = 12_000


def _blocks(g, four, p):
    """(sites, L) of the pair block at hat_L and the four-block at tilde_L."""
    d = g.max_degree
    return ((four[:2], hat_L(p, d)), (four, tilde_L(p, d)))


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("spec,four", CASES)
def test_nice_probability_matches_the_uniformization_oracle(spec, four, p):
    g = parse_graph_spec(spec)
    for sites, L in _blocks(g, four, p):
        for length in (0.5, L, 3.0 * L):
            want = nice_probability_oracle(g, sites, p, length)
            assert nice_probability(g, sites, p, length) == pytest.approx(want, rel=1e-9, abs=1e-300)


def _pathwise_rate(g, params, sites, L, n, seed):
    """The niceness rate of `sites` over (0, L] on n graphical constructions."""
    wanted = sorted({u for v in sites for u in closed_neighbourhood(g, v)})
    col = {v: j for j, v in enumerate(wanted)}
    spec = _nice_spec(g, sites)
    hits = [_chunk_is_nice(chunk, col, spec, (0.0, L)) for chunk in _graphical_chunks(g, params, L, n, seed, wanted)]
    return float(np.concatenate(hits).mean())


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("spec,four", CASES)
def test_direct_and_pathwise_rates_lie_within_4_sigma_of_the_exact_value(spec, four, p):
    g, params = parse_graph_spec(spec), ModelParams(p=p)
    (pair, L2), (_, L4) = _blocks(g, four, p)
    seed = 300 + PS.index(p)
    direct = {
        pair: (L2, sample_block2_stats(g, params, *pair, L2, N_DIRECT, seed)),
        four: (L4, sample_block4_stats(g, params, four, 0, L4, N_DIRECT, seed)),
    }
    for sites, (L, stats) in direct.items():
        exact = nice_probability(g, sites, p, L)
        sigma = math.sqrt(exact * (1.0 - exact) / N_DIRECT)
        assert abs(stats.nice_rate - exact) <= 4.0 * sigma, (sites, "direct")
        rate = _pathwise_rate(g, params, sites, L, N_PATHWISE, seed)
        sigma = math.sqrt(exact * (1.0 - exact) / N_PATHWISE)
        assert abs(rate - exact) <= 4.0 * sigma, (sites, "pathwise")


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("spec,four", CASES)
def test_closed_form_bounds_lie_below_the_exact_value(spec, four, p):
    g = parse_graph_spec(spec)
    d = g.max_degree
    (pair, L2), (_, L4) = _blocks(g, four, p)
    for scale in (0.25, 1.0, 2.0):
        # on d-regular graphs without triangles the pair bound is the exact
        # value, which rounding puts up to 2.2e-16 either side
        assert block2_nice_lb(scale * L2, p, d) <= nice_probability(g, pair, p, scale * L2) + 1e-12
        assert theta_4block(scale * L4, p, d) <= nice_probability(g, four, p, scale * L4)


def test_nice_probability_refuses_bad_inputs():
    g = parse_graph_spec("cycle:8")
    for sites in ((0,), (0, 1, 2), (0, 1, 2, 3, 4)):
        with pytest.raises(ValueError, match="two sites"):
            nice_probability(g, sites, 0.1, 2.0)
    with pytest.raises(ValueError, match="not an edge"):
        nice_probability(g, (0, 2), 0.1, 2.0)
    for p in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="0 < p < 1"):
            nice_probability(g, (0, 1), p, 2.0)
    for L in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="window length"):
            nice_probability(g, (0, 1), 0.1, L)
