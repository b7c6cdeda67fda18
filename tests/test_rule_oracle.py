"""The shared chain walker and the spec-driven direct block samplers
against the code they replaced, exactly: the two chain searches and the
direct samplers on dict requirements (all in oracle_utils)."""
import pytest

from bslab import blocks
from bslab.blocks import _SAMPLE_CHUNK, sample_block2_stats, sample_block4_stats, sample_stick_stats
from bslab.bounds import hat_L, tilde_L
from bslab.dynamics import ModelParams
from bslab.graphs import (
    BudgetExceeded,
    chain_cover,
    closed_neighbourhood,
    longest_chain,
    parse_graph_spec,
    shortest_path,
)
from oracle_utils import (
    chain_cover_oracle,
    longest_chain_exact_oracle,
    sample_block2_stats_oracle,
    sample_block4_stats_oracle,
    sample_stick_stats_oracle,
)

CHAIN_SPECS = (
    [f"cycle:{n}" for n in range(3, 16)]
    + [f"path:{n}" for n in range(3, 12)]
    + [f"torus2d:{a}x{b}" for a in (3, 4) for b in (3, 4, 5)]
    + ["complete:5", "complete:6"]
    + [f"regular:{n}:3" for n in (8, 10, 12, 14)]
)


def _outcome(search, budget):
    try:
        return search(budget)
    except BudgetExceeded as exc:
        return ("BudgetExceeded", str(exc))


def _smallest_budget(search) -> int:
    """Smallest budget at which `search` does not raise BudgetExceeded."""
    lo, hi = -1, 1
    while isinstance(_outcome(search, hi), tuple):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if isinstance(_outcome(search, mid), tuple):
            lo = mid
        else:
            hi = mid
    return hi


def _assert_same_at_budget_edge(search, oracle):
    """Equal results at the oracle's smallest workable budget, and the same
    BudgetExceeded one extension below it."""
    b0 = _smallest_budget(oracle)
    assert search(b0) == oracle(b0)
    if b0 > 0:
        below = _outcome(oracle, b0 - 1)
        assert isinstance(below, tuple)
        assert _outcome(search, b0 - 1) == below


@pytest.mark.parametrize("spec", CHAIN_SPECS)
def test_longest_chain_matches_oracle(spec):
    g = parse_graph_spec(spec, seed=3)
    for anchor in (None, 0, g.num_vertices - 1):
        _assert_same_at_budget_edge(
            lambda b: longest_chain(g, anchor=anchor, budget=b),
            lambda b: longest_chain_exact_oracle(g, anchor, b),
        )


@pytest.mark.parametrize("spec", CHAIN_SPECS)
def test_chain_cover_matches_oracle(spec):
    g = parse_graph_spec(spec, seed=3)
    for min_len in range(2, 7):
        _assert_same_at_budget_edge(
            lambda b: chain_cover(g, min_len, budget=b),
            lambda b: chain_cover_oracle(g, min_len, b),
        )


def _block_bounds_cells():
    """The (graph, chain, p) cells of the block_bounds preset."""
    for d, spec in ((2, "cycle:12"), (4, "torus2d:5x5")):
        g = parse_graph_spec(spec)
        chain = tuple(range(10)) if d == 2 else shortest_path(g, 0, 12).vertices
        for p in (0.02, 0.01, 0.005, 0.0015):
            yield d, g, chain, ModelParams(p=p)


def _assert_samplers_match(d, g, chain, params, n, seed):
    Lh, Lt = hat_L(params.p, d), tilde_L(params.p, d)
    for A in (closed_neighbourhood(g, chain[0]), (chain[1], chain[0])):
        args = (g, params, chain[0], A, Lh, n, seed)
        assert sample_stick_stats(*args) == sample_stick_stats_oracle(*args)
    for x, y in ((chain[0], chain[1]), (chain[2], chain[1])):
        args = (g, params, x, y, Lh, n, seed)
        assert sample_block2_stats(*args) == sample_block2_stats_oracle(*args)
    for k0 in (0, 1):
        args = (g, params, chain, k0, Lt, n, seed)
        assert sample_block4_stats(*args) == sample_block4_stats_oracle(*args)


@pytest.mark.parametrize("n_samples", [2, 3, 2000])
def test_direct_samplers_match_oracle(n_samples):
    for d, g, chain, params in _block_bounds_cells():
        for seed in (1, 2):
            _assert_samplers_match(d, g, chain, params, n_samples, seed)


def test_direct_samplers_match_oracle_across_chunks():
    for d, g, chain, params in _block_bounds_cells():
        if params.p == 0.02:
            _assert_samplers_match(d, g, chain, params, _SAMPLE_CHUNK + 17, 5)


@pytest.mark.parametrize("n_samples", [1, 0])
def test_direct_samplers_draw_nothing_before_their_checks(monkeypatch, n_samples):
    def no_draws(*args):
        raise AssertionError("samples drawn before the checks")

    monkeypatch.setattr(blocks, "substream", no_draws)
    g = parse_graph_spec("cycle:12")
    params = ModelParams(p=0.01)
    with pytest.raises(ValueError, match="at least two samples"):
        sample_stick_stats(g, params, 0, (0, 1), 5.0, n_samples, 1)
    with pytest.raises(ValueError, match="at least two samples"):
        sample_block2_stats(g, params, 0, 1, 5.0, n_samples, 1)
    with pytest.raises(ValueError, match="at least two samples"):
        sample_block4_stats(g, params, range(10), 0, 5.0, n_samples, 1)
