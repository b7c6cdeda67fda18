"""The batched strip estimators and the lean per-sample propagation path
against the loops they replaced, exactly: the per-sample theta sweep and
good-level loops, the per-vertex event merge, the per-stick niceness
evaluator and the copying batch sampler (all in oracle_utils)."""
import numpy as np
import pytest

from bslab import percolation
from bslab.blocks import (
    Block2,
    Block4,
    block2_is_nice,
    block2_proposition_check,
    block4_is_nice,
    block4_propagation_check,
)
from bslab.bounds import hat_L, tilde_L
from bslab.dynamics import (
    GraphicalConstruction,
    ModelParams,
    _merged_events,
    sample_graphical,
    sample_graphical_batch,
)
from bslab.graphs import closed_neighbourhood, parse_graph_spec, shortest_path
from bslab.percolation import (
    _CHUNK_DOUBLES,
    LevelSet,
    level_size,
    prob_connect_theta_sweep,
    prob_good_level,
    sites_at_level,
)
from bslab.rng import substream
from oracle_utils import (
    block2_is_nice_oracle,
    block4_is_nice_oracle,
    merged_events_oracle,
    prob_connect_theta_sweep_oracle,
    prob_good_level_oracle,
    propagation_check_oracle,
    sample_graphical_batch_oracle,
)

THETAS = [0.0, 0.35, 0.9, 0.97, 1.0]


def _bonds(N: int, K: int) -> int:
    return sum(level_size(N, n) for n in range(K * N))


@pytest.mark.parametrize("n_samples", [2, 3])
@pytest.mark.parametrize("N, K", [(1, 1), (1, 4), (2, 3), (3, 1), (3, 2), (6, 1), (6, 3)])
def test_theta_sweep_matches_oracle(N, K, n_samples):
    """Even and odd level counts, x at a wall and inside, every target
    (some beyond the light cone, which takes the unreachable shortcut)."""
    levels = K * N
    for x in sorted({0, 2 * (N // 2), 2 * N}):
        for y in sites_at_level(N, levels).tolist():
            for seed in (1, 2):
                args = (N, THETAS, K, x, y, n_samples, seed)
                assert prob_connect_theta_sweep(*args) == prob_connect_theta_sweep_oracle(*args)


@pytest.mark.parametrize("N, K, x, y, thetas", [
    (6, 3, 0, 0, [0.90, 0.93, 0.96, 0.99]),  # the percolation_sweep preset's strip
    (5, 3, 4, 5, THETAS),
])
def test_theta_sweep_matches_oracle_across_chunks(N, K, x, y, thetas):
    n_samples = 1500
    assert n_samples * 2 * _bonds(N, K) > _CHUNK_DOUBLES  # more than one chunk
    for seed in (3, 4):
        args = (N, thetas, K, x, y, n_samples, seed)
        assert prob_connect_theta_sweep(*args) == prob_connect_theta_sweep_oracle(*args)


@pytest.mark.parametrize("n_samples", [2, 3])
@pytest.mark.parametrize("N, K", [(1, 1), (1, 2), (2, 3), (3, 2), (5, 1), (5, 2)])
def test_good_level_matches_oracle(N, K, n_samples):
    """(1, 2) and (3, 2) end on levels of width 2 and 4, where h = 0.5 and
    0.75 put the (1-h)-good threshold exactly on a reachable fraction."""
    starts = ([0], list(range(0, 2 * N + 1, 2)), [], [2 * N])
    for ms in starts:
        B = LevelSet.from_sites(N, 0, ms)
        for theta in (0.0, 0.6, 0.95, 1.0):
            for h in (0.1, 0.5, 0.75, 0.8):
                args = (N, theta, K, h, B, n_samples, 7)
                assert prob_good_level(*args) == prob_good_level_oracle(*args)


def test_good_level_matches_oracle_across_chunks():
    N, K, n_samples = 6, 3, 1500
    assert n_samples * 2 * _bonds(N, K) > _CHUNK_DOUBLES
    B = LevelSet.from_sites(N, 0, sites_at_level(N, 0).tolist())
    for theta, h in ((0.95, 0.7), (0.8, 0.3)):
        args = (N, theta, K, h, B, n_samples, 9)
        assert prob_good_level(*args) == prob_good_level_oracle(*args)


@pytest.mark.parametrize("n_samples", [1, 0, -4])
def test_strip_estimators_draw_nothing_before_their_checks(monkeypatch, n_samples):
    def no_draws(*args):
        raise AssertionError("uniforms drawn before the checks")

    monkeypatch.setattr(percolation, "substream", no_draws)
    with pytest.raises(ValueError, match="at least two samples"):
        prob_connect_theta_sweep(3, [0.5], 1, 0, 5, n_samples, 1)  # target unreachable
    with pytest.raises(ValueError, match="at least two samples"):
        prob_connect_theta_sweep(3, [0.5], 2, 0, 0, n_samples, 1)
    with pytest.raises(ValueError, match="at least two samples"):
        prob_good_level(3, 0.9, 2, 0.5, LevelSet.from_sites(3, 0, [0, 2]), n_samples, 1)
    assert prob_connect_theta_sweep(3, [], 2, 0, 0, 10, 1) == {}  # no theta, nothing to draw


def _assert_same_events(gc):
    for got, want in zip(_merged_events(gc), merged_events_oracle(gc)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_merged_events_match_oracle():
    params = ModelParams(p=0.3)
    for spec in ("cycle:8", "torus2d:3x3", "path:4"):
        g = parse_graph_spec(spec)
        for seed in range(5):
            _assert_same_events(sample_graphical(g, params, 3.0, seed))
            _assert_same_events(sample_graphical(g, params, 3.0, seed, vertices=[1, 2]))
        for gc in sample_graphical_batch(g, params, 2.0, 50, 11, vertices=[0, 3]):
            _assert_same_events(gc)
    g = parse_graph_spec("cycle:5")
    _assert_same_events(sample_graphical(g, params, 1e-6, 1))  # most likely no event at all
    tie = GraphicalConstruction(
        1.0,
        (np.array([0.5]), np.array([]), np.array([0.5]), np.array([]), np.array([])),
        tuple(np.zeros((k, 3), dtype=np.uint8) for k in (1, 0, 1, 0, 0)),
        0,
        0,
    )
    for merge in (_merged_events, merged_events_oracle):
        with pytest.raises(ValueError, match="coincident"):
            merge(tie)


@pytest.mark.parametrize("vertices", [None, [4, 1, 2]])
def test_batch_sampler_matches_copying_oracle(vertices):
    """Views of the chunk arrays hold the values the copies held, also
    across the 4096-sample chunk boundary."""
    g = parse_graph_spec("cycle:5")
    args = (g, ModelParams(p=0.3), 0.7, 4100, 5)
    n = 0
    for got, want in zip(sample_graphical_batch(*args, vertices), sample_graphical_batch_oracle(*args, vertices)):
        assert (got.horizon, got.seed, got.replica) == (want.horizon, want.seed, want.replica)
        for a, b in zip(got.times + got.marks, want.times + want.marks):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        n += 1
    assert n == 4100


def _nice_pairs(g, p, L, blocks, n, seed, horizon, vertices=None):
    """(new, oracle) niceness of every block on every sampled construction."""
    out = []
    for gc in sample_graphical_batch(g, ModelParams(p=p), horizon, n, seed, vertices):
        for blk in blocks:
            if isinstance(blk, Block2):
                out.append((block2_is_nice(g, gc, blk), block2_is_nice_oracle(g, gc, blk)))
            else:
                out.append((block4_is_nice(g, gc, blk), block4_is_nice_oracle(g, gc, blk)))
    return out


@pytest.mark.parametrize("p", [0.01, 0.05, 0.2])
def test_block_niceness_matches_oracle_on_samples(p):
    g12, g16 = parse_graph_spec("cycle:12"), parse_graph_spec("cycle:16")
    torus = parse_graph_spec("torus2d:5x5")
    chain16 = tuple(range(12))
    path = shortest_path(torus, 0, 12).vertices
    L2, L4 = hat_L(0.01, 2), tilde_L(0.01, 2)  # larger p: more proposed ones
    pairs = []
    # one window, then two consecutive windows (level 2, t = L > 0)
    pairs += _nice_pairs(g12, p, L2, [Block2(1, 2, 1, L2), Block2(11, 0, 1, L2)], 300, 1, L2)
    pairs += _nice_pairs(g12, p, L2, [Block2(1, 2, 2, L2), Block2(5, 4, 1, L2)], 300, 2, 2 * L2)
    pairs += _nice_pairs(g16, p, L4, [Block4(chain16, 0, 0.0, L4), Block4(chain16, 8, 0.0, L4)], 300, 3, L4)
    pairs += _nice_pairs(g16, p, L4, [Block4(chain16, 4, L4, L4)], 300, 4, 2 * L4)
    # degree four, and a construction restricted to the block's neighbourhood
    L4t = tilde_L(0.01, 4)
    pairs += _nice_pairs(torus, p, L4t, [Block4(path, 0, 0.0, L4t), Block2(path[0], path[1], 1, L4t)], 300, 5, L4t)
    dep = sorted({u for v in chain16[:4] for u in closed_neighbourhood(g16, v)})
    pairs += _nice_pairs(g16, p, L4, [Block4(chain16, 0, 0.0, L4)], 300, 6, L4, vertices=dep)
    assert all(got == want for got, want in pairs)
    if p == 0.01:
        assert {want for _, want in pairs} == {True, False}


def _hand_gc(g, horizon, rings):
    """rings maps vertex -> [(time, {vertex: bit})], unmentioned bits zero."""
    times, marks = [], []
    for x in range(g.num_vertices):
        nbhd = closed_neighbourhood(g, x)
        entries = sorted(rings.get(x, ()), key=lambda e: e[0])
        mk = np.zeros((len(entries), len(nbhd)), dtype=np.uint8)
        for i, (_, proposal) in enumerate(entries):
            for v, bit in proposal.items():
                mk[i, nbhd.index(v)] = bit
        times.append(np.array([t for t, _ in entries]))
        marks.append(mk)
    return GraphicalConstruction(float(horizon), tuple(times), tuple(marks), 0, 0)


def test_block2_niceness_matches_oracle_with_rings_on_the_window_ends():
    """Window (1, 2]: a ring exactly at t0 lies outside it, one at t1 inside."""
    g = parse_graph_spec("cycle:6")
    blk = Block2(1, 2, 2, 1.0)
    base = {1: [(1.5, {})], 2: [(2.0, {})]}
    cases = {
        "t1 ring counts": (base, True),
        "only a t0 ring on a site": ({1: [(1.0, {})], 2: [(2.0, {})]}, False),
        "bad mark at t0 is outside": ({**base, 0: [(1.0, {1: 1})]}, True),
        "bad mark at t1 is inside": ({**base, 0: [(2.0, {1: 1})]}, False),
        "bad site mark at t1": ({1: [(1.5, {})], 2: [(2.0, {1: 1})]}, False),
        "one proposed off the demanded columns": ({**base, 3: [(2.0, {3: 1, 4: 1})]}, True),
    }
    for name, (rings, nice) in cases.items():
        gc = _hand_gc(g, 3.0, rings)
        assert block2_is_nice(g, gc, blk) == block2_is_nice_oracle(g, gc, blk) == nice, name
    # complete:6 has the same labels and other neighbourhoods: there 3 and 4
    # must propose zeros for both sites, so the cached spec of one graph
    # must not serve the other
    k6 = parse_graph_spec("complete:6")
    k6_cases = {
        "3 proposes a one for site 1": ({**base, 3: [(2.0, {1: 1})]}, False),
        "4 proposes a one for site 2": ({**base, 4: [(1.5, {2: 1})]}, False),
        "4 proposes a one for 5": ({**base, 4: [(1.5, {5: 1})]}, True),
    }
    for graph, graph_cases in ((g, cases), (k6, k6_cases), (g, cases), (k6, cases)):
        for name, (rings, nice) in graph_cases.items():
            gc = _hand_gc(graph, 3.0, rings)
            want = block2_is_nice_oracle(graph, gc, blk)
            assert block2_is_nice(graph, gc, blk) == want, name
            if graph_cases is k6_cases:
                assert want == nice, name


def test_block4_niceness_matches_oracle_with_a_shifted_window():
    """Window (0.5, 1.5] of a Block4 with t = 0.5."""
    g = parse_graph_spec("cycle:16")
    blk = Block4(tuple(range(12)), 2, 0.5, 1.0)  # sites 2, 3, 4, 5
    base = {2: [(0.6, {})], 3: [(0.7, {}), (0.9, {})], 4: [(0.8, {})], 5: [(0.55, {})]}
    cases = {
        "ordered rings": (base, True),
        "extreme rings only at t0": ({**base, 2: [(0.5, {})]}, False),
        "extreme ring at t1 breaks the order": ({**base, 2: [(1.5, {})]}, False),
        "middle ring at t1 completes the order": ({**base, 3: [(0.7, {}), (1.5, {})]}, True),
        "neighbour bad mark at t0 is outside": ({**base, 1: [(0.5, {2: 1})]}, True),
        "neighbour bad mark at t1 is inside": ({**base, 6: [(1.5, {5: 1})]}, False),
        "bad mark past t1 is outside": ({**base, 6: [(1.6, {5: 1})]}, True),
    }
    for name, (rings, nice) in cases.items():
        gc = _hand_gc(g, 2.0, rings)
        want = block4_is_nice_oracle(g, gc, blk)
        assert block4_is_nice(g, gc, blk) == want == nice, name


@pytest.mark.parametrize("flavor", ["two", "four"])
def test_propagation_check_matches_composed_oracle(flavor):
    """test_05's pair and four-block on 2000 seeded samples each: the lean
    check equals niceness and replay recomputed by their oracles, from
    test_05's bottom and from a random bottom per sample."""
    params = ModelParams(p=0.01)
    if flavor == "two":
        g, L = parse_graph_spec("cycle:12"), hat_L(0.01, 2)
        blk, check = Block2(1, 2, 1, L), block2_proposition_check
    else:
        g, L = parse_graph_spec("cycle:16"), tilde_L(0.01, 2)
        blk, check = Block4(tuple(range(12)), 0, 0.0, L), block4_propagation_check
    bottom = np.ones(g.num_vertices, dtype=np.uint8)
    bottom[blk.sites[0]] = 0
    rng = substream(205, 1)
    seen = set()
    for gc in sample_graphical_batch(g, params, L, 2000, 205):
        for cb in (bottom, (rng.random(g.num_vertices) < 0.5).astype(np.uint8)):
            got = check(g, gc, blk, cb)
            assert got == propagation_check_oracle(g, gc, blk, cb)
            seen.add((got.nice, got.applicable))
    assert seen == {(False, False), (True, False), (True, True)}
