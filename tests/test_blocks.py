"""Tests for stick goodness, block niceness, propagation and the strip map."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bslab import blocks
from bslab.blocks import (
    INDEPENDENCE_CELLS,
    Block2,
    Block4,
    BlockGrid,
    IndependenceReport,
    Stick,
    _nice_spec,
    _rings_in_order,
    block2_is_nice,
    block2_proposition_check,
    block4_independence_check,
    block4_is_nice,
    block4_propagation_check,
    block4_ring_pattern_sufficient,
    blocks_separated,
    chain_to_percolation,
    coupling_check,
    required_goods,
    ring_count,
    sample_block2_stats,
    sample_block4_stats,
    sample_stick_stats,
    stick_is_good,
)
from bslab.bounds import block2_nice_lb, hat_L, stick_good_lb, theta_4block, tilde_L
from bslab.dynamics import (
    GraphicalConstruction,
    ModelParams,
    replay,
    sample_graphical,
    sample_graphical_batch,
)
from bslab.graphs import closed_neighbourhood, generate, parse_graph_spec
from bslab.percolation import level_size

from oracle_utils import _has_increasing_rings_oracle as _has_increasing_rings
from oracle_utils import (
    block2_is_nice_oracle,
    block4_is_nice_oracle,
    required_goods_pair,
    required_goods_quad,
)


def make_gc(g, horizon, rings):
    """Hand-built construction: rings maps vertex -> [(time, {vertex: bit})],
    with unmentioned proposal bits zero."""
    times, marks = [], []
    for x in range(g.num_vertices):
        nbhd = closed_neighbourhood(g, x)
        entries = sorted(rings.get(x, ()), key=lambda e: e[0])
        ts = np.array([t for t, _ in entries])
        mk = np.zeros((len(entries), len(nbhd)), dtype=np.uint8)
        for i, (_, proposal) in enumerate(entries):
            for v, bit in proposal.items():
                mk[i, nbhd.index(v)] = bit
        times.append(ts)
        marks.append(mk)
    return GraphicalConstruction(
        horizon=float(horizon), times=tuple(times), marks=tuple(marks), seed=0, replica=0
    )


def dense_zero_gc(g, horizon, dt=0.1):
    """Rings on a fine grid for every vertex, every proposal zero."""
    rings = {
        x: [(t, {}) for t in np.arange(dt, horizon + 1e-9, dt)]
        for x in range(g.num_vertices)
    }
    return make_gc(g, horizon, rings)


def test_dataclass_validation_and_windows():
    assert Stick(4, 3, 0.5).window == (1.0, 1.5)
    assert Block2(0, 1, 2, 2.0).window == (2.0, 4.0)
    b4 = Block4((5, 6, 7, 8, 9), 1, 1.5, 1.0)
    assert b4.sites == (6, 7, 8, 9)
    assert b4.window == (1.5, 2.5)
    with pytest.raises(ValueError):
        Stick(0, 0, 1.0)
    with pytest.raises(ValueError):
        Stick(0, 1, 0.0)
    with pytest.raises(ValueError):
        Block2(3, 3, 1, 1.0)
    with pytest.raises(ValueError):
        Block2(0, 1, 0, 1.0)
    with pytest.raises(ValueError):
        Block4((0, 1, 2, 3), 1, 0.0, 1.0)
    with pytest.raises(ValueError):
        Block4((0, 1, 2, 3), 0, -0.5, 1.0)


def test_ring_count_half_open_window():
    g = generate("cycle", 6)
    gc = make_gc(g, 2.0, {2: [(0.0, {}), (0.5, {}), (1.0, {})]})
    assert ring_count(gc, 2, (0.0, 1.0)) == 2  # t = 0 excluded, t = 1 included
    assert ring_count(gc, 2, (1.0, 2.0)) == 0
    assert ring_count(gc, 1, (0.0, 2.0)) == 0


def test_stick_goodness_semantics():
    g = generate("cycle", 6)
    gc = make_gc(g, 1.0, {2: [(0.5, {3: 1})]})
    s = Stick(2, 1, 1.0)
    assert stick_is_good(g, gc, s, [1, 2])
    assert not stick_is_good(g, gc, s, [3])
    assert not stick_is_good(g, gc, s, [2, 3])
    assert stick_is_good(g, gc, s, [])
    # no rings in the window: vacuously good
    assert stick_is_good(g, make_gc(g, 1.0, {}), s, [1, 2, 3])
    with pytest.raises(ValueError):
        stick_is_good(g, gc, s, [5])  # outside the closed neighbourhood
    with pytest.raises(ValueError):
        stick_is_good(g, gc, Stick(2, 2, 1.0), [2])  # past the horizon


def test_stick_goodness_at_the_window_ends():
    """Window (1, 2] of Stick(2, 2, 1.0): a one proposed at t0 is outside
    it, one proposed at t1 inside."""
    g = generate("cycle", 6)
    s = Stick(2, 2, 1.0)
    assert stick_is_good(g, make_gc(g, 3.0, {2: [(1.0, {3: 1})]}), s, [3])
    assert not stick_is_good(g, make_gc(g, 3.0, {2: [(2.0, {3: 1})]}), s, [3])
    assert stick_is_good(g, make_gc(g, 3.0, {2: [(1.0, {3: 1}), (2.0, {1: 1})]}), s, [2, 3])
    assert not stick_is_good(g, make_gc(g, 3.0, {2: [(1.0, {}), (2.0, {1: 1})]}), s, [1])


def test_stick_goodness_monotone_in_set():
    g = generate("cycle", 6)
    params = ModelParams(p=0.3)
    nbhd = closed_neighbourhood(g, 2)
    s = Stick(2, 1, 1.0)
    for gc in sample_graphical_batch(g, params, 1.0, 40, 3, vertices=[2]):
        goods = {}
        for r in range(len(nbhd) + 1):
            for A in itertools.combinations(nbhd, r):
                goods[A] = stick_is_good(g, gc, s, A)
        for A, ok_a in goods.items():
            for B, ok_b in goods.items():
                if set(A) <= set(B) and ok_b:
                    assert ok_a


def test_required_goods_pair_exact():
    g = generate("cycle", 12)
    req = required_goods(g, (2, 3))
    assert req == {
        2: frozenset({2, 3}),
        3: frozenset({2, 3}),
        1: frozenset({2}),
        4: frozenset({3}),
    }


def test_required_goods_quad_exact():
    g = generate("cycle", 16)
    req = required_goods(g, (0, 1, 2, 3))
    assert req == {
        0: frozenset({0, 1}),
        1: frozenset({0, 1, 2}),
        2: frozenset({1, 2, 3}),
        3: frozenset({2, 3}),
        15: frozenset({0}),
        4: frozenset({3}),
    }


def _walks(g, length):
    """Every walk of `length` distinct sites whose consecutive sites are adjacent."""
    walks = [(v,) for v in range(g.num_vertices)]
    for _ in range(length - 1):
        walks = [w + (u,) for w in walks for u in g.adjacency[w[-1]] if u not in w]
    return walks


def test_required_goods_is_the_pair_and_four_block_rules():
    """One rule gives the same demands, in the same key order, as the two
    rules it replaced, chords and common neighbours included."""
    specs = ("cycle:5", "cycle:8", "path:7", "torus2d:3x3", "torus2d:3x4", "torus2d:4x4",
             "complete:5")
    checked = 0
    for g in map(parse_graph_spec, specs):
        for sites in _walks(g, 2):
            want = required_goods_pair(g, *sites)
            assert list(required_goods(g, sites).items()) == list(want.items())
            checked += 1
        for sites in _walks(g, 4):
            want = required_goods_quad(g, sites)
            assert list(required_goods(g, sites).items()) == list(want.items())
            checked += 1
    assert checked == 1632


def test_blocks_separated():
    g = generate("cycle", 12)
    a = Block2(0, 1, 1, 1.0)
    assert blocks_separated(g, a, Block2(4, 5, 1, 1.0))
    assert not blocks_separated(g, a, Block2(3, 4, 1, 1.0))
    assert not blocks_separated(g, a, Block2(1, 2, 1, 1.0))


def test_block2_niceness_deterministic():
    g = generate("cycle", 6)
    blk = Block2(1, 2, 1, 1.0)
    base = {
        1: [(0.3, {})],
        2: [(0.5, {})],
        0: [(0.7, {0: 1, 5: 1})],  # proposal for 1 stays zero
    }
    assert block2_is_nice(g, make_gc(g, 1.0, base), blk)
    bad_mark = dict(base)
    bad_mark[2] = [(0.5, {1: 1})]
    assert not block2_is_nice(g, make_gc(g, 1.0, bad_mark), blk)
    no_ring = {k: v for k, v in base.items() if k != 1}
    assert not block2_is_nice(g, make_gc(g, 1.0, no_ring), blk)
    nbr_bad = dict(base)
    nbr_bad[3] = [(0.9, {2: 1})]
    assert not block2_is_nice(g, make_gc(g, 1.0, nbr_bad), blk)
    nbr_ok = dict(base)
    nbr_ok[3] = [(0.9, {2: 0, 3: 1, 4: 1})]
    assert block2_is_nice(g, make_gc(g, 1.0, nbr_ok), blk)
    with pytest.raises(ValueError):
        block2_is_nice(g, make_gc(g, 1.0, base), Block2(1, 3, 1, 1.0))


def test_block4_niceness_deterministic():
    g = generate("cycle", 16)
    chain = tuple(range(12))
    blk = Block4(chain, 0, 0.0, 1.0)
    base = {
        0: [(0.1, {})],
        1: [(0.2, {}), (0.4, {})],
        2: [(0.3, {})],
        3: [(0.05, {})],
    }
    assert block4_is_nice(g, make_gc(g, 1.0, base), blk)
    no_end = {k: v for k, v in base.items() if k != 3}
    assert not block4_is_nice(g, make_gc(g, 1.0, no_end), blk)
    # backward order 3 -> 2 -> 1 broken: nothing on 1 after 2's ring
    bad_order = dict(base)
    bad_order[1] = [(0.2, {})]
    assert not block4_is_nice(g, make_gc(g, 1.0, bad_order), blk)
    nbr_bad = dict(base)
    nbr_bad[4] = [(0.6, {3: 1})]
    assert not block4_is_nice(g, make_gc(g, 1.0, nbr_bad), blk)
    with pytest.raises(ValueError):
        block4_is_nice(g, make_gc(g, 1.0, base), Block4((0, 2, 4, 6), 0, 0.0, 1.0))


def test_block4_ring_pattern_sufficient():
    g = generate("cycle", 16)
    chain = tuple(range(12))
    blk = Block4(chain, 0, 0.0, 1.0)
    pattern = {
        0: [(0.1, {})],
        3: [(0.2, {})],
        1: [(0.4, {}), (0.8, {})],
        2: [(0.5, {}), (0.9, {})],
    }
    gc = make_gc(g, 1.0, pattern)
    assert block4_ring_pattern_sufficient(gc, blk)
    assert block4_is_nice(g, gc, blk)  # pattern + all-zero proposals
    missing = dict(pattern)
    missing[2] = [(0.5, {})]
    assert not block4_ring_pattern_sufficient(make_gc(g, 1.0, missing), blk)


def test_ring_pattern_implies_nice_on_samples():
    g = generate("cycle", 16)
    chain = tuple(range(12))
    params = ModelParams(p=0.02)
    L = 5.0
    blk = Block4(chain, 0, 0.0, L)
    req = required_goods(g, blk.sites)
    checked = 0
    for gc in sample_graphical_batch(g, params, L, 800, 21):
        goods = all(
            stick_is_good(g, gc, Stick(v, 1, L), A) for v, A in req.items()
        )
        if block4_ring_pattern_sufficient(gc, blk) and goods:
            checked += 1
            assert block4_is_nice(g, gc, blk)
    assert checked > 20


def test_block2_propagation_no_counterexamples():
    g = generate("cycle", 12)
    params = ModelParams(p=0.01)
    L = hat_L(params.p, 2)
    blk = Block2(1, 2, 1, L)
    bottom_x = np.ones(12, dtype=np.uint8)
    bottom_x[1] = 0
    rng = np.random.default_rng(8)
    applicable = 0
    for gc in sample_graphical_batch(g, params, L, 800, 15):
        res = block2_proposition_check(g, gc, blk, bottom_x)
        assert res.nice == block2_is_nice(g, gc, blk)
        if res.nice:
            assert res.applicable
            assert res.passed is True
            assert res.top == (0, 0)
            applicable += 1
        else:
            assert res.passed is None and res.top is None
        random_bottom = (rng.random(12) < 0.5).astype(np.uint8)
        random_bottom[2] = 0
        res2 = block2_proposition_check(g, gc, blk, random_bottom)
        if res2.applicable:
            assert res2.passed is True
    assert applicable > 50
    with pytest.raises(ValueError):
        block2_proposition_check(g, dense_zero_gc(g, L), blk, np.ones(5, dtype=np.uint8))


def test_block4_propagation_no_counterexamples():
    g = generate("cycle", 16)
    chain = tuple(range(12))
    params = ModelParams(p=0.01)
    L = tilde_L(params.p, 2)
    blk = Block4(chain, 0, 0.0, L)
    bottom = np.ones(16, dtype=np.uint8)
    bottom[0] = 0
    applicable = 0
    for gc in sample_graphical_batch(g, params, L, 350, 33):
        res = block4_propagation_check(g, gc, blk, bottom)
        if res.applicable:
            applicable += 1
            assert res.passed is True
            assert res.top == (0, 0)
        aug = bottom.copy()
        aug[3] = 0
        res2 = block4_propagation_check(g, gc, blk, aug)
        if res2.applicable:
            assert res2.passed is True
    assert applicable > 50


def test_propagation_vacuous_without_bottom_zero():
    g = generate("cycle", 12)
    blk = Block2(1, 2, 1, 1.0)
    gc = dense_zero_gc(g, 1.0)
    assert block2_is_nice(g, gc, blk)
    res = block2_proposition_check(g, gc, blk, np.ones(12, dtype=np.uint8))
    assert res.nice and not res.applicable and res.passed is None
    assert res.bottom == (1, 1)


def test_propagation_watches_the_two_block_ends():
    """The watched sites are a block's two ends, (x, y) for a pair and
    (a, e) for a four-block, so a lone bottom zero at y or at e applies."""
    g4 = generate("cycle", 16)
    blk4 = Block4(tuple(range(12)), 0, 0.0, 1.0)
    gc4 = make_gc(g4, 1.0, {0: [(0.1, {})], 1: [(0.2, {}), (0.4, {})], 2: [(0.3, {})], 3: [(0.05, {})]})
    g2 = generate("cycle", 6)
    blk2 = Block2(1, 2, 1, 1.0)
    gc2 = make_gc(g2, 1.0, {1: [(0.3, {})], 2: [(0.5, {})], 0: [(0.7, {0: 1, 5: 1})]})
    for check, g, gc, blk, end in (
        (block4_propagation_check, g4, gc4, blk4, 3),
        (block2_proposition_check, g2, gc2, blk2, 2),
    ):
        bottom = np.ones(g.num_vertices, dtype=np.uint8)
        bottom[end] = 0
        res = check(g, gc, blk, bottom)
        assert res.nice and res.applicable and res.passed is True
        assert res.bottom == (1, 0)
        assert res.top == (0, 0)


def test_block_niceness_at_the_window_ends():
    """Window (1, 2]: a ring exactly at t0 is outside it and one exactly at
    t1 inside, for a site's ring count, every stick's marks and a
    four-block's ring order, whose rings must also come at strictly
    increasing times.  Seeded rings never sit on these edges."""
    g = generate("cycle", 16)
    pair = Block2(1, 2, 2, 1.0)
    base = {1: [(1.5, {})], 2: [(2.0, {})]}
    pair_cases = {
        "site ring at t1 counts": (base, True),
        "site ring only at t0": ({1: [(1.0, {})], 2: [(2.0, {})]}, False),
        "site one proposed at t0 is outside": ({1: [(1.0, {2: 1}), (1.5, {})], 2: [(2.0, {})]}, True),
        "site one proposed at t1 is inside": ({1: [(1.5, {})], 2: [(2.0, {1: 1})]}, False),
        "neighbour one proposed at t0 is outside": ({**base, 0: [(1.0, {1: 1})]}, True),
        "neighbour one proposed at t1 is inside": ({**base, 3: [(2.0, {2: 1})]}, False),
    }
    four = Block4(tuple(range(12)), 2, 1.0, 1.0)  # sites a, b, c, e = 2, 3, 4, 5
    base4 = {2: [(1.1, {})], 3: [(1.2, {}), (1.5, {})], 4: [(1.3, {})], 5: [(1.05, {})]}
    four_cases = {
        "rings in order": (base4, True),
        "an extreme's ring at t0 cannot start an order": ({**base4, 2: [(1.0, {}), (1.6, {})]}, False),
        "a middle ring at t1 ends an order": ({**base4, 3: [(1.2, {}), (2.0, {})]}, True),
        "a ring at the previous site's time does not follow it": (
            {**base4, 3: [(1.1, {}), (1.5, {})]}, False),
        "site one proposed at t0 is outside": ({**base4, 5: [(1.0, {4: 1}), (1.05, {})]}, True),
        "neighbour one proposed at t0 is outside": ({**base4, 1: [(1.0, {2: 1})]}, True),
        "neighbour one proposed at t1 is inside": ({**base4, 6: [(2.0, {5: 1})]}, False),
    }
    for blk, cases, oracle in ((pair, pair_cases, block2_is_nice_oracle), (four, four_cases, block4_is_nice_oracle)):
        for name, (rings, nice) in cases.items():
            gc = make_gc(g, 3.0, rings)
            assert (block2_is_nice if blk is pair else block4_is_nice)(g, gc, blk) == nice, name
            assert oracle(g, gc, blk) == nice, name


def test_propagation_check_refuses_a_bottom_value_other_than_zero_or_one():
    """A 7 at a watched site was reported as bottom=(0, 7).  The check
    refuses it before niceness, so also where the block is not nice."""
    for g, blk, check in (
        (generate("cycle", 12), Block2(1, 2, 1, 1.0), block2_proposition_check),
        (generate("cycle", 16), Block4(tuple(range(12)), 0, 0.0, 1.0), block4_propagation_check),
    ):
        bottom = np.ones(g.num_vertices)
        bottom[blk.sites[0]], bottom[blk.sites[-1]] = 0, 7
        for gc in (make_gc(g, 1.0, {}), dense_zero_gc(g, 1.0)):
            with pytest.raises(ValueError, match="0 or 1"):
                check(g, gc, blk, bottom)
        bottom[blk.sites[-1]] = 0.5
        with pytest.raises(ValueError, match="0 or 1"):
            check(g, dense_zero_gc(g, 1.0), blk, bottom)


def test_overlapping_blocks_positively_dependent():
    g = generate("cycle", 12)
    params = ModelParams(p=0.1)
    a = Block2(0, 1, 1, 2.0)
    b = Block2(1, 2, 1, 2.0)
    va, vb = [], []
    for gc in sample_graphical_batch(g, params, 2.0, 3000, 11):
        va.append(block2_is_nice(g, gc, a))
        vb.append(block2_is_nice(g, gc, b))
    corr = float(np.corrcoef(np.array(va, float), np.array(vb, float))[0, 1])
    assert corr > 0.1


def test_stick_rate_matches_closed_form():
    g = generate("cycle", 12)
    params = ModelParams(p=0.05)
    A = closed_neighbourhood(g, 3)
    st = sample_stick_stats(g, params, 3, A, 1.5, 30000, 5)
    exact = stick_good_lb(1.5, params.q, len(A))
    assert st.analytic_lb == pytest.approx(exact)
    assert abs(st.nice_rate - exact) < 4 * st.stderr
    # the gc route agrees with the direct sampler
    hits = 0
    n = 2500
    s = Stick(3, 1, 1.5)
    for gc in sample_graphical_batch(g, params, 1.5, n, 5, vertices=[3]):
        hits += stick_is_good(g, gc, s, A)
    gc_rate = hits / n
    gc_err = np.sqrt(gc_rate * (1 - gc_rate) / n)
    assert abs(gc_rate - st.nice_rate) < 4 * (gc_err + st.stderr)


def test_block2_rate_cross_route_and_bound():
    g = generate("cycle", 12)
    params = ModelParams(p=0.01)
    L = hat_L(params.p, 2)
    st = sample_block2_stats(g, params, 1, 2, L, 20000, 7)
    assert st.flavor == "two"
    assert st.analytic_lb == pytest.approx(block2_nice_lb(L, params.p, 2))
    assert st.nice_rate >= st.analytic_lb - 3 * st.stderr
    blk = Block2(1, 2, 1, L)
    n = 2000
    hits = sum(
        block2_is_nice(g, gc, blk)
        for gc in sample_graphical_batch(g, params, L, n, 7)
    )
    gc_rate = hits / n
    gc_err = np.sqrt(gc_rate * (1 - gc_rate) / n)
    assert abs(gc_rate - st.nice_rate) < 4 * (gc_err + st.stderr)


def test_block4_rate_cross_route_and_bound():
    g = generate("cycle", 16)
    chain = tuple(range(12))
    params = ModelParams(p=0.01)
    L = tilde_L(params.p, 2)
    st = sample_block4_stats(g, params, chain, 0, L, 15000, 9)
    assert st.flavor == "four"
    assert st.analytic_lb == pytest.approx(theta_4block(L, params.p, 2))
    assert st.nice_rate >= st.analytic_lb - 3 * st.stderr
    blk = Block4(chain, 0, 0.0, L)
    n = 1200
    hits = sum(
        block4_is_nice(g, gc, blk)
        for gc in sample_graphical_batch(g, params, L, n, 9)
    )
    gc_rate = hits / n
    gc_err = np.sqrt(gc_rate * (1 - gc_rate) / n)
    assert abs(gc_rate - st.nice_rate) < 4 * (gc_err + st.stderr)


@pytest.mark.parametrize("base", [-1, 12])
def test_stick_stats_reject_a_base_out_of_range_before_drawing(monkeypatch, base):
    """Base -1 must not stand for vertex 11, nor base 12 end in an
    IndexError; either is refused before any sample is drawn."""
    def no_draws(*args):
        raise AssertionError("samples drawn before the checks")

    monkeypatch.setattr(blocks, "substream", no_draws)
    g = generate("cycle", 12)
    with pytest.raises(ValueError, match="base vertex out of range"):
        sample_stick_stats(g, ModelParams(p=0.05), base, (0,), 1.0, 100, 5)


def test_stick_stats_reject_a_outside_the_neighbourhood_before_drawing(monkeypatch):
    """Marks exist only for N[base], so a vertex of A outside it is refused
    while the stick's spec is built, before any sample is drawn."""
    def no_draws(*args):
        raise AssertionError("samples drawn before the checks")

    monkeypatch.setattr(blocks, "substream", no_draws)
    g = generate("cycle", 12)
    for A in ((5,), (2, 3, 4, 5), (-1,)):
        with pytest.raises(ValueError, match="closed neighbourhood"):
            sample_stick_stats(g, ModelParams(p=0.05), 3, A, 1.0, 100, 5)


@pytest.mark.parametrize("L", [float("nan"), float("inf"), 0.0, -1.0])
def test_window_length_refused_before_drawing(monkeypatch, L):
    """Every block type and sampler refuses a window length that is not
    positive and finite before any sample is drawn."""
    def no_draws(*args):
        raise AssertionError("samples drawn before the checks")

    monkeypatch.setattr(blocks, "substream", no_draws)
    monkeypatch.setattr(blocks, "_graphical_chunks", no_draws)
    g = generate("cycle", 16)
    chain = tuple(range(12))
    params = ModelParams(p=0.05)
    for make in (
        lambda: Stick(0, 1, L),
        lambda: Block2(0, 1, 1, L),
        lambda: Block4(chain, 0, 0.0, L),
        lambda: BlockGrid(chain, L),
        lambda: sample_stick_stats(g, params, 3, (2, 3), L, 100, 5),
        lambda: sample_block2_stats(g, params, 0, 1, L, 100, 5),
        lambda: sample_block4_stats(g, params, chain, 0, L, 100, 5),
        lambda: block4_independence_check(g, chain, params, L, 100, 5),
        lambda: chain_to_percolation(g, chain, dense_zero_gc(g, 4.0), L),
    ):
        with pytest.raises(ValueError, match="window length must be positive and finite"):
            make()


def test_block4_refuses_a_start_that_is_not_finite():
    for t in (float("nan"), float("inf"), -0.5):
        with pytest.raises(ValueError, match="finite t >= 0"):
            Block4((0, 1, 2, 3), 0, t, 1.0)


def test_sampler_validation_and_determinism():
    g = generate("cycle", 12)
    params = ModelParams(p=0.05)
    a = sample_stick_stats(g, params, 3, [2, 3], 1.0, 4000, 5)
    b = sample_stick_stats(g, params, 3, [2, 3], 1.0, 4000, 5)
    assert a.nice_rate == b.nice_rate
    with pytest.raises(ValueError):
        sample_stick_stats(g, params, 3, [7], 1.0, 100, 5)
    with pytest.raises(ValueError):
        sample_stick_stats(g, params, 3, [3], 1.0, 0, 5)
    with pytest.raises(ValueError):
        sample_block2_stats(g, params, 1, 3, 1.0, 100, 5)
    with pytest.raises(ValueError):
        sample_block4_stats(g, params, (0, 2, 4, 6), 0, 1.0, 100, 5)


def test_block4_independence_same_level():
    g = generate("cycle", 16)
    chain = tuple(range(12))
    params = ModelParams(p=0.01)
    L = tilde_L(params.p, 2)
    rep = block4_independence_check(g, chain, params, L, 2000, 13, pair="same_level")
    assert isinstance(rep, IndependenceReport)
    assert rep.n_samples == 2000
    assert 0.05 < rep.rate_a < 0.95
    assert 0.05 < rep.rate_b < 0.95
    assert abs(rep.corr) <= rep.threshold
    assert rep.within


def test_block4_independence_self_and_adjacent():
    g = generate("cycle", 16)
    chain = tuple(range(12))
    params = ModelParams(p=0.01)
    L = tilde_L(params.p, 2)
    rep = block4_independence_check(g, chain, params, L, 400, 13, pair="self")
    assert rep.corr == pytest.approx(1.0)
    assert rep.within
    rep2 = block4_independence_check(g, chain[:8], params, L, 1200, 13, pair="adjacent_level")
    assert rep2.within
    with pytest.raises(ValueError):
        block4_independence_check(g, chain[:8], params, L, 100, 13, pair="same_level")
    with pytest.raises(ValueError):
        block4_independence_check(g, chain, params, L, 100, 13, pair="bogus")
    with pytest.raises(ValueError):
        block4_independence_check(g, chain, params, L, 1, 13)


def test_independence_cells_are_grid_cells():
    """Each cell (m, k) is a strip site at its level (m + k even), and a
    pair's second cell is a same-level neighbour or a bond target of the
    first."""
    for cells in INDEPENDENCE_CELLS.values():
        assert all((m + k) % 2 == 0 for m, k in cells)
        if len(cells) == 2:
            (m, k), second = cells
            assert second in ((m + 2, k), (m - 1, k + 1), (m + 1, k + 1))


# ring times on a coarse grid, so rings sit exactly at t0 and at t1
_RING_TIME = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), st.floats(0.0, 2.0))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(1, 4), n_rows=st.integers(1, 3))
def test_rings_in_order_matches_scalar_oracle(data, m, n_rows):
    t0, t1 = sorted(data.draw(st.lists(_RING_TIME, min_size=2, max_size=2)))
    rows, samples = [], [[] for _ in range(m)]
    for _ in range(n_rows):
        per_sample = [
            sorted(data.draw(st.lists(_RING_TIME, max_size=4))) for _ in range(m)
        ]
        width = max(len(ts) for ts in per_sample) + data.draw(st.integers(0, 2))
        padded = np.full((m, width), np.inf)
        for s, ts in enumerate(per_sample):
            padded[s, : len(ts)] = ts
            samples[s].append(np.array(ts))
        rows.append(padded)
    got = _rings_in_order(rows, t0, t1)
    assert got.shape == (m,)
    assert got.tolist() == [_has_increasing_rings(r, t0, t1) for r in samples]


@pytest.mark.parametrize("pair, n_sites", [("same_level", 12), ("adjacent_level", 8), ("self", 4)])
def test_block4_independence_matches_pathwise_oracle(pair, n_sites):
    g = generate("cycle", 16)
    chain = tuple(range(n_sites))
    params = ModelParams(p=0.02)
    L = tilde_L(0.01, 2)
    n, seed = 600, 31
    rep = block4_independence_check(g, chain, params, L, n, seed, pair=pair)
    cells, horizon = {
        "same_level": (((0, 0.0), (8, 0.0)), L),
        "adjacent_level": (((0, 0.0), (4, L)), 2 * L),
        "self": (((0, 0.0), (0, 0.0)), L),
    }[pair]
    blocks = [Block4(chain, k0, t, L) for k0, t in cells]
    dep = sorted({u for b in blocks for v in b.sites for u in closed_neighbourhood(g, v)})
    stream = sample_graphical_batch(g, params, horizon, n, seed, vertices=dep)
    ind = np.array([[block4_is_nice(g, gc, b) for b in blocks] for gc in stream], dtype=float)
    assert 0.0 < ind[:, 0].mean() < 1.0
    assert rep.rate_a == ind[:, 0].mean()
    assert rep.rate_b == ind[:, 1].mean()
    assert rep.corr == float(np.corrcoef(ind[:, 0], ind[:, 1])[0, 1])


@pytest.mark.parametrize("pair, cells", [
    ("same_level", ((0, 0.0), (8, 0.0))),
    ("adjacent_level", ((0, 0.0), (4, 1.0))),
])
def test_block4_independence_cells_sit_four_chain_sites_apart(pair, cells):
    """On a path the cells' neighbourhoods are not translates of each other,
    so only the cells at chain offsets 4m reproduce the pathwise indicators."""
    g = generate("path", 12)
    chain = tuple(range(12))
    params = ModelParams(p=0.02)
    L = tilde_L(0.01, 2)
    n, seed = 600, 31
    rep = block4_independence_check(g, chain, params, L, n, seed, pair=pair)
    blks = [Block4(chain, k0, w * L, L) for k0, w in cells]
    dep = sorted({u for b in blks for v in b.sites for u in closed_neighbourhood(g, v)})
    stream = sample_graphical_batch(g, params, (cells[-1][1] + 1) * L, n, seed, vertices=dep)
    ind = np.array([[block4_is_nice(g, gc, b) for b in blks] for gc in stream], dtype=float)
    assert 0.0 < ind[:, 1].mean() < 1.0
    assert (rep.rate_a, rep.rate_b) == (ind[:, 0].mean(), ind[:, 1].mean())


def test_block_grid_geometry():
    grid = BlockGrid(tuple(range(10)), 1.0)
    assert grid.positions(2, 0) == (4, 5)
    assert grid.positions(2, 1) == (3, 4)
    for n in range(4):
        for k in (range(0, 5) if n % 2 == 0 else range(1, 5)):
            blk = grid.block(k, n)
            assert blk.level == n + 1
            lo, hi = grid.positions(k, n)
            assert (blk.x, blk.y) == (lo, hi)
    with pytest.raises(ValueError):
        grid.block(5, 0)
    with pytest.raises(ValueError):
        BlockGrid((0,), 1.0)
    with pytest.raises(ValueError):
        BlockGrid((0, 1), 0.0)


def test_block_grid_rejects_blocks_off_either_end():
    grid = BlockGrid(tuple(range(10)), 1.0)
    for k, n in ((0, 1), (-1, 0), (5, 0), (5, 1), (0, 3)):
        with pytest.raises(ValueError, match="leaves the chain"):
            grid.block(k, n)
    assert (grid.block(1, 1).x, grid.block(4, 0).y) == (1, 9)


def test_chain_to_percolation_all_open():
    g = generate("cycle", 12)
    chain = tuple(range(10))
    gc = dense_zero_gc(g, 4.0)
    field = chain_to_percolation(g, chain, gc, 1.0, flavor="two_block")
    assert field.N == 4
    assert field.levels == 3
    for n in range(field.levels):
        w = level_size(field.N, n)
        bl, br = field.bonds_left[n], field.bonds_right[n]
        if n % 2 == 0:
            assert not bl[0] and not br[w - 1]
            assert bl[1:].all() and br[: w - 1].all()
        else:
            assert bl.all() and br.all()


def test_chain_to_percolation_two_block_mapping():
    g = generate("cycle", 12)
    chain = tuple(range(10))
    params = ModelParams(p=0.05)
    L = 0.7
    grid = BlockGrid(chain, L)
    for gc in sample_graphical_batch(g, params, 4 * L, 5, 25):
        field = chain_to_percolation(g, chain, gc, L, flavor="two_block")
        assert field.levels == 3
        for n in range(field.levels):
            w = level_size(field.N, n)
            for i in range(w):
                if n % 2 == 0:
                    want_l = i >= 1 and block2_is_nice(g, gc, grid.block(i, n + 1))
                    want_r = i < w - 1 and block2_is_nice(g, gc, grid.block(i + 1, n + 1))
                else:
                    want_l = block2_is_nice(g, gc, grid.block(i, n + 1))
                    want_r = block2_is_nice(g, gc, grid.block(i + 1, n + 1))
                assert field.bonds_left[n][i] == want_l
                assert field.bonds_right[n][i] == want_r


def test_chain_to_percolation_four_block_mapping():
    g = generate("cycle", 16)
    chain = tuple(range(12))
    params = ModelParams(p=0.02)
    L = 5.0
    for gc in sample_graphical_batch(g, params, 3 * L, 4, 27):
        field = chain_to_percolation(g, chain, gc, L, flavor="four_block")
        assert field.N == 1
        assert field.levels == 2
        def cell(kc, j):
            return block4_is_nice(g, gc, Block4(chain, 4 * kc, j * L, L))
        for n in range(field.levels):
            w = level_size(1, n)
            for i in range(w):
                m = 2 * i + n % 2
                want_l = m - 1 >= 0 and cell(m - 1, n + 1)
                want_r = m + 1 <= 2 and cell(m + 1, n + 1)
                assert field.bonds_left[n][i] == want_l
                assert field.bonds_right[n][i] == want_r


def test_chain_to_percolation_four_block_cells_sit_four_chain_sites_apart():
    """Every cell is nice but the one over chain positions 4..7 at level 1,
    spoiled by a one that 7 proposes for itself, and the one over 8..11 at
    level 2, spoiled likewise by 11; on a grid of a smaller stride neither
    cell holds its spoiled site."""
    g = generate("cycle", 16)
    rings = {x: [(t, {}) for t in np.arange(0.1, 3.0 + 1e-9, 0.1)] for x in range(16)}
    rings[7].append((1.55, {7: 1}))
    rings[11].append((2.55, {11: 1}))
    field = chain_to_percolation(g, tuple(range(12)), make_gc(g, 3.0, rings), 1.0,
                                 flavor="four_block")
    assert (field.N, field.levels) == (1, 2)
    assert [b.tolist() for b in field.bonds_left] == [[False, False], [True]]
    assert [b.tolist() for b in field.bonds_right] == [[False, False], [False]]


def test_chain_to_percolation_validation():
    g = generate("cycle", 12)
    gc = dense_zero_gc(g, 4.0)
    with pytest.raises(ValueError):
        chain_to_percolation(g, tuple(range(10)), gc, 3.0)  # horizon too short
    with pytest.raises(ValueError):
        chain_to_percolation(g, (0, 1, 2), gc, 1.0)  # chain too short
    with pytest.raises(ValueError):
        chain_to_percolation(g, tuple(range(10)), gc, 1.0, flavor="six_block")
    g16 = generate("cycle", 16)
    with pytest.raises(ValueError):
        chain_to_percolation(
            g16, tuple(range(7)), dense_zero_gc(g16, 4.0), 1.0, flavor="four_block"
        )


def test_nice_spec_cache_holds_every_block_of_a_long_chain():
    """The two-site blocks of a chain are its consecutive pairs; a strip
    asks for each of them on several levels, and each spec is built once."""
    g = generate("cycle", 300)
    chain = tuple(range(298))
    gc = sample_graphical(g, ModelParams(p=0.01), 12.0, seed=7)
    _nice_spec.cache_clear()
    chain_to_percolation(g, chain, gc, 2.0)
    info = _nice_spec.cache_info()
    assert info.hits > 0
    assert info.misses == len(chain) - 1


# the coupling claim on cycle:24 over a 22-site chain, hat_L windows and six
# levels: each case must check at least COUPLING_MIN_CLAIMS claims (a floor
# fixed before the run; 0 violations is vacuous without it)
COUPLING_MIN_CLAIMS = 1000


@pytest.mark.parametrize("p", [0.03, 0.05])
def test_two_block_coupling_holds_on_one_realization(p):
    """Nice two-blocks carry zeros up the strip: every site reachable from
    the level-0 sites with both ends zero has both ends zero at the end of
    its window.  Dropping the goodness demands from the niceness event
    gives thousands of violations at these p."""
    g = parse_graph_spec("cycle:24")
    rep = coupling_check(g, tuple(range(22)), ModelParams(p=p), hat_L(p, 2), 6, 1000, 7)
    assert rep.claims >= COUPLING_MIN_CLAIMS
    assert rep.violations == 0 and rep.first_violation is None
    assert 0 < rep.reached_top <= 1000


def test_coupling_check_counts_violations_of_an_all_open_field(monkeypatch):
    """With every cell taken as nice the strip is all open, and zeros do
    not keep up with it: violations are counted, and the first one is a
    site whose ends are not both zero in that sample's own replay."""
    monkeypatch.setattr(blocks, "_block_is_nice", lambda g, gc, block: True)
    g, chain, params, L = generate("cycle", 12), tuple(range(10)), ModelParams(p=0.3), 1.0
    rep = coupling_check(g, chain, params, L, 3, 20, 5)
    assert 0 < rep.violations <= rep.claims
    assert rep.reached_top > 0
    s, k, m = rep.first_violation
    gc = list(sample_graphical_batch(g, params, 4 * L, 20, 5))[s]
    top = replay(g, np.zeros(12, np.uint8), gc, [(k + 1) * L], collect_log=False).snapshots[0]
    assert 1 in (top[chain[m]], top[chain[m + 1]])


def test_coupling_check_validation():
    g = generate("cycle", 12)
    params = ModelParams(p=0.05)
    with pytest.raises(ValueError, match="flavor"):
        coupling_check(g, tuple(range(10)), params, 1.0, 2, 2, 1, flavor="six_block")
    with pytest.raises(ValueError, match="level"):
        coupling_check(g, tuple(range(10)), params, 1.0, 0, 2, 1)
    with pytest.raises(ValueError, match="too short"):
        coupling_check(g, (0, 1, 2), params, 1.0, 2, 2, 1)
    with pytest.raises(ValueError, match="horizon"):
        coupling_check(g, tuple(range(10)), params, 0.0, 2, 2, 1)
    with pytest.raises(ValueError, match="0 or 1"):
        coupling_check(g, tuple(range(10)), params, 1.0, 2, 2, 1, config0=np.full(12, 2))
