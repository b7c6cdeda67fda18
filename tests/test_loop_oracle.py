"""The two per-event loops against their numpy-scalar references, bit for
bit: the Monte Carlo replica loop and the graphical `replay` run on Python
lists and floats, and must reproduce the arrays, notes, snapshots and logs
of the step-by-step numpy versions exactly."""
import numpy as np
import pytest

from bslab.dynamics import (
    ModelParams,
    all_ones,
    all_zeros,
    random_configuration,
    replay,
    sample_graphical,
    sample_graphical_batch,
)
from bslab.graphs import parse_graph_spec
from bslab.montecarlo import _CHUNK, _replica_batches
from bslab.rng import substream
from oracle_utils import replay_oracle, replica_batches_oracle

GRAPHS = ["cycle:8", "torus2d:3x3", "path:7", "complete:5", "cycle:50"]
PS = [0.1, 0.3, 0.7, 0.95]
FLAVORS = ["embedded", "continuous"]
ALLONES = ["resample", "frozen"]
# (budget, n_batches, burn_in): the run_batches shape (burn-in a tenth of
# the budget), no burn-in, and a budget that n_batches does not divide
SHAPES = [(1000, 8, 100), (1000, 8, 0), (1003, 9, 50)]


def _assert_same(spec, p, budget, n_batches, burn_in, flavor, allones, replica):
    args = (parse_graph_spec(spec), ModelParams(p=p), budget, 13, replica, n_batches, burn_in, flavor, allones)
    bits, hist, notes = _replica_batches(*args)
    ref_bits, ref_hist, ref_notes = replica_batches_oracle(*args)
    assert bits.dtype == ref_bits.dtype and bits.shape == ref_bits.shape
    assert hist.dtype == ref_hist.dtype and hist.shape == ref_hist.shape
    assert bits.tobytes() == ref_bits.tobytes()
    assert hist.tobytes() == ref_hist.tobytes()
    assert notes == ref_notes


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("spec", GRAPHS)
def test_replica_batches_match_oracle_bitwise(spec, p):
    for budget, n_batches, burn_in in SHAPES:
        for flavor in FLAVORS:
            for allones in ALLONES:
                for replica in (0, 1):
                    _assert_same(spec, p, budget, n_batches, burn_in, flavor, allones, replica)


@pytest.mark.parametrize("allones", ALLONES)
@pytest.mark.parametrize("spec, p", [("cycle:50", 0.3), ("torus2d:3x3", 0.1)])
def test_replica_batches_cross_the_chunk_boundary(spec, p, allones):
    budget, n_batches = 9000, 16
    burn_in = 900
    assert burn_in + budget > _CHUNK
    for flavor in FLAVORS:
        _assert_same(spec, p, budget, n_batches, burn_in, flavor, allones, 0)


def _absorption_step(spec, p, replica, horizon):
    """Index of the step at which the frozen chain first sits at all-ones.

    The trajectory does not depend on how steps are split into burn-in and
    batches, so one-step batches without burn-in read it off directly.
    """
    args = (parse_graph_spec(spec), ModelParams(p=p), horizon, 13, replica, horizon, 0, "embedded", "frozen")
    hist = replica_batches_oracle(*args)[1]
    at_ones = np.flatnonzero(hist[:, -1] == 1.0)
    return int(at_ones[0]) if at_ones.size else None


def test_grid_absorbs_in_burn_in_and_mid_batch():
    """The frozen cases above include a trap hit during burn-in and one hit
    partway through a measured batch."""
    budget, n_batches, burn_in = SHAPES[0]
    per_batch = budget // n_batches
    in_burn_in = mid_batch = 0
    for spec in GRAPHS:
        for p in PS:
            for replica in (0, 1):
                step = _absorption_step(spec, p, replica, burn_in + budget)
                if step is None:
                    continue
                if step < burn_in:
                    in_burn_in += 1
                elif (step - burn_in) % per_batch:
                    mid_batch += 1
    assert in_burn_in >= 1
    assert mid_batch >= 1


def _graphical_cases():
    """(name, graph, config0, gc) covering both samplers and the
    all-ones corner, where `resample` fires everywhere and `frozen` never."""
    for spec, p in [("cycle:5", 0.9), ("cycle:8", 0.3), ("torus2d:3x3", 0.6), ("complete:5", 0.8)]:
        g = parse_graph_spec(spec)
        params = ModelParams(p=p)
        horizon = 6.0
        for replica in (0, 1):
            gc = sample_graphical(g, params, horizon, seed=31, replica=replica)
            c0 = random_configuration(g, params, substream(31, replica, 97))
            yield f"{spec}-r{replica}-random", g, c0, gc
        batch = sample_graphical_batch(g, params, horizon, 2, seed=37)
        for k, gc in enumerate(batch):
            yield f"{spec}-b{k}-ones", g, all_ones(g), gc
        yield f"{spec}-zeros", g, all_zeros(g), gc


REPLAY_CASES = list(_graphical_cases())


def _assert_same_replay(res, ref):
    assert res.final.dtype == ref.final.dtype and res.final.shape == ref.final.shape
    assert res.final.tobytes() == ref.final.tobytes()
    assert len(res.snapshots) == len(ref.snapshots)
    for a, b in zip(res.snapshots, ref.snapshots):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert res.applied_count == ref.applied_count
    assert res.muted_count == ref.muted_count
    assert len(res.log) == len(ref.log)
    for entry, ref_entry in zip(res.log, ref.log):
        t, x, fired, row = entry
        assert type(t) is float and type(x) is int and type(fired) is bool
        assert isinstance(row, np.ndarray) and row.dtype == ref_entry[3].dtype
        assert (t, x, fired) == ref_entry[:3]
        assert row.tobytes() == ref_entry[3].tobytes()


@pytest.mark.parametrize("allones", ALLONES)
@pytest.mark.parametrize("name, g, c0, gc", REPLAY_CASES, ids=[c[0] for c in REPLAY_CASES])
def test_replay_matches_oracle_bitwise(name, g, c0, gc, allones):
    h = gc.horizon
    # duplicates, an exact event time, zero and times past the horizon
    events = [float(t) for ts in gc.times for t in ts]
    snaps = [0.0, 1.5, 1.5, h / 2, h, h + 3.0, 4.25]
    if events:
        snaps.append(events[len(events) // 2])
    before = c0.copy()
    for window in (None, (1.0, 4.5), (0.0, h)):
        for collect_log in (True, False):
            kw = dict(snapshot_times=snaps, allones=allones, collect_log=collect_log, window=window)
            res = replay(g, c0, gc, **kw)
            ref = replay_oracle(g, c0, gc, **kw)
            _assert_same_replay(res, ref)
    assert c0.tobytes() == before.tobytes()


def test_replay_cases_reach_all_ones_from_below():
    """Some random start hits all-ones mid-replay, so the running ones count
    decides whether the next ring at a one fires under `resample`."""
    hits = 0
    for _, g, c0, gc in REPLAY_CASES:
        if c0.sum() == g.num_vertices:
            continue
        res = replay_oracle(g, c0, gc, snapshot_times=sorted(float(t) for ts in gc.times for t in ts))
        hits += any(s.sum() == g.num_vertices for s in res.snapshots)
    assert hits >= 1
