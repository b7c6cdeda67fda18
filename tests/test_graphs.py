import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bslab import exact
from bslab.dynamics import ModelParams
from bslab.exact import _orbit_labels, build_kernel, stationary
from bslab.graphs import (
    BudgetExceeded,
    Graph,
    automorphisms,
    build_graph,
    chain_cover,
    chain_defect,
    closed_neighbourhood,
    format_edge_list,
    generate,
    is_chain,
    load_edge_list,
    longest_chain,
    parse_edge_list,
    parse_graph_spec,
    shortest_path,
)
from oracle_utils import stationary_oracle


def test_cycle_structure():
    g = generate("cycle", 6)
    assert g.num_vertices == 6
    assert g.max_degree == 2
    assert g.is_regular()
    assert g.adjacency[0] == (1, 5)
    assert closed_neighbourhood(g, 0) == (0, 1, 5)


def test_path_endpoints_have_degree_one():
    g = generate("path", 5)
    assert g.degree(0) == 1
    assert g.degree(4) == 1
    assert g.degree(2) == 2
    assert not g.is_regular()


def test_torus_structure():
    g = generate("torus2d", 3, 3)
    assert g.num_vertices == 9
    assert g.max_degree == 4
    assert g.is_regular()
    g45 = generate("torus2d", 4, 5)
    assert g45.num_vertices == 20
    assert g45.max_degree == 4


def test_complete_structure():
    g = generate("complete", 5)
    assert all(g.degree(x) == 4 for x in range(5))


def test_hash_is_the_value_hash_computed_once():
    """Equal graphs are one key of the per-graph caches, across pickling too."""
    g = generate("torus2d", 3, 4)
    twin = Graph(g.num_vertices, g.adjacency)
    assert hash(g) == hash(twin) == hash((g.num_vertices, g.adjacency))
    assert {g: "spec"}[twin] == "spec"
    assert {g: "spec"}[pickle.loads(pickle.dumps(g))] == "spec"
    assert {generate("cycle", 12)} != {generate("path", 12)}


def test_closed_neighbourhood_is_sorted_and_read_from_one_table():
    g = generate("cycle", 5)
    assert [closed_neighbourhood(g, x) for x in range(5)] == [
        (0, 1, 4), (0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4),
    ]
    assert closed_neighbourhood(g, 4) is g.closed_neighbourhoods[4]
    # the cached table is not part of the value
    assert g == Graph(g.num_vertices, g.adjacency) and "closed" not in repr(g)


def test_degenerate_sizes_rejected():
    with pytest.raises(ValueError):
        generate("cycle", 2)
    with pytest.raises(ValueError):
        generate("torus2d", 2, 5)


def test_random_regular_is_regular_and_reproducible():
    g1 = generate("random_regular", 10, 3, seed=4)
    g2 = generate("random_regular", 10, 3, seed=4)
    assert g1 == g2
    assert g1.is_regular()
    assert g1.max_degree == 3
    g3 = generate("random_regular", 10, 3, seed=5)
    assert g3.is_regular()


def test_build_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])


# ---------------------------------------------------------------------------
# chains

def test_chain_definition_on_cycle8():
    g = generate("cycle", 8)
    assert is_chain(g, (0, 1, 2))
    assert is_chain(g, (0, 1, 2, 3, 4, 5))
    # 0 and 6 share neighbour 7 at index distance 6
    assert not is_chain(g, (0, 1, 2, 3, 4, 5, 6))
    assert chain_defect(g, (0, 2, 4)) is not None  # not a path
    assert chain_defect(g, (0, 1, 0)) == "repeated vertex"
    assert chain_defect(g, ()) == "empty"
    assert chain_defect(g, (0, 1, 99)) == "vertex out of range"


def test_single_vertex_is_a_chain():
    g = generate("cycle", 5)
    assert is_chain(g, (3,))


def test_longest_chain_cycle_is_n_minus_2():
    for n in (5, 6, 8, 11):
        g = generate("cycle", n)
        path = longest_chain(g)
        assert path.length == n - 2
        assert is_chain(g, path.vertices)


def test_longest_chain_prefers_lexicographic():
    g = generate("cycle", 8)
    assert longest_chain(g).vertices == (0, 1, 2, 3, 4, 5)


def test_longest_chain_path_spans_everything():
    g = generate("path", 7)
    assert longest_chain(g).length == 7


def test_longest_chain_complete_graph_caps_at_three():
    g = generate("complete", 5)
    assert longest_chain(g).length == 3


def test_longest_chain_anchor_and_heuristic():
    g = generate("cycle", 9)
    anchored = longest_chain(g, anchor=4)
    assert 4 in anchored.vertices
    assert is_chain(g, anchored.vertices)
    heur = longest_chain(g, mode="heuristic")
    assert is_chain(g, heur.vertices)
    assert heur.length <= longest_chain(g).length


def test_longest_chain_budget_guard():
    g = generate("torus2d", 4, 4)
    with pytest.raises(BudgetExceeded):
        longest_chain(g, budget=10)


def test_shortest_paths_are_chains():
    for g in (generate("torus2d", 4, 4), generate("cycle", 9), generate("complete", 6)):
        for u in range(g.num_vertices):
            for v in range(g.num_vertices):
                if u == v:
                    continue
                path = shortest_path(g, u, v)
                assert path.vertices[0] == u and path.vertices[-1] == v
                assert is_chain(g, path.vertices)


@pytest.mark.parametrize("u,v", [(-1, 3), (3, -1), (8, 3), (3, 9)])
def test_shortest_path_rejects_vertices_out_of_range(u, v):
    """A negative id must not wrap round to the last vertex, and an id past
    the end must not end in an IndexError."""
    with pytest.raises(ValueError, match="vertex out of range"):
        shortest_path(generate("cycle", 8), u, v)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(8, 14),
    d=st.integers(3, 4),
    seed=st.integers(0, 10_000),
    uv=st.tuples(st.integers(0, 7), st.integers(0, 7)),
)
def test_shortest_paths_are_chains_on_random_graphs(n, d, seed, uv):
    if n * d % 2:
        n += 1
    g = generate("random_regular", n, d, seed=seed)
    u, v = uv
    if u == v:
        return
    assert is_chain(g, shortest_path(g, u, v).vertices)


def test_chain_cover_cycle12_uses_three_arcs():
    g = generate("cycle", 12)
    cover = chain_cover(g, 4)
    assert cover.covered
    assert all(is_chain(g, c.vertices) for c in cover.chains)
    assert all(c.length >= 4 for c in cover.chains)
    covered = set()
    for c in cover.chains:
        covered.update(c.vertices)
    assert covered == set(range(12))
    assert cover.k == 3


def test_chain_cover_failure_on_complete_graph():
    cover = chain_cover(generate("complete", 5), 4)
    assert not cover.covered
    assert cover.uncovered


def test_chain_cover_path_single_chain():
    cover = chain_cover(generate("path", 5), 5)
    assert cover.covered and cover.k == 1


# ---------------------------------------------------------------------------
# serialization

def test_edge_list_round_trip(tmp_path):
    g = generate("torus2d", 3, 4)
    text = format_edge_list(g)
    assert parse_edge_list(text) == g
    f = tmp_path / "g.txt"
    f.write_text(text)
    assert load_edge_list(str(f)) == g


def test_edge_list_comments_and_errors():
    g = parse_edge_list("# header comment\n3 2\n0 1\n# middle\n1 2\n")
    assert g.num_vertices == 3
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")  # missing an edge
    with pytest.raises(ValueError):
        parse_edge_list("")


def test_parse_graph_spec():
    assert parse_graph_spec("cycle:7").num_vertices == 7
    assert parse_graph_spec("torus2d:3x4").num_vertices == 12
    assert parse_graph_spec("complete:4").max_degree == 3
    g = parse_graph_spec("regular:10:3", seed=1)
    assert g.is_regular() and g.max_degree == 3
    with pytest.raises(ValueError):
        parse_graph_spec("cycle")
    with pytest.raises(ValueError):
        parse_graph_spec("torus2d:9")
    with pytest.raises(ValueError):
        parse_graph_spec("blob:3")


def test_graph_equality_and_immutability():
    g = generate("cycle", 5)
    assert g == generate("cycle", 5)
    with pytest.raises(AttributeError):
        g.num_vertices = 7
    assert list(g.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


@pytest.mark.parametrize("spec", ["torus2d:5x5", "cycle:9", "path:7", "complete:5"])
def test_heuristic_path_is_the_shortest_path_to_the_first_farthest_vertex(spec):
    """Each anchored heuristic search returns shortest_path from the anchor
    to the first vertex at the largest distance."""
    g = parse_graph_spec(spec)
    best = None
    for u in range(g.num_vertices):
        lengths = [shortest_path(g, u, v).length for v in range(g.num_vertices)]
        path = shortest_path(g, u, lengths.index(max(lengths)))
        assert longest_chain(g, mode="heuristic", anchor=u) == path
        if best is None or path.length > best.length:
            best = path
    assert longest_chain(g, mode="heuristic") == best


# a star centred at vertex 0: the BFS root is fixed by every automorphism,
# so all of the group sits in the stabiliser of the first vertex
STAR = build_graph(8, [(0, v) for v in range(1, 8)])
SYMMETRIC = ["cycle:16", "torus2d:4x4", "complete:8", "path:16", "torus2d:3x4", "path:7"]


def _graph(spec):
    return STAR if spec == "star:8" else parse_graph_spec(spec)


@pytest.mark.parametrize("spec", SYMMETRIC + ["star:8"])
def test_every_generator_preserves_adjacency(spec):
    g = _graph(spec)
    gens = automorphisms(g)
    assert gens
    edges = {frozenset(e) for e in g.edges()}
    for perm in gens:
        assert sorted(perm) == list(range(g.num_vertices))
        assert {frozenset((perm[u], perm[v])) for u, v in edges} == edges


@pytest.mark.parametrize("spec", SYMMETRIC + ["star:8"])
def test_orbit_labels_are_invariant_under_every_generator(spec):
    g = _graph(spec)
    gens = automorphisms(g)
    labels = _orbit_labels(g.num_vertices, gens)
    states = np.arange(1 << g.num_vertices)
    for perm in gens:
        image = np.zeros_like(states)
        for v, w in enumerate(perm):
            image |= ((states >> v) & 1) << w
        assert np.array_equal(labels[image], labels)
    # each label is the smallest state of its orbit
    assert (labels <= states).all() and np.array_equal(labels[labels], labels)


# Burnside's counts of 0/1 vertex colourings up to automorphism: bracelets
# of 16 beads, the 4-cube's vertex 2-colourings (OEIS A000616), the number
# of ones on K_8, the mirror pairs of a 16-vertex path, and the centre bit
# with the number of ones among a star's 7 leaves
@pytest.mark.parametrize(
    "spec, count",
    [("cycle:16", 2250), ("torus2d:4x4", 402), ("complete:8", 9), ("path:16", 32896), ("star:8", 16)],
)
def test_orbit_counts_match_burnside(spec, count):
    g = _graph(spec)
    labels = _orbit_labels(g.num_vertices, automorphisms(g))
    assert len(np.unique(labels)) == count


def test_random_regular_graph_has_no_generators_and_takes_the_orbit_route(monkeypatch):
    """A trivial group lumps to one orbit per state, and the orbit route
    solves the whole kernel to within 1e-8 in l1 of the power loop, with a
    true residual below 1e-10."""
    g = parse_graph_spec("regular:16:3", seed=1)
    assert automorphisms(g) == ()
    groups, lumped_stationary = [], exact._lumped_stationary

    def recorded(tm, gens, flavor):
        groups.append(gens)
        return lumped_stationary(tm, gens, flavor)

    monkeypatch.setattr(exact, "_lumped_stationary", recorded)
    tm = build_kernel(g, ModelParams(p=0.3))
    assert tm.kernel.shape[0] >= exact._LUMP_MIN_STATES
    sd = stationary(tm, flavor="continuous")
    assert groups == [()]
    assert np.abs(sd.probs - stationary_oracle(tm, flavor="continuous").probs).sum() <= 1e-8
    flux = sd.probs * tm.exit_rates
    assert sd.residual < 1e-10
    assert np.abs(flux @ tm.kernel - flux).sum() < 1e-10


def test_automorphisms_of_a_long_path_need_no_deep_recursion():
    """The backtracking is iterative: a recursive one stopped at the
    interpreter's recursion limit on path:1100."""
    n = 1100
    assert automorphisms(generate("path", n)) == (tuple(range(n - 1, -1, -1)),)
