"""Finite simple connected graphs and chain structure.

A chain is a self-avoiding path whose vertices at index distance three or
more have disjoint closed neighbourhoods.  Chains carry the block
constructions; any shortest path is a chain, which gives a cheap certified
lower bound on the longest chain length.  Lengths count vertices.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import substream

__all__ = [
    "Graph",
    "ChainPath",
    "ChainCover",
    "build_graph",
    "generate",
    "closed_neighbourhood",
    "chain_defect",
    "is_chain",
    "longest_chain",
    "chain_cover",
    "shortest_path",
    "parse_edge_list",
    "format_edge_list",
    "load_edge_list",
    "parse_graph_spec",
]


@dataclass(frozen=True)
class Graph:
    """Immutable simple connected graph with sorted adjacency lists."""

    num_vertices: int
    adjacency: tuple[tuple[int, ...], ...]

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the value hash walks every adjacency tuple; the block requirement
        # spec cache looks a graph up on every call, so it is computed once
        return hash((self.num_vertices, self.adjacency))

    @cached_property
    def closed_neighbourhoods(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex together with its neighbours, sorted by id."""
        return tuple(tuple(sorted((x,) + a)) for x, a in enumerate(self.adjacency))

    @property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def degree(self, x: int) -> int:
        return len(self.adjacency[x])

    def is_regular(self) -> bool:
        degs = {len(a) for a in self.adjacency}
        return len(degs) == 1

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.num_vertices) for v in self.adjacency[u] if u < v]

    def closed_nbhd_masks(self) -> list[int]:
        """Closed neighbourhoods as bit masks, indexed by vertex."""
        return [sum(1 << u for u in nb) for nb in self.closed_neighbourhoods]


def build_graph(num_vertices: int, edges) -> Graph:
    """Validate an edge list and build a Graph.

    Rejects loops, duplicate edges, out-of-range endpoints and
    disconnected graphs.
    """
    n = int(num_vertices)
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    adj: list[set[int]] = [set() for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge ({u},{v})")
        seen.add(key)
        adj[u].add(v)
        adj[v].add(u)
    g = Graph(n, tuple(tuple(sorted(a)) for a in adj))
    if (_bfs(g, 0)[0] < 0).any():
        raise ValueError("graph is not connected")
    return g


def generate(family: str, *params: int, seed: int | None = None) -> Graph:
    """Build a named graph family.

    Families: cycle(n), path(n), torus2d(a, b), complete(n),
    random_regular(n, d) (uses `seed`, pairing model with rejection).
    """
    if family == "cycle":
        (n,) = params
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    if family == "path":
        (n,) = params
        if n < 3:
            raise ValueError("path needs n >= 3")
        return build_graph(n, [(i, i + 1) for i in range(n - 1)])
    if family == "torus2d":
        a, b = params
        if a < 3 or b < 3:
            raise ValueError("torus2d needs both sides >= 3")
        edges = []
        for i in range(a):
            for j in range(b):
                edges.append((i * b + j, ((i + 1) % a) * b + j))
                edges.append((i * b + j, i * b + (j + 1) % b))
        return build_graph(a * b, edges)
    if family == "complete":
        (n,) = params
        if n < 2:
            raise ValueError("complete needs n >= 2")
        return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    if family == "random_regular":
        n, d = params
        return _random_regular(n, d, seed)
    raise ValueError(f"unknown graph family {family!r}")


# pairings _random_regular draws before it gives up
_REGULAR_ATTEMPTS = 1000


def _random_regular(n: int, d: int, seed: int | None) -> Graph:
    """Pairing model with rejection until simple and connected."""
    if seed is None:
        raise ValueError("random_regular needs a seed")
    if n * d % 2 != 0 or not (0 < d < n):
        raise ValueError("random_regular needs n*d even and 0 < d < n")
    rng = substream(seed, 93, n, d)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(_REGULAR_ATTEMPTS):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        keys = {(min(u, v), max(u, v)) for u, v in pairs}
        if len(keys) < len(pairs):
            continue
        try:
            return build_graph(n, pairs)
        except ValueError:
            continue
    raise RuntimeError("random_regular: no simple connected pairing found")


def closed_neighbourhood(g: Graph, x: int) -> tuple[int, ...]:
    """Vertex x together with its neighbours, sorted by id."""
    return g.closed_neighbourhoods[x]


def chain_defect(g: Graph, vertices) -> str | None:
    """Why `vertices` fails to be a chain, or None if it is one."""
    vs = [int(v) for v in vertices]
    if not vs:
        return "empty"
    if any(not (0 <= v < g.num_vertices) for v in vs):
        return "vertex out of range"
    if len(set(vs)) != len(vs):
        return "repeated vertex"
    for a, b in zip(vs, vs[1:]):
        if b not in g.adjacency[a]:
            return f"consecutive vertices {a},{b} not adjacent"
    masks = g.closed_nbhd_masks()
    for j in range(3, len(vs)):
        mj = masks[vs[j]]
        for i in range(j - 2):
            if masks[vs[i]] & mj:
                return f"closed neighbourhoods of positions {i},{j} intersect"
    return None


def is_chain(g: Graph, vertices) -> bool:
    return chain_defect(g, vertices) is None


@dataclass(frozen=True)
class ChainPath:
    """A validated chain; length counts vertices."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)


class BudgetExceeded(RuntimeError):
    pass


def _bfs(g: Graph, source: int) -> tuple[np.ndarray, np.ndarray]:
    dist = np.full(g.num_vertices, -1, dtype=np.int64)
    parent = np.full(g.num_vertices, -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                parent[v] = u
                queue.append(v)
    return dist, parent


def _bfs_path(parent: np.ndarray, u: int, v: int) -> ChainPath:
    """The path from u to v in the BFS tree of u that `parent` encodes."""
    out = [v]
    while out[-1] != u:
        out.append(int(parent[out[-1]]))
    return ChainPath(tuple(reversed(out)))


def shortest_path(g: Graph, u: int, v: int) -> ChainPath:
    """BFS shortest path from u to v; always a valid chain."""
    dist, parent = _bfs(g, u)
    if dist[v] < 0:
        raise ValueError("vertices not connected")
    return _bfs_path(parent, u, v)


def _chain_walk(g: Graph, starts, order, visit, budget: int, error: str) -> tuple[int, ...] | None:
    """Depth-first walk over the chains that begin at each of `starts`.

    Calls visit(path) on every chain reached, in walk order, and returns
    the first chain for which it returns True, or None if there is none.
    The neighbours of a chain's last vertex are tried in the order that
    order(neighbours) gives, or in id order when order is None.  Each
    neighbour tried is one extension, and the walk raises
    BudgetExceeded(error) once more than `budget` have been tried.
    """
    masks = g.closed_nbhd_masks()
    adjacency = g.adjacency
    extensions = 0
    path: list[int] = []

    def extend(visited: int, forbidden: int) -> bool:
        # forbidden: union of the closed neighbourhoods of path[:-2]
        nonlocal extensions
        if visit(path):
            return True
        near = adjacency[path[-1]]
        for v in near if order is None else order(near):
            extensions += 1
            if extensions > budget:
                raise BudgetExceeded(error)
            if (visited >> v) & 1 or masks[v] & forbidden:
                continue
            path.append(v)
            k = len(path)
            if extend(visited | (1 << v), forbidden | (masks[path[k - 3]] if k >= 3 else 0)):
                return True
            path.pop()
        return False

    for start in starts:
        path[:] = [start]
        if extend(1 << start, 0):
            return tuple(path)
    return None


def _heuristic_search(g: Graph, anchor: int | None) -> ChainPath:
    """Farthest-pair BFS path; certified chain, certified lower bound."""
    best: ChainPath | None = None
    for u in range(g.num_vertices) if anchor is None else (anchor,):
        dist, parent = _bfs(g, u)
        cand = _bfs_path(parent, u, int(np.argmax(dist)))
        if best is None or cand.length > best.length:
            best = cand
    assert best is not None
    return best


def longest_chain(
    g: Graph,
    mode: str = "exact",
    anchor: int | None = None,
    budget: int = 10_000_000,
) -> ChainPath:
    """Longest chain in g (optionally through `anchor`).

    mode="exact" enumerates self-avoiding chain extensions with a budget
    guard; mode="heuristic" returns a BFS farthest-pair path, which is a
    valid chain and hence a certified lower bound.
    """
    if anchor is not None and not (0 <= anchor < g.num_vertices):
        raise ValueError("anchor out of range")
    if mode == "exact":
        # the first chain of each record length: the lexicographically
        # smallest longest chain
        best: list[int] = []

        def keep(path: list[int]) -> bool:
            nonlocal best
            if len(path) > len(best) and (anchor is None or anchor in path):
                best = list(path)
            return False

        error = f"longest_chain: extension budget {budget} exceeded"
        _chain_walk(g, range(g.num_vertices), None, keep, budget, error)
        out = ChainPath(tuple(best))
    elif mode == "heuristic":
        out = _heuristic_search(g, anchor)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    defect = chain_defect(g, out.vertices)
    if defect is not None:
        raise AssertionError(f"internal error: produced invalid chain ({defect})")
    return out


@dataclass(frozen=True)
class ChainCover:
    chains: tuple[ChainPath, ...]
    covered: bool
    uncovered: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.chains)


def chain_cover(g: Graph, min_len: int, budget: int = 10_000_000) -> ChainCover:
    """Greedy cover of all vertices by chains of at least `min_len` vertices.

    Grows a chain from the smallest uncovered vertex, steering into
    uncovered territory first; chains may reuse covered vertices.  Returns
    a failure report (covered=False) when some vertex admits no chain of
    the requested length through it from the greedy start.
    """
    if min_len < 1:
        raise ValueError("min_len must be >= 1")
    uncovered = set(range(g.num_vertices))
    chains: list[ChainPath] = []
    while uncovered:
        got = _chain_walk(
            g,
            [min(uncovered)],
            lambda near: sorted(near, key=lambda v: (v not in uncovered, v)),
            lambda path: len(path) >= min_len,
            budget,
            "chain_cover: extension budget exceeded",
        )
        if got is None:
            return ChainCover(tuple(chains), False, tuple(sorted(uncovered)))
        chains.append(ChainPath(got))
        uncovered.difference_update(got)
    return ChainCover(tuple(chains), True, ())


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: header "N M", then M lines "u v".

    Blank lines and lines starting with '#' are ignored.
    """
    rows = [
        line.split("#", 1)[0].strip()
        for line in text.splitlines()
    ]
    rows = [r for r in rows if r]
    if not rows:
        raise ValueError("empty edge list")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError("header must be 'N M'")
    n, m = int(head[0]), int(head[1])
    if len(rows) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for r in rows[1:]:
        parts = r.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {r!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return build_graph(n, edges)


def format_edge_list(g: Graph) -> str:
    edges = g.edges()
    lines = [f"{g.num_vertices} {len(edges)}"]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def load_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def parse_graph_spec(spec: str, seed: int | None = None) -> Graph:
    """Parse a graph spec string.

    Grammar: cycle:N | path:N | torus2d:AxB | complete:N | regular:N:d
    | file:PATH.  regular draws its pairing randomness from `seed`.
    """
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"bad graph spec {spec!r}")
    if kind == "cycle":
        return generate("cycle", int(rest))
    if kind == "path":
        return generate("path", int(rest))
    if kind == "torus2d":
        a, sep2, b = rest.partition("x")
        if not sep2:
            raise ValueError("torus2d spec must be torus2d:AxB")
        return generate("torus2d", int(a), int(b))
    if kind == "complete":
        return generate("complete", int(rest))
    if kind == "regular":
        n, sep2, d = rest.partition(":")
        if not sep2:
            raise ValueError("regular spec must be regular:N:d")
        return generate("random_regular", int(n), int(d), seed=seed)
    if kind == "file":
        return load_edge_list(rest)
    raise ValueError(f"unknown graph spec kind {kind!r}")
