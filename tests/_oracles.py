"""Independent brute-force oracles and small-graph enumerators.

Everything here is deliberately naive and separate from the library's
algorithms: adjacency lists by one pass over the edges, plain BFS, path
enumeration by extension, subset-enumeration packing, connectivity by
pairwise path counting or by deleting vertex sets, the length-<=2 count
by dense full-matrix products. These are the ground truth the fast
implementations are tested against.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from rcgraph import EdgeColoring, Graph


def adjacency_lists(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Per-vertex sorted neighbor tuples, by one pass over the edges."""
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return tuple(tuple(sorted(b)) for b in nbrs)


def incidence_lists(g: Graph) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per-vertex sorted (neighbor, edge index) tuples, by one pass over
    the edges."""
    inc: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        inc[u].append((v, i))
        inc[v].append((u, i))
    return tuple(tuple(sorted(b)) for b in inc)


def is_edge_subset(small: Graph, big: Graph) -> bool:
    """Whether every edge of ``small`` is an edge of ``big``, on the same
    vertex set, compared as int64 keys ``u * n + v`` of the edge arrays."""
    if small.n != big.n:
        return False

    def keys(g: Graph) -> np.ndarray:
        return g.edge_array[:, 0].astype(np.int64) * g.n + g.edge_array[:, 1]

    return bool(np.isin(keys(small), keys(big), assume_unique=True).all())


def bfs_distances(g: Graph, source: int) -> list[float]:
    dist: list[float] = [float("inf")] * g.n
    dist[source] = 0
    queue = deque([source])
    nbrs = {x: set() for x in range(g.n)}
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    while queue:
        x = queue.popleft()
        for w in nbrs[x]:
            if dist[w] == float("inf"):
                dist[w] = dist[x] + 1
                queue.append(w)
    return dist


def brute_diameter(g: Graph) -> float:
    return max(max(bfs_distances(g, s)) for s in range(g.n))


def is_connected(g: Graph) -> bool:
    return brute_diameter(g) != float("inf")


def all_simple_paths(
    g: Graph, u: int, v: int, max_len: int | None = None, exact_len: int | None = None
) -> list[tuple[int, ...]]:
    """Every simple u-v path, by repeated extension of partial paths."""
    cap = max_len if max_len is not None else g.n - 1
    if exact_len is not None:
        cap = exact_len
    edges = set(g.edges)
    out = []
    stack: list[tuple[int, ...]] = [(u,)]
    while stack:
        path = stack.pop()
        x = path[-1]
        for w in range(g.n):
            if (min(x, w), max(x, w)) not in edges or w in path:
                continue
            if w == v:
                q = path + (v,)
                if exact_len is None or len(q) - 1 == exact_len:
                    if len(q) - 1 <= cap:
                        out.append(q)
                continue
            if len(path) < cap:
                stack.append(path + (w,))
    return sorted(out, key=lambda q: (len(q), q))


def path_colors(col: EdgeColoring, path: tuple[int, ...]) -> list[int]:
    return [col.color_of(a, b) for a, b in zip(path, path[1:])]


def is_rainbow(col: EdgeColoring, path: tuple[int, ...]) -> bool:
    cols = path_colors(col, path)
    return len(set(cols)) == len(cols)


def brute_rainbow_paths(
    g: Graph, col: EdgeColoring, u: int, v: int, max_len: int
) -> list[tuple[int, ...]]:
    cap = min(max_len, col.c)
    return [q for q in all_simple_paths(g, u, v, max_len=cap) if is_rainbow(col, q)]


def brute_max_disjoint(paths: list[tuple[int, ...]], cap: int | None = None) -> int:
    """Maximum internally-disjoint subset, by enumerating every feasible
    subset (plain recursion, no bounds). With ``cap``, min(cap, maximum):
    the enumeration stops once cap disjoint paths are found."""
    internals = [set(q[1:-1]) for q in paths]
    best = 0

    def rec(idx: int, used: set, count: int) -> bool:
        nonlocal best
        best = max(best, count)
        if cap is not None and best >= cap:
            return True
        for j in range(idx, len(paths)):
            if internals[j] & used:
                continue
            if rec(j + 1, used | internals[j], count + 1):
                return True
        return False

    rec(0, set(), 0)
    return best if cap is None else min(best, cap)


def brute_max_disjoint_rainbow(g: Graph, col: EdgeColoring, u: int, v: int) -> int:
    return brute_max_disjoint(brute_rainbow_paths(g, col, u, v, col.c))


@lru_cache(maxsize=64)
def distinct_internal_paths(g: Graph, u: int, v: int) -> list[tuple[int, ...]]:
    """One simple u-v path per internal vertex set: paths that share one
    are interchangeable in a packing. Cached, so that checking one graph
    at several k enumerates its paths once."""
    return list({frozenset(q[1:-1]): q for q in all_simple_paths(g, u, v)}.values())


def brute_vertex_connectivity_at_least(g: Graph, k: int) -> bool:
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if brute_max_disjoint(distinct_internal_paths(g, u, v), cap=k) < k:
                return False
    return True


def dense_length2_counts(planes: np.ndarray) -> np.ndarray:
    """Length-<=2 count of every pair from the dense (c, n, n) per-color
    planes: A + M + M^T with M the sum over i < j of P_i P_j, as c - 1 full
    n x n products over suffix sums built in place (planes is consumed)."""
    mixed = np.zeros_like(planes[0])
    for i in range(len(planes) - 2, -1, -1):
        mixed += planes[i] @ planes[i + 1]
        planes[i] += planes[i + 1]
    planes[0] += mixed
    planes[0] += mixed.T
    return planes[0]


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def all_labeled_graphs(n: int):
    """Every labeled graph on n vertices, as Graph values."""
    pairs = all_pairs(n)
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        yield Graph.from_edges(n, edges)


def connected_labeled_graphs(n: int):
    for g in all_labeled_graphs(n):
        if is_connected(g):
            yield g


def labeled_trees(n: int):
    for g in connected_labeled_graphs(n):
        if g.m == n - 1:
            yield g


def is_k_connected_by_deletion(g: Graph, k: int) -> bool:
    """k-vertex-connectivity by its definition: n >= k + 1, and g stays
    connected after deleting any k - 1 vertices, each deletion set
    checked by a plain search."""
    if g.n < k + 1:
        return False
    nbrs = adjacency_lists(g)
    for gone in combinations(range(g.n), k - 1):
        kept = set(range(g.n)).difference(gone)
        start = min(kept)
        reached, frontier = {start}, [start]
        while frontier:
            for w in nbrs[frontier.pop()]:
                if w in kept and w not in reached:
                    reached.add(w)
                    frontier.append(w)
        if reached != kept:
            return False
    return True


def is_two_connected(g: Graph) -> bool:
    """Connected with no cut vertex, by deleting each vertex in turn."""
    return is_k_connected_by_deletion(g, 2)


def all_colorings(g: Graph, c: int):
    """Every (not just canonical) c-coloring of g's edges."""
    for assignment in product(range(1, c + 1), repeat=g.m):
        yield EdgeColoring.from_assignment(g, c, assignment)


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, all_pairs(n))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
