"""Simple undirected graphs with seeded G(n, p) generation.

Vertices are ``0..n-1``. Edges are stored canonically as an ``(m, 2)``
int32 array of pairs ``(u, v)`` with ``u < v``, sorted lexicographically.
Every neighbor lookup reads one compressed sparse row (CSR) index,
``Graph.csr``, built from that array with numpy on first use: row ``x``
lists the neighbors of ``x`` in increasing order next to the rows of
``edge_array`` that join them. ``has_edge``, ``edge_id``, ``degree``
and ``neighbors`` read single rows, so code that visits a few vertices
never pays for the whole graph in Python objects; vertex connectivity
reads only the CSR. The Python views ``incidence`` (from the CSR) and
``edges`` (from ``edge_array``) are built on first use. Graph values are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

from .seeds import check_int, check_seed

#: Returned by :func:`diameter` for disconnected graphs. Compares greater
#: than every finite distance; never a numeric overflow of some int type.
INFINITE = math.inf


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    ``edge_array`` must be canonical: shape ``(m, 2)``, dtype int32,
    ``u < v`` per row, rows sorted lexicographically, no duplicates.
    Use :meth:`from_edges` to build one from arbitrary pair iterables.
    """

    n: int
    edge_array: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_int("vertex count n", self.n, 2))
        arr = np.asarray(self.edge_array, dtype=np.int32)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edge_array must have shape (m, 2)")
        object.__setattr__(self, "edge_array", arr)
        if arr.shape[0] == 0:
            return
        u, v = arr[:, 0], arr[:, 1]
        if not ((0 <= u) & (u < v) & (v < self.n)).all():
            raise ValueError("edges must satisfy 0 <= u < v < n (no self-loops)")
        # lexicographic strictly increasing <=> sorted and duplicate-free
        keys = u.astype(np.int64) * self.n + v.astype(np.int64)
        if not (np.diff(keys) > 0).all():
            raise ValueError("edge_array must be lexicographically sorted without duplicates")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from unordered vertex pairs; normalizes and dedupes."""
        pairs = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            pairs.add((u, v) if u < v else (v, u))
        if pairs:
            arr = np.array(sorted(pairs), dtype=np.int32)
        else:
            arr = np.empty((0, 2), dtype=np.int32)
        return cls(n, arr)

    @property
    def m(self) -> int:
        """Number of edges."""
        return int(self.edge_array.shape[0])

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(indptr, nbrs, eids)`` neighbor index.

        Row ``x`` is ``nbrs[indptr[x]:indptr[x + 1]]``, the neighbors of
        ``x`` in increasing order; ``eids`` holds the ``edge_array`` row
        of each of those edges.
        """
        n, arr = self.n, self.edge_array
        lo, hi = arr[:, 0], arr[:, 1]
        m = arr.shape[0]
        below = np.bincount(hi, minlength=n)  # per vertex: neighbors below it
        above = np.bincount(lo, minlength=n)  # per vertex: neighbors above it
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(below + above, out=indptr[1:])
        # Row x holds its smaller neighbors, then its larger ones. Edges come
        # sorted by lo, so a stable sort by hi lists every row's smaller
        # neighbors in order; numpy sorts 16-bit keys by radix sort.
        by_hi = np.argsort(hi.astype(np.uint16) if n <= 1 << 16 else hi, kind="stable")
        ranks = np.arange(m)
        small_slots = ranks + (np.cumsum(above) - above)[hi[by_hi]]
        large_slots = ranks + np.cumsum(below)[lo]
        nbrs = np.empty(2 * m, dtype=np.int32)
        eids = np.empty(2 * m, dtype=np.intp)
        nbrs[small_slots] = lo[by_hi]
        eids[small_slots] = by_hi
        nbrs[large_slots] = hi
        eids[large_slots] = ranks
        for a in (indptr, nbrs, eids):
            a.flags.writeable = False
        return indptr, nbrs, eids

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Canonical edge tuple: (u, v) with u < v, lexicographically sorted."""
        return tuple(map(tuple, self.edge_array.tolist()))

    @cached_property
    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex tuples of (neighbor, edge index), neighbors sorted."""
        indptr, nbrs, eids = self.csr
        rows, ids, bounds = nbrs.tolist(), eids.tolist(), indptr.tolist()
        return tuple(tuple(zip(rows[a:b], ids[a:b])) for a, b in zip(bounds, bounds[1:]))

    def neighbors(self, u: int) -> np.ndarray:
        """The sorted neighbors of u: a read-only row of the CSR."""
        indptr, nbrs, _ = self.csr
        return nbrs[indptr[u]:indptr[u + 1]]

    def _arc(self, u: int, v: int) -> int:
        """Position of v in row u of the CSR, or -1 when {u, v} is no edge."""
        if not 0 <= u < self.n:
            return -1
        indptr, nbrs, _ = self.csr
        start, stop = int(indptr[u]), int(indptr[u + 1])
        i = start + int(np.searchsorted(nbrs[start:stop], v))
        return i if i < stop and nbrs[i] == v else -1

    def has_edge(self, u: int, v: int) -> bool:
        return self._arc(u, v) >= 0

    def edge_id(self, u: int, v: int) -> int:
        """The ``edge_array`` row of edge {u, v}; KeyError if it is no edge."""
        arc = self._arc(u, v)
        if arc < 0:
            raise KeyError((u, v) if u < v else (v, u))
        return int(self.csr[2][arc])

    def degree(self, u: int) -> int:
        return len(self.neighbors(u))

    @property
    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edge_array, other.edge_array)

    def __hash__(self) -> int:
        return hash((self.n, self.edge_array.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@lru_cache(maxsize=8)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column indices of all unordered pairs in lexicographic order."""
    iu, ju = np.triu_indices(n, k=1)
    return iu.astype(np.int32), ju.astype(np.int32)


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")


def pair_draws(n: int, seed: int) -> np.ndarray:
    """One uniform draw in [0, 1) per vertex pair, in lexicographic pair
    order, deterministically per (n, seed)."""
    n = check_int("n", n, 2)
    return np.random.default_rng(check_seed(seed)).random(n * (n - 1) // 2)


def gnp_threshold(n: int, draws: np.ndarray, p: float) -> Graph:
    """The graph on n vertices whose edges are the pairs with draw < p."""
    _check_probability(p)
    n = check_int("n", n, 2)
    iu, ju = _pair_indices(n)
    if draws.shape != iu.shape:
        raise ValueError(f"expected {iu.shape[0]} pair draws for n={n}, got shape {draws.shape}")
    kept = np.flatnonzero(draws < p)
    return Graph(n, np.column_stack((iu.take(kept), ju.take(kept))))


def gnp_generate(n: int, p: float, seed: int) -> Graph:
    """Sample an Erdos-Renyi G(n, p) graph, deterministically per (n, p, seed).

    The graph is ``gnp_threshold(n, pair_draws(n, seed), p)``. Because the
    draws depend only on (n, seed), thresholding the same draws at
    p1 <= p2 yields nested edge sets (monotone coupling), which the sweep
    engine exploits to draw once per trial and bisect over p.
    """
    _check_probability(p)  # before drawing n^2/2 uniforms
    return gnp_threshold(n, pair_draws(n, seed), p)


def _reach_one_step(g: Graph) -> np.ndarray:
    """Boolean n x n matrix of pairs at distance at most 1."""
    a = np.eye(g.n, dtype=bool)
    if g.m:
        u, v = g.edge_array[:, 0], g.edge_array[:, 1]
        a[u, v] = True
        a[v, u] = True
    return a


#: uint64 words in one block of product lookup tables (4 MB). With the
#: output and one gathered row set, this bounds the memory of a product.
_TABLE_WORDS = 1 << 19


def _pack_rows(a: np.ndarray) -> np.ndarray:
    """Boolean rows as little-endian uint64 words: column j of a row is bit
    j % 64 of word j // 64 on every host."""
    rows, n = a.shape
    out = np.zeros((rows, -(-n // 64) * 8), dtype=np.uint8)
    out[:, : -(-n // 8)] = np.packbits(a, axis=1, bitorder="little")
    return out.view("<u8")


def _or_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean product of packed rows: row i of the result ORs the rows
    ``y[j]`` for every column j set in ``x[i]``.

    The method of four Russians (Arlazarov, Dinic, Kronrod & Faradzev,
    1970): for each byte of x's columns, a table holds the ORs of all 256
    subsets of the eight matching y rows, so every output row costs one
    table lookup per byte. Tables are built in blocks of at most
    ``_TABLE_WORDS`` words.
    """
    nbytes, w = -(-y.shape[0] // 8), y.shape[1]
    cols = np.ascontiguousarray(x.view(np.uint8)[:, :nbytes].T)
    ys = np.zeros((nbytes * 8, w), dtype="<u8")
    ys[: y.shape[0]] = y
    ys = ys.reshape(nbytes, 8, w)
    out = np.zeros((x.shape[0], w), dtype="<u8")
    looked_up = np.empty_like(out)
    per_block = max(1, _TABLE_WORDS // (256 * w))
    for b0 in range(0, nbytes, per_block):
        block = ys[b0 : b0 + per_block]
        tables = np.zeros((len(block), 256, w), dtype="<u8")
        for bit in range(8):  # subsets with top bit `bit` extend the smaller ones
            np.bitwise_or(tables[:, : 1 << bit], block[:, bit, None],
                          out=tables[:, 1 << bit : 2 << bit])
        for b, table in enumerate(tables, b0):
            np.take(table, cols[b], axis=0, out=looked_up)
            out |= looked_up
    return out


def diameter(g: Graph) -> int | float:
    """Largest shortest-path distance over all vertex pairs.

    Returns :data:`INFINITE` iff the graph is disconnected. Reach sets are
    packed bit rows, n^2/8 bytes per power. Squares the reach matrix until
    reach is total, then finds the last step count whose reach is not
    total by binary lifting over the saved powers: O(log D) products
    (:func:`_or_product`) for diameter D. Each product computes only the
    rows not yet total, since reach includes the identity and a total row
    stays total.
    """
    full = _pack_rows(np.ones((1, g.n), dtype=bool))[0]

    def is_open(rows: np.ndarray) -> np.ndarray:
        return (rows != full).any(axis=1)

    # powers[i] holds reachability within 2**i steps; `open_rows` lists
    # the rows of the last power that are not total.
    powers = [_pack_rows(_reach_one_step(g))]
    open_rows = np.flatnonzero(is_open(powers[0]))
    while open_rows.size:
        rows = powers[-1][open_rows]
        grown = _or_product(rows, powers[-1])
        if np.array_equal(grown, rows):
            return INFINITE
        powers.append(powers[-1].copy())
        powers[-1][open_rows] = grown
        open_rows = open_rows[is_open(grown)]
    if len(powers) == 1:
        return 1  # reach within one step is total: complete graph
    # Reach within `steps` is not total; extend it by every smaller power
    # that keeps it so. One more step then reaches every pair. `reach`
    # holds only the rows not yet total.
    steps, reach = 1 << (len(powers) - 2), powers[-2]
    reach = reach[is_open(reach)]
    for bit in range(len(powers) - 3, -1, -1):
        nxt = _or_product(reach, powers[bit])
        still_open = is_open(nxt)
        if still_open.any():
            steps, reach = steps + (1 << bit), nxt[still_open]
    return steps + 1


def _dfs_tree(g: Graph) -> tuple[list[int], list[int]]:
    """Preorder and tree parents of an iterative depth-first search from
    vertex 0 over the CSR; each step descends to the first unseen vertex
    in the unread rest of the top vertex's row."""
    indptr, nbrs, _ = g.csr
    parent = np.full(g.n, -1)  # the root is its own parent, so all seen are >= 0
    parent[0] = 0
    unread, ends = indptr[:-1].tolist(), indptr[1:].tolist()
    order, stack = [0], [0]
    while stack:
        x = stack[-1]
        row = parent[nbrs[unread[x]:ends[x]]]  # -1 marks unseen vertices
        i = int(row.argmin()) if row.size else 0
        if not row.size or row[i] >= 0:  # nothing unseen left in the row
            stack.pop()
            continue
        unread[x] += i + 1
        w = int(nbrs[unread[x] - 1])
        parent[w] = x
        order.append(w)
        stack.append(w)
    return order, parent.tolist()


def _has_cut_vertex(g: Graph, order: list[int], parent: list[int]) -> bool:
    """Hopcroft-Tarjan lowpoint test on a spanning DFS tree; every row must
    be non-empty. Lowpoints start as the least preorder number among the
    neighbors (the parent arc may stay in: this tests cut vertices, not
    bridges), then one reverse-preorder pass pulls them into the parents."""
    indptr, nbrs, _ = g.csr
    disc = np.empty(g.n, dtype=np.intp)
    disc[order] = np.arange(g.n)
    low = np.minimum.reduceat(disc[nbrs], indptr[:-1]).tolist()
    disc = disc.tolist()
    root_children = 0
    for x in reversed(order[1:]):  # every child before its parent
        p = parent[x]
        if p == 0:
            root_children += 1
        elif low[x] >= disc[p]:
            return True
        low[p] = min(low[p], low[x])
    return root_children > 1


def _split_network(g: Graph) -> tuple[list[int], list[int], list[list[int]]]:
    """Unit-capacity vertex-split flow network of g, built from the CSR:
    node in(v) = 2v and out(v) = 2v + 1, one arc in(v) -> out(v) per vertex,
    then one arc out(x) -> in(y) per CSR arc x -> y, each followed by its
    reverse (arc e's reverse is e ^ 1). Returns the head of every arc, the
    capacities (1 forward, 0 reverse) and each node's leaving arcs."""
    indptr, nbrs, _ = g.csr
    split = 2 * np.arange(g.n)
    forward_tail = np.concatenate((split, split.repeat(np.diff(indptr)) + 1))
    forward_head = np.concatenate((split + 1, 2 * nbrs))
    tail = np.column_stack((forward_tail, forward_head)).ravel()
    head = np.column_stack((forward_head, forward_tail)).ravel()
    order = np.argsort(tail, kind="stable")  # arcs grouped by tail, ids increasing
    bounds = np.searchsorted(tail, np.arange(2 * g.n + 1), sorter=order).tolist()
    leaving = order.tolist()
    arcs = [leaving[a:b] for a, b in zip(bounds, bounds[1:])]
    return head.tolist(), [1, 0] * (head.size // 2), arcs


def _disjoint_paths_at_least(net: tuple, s: int, t: int, k: int) -> bool:
    """True iff there are >= k internally vertex-disjoint s-t paths: at most
    k breadth-first augmentations from out(s) to in(t) on a copy of the
    capacities of ``net``, a :func:`_split_network`."""
    head, cap, arcs = net
    cap = cap.copy()
    source, sink = 2 * s + 1, 2 * t
    for _ in range(k):
        pred = {source: -1}  # node -> the arc that reached it
        queue = [source]
        for a in queue:  # grows while read: a FIFO queue
            for e in arcs[a]:
                if cap[e] and head[e] not in pred:
                    pred[head[e]] = e
                    queue.append(head[e])
            if sink in pred:
                break
        else:
            return False
        b = sink
        while b != source:
            e = pred[b]
            cap[e] -= 1
            cap[e ^ 1] += 1
            b = head[e ^ 1]
    return True


def vertex_connectivity_at_least(g: Graph, k: int) -> bool:
    """Exact decision: does every vertex pair have >= k internally
    vertex-disjoint connecting paths (equivalently, is g k-vertex-connected)?

    A complete graph answers at once, with no search. Otherwise one
    depth-first search over ``Graph.csr`` answers k = 1 and gates the
    rest; k = 2 is the lowpoint cut-vertex test on its tree. For k >= 3
    each non-adjacent pair, in lexicographic order, runs at most k
    augmenting paths on one :func:`_split_network` until a pair falls short.
    """
    k = check_int("k", k, 1)
    n = g.n
    if k > n - 1:
        return False
    if g.is_complete:
        return True  # complete graphs have connectivity n - 1 >= k here
    order, parent = _dfs_tree(g)
    if len(order) < n:
        return False
    if k == 1:
        return True
    if np.diff(g.csr[0]).min() < k:
        return False
    if k == 2:
        return not _has_cut_vertex(g, order, parent)
    net = _split_network(g)
    for u in range(n - 1):
        apart = np.ones(n, dtype=bool)
        apart[g.neighbors(u)] = False
        for v in np.flatnonzero(apart[u + 1:]).tolist():
            if not _disjoint_paths_at_least(net, u, u + 1 + v, k):
                return False
    return True
