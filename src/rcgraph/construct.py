"""Constructive procedures: branching-tree path certificates and
randomized rainbow colorings.

The tree-growing process builds a b-ary tree of depth d-1 from u, level
by level, drawing each vertex's children from neighbors not yet used by
the tree (and never the target v). Leaves adjacent to v, taken at most
one per *vice-tree* (the subtree under a depth-1 vertex), yield length-d
u-v paths that are internally vertex-disjoint by construction.

Random colorings are keyed per vertex pair: the color of edge {u, v}
depends only on (seed, u, v), never on which other edges exist, so
colorings restrict consistently across coupled graph families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .graphs import Graph, vertex_connectivity_at_least
from .rainbow import (
    BudgetExceeded,
    EdgeColoring,
    PathPacking,
    _check_pair,
    _max_disjoint_packing,
    _simple_paths,
    is_rainbow_k_connected,
)
from .seeds import check_int, check_seed, mix64, splitmix64, splitmix64_array
from .theory import choose_depth_from_epsilon


@dataclass(frozen=True)
class TreeGrowth:
    """A successfully grown branching tree.

    ``levels[i]`` lists the depth-i vertices in insertion order;
    ``levels[0]`` is ``(root,)`` and every vertex at depth >= 1 maps to
    its parent in ``parents``. Levels are pairwise disjoint and exclude
    the growth target.
    """

    root: int
    branching: int
    levels: tuple[tuple[int, ...], ...]
    parents: dict[int, int]

    @property
    def leaves(self) -> tuple[int, ...]:
        return self.levels[-1]

    def path_from_root(self, leaf: int) -> tuple[int, ...]:
        path = [leaf]
        while path[-1] != self.root:
            path.append(self.parents[path[-1]])
        return tuple(reversed(path))

    def vice_tree_root(self, leaf: int) -> int:
        """The depth-1 ancestor of a leaf (the leaf itself at depth 1)."""
        x = leaf
        while self.parents[x] != self.root:
            x = self.parents[x]
        return x


@dataclass(frozen=True)
class GrowthFailure:
    """Expansion ran short: ``vertex`` (at the previous level) had fewer
    than ``needed`` eligible neighbors while building level ``level``."""

    level: int
    vertex: int
    needed: int
    available: int


def grow_tree(
    g: Graph, u: int, v: int, d: int, b: int, seed: int | None = None
) -> Union[TreeGrowth, GrowthFailure]:
    """Grow a b-ary tree of depth d-1 rooted at u, avoiding v.

    Children are sampled uniformly without replacement from the eligible
    neighbors under ``seed``; with ``seed=None`` the lowest-index
    neighbors are taken, for seed-free reproducibility. Only the neighbor
    rows of expanded vertices are read, never the whole adjacency.
    """
    _check_pair(g, u, v)
    d, b = check_int("depth d", d, 2), check_int("branching b", b, 1)
    rng = np.random.default_rng(check_seed(seed)) if seed is not None else None
    blocked = {u, v}
    levels: list[tuple[int, ...]] = [(u,)]
    parents: dict[int, int] = {}
    for level in range(1, d):
        grown: list[int] = []
        for x in levels[level - 1]:
            eligible = [w for w in g.neighbors(x).tolist() if w not in blocked]
            if len(eligible) < b:
                return GrowthFailure(level, x, b, len(eligible))
            if rng is None:
                chosen = eligible[:b]
            else:
                picks = rng.choice(len(eligible), size=b, replace=False)
                chosen = [eligible[i] for i in picks]
            for w in chosen:
                parents[w] = x
                blocked.add(w)
                grown.append(w)
        levels.append(tuple(grown))
    return TreeGrowth(u, b, tuple(levels), parents)


def grow_disjoint_paths(
    g: Graph, u: int, v: int, d: int, b: int, seed: int | None = None
) -> Union[PathPacking, GrowthFailure]:
    """Certificate of internally vertex-disjoint length-d u-v paths.

    Grows the branching tree, finds leaves adjacent to v, keeps the
    lowest-index such leaf per vice-tree, and returns the tree paths
    extended by the closing edge to v. The packing may be empty if no
    leaf touches v; expansion shortfalls return GrowthFailure instead.
    """
    tree = grow_tree(g, u, v, d, b, seed)
    if isinstance(tree, GrowthFailure):
        return tree
    chosen: dict[int, int] = {}
    for leaf in tree.leaves:
        if g.has_edge(leaf, v):
            root_w = tree.vice_tree_root(leaf)
            if root_w not in chosen or leaf < chosen[root_w]:
                chosen[root_w] = leaf
    paths = sorted(tree.path_from_root(leaf) + (v,) for leaf in chosen.values())
    return PathPacking(u, v, tuple(paths))


def count_disjoint_length_d_paths(
    g: Graph, u: int, v: int, d: int, path_budget: int = 2000
) -> int:
    """Exact maximum number of internally vertex-disjoint u-v paths of
    length exactly d, via enumeration plus exact packing. Refuses
    instances whose enumerated path count exceeds ``path_budget``."""
    _check_pair(g, u, v)
    d = check_int("d", d, 1)
    path_budget = check_int("path_budget", path_budget, 0)
    found: list[tuple[int, ...]] = []
    for q in _simple_paths(g, u, v, d, (0,) * g.m):
        if len(q) == d + 1:
            found.append(q)
            if len(found) > path_budget:
                raise BudgetExceeded(
                    f"more than {path_budget} length-{d} paths between "
                    f"{u} and {v}; raise path_budget to force the count"
                )
    return _max_disjoint_packing(found, cap=None)


def pair_color(seed: int, u: int, v: int, c: int) -> int:
    """Color in 1..c of the pair {u, v} under ``seed``; the scalar form of
    the stream used by :func:`rainbow_color_random`."""
    a, b = (u, v) if u < v else (v, u)
    return 1 + mix64(seed, a, b) % c


def rainbow_color_random(g: Graph, c: int, seed: int) -> EdgeColoring:
    """Independent uniform color in 1..c per edge, deterministic per seed.

    Colors are keyed by the edge's endpoints (see :func:`pair_color`), so
    two graphs sharing an edge and a seed agree on its color.
    """
    c = check_int("color count c", c, 1)
    if c >= 2**31:
        raise ValueError(f"color count c = {c} exceeds the int32 color limit 2**31 - 1")
    seed = check_seed(seed)
    if g.m == 0:
        return EdgeColoring(g, c, np.empty(0, dtype=np.int32))
    base = np.uint64(splitmix64(seed))
    u64 = g.edge_array[:, 0].astype(np.uint64)
    v64 = g.edge_array[:, 1].astype(np.uint64)
    mixed = splitmix64_array(splitmix64_array(base ^ u64) ^ v64)
    colors = (mixed % np.uint64(c)).astype(np.int32) + 1
    return EdgeColoring(g, c, colors)


@dataclass(frozen=True)
class RainbowColoring:
    """A verified coloring achieving rainbow-k-connectivity.

    ``claimed_lower_bound`` is the depth-derived claim ``colors_used - 1
    <= rc_k`` for typical inputs; it is reported metadata, not a
    certificate of optimality.
    """

    coloring: EdgeColoring
    colors_used: int
    depth_estimate: int
    attempts_used: int
    claimed_lower_bound: int


@dataclass(frozen=True)
class ColoringFailure:
    """All attempts failed verification; ``witness`` is the last failing pair."""

    witness: tuple[int, int]
    attempts_used: int
    colors_tried: tuple[int, ...]


@dataclass(frozen=True)
class NotKConnected:
    """The graph is not k-vertex-connected, so no coloring can work
    (the minimum color count is infinite)."""

    k: int


ColoringOutcome = Union[RainbowColoring, ColoringFailure, NotKConnected]


#: Most random colorings :func:`rainbow_k_color` draws per color count;
#: each is one exact verification.
MAX_ATTEMPTS = 2**16


def rainbow_k_color(
    g: Graph,
    k: int,
    attempts: int = 16,
    seed: int = 0,
    known_p: float | None = None,
) -> ColoringOutcome:
    """Randomized near-optimal rainbow-k-coloring of a (random) graph.

    Estimates the edge probability from density (or uses ``known_p``),
    derives the depth budget d (at most m) from the exponent of p, then
    draws random d-colorings until one verifies, escalating once to d+1
    colors. Every returned coloring has been verified; an immediate
    NotKConnected diagnosis is returned when no coloring can exist. More
    than ``MAX_ATTEMPTS`` attempts raise BudgetExceeded before any work.
    """
    k, attempts = check_int("k", k, 1), check_int("attempts", attempts, 1)
    if attempts > MAX_ATTEMPTS:
        raise BudgetExceeded(
            f"attempts = {attempts} is above the budget of {MAX_ATTEMPTS} attempts per color count"
        )
    check_seed(seed)
    if known_p is not None and not 0.0 < known_p <= 1.0:
        raise ValueError(f"known_p must lie in (0, 1], got {known_p}")
    if not vertex_connectivity_at_least(g, k):
        return NotKConnected(k)
    if k == 1 and g.is_complete:
        col = EdgeColoring.monochrome(g)
        assert is_rainbow_k_connected(g, col, 1).ok
        return RainbowColoring(col, 1, 1, 0, 1)
    p_hat = known_p if known_p is not None else 2.0 * g.m / (g.n * (g.n - 1))
    if p_hat >= 1.0:
        eps_hat = 0.0
    else:
        eps_hat = -math.log(p_hat) / math.log(g.n)
        eps_hat = min(max(eps_hat, 0.0), math.nextafter(1.0, 0.0))
    d = min(choose_depth_from_epsilon(eps_hat), g.m)
    total = 0
    last_witness: tuple[int, int] | None = None
    for c in (d, d + 1):
        for i in range(attempts):
            col = rainbow_color_random(g, c, mix64(seed, c, i))
            total += 1
            result = is_rainbow_k_connected(g, col, k)
            if result.ok:
                return RainbowColoring(col, c, d, total, max(d - 1, 1))
            last_witness = result.witness
    assert last_witness is not None
    return ColoringFailure(last_witness, total, (d, d + 1))
