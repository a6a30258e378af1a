"""Edge colorings, rainbow paths, and exact rainbow-k-connectivity checks.

A path is *rainbow* if its edges carry pairwise distinct colors, which
caps its length at the number of colors. An edge-colored graph is
rainbow-k-connected when every vertex pair is joined by at least k
internally vertex-disjoint rainbow paths. This module decides that
exactly, and provides a brute-force oracle for the minimum color count
on small graphs.

Colorings with more than 6 colors, and those :func:`rc_k_exact` tries,
are verified pair by pair. Others use matrix algebra: rainbow reach over
color subsets at k = 1 with c >= 3, and otherwise a lower bound on the
length-<=2 count, [uv in E] plus the rainbow middles, over a doubling
prefix of middle vertices, made exact in lexicographic order only where
it is below k. A pair still below k fails at c <= 2, where no rainbow
path is longer, or if either degree is below k. At c = 3 the matrix
route counts each batch of such pairs at once (``_first_short_pair``):
the 3-edge rainbow paths come from gathered blocks of the two neighbor
lists, and only a pair that still misses two or more paths gets the
exact packing. Otherwise :func:`max_disjoint_rainbow_paths` counts the
pair: the edge and the middles first, then the longer rainbow paths
that avoid every middle, shortest first and packed first fit as they
are found, and the exact set packing only when the search runs out. One
iterative simple-path enumerator, ``_simple_paths``, serves every path
search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, total_ordering
from itertools import combinations, pairwise
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as np

from .graphs import INFINITE, Graph, diameter, vertex_connectivity_at_least
from .seeds import check_int

# Up to this color count is_rainbow_k_connected uses the matrix route,
# whose subset DP costs c * 2**(c - 1) products.
_MATRIX_MAX_COLORS = 6


class BudgetExceeded(RuntimeError):
    """An exact search was refused because it would exceed its budget."""


@total_ordering
class _Exceeds:
    """Sentinel sorting above every finite color count and below INFINITE."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Exceeds)

    def __lt__(self, other: object):
        if isinstance(other, _Exceeds):
            return False
        if isinstance(other, (int, float)):
            return math.isinf(other) and other > 0
        return NotImplemented

    def __hash__(self) -> int:
        return hash("rc-exceeds")

    def __repr__(self) -> str:
        return "EXCEEDS"


#: rc_k is finite but larger than the max_colors cap of the search.
EXCEEDS = _Exceeds()

RcValue = Union[int, float, _Exceeds]


@dataclass(frozen=True, eq=False)
class EdgeColoring:
    """Total assignment of a color in 1..c to every edge of a graph.

    ``color_array`` is an ``(m,)`` int32 array aligned with the graph's
    canonical edge order.
    """

    graph: Graph
    c: int
    color_array: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", check_int("color count c", self.c, 1))
        arr = np.asarray(self.color_array, dtype=np.int32)
        if arr.shape != (self.graph.m,):
            raise ValueError(
                f"coloring has {arr.shape[0] if arr.ndim == 1 else '?'} entries "
                f"for a graph with {self.graph.m} edges"
            )
        object.__setattr__(self, "color_array", arr)
        if arr.size and not ((arr >= 1) & (arr <= self.c)).all():
            raise ValueError(f"edge colors must lie in 1..{self.c}")

    @classmethod
    def from_assignment(cls, graph: Graph, c: int, assignment: Iterable[int]) -> "EdgeColoring":
        return cls(graph, c, np.fromiter(assignment, dtype=np.int32, count=graph.m))

    @classmethod
    def monochrome(cls, graph: Graph) -> "EdgeColoring":
        """The unique 1-coloring: every edge gets color 1."""
        return cls(graph, 1, np.ones(graph.m, dtype=np.int32))

    @cached_property
    def assignment(self) -> tuple[int, ...]:
        return tuple(self.color_array.tolist())

    @cached_property
    def color_bits(self) -> tuple[int, ...]:
        """Per-edge ``1 << color``, the masks of the rainbow path search."""
        return tuple(1 << color for color in self.assignment)

    def color_of(self, u: int, v: int) -> int:
        """Color of edge {u, v}; raises KeyError when it is not an edge."""
        return int(self.color_array[self.graph.edge_id(u, v)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeColoring):
            return NotImplemented
        return (
            self.c == other.c
            and self.graph == other.graph
            and np.array_equal(self.color_array, other.color_array)
        )

    def __hash__(self) -> int:
        return hash((self.graph, self.c, self.color_array.tobytes()))

    def __repr__(self) -> str:
        return f"EdgeColoring(n={self.graph.n}, m={self.graph.m}, c={self.c})"


@dataclass(frozen=True)
class PathPacking:
    """A set of u-v paths whose internal vertex sets are pairwise disjoint."""

    u: int
    v: int
    paths: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.paths)


class VerifyResult(NamedTuple):
    ok: bool
    witness: tuple[int, int] | None  # lexicographically first failing pair


def validate_path_packing(
    g: Graph,
    packing: PathPacking,
    required_length: int | None = None,
    coloring: EdgeColoring | None = None,
) -> None:
    """Re-verify a packing from scratch; raises ValueError on any violation."""
    u, v = packing.u, packing.v
    if u == v or not (0 <= u < g.n) or not (0 <= v < g.n):
        raise ValueError(f"bad endpoints ({u}, {v})")
    seen_internal: set[int] = set()
    for path in packing.paths:
        if len(path) < 2 or path[0] != u or path[-1] != v:
            raise ValueError(f"path {path} does not run from {u} to {v}")
        if len(set(path)) != len(path):
            raise ValueError(f"path {path} repeats a vertex")
        if required_length is not None and len(path) - 1 != required_length:
            raise ValueError(f"path {path} has length {len(path) - 1}, expected {required_length}")
        for a, b in zip(path, path[1:]):
            if not g.has_edge(a, b):
                raise ValueError(f"path {path} uses missing edge ({a}, {b})")
        if coloring is not None:
            cols = [coloring.color_of(a, b) for a, b in zip(path, path[1:])]
            if len(set(cols)) != len(cols):
                raise ValueError(f"path {path} repeats a color")
        internal = set(path[1:-1])
        if internal & seen_internal:
            raise ValueError(f"path {path} shares internal vertices with another path")
        seen_internal |= internal


def _check_pair(g: Graph, u: int, v: int) -> None:
    if not (0 <= u < g.n) or not (0 <= v < g.n):
        raise ValueError(f"vertices ({u}, {v}) out of range for n={g.n}")
    if u == v:
        raise ValueError(f"endpoints must differ, got u = v = {u}")


def _check_coloring_for(g: Graph, col: EdgeColoring) -> None:
    if col.graph is not g and col.graph != g:
        raise ValueError("coloring belongs to a structurally different graph")


def _simple_paths(
    g: Graph, u: int, v: int, cap: int, bits: Sequence[int], blocked: Iterable[int] = ()
) -> Iterator[tuple[int, ...]]:
    """Yield every simple u-v path of at most ``cap`` edges whose edges
    carry pairwise disjoint bits and whose inner vertices avoid
    ``blocked``, in depth-first order over the sorted incidence lists.

    ``bits[ei]`` is the bit of edge ``ei``: its color bit for rainbow
    paths, or 0 for every edge when no edge may block another. The search
    keeps an explicit stack of (neighbor iterator, used bits) frames, so
    path length is not bounded by the interpreter's recursion limit.
    """
    inc = g.incidence
    path = [u]
    on_path = [False] * g.n
    for w in (u, *blocked):
        on_path[w] = True
    stack = [(iter(inc[u]), 0)]
    while stack:
        it, used = stack[-1]
        deeper = len(path) < cap
        for w, ei in it:
            bit = bits[ei]
            if used & bit:
                continue
            if w == v:
                yield (*path, v)
                continue
            if on_path[w] or not deeper:
                continue
            on_path[w] = True
            path.append(w)
            stack.append((iter(inc[w]), used | bit))
            break
        else:
            stack.pop()
            on_path[path.pop()] = False


def enumerate_rainbow_paths(
    g: Graph, col: EdgeColoring, u: int, v: int, max_len: int
) -> list[tuple[int, ...]]:
    """All simple u-v paths of length <= min(max_len, c) with pairwise
    distinct edge colors, ordered by (length, vertex sequence)."""
    _check_pair(g, u, v)
    _check_coloring_for(g, col)
    max_len = check_int("max_len", max_len, 1)
    paths = _simple_paths(g, u, v, min(max_len, col.c), col.color_bits)
    return sorted(paths, key=lambda q: (len(q), q))


def _max_disjoint_packing(paths: Iterable[tuple[int, ...]], cap: int | None = None) -> int:
    """Exact maximum set packing over the paths' internal vertex sets, or
    min(cap, maximum): first fit as the paths arrive, returning once ``cap``
    are held, then a branch and bound over all of them, shortest first,
    bounded by the first-fit count and the remaining-path count."""
    held: list[tuple[int, tuple[int, ...], int]] = []
    used = found = 0
    for q in paths:
        mk = 0
        for w in q[1:-1]:
            mk |= 1 << w
        held.append((len(q), q, mk))
        if not mk & used:
            used |= mk
            found += 1
            if found == cap:
                return cap

    held.sort()
    masks = [mk for _, _, mk in held]
    total = len(masks)
    # Depth-first over explicit frames [next path index, used vertices,
    # paths taken]; a frame is dropped once its remaining paths cannot
    # beat the best packing found so far.
    stack = [[0, 0, 0]]
    while stack:
        frame = stack[-1]
        j, used, count = frame
        while j < total and count + (total - j) > found and masks[j] & used:
            j += 1
        if j == total or count + (total - j) <= found:
            stack.pop()
            continue
        frame[0] = j + 1
        if count + 1 > found:
            found = count + 1
            if found == cap:
                break
        stack.append([j + 1, used | masks[j], count + 1])
    return found


def max_disjoint_rainbow_paths(
    g: Graph, col: EdgeColoring, u: int, v: int, k_target: int
) -> int:
    """min(k_target, M) where M is the true maximum number of internally
    vertex-disjoint rainbow u-v paths.

    An optimal packing takes the edge uv and every rainbow path u-w-v: a
    longer path through such a middle w may be swapped for u-w-v. Both
    come from the CSR rows of u and v and settle the count at k_target,
    or at c <= 2, where no rainbow path is longer. Only then are the longer
    rainbow paths that avoid every middle searched and packed."""
    _check_pair(g, u, v)
    _check_coloring_for(g, col)
    k_target = check_int("k_target", k_target, 1)
    indptr, nbrs, eids = g.csr
    lo, hi = indptr[u], indptr[u + 1]
    near_u = nbrs[lo:hi].tolist()
    found = int(v in near_u)
    if found >= k_target:
        return k_target
    at_u = dict(zip(near_u, col.color_array[eids[lo:hi]].tolist()))
    lo, hi = indptr[v], indptr[v + 1]
    at_v = zip(nbrs[lo:hi].tolist(), col.color_array[eids[lo:hi]].tolist())
    middles = [w for w, color in at_v if at_u.get(w, color) != color]
    found += len(middles)
    if found >= k_target or col.c <= 2:
        return min(found, k_target)
    # Searches capped at 3, 6, 12, ... edges each yield the paths longer
    # than the previous cap, so short paths, which block fewer others, come
    # first, and the repeated shallow walks cost a constant factor. Past
    # the edge uv, every rainbow path that avoids the middles has at least
    # 3 edges.
    top = min(col.c, g.n - 1)
    caps = [3 << i for i in range(top.bit_length()) if 3 << i < top]
    longer = (q for low, cap in pairwise([2, *caps, top])
              for q in _simple_paths(g, u, v, cap, col.color_bits, middles) if len(q) - 1 > low)
    return found + _max_disjoint_packing(longer, cap=k_target - found)


def _color_planes(g: Graph, col: EdgeColoring) -> np.ndarray:
    """(c, n, n) float32 stack of per-color symmetric adjacency matrices."""
    planes = np.zeros((col.c, g.n, g.n), dtype=np.float32)
    if g.m:
        u, v = g.edge_array[:, 0], g.edge_array[:, 1]
        idx = col.color_array - 1
        planes[idx, u, v] = 1.0
        planes[idx, v, u] = 1.0
    return planes


def _rainbow_reach(planes: np.ndarray) -> np.ndarray:
    """Boolean matrix of pairs joined by some rainbow path.

    Computed as rainbow-walk reachability over color subsets; dropping
    any closed detour from a rainbow walk leaves a shorter rainbow walk,
    so walk reachability and simple-path reachability coincide.
    """
    c, n, _ = planes.shape
    eye = np.eye(n, dtype=bool)
    prev: dict[int, np.ndarray] = {0: eye}
    for size in range(1, c + 1):
        level: dict[int, np.ndarray] = {}
        for subset in combinations(range(c), size):
            mask = 0
            for i in subset:
                mask |= 1 << i
            acc = eye.copy()
            for i in subset:
                acc |= (prev[mask & ~(1 << i)].astype(np.float32) @ planes[i]) > 0
            level[mask] = acc
        prev = level
    return prev[(1 << c) - 1]


def _color_matrix(g: Graph, col: EdgeColoring) -> np.ndarray:
    """n x n int8 matrix of edge colors, 0 off the edges."""
    colors = np.zeros((g.n, g.n), dtype=np.int8)
    u, v = g.edge_array[:, 0], g.edge_array[:, 1]
    colors[u, v] = colors[v, u] = col.color_array
    return colors


#: Cells of one gathered block of the c = 3 batch count: 8 MB of flat
#: indices, 1 MB per int8 or bool temporary. A chunk of t pending pairs
#: keeps t * n and t * D_a * D_b under it, D the widest candidate list in
#: the chunk, so a hub shrinks its chunk instead of growing the block; a
#: single pair wider than that is gathered in slices of its candidates.
_BATCH_CELLS = 1 << 20


def _padded(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's set columns in ascending order, padded on the right:
    an (r, D) index array and its (r, D) validity mask."""
    sizes = np.count_nonzero(mask, axis=1)
    valid = np.arange(sizes.max(initial=0)) < sizes[:, None]
    idx = np.zeros(valid.shape, dtype=np.intp)
    idx[valid] = np.nonzero(mask)[1]
    return idx, valid


def _h_edges(colors: np.ndarray, a: np.ndarray, ca: np.ndarray,
             b: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """(t, D_a, D_b) bool: u-a-b-v is rainbow, that is the end colors
    differ and the middle edge has the third. Padded ends carry color 7,
    which no middle color matches."""
    step = max(1, _BATCH_CELLS // max(1, a.shape[0] * b.shape[1]))
    n = colors.shape[1]
    parts = []
    for i in range(0, a.shape[1], step):
        # One take over flat indices: several times faster than the
        # broadcast fancy index colors[a, b] on the same cells.
        cells = (a[:, i:i + step, None] * n) + b[:, None, :]
        ci = ca[:, i:i + step, None]
        hit = colors.take(cells) == (6 - ci) - cb[:, None, :]
        hit &= ci != cb[:, None, :]
        parts.append(hit)
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _first_short_pair(colors: np.ndarray, us: np.ndarray, vs: np.ndarray, k: int) -> int | None:
    """Index of the first pair (us[i], vs[i]) with fewer than k internally
    disjoint rainbow paths under a 3-coloring given as its color matrix,
    or None when every pair has k.

    M = [uv in E] + |S| + nu(H - S), S the middles w of rainbow paths
    u-w-v and nu the matching number of H, which joins a in N(u) - S - v
    and b in N(v) - S - u when u-a-b-v is rainbow. An optimal packing can
    take all of S, as a 3-edge path through w in S may be swapped for
    u-w-v. With need = k - [uv in E] - |S|, a pair fails when need exceeds
    the smaller candidate list (a degree below k) or the edge count of H,
    and passes at need = 1 with an edge; the rest get the exact packing
    over their paths (u, a, b, v) in (a, b) order, in pair order, and no
    pair after the first that falls short is packed."""
    n = colors.shape[1]
    rows = max(1, _BATCH_CELLS // n)
    for lo in range(0, us.size, rows):
        u, v = us[lo:lo + rows], vs[lo:lo + rows]
        cu, cv = colors[u], colors[v]
        near_u, near_v = cu > 0, cv > 0
        middles = near_u & near_v & (cu != cv)
        at = np.arange(u.size)
        need = k - near_u[at, v] - np.count_nonzero(middles, axis=1)
        near_u ^= middles
        near_v ^= middles
        near_u[at, v] = near_v[at, u] = False
        size_a, size_b = np.count_nonzero(near_u, axis=1), np.count_nonzero(near_v, axis=1)
        short = np.flatnonzero(need > np.minimum(size_a, size_b))
        live = np.flatnonzero(need[:short[0] if short.size else u.size] > 0)
        start = 0
        while start < live.size:
            # The longest run of live pairs from start whose padded block
            # fits the budget; it cannot outgrow the first pair's share.
            first = live[start]
            run = live[start:start + max(1, _BATCH_CELLS // (size_a[first] * size_b[first]))]
            block = np.arange(1, run.size + 1)
            block *= np.maximum.accumulate(size_a[run])
            block *= np.maximum.accumulate(size_b[run])
            chunk = run[:max(1, int(np.searchsorted(block, _BATCH_CELLS, "right")))]
            start += chunk.size
            a, valid_a = _padded(near_u[chunk])
            b, valid_b = _padded(near_v[chunk])
            ca, cb = cu[chunk[:, None], a], cv[chunk[:, None], b]
            ca[~valid_a] = cb[~valid_b] = 7
            hit = _h_edges(colors, a, ca, b, cb)
            # nu <= |E(H)|, and nu >= 1 when H has an edge.
            under = np.flatnonzero(np.count_nonzero(hit, axis=(1, 2)) < need[chunk])
            wanted = need[chunk[:under[0] if under.size else chunk.size]]
            for j in np.flatnonzero(wanted >= 2).tolist():
                x, y = np.nonzero(hit[j])
                s, t = int(u[chunk[j]]), int(v[chunk[j]])
                paths = ((s, p, q, t) for p, q in zip(a[j, x].tolist(), b[j, y].tolist()))
                if _max_disjoint_packing(paths, cap=int(wanted[j])) < wanted[j]:
                    return lo + int(chunk[j])
            if under.size:
                return lo + int(chunk[under[0]])
        if short.size:
            return lo + int(short[0])
    return None


def _add_middles(bound: np.ndarray, colors: np.ndarray, c: int, start: int, stop: int) -> None:
    """Add to ``bound`` the rainbow middles w in [start, stop) of every
    pair, M + M^T with M the sum over i < j of P_i[W]^T P_j[W]: the c - 1
    products of float32 row blocks against their suffix sums, stacked
    into one. Float32 is exact, as counts stay far below 2**24."""
    block = colors[start:stop]
    # Planes in descending color order: the running sums of the first
    # c - 1 are the suffix sums that the last c - 1 pair with.
    planes = (block == np.arange(c, 0, -1, dtype=np.int8)[:, None, None]).astype(np.float32)
    suffix = np.cumsum(planes[:-1], axis=0)
    n = colors.shape[1]
    mixed = planes[1:].reshape(-1, n).T @ suffix.reshape(-1, n)
    bound += mixed
    bound += mixed.T


def _middle_counts(colors: np.ndarray, us: np.ndarray, vs: np.ndarray, start: int) -> np.ndarray:
    """Per pair (us[i], vs[i]), the rainbow middles w >= start: both edges
    present and differently colored, by int8 gathers of the two rows."""
    tail = colors[:, start:]
    cu, cv = tail[us], tail[vs]
    middle = cu != cv
    middle &= np.minimum(cu, cv, out=cu) > 0
    return np.count_nonzero(middle, axis=1)


@lru_cache(maxsize=4)
def _upper_mask(n: int) -> np.ndarray:
    """Read-only n x n mask of the pairs u < v, shared per n."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


def _first_failing_pair(ok: np.ndarray) -> VerifyResult:
    bad = _upper_mask(ok.shape[0]) & ~ok
    first = int(bad.argmax())
    if not bad.flat[first]:
        return VerifyResult(True, None)
    return VerifyResult(False, divmod(first, ok.shape[0]))


def _verify_matrix(g: Graph, col: EdgeColoring, k: int) -> VerifyResult:
    if k == 1 and col.c >= 3:
        return _first_failing_pair(_rainbow_reach(_color_planes(g, col)))
    n, c = g.n, col.c
    colors = _color_matrix(g, col)
    # bound[u, v] = [uv in E] + the rainbow middles among vertices
    # [0, stop): a lower bound on the length-<=2 count, exact at stop = n.
    bound = (colors > 0).astype(np.float32)
    start, stop, settled = 0, min(n, max(64, -(-n // 8))), 0
    while True:
        _add_middles(bound, colors, c, start, stop)
        below = bound < k
        below &= _upper_mask(n)
        pending = np.flatnonzero(below)
        pending = pending[np.searchsorted(pending, settled):]
        # Double the prefix while many pairs are pending, but first settle
        # the next n of them in order, so that a failing graph fails early.
        final = stop == n or pending.size <= 4 * n
        batch = pending if final else pending[:n]
        for i in range(0, batch.size, n):
            us, vs = np.divmod(batch[i:i + n], n)
            if stop < n:
                short = bound[us, vs] + _middle_counts(colors, us, vs, stop) < k
                us, vs = us[short], vs[short]
            if c <= 2 and us.size:  # no rainbow path is longer
                return VerifyResult(False, (int(us[0]), int(vs[0])))
            if c == 3:
                bad = _first_short_pair(colors, us, vs, k)
                if bad is not None:
                    return VerifyResult(False, (int(us[bad]), int(vs[bad])))
                continue
            for u, v in zip(us.tolist(), vs.tolist()):
                # No pair has more paths than either degree.
                if (min(g.degree(u), g.degree(v)) < k
                        or max_disjoint_rainbow_paths(g, col, u, v, k) < k):
                    return VerifyResult(False, (u, v))
        if final:
            return VerifyResult(True, None)
        settled = int(batch[-1]) + 1
        start, stop = stop, min(n, 2 * stop)


def _verify_pairs(g: Graph, col: EdgeColoring, k: int) -> VerifyResult:
    degree = np.diff(g.csr[0]).tolist()  # no pair has more paths than either degree
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if min(degree[u], degree[v]) < k or max_disjoint_rainbow_paths(g, col, u, v, k) < k:
                return VerifyResult(False, (u, v))
    return VerifyResult(True, None)


def is_rainbow_k_connected(g: Graph, col: EdgeColoring, k: int) -> VerifyResult:
    """Exact decision of rainbow-k-connectivity.

    Returns ``(True, None)`` or ``(False, witness)`` where the witness is
    the lexicographically first pair with fewer than k internally
    vertex-disjoint rainbow paths. Colorings with at most 6 colors take
    the matrix route at every n; more colors go pair by pair.
    """
    # No pair has more than n - 1 disjoint paths: a larger k fails as k = n.
    k = min(check_int("k", k, 1), g.n)
    _check_coloring_for(g, col)
    if col.c <= _MATRIX_MAX_COLORS:
        return _verify_matrix(g, col, k)
    return _verify_pairs(g, col, k)


@dataclass(frozen=True)
class RcResult:
    """Outcome of the exact rc_k search.

    ``value`` is the minimum color count, or EXCEEDS when it is finite but
    above the searched range, or INFINITE when the graph is not
    k-vertex-connected. ``coloring`` is an accepting certificate when the
    value is finite.
    """

    value: RcValue
    coloring: EdgeColoring | None


def _canonical_colorings(m: int, c: int):
    """All colorings of m ordered edges using exactly colors 1..c, with each
    color first appearing in increasing order (one representative per
    color-permutation class), in lexicographic order."""
    if c > m:
        return
    assign = [0] * m
    introduced = [0] * (m + 1)  # introduced[i]: distinct colors in assign[:i]
    i = 0
    while i >= 0:
        if i == m:
            if introduced[m] == c:
                yield tuple(assign)
            i -= 1
            continue
        color = assign[i] + 1
        # Backtrack once position i has tried every color, or when too few
        # edges are left to introduce the remaining colors.
        if color > min(introduced[i] + 1, c) or c - introduced[i] > m - i:
            assign[i] = 0
            i -= 1
            continue
        assign[i] = color
        introduced[i + 1] = introduced[i] + (color == introduced[i] + 1)
        i += 1


def rc_k_exact(
    g: Graph, k: int, max_colors: int | None = None, edge_budget: int = 12
) -> RcResult:
    """Exact minimum number of colors making g rainbow-k-connected.

    Intended for small instances: refuses graphs with more than
    ``edge_budget`` edges rather than run unboundedly. Searches color
    counts from the diameter lower bound up to ``max_colors`` (default:
    the edge count, which always suffices for k-connected graphs),
    enumerating one canonical representative per color-permutation class.
    """
    k = check_int("k", k, 1)
    edge_budget = check_int("edge_budget", edge_budget, 0)
    max_colors = g.m if max_colors is None else check_int("max_colors", max_colors, 1)
    if g.m > edge_budget:
        raise BudgetExceeded(
            f"graph has {g.m} edges, above the exact-search budget of {edge_budget}; "
            "raise edge_budget explicitly to force the search"
        )
    if not vertex_connectivity_at_least(g, k):
        return RcResult(INFINITE, None)
    lower = max(int(diameter(g)), 1)  # finite: the graph is connected here
    for c in range(lower, max_colors + 1):
        for assignment in _canonical_colorings(g.m, c):
            col = EdgeColoring(g, c, np.array(assignment, dtype=np.int32))
            # Pair by pair: most of these tiny colorings fail at an early pair.
            if _verify_pairs(g, col, k).ok:
                return RcResult(c, col)
    return RcResult(EXCEEDS, None)
