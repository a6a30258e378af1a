"""The benchmark's four workloads: seeded inputs, one timed call per item,
output digests and the invariants checked for seeds without a reference.

Every workload runs items in passes of ``pass_len`` items of fixed kinds,
so the mix of kinds in a run is the same whatever its length. Item ``i``
uses entry ``i % cycle`` of the inputs, so a fast build repeats inputs
instead of running out of them. Graph inputs are stored as edge arrays
and a fresh ``Graph`` is built inside each timed item, so the lazy views
are paid there, as a command-line user pays them.

``interpreted_share`` is the share of a workload's time spent in pure
Python rather than in numpy, from the self times of its traced run,
rounded to a tenth. It weights the two parts of the calibration kernel
that scales measured times to reference speed (see ``run.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from rcgraph import construct, graphs, rainbow, sweep
from rcgraph.theory import sharp_threshold

DEFAULT_SEED = 0


def derive(seed: int, *parts: int) -> int:
    """64-bit seed for one input, independent of the library's own mixing."""
    text = ":".join(str(int(x)) for x in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Summary:
    """What is kept of one item's output: its digest, the work it did and
    the facts the invariant checks need."""

    digest: str
    units: int
    info: Any


def _monotone(values) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


class SweepColoring:
    """``run_threshold_sweep`` in COLORING mode, one trial per cell."""

    name = "sweep_coloring"
    pass_len = 1
    interpreted_share = 0.0  # generation, coloring, planes and reach are numpy
    multipliers = (0.125, 0.25, 0.5, 1, 2, 4, 8)

    def __init__(self, n: int = 1000, cycle: int = 144):
        self.n, self.cycle = n, cycle

    def build(self, seed: int) -> list[int]:
        return [derive(seed, 1, j) for j in range(self.cycle)]

    def run_item(self, inputs: list[int], i: int):
        config = sweep.SweepConfig(
            n_values=(self.n,), multipliers=self.multipliers, d=2, k=1, trials=1,
            seed=inputs[i % self.cycle], mode=sweep.SweepMode.COLORING,
        )
        return sweep.run_threshold_sweep(config)

    def summarize(self, out, i: int) -> Summary:
        return Summary(digest(sweep.records_to_csv(out)), sum(r.trials for r in out),
                       [r.successes for r in out])

    def check(self, inputs, i: int, info) -> list[str]:
        if len(info) != len(self.multipliers):
            return [f"{len(info)} records for {len(self.multipliers)} multipliers"]
        if not _monotone(info):
            return [f"successes {info} decrease with the multiplier"]
        return []


class SweepGrowthDiameter:
    """GROWTH census calls of one cell each, and DIAMETER sweeps over all
    multipliers. A pass holds one census cell per multiplier, with the
    cell at 4 three times and the cell at 8 twice, and one DIAMETER sweep,
    whose time varies with the diameters it meets. Ranked by time, the
    median item then falls among the cells at 4, and the two cells at 8,
    the slowest kind, hold the item with ten slower ones beyond it."""

    name = "sweep_growth_diameter"
    interpreted_share = 0.9  # views and packing validation; generation and diameter are numpy
    multipliers = (0.5, 1, 2, 4, 8)
    cells = (0.5, 1, 2, 4, 4, 4, 8, 8)
    pass_len = len(cells) + 1

    def __init__(self, n: int = 1000, cycle: int = 270):
        self.n = n
        self.cycle = cycle - cycle % self.pass_len

    def build(self, seed: int) -> list[int]:
        return [derive(seed, 2, j) for j in range(self.cycle)]

    def _config(self, inputs, i: int):
        slot = i % self.pass_len
        growth = slot < len(self.cells)
        return sweep.SweepConfig(
            n_values=(self.n,), multipliers=(self.cells[slot],) if growth else self.multipliers,
            d=2, k=1, trials=1, seed=inputs[i % self.cycle],
            mode=sweep.SweepMode.GROWTH if growth else sweep.SweepMode.DIAMETER,
        )

    def run_item(self, inputs, i: int):
        config = self._config(inputs, i)
        if config.mode is sweep.SweepMode.GROWTH:
            return sweep.run_growth_census(config)
        return sweep.run_threshold_sweep(config)

    def summarize(self, out, i: int) -> Summary:
        info = [(r.successes, r.aux_mean) for r in out]
        return Summary(digest(sweep.records_to_csv(out)), sum(r.trials for r in out), info)

    def check(self, inputs, i: int, info) -> list[str]:
        config = self._config(inputs, i)
        if len(info) != len(config.multipliers):
            return [f"{len(info)} records for {len(config.multipliers)} multipliers"]
        successes = [s for s, _ in info]
        if config.mode is sweep.SweepMode.GROWTH:
            (s, aux), = info
            if s not in (0, 1) or (aux is not None) != (s == 1):
                return [f"growth cell reports successes={s}, aux_mean={aux}"]
            return []
        if not _monotone(successes):
            return [f"diameter successes {successes} decrease with the multiplier"]
        # Graphs are nested across multipliers, so distances never grow.
        diameters = [aux for _, aux in info if aux is not None]
        if not _monotone(diameters[::-1]):
            return [f"diameters {diameters} grow with the multiplier"]
        return []


@dataclass(frozen=True)
class GraphInput:
    n: int
    edges: np.ndarray
    seed: int

    def graph(self) -> graphs.Graph:
        return graphs.Graph(self.n, self.edges)


def _gnp(n: int, p: float, seed: int) -> GraphInput:
    g = graphs.gnp_generate(n, p, seed)
    return GraphInput(g.n, g.edge_array, seed)


class RainbowK2:
    """``rainbow_k_color(g, 2, attempts=4)``. A pass holds three dense
    criterion-8 graphs (n = 300, p = {2, 4, 8} x sharp_threshold), accepted
    by the matrix route on the first 2-coloring, and two near-threshold
    graphs (n in {80, 100}, p = 2.5 n^-1/2) whose 2-colorings typically
    fail and whose 3-coloring is accepted only after the per-pair search
    has settled every pair the length-2 bound left open. With five kinds the
    median item falls inside one kind, the slowest dense one."""

    name = "rainbow_k2"
    interpreted_share = 1.0  # per-pair search, biconnectivity and views; 4% numpy
    dense_multipliers = (2, 4, 8)
    open_scale = 2.5
    reverify = 12  # items whose accepted coloring is re-verified

    def __init__(self, dense_n: int = 300, open_ns=(80, 100), cycle: int = 240):
        self.kinds = [(dense_n, min(1.0, mult * sharp_threshold(dense_n, 2)))
                      for mult in self.dense_multipliers]
        self.kinds += [(n, min(1.0, self.open_scale * n ** -0.5)) for n in open_ns]
        self.pass_len = len(self.kinds)
        self.cycle = cycle - cycle % self.pass_len

    def build(self, seed: int) -> list[GraphInput]:
        return [_gnp(*self.kinds[j % self.pass_len], derive(seed, 3, j)) for j in range(self.cycle)]

    def run_item(self, inputs, i: int):
        item = inputs[i % self.cycle]
        return construct.rainbow_k_color(item.graph(), 2, attempts=4, seed=item.seed)

    def summarize(self, out, i: int) -> Summary:
        kind = type(out).__name__
        if isinstance(out, construct.RainbowColoring):
            colors = hashlib.sha256(out.coloring.color_array.tobytes()).hexdigest()[:16]
            text = f"{kind}|{out.colors_used}|{out.attempts_used}|{colors}"
            kept = out.coloring.color_array if i < self.reverify else None
            info = (kind, out.colors_used, kept)
        elif isinstance(out, construct.ColoringFailure):
            text = f"{kind}|{out.colors_tried}|{out.attempts_used}|{out.witness}"
            info = (kind, out.witness, None)
        else:
            text = f"{kind}|{out.k}"
            info = (kind, None, None)
        return Summary(digest(text), 1, info)

    def check(self, inputs, i: int, info) -> list[str]:
        kind, detail, colors = info
        g = inputs[i % self.cycle].graph()
        if kind == "RainbowColoring":
            if colors is not None:
                col = rainbow.EdgeColoring(g, detail, colors)
                if not rainbow.is_rainbow_k_connected(g, col, 2).ok:
                    return ["accepted coloring does not re-verify"]
            return []
        if kind == "NotKConnected":
            if graphs.vertex_connectivity_at_least(g, 2):
                return ["NotKConnected for a 2-connected graph"]
            return []
        if kind == "ColoringFailure":
            u, v = detail
            if not 0 <= u < v < g.n:
                return [f"witness {detail} is not a vertex pair"]
            if not graphs.vertex_connectivity_at_least(g, 2):
                return ["ColoringFailure for a graph that is not 2-connected"]
            return []
        return [f"unknown outcome {kind}"]


def _two_blocks(n: int, p: float, seed: int) -> GraphInput:
    """Two G(h, p) blocks joined only through two separator vertices, each
    tied to four vertices of either block, under a random relabelling: a
    graph whose connectivity is at most 2, while its degrees are at least
    3 unless a block happens to hold a vertex of lower degree."""
    rng = np.random.default_rng(seed)
    h = (n - 2) // 2
    blocks = (np.arange(h), np.arange(h, n - 2))
    pairs = []
    for block in blocks:
        sub = graphs.gnp_generate(len(block), p, int(rng.integers(2**63)))
        pairs += [(block[a], block[b]) for a, b in sub.edge_array.tolist()]
        for sep in (n - 2, n - 1):
            pairs += [(sep, w) for w in rng.choice(block, size=4, replace=False)]
    perm = rng.permutation(n)
    g = graphs.Graph.from_edges(n, [(perm[a], perm[b]) for a, b in pairs])
    return GraphInput(g.n, g.edge_array, seed)


def kappa_at_least_3(n: int, edges: np.ndarray) -> bool:
    """Brute force: n >= 4 and the graph stays connected after removing
    any set of at most two vertices."""
    if n < 4:
        return False
    adj = [0] * n
    for u, v in edges.tolist():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << n) - 1

    def connected(removed: int) -> bool:
        alive = full & ~removed
        seen = frontier = alive & -alive
        while frontier:
            reach = 0
            while frontier:
                bit = frontier & -frontier
                reach |= adj[bit.bit_length() - 1]
                frontier ^= bit
            frontier = reach & alive & ~seen
            seen |= frontier
        return seen == alive

    if not connected(0):
        return False
    for a in range(n):
        if not connected(1 << a):
            return False
        for b in range(a + 1, n):
            if not connected((1 << a) | (1 << b)):
                return False
    return True


class ConnectivityK3:
    """``vertex_connectivity_at_least(g, 3)``. A pass holds three seeded
    G(n, p) graphs (n = 40, p = 0.3 twice and n = 60, p = 0.2), almost
    always 3-connected, where every non-adjacent pair runs a flow, and one
    two-block graph with answer False, which must exit early. Ranked by
    time, the median item then falls in the middle of the n = 40 kind."""

    name = "connectivity_k3"
    interpreted_share = 1.0  # the max-flow

    def __init__(self, kinds=((40, 0.3), (40, 0.3), (60, 0.2)),
                 two_block=(60, 0.3), cycle: int = 152):
        self.kinds, self.two_block = tuple(kinds), two_block
        self.pass_len = len(self.kinds) + 1
        self.cycle = cycle - cycle % self.pass_len

    def build(self, seed: int) -> list[GraphInput]:
        out = []
        for j in range(self.cycle):
            slot = j % self.pass_len
            if slot < len(self.kinds):
                out.append(_gnp(*self.kinds[slot], derive(seed, 4, j)))
            else:
                out.append(_two_blocks(*self.two_block, derive(seed, 4, j)))
        return out

    def run_item(self, inputs, i: int):
        return graphs.vertex_connectivity_at_least(inputs[i % self.cycle].graph(), 3)

    def summarize(self, out, i: int) -> Summary:
        return Summary(digest(f"verdict|{bool(out)}"), 1, bool(out))

    def check(self, inputs, i: int, info) -> list[str]:
        item = inputs[i % self.cycle]
        if kappa_at_least_3(item.n, item.edges) != info:
            return [f"verdict {info} disagrees with the brute-force check"]
        return []


WORKLOADS = {
    w.name: w for w in (SweepColoring(), RainbowK2(), ConnectivityK3(), SweepGrowthDiameter())
}
