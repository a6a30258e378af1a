import itertools
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcgraph import (
    EXCEEDS,
    INFINITE,
    BudgetExceeded,
    EdgeColoring,
    Graph,
    PathPacking,
    diameter,
    enumerate_rainbow_paths,
    gnp_generate,
    is_rainbow_k_connected,
    max_disjoint_rainbow_paths,
    rc_k_exact,
    validate_path_packing,
)
from rcgraph.construct import rainbow_color_random
from rcgraph.theory import sharp_threshold
from rcgraph import rainbow
from rcgraph.rainbow import (
    _add_middles,
    _canonical_colorings,
    _color_matrix,
    _color_planes,
    _first_short_pair,
    _middle_counts,
    _simple_paths,
    _verify_matrix,
    _verify_pairs,
)

from _oracles import (
    all_colorings,
    all_labeled_graphs,
    brute_max_disjoint_rainbow,
    brute_rainbow_paths,
    complete_graph,
    connected_labeled_graphs,
    cycle_graph,
    dense_length2_counts,
    labeled_trees,
    path_graph,
)
from _strategies import colored_graphs


def batch_count(colors, u, v, k):
    """min(k, M(u, v)) under a 3-coloring, read off the c = 3 batch count
    on one-pair batches: the pair falls short at j = M + 1 and not before."""
    us, vs = np.array([u]), np.array([v])
    short = (j for j in range(1, k + 1) if _first_short_pair(colors, us, vs, j) is not None)
    return next(short, k + 1) - 1


def long_rainbow_path(n: int = 1100):
    """Path on n vertices whose edges carry the n - 1 distinct colors 1..n-1,
    longer than the default recursion limit."""
    g = path_graph(n)
    return g, EdgeColoring.from_assignment(g, n - 1, range(1, n))


def colored_by_edge(n, colored_edges):
    """Graph and coloring from a {(u, v): color} dict; c is the largest color."""
    g = Graph.from_edges(n, colored_edges)
    by_edge = {(min(e), max(e)): c for e, c in colored_edges.items()}
    c = max(by_edge.values())
    return g, EdgeColoring.from_assignment(g, c, [by_edge[e] for e in g.edges])


def triangle_coloring(colors):
    return colored_by_edge(3, dict(zip(((0, 1), (0, 2), (1, 2)), colors)))


class TestEdgeColoring:
    def test_rejects_wrong_length(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            EdgeColoring.from_assignment(g, 2, [1])

    def test_rejects_out_of_range_colors(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            EdgeColoring.from_assignment(g, 2, [1, 3])
        with pytest.raises(ValueError):
            EdgeColoring.from_assignment(g, 2, [0, 1])

    def test_color_lookup_is_symmetric(self):
        g = path_graph(3)
        col = EdgeColoring.from_assignment(g, 2, [1, 2])
        assert col.color_of(0, 1) == col.color_of(1, 0) == 1
        assert col.color_of(2, 1) == 2

    def test_structural_equality(self):
        g1 = path_graph(3)
        g2 = path_graph(3)
        a = EdgeColoring.from_assignment(g1, 2, [1, 2])
        b = EdgeColoring.from_assignment(g2, 2, [1, 2])
        assert a == b and hash(a) == hash(b)
        assert a != EdgeColoring.from_assignment(g1, 2, [1, 1])


class TestEnumerateRainbowPaths:
    def test_monochrome_triangle_keeps_only_direct_edge(self):
        g, col = triangle_coloring([1, 1, 1])
        assert enumerate_rainbow_paths(g, col, 0, 1, 3) == [(0, 1)]

    def test_fully_distinct_triangle(self):
        g, col = triangle_coloring([1, 3, 2])
        assert enumerate_rainbow_paths(g, col, 0, 2, 3) == [(0, 2), (0, 1, 2)]

    def test_repeating_path_coloring_yields_nothing(self):
        g = path_graph(4)
        col = EdgeColoring.from_assignment(g, 2, [1, 2, 1])
        assert enumerate_rainbow_paths(g, col, 0, 3, 3) == []

    def test_rejects_equal_endpoints(self):
        g, col = triangle_coloring([1, 1, 1])
        with pytest.raises(ValueError):
            enumerate_rainbow_paths(g, col, 1, 1, 3)

    def test_rejects_nonpositive_max_len(self):
        g, col = triangle_coloring([1, 1, 1])
        with pytest.raises(ValueError):
            enumerate_rainbow_paths(g, col, 0, 1, 0)

    @given(colored_graphs(max_n=7), st.integers(1, 6))
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_enumeration(self, gc, max_len):
        g, col = gc
        paths = enumerate_rainbow_paths(g, col, 0, g.n - 1, max_len)
        assert paths == brute_rainbow_paths(g, col, 0, g.n - 1, max_len)

    @given(colored_graphs(max_n=7))
    @settings(max_examples=80, deadline=None)
    def test_no_path_longer_than_color_count(self, gc):
        g, col = gc
        for q in enumerate_rainbow_paths(g, col, 0, g.n - 1, g.n):
            assert len(q) - 1 <= col.c

    @given(colored_graphs(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_canonical_order(self, gc):
        g, col = gc
        paths = enumerate_rainbow_paths(g, col, 0, g.n - 1, g.n)
        assert paths == sorted(paths, key=lambda q: (len(q), q))

    def test_path_longer_than_recursion_limit(self):
        g, col = long_rainbow_path()
        assert enumerate_rainbow_paths(g, col, 0, g.n - 1, col.c) == [tuple(range(g.n))]


class TestMaxDisjointRainbowPaths:
    def test_monochrome_triangle(self):
        g, col = triangle_coloring([1, 1, 1])
        assert max_disjoint_rainbow_paths(g, col, 0, 1, 2) == 1

    def test_rainbow_k4_packs_three(self):
        g = complete_graph(4)
        col = EdgeColoring.from_assignment(g, 6, [1, 2, 3, 4, 5, 6])
        assert max_disjoint_rainbow_paths(g, col, 0, 1, 3) == 3

    def test_caps_at_k_target(self):
        g = complete_graph(4)
        col = EdgeColoring.from_assignment(g, 6, [1, 2, 3, 4, 5, 6])
        assert max_disjoint_rainbow_paths(g, col, 0, 1, 2) == 2

    def test_rejects_equal_endpoints(self):
        g, col = triangle_coloring([1, 2, 3])
        with pytest.raises(ValueError):
            max_disjoint_rainbow_paths(g, col, 2, 2, 1)

    def test_g8_instances_match_brute_force(self):
        hits = 0
        seed = 0
        while hits < 40:
            seed += 1
            g = gnp_generate(8, 0.6, seed)
            col = rainbow_color_random(g, 3, seed)
            paths = enumerate_rainbow_paths(g, col, 0, 7, col.c)
            if len(paths) > 20:
                continue
            hits += 1
            expected = brute_max_disjoint_rainbow(g, col, 0, 7)
            assert max_disjoint_rainbow_paths(g, col, 0, 7, 10) == min(expected, 10)

    @given(colored_graphs(max_n=7, max_c=9), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, gc, k_target):
        g, col = gc
        got = max_disjoint_rainbow_paths(g, col, 0, g.n - 1, k_target)
        assert got == min(brute_max_disjoint_rainbow(g, col, 0, g.n - 1), k_target)

    @given(colored_graphs(max_n=10, max_c=9), st.integers(1, 9))
    @settings(max_examples=150, deadline=None)
    def test_matches_packing_of_every_rainbow_path(self, gc, k_target):
        g, col = gc
        paths = enumerate_rainbow_paths(g, col, 0, g.n - 1, col.c)
        got = max_disjoint_rainbow_paths(g, col, 0, g.n - 1, k_target)
        assert got == min(rainbow._max_disjoint_packing(paths), k_target)

    def test_middle_swapped_into_a_longer_path(self):
        # 0-2-1 is rainbow; the rainbow 0-3-2-1 also passes through 2, and
        # 0-3-1 and 0-2-3-1 repeat color 1, so the maximum is the edge plus
        # 0-2-1.
        g, col = colored_by_edge(
            4, {(0, 1): 4, (0, 2): 1, (2, 1): 2, (0, 3): 1, (3, 1): 1, (2, 3): 3}
        )
        assert max_disjoint_rainbow_paths(g, col, 0, 1, 5) == 2

    def test_exact_packing_beats_first_fit_in_search_order(self):
        # No edge 0-1 and no middles. The search meets 0-2-3-1 first, also
        # among the 3-edge paths, and it blocks 0-2-4-1, 0-5-3-1 and
        # 0-5-3-2-4-1, so first fit holds one path; the exact packing finds
        # 0-2-4-1 and 0-5-3-1.
        g, col = colored_by_edge(
            6, {(0, 2): 1, (2, 3): 2, (3, 1): 3, (2, 4): 4, (4, 1): 5, (0, 5): 6, (5, 3): 7}
        )
        paths = list(_simple_paths(g, 0, 1, col.c, col.color_bits))
        assert paths == [(0, 2, 3, 1), (0, 2, 4, 1), (0, 5, 3, 1), (0, 5, 3, 2, 4, 1)]
        first_fit = []
        for q in paths:
            if all(set(q[1:-1]).isdisjoint(p[1:-1]) for p in first_fit):
                first_fit.append(q)
        assert first_fit == [(0, 2, 3, 1)]
        assert max_disjoint_rainbow_paths(g, col, 0, 1, 2) == 2
        assert brute_max_disjoint_rainbow(g, col, 0, 1) == 2

    def test_failing_two_coloring_builds_no_python_views(self, monkeypatch):
        # At c <= 2 no rainbow path is longer than the exact length-<=2
        # count, so the witness fails without a per-pair count or any view.
        counted = []
        monkeypatch.setattr(rainbow, "max_disjoint_rainbow_paths",
                            lambda *args: counted.append(args[2:4]))
        g = gnp_generate(1000, 0.05, 0)
        col = rainbow_color_random(g, 2, 0)
        ok, witness = is_rainbow_k_connected(g, col, 1)
        assert not ok and witness is not None and counted == []
        assert "csr" not in g.__dict__ and "incidence" not in g.__dict__
        assert "assignment" not in col.__dict__ and "color_bits" not in col.__dict__

    def test_dense_three_colors_with_spare_colors_is_a_matching(self):
        # A K_20 colored 1..3 under c = 10 has many 3-edge rainbow paths;
        # the exact search over all of them ran past two minutes, while the
        # middles and a matching on the rest settle it at once.
        g = complete_graph(20)
        col = EdgeColoring(g, 10, random.Random(2).choices([1, 2, 3], k=g.m))
        colors = _color_matrix(g, col)
        for v in (1, 7, 19):
            assert max_disjoint_rainbow_paths(g, col, 0, v, 50) == batch_count(colors, 0, v, 50)


class TestIsRainbowKConnected:
    def test_any_coloring_of_complete_graph_is_rainbow_1_connected(self):
        g = complete_graph(5)
        for seed in range(5):
            col = rainbow_color_random(g, 3, seed)
            assert is_rainbow_k_connected(g, col, 1).ok

    def test_monochrome_triangle_fails_k2_with_witness(self):
        g, col = triangle_coloring([1, 1, 1])
        ok, witness = is_rainbow_k_connected(g, col, 2)
        assert not ok and witness == (0, 1)

    def test_witness_is_lexicographically_first(self):
        g = path_graph(4)
        col = EdgeColoring.from_assignment(g, 2, [1, 2, 1])
        ok, witness = is_rainbow_k_connected(g, col, 1)
        # pair (0, 2) is fine (path 0-1-2 is rainbow); (0, 3) is the first failure
        assert not ok and witness == (0, 3)

    def test_pair_route_on_path_longer_than_recursion_limit(self):
        g, col = long_rainbow_path()
        colors = list(col.assignment)
        colors[-1] = 1
        recolored = EdgeColoring.from_assignment(g, col.c, colors)
        assert is_rainbow_k_connected(g, recolored, 1) == (False, (0, g.n - 1))

    @pytest.mark.parametrize("c", [2, 3, 4, 7])
    def test_k_beyond_every_float_fails_at_the_first_pair(self, c):
        g = gnp_generate(30, 0.5, 0)
        col = rainbow_color_random(g, c, 0)
        assert is_rainbow_k_connected(g, col, 10**400) == (False, (0, 1))

    @pytest.mark.parametrize("n", [4, 5])
    def test_k_beyond_n_fails_where_n_minus_one_holds(self, n):
        # Distinct colors make every path rainbow: K_n has n - 1 per pair.
        g = complete_graph(n)
        col = EdgeColoring.from_assignment(g, g.m, range(1, g.m + 1))
        assert is_rainbow_k_connected(g, col, n - 1).ok
        for k in (n, 10**400):
            assert is_rainbow_k_connected(g, col, k) == (False, (0, 1))

    @pytest.mark.parametrize(
        "n,p,c,seed,k", [(30, 0.5, 7, 0, 2), (70, 0.3, 6, 102, 2), (40, 0.6, 6, 1, 12)],
    )
    def test_dense_colorings_are_settled_by_short_paths(self, n, p, c, seed, k):
        # The edge, the middles and the shortest longer paths settle every
        # pair. Listing every rainbow path first took over a minute on the
        # first two; first fit in plain depth-first order took 20 s on the
        # third, whose first paths are long and block many others.
        g = gnp_generate(n, p, 0)
        col = rainbow_color_random(g, c, seed)
        assert is_rainbow_k_connected(g, col, k).ok

    def test_huge_k_fails_on_degree_before_the_matching(self, monkeypatch):
        # k clamps to n = 50, above every degree; the matching over the
        # 3-edge paths of pair (0, 1) took tens of seconds.
        matched = []
        monkeypatch.setattr(rainbow, "_max_disjoint_packing",
                            lambda *args, **kwargs: matched.append(args))
        g = gnp_generate(50, 0.7, 0)
        col = rainbow_color_random(g, 3, 0)
        assert is_rainbow_k_connected(g, col, 2**64) == (False, (0, 1))
        assert matched == []

    def test_rejects_coloring_of_other_graph(self):
        g = path_graph(3)
        other = Graph.from_edges(3, [(0, 1)])
        col = EdgeColoring.from_assignment(other, 1, [1])
        with pytest.raises(ValueError):
            is_rainbow_k_connected(g, col, 1)

    @pytest.mark.parametrize("verify", [is_rainbow_k_connected, _verify_pairs],
                             ids=["routed", "pairs"])
    @given(colored_graphs(max_n=7, max_c=9), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_pairwise_brute_force(self, verify, gc, k):
        g, col = gc
        ok, witness = verify(g, col, k)
        failing = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if brute_max_disjoint_rainbow(g, col, u, v) < k
        ]
        if failing:
            assert not ok and witness == failing[0]
        else:
            assert ok and witness is None

    @pytest.mark.parametrize("c,k", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_matrix_route_matches_pair_route(self, c, k):
        for seed in range(4):
            g = gnp_generate(70, 0.12, seed)
            col = rainbow_color_random(g, c, seed + 100)
            assert _verify_matrix(g, col, k) == _verify_pairs(g, col, k)

    def test_matrix_route_subset_dp_with_four_colors(self):
        for seed in range(3):
            g = gnp_generate(40, 0.1, seed)
            col = rainbow_color_random(g, 4, seed + 7)
            assert _verify_matrix(g, col, 1) == _verify_pairs(g, col, 1)

    def test_matrix_route_handles_isolated_vertices(self):
        g = gnp_generate(70, 0.01, 3)
        col = rainbow_color_random(g, 2, 0)
        result = _verify_matrix(g, col, 1)
        assert result == _verify_pairs(g, col, 1)
        assert not result.ok

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matrix_route_matches_pair_route_with_one_color(self, k):
        for g in (complete_graph(5), cycle_graph(6), gnp_generate(40, 0.3, 1)):
            col = EdgeColoring.monochrome(g)
            assert _verify_matrix(g, col, k) == _verify_pairs(g, col, k)

    @pytest.mark.parametrize(
        "n,edges", [(2, []), (2, [(0, 1)]), (3, []), (3, [(0, 1)]), (3, [(1, 2)])]
    )
    def test_matrix_route_matches_pair_route_on_tiny_graphs(self, n, edges):
        g = Graph.from_edges(n, edges)
        for c in range(1, 7):
            col = EdgeColoring.from_assignment(g, c, [c] * g.m)
            for k in (1, 2, 3):
                assert _verify_matrix(g, col, k) == _verify_pairs(g, col, k)


class TestRouting:
    """is_rainbow_k_connected picks its route by color count only."""

    @staticmethod
    def forbid(monkeypatch, name):
        def refuse(*args):
            raise AssertionError(f"{name} ran")

        monkeypatch.setattr(rainbow, name, refuse)

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        real = getattr(rainbow, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(rainbow, name, counted)
        return calls

    @pytest.mark.parametrize("n", [2, 5, 12, 32])
    @pytest.mark.parametrize("c", range(1, 7))
    def test_small_graphs_take_the_matrix_route(self, n, c, monkeypatch):
        self.forbid(monkeypatch, "_verify_pairs")
        calls = self.count_calls(monkeypatch, "_verify_matrix")
        g = gnp_generate(n, 0.7, n + c)
        col = rainbow_color_random(g, c, 3)
        for k in (1, 2):
            is_rainbow_k_connected(g, col, k)
        assert len(calls) == 2

    def test_seven_colors_take_the_pair_route(self, monkeypatch):
        self.forbid(monkeypatch, "_verify_matrix")
        calls = self.count_calls(monkeypatch, "_verify_pairs")
        g = complete_graph(6)
        col = EdgeColoring.from_assignment(g, 7, [1 + i % 7 for i in range(g.m)])
        assert is_rainbow_k_connected(g, col, 1).ok
        assert len(calls) == 1

    def test_rc_k_exact_goes_pair_by_pair(self, monkeypatch):
        self.forbid(monkeypatch, "_verify_matrix")
        calls = self.count_calls(monkeypatch, "_verify_pairs")
        assert rc_k_exact(cycle_graph(5), 1).value == 3
        assert rc_k_exact(complete_graph(4), 2).value == 2
        assert len(calls) > 2


def dense_verify(g, col, k):
    """The matrix route as one dense count: every pair whose length-<=2
    count is below k, in order, goes to the per-c step."""
    counts = dense_length2_counts(_color_planes(g, col))
    colors = _color_matrix(g, col)
    for u, v in np.argwhere(np.triu(counts < k, 1)).tolist():
        if col.c <= 2:
            return (False, (u, v))
        if col.c == 3:
            found = batch_count(colors, u, v, k)
        else:
            found = max_disjoint_rainbow_paths(g, col, u, v, k)
        if found < k:
            return (False, (u, v))
    return (True, None)


def edge_indicator(colors):
    return (colors > 0).astype(np.float32)


class TestLength2Counts:
    """The length-<=2 count [uv in E] + rainbow middles of the matrix
    route: the prefix bound, the exact gathers and the dense oracle."""

    @pytest.mark.parametrize("c", range(1, 7))
    def test_matches_brute_count(self, c):
        for seed in range(3):
            g = gnp_generate(14, 0.5, seed)
            col = rainbow_color_random(g, c, seed + 5)
            colors = _color_matrix(g, col)
            bound = edge_indicator(colors)
            _add_middles(bound, colors, c, 0, g.n)
            us, vs = np.divmod(np.arange(g.n * g.n), g.n)
            exact = edge_indicator(colors)[us, vs] + _middle_counts(colors, us, vs, 0)
            dense = dense_length2_counts(_color_planes(g, col))
            for u in range(g.n):
                for v in range(g.n):
                    middles = sum(
                        1
                        for w in range(g.n)
                        if g.has_edge(u, w) and g.has_edge(w, v)
                        and col.color_of(u, w) != col.color_of(w, v)
                    )
                    expected = int(g.has_edge(u, v)) + middles
                    assert bound[u, v] == expected
                    assert exact[u * g.n + v] == expected
                    assert dense[u, v] == expected

    @pytest.mark.parametrize("c", range(1, 7))
    def test_prefix_blocks_and_exact_tail_add_up(self, c):
        g = gnp_generate(40, 0.4, c)
        col = rainbow_color_random(g, c, 11)
        colors = _color_matrix(g, col)
        whole = edge_indicator(colors)
        _add_middles(whole, colors, c, 0, g.n)
        for cuts in ((0, 7, 40), (0, 13, 26, 40), (0, 0, 1, 40)):
            bound = edge_indicator(colors)
            for start, stop in zip(cuts, cuts[1:]):
                _add_middles(bound, colors, c, start, stop)
            assert np.array_equal(bound, whole)
        us, vs = np.divmod(np.arange(g.n * g.n), g.n)
        for prefix in (0, 5, 17, 39, 40):
            bound = edge_indicator(colors)
            _add_middles(bound, colors, c, 0, prefix)
            exact = bound[us, vs] + _middle_counts(colors, us, vs, prefix)
            assert np.array_equal(exact, whole[us, vs])


@st.composite
def verify_cases(draw, max_n, max_c):
    """(g, col, k) from a seeded G(n, p) around p = sqrt(log n / n) and a
    random c-coloring. At c >= 4 and k >= 2 the per-pair search grows fast
    with n, so n stays small."""
    c = draw(st.integers(1, max_c))
    k = draw(st.integers(1, 4))
    if c >= 4 and k >= 2:
        max_n = min(max_n, 24 if c == 4 else 14)
    n = draw(st.integers(2, max_n))
    p = min(1.0, draw(st.floats(0.25, 4.0)) * math.sqrt(math.log(n) / n))
    seed = draw(st.integers(0, 2**32))
    g = gnp_generate(n, p, seed)
    return g, rainbow_color_random(g, c, seed + 1), k


class TestPrefixRoute:
    """_verify_matrix grows its bound over a prefix of middle vertices and
    settles the pending pairs exactly, in order."""

    @given(verify_cases(max_n=40, max_c=6))
    @settings(max_examples=120, deadline=None)
    def test_matches_pair_route(self, case):
        g, col, k = case
        assert _verify_matrix(g, col, k) == _verify_pairs(g, col, k)

    @given(verify_cases(max_n=300, max_c=3))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_count(self, case):
        g, col, k = case
        assert _verify_matrix(g, col, k) == dense_verify(g, col, k)

    @pytest.mark.parametrize("n", [150, 300])
    @pytest.mark.parametrize("c", [2, 3])
    def test_matches_dense_count_across_the_threshold(self, n, c):
        for mult in (1.0, 2.0, 4.0):
            g = gnp_generate(n, mult * math.sqrt(math.log(n) / n), n + c)
            col = rainbow_color_random(g, c, 9)
            for k in (1, 2, 3):
                assert _verify_matrix(g, col, k) == dense_verify(g, col, k)

    @staticmethod
    def record_blocks(monkeypatch):
        blocks = []

        def recorded(bound, colors, c, start, stop):
            before = bound.copy()
            _add_middles(bound, colors, c, start, stop)
            blocks.append((start, stop, np.array_equal(before, bound)))

        monkeypatch.setattr(rainbow, "_add_middles", recorded)
        return blocks

    def test_last_pair_is_the_only_failure(self, monkeypatch):
        # 256 independent low vertices joined to 44 hubs; hub j colors the
        # edge to x by the parity of x & mask_j. Distinct masks separate
        # every other pair; the last two hubs share a mask, so (298, 299)
        # has no rainbow path, and all middles sit at index >= 256.
        masks = list(range(1, 42)) + [64, 128, 128]
        colored = {
            (x, 256 + j): 1 + bin(x & mask).count("1") % 2
            for j, mask in enumerate(masks)
            for x in range(256)
        }
        g, col = colored_by_edge(300, colored)
        blocks = self.record_blocks(monkeypatch)
        assert _verify_matrix(g, col, 1) == (False, (298, 299))
        assert [stop for _, stop, _ in blocks] == [64, 128, 256, 300]
        assert dense_verify(g, col, 1) == (False, (298, 299))

    @pytest.mark.parametrize("seed", range(4))
    def test_first_prefix_settles_nothing(self, seed, monkeypatch):
        # Vertices below n/2 form a clique and join every upper vertex, all
        # by color 1, so none is a rainbow middle; the upper half is a
        # 2-colored G(80, p).
        n, half = 160, 80
        upper = gnp_generate(half, (0.25, 0.6)[seed % 2], seed)
        rest = rainbow_color_random(upper, 2, seed)
        colored = {(u, v): 1 for u in range(half) for v in range(u + 1, n)}
        colored.update({(half + u, half + v): color
                        for (u, v), color in zip(upper.edges, rest.assignment)})
        g, col = colored_by_edge(n, colored)
        blocks = self.record_blocks(monkeypatch)
        result = _verify_matrix(g, col, 1)
        assert blocks[0] == (0, 64, True)
        assert result == dense_verify(g, col, 1)
        assert result.ok == (seed % 2 == 1)

    def test_witness_is_first_of_many_failures(self):
        # Ten universal vertices with color-1 edges settle the first rows;
        # the other 290 form a sparse 2-colored G(290, 0.1).
        n, hubs = 300, 10
        rest = gnp_generate(n - hubs, 0.1, 5)
        rest_col = rainbow_color_random(rest, 2, 6)
        colored = {(u, v): 1 for u in range(hubs) for v in range(u + 1, n)}
        colored.update({(hubs + u, hubs + v): color
                        for (u, v), color in zip(rest.edges, rest_col.assignment)})
        g, col = colored_by_edge(n, colored)
        counts = dense_length2_counts(_color_planes(g, col))
        failing = np.argwhere(np.triu(counts < 1, 1))
        assert len(failing) > 4 * n and failing[0][0] >= hubs
        assert _verify_matrix(g, col, 1) == (False, tuple(failing[0].tolist()))


class TestMatchingCount:
    """The c = 3 batch count of the matrix route: M = [uv in E] + |S| +
    nu(H - S) against k for a batch of pairs, returning the first that
    falls short."""

    @given(
        n=st.integers(8, 30),
        p=st.floats(0.1, 0.5),
        seed=st.integers(0, 2**32),
        k=st.sampled_from([1, 2, 3, 5, 50]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_path_packing(self, n, p, seed, k, data):
        g = gnp_generate(n, p, seed)
        col = rainbow_color_random(g, 3, seed)
        colors = _color_matrix(g, col)
        for _ in range(5):
            u, v = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            assert batch_count(colors, u, v, k) == max_disjoint_rainbow_paths(g, col, u, v, k)

    @given(
        n=st.integers(2, 16),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32),
        k=st.integers(1, 5),
        cells=st.sampled_from([1, 7, 64, rainbow._BATCH_CELLS]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_batch_returns_the_first_short_pair(self, n, p, seed, k, cells, data):
        # Every ordered pair, in a drawn order; small cell budgets split
        # the batch into chunks and single pairs into slices.
        g = gnp_generate(n, p, seed)
        col = rainbow_color_random(g, 3, seed)
        pairs = data.draw(st.permutations([(u, v) for u in range(n) for v in range(n) if u != v]))
        us, vs = (np.array(side, dtype=np.intp) for side in zip(*pairs))
        expected = next((i for i, (u, v) in enumerate(pairs)
                         if max_disjoint_rainbow_paths(g, col, u, v, k) < k), None)
        with mock.patch.object(rainbow, "_BATCH_CELLS", cells):
            assert _first_short_pair(_color_matrix(g, col), us, vs, k) == expected

    def test_enough_middles_exit_before_the_matching(self, monkeypatch):
        # Vertices 2, 3, 4 are middles of rainbow paths 0-w-1.
        g, col = colored_by_edge(
            5, {(0, 1): 1, (0, 2): 1, (2, 1): 2, (0, 3): 2, (3, 1): 3, (0, 4): 3, (4, 1): 1}
        )

        def no_matching(*args, **kwargs):
            raise AssertionError("the matching ran although |S| >= k")

        monkeypatch.setattr(rainbow, "_max_disjoint_packing", no_matching)
        for k in (1, 2, 3, 4):
            assert batch_count(_color_matrix(g, col), 0, 1, k) == k

    def test_equal_colored_common_neighbor_is_a_matching_endpoint(self):
        # 0-2-1 repeats color 1, so 2 is no middle, but 0-2-3-1 is rainbow.
        g, col = colored_by_edge(4, {(0, 2): 1, (2, 1): 1, (2, 3): 2, (3, 1): 3})
        colors = _color_matrix(g, col)
        assert batch_count(colors, 0, 1, 1) == 1
        assert batch_count(colors, 0, 1, 2) == 1
        assert max_disjoint_rainbow_paths(g, col, 0, 1, 2) == 1

    def test_matching_beats_greedy_first_fit(self):
        # H has edges {2, 3}, {2, 4}, {3, 5} in that order. First fit takes
        # {2, 3} and blocks the other two; the maximum matching is 2.
        g, col = colored_by_edge(
            6, {(0, 2): 1, (0, 3): 3, (1, 3): 3, (1, 4): 3, (1, 5): 2, (2, 3): 2, (2, 4): 2,
                (3, 5): 1}
        )
        paths = enumerate_rainbow_paths(g, col, 0, 1, 3)
        assert paths == [(0, 2, 3, 1), (0, 2, 4, 1), (0, 3, 5, 1)]
        assert batch_count(_color_matrix(g, col), 0, 1, 2) == 2
        assert brute_max_disjoint_rainbow(g, col, 0, 1) == 2

    @pytest.mark.parametrize("k", [2, 3])
    def test_matrix_route_matches_pair_route(self, k, monkeypatch):
        pending = []

        def counted(colors, us, vs, k):
            pending[-1] += us.size
            return _first_short_pair(colors, us, vs, k)

        monkeypatch.setattr(rainbow, "_first_short_pair", counted)
        verdicts = set()
        for seed in range(4):
            g = gnp_generate(36, 0.4, seed)
            col = rainbow_color_random(g, 3, seed + 100)
            pending.append(0)
            result = _verify_matrix(g, col, k)
            assert result == _verify_pairs(g, col, k)
            assert pending[-1] > 0
            verdicts.add(result.ok)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("cells", [64, rainbow._BATCH_CELLS])
    @pytest.mark.parametrize("p,seed", [(0.3, 0), (0.4, 3)])
    def test_no_pair_after_the_witness_is_packed(self, p, seed, cells, monkeypatch):
        # k = 3 on a 3-colored G(30, p). On the first graph the exact
        # packing fails the witness itself; on the second it runs on pairs
        # before the witness. Pairs after it need the packing too, which
        # shows once the batch starts past the witness.
        g = gnp_generate(30, p, seed)
        col = rainbow_color_random(g, 3, seed)
        colors = _color_matrix(g, col)
        us, vs = np.triu_indices(g.n, 1)
        packed = []
        real = rainbow._max_disjoint_packing

        def recorded(paths, cap=None):
            paths = list(paths)
            packed.append((paths[0][0], paths[0][-1]))
            return real(paths, cap)

        monkeypatch.setattr(rainbow, "_max_disjoint_packing", recorded)
        monkeypatch.setattr(rainbow, "_BATCH_CELLS", cells)
        witness = _first_short_pair(colors, us, vs, 3)
        pairs = list(zip(us.tolist(), vs.tolist()))
        assert witness == next(i for i, (u, v) in enumerate(pairs)
                               if max_disjoint_rainbow_paths(g, col, u, v, 3) < 3)
        assert packed and set(packed) <= set(pairs[:witness + 1])
        del packed[:]
        _first_short_pair(colors, us[witness + 1:], vs[witness + 1:], 3)
        assert packed

    def test_memory_stays_flat_at_n_1000(self):
        # An accepting d = 3, k = 2 verification at 4 x the threshold: 3
        # products, then 19 603 pending pairs in budgeted chunks, 3 203 of
        # them packed.
        g = gnp_generate(1000, 4 * sharp_threshold(1000, 3), 1)
        col = rainbow_color_random(g, 3, 0)
        tracemalloc.start()
        try:
            ok = is_rainbow_k_connected(g, col, 2).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok
        assert peak < 44e6


class TestCanonicalColorings:
    @pytest.mark.parametrize("m", range(0, 7))
    def test_matches_lexicographic_brute_force(self, m):
        for c in range(0, m + 2):
            expected = [
                a
                for a in itertools.product(range(1, c + 1), repeat=m)
                if [x for i, x in enumerate(a) if x not in a[:i]] == list(range(1, c + 1))
            ]
            assert list(_canonical_colorings(m, c)) == expected

    def test_more_edges_than_recursion_limit(self):
        assert next(_canonical_colorings(1100, 1100)) == tuple(range(1, 1101))


class TestRcExact:
    def test_clique_needs_one_color(self):
        res = rc_k_exact(complete_graph(4), 1)
        assert res.value == 1 and res.coloring is not None

    def test_path_needs_length_colors(self):
        assert rc_k_exact(path_graph(4), 1).value == 3

    def test_five_cycle_needs_three(self):
        assert rc_k_exact(cycle_graph(5), 1).value == 3

    def test_cut_vertex_means_infinite(self):
        res = rc_k_exact(path_graph(3), 2)
        assert res.value == INFINITE and res.coloring is None

    def test_disconnected_graph_is_infinite_even_for_k1(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert rc_k_exact(g, 1).value == INFINITE

    def test_exceeds_when_capped(self):
        assert rc_k_exact(path_graph(4), 1, max_colors=2).value is EXCEEDS

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceeded):
            rc_k_exact(complete_graph(6), 1)  # 15 edges > default budget 12
        assert rc_k_exact(complete_graph(6), 1, edge_budget=15).value == 1

    def test_certificate_verifies_and_is_minimal(self):
        for g in (cycle_graph(5), path_graph(4), cycle_graph(4)):
            res = rc_k_exact(g, 1)
            c = res.value
            assert isinstance(c, int)
            assert res.coloring.c == c
            assert is_rainbow_k_connected(g, res.coloring, 1).ok
            if c > 1:
                assert not any(
                    is_rainbow_k_connected(g, col, 1).ok
                    for col in all_colorings(g, c - 1)
                )

    def test_diameter_lower_bound_on_small_connected_graphs(self):
        for g in connected_labeled_graphs(4):
            value = rc_k_exact(g, 1).value
            assert value >= diameter(g)

    def test_tree_characterization_small(self):
        for n in (2, 3, 4, 5):
            for g in labeled_trees(n):
                assert rc_k_exact(g, 1).value == n - 1

    def test_clique_characterization_exhaustive(self):
        for n in range(2, 6):
            for g in all_labeled_graphs(n):
                for k in (1, 2):
                    expected = k == 1 and g.is_complete
                    assert (rc_k_exact(g, k).value == 1) == expected

    @given(colored_graphs(min_n=3, max_n=5, max_c=3), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_verdict_invariant_under_color_permutation(self, gc, perm_seed):
        g, col = gc
        perm = list(range(1, col.c + 1))
        random.Random(perm_seed).shuffle(perm)
        relabeled = EdgeColoring.from_assignment(
            g, col.c, [perm[color - 1] for color in col.assignment]
        )
        assert is_rainbow_k_connected(g, col, 1).ok == is_rainbow_k_connected(g, relabeled, 1).ok


class TestSentinels:
    def test_ordering_chain(self):
        assert 3 < EXCEEDS < INFINITE
        assert not EXCEEDS < 10**9
        assert EXCEEDS <= EXCEEDS and EXCEEDS == EXCEEDS
        assert INFINITE > EXCEEDS
        assert 5 < INFINITE

    def test_exceeds_is_not_a_number(self):
        assert EXCEEDS != 7 and EXCEEDS != math.inf


class TestValidatePathPacking:
    def test_accepts_valid_packing(self):
        g = complete_graph(4)
        packing = PathPacking(0, 1, ((0, 1), (0, 2, 1), (0, 3, 1)))
        validate_path_packing(g, packing)

    def test_rejects_wrong_endpoint(self):
        g = complete_graph(4)
        with pytest.raises(ValueError, match="does not run"):
            validate_path_packing(g, PathPacking(0, 1, ((0, 2),)))

    def test_rejects_missing_edge(self):
        g = path_graph(4)
        with pytest.raises(ValueError, match="missing edge"):
            validate_path_packing(g, PathPacking(0, 3, ((0, 3),)))

    def test_rejects_shared_internal_vertex(self):
        g = complete_graph(5)
        packing = PathPacking(0, 1, ((0, 2, 1), (0, 2, 1)))
        with pytest.raises(ValueError, match="internal"):
            validate_path_packing(g, packing)

    def test_rejects_wrong_length(self):
        g = complete_graph(4)
        with pytest.raises(ValueError, match="length"):
            validate_path_packing(g, PathPacking(0, 1, ((0, 1),)), required_length=2)

    def test_rejects_repeated_color(self):
        g = path_graph(3)
        col = EdgeColoring.from_assignment(g, 2, [1, 1])
        with pytest.raises(ValueError, match="color"):
            validate_path_packing(g, PathPacking(0, 2, ((0, 1, 2),)), coloring=col)

    def test_rejects_vertex_repetition(self):
        g = complete_graph(4)
        with pytest.raises(ValueError, match="repeats a vertex"):
            validate_path_packing(g, PathPacking(0, 1, ((0, 2, 0, 1),)))
