import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcgraph.graphs as graph_module
from rcgraph import (
    INFINITE,
    Graph,
    diameter,
    gnp_generate,
    vertex_connectivity_at_least,
)
from rcgraph.construct import rainbow_color_random
from rcgraph.graphs import (
    _disjoint_paths_at_least,
    _or_product,
    _pack_rows,
    _split_network,
    gnp_threshold,
    pair_draws,
)

from _oracles import (
    adjacency_lists,
    all_labeled_graphs,
    all_pairs,
    all_simple_paths,
    brute_diameter,
    brute_max_disjoint,
    brute_vertex_connectivity_at_least,
    complete_graph,
    cycle_graph,
    incidence_lists,
    is_connected,
    is_k_connected_by_deletion,
    is_edge_subset,
    is_two_connected,
    path_graph,
)
from _strategies import graphs


class TestGraphType:
    def test_canonical_edge_order(self):
        g = Graph.from_edges(4, [(3, 2), (1, 0), (0, 2)])
        assert g.edges == ((0, 1), (0, 2), (2, 3))
        assert [g.neighbors(u).tolist() for u in range(4)] == [[1, 2], [0], [0, 3], [2]]

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0)])
        assert g.m == 1

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            Graph.from_edges(1, [])

    def test_rejects_unsorted_edge_array(self):
        with pytest.raises(ValueError):
            Graph(3, np.array([[1, 2], [0, 1]], dtype=np.int32))

    def test_structural_equality_and_hash(self):
        a = Graph.from_edges(3, [(0, 1), (1, 2)])
        b = Graph.from_edges(3, [(1, 2), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph.from_edges(3, [(0, 1)])

    def test_has_edge_and_degree(self):
        g = path_graph(4)
        assert g.has_edge(1, 0) and not g.has_edge(0, 2)
        assert [g.degree(v) for v in range(4)] == [1, 2, 2, 1]

    def test_is_complete(self):
        assert complete_graph(5).is_complete
        assert not path_graph(3).is_complete


def check_neighbor_index(g: Graph) -> None:
    """The CSR and every lookup built on it, against the edge-loop oracle."""
    indptr, nbrs, eids = g.csr
    inc = incidence_lists(g)
    assert indptr.shape == (g.n + 1,) and nbrs.shape == eids.shape == (2 * g.m,)
    assert indptr[0] == 0 and indptr[-1] == 2 * g.m
    for x in range(g.n):
        row = slice(indptr[x], indptr[x + 1])
        assert list(zip(nbrs[row].tolist(), eids[row].tolist())) == list(inc[x])
    assert not (indptr.flags.writeable or nbrs.flags.writeable or eids.flags.writeable)
    assert tuple(tuple(g.neighbors(x).tolist()) for x in range(g.n)) == adjacency_lists(g)
    assert g.incidence == inc
    assert [g.degree(x) for x in range(g.n)] == [len(b) for b in inc]
    edges = set(g.edges)
    for u in range(g.n):
        for v in range(g.n):
            assert g.has_edge(u, v) is ((min(u, v), max(u, v)) in edges)
    col = rainbow_color_random(g, 5, 3)
    for i, (u, v) in enumerate(g.edges):
        assert g.edge_id(u, v) == g.edge_id(v, u) == i
        assert col.color_of(u, v) == col.color_of(v, u) == col.color_array[i]
    for u in range(g.n):
        for v in range(u, g.n):
            if (u, v) not in edges:
                with pytest.raises(KeyError):
                    col.color_of(u, v)


class TestNeighborIndex:
    @pytest.mark.parametrize(
        "g",
        [
            Graph.from_edges(2, []),
            Graph.from_edges(2, [(0, 1)]),
            Graph.from_edges(7, []),
            complete_graph(6),
            Graph.from_edges(9, [(2, 5), (5, 6)]),  # isolated 0, 1, 3, 4, 7, 8
            Graph.from_edges(6, [(0, 5), (2, 5), (4, 5)]),  # vertex n - 1 has neighbors
            gnp_generate(40, 0.3, 2),
        ],
        ids=repr,
    )
    def test_edge_cases_match_oracle(self, g):
        check_neighbor_index(g)

    @given(graphs(max_n=9))
    @settings(max_examples=150)
    def test_matches_oracle(self, g):
        check_neighbor_index(g)

    def test_neighbors_is_a_sorted_row(self):
        g = Graph.from_edges(5, [(3, 1), (3, 4), (0, 3)])
        assert g.neighbors(3).tolist() == [0, 1, 4]
        assert g.neighbors(2).tolist() == []

    def test_lookups_outside_the_vertex_range_find_no_edge(self):
        g = complete_graph(4)
        assert not g.has_edge(-1, 0) and not g.has_edge(0, 4) and not g.has_edge(4, 0)
        with pytest.raises(KeyError):
            rainbow_color_random(g, 2, 0).color_of(4, 0)


class TestGnpGenerate:
    def test_p_one_gives_complete_graph(self):
        for seed in (0, 1, 99):
            assert gnp_generate(5, 1.0, seed) == complete_graph(5)

    def test_p_zero_gives_empty_graph(self):
        for seed in (0, 1, 99):
            assert gnp_generate(5, 0.0, seed).m == 0

    def test_deterministic_per_seed(self):
        assert gnp_generate(30, 0.3, 7) == gnp_generate(30, 0.3, 7)
        assert gnp_generate(30, 0.3, 7) != gnp_generate(30, 0.3, 8)

    def test_edge_count_within_five_sigma(self):
        # Binomial(499500, 1/2): mean 249750, sigma = sqrt(499500/4) ~ 353.4
        for seed in range(5):
            m = gnp_generate(1000, 0.5, seed).m
            assert abs(m - 249750) <= 1767

    @given(
        n=st.integers(2, 40),
        p1=st.floats(0, 1),
        p2=st.floats(0, 1),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=60)
    def test_monotone_coupling(self, n, p1, p2, seed):
        lo, hi = min(p1, p2), max(p1, p2)
        g_lo = gnp_generate(n, lo, seed)
        g_hi = gnp_generate(n, hi, seed)
        assert set(g_lo.edges) <= set(g_hi.edges)

    def test_edge_subset_check_rejects_non_nested_pairs(self):
        small = Graph.from_edges(5, [(0, 1), (2, 4)])
        assert is_edge_subset(small, Graph.from_edges(5, [(0, 1), (1, 2), (2, 4)]))
        assert is_edge_subset(Graph.from_edges(5, []), small)
        # one edge of small is missing from big, though big has more edges
        assert not is_edge_subset(small, Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)]))
        assert not is_edge_subset(small, Graph.from_edges(5, [(0, 1)]))
        assert not is_edge_subset(small, Graph.from_edges(6, [(0, 1), (2, 4)]))

    @given(graphs(min_n=4, max_n=4), graphs(min_n=4, max_n=4))
    @settings(max_examples=100)
    def test_edge_subset_check_matches_edge_sets(self, a, b):
        assert is_edge_subset(a, b) == (set(a.edges) <= set(b.edges))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gnp_generate(1, 0.5, 0)
        with pytest.raises(ValueError):
            gnp_generate(5, -0.1, 0)
        with pytest.raises(ValueError):
            gnp_generate(5, 1.1, 0)
        with pytest.raises(ValueError):
            gnp_threshold(5, np.zeros(9), 0.5)  # 5 vertices have 10 pairs

    def test_shared_draws_give_the_generated_graphs(self):
        draws = pair_draws(60, 11)
        for p in (0.0, 0.05, 0.3, 1.0):
            assert gnp_threshold(60, draws, p) == gnp_generate(60, p, 11)


class TestDiameter:
    def test_complete_graph(self):
        assert diameter(complete_graph(4)) == 1

    def test_path_graph(self):
        assert diameter(path_graph(4)) == 3

    def test_disconnected_is_infinite(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert diameter(g) == INFINITE
        assert diameter(g) == math.inf

    @given(graphs(max_n=8))
    @settings(max_examples=100)
    def test_matches_bfs_oracle(self, g):
        assert diameter(g) == brute_diameter(g)

    @given(graphs(min_n=3, max_n=7))
    @settings(max_examples=100)
    def test_diameter_one_iff_complete(self, g):
        assert (diameter(g) == 1) == g.is_complete

    @pytest.mark.parametrize("p", [0.02, 0.05, 0.3, 0.9])
    def test_matrix_route_matches_oracle_on_large_graphs(self, p):
        g = gnp_generate(90, p, 5)
        assert diameter(g) == brute_diameter(g)

    @pytest.mark.parametrize("length", range(2, 131))
    def test_matrix_route_long_path(self, length):
        # every diameter up to 130, so binary lifting sets each of its bits
        assert diameter(path_graph(length + 1)) == length


def star_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def unpack_rows(rows: np.ndarray, n: int) -> np.ndarray:
    return np.unpackbits(rows.view(np.uint8), axis=1, count=n, bitorder="little").astype(bool)


class TestPackedDiameter:
    """The packed route at the word (64) and byte (8) boundaries of its
    rows, on shapes whose diameters span 1 to n - 1 and infinity."""

    BOUNDARIES = (63, 64, 65, 127, 128, 129)

    @pytest.mark.parametrize("n", BOUNDARIES)
    @pytest.mark.parametrize("shape", [complete_graph, path_graph, star_graph, cycle_graph])
    def test_matches_oracle_on_regular_shapes(self, n, shape):
        g = shape(n)
        assert diameter(g) == brute_diameter(g)

    @pytest.mark.parametrize("n", BOUNDARIES)
    @pytest.mark.parametrize("p", [0.02, 0.04, 0.1, 0.5])
    def test_matches_oracle_on_gnp(self, n, p):
        g = gnp_generate(n, p, n)
        assert diameter(g) == brute_diameter(g)

    def test_isolated_vertex_is_infinite(self):
        g = Graph.from_edges(65, [(i, j) for i in range(64) for j in range(i + 1, 64)])
        assert diameter(g) == INFINITE

    def test_two_components_are_infinite(self):
        edges = [(i, i + 1) for i in range(69)] + [(i, i + 1) for i in range(70, 129)]
        assert diameter(Graph.from_edges(130, edges)) == INFINITE

    def test_two_vertices_without_edge_are_infinite(self):
        assert diameter(Graph(2, np.empty((0, 2), dtype=np.int32))) == INFINITE

    def test_lollipop(self):
        clique = [(i, j) for i in range(30) for j in range(i + 1, 30)]
        tail = [(i, i + 1) for i in range(29, 69)]
        g = Graph.from_edges(70, clique + tail)
        assert diameter(g) == brute_diameter(g) == 41

    def test_grid(self):
        edges = [(8 * r + c, 8 * r + c + 1) for r in range(8) for c in range(7)]
        edges += [(8 * r + c, 8 * r + c + 8) for r in range(7) for c in range(8)]
        g = Graph.from_edges(64, sorted(edges))
        assert diameter(g) == brute_diameter(g) == 14


class TestOrProduct:
    def test_packed_layout_is_little_endian_words(self):
        a = np.zeros((1, 130), dtype=bool)
        a[0, [0, 70, 129]] = True
        assert _pack_rows(a).tolist() == [[1, 1 << 6, 1 << 1]]

    @pytest.mark.parametrize("rows, n, m", [(1, 5, 5), (7, 13, 70), (40, 67, 9), (30, 130, 130)])
    @pytest.mark.parametrize("density", [0.05, 0.3, 0.9])
    @pytest.mark.parametrize("table_words", [graph_module._TABLE_WORDS, 256])
    def test_matches_integer_product(self, rows, n, m, density, table_words, monkeypatch):
        # 256 words hold one table per block, so every byte is its own block
        monkeypatch.setattr(graph_module, "_TABLE_WORDS", table_words)
        rng = np.random.default_rng(rows * n * m)
        x = rng.random((rows, n)) < density
        y = rng.random((n, m)) < density
        got = unpack_rows(_or_product(_pack_rows(x), _pack_rows(y)), m)
        assert np.array_equal(got, (x.astype(int) @ y.astype(int)) > 0)

    def test_empty_row_set(self):
        y = _pack_rows(np.ones((67, 67), dtype=bool))
        out = _or_product(_pack_rows(np.zeros((0, 67), dtype=bool)), y)
        assert out.shape == (0, y.shape[1])


class TestVertexConnectivity:
    def test_cycle_is_two_connected(self):
        assert vertex_connectivity_at_least(cycle_graph(4), 2)

    def test_path_middle_vertex_is_a_cut(self):
        assert not vertex_connectivity_at_least(path_graph(3), 2)

    def test_complete_graph_connectivity(self):
        g = complete_graph(5)
        assert vertex_connectivity_at_least(g, 4)
        for k in range(5, 8):
            assert not vertex_connectivity_at_least(g, k)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_complete_graphs_answer_before_the_search(self, n, monkeypatch):
        g = complete_graph(n)
        expected = [brute_vertex_connectivity_at_least(g, k) for k in range(1, n + 2)]

        def no_search(*args):
            raise AssertionError("the depth-first search ran on a complete graph")

        monkeypatch.setattr(graph_module, "_dfs_tree", no_search)
        assert [vertex_connectivity_at_least(g, k) for k in range(1, n + 2)] == expected
        assert expected == [k <= n - 1 for k in range(1, n + 2)]

    def test_k2_on_two_vertices(self):
        g = complete_graph(2)
        assert vertex_connectivity_at_least(g, 1)
        assert not vertex_connectivity_at_least(g, 2)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            vertex_connectivity_at_least(complete_graph(3), 0)

    @given(graphs(max_n=6), st.integers(1, 5))
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_oracle(self, g, k):
        assert vertex_connectivity_at_least(g, k) == brute_vertex_connectivity_at_least(g, k)

    @given(graphs(max_n=7))
    @settings(max_examples=80)
    def test_k1_iff_finite_diameter(self, g):
        assert vertex_connectivity_at_least(g, 1) == (diameter(g) != INFINITE)
        assert vertex_connectivity_at_least(g, 1) == is_connected(g)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_every_small_labeled_graph_matches_brute_oracle(self, n):
        for g in all_labeled_graphs(n):
            for k in (1, 2):
                assert vertex_connectivity_at_least(g, k) == brute_vertex_connectivity_at_least(g, k)

    @given(n=st.integers(3, 40), scale=st.floats(0.3, 3.0), seed=st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_k2_matches_remove_one_vertex_oracle(self, n, scale, seed):
        g = gnp_generate(n, min(1.0, scale * math.log(n) / n), seed)
        assert vertex_connectivity_at_least(g, 1) == is_connected(g)
        assert vertex_connectivity_at_least(g, 2) == is_two_connected(g)

    @pytest.mark.parametrize(
        "edges",
        [
            # two triangles sharing the DFS root 0
            [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)],
            # two 4-cycles sharing vertex 3
            [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5), (5, 6), (3, 6)],
        ],
        ids=["cut-at-root", "cycles-sharing-a-vertex"],
    )
    def test_cut_vertex_with_min_degree_two(self, edges):
        g = Graph.from_edges(max(map(max, edges)) + 1, edges)
        assert vertex_connectivity_at_least(g, 1)
        assert not vertex_connectivity_at_least(g, 2)

    def test_two_disjoint_triangles(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not vertex_connectivity_at_least(g, 1)
        assert not vertex_connectivity_at_least(g, 2)

    def test_long_cycle_beyond_the_recursion_limit(self):
        g = cycle_graph(3000)
        assert vertex_connectivity_at_least(g, 2)
        assert not vertex_connectivity_at_least(path_graph(3000), 2)

    def test_builds_no_python_views(self):
        for g in (gnp_generate(60, 0.2, 1), gnp_generate(30, 0.5, 1), cycle_graph(8),
                  path_graph(5), complete_graph(6)):
            for k in range(1, 6):
                vertex_connectivity_at_least(g, k)
            assert set(g.__dict__) <= {"n", "edge_array", "csr"}

    @given(n=st.integers(7, 22), k=st.integers(3, 5), scale=st.floats(1.0, 6.0),
           seed=st.integers(0, 2**32))
    @settings(max_examples=80, deadline=None)
    def test_k3_to_5_matches_remove_k_minus_one_vertices_oracle(self, n, k, scale, seed):
        g = gnp_generate(n, min(1.0, scale * math.log(n) / n), seed)
        assert vertex_connectivity_at_least(g, k) == is_k_connected_by_deletion(g, k)

    @pytest.mark.parametrize("relabel", [False, True], ids=["in-order", "relabeled"])
    @pytest.mark.parametrize("k", range(3, 7))
    def test_two_cliques_sharing_k_minus_one_vertices(self, k, relabel):
        # Copies of K_{k+1} on 0..k and on 2..k+2 share the k - 1 vertices
        # 2..k, which cut 0 and 1 off from k + 1 and k + 2. Every degree is
        # at least k, so only the flows can find the cut.
        label = np.random.default_rng(k).permutation(k + 3) if relabel else np.arange(k + 3)
        edges = [(label[a], label[b]) for part in (range(k + 1), range(2, k + 3))
                 for a, b in combinations(part, 2)]
        g = Graph.from_edges(k + 3, edges)
        assert not vertex_connectivity_at_least(g, k)
        assert vertex_connectivity_at_least(g, k - 1)

    @given(graphs(max_n=8))
    @settings(max_examples=100, deadline=None)
    def test_split_network_flow_matches_path_packing(self, g):
        # One network serves every pair, adjacent pairs included.
        net = _split_network(g)
        for s, t in all_pairs(g.n):
            most = brute_max_disjoint(all_simple_paths(g, s, t), cap=5)
            for k in range(1, 6):
                assert _disjoint_paths_at_least(net, s, t, k) == (most >= k)
                assert _disjoint_paths_at_least(net, t, s, k) == (most >= k)
