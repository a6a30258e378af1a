import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcgraph import (
    BudgetExceeded,
    ColoringFailure,
    Graph,
    GrowthFailure,
    NotKConnected,
    PathPacking,
    RainbowColoring,
    count_disjoint_length_d_paths,
    gnp_generate,
    grow_disjoint_paths,
    grow_tree,
    is_rainbow_k_connected,
    pair_color,
    rainbow_color_random,
    rainbow_k_color,
    sharp_threshold,
    validate_path_packing,
    vertex_connectivity_at_least,
)
from rcgraph import construct
from rcgraph.construct import MAX_ATTEMPTS, TreeGrowth

from _oracles import (
    adjacency_lists,
    all_simple_paths,
    brute_max_disjoint,
    complete_graph,
    cycle_graph,
    path_graph,
)
from _strategies import graph_pairs


def len2_packing_bound(g: Graph, u: int, v: int) -> int:
    """Closed-form max number of internally disjoint u-v paths of length
    <= 2: the direct edge plus one path per common neighbor."""
    common = set(g.neighbors(u).tolist()) & set(g.neighbors(v).tolist())
    return int(g.has_edge(u, v)) + len(common)


class TestGrowTree:
    def test_level_sizes_are_powers_of_branching(self):
        tree = grow_tree(complete_graph(20), 0, 19, d=3, b=2, seed=5)
        assert isinstance(tree, TreeGrowth)
        assert [len(level) for level in tree.levels] == [1, 2, 4]
        assert tree.levels[0] == (0,)

    def test_levels_disjoint_and_avoid_target(self):
        tree = grow_tree(complete_graph(30), 0, 29, d=3, b=3, seed=1)
        seen = set()
        for level in tree.levels:
            assert not (set(level) & seen)
            seen |= set(level)
        assert 29 not in seen

    def test_vice_trees_partition_leaves(self):
        tree = grow_tree(complete_graph(30), 0, 29, d=3, b=3, seed=2)
        groups: dict[int, list[int]] = {}
        for leaf in tree.leaves:
            root = tree.vice_tree_root(leaf)
            assert tree.path_from_root(leaf)[1] == root
            groups.setdefault(root, []).append(leaf)
        assert set(groups) == set(tree.levels[1])
        for leaves in groups.values():
            assert len(leaves) == 3  # b ** (d - 2)

    def test_parent_chain_reaches_root(self):
        tree = grow_tree(complete_graph(20), 4, 19, d=3, b=2, seed=9)
        for leaf in tree.leaves:
            path = tree.path_from_root(leaf)
            assert path[0] == 4 and path[-1] == leaf and len(path) == 3

    def test_rejects_bad_parameters(self):
        g = complete_graph(5)
        with pytest.raises(ValueError):
            grow_tree(g, 0, 0, 2, 1)
        with pytest.raises(ValueError):
            grow_tree(g, 0, 1, 1, 1)
        with pytest.raises(ValueError):
            grow_tree(g, 0, 1, 2, 0)


class TestGrowDisjointPaths:
    def test_complete_graph_lowest_index_selection(self):
        packing = grow_disjoint_paths(complete_graph(6), 0, 5, d=2, b=3, seed=None)
        assert isinstance(packing, PathPacking)
        assert packing.paths == ((0, 1, 5), (0, 2, 5), (0, 3, 5))

    def test_short_path_fails_with_location(self):
        failure = grow_disjoint_paths(path_graph(3), 0, 2, d=2, b=2, seed=None)
        assert failure == GrowthFailure(level=1, vertex=0, needed=2, available=1)

    def test_deterministic_per_seed(self):
        g = gnp_generate(60, 0.4, 11)
        a = grow_disjoint_paths(g, 0, 59, d=2, b=4, seed=77)
        b = grow_disjoint_paths(g, 0, 59, d=2, b=4, seed=77)
        assert a == b

    def test_complete_graph_packs_one_per_branch(self):
        for b in (1, 2, 4, 7):
            packing = grow_disjoint_paths(complete_graph(b + 3), 0, 1, d=2, b=b, seed=3)
            assert isinstance(packing, PathPacking)
            assert len(packing.paths) == b
            validate_path_packing(complete_graph(b + 3), packing, required_length=2)

    def test_g200_packings_verify_and_respect_upper_bound(self):
        g = gnp_generate(200, 0.35, 42)
        rng = np.random.default_rng(0)
        successes = 0
        for trial in range(50):
            u = int(rng.integers(200))
            v = int(rng.integers(199))
            if v >= u:
                v += 1
            result = grow_disjoint_paths(g, u, v, d=2, b=7, seed=trial)
            if isinstance(result, GrowthFailure):
                continue
            successes += 1
            validate_path_packing(g, result, required_length=2)
            assert len(result.paths) <= len2_packing_bound(g, u, v)
            assert len(result.paths) <= 7
        assert successes >= 40  # dense regime: expansion rarely runs short

    def test_depth_three_paths_are_disjoint(self):
        g = gnp_generate(120, 0.3, 8)
        result = grow_disjoint_paths(g, 0, 100, d=3, b=3, seed=5)
        assert isinstance(result, PathPacking)
        validate_path_packing(g, result, required_length=3)

    @given(graph_pairs(min_n=4, max_n=9), st.integers(1, 3), st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_packing_never_beats_exact_count(self, gp, b, seed):
        g, u, v = gp
        result = grow_disjoint_paths(g, u, v, d=2, b=b, seed=seed)
        if isinstance(result, GrowthFailure):
            return
        validate_path_packing(g, result, required_length=2)
        assert len(result.paths) <= count_disjoint_length_d_paths(g, u, v, 2)


def edge_list_growth(g: Graph, u: int, v: int, d: int, b: int, seed: int | None):
    """Tree growth and leaf closing as written over Python adjacency lists
    and an edge set, the reference for the CSR-reading implementation."""
    rng = np.random.default_rng(seed) if seed is not None else None
    adj = adjacency_lists(g)
    edges = set(g.edges)
    blocked = {u, v}
    levels: list[tuple[int, ...]] = [(u,)]
    parents: dict[int, int] = {}
    for level in range(1, d):
        grown: list[int] = []
        for x in levels[level - 1]:
            eligible = [w for w in adj[x] if w not in blocked]
            if len(eligible) < b:
                failure = GrowthFailure(level, x, b, len(eligible))
                return failure, failure
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
    tree = TreeGrowth(u, b, tuple(levels), parents)
    chosen_leaf: dict[int, int] = {}
    for leaf in tree.leaves:
        if (min(leaf, v), max(leaf, v)) in edges:
            root_w = tree.vice_tree_root(leaf)
            if root_w not in chosen_leaf or leaf < chosen_leaf[root_w]:
                chosen_leaf[root_w] = leaf
    paths = sorted(tree.path_from_root(leaf) + (v,) for leaf in chosen_leaf.values())
    return tree, PathPacking(u, v, tuple(paths))


class TestGrowthMatchesEdgeListGrowth:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("p", [0.02, 0.05, 0.3])
    @pytest.mark.parametrize("seed", [None, 0, 12345])
    def test_trees_and_packings_are_identical(self, d, p, seed):
        g = gnp_generate(300, p, 17)
        rng = np.random.default_rng(int(1000 * p) + d)
        closed = 0
        for _ in range(8):
            u, v = (int(x) for x in rng.choice(300, size=2, replace=False))
            for b in (2, 5):
                tree, packing = edge_list_growth(g, u, v, d, b, seed)
                assert grow_tree(g, u, v, d, b, seed) == tree
                assert grow_disjoint_paths(g, u, v, d, b, seed) == packing
                closed += isinstance(packing, PathPacking) and len(packing) > 0
        assert closed or p < 0.05  # some leaves reach v, so closing is exercised


class TestCountDisjointPaths:
    def test_complete_graph_uses_all_middles(self):
        assert count_disjoint_length_d_paths(complete_graph(5), 0, 4, 2) == 3

    def test_six_cycle_has_two_arcs(self):
        assert count_disjoint_length_d_paths(cycle_graph(6), 0, 3, 3) == 2

    def test_direct_edge_counts_for_d1(self):
        assert count_disjoint_length_d_paths(complete_graph(3), 0, 1, 1) == 1

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceeded):
            count_disjoint_length_d_paths(complete_graph(12), 0, 1, 3, path_budget=10)

    def test_path_longer_than_recursion_limit(self):
        assert count_disjoint_length_d_paths(path_graph(1100), 0, 1099, 1099) == 1

    def test_packing_deeper_than_recursion_limit(self):
        # 1000 disjoint paths 0-a_i-b_i-1; the cross path 0-a_0-b_1-1 sorts
        # first and makes greedy first fit one short, so the exact packing
        # search has to go 1000 paths deep.
        edges = []
        for i in range(1000):
            a, b = 2 + i, 2001 - i
            edges += [(0, a), (a, b), (b, 1)]
        edges.append((2, 2000))
        g = Graph.from_edges(2002, edges)
        assert count_disjoint_length_d_paths(g, 0, 1, 3) == 1000

    @given(graph_pairs(min_n=4, max_n=9), st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, gp, d):
        g, u, v = gp
        exact = count_disjoint_length_d_paths(g, u, v, d)
        assert exact == brute_max_disjoint(all_simple_paths(g, u, v, exact_len=d))

    def test_half_density_ten_vertex_instances(self):
        for seed in range(10):
            g = gnp_generate(10, 0.5, seed)
            exact = count_disjoint_length_d_paths(g, 0, 9, 2)
            assert exact == brute_max_disjoint(all_simple_paths(g, 0, 9, exact_len=2))


class TestRainbowColorRandom:
    def test_single_color_means_all_ones(self):
        g = gnp_generate(20, 0.5, 3)
        col = rainbow_color_random(g, 1, 99)
        assert col.c == 1 and set(col.assignment) <= {1}

    def test_deterministic_and_seed_sensitive(self):
        g = gnp_generate(30, 0.5, 1)
        assert rainbow_color_random(g, 3, 5) == rainbow_color_random(g, 3, 5)
        assert rainbow_color_random(g, 3, 5) != rainbow_color_random(g, 3, 6)

    def test_matches_scalar_pair_stream(self):
        g = gnp_generate(25, 0.4, 2)
        col = rainbow_color_random(g, 4, 123)
        for u, v in g.edges:
            assert col.color_of(u, v) == pair_color(123, u, v, 4)

    def test_refuses_colors_beyond_int32(self):
        g = gnp_generate(12, 0.5, 1)
        col = rainbow_color_random(g, 2**31 - 1, 7)
        assert col.color_array.max() <= 2**31 - 1 and col.color_array.min() >= 1
        with pytest.raises(ValueError, match="int32"):
            rainbow_color_random(g, 2**31, 7)

    def test_color_one_frequency_within_five_sigma(self):
        # per edge of K_100, across 200 seeds: Binomial(200, 1/2)
        g = complete_graph(100)
        counts = np.zeros(g.m, dtype=np.int64)
        for seed in range(200):
            counts += rainbow_color_random(g, 2, seed).color_array == 1
        sigma5 = 5 * np.sqrt(200 * 0.25)
        assert np.all(np.abs(counts - 100) <= sigma5)

    def test_two_color_wedge_frequency_matches_rainbow_prob(self):
        # a fixed length-2 path is rainbow iff its edges differ: probability 1/2
        g = path_graph(3)
        hits = sum(
            rainbow_color_random(g, 2, seed).color_of(0, 1)
            != rainbow_color_random(g, 2, seed).color_of(1, 2)
            for seed in range(400)
        )
        assert abs(hits - 200) <= 5 * np.sqrt(400 * 0.25)

    def test_single_edge_is_always_rainbow(self):
        g = Graph.from_edges(2, [(0, 1)])
        for c in (1, 2, 5):
            col = rainbow_color_random(g, c, 7)
            assert is_rainbow_k_connected(g, col, 1).ok

    def test_restriction_consistency_across_nested_graphs(self):
        sparse = gnp_generate(40, 0.2, 9)
        dense = gnp_generate(40, 0.7, 9)
        col_sparse = rainbow_color_random(sparse, 3, 55)
        col_dense = rainbow_color_random(dense, 3, 55)
        for u, v in sparse.edges:
            assert col_sparse.color_of(u, v) == col_dense.color_of(u, v)


class TestRainbowKColor:
    def test_clique_gets_the_monochrome_coloring(self):
        outcome = rainbow_k_color(complete_graph(5), 1, seed=4)
        assert isinstance(outcome, RainbowColoring)
        assert outcome.colors_used == 1
        assert set(outcome.coloring.assignment) == {1}

    def test_cut_vertex_is_diagnosed_immediately(self):
        assert rainbow_k_color(path_graph(3), 2, seed=0) == NotKConnected(2)

    def test_above_threshold_mostly_two_colors(self):
        p = 4 * sharp_threshold(300, 2)
        two_color = 0
        for seed in range(20):
            g = gnp_generate(300, p, seed)
            outcome = rainbow_k_color(g, 1, attempts=20, seed=seed)
            assert isinstance(outcome, RainbowColoring)
            assert is_rainbow_k_connected(g, outcome.coloring, 1).ok
            if outcome.colors_used == 2:
                two_color += 1
        assert two_color >= 16

    def test_escalates_to_three_colors_on_five_cycle(self):
        outcome = rainbow_k_color(cycle_graph(5), 1, attempts=16, seed=1)
        assert isinstance(outcome, RainbowColoring)
        assert outcome.colors_used == 3  # no 2-coloring works: escalation path
        assert outcome.depth_estimate == 2
        assert is_rainbow_k_connected(cycle_graph(5), outcome.coloring, 1).ok

    def test_fails_cleanly_when_even_escalation_is_hopeless(self):
        # both arcs of C_5 must be rainbow for k = 2, which needs 4 colors;
        # the density estimate tries 2 then 3
        outcome = rainbow_k_color(cycle_graph(5), 2, attempts=4, seed=0)
        assert isinstance(outcome, ColoringFailure)
        assert outcome.attempts_used == 8
        assert outcome.colors_tried == (2, 3)
        u, v = outcome.witness
        assert 0 <= u < v < 5

    def test_known_p_overrides_density_estimate(self):
        g = gnp_generate(40, 0.9, 2)
        outcome = rainbow_k_color(g, 1, seed=3, known_p=1 / 39.9)
        assert isinstance(outcome, RainbowColoring)
        # eps close to 1 - would not happen from the density estimate
        assert outcome.depth_estimate > 2

    def test_tiny_known_p_caps_depth_at_the_edge_count(self):
        # p = 1e-300 gives a depth of 2**53 + 1; m colors already make
        # every edge a color of its own.
        g = gnp_generate(12, 0.5, 1)
        outcome = rainbow_k_color(g, 1, seed=0, known_p=1e-300)
        assert isinstance(outcome, RainbowColoring)
        assert outcome.depth_estimate == g.m

    def test_rejects_bad_arguments(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            rainbow_k_color(g, 0)
        with pytest.raises(ValueError):
            rainbow_k_color(g, 1, attempts=0)
        with pytest.raises(ValueError):
            rainbow_k_color(g, 1, known_p=0.0)

    def test_refuses_attempts_above_the_budget_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("work ran before the attempts budget was checked")

        for name in ("vertex_connectivity_at_least", "is_rainbow_k_connected",
                     "rainbow_color_random"):
            monkeypatch.setattr(construct, name, no_work)
        for attempts in (MAX_ATTEMPTS + 1, 2**64):
            with pytest.raises(BudgetExceeded, match="budget"):
                rainbow_k_color(cycle_graph(30), 2, attempts=attempts)

    def test_budget_allows_exactly_max_attempts(self):
        outcome = rainbow_k_color(complete_graph(5), 1, attempts=MAX_ATTEMPTS)
        assert isinstance(outcome, RainbowColoring)

    def test_every_reported_success_reverifies(self):
        for seed in range(8):
            g = gnp_generate(60, 0.45, seed)
            outcome = rainbow_k_color(g, 2, attempts=12, seed=seed)
            if isinstance(outcome, NotKConnected):
                assert not vertex_connectivity_at_least(g, 2)
            elif isinstance(outcome, RainbowColoring):
                assert is_rainbow_k_connected(g, outcome.coloring, 2).ok
                assert outcome.claimed_lower_bound == max(outcome.depth_estimate - 1, 1)
