import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rcgraph import (
    BudgetExceeded,
    SweepConfig,
    count_disjoint_length_d_paths,
    enumerate_rainbow_paths,
    gnp_generate,
    grow_tree,
    is_rainbow_k_connected,
    max_disjoint_rainbow_paths,
    rainbow_color_random,
    rc_k_exact,
    sharp_threshold,
)
from rcgraph.seeds import MASK64, check_seed, mix64, splitmix64, splitmix64_array


@given(st.integers(0, MASK64))
def test_splitmix64_stays_in_range(x):
    assert 0 <= splitmix64(x) <= MASK64


@given(st.lists(st.integers(0, MASK64), min_size=1, max_size=50))
def test_vectorized_splitmix_matches_scalar(values):
    arr = np.array(values, dtype=np.uint64)
    out = splitmix64_array(arr)
    assert [int(x) for x in out] == [splitmix64(v) for v in values]


def test_mix64_is_order_sensitive():
    assert mix64(1, 2) != mix64(2, 1)
    assert mix64(0) != mix64(0, 0)


@given(st.lists(st.integers(0, MASK64), min_size=1, max_size=6))
def test_mix64_deterministic(parts):
    assert mix64(*parts) == mix64(*parts)


def test_check_seed_accepts_64_bit_range():
    assert check_seed(0) == 0
    assert check_seed(MASK64) == MASK64
    assert check_seed(np.uint64(7)) == 7


@pytest.mark.parametrize("bad", [-1, MASK64 + 1])
def test_check_seed_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        check_seed(bad)


@pytest.mark.parametrize("bad", [1.5, "7", None, True])
def test_check_seed_rejects_non_integers(bad):
    with pytest.raises(TypeError):
        check_seed(bad)


def _colored_graph():
    g = gnp_generate(12, 0.6, 3)
    return g, rainbow_color_random(g, 3, 1)


def _sweep_config(**overrides):
    return SweepConfig(**{"n_values": (100,), "multipliers": (1.0,), **overrides})


_NON_INTEGER_CALLS = {
    "verify-k-float": lambda g, col: is_rainbow_k_connected(g, col, 1.5),
    "verify-k-bool": lambda g, col: is_rainbow_k_connected(g, col, True),
    "packing-k_target-float": lambda g, col: max_disjoint_rainbow_paths(g, col, 0, 1, 1.5),
    "paths-max_len-float": lambda g, col: enumerate_rainbow_paths(g, col, 0, 1, max_len=1.5),
    "sweep-k-float": lambda g, col: _sweep_config(k=1.5),
    "sweep-trials-bool": lambda g, col: _sweep_config(trials=True),
    "sweep-n-float": lambda g, col: _sweep_config(n_values=(100.7,)),
    "sweep-branching-float": lambda g, col: _sweep_config(branching=1.5),
    "rck-max_colors-bool": lambda g, col: rc_k_exact(g, 1, max_colors=True),
    "rck-edge_budget-float": lambda g, col: rc_k_exact(g, 1, edge_budget=4.0),
    "rck-edge_budget-bool": lambda g, col: rc_k_exact(g, 1, edge_budget=True),
    "paths-path_budget-float": lambda g, col: count_disjoint_length_d_paths(
        g, 0, 1, 2, path_budget=2.5
    ),
}


@pytest.mark.parametrize("call", _NON_INTEGER_CALLS.values(), ids=_NON_INTEGER_CALLS.keys())
def test_integer_arguments_reject_floats_and_bools(call):
    with pytest.raises(TypeError):
        call(*_colored_graph())


_BELOW_MINIMUM_CALLS = {
    "rck-max_colors-zero": lambda g: rc_k_exact(g, 1, max_colors=0),
    "rck-max_colors-negative": lambda g: rc_k_exact(g, 1, max_colors=-3),
    "rck-edge_budget-negative": lambda g: rc_k_exact(g, 1, edge_budget=-1),
    "paths-path_budget-negative": lambda g: count_disjoint_length_d_paths(
        g, 0, 1, 2, path_budget=-1
    ),
}


@pytest.mark.parametrize("call", _BELOW_MINIMUM_CALLS.values(), ids=_BELOW_MINIMUM_CALLS.keys())
def test_integer_arguments_reject_values_below_minimum(call):
    g, _ = _colored_graph()
    with pytest.raises(ValueError, match="at least"):
        call(g)


def test_budget_and_cap_minimums_are_accepted():
    g = gnp_generate(5, 1.0, 0)
    assert rc_k_exact(g, 1, max_colors=1, edge_budget=10).value == 1
    assert rc_k_exact(g, 1, max_colors=None, edge_budget=np.int64(10)).value == 1
    assert count_disjoint_length_d_paths(g, 0, 1, 1, path_budget=1) == 1
    with pytest.raises(BudgetExceeded):
        count_disjoint_length_d_paths(g, 0, 1, 2, path_budget=0)


_NUMPY_INTEGER_CALLS = {
    "sharp_threshold-n": lambda g, two: sharp_threshold(two * 50, 2),
    "grow_tree-d": lambda g, two: grow_tree(g, 0, 1, two, 2),
    "rainbow_color_random-c": lambda g, two: rainbow_color_random(g, two, 1),
}


@pytest.mark.parametrize("call", _NUMPY_INTEGER_CALLS.values(), ids=_NUMPY_INTEGER_CALLS.keys())
def test_numpy_integer_arguments_act_as_ints(call):
    g, _ = _colored_graph()
    assert call(g, np.int64(2)) == call(g, 2)
