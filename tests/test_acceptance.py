"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The threshold-shape
criterion sweeps n = 1000 with 200 trials per cell and dominates the
runtime (a few minutes); everything else finishes in seconds.
"""

import time

import numpy as np

from rcgraph import (
    INFINITE,
    ColoringFailure,
    GrowthFailure,
    NotKConnected,
    RainbowColoring,
    SweepConfig,
    SweepMode,
    diameter,
    gnp_generate,
    grow_disjoint_paths,
    is_rainbow_k_connected,
    max_disjoint_rainbow_paths,
    rainbow_k_color,
    rc_k_exact,
    run_growth_census,
    run_threshold_sweep,
    sharp_threshold,
    validate_path_packing,
    vertex_connectivity_at_least,
)
from rcgraph.construct import rainbow_color_random
from rcgraph.rainbow import enumerate_rainbow_paths
from rcgraph.sweep import cell_probability, graph_seed, records_to_csv
from rcgraph.theory import (
    choose_depth_from_epsilon,
    failure_exponent,
    rainbow_prob,
)

from _oracles import (
    brute_max_disjoint,
    brute_rainbow_paths,
    complete_graph,
    connected_labeled_graphs,
    is_edge_subset,
    is_two_connected,
    labeled_trees,
    path_graph,
)

MASTER_SEED = 20260810


def _report(num: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[acceptance] criterion {num}: {status}{suffix}")


def test_criterion_01_small_graph_oracle_table():
    started = time.perf_counter()
    violations = []
    for n in range(2, 7):
        # K_6 has 15 edges; force the exact search past the default refusal
        value = rc_k_exact(complete_graph(n), 1, edge_budget=15).value
        if value != 1:
            violations.append(f"rc_1(K_{n}) = {value}")
    for n in range(2, 7):
        for tree in labeled_trees(n):
            value = rc_k_exact(tree, 1).value
            if value != n - 1:
                violations.append(f"rc_1 of tree {tree.edges} = {value}")
    if rc_k_exact(path_graph(3), 2).value != INFINITE:
        violations.append("rc_2(P_3) is not INFINITE")
    elapsed = time.perf_counter() - started
    ok = not violations and elapsed < 60.0
    _report(1, ok, f"oracle table exact, {elapsed:.1f}s")
    assert ok, violations or f"over the 60 s budget: {elapsed:.1f}s"


def test_criterion_02_diameter_lower_bound():
    violations = []
    for n in range(2, 6):
        for g in connected_labeled_graphs(n):
            value = rc_k_exact(g, 1).value
            if not value >= diameter(g):
                violations.append((g.edges, value, diameter(g)))
    _report(2, not violations, "rc_1 >= diameter on all connected graphs, n <= 5")
    assert not violations, violations[:5]


def test_criterion_03_monotone_in_k():
    violations = []
    for n in range(3, 6):
        for g in connected_labeled_graphs(n):
            if not is_two_connected(g):
                continue
            value_k1 = rc_k_exact(g, 1).value
            value_k2 = rc_k_exact(g, 2).value
            if not value_k1 <= value_k2:
                violations.append((g.edges, value_k1, value_k2))
    _report(3, not violations, "rc_1 <= rc_2 on all 2-connected graphs, n <= 5")
    assert not violations, violations[:5]


def test_criterion_04_packing_exactness():
    rng = np.random.default_rng(MASTER_SEED)
    checked = 0
    mismatches = []
    attempt = 0
    while checked < 200:
        attempt += 1
        n = int(rng.integers(5, 11))
        p = float(rng.uniform(0.2, 0.8))
        c = int(rng.integers(1, 5))
        g = gnp_generate(n, p, MASTER_SEED + attempt)
        col = rainbow_color_random(g, c, MASTER_SEED + 10_000 + attempt)
        u = int(rng.integers(n))
        v = int(rng.integers(n - 1))
        if v >= u:
            v += 1
        paths = enumerate_rainbow_paths(g, col, u, v, col.c)
        if len(paths) > 20:
            continue
        checked += 1
        fast = max_disjoint_rainbow_paths(g, col, u, v, k_target=32)
        brute = brute_max_disjoint(brute_rainbow_paths(g, col, u, v, col.c))
        if fast != brute:
            mismatches.append((g.edges, col.assignment, u, v, fast, brute))
    _report(4, not mismatches, f"{checked} instances vs subset enumeration")
    assert not mismatches, mismatches[:3]


def test_criterion_05_closed_form_theory():
    violations = []
    for d in range(1, 21):
        if not rainbow_prob(d) >= 4.0**-d:
            violations.append(f"rainbow_prob({d}) below 4^-{d}")
    for d in range(2, 11):
        for c0 in (1.0, 2.0, 4.0, 8.0):
            if not failure_exponent(d, c0) > 100:
                violations.append(f"failure_exponent({d}, {c0}) <= 100")
    for eps, expected in ((0.0, 2), (0.5, 3), (0.74, 4)):
        got = choose_depth_from_epsilon(eps)
        if got != expected:
            violations.append(f"choose_depth({eps}) = {got}, expected {expected}")
    _report(5, not violations, "rainbow_prob, failure_exponent, depth boundaries")
    assert not violations, violations


def test_criterion_06_growth_certificate_validity():
    invocations = 0
    invalid = []
    successes = 0

    def run(g, u, v, d, b, seed, expect_size=None):
        nonlocal invocations, successes
        invocations += 1
        result = grow_disjoint_paths(g, u, v, d, b, seed)
        if isinstance(result, GrowthFailure):
            return
        successes += 1
        try:
            validate_path_packing(g, result, required_length=d)
            if expect_size is not None and len(result.paths) != expect_size:
                raise ValueError(
                    f"expected exactly {expect_size} paths, got {len(result.paths)}"
                )
        except ValueError as exc:
            invalid.append((g.n, u, v, d, b, str(exc)))

    # complete graphs: K_{b+3} at depth 2 must pack exactly b paths
    for b in range(1, 11):
        g = complete_graph(b + 3)
        for seed in range(10):
            run(g, 0, b + 2, 2, b, MASTER_SEED + seed, expect_size=b)
    # above the depth-2 scale: dense expansion, certificates expected
    p_hi = min(1.0, 4 * sharp_threshold(300, 2))
    for i in range(15):
        g = gnp_generate(300, p_hi, MASTER_SEED + 100 + i)
        rng = np.random.default_rng(MASTER_SEED + 200 + i)
        for t in range(30):
            u = int(rng.integers(300))
            v = int(rng.integers(299))
            if v >= u:
                v += 1
            run(g, u, v, 2, 5, MASTER_SEED + 300 + 30 * i + t)
    # below the scale: growth mostly fails, returned packings still verify
    p_lo = 0.3 * sharp_threshold(300, 2)
    for i in range(15):
        g = gnp_generate(300, p_lo, MASTER_SEED + 400 + i)
        rng = np.random.default_rng(MASTER_SEED + 500 + i)
        for t in range(30):
            u = int(rng.integers(300))
            v = int(rng.integers(299))
            if v >= u:
                v += 1
            d = 2 if t % 2 == 0 else 3
            run(g, u, v, d, 1 + t % 2, MASTER_SEED + 600 + 30 * i + t)
    ok = invocations == 1000 and not invalid
    _report(
        6, ok, f"{invocations} invocations, {successes} certificates, 0 invalid"
    )
    assert invocations == 1000
    assert not invalid, invalid[:3]


def test_criterion_07_empirical_threshold_shape():
    started = time.perf_counter()
    config = SweepConfig(
        n_values=(1000,),
        multipliers=(0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
        d=2,
        k=1,
        trials=200,
        seed=MASTER_SEED,
        mode=SweepMode.COLORING,
    )
    records = run_threshold_sweep(config)
    rates = [rec.success_rate for rec in records]
    # the per-trial coupling makes the curve exactly monotone; sample it
    coupling_ok = True
    for trial in range(10):
        seed = graph_seed(config.seed, 1000, trial)
        previous = None
        for mult in config.multipliers:
            p, _ = cell_probability(1000, mult, config.d)
            g = gnp_generate(1000, p, seed)
            if previous is not None and not is_edge_subset(previous, g):
                coupling_ok = False
            previous = g
    monotone = rates == sorted(rates)
    spans = rates[0] <= 0.2 and rates[-1] >= 0.8
    crossing = next(
        (config.multipliers[i] for i, r in enumerate(rates) if r >= 0.5), None
    )
    elapsed = time.perf_counter() - started
    ok = monotone and spans and coupling_ok
    _report(
        7,
        ok,
        f"rates {['%.3f' % r for r in rates]}, crossing at multiplier "
        f"{crossing} (recorded, not asserted), {elapsed:.0f}s",
    )
    assert monotone, rates
    assert spans, rates
    assert coupling_ok


def test_criterion_08_algorithm_output_soundness():
    failures = []
    accepted = 0
    diagnosed = 0
    gave_up = 0
    run_index = 0
    for multiplier in (2, 4, 8):
        p = min(1.0, multiplier * sharp_threshold(300, 2))
        for k in (1, 2):
            for i in range(34):
                run_index += 1
                g = gnp_generate(300, p, MASTER_SEED + 700 + run_index)
                outcome = rainbow_k_color(
                    g, k, attempts=16, seed=MASTER_SEED + 800 + run_index
                )
                if isinstance(outcome, RainbowColoring):
                    accepted += 1
                    if not is_rainbow_k_connected(g, outcome.coloring, k).ok:
                        failures.append((multiplier, k, i, "unsound coloring"))
                elif isinstance(outcome, NotKConnected):
                    diagnosed += 1
                    if vertex_connectivity_at_least(g, k):
                        failures.append((multiplier, k, i, "wrong INFINITE diagnosis"))
                else:
                    assert isinstance(outcome, ColoringFailure)
                    gave_up += 1
    ok = not failures and run_index == 204
    _report(
        8,
        ok,
        f"{run_index} runs: {accepted} verified colorings, "
        f"{diagnosed} INFINITE diagnoses, {gave_up} give-ups",
    )
    assert not failures, failures[:5]


def test_criterion_09_sweep_determinism():
    coloring = SweepConfig(
        n_values=(64, 96),
        multipliers=(0.5, 1.0, 2.0, 4.0),
        d=2,
        k=1,
        trials=20,
        seed=MASTER_SEED,
        mode=SweepMode.COLORING,
    )
    growth = SweepConfig(
        n_values=(48,),
        multipliers=(2.0, 50.0),
        d=2,
        trials=20,
        seed=MASTER_SEED,
        mode=SweepMode.GROWTH,
        branching=3,
    )
    ok = records_to_csv(run_threshold_sweep(coloring)) == records_to_csv(
        run_threshold_sweep(coloring)
    ) and records_to_csv(run_growth_census(growth)) == records_to_csv(
        run_growth_census(growth)
    )
    _report(9, ok, "bit-identical CSV across repeated executions")
    assert ok
