"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/selftest.py

They check that every metric named in BENCHMARK.json is printed with its
unit, that a wrong reference digest and a wrong verdict are counted as
failed items, that a missing or mismatched reference at the default seed
fails every item, that item times are scaled by the kernel timings next
to them, and that the layer hooks are removed after a traced run.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from rcgraph import graphs  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "sweep_coloring": workloads.SweepColoring(n=60, cycle=4),
    "rainbow_k2": workloads.RainbowK2(dense_n=60, open_ns=(30, 38), cycle=10),
    "connectivity_k3": workloads.ConnectivityK3(
        kinds=((12, 0.5), (14, 0.5)), two_block=(14, 0.6), cycle=9),
    "sweep_growth_diameter": workloads.SweepGrowthDiameter(n=60, cycle=18),
}


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def bench(capsys, *args) -> dict:
    assert run.main(["--seconds", "0.05", *args]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_reported_with_its_unit(capsys, workload, trace):
    result = bench(capsys, "--workload", workload, "--seed", "5", "--trace", trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_wrong_reference_digest_fails_items(capsys, monkeypatch):
    wl = TINY["sweep_coloring"]
    monkeypatch.setattr(run, "load_reference", lambda name: ["0" * 16] * wl.cycle)
    result = bench(capsys, "--workload", "sweep_coloring", "--seed", "0")
    assert not result["correct"]
    assert 0 < result["failed"] == result["attempted"]


@pytest.mark.parametrize("reference", [None, ["0" * 16]], ids=["missing", "too_short"])
def test_unusable_reference_fails_items_at_the_default_seed(capsys, monkeypatch, reference):
    monkeypatch.setattr(run, "load_reference", lambda name: reference)
    result = bench(capsys, "--workload", "sweep_coloring", "--seed", "0")
    assert not result["correct"]
    assert 0 < result["failed"] == result["attempted"]


def test_matching_reference_digest_passes(capsys, monkeypatch):
    wl = TINY["sweep_coloring"]
    inputs = wl.build(0)
    good = [wl.summarize(wl.run_item(inputs, i), i).digest for i in range(wl.cycle)]
    monkeypatch.setattr(run, "load_reference", lambda name: good)
    result = bench(capsys, "--workload", "sweep_coloring", "--seed", "0")
    assert result["correct"] and result["failed"] == 0


def test_item_times_scale_with_the_kernel_timings_around_them():
    ref = run.KERNEL_REF_MS
    phase = run.Phase(interpreted_share=1.0)
    phase.times = [0.1] * 8
    # Interpreted code runs at reference speed, then at half speed from
    # item 4 on; numpy code runs at a third of reference speed throughout.
    phase.kernel_ms = [(ref[0], 3 * ref[1])] * 5 + [(2 * ref[0], 3 * ref[1])] * 4
    adjusted = phase.adjusted()
    assert adjusted[:2] == [0.1, 0.1] and adjusted[-2:] == [0.05, 0.05]
    assert all(0.05 <= t <= 0.1 for t in adjusted)
    phase.interpreted_share = 0.0
    assert phase.adjusted() == pytest.approx([0.1 / 3] * 8)
    assert min(run.kernel_ms()) > 0


def test_wrong_verdict_fails_the_invariant_check():
    wl = TINY["connectivity_k3"]
    inputs = wl.build(9)
    for i in range(wl.cycle):
        truth = wl.summarize(wl.run_item(inputs, i), i).info
        assert wl.check(inputs, i, truth) == []
        assert wl.check(inputs, i, not truth) != []


def test_brute_force_connectivity_matches_the_library():
    rng = np.random.default_rng(3)
    verdicts = set()
    for trial in range(60):
        n = int(rng.integers(4, 11))
        g = graphs.gnp_generate(n, float(rng.uniform(0.3, 0.9)), trial)
        truth = graphs.vertex_connectivity_at_least(g, 3)
        verdicts.add(truth)
        assert workloads.kappa_at_least_3(g.n, g.edge_array) == truth
    assert verdicts == {True, False}


def _bindings():
    mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "rcgraph"]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    out.update({("Graph", k): v for k, v in vars(graphs.Graph).items()})
    return out


def test_hooks_are_removed_after_the_traced_phase():
    before = _bindings()
    tracer = layers.Tracer()
    with layers.installed(tracer) as missing:
        assert missing == []
        assert graphs.gnp_generate is not before[("rcgraph.graphs", "gnp_generate")]
        import rcgraph.sweep
        assert rcgraph.sweep.gnp_generate is graphs.gnp_generate
        TINY["sweep_growth_diameter"].run_item(TINY["sweep_growth_diameter"].build(1), 4)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tracer.calls["graphs.gnp_generate"] > 0 and tracer.calls["graphs.views"] > 0


def test_missing_hook_target_is_reported_not_raised():
    hooks = layers.HOOKS + (layers.Hook("gone", "rcgraph.graphs", "no_such_function", "gone"),
                            layers.Hook("gone", "rcgraph.no_such_module", "f", "gone"))
    with layers.installed(layers.Tracer(), hooks) as missing:
        pass
    assert missing == ["gone:rcgraph.graphs.no_such_function", "gone:rcgraph.no_such_module.f"]
