import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcgraph import (
    SweepConfig,
    SweepMode,
    SweepRecord,
    emit,
    gnp_generate,
    parse_config_text,
    run_growth_census,
    run_threshold_sweep,
)
import rcgraph.sweep
from rcgraph.sweep import (
    CSV_COLUMNS,
    _sweep,
    cell_probability,
    estimated_cell_cost,
    graph_seed,
    records_to_csv,
    records_to_json,
    run_cell,
    run_trial,
)


def coloring_config(**overrides):
    base = dict(
        n_values=(48,),
        multipliers=(0.25, 1.0, 4.0),
        d=2,
        k=1,
        trials=12,
        seed=7,
        mode=SweepMode.COLORING,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            coloring_config(n_values=())
        with pytest.raises(ValueError):
            coloring_config(multipliers=(-1.0,))
        with pytest.raises(ValueError):
            coloring_config(multipliers=(1.0, float("nan")))
        with pytest.raises(ValueError):
            coloring_config(trials=0)
        with pytest.raises(ValueError):
            coloring_config(d=1)

    def test_mode_dispatch_is_enforced(self):
        with pytest.raises(ValueError):
            run_threshold_sweep(coloring_config(mode=SweepMode.GROWTH))
        with pytest.raises(ValueError):
            run_growth_census(coloring_config())


class TestColoringSweep:
    def test_zero_probability_never_succeeds(self):
        records = run_threshold_sweep(
            coloring_config(n_values=(64,), multipliers=(0.0,), trials=10)
        )
        (rec,) = records
        assert rec.successes == 0 and rec.success_rate == 0.0

    def test_clamped_complete_graph_always_succeeds(self):
        records = run_threshold_sweep(
            coloring_config(n_values=(16,), multipliers=(100.0,), trials=10)
        )
        (rec,) = records
        assert rec.clamped and rec.p == 1.0
        assert rec.successes == 10 and rec.success_rate == 1.0

    def test_success_rate_monotone_and_spanning(self):
        config = coloring_config(
            n_values=(200,),
            multipliers=(0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
            trials=30,
        )
        rates = [rec.success_rate for rec in run_threshold_sweep(config)]
        assert rates == sorted(rates)
        assert rates[0] <= 0.2 and rates[-1] >= 0.8

    def test_coupling_gives_nested_graphs(self):
        config = coloring_config(n_values=(80,), multipliers=(0.5, 1.0, 3.0), trials=5)
        for trial in range(config.trials):
            seed = graph_seed(config.seed, 80, trial)
            graphs = [
                gnp_generate(80, cell_probability(80, mult, config.d)[0], seed)
                for mult in config.multipliers
            ]
            for sparse, dense in zip(graphs, graphs[1:]):
                assert set(sparse.edges) <= set(dense.edges)

    def test_coloring_success_implies_diameter_success(self):
        coloring = coloring_config(n_values=(60,), multipliers=(0.5, 1.0, 2.0), trials=15)
        diam = coloring_config(
            n_values=(60,), multipliers=(0.5, 1.0, 2.0), trials=15, mode=SweepMode.DIAMETER
        )
        for mult in coloring.multipliers:
            _, color_outcomes = run_cell(coloring, 60, mult)
            _, diam_outcomes = run_cell(diam, 60, mult)
            for col_out, dia_out in zip(color_outcomes, diam_outcomes):
                assert not col_out.success or dia_out.success

    def test_every_trial_is_replayable_standalone(self):
        config = coloring_config(trials=8)
        for mult in config.multipliers:
            record, outcomes = run_cell(config, 48, mult)
            p, _ = cell_probability(48, mult, config.d)
            assert record.p == p
            replayed = [run_trial(config, 48, t, p) for t in range(config.trials)]
            assert replayed == outcomes
            assert record.successes == sum(1 for o in replayed if o.success)

    def test_budget_refusal_marks_cell_skipped(self):
        records = run_threshold_sweep(coloring_config(cell_cost_budget=10.0))
        assert all(rec.skipped and rec.trials == 0 and rec.successes == 0 for rec in records)


@st.composite
def engine_configs(draw):
    """Small sweeps whose multipliers are unsorted, hold a duplicate and a
    value whose p is clamped to 1, and whose larger n is sometimes skipped."""
    ns = tuple(draw(st.lists(st.integers(40, 90), min_size=1, max_size=2)))
    d = draw(st.sampled_from((2, 3)))
    base = draw(st.lists(st.floats(0.0, 4.0), min_size=2, max_size=5))
    multipliers = draw(st.permutations(base + [base[0], 1e3]))
    budget = draw(st.sampled_from((1e10, estimated_cell_cost(min(ns), d))))
    return SweepConfig(
        n_values=ns, multipliers=tuple(multipliers), d=d,
        k=draw(st.sampled_from((1, 2))), trials=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**32)), mode=draw(st.sampled_from(SweepMode)),
        cell_cost_budget=budget,
    )


class TestEngine:
    @given(engine_configs())
    @settings(max_examples=40, deadline=None)
    def test_every_cell_and_trial_matches_run_trial(self, config):
        cells = _sweep(config)
        assert len(cells) == len(config.n_values) * len(config.multipliers)
        for record, outcomes in cells:
            if record.skipped:
                assert outcomes == [] and record.n > min(config.n_values)
                continue
            assert len(outcomes) == record.trials == config.trials
            for t, outcome in enumerate(outcomes):
                assert run_trial(config, record.n, t, record.p) == outcome
            assert record.successes == sum(o.success for o in outcomes)

    def test_coloring_bisects_seven_multipliers_in_three_verifications(self, monkeypatch):
        calls = []
        verify = rcgraph.sweep.is_rainbow_k_connected

        def counted(*args):
            calls.append(1)
            return verify(*args)

        monkeypatch.setattr(rcgraph.sweep, "is_rainbow_k_connected", counted)
        for seed in range(8):
            calls.clear()
            config = coloring_config(
                n_values=(120,), multipliers=(0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
                trials=1, seed=seed,
            )
            run_threshold_sweep(config)
            assert 1 <= len(calls) <= 3


class TestDiameterSweep:
    def test_diameter_mode_reports_mean_diameter(self):
        config = coloring_config(
            n_values=(40,), multipliers=(6.0,), trials=10, mode=SweepMode.DIAMETER
        )
        (rec,) = run_threshold_sweep(config)
        assert rec.successes == 10  # dense: diameter 2 or less
        assert rec.aux_mean is not None and 1.0 <= rec.aux_mean <= 2.0

    def test_empty_graphs_have_no_finite_diameter(self):
        config = coloring_config(
            n_values=(30,), multipliers=(0.0,), trials=5, mode=SweepMode.DIAMETER
        )
        (rec,) = run_threshold_sweep(config)
        assert rec.successes == 0 and rec.aux_mean is None


class TestGrowthCensus:
    def test_complete_graph_census_packs_exactly_b(self):
        config = SweepConfig(
            n_values=(32,),
            multipliers=(100.0,),
            d=2,
            trials=10,
            seed=3,
            mode=SweepMode.GROWTH,
            branching=5,
        )
        (rec,) = run_growth_census(config)
        assert rec.clamped
        assert rec.successes == 10
        assert rec.aux_mean == 5.0

    def test_sparse_regime_mostly_fails(self):
        config = SweepConfig(
            n_values=(50,),
            multipliers=(0.1,),
            d=2,
            trials=40,
            seed=5,
            mode=SweepMode.GROWTH,
        )
        (rec,) = run_growth_census(config)
        assert rec.success_rate <= 0.3

    def test_dense_census_records_mean_packing_size(self):
        # every packing is re-verified inside run_trial before counting
        config = SweepConfig(
            n_values=(400,),
            multipliers=(4.0,),
            d=2,
            trials=30,
            seed=9,
            mode=SweepMode.GROWTH,
        )
        (rec,) = run_growth_census(config)
        assert rec.success_rate >= 0.9
        assert rec.aux_mean is not None and rec.aux_mean >= 1.0


class TestEmission:
    def test_csv_of_empty_record_list_is_header_only(self):
        assert records_to_csv([]) == ",".join(CSV_COLUMNS) + "\n"

    def test_csv_row_layout(self):
        rec = SweepRecord(
            n=16, d=2, k=1, multiplier=0.125, p=0.0625, trials=10,
            successes=5, success_rate=0.5, aux_mean=None, clamped=False, skipped=False,
        )
        text = records_to_csv([rec])
        assert text == (
            "n,d,k,multiplier,p,trials,successes,success_rate,aux_mean,clamped,skipped\n"
            "16,2,1,0.125,0.0625,10,5,0.5,,false,false\n"
        )

    def test_floats_use_six_significant_digits(self):
        rec = SweepRecord(
            n=1000, d=2, k=1, multiplier=1 / 3, p=0.0988211768, trials=1,
            successes=1, success_rate=1.0, aux_mean=2.123456789, clamped=True, skipped=False,
        )
        row = records_to_csv([rec]).splitlines()[1]
        assert row == "1000,2,1,0.333333,0.0988212,1,1,1,2.12346,true,false"

    def test_json_is_an_array_of_flat_objects(self):
        records = run_threshold_sweep(coloring_config(trials=3))
        data = json.loads(records_to_json(records))
        assert isinstance(data, list)
        assert set(data[0]) == set(CSV_COLUMNS)

    def test_emit_writes_to_file_and_filelike(self, tmp_path):
        records = run_threshold_sweep(coloring_config(trials=3))
        target = tmp_path / "out.csv"
        emit(records, "csv", target)
        buffer = io.StringIO()
        emit(records, "CSV", buffer)
        assert target.read_text() == buffer.getvalue() == records_to_csv(records)

    def test_emit_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            emit([], "xml", io.StringIO())

    def test_determinism_bit_identical_csv(self):
        config = coloring_config()
        first = records_to_csv(run_threshold_sweep(config))
        second = records_to_csv(run_threshold_sweep(config))
        assert first == second

    # SHA-256 of records_to_csv for fixed COLORING sweeps, n in {100, 300},
    # seven multipliers, 8 trials. A faster verification must leave every
    # byte of these unchanged.
    PINNED_CSV = {
        (2, 1): "d1f3a4df219f15fd08b66ef564c00ac36f4d05f8cebcf1ec59a6aab2440ddb1b",
        (2, 2): "00429e2c9f1a1010cc19f0126f580590cf784180c14188573bb9f361b2c1eaef",
        (3, 2): "2c3d744a8b030445221fe5aae1e00fde34da0658d1bc853bfe750fec45e1cf4f",
    }

    @pytest.mark.parametrize("d,k", sorted(PINNED_CSV))
    def test_csv_is_pinned_across_versions(self, d, k):
        config = SweepConfig(
            n_values=(100, 300),
            multipliers=(0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
            d=d,
            k=k,
            trials=8,
            seed=0,
        )
        text = records_to_csv(run_threshold_sweep(config))
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED_CSV[d, k]


class TestConfigFile:
    CONFIG_TEXT = """
    # threshold sweep around the depth-2 scale
    n_values = 48, 64
    multipliers = 0.5, 1, 2
    d = 2
    k = 1
    trials = 9
    seed = 123
    mode = coloring
    """

    def test_parse_round_trip(self):
        config = parse_config_text(self.CONFIG_TEXT)
        assert config.n_values == (48, 64)
        assert config.multipliers == (0.5, 1.0, 2.0)
        assert config.trials == 9 and config.seed == 123
        assert config.mode is SweepMode.COLORING

    def test_unknown_key_is_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("n_values = 4\nmultipliers = 1\nbogus = 3")

    def test_missing_required_keys_rejected(self):
        with pytest.raises(ValueError, match="n_values"):
            parse_config_text("d = 2")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            parse_config_text("n_values 4")
