import json

import pytest

from rcgraph import Graph, gnp_generate
from rcgraph.cli import main
from rcgraph.formats import (
    coloring_from_text,
    graph_from_text,
    graph_to_text,
    packing_from_text,
)

from _oracles import complete_graph, path_graph


@pytest.fixture
def graph_file(tmp_path):
    def write(g: Graph, name: str = "graph.txt"):
        target = tmp_path / name
        target.write_text(graph_to_text(g))
        return str(target)

    return write


def test_gen_writes_deterministic_edge_list(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gen", "--n", "30", "--p", "0.4", "--seed", "9", "--out", str(out)]) == 0
    assert graph_from_text(out.read_text()) == gnp_generate(30, 0.4, 9)
    assert main(["gen", "--n", "30", "--p", "0.4", "--seed", "9"]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_gen_rejects_bad_probability(capsys):
    assert main(["gen", "--n", "5", "--p", "1.5"]) == 2
    assert "error" in capsys.readouterr().err


def test_color_verify_round_trip(tmp_path, graph_file, capsys):
    gpath = graph_file(complete_graph(6))
    cpath = tmp_path / "col.txt"
    assert main(["color", "--graph", gpath, "--colors", "2", "--seed", "4",
                 "--out", str(cpath)]) == 0
    g = graph_from_text((tmp_path / "graph.txt").read_text())
    col = coloring_from_text(cpath.read_text(), g)
    assert col.c == 2
    assert main(["verify", "--graph", gpath, "--coloring", str(cpath), "--k", "1"]) == 0
    assert "true" in capsys.readouterr().out


def test_verify_false_exits_one_with_witness(tmp_path, graph_file, capsys):
    gpath = graph_file(path_graph(4))
    cpath = tmp_path / "col.txt"
    cpath.write_text("1\n0 1 1\n1 2 1\n2 3 1\n")
    assert main(["verify", "--graph", gpath, "--coloring", str(cpath), "--k", "1"]) == 1
    out = capsys.readouterr().out
    assert "false" in out and "witness: 0 2" in out


def test_rck_reports_exact_value_and_certificate(tmp_path, graph_file, capsys):
    gpath = graph_file(path_graph(4))
    cert = tmp_path / "cert.txt"
    assert main(["rck", "--graph", gpath, "--k", "1", "--certificate", str(cert)]) == 0
    assert "rc_1 = 3" in capsys.readouterr().out
    g = graph_from_text((tmp_path / "graph.txt").read_text())
    assert coloring_from_text(cert.read_text(), g).c == 3


def test_rck_infinite_for_cut_vertex(graph_file, capsys):
    gpath = graph_file(path_graph(3))
    assert main(["rck", "--graph", gpath, "--k", "2"]) == 0
    assert "rc_2 = inf" in capsys.readouterr().out


def test_rck_budget_refusal_exits_three(graph_file, capsys):
    gpath = graph_file(complete_graph(6))  # 15 edges > default budget
    assert main(["rck", "--graph", gpath, "--k", "1"]) == 3
    assert "budget" in capsys.readouterr().err


def test_grow_emits_packing(tmp_path, graph_file, capsys):
    gpath = graph_file(complete_graph(6))
    out = tmp_path / "packing.txt"
    assert main(["grow", "--graph", gpath, "--u", "0", "--v", "5",
                 "--depth", "2", "--branching", "3", "--out", str(out)]) == 0
    packing = packing_from_text(out.read_text())
    assert packing.paths == ((0, 1, 5), (0, 2, 5), (0, 3, 5))


def test_grow_failure_exits_one(graph_file, capsys):
    gpath = graph_file(path_graph(3))
    assert main(["grow", "--graph", gpath, "--u", "0", "--v", "2",
                 "--depth", "2", "--branching", "2"]) == 1
    assert "growth failed at level 1" in capsys.readouterr().out


def test_theory_prints_labeled_table(capsys):
    assert main(["theory", "--n", "1024", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "sharp_threshold" in out and "0.0988212" in out
    assert "failure_exponent" in out and "65514.5" in out
    assert "vacuous" in out  # 2**20 overshoots p = 1 at this n


def test_theory_overflow_is_usage_error(capsys):
    assert main(["theory", "--n", "100", "--d", "120"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "d=120" in err


def test_rainbow_subcommand_accepts_and_reports(tmp_path, graph_file, capsys):
    gpath = graph_file(gnp_generate(60, 0.5, 3))
    out = tmp_path / "col.txt"
    code = main(["rainbow", "--graph", gpath, "--k", "1", "--seed", "2",
                 "--out", str(out)])
    assert code == 0
    assert "colors_used = 2" in capsys.readouterr().out
    g = graph_from_text((tmp_path / "graph.txt").read_text())
    assert main(["verify", "--graph", gpath, "--coloring", str(out)]) == 0


def test_sweep_with_flags_writes_csv(tmp_path, capsys):
    out = tmp_path / "records.csv"
    code = main([
        "sweep", "--n-values", "32,48", "--multipliers", "0.5,2", "--d", "2",
        "--trials", "4", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n,d,k,multiplier,p,")
    assert len(lines) == 5


def test_sweep_with_config_file_and_json(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("n_values = 32\nmultipliers = 1, 4\ntrials = 3\nseed = 2\n")
    assert main(["sweep", "--config", str(config), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 2 and data[0]["n"] == 32


def test_sweep_determinism_across_invocations(tmp_path):
    args = ["sweep", "--n-values", "40", "--multipliers", "0.5,1,2",
            "--trials", "5", "--seed", "3"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_growth_mode(capsys):
    code = main([
        "sweep", "--n-values", "32", "--multipliers", "50", "--mode", "growth",
        "--branching", "4", "--trials", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].endswith("true,false")  # clamped cell


@pytest.mark.parametrize("flag,value", [
    ("--d", "3"), ("--k", "2"), ("--trials", "7"), ("--seed", "0"), ("--mode", "coloring"),
    ("--branching", "4"), ("--n-values", "40"), ("--multipliers", "2"),
])
def test_sweep_config_refuses_grid_flags(tmp_path, capsys, flag, value):
    config = tmp_path / "sweep.cfg"
    config.write_text("n_values = 32\nmultipliers = 1\ntrials = 2\n")
    assert main(["sweep", "--config", str(config), flag, value]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and captured.out == ""


def test_sweep_omitted_flags_match_config_defaults(tmp_path):
    base = ["sweep", "--n-values", "40", "--multipliers", "0.5,2"]
    defaults = ["--d", "2", "--k", "1", "--trials", "50", "--seed", "0", "--mode", "coloring"]
    omitted, explicit = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(base + ["--out", str(omitted)]) == 0
    assert main(base + defaults + ["--out", str(explicit)]) == 0
    assert omitted.read_bytes() == explicit.read_bytes()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_rck_max_colors_below_one_is_usage_error(graph_file, capsys, value):
    gpath = graph_file(path_graph(4))
    assert main(["rck", "--graph", gpath, "--max-colors", value]) == 2
    assert "max_colors must be at least 1" in capsys.readouterr().err


def test_sweep_needs_config_or_flags(capsys):
    assert main(["sweep"]) == 2
    assert "error" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["gen", "--n", "not-a-number", "--p", "0.5"])
    assert info.value.code == 2


def test_missing_file_is_usage_error(capsys):
    assert main(["verify", "--graph", "/nonexistent", "--coloring", "/nope"]) == 2
