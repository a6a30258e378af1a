import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcgraph import Graph, gnp_generate, graphs
from rcgraph.cli import main
from rcgraph.formats import (
    coloring_from_text,
    coloring_to_text,
    graph_from_text,
    graph_to_text,
    packing_from_text,
)
from rcgraph.rainbow import EdgeColoring

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


def test_verify_with_a_400_digit_k_is_a_plain_false(tmp_path, graph_file, capsys):
    gpath = graph_file(gnp_generate(30, 0.5, 0))
    cpath = tmp_path / "col.txt"
    for colors in ("2", "3", "4", "7"):
        assert main(["color", "--graph", gpath, "--colors", colors, "--out", str(cpath)]) == 0
        assert main(["verify", "--graph", gpath, "--coloring", str(cpath), "--k", "9" * 400]) == 1
        assert "false  witness: 0 1" in capsys.readouterr().out


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


def test_rainbow_with_a_tiny_p_caps_colors_at_the_edge_count(tmp_path, capsys):
    # p = 1e-300 asks for 2**53 + 1 colors; more than m never help.
    gpath = tmp_path / "g.txt"
    assert main(["gen", "--n", "12", "--p", "0.5", "--seed", "1", "--out", str(gpath)]) == 0
    assert main(["rainbow", "--graph", str(gpath), "--k", "1", "--p", "1e-300"]) in (0, 1)
    assert "error" not in capsys.readouterr().err


def test_rainbow_k3_runs_the_connectivity_flows(tmp_path, capsys, monkeypatch):
    gpath, cpath = tmp_path / "g.txt", tmp_path / "col.txt"
    assert main(["gen", "--n", "40", "--p", "0.4", "--seed", "3", "--out", str(gpath)]) == 0
    flows = []
    flow = graphs._disjoint_paths_at_least
    monkeypatch.setattr(graphs, "_disjoint_paths_at_least",
                        lambda *args: flows.append(args[1:]) or flow(*args))
    assert main(["rainbow", "--graph", str(gpath), "--k", "3", "--out", str(cpath)]) == 0
    assert flows and all(k == 3 for _, _, k in flows)
    assert main(["verify", "--graph", str(gpath), "--coloring", str(cpath), "--k", "3"]) == 0


def test_rainbow_refuses_attempts_above_the_budget(tmp_path, graph_file, capsys):
    gpath = graph_file(gnp_generate(20, 0.5, 1))
    for attempts in (2**16 + 1, 2**64):
        assert main(["rainbow", "--graph", gpath, "--k", "2", "--attempts", str(attempts)]) == 3
        assert "budget" in capsys.readouterr().err


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


# Fuzzing of `verify`, `color`, `rainbow`, `grow`, `rck` and `sweep`:
# damaged graph and coloring files and out-of-range flags must end in exit
# code 0, 1 or 2 (or 3, a budget refusal, for all but `verify` and
# `color`), never a traceback; `rainbow` with more attempts than its budget
# on a readable graph must end in 3.
TOKENS = st.one_of(
    st.integers(-3, 60).map(str),
    st.sampled_from(["x", "1.5", "-0", "1e3", "nan", "", str(2**64), str(-2**70)]),
)


@st.composite
def damaged(draw, lines):
    """The lines joined as a file, after up to two drops, duplications or
    replacements by random tokens; or a file of random text or bytes."""
    shape = draw(st.sampled_from(["lines"] * 8 + ["text", "bytes"]))
    if shape == "text":
        return draw(st.text(max_size=40))
    if shape == "bytes":
        return draw(st.binary(max_size=40))
    lines = list(lines)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        if not lines:
            lines.append("")
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["drop", "duplicate", "replace"]))
        if action == "drop":
            del lines[i]
        elif action == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = " ".join(draw(st.lists(TOKENS, max_size=4)))
    return "\n".join(lines) + "\n"


@st.composite
def sweep_argv(draw):
    def small(lo, hi):  # mostly in range, else malformed
        good = st.integers(lo, hi).map(str)
        return st.one_of(good, good, st.sampled_from(["0", "-1", "x", "", "1.5", str(2**64)]))

    sizes = st.lists(st.integers(2, 40), min_size=1, max_size=2)
    multipliers = st.lists(
        st.one_of(st.sampled_from([0, 0.5, 1, 2, 4, 8]), st.floats(0, 8)), min_size=1, max_size=3
    )
    argv = [
        "sweep",
        "--n-values", ",".join(map(str, draw(sizes))),
        "--multipliers", ",".join(map(str, draw(multipliers))),
        "--mode", draw(st.sampled_from(["coloring", "diameter", "growth"])),
        "--d", draw(small(2, 4)),
        "--k", draw(small(1, 3)),
        "--trials", str(draw(st.integers(1, 3))),
        "--seed", draw(st.one_of(st.integers(0, 2**32).map(str), st.integers(0, 2**32).map(str), TOKENS)),
        "--format", draw(st.sampled_from(["csv", "json"])),
    ]
    if draw(st.booleans()):
        argv += ["--branching", draw(small(1, 4))]
    if draw(st.integers(0, 9)) == 0:
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv


@st.composite
def cli_runs(draw):
    """argv for `verify`, `color`, `rainbow`, `grow`, `rck` or `sweep` plus
    the graph and coloring files. The coloring header ranges over -2..10
    while edges use colors 1..3, so rainbow paths stay short. Exact k >= 2
    verification still searches every pair's rainbow paths, which grows
    steeply with n on dense graphs and large k, so n stays at most 20.
    `rainbow` draws --k in 1..5, so that k >= 3 reaches the connectivity
    flows, and at most 4 attempts, or else an --attempts above the budget
    on a readable graph, which must be refused with exit 3. `rck` enumerates colorings, so its
    graphs keep at most 4 vertices. `sweep` runs every mode at n <= 40,
    trials <= 3 and multipliers 0..8, with --d and --k near the small
    values a sweep is run at, plus malformed tokens. The third item is
    the set of exit codes the run may end in."""
    command = draw(st.sampled_from(["rainbow", "verify", "color", "grow", "rck", "sweep"]))
    if command == "sweep":
        return draw(sweep_argv()), {}, (0, 1, 2, 3)
    n = draw(st.integers(2, 4 if command == "rck" else 20))
    g = gnp_generate(n, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2**32)))
    colors = draw(st.lists(st.integers(1, 3), min_size=g.m, max_size=g.m))
    col = EdgeColoring(g, max(colors, default=1), colors)
    header = draw(st.integers(-2, 10))
    col_lines = [str(header)] + coloring_to_text(col).splitlines()[1:]
    files = {
        "graph": draw(damaged(graph_to_text(g).splitlines())),
        "coloring": draw(damaged(col_lines)),
    }
    flag = st.one_of(st.integers(-2, 6).map(str), TOKENS)
    if command == "verify":
        argv = ["verify", "--graph", "graph", "--coloring", "coloring", "--k", draw(flag)]
    elif command == "color":
        argv = ["color", "--graph", "graph", "--colors", draw(flag), "--seed", draw(flag)]
    elif command == "rainbow":
        if draw(st.integers(0, 4)) == 0:
            files["graph"] = graph_to_text(g)
            argv = ["rainbow", "--graph", "graph", "--k", str(draw(st.integers(1, 5))),
                    "--attempts", draw(st.sampled_from([str(2**16 + 1), str(2**64), "9" * 40])),
                    "--seed", str(draw(st.integers(0, 2**32)))]
            return argv, files, (3,)
        argv = ["rainbow", "--graph", "graph", "--k", str(draw(st.integers(1, 5))),
                "--attempts", str(draw(st.integers(1, 4))), "--seed", draw(flag)]
    elif command == "rck":
        argv = ["rck", "--graph", "graph", "--k", draw(st.one_of(st.integers(1, 3).map(str), flag)),
                "--max-colors", draw(st.one_of(st.integers(1, 6).map(str), flag)),
                "--edge-budget", draw(st.one_of(st.integers(0, 12).map(str), flag))]
    else:
        argv = ["grow", "--graph", "graph", "--u", draw(flag), "--v", draw(flag),
                "--depth", draw(flag), "--branching", draw(flag), "--seed", draw(flag)]
    if draw(st.integers(0, 9)) == 0:
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv, files, (0, 1, 2) if command in ("verify", "color") else (0, 1, 2, 3)


@given(cli_runs())
@settings(max_examples=300, deadline=None)
def test_fuzzed_commands_exit_cleanly(run):
    argv, files, codes = run
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            path = Path(tmp, name)
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content)
        argv = [str(Path(tmp, a)) if a in files else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusals
                code = exc.code
    assert code in codes
    assert "Traceback" not in err.getvalue()
