"""Command-line interface.

Subcommands: gen, color, verify, rck, grow, rainbow, theory, sweep.
Exit codes: 0 success / verdict true, 1 verdict false, 2 usage error,
3 budget refusal.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .construct import (
    ColoringFailure,
    GrowthFailure,
    NotKConnected,
    RainbowColoring,
    grow_disjoint_paths,
    rainbow_color_random,
    rainbow_k_color,
)
from .formats import (
    coloring_from_text,
    coloring_to_text,
    graph_from_text,
    graph_to_text,
    packing_to_text,
)
from .graphs import gnp_generate
from .rainbow import BudgetExceeded, is_rainbow_k_connected, rc_k_exact
from .sweep import (
    SweepConfig,
    SweepMode,
    emit,
    parse_config_text,
    run_growth_census,
    run_threshold_sweep,
)
from .theory import (
    ThresholdParams,
    failure_exponent,
    guaranteed_disjoint_paths,
    lower_probe,
    rainbow_prob,
    sharp_threshold,
    upper_probe,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(Path(out), "w", newline="") as handle:
            handle.write(text)


def _load_graph(path: str):
    return graph_from_text(Path(path).read_text())


def _cmd_gen(args: argparse.Namespace) -> int:
    g = gnp_generate(args.n, args.p, args.seed)
    _write(graph_to_text(g), args.out)
    return EXIT_OK


def _cmd_color(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    col = rainbow_color_random(g, args.colors, args.seed)
    _write(coloring_to_text(col), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    col = coloring_from_text(Path(args.coloring).read_text(), g)
    result = is_rainbow_k_connected(g, col, args.k)
    if result.ok:
        print(f"rainbow-{args.k}-connected: true")
        return EXIT_OK
    u, v = result.witness
    print(f"rainbow-{args.k}-connected: false  witness: {u} {v}")
    return EXIT_FALSE


def _cmd_rck(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    result = rc_k_exact(g, args.k, args.max_colors, args.edge_budget)
    print(f"rc_{args.k} = {result.value}")
    if args.certificate is not None and result.coloring is not None:
        _write(coloring_to_text(result.coloring), args.certificate)
    return EXIT_OK


def _cmd_grow(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    result = grow_disjoint_paths(g, args.u, args.v, args.depth, args.branching, args.seed)
    if isinstance(result, GrowthFailure):
        print(
            f"growth failed at level {result.level}: vertex {result.vertex} has "
            f"{result.available} eligible neighbors, needs {result.needed}"
        )
        return EXIT_FALSE
    _write(packing_to_text(result), args.out)
    return EXIT_OK


def _cmd_theory(args: argparse.Namespace) -> int:
    params = ThresholdParams(args.n, args.d, args.k, args.c0)
    probe = upper_probe(params)
    rows = [
        ("n", str(params.n)),
        ("d", str(params.d)),
        ("k", str(params.k)),
        ("c0", format(params.c0, ".6g")),
        ("k within regime (k <= c0 log2 n)", "yes" if params.k_within_regime else "NO"),
        ("sharp_threshold", format(sharp_threshold(params.n, params.d), ".6g")),
        ("lower_probe", format(lower_probe(params.n, params.d), ".6g")),
        ("upper_constant (2^20 c0)", format(params.upper_constant, ".6g")),
        (
            "upper_probe",
            format(probe.value, ".6g")
            + ("  [exceeds 1: vacuous at this n]" if probe.exceeds_one else ""),
        ),
        ("path_constant (2^(10 d) c0)", format(params.path_constant, ".6g")),
        (
            "guaranteed_disjoint_paths",
            format(guaranteed_disjoint_paths(params.n, params.d, params.c0), ".6g"),
        ),
        ("rainbow_prob (d!/d^d)", format(rainbow_prob(params.d), ".6g")),
        ("failure_exponent", format(failure_exponent(params.d, params.c0), ".6g")),
    ]
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")
    return EXIT_OK


def _cmd_rainbow(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    outcome = rainbow_k_color(g, args.k, args.attempts, args.seed, args.p)
    if isinstance(outcome, NotKConnected):
        print(f"rc_{args.k} = inf (graph is not {args.k}-vertex-connected)")
        return EXIT_FALSE
    if isinstance(outcome, ColoringFailure):
        u, v = outcome.witness
        print(
            f"no verified coloring after {outcome.attempts_used} attempts with "
            f"{outcome.colors_tried} colors; last witness: {u} {v}"
        )
        return EXIT_FALSE
    assert isinstance(outcome, RainbowColoring)
    print(
        f"colors_used = {outcome.colors_used}  depth_estimate = {outcome.depth_estimate}  "
        f"claimed_lower_bound = {outcome.claimed_lower_bound}  "
        f"attempts = {outcome.attempts_used}"
    )
    if args.out is not None:
        _write(coloring_to_text(outcome.coloring), args.out)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    # Grid flags default to None, so SweepConfig alone holds the defaults.
    flags = {field.name: getattr(args, field.name, None) for field in fields(SweepConfig)}
    given = {name: value for name, value in flags.items() if value is not None}
    if args.config is not None:
        if given:
            named = ", ".join("--" + name.replace("_", "-") for name in given)
            raise ValueError(f"--config sets the whole sweep; drop {named}")
        config = parse_config_text(Path(args.config).read_text())
    else:
        if args.n_values is None or args.multipliers is None:
            raise ValueError("sweep needs --config or both --n-values and --multipliers")
        given["n_values"] = tuple(int(t) for t in args.n_values.split(","))
        given["multipliers"] = tuple(float(t) for t in args.multipliers.split(","))
        if args.mode is not None:
            given["mode"] = SweepMode(args.mode)
        config = SweepConfig(**given)
    if config.mode is SweepMode.GROWTH:
        records = run_growth_census(config)
    else:
        records = run_threshold_sweep(config)
    if args.out is None:
        emit(records, args.format, sys.stdout)
    else:
        emit(records, args.format, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcgraph",
        description="Rainbow-k-connectivity toolkit for Erdos-Renyi random graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a G(n, p) edge list")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("color", help="randomly color a graph's edges")
    p.add_argument("--graph", required=True)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("verify", help="decide rainbow-k-connectivity of a coloring")
    p.add_argument("--graph", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("rck", help="exact minimum color count (small graphs)")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--max-colors", type=int, default=None)
    p.add_argument("--edge-budget", type=int, default=12)
    p.add_argument("--certificate", help="write an accepting coloring here")
    p.set_defaults(func=_cmd_rck)

    p = sub.add_parser("grow", help="grow a disjoint-path certificate for a pair")
    p.add_argument("--graph", required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--branching", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_grow)

    p = sub.add_parser("theory", help="print the closed-form threshold table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--c0", type=float, default=1.0)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("rainbow", help="randomized near-optimal rainbow-k-coloring")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--attempts", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=None, help="edge probability, if known")
    p.add_argument("--out", help="write the accepted coloring here")
    p.set_defaults(func=_cmd_rainbow)

    p = sub.add_parser("sweep", help="run a Monte Carlo sweep, emit CSV/JSON")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--n-values", help="comma-separated sizes")
    p.add_argument("--multipliers", help="comma-separated threshold multipliers")
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=[m.value for m in SweepMode])
    p.add_argument("--branching", type=int)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, TypeError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
