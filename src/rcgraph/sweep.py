"""Monte Carlo sweep harness: threshold curves, growth censuses, CSV/JSON.

Seed derivation (stable within a major release): every per-trial seed is
``mix64(master_seed, stream_tag, n, trial_index)`` with a distinct small
integer tag per stream (graph, color, pair, growth). The multiplier index
is deliberately *not* mixed in: cells at the same (n, trial) then share
their per-pair uniforms, so the generated graphs are nested across
multipliers and per-pair colorings agree on shared edges. That coupling
makes success monotone in the multiplier trial by trial, exactly.

One driver runs every sweep, n -> trial -> p. It draws a trial's pair
uniforms once and thresholds them at each distinct cell probability it
visits. COLORING bisects over the sorted probabilities for the first
that verifies, counts every higher one a success and every lower one a
failure: ceil(log2(P + 1)) verifications per trial instead of P.
DIAMETER and GROWTH evaluate every probability. Any single
(cell, trial) is still replayable in isolation via :func:`run_trial`
with the cell's realized probability, and gives the outcome the sweep
counted.
"""

from __future__ import annotations

import csv
import enum
import io
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .construct import GrowthFailure, grow_disjoint_paths, rainbow_color_random
from .graphs import INFINITE, Graph, diameter, gnp_generate, gnp_threshold, pair_draws
from .rainbow import is_rainbow_k_connected, validate_path_packing
from .seeds import check_int, check_seed, mix64
from .theory import sharp_threshold

_GRAPH_STREAM = 1
_COLOR_STREAM = 2
_PAIR_STREAM = 3
_GROWTH_STREAM = 4


class SweepMode(enum.Enum):
    COLORING = "coloring"  # does a random d-coloring verify as rainbow-k-connected?
    DIAMETER = "diameter"  # is the diameter at most d?
    GROWTH = "growth"      # does tree growth yield a non-empty certificate?


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: a grid of (n, multiplier) cells, ``trials`` runs each,
    with p = multiplier * sharp_threshold(n, d), clamped to 1."""

    n_values: tuple[int, ...]
    multipliers: tuple[float, ...]
    d: int = 2
    k: int = 1
    trials: int = 50
    seed: int = 0
    mode: SweepMode = SweepMode.COLORING
    branching: int | None = None  # GROWTH only; default: mean degree / 10
    cell_cost_budget: float = 1e10

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_values", tuple(check_int("n", n, 2) for n in self.n_values))
        object.__setattr__(self, "multipliers", tuple(float(m) for m in self.multipliers))
        if not self.n_values:
            raise ValueError("n_values must be non-empty")
        if not self.multipliers or not all(m >= 0 for m in self.multipliers):
            raise ValueError("multipliers must be non-empty and nonnegative (not NaN)")
        for name, minimum in (("d", 2), ("k", 1), ("trials", 1)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), minimum))
        object.__setattr__(self, "seed", check_seed(self.seed))
        if not isinstance(self.mode, SweepMode):
            raise TypeError("mode must be a SweepMode")
        if self.branching is not None:
            object.__setattr__(self, "branching", check_int("branching", self.branching, 1))


@dataclass(frozen=True)
class SweepRecord:
    """One (n, multiplier) cell. Field order is the CSV column order.

    ``aux_mean`` is mode-dependent: mean diameter over connected trials
    (DIAMETER), mean certificate size over successful trials (GROWTH),
    absent for COLORING. Skipped cells report zero trials.
    """

    n: int
    d: int
    k: int
    multiplier: float
    p: float
    trials: int
    successes: int
    success_rate: float
    aux_mean: float | None
    clamped: bool
    skipped: bool


@dataclass(frozen=True)
class TrialOutcome:
    success: bool
    aux: float | None


def graph_seed(master: int, n: int, trial: int) -> int:
    return mix64(master, _GRAPH_STREAM, n, trial)


def color_seed(master: int, n: int, trial: int) -> int:
    return mix64(master, _COLOR_STREAM, n, trial)


def pair_seed(master: int, n: int, trial: int) -> int:
    return mix64(master, _PAIR_STREAM, n, trial)


def growth_seed(master: int, n: int, trial: int) -> int:
    return mix64(master, _GROWTH_STREAM, n, trial)


def cell_probability(n: int, multiplier: float, d: int) -> tuple[float, bool]:
    """Realized p for a cell and whether it was clamped to 1."""
    raw = multiplier * sharp_threshold(n, d)
    return min(raw, 1.0), raw > 1.0


def _draw_pair(rng: np.random.Generator, n: int) -> tuple[int, int]:
    u = int(rng.integers(0, n))
    v = int(rng.integers(0, n - 1))
    if v >= u:
        v += 1
    return u, v


def default_branching(g: Graph) -> int:
    """Mean degree over ten, the plug-in for the branching parameter."""
    return max(1, (2 * g.m) // (10 * g.n))


def _evaluate(config: SweepConfig, n: int, trial: int, g: Graph) -> TrialOutcome:
    """The outcome of one trial on its graph ``g``."""
    if config.mode is SweepMode.COLORING:
        col = rainbow_color_random(g, config.d, color_seed(config.seed, n, trial))
        return TrialOutcome(is_rainbow_k_connected(g, col, config.k).ok, None)
    if config.mode is SweepMode.DIAMETER:
        dia = diameter(g)
        aux = float(dia) if dia != INFINITE else None
        return TrialOutcome(dia <= config.d, aux)
    rng = np.random.default_rng(pair_seed(config.seed, n, trial))
    u, v = _draw_pair(rng, n)
    b = config.branching if config.branching is not None else default_branching(g)
    grown = grow_disjoint_paths(g, u, v, config.d, b, growth_seed(config.seed, n, trial))
    if isinstance(grown, GrowthFailure):
        return TrialOutcome(False, None)
    validate_path_packing(g, grown, required_length=config.d)
    if len(grown.paths) == 0:
        return TrialOutcome(False, None)
    return TrialOutcome(True, float(len(grown.paths)))


def run_trial(config: SweepConfig, n: int, trial: int, p: float) -> TrialOutcome:
    """Run one trial standalone; this is the replay entry point."""
    return _evaluate(config, n, trial, gnp_generate(n, p, graph_seed(config.seed, n, trial)))


def _trial_outcomes(
    config: SweepConfig, n: int, trial: int, ps: Sequence[float]
) -> list[TrialOutcome]:
    """Outcomes of one trial at each of the ascending distinct probabilities
    ``ps``, each equal to ``run_trial(config, n, trial, p)``."""
    if len(ps) == 1:  # no draws to share: the trial is its own replay
        return [run_trial(config, n, trial, ps[0])]
    draws = pair_draws(n, graph_seed(config.seed, n, trial))

    def at(i: int) -> TrialOutcome:
        return _evaluate(config, n, trial, gnp_threshold(n, draws, ps[i]))

    if config.mode is not SweepMode.COLORING:
        return [at(i) for i in range(len(ps))]
    # Graphs are nested in p and colors are keyed per pair, so COLORING
    # success is monotone in p: bisect for the first success.
    lo, hi = 0, len(ps)
    while lo < hi:
        mid = (lo + hi) // 2
        if at(mid).success:
            hi = mid
        else:
            lo = mid + 1
    return [TrialOutcome(i >= lo, None) for i in range(len(ps))]


def estimated_cell_cost(n: int, d: int) -> float:
    """Coarse verification-cost model: pair count times the path bound 2**d."""
    return n * (n - 1) / 2 * 2.0**d


def _record(
    config: SweepConfig, n: int, multiplier: float, p: float, clamped: bool,
    outcomes: list[TrialOutcome],
) -> SweepRecord:
    """A cell's record; no outcomes means the cell was skipped."""
    successes = sum(1 for o in outcomes if o.success)
    auxes = [o.aux for o in outcomes if o.aux is not None]
    return SweepRecord(
        n, config.d, config.k, multiplier, p,
        trials=len(outcomes),
        successes=successes,
        success_rate=successes / len(outcomes) if outcomes else 0.0,
        aux_mean=sum(auxes) / len(auxes) if auxes else None,
        clamped=clamped,
        skipped=not outcomes,
    )


def _sweep(config: SweepConfig) -> list[tuple[SweepRecord, list[TrialOutcome]]]:
    """The sweep driver: loops n -> trial -> p and returns every cell's
    record with its per-trial outcomes, n-major in config order."""
    cells = []
    for n in config.n_values:
        probs = [cell_probability(n, mult, config.d) for mult in config.multipliers]
        if estimated_cell_cost(n, config.d) > config.cell_cost_budget:
            columns: list[list[TrialOutcome]] = [[] for _ in probs]
        else:
            ps = sorted({p for p, _ in probs})
            rows = [_trial_outcomes(config, n, t, ps) for t in range(config.trials)]
            index = {p: i for i, p in enumerate(ps)}
            columns = [[row[index[p]] for row in rows] for p, _ in probs]
        for mult, (p, clamped), outcomes in zip(config.multipliers, probs, columns):
            cells.append((_record(config, n, mult, p, clamped, outcomes), outcomes))
    return cells


def run_cell(
    config: SweepConfig, n: int, multiplier: float
) -> tuple[SweepRecord, list[TrialOutcome]]:
    """One (n, multiplier) cell: its record and per-trial outcomes."""
    (cell,) = _sweep(replace(config, n_values=(n,), multipliers=(multiplier,)))
    return cell


def run_threshold_sweep(config: SweepConfig) -> list[SweepRecord]:
    """COLORING or DIAMETER sweep over the whole (n, multiplier) grid."""
    if config.mode is SweepMode.GROWTH:
        raise ValueError("use run_growth_census for GROWTH mode")
    return [record for record, _ in _sweep(config)]


def run_growth_census(config: SweepConfig) -> list[SweepRecord]:
    """GROWTH census: per trial, grow a certificate for a random pair and
    record success (non-empty, re-verified packing) and its size."""
    if config.mode is not SweepMode.GROWTH:
        raise ValueError("run_growth_census requires GROWTH mode")
    return [record for record, _ in _sweep(config)]


_FLOAT_FIELDS = frozenset({"multiplier", "p", "success_rate", "aux_mean"})
CSV_COLUMNS = tuple(f.name for f in fields(SweepRecord))


def _sig6(value: float) -> float:
    return float(format(value, ".6g"))


def _csv_cell(name: str, value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if name in _FLOAT_FIELDS:
        return format(value, ".6g")
    return str(value)


def records_to_csv(records: Iterable[SweepRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow([_csv_cell(name, getattr(rec, name)) for name in CSV_COLUMNS])
    return buf.getvalue()


def records_to_json(records: Iterable[SweepRecord]) -> str:
    objs = []
    for rec in records:
        obj = {}
        for name in CSV_COLUMNS:
            value = getattr(rec, name)
            if name in _FLOAT_FIELDS and value is not None:
                value = _sig6(value)
            obj[name] = value
        objs.append(obj)
    return json.dumps(objs, indent=2) + "\n"


def emit(records: Sequence[SweepRecord], format: str, destination) -> None:
    """Write records as CSV or JSON to a path or to a file-like object."""
    fmt = format.lower()
    if fmt == "csv":
        text = records_to_csv(records)
    elif fmt == "json":
        text = records_to_json(records)
    else:
        raise ValueError(f"unknown format {format!r}, expected 'csv' or 'json'")
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(Path(destination), "w", newline="") as handle:
            handle.write(text)


_CONFIG_KEYS = {field.name for field in fields(SweepConfig)}


def parse_config_text(text: str) -> SweepConfig:
    """Parse the flat ``key = value`` sweep config format.

    Lists are comma-separated; blank lines and ``#`` comments are ignored.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        raw[key] = value
    kwargs: dict = {}
    if "n_values" in raw:
        kwargs["n_values"] = tuple(int(t) for t in raw["n_values"].split(","))
    if "multipliers" in raw:
        kwargs["multipliers"] = tuple(float(t) for t in raw["multipliers"].split(","))
    for key in ("d", "k", "trials", "seed", "branching"):
        if key in raw:
            kwargs[key] = int(raw[key])
    if "cell_cost_budget" in raw:
        kwargs["cell_cost_budget"] = float(raw["cell_cost_budget"])
    if "mode" in raw:
        kwargs["mode"] = SweepMode(raw["mode"].lower())
    if "n_values" not in kwargs or "multipliers" not in kwargs:
        raise ValueError("config must set n_values and multipliers")
    return SweepConfig(**kwargs)
