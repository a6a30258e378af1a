"""Deterministic 64-bit seed mixing.

Every randomized procedure in this package takes an explicit unsigned
64-bit seed. Derived streams (per-trial graph seeds, per-pair edge colors)
are produced by folding integers through splitmix64, so any intermediate
draw can be recomputed in isolation without replaying a shared generator.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def check_int(name: str, value: int, minimum: int) -> int:
    """Validate an integer argument and return it as a plain int.

    The package's one integer-input policy: an ``int`` or ``np.integer``,
    never a ``bool``, else TypeError; below ``minimum``, ValueError.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if int(value) < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def check_seed(seed: int) -> int:
    """Validate an unsigned 64-bit seed and return it as a plain int."""
    seed = check_int("seed", seed, 0)
    if seed > MASK64:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")
    return seed


def splitmix64(x: int) -> int:
    """One splitmix64 step: golden-ratio increment followed by the finalizer."""
    z = (x + _GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return (z ^ (z >> 31)) & MASK64


def mix64(*parts: int) -> int:
    """Fold integers into one 64-bit value.

    Order-sensitive and stable across runs and platforms; this is the seed
    derivation used throughout (documented in the README).
    """
    acc = 0
    for part in parts:
        acc = splitmix64(acc ^ (int(part) & MASK64))
    return acc


def splitmix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 step, bit-identical to the scalar version."""
    with np.errstate(over="ignore"):
        z = values.astype(np.uint64) + np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))
