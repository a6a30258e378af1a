"""Closed-form threshold and probability calculators.

Conventions: ``log`` means base-2 logarithm and ``ln`` the natural one.
The sharp-threshold scale for achieving rainbow-k-connectivity within a
path-length budget d on G(n, p) is (log n)^(1/d) / n^((d-1)/d); the
companion constants grow like 2**20 and 2**(10 d), so the closed forms
here are astronomically conservative at desk-scale n. The sweep harness
treats the multiplier as a free parameter instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .seeds import check_int


def sharp_threshold(n: int, d: int) -> float:
    """(log2 n)^(1/d) / n^((d-1)/d), the sharp threshold scale for depth d."""
    n, d = check_int("n", n, 2), check_int("depth d", d, 2)
    return math.log2(n) ** (1.0 / d) / n ** ((d - 1.0) / d)


def lower_probe(n: int, d: int) -> float:
    """(ln n)^(1/d) / n^((d-1)/d): at this edge probability the depth-d
    property still fails almost surely (natural log variant)."""
    n, d = check_int("n", n, 2), check_int("depth d", d, 2)
    return math.log(n) ** (1.0 / d) / n ** ((d - 1.0) / d)


def _path_factor(d: int, c0: float) -> float:
    """2**(10 d) * c0, refused when it is not a finite float."""
    try:
        value = 2.0 ** (10 * d) * c0
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"2^(10 d) * c0 overflows a float at d={d}, c0={c0:g}")
    return value


@dataclass(frozen=True)
class ThresholdParams:
    """Parameter bundle for the upper-threshold regime.

    Requires d >= 2, c0 >= 1 and a positive path multiplicity k. The
    derived constants are exact by construction: ``upper_constant`` is
    2**20 * c0 and ``path_constant`` is 2**(10 d) * c0. ``k_within_regime``
    flags whether k <= c0 * log2 n; callers must not silently proceed when
    it is False.
    """

    n: int
    d: int
    k: int = 1
    c0: float = 1.0

    def __post_init__(self) -> None:
        for name, minimum in (("n", 2), ("d", 2), ("k", 1)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), minimum))
        if not self.c0 >= 1:
            raise ValueError(f"c0 must be at least 1, got {self.c0}")

    @property
    def upper_constant(self) -> float:
        return 2.0**20 * self.c0

    @property
    def path_constant(self) -> float:
        return _path_factor(self.d, self.c0)

    @property
    def k_within_regime(self) -> bool:
        return self.k <= self.c0 * math.log2(self.n)


class UpperProbe(NamedTuple):
    value: float
    exceeds_one: bool  # True: the regime is vacuous at this n


def upper_probe(params: ThresholdParams) -> UpperProbe:
    """2**20 * c0 * sharp_threshold(n, d), flagged when it exceeds 1.

    The value is reported unclamped so callers can detect that the
    constant is vacuous at this n and substitute a practical multiplier.
    """
    value = params.upper_constant * sharp_threshold(params.n, params.d)
    return UpperProbe(value, value > 1.0)


def rainbow_prob(d: int) -> float:
    """d!/d**d: probability that a fixed length-d path is rainbow under a
    uniform random d-coloring. Always at least 4**-d."""
    d = check_int("d", d, 1)
    return math.factorial(d) / d**d


def _plog2p(t: float) -> float:
    """t * log2(t) for t in (0, 1]; log1p keeps accuracy near t = 1."""
    ln2 = math.log(2.0)
    if t > 0.5:
        return t * math.log1p(t - 1.0) / ln2
    return t * math.log(t) / ln2


def binary_entropy(eps: float) -> float:
    """eps*log2(1/eps) + (1-eps)*log2(1/(1-eps)) for eps in (0, 1)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"binary entropy needs eps in (0, 1), got {eps}")
    return -_plog2p(eps) - _plog2p(1.0 - eps)


def failure_exponent(d: int, c0: float) -> float:
    """The exponent b such that one vertex pair ends up with fewer than k
    rainbow paths with probability n**(-b), under the regime constants:

        b = 4**-d * (c1 - c0) - c1 * H(c0 / c1),  c1 = 2**(10 d) * c0.

    Exceeds 100 for every d >= 2, c0 >= 1.
    """
    d = check_int("depth d", d, 2)
    if not c0 >= 1:
        raise ValueError(f"c0 must be at least 1, got {c0}")
    c1 = _path_factor(d, c0)
    return (c1 - c0) / 4.0**d - c1 * binary_entropy(c0 / c1)


def guaranteed_disjoint_paths(n: int, d: int, c0: float) -> float:
    """2**(10 d) * c0 * log2 n: how many internally vertex-disjoint
    length-d paths every vertex pair gets in the upper regime."""
    n, d = check_int("n", n, 2), check_int("depth d", d, 2)
    if not c0 >= 1:
        raise ValueError(f"c0 must be at least 1, got {c0}")
    return _path_factor(d, c0) * math.log2(n)


def choose_depth_from_epsilon(eps: float) -> int:
    """The unique d >= 2 with (d-2)/(d-1) <= eps < (d-1)/d, for eps in [0, 1).

    This is the path-length budget matching edge probability n**-eps;
    boundaries fall to the larger d per the half-open interval. The float
    input is treated as the exact rational it represents, so the interval
    containment holds exactly even right next to a boundary.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    return int(1 / (1 - Fraction(eps))) + 1
