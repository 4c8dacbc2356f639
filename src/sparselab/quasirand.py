"""Sobol low-discrepancy sequences and search-space mapping.

Direction numbers come from the standard primitive-polynomial tables,
embedded below for the first 8 dimensions (metaparameter searches here
never need more than 3). A draw takes its points all at once, in
Gray-code order with 32-bit resolution; the all-zeros point at index 0 is
skipped because mapping it would pin a trial at the exact lower bound of
every range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError

_BITS = 32

# (degree s, coefficient bits a_1..a_{s-1} packed msb-first, initial m values)
# for Sobol dimensions 2..8; dimension 1 is the plain van der Corput sequence.
_POLYNOMIALS = (
    (1, 0, (1,)),
    (2, 1, (1, 3)),
    (3, 1, (1, 3, 1)),
    (3, 2, (1, 1, 1)),
    (4, 1, (1, 1, 3, 3)),
    (4, 4, (1, 3, 5, 13)),
    (5, 2, (1, 1, 5, 5, 17)),
)

MAX_DIMENSION = len(_POLYNOMIALS) + 1


def _direction_numbers(dim: int) -> list:
    """V_1..V_32 for one Sobol dimension (1-based), as 32-bit integers."""
    if dim == 1:
        m = [1] * _BITS
    else:
        s, a, m_init = _POLYNOMIALS[dim - 2]
        m = list(m_init)
        coeffs = [(a >> (s - 2 - i)) & 1 for i in range(s - 1)]
        for k in range(s, _BITS):
            new = m[k - s] ^ (m[k - s] << s)
            for i, c in enumerate(coeffs, start=1):
                if c:
                    new ^= m[k - i] << i
            m.append(new)
    return [m[k] << (_BITS - k - 1) for k in range(_BITS)]


def sobol_points(dimension: int, count: int) -> np.ndarray:
    """First `count` points of the sequence, shape (count, dimension).

    Row n is row n-1 (the skipped origin, for n = 0) with the direction
    numbers of the lowest zero bit of n xored in, so the whole draw is one
    running xor.
    """
    if dimension < 1:
        raise ConfigError("Sobol dimension must be >= 1")
    if dimension > MAX_DIMENSION:
        raise ConfigError(
            f"direction numbers provisioned up to dimension {MAX_DIMENSION}, "
            f"got {dimension}")
    if count >= 2 ** _BITS:           # before np.arange, which would take 32 GB
        raise ConfigError("Sobol sequence exhausted at 32-bit resolution")
    directions = np.array([_direction_numbers(d + 1) for d in range(dimension)],
                          dtype=np.uint64).T                  # (bit, dimension)
    n = np.arange(count, dtype=np.uint64)
    lowest_zero_bit = np.frexp(~n & (n + 1))[1] - 1     # frexp(2**b) = (0.5, b + 1)
    return np.bitwise_xor.accumulate(directions[lowest_zero_bit], axis=0) / 2.0 ** _BITS


# ---------------------------------------------------------------------------
# Search spaces
# ---------------------------------------------------------------------------

SCALES = ("linear", "log10", "one-minus-log10")


@dataclass(frozen=True)
class SearchSpace:
    name: str
    scale: str
    low: float
    high: float

    def __post_init__(self):
        if self.scale not in SCALES:
            raise ConfigError(f"unknown scale {self.scale!r}")
        if not self.low < self.high:
            raise ConfigError(f"{self.name}: need low < high")
        if self.scale == "log10" and self.low <= 0:
            raise ConfigError(f"{self.name}: log10 scale needs positive bounds")
        if self.scale == "one-minus-log10" and self.high >= 1:
            raise ConfigError(f"{self.name}: one-minus-log10 scale needs high < 1")


def _map_one(u: float, space: SearchSpace) -> float:
    if space.scale == "linear":
        return space.low + u * (space.high - space.low)
    if space.scale == "log10":
        lo, hi = math.log10(space.low), math.log10(space.high)
        return 10.0 ** (lo + u * (hi - lo))
    # one-minus-log10: log-uniform in (1 - x), concentrating samples near 1;
    # used for momentum-like parameters.
    lo, hi = math.log10(1.0 - space.low), math.log10(1.0 - space.high)
    return 1.0 - 10.0 ** (lo + u * (hi - lo))


def map_to_space(point: np.ndarray, spaces: list) -> dict:
    """Map one unit-hypercube point to named metaparameter values."""
    if len(point) != len(spaces):
        raise ConfigError(
            f"point dimension {len(point)} != number of spaces {len(spaces)}")
    return {space.name: _map_one(float(u), space)
            for u, space in zip(point, spaces)}


def draw_assignments(spaces: list, budget: int) -> list:
    """The full budget of metaparameter assignments, drawn up front."""
    points = sobol_points(len(spaces), budget)
    return [map_to_space(p, spaces) for p in points]
