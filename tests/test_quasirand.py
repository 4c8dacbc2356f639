"""Sobol sequence against an independent direct-construction oracle, and
search-space mapping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselab.exceptions import ConfigError
from sparselab.quasirand import (MAX_DIMENSION, SearchSpace, map_to_space,
                                 sobol_points)

# Independent oracle: direct (non-incremental) construction x_n = XOR of
# direction numbers over the set bits of gray(n), with the direction-number
# table transcribed here from the standard primitive-polynomial values.
ORACLE_POLYS = {
    2: (1, 0, [1]),
    3: (2, 1, [1, 3]),
    4: (3, 1, [1, 3, 1]),
    5: (3, 2, [1, 1, 1]),
    6: (4, 1, [1, 1, 3, 3]),
    7: (4, 4, [1, 3, 5, 13]),
    8: (5, 2, [1, 1, 5, 5, 17]),
}


def oracle_directions(dim, bits=32):
    if dim == 1:
        m = [1] * bits
    else:
        s, a, m = ORACLE_POLYS[dim]
        m = list(m)
        coeffs = [(a >> (s - 2 - i)) & 1 for i in range(s - 1)]
        while len(m) < bits:
            k = len(m)
            new = m[k - s] ^ (m[k - s] << s)
            for i, c in enumerate(coeffs, start=1):
                if c:
                    new ^= m[k - i] << i
            m.append(new)
    return [m[k] << (bits - k - 1) for k in range(bits)]


def oracle_point(n, dims, bits=32):
    gray = n ^ (n >> 1)
    out = []
    for d in range(1, dims + 1):
        v = oracle_directions(d, bits)
        acc = 0
        for bit in range(bits):
            if gray >> bit & 1:
                acc ^= v[bit]
        out.append(acc / 2.0 ** bits)
    return out


def test_dim1_first_three_points():
    assert sobol_points(1, 3)[:, 0].tolist() == [0.5, 0.75, 0.25]


@pytest.mark.parametrize("dims", range(1, MAX_DIMENSION + 1))
def test_first_64_points_match_direct_construction_oracle(dims):
    # 1,024 points, more than the name says, at every provisioned dimension
    points = sobol_points(dims, 1024)
    for n in range(1, 1025):
        assert np.array_equal(points[n - 1], oracle_point(n, dims))


@pytest.mark.parametrize("dims", [1, 2, 3, 4])
def test_first_1024_points_inside_unit_cube(dims):
    points = sobol_points(dims, 1024)
    assert np.all(points >= 0.0) and np.all(points < 1.0)


def test_dim2_first_four_points_fill_the_2x2_grid():
    points = sobol_points(2, 4)
    cells = {(int(x * 2), int(y * 2)) for x, y in points}
    assert cells == {(0, 0), (0, 1), (1, 0), (1, 1)}


@pytest.mark.parametrize("dims", [1, 2, 3, 4])
def test_dyadic_stratification_on_aligned_blocks(dims):
    # Each coordinate of the underlying-index block [2^m, 2^{m+1}) lands in
    # every dyadic cell of width 2^-m exactly once (the (0,1)-sequence
    # property of each Sobol coordinate; index 0 is the skipped origin).
    points = sobol_points(dims, 2 ** 7)
    for m in range(1, 7):
        block = points[2 ** m - 1: 2 ** (m + 1) - 1]
        for d in range(dims):
            cells = np.floor(block[:, d] * 2 ** m).astype(int)
            assert sorted(cells) == list(range(2 ** m)), (m, d)


def test_sequence_is_deterministic():
    a = sobol_points(3, 100)
    b = sobol_points(3, 100)
    assert np.array_equal(a, b)


def test_dimension_limits():
    assert sobol_points(MAX_DIMENSION, 1).shape == (1, MAX_DIMENSION)
    with pytest.raises(ConfigError):
        sobol_points(MAX_DIMENSION + 1, 1)
    with pytest.raises(ConfigError):
        sobol_points(0, 1)


def test_count_is_checked_against_32_bits_before_any_allocation(monkeypatch):
    # Index n needs a zero bit within 32 bits, so 2**32 - 1 points is the
    # most a draw can give; np.arange(2**32) alone would take 32 GB.
    class Allocated(Exception):
        pass

    def arange(*args, **kwargs):
        raise Allocated

    monkeypatch.setattr(np, "arange", arange)
    with pytest.raises(Allocated):
        sobol_points(1, 2 ** 32 - 1)
    with pytest.raises(ConfigError, match="exhausted"):
        sobol_points(1, 2 ** 32)


def test_map_endpoints_hit_lower_bound_exactly():
    spaces = [SearchSpace("a", "linear", 2.0, 5.0),
              SearchSpace("b", "log10", 1e-4, 1.0),
              SearchSpace("c", "one-minus-log10", 0.5, 0.999)]
    values = map_to_space(np.zeros(3), spaces)
    assert values["a"] == 2.0
    assert values["b"] == pytest.approx(1e-4, rel=1e-12)
    assert values["c"] == pytest.approx(0.5, rel=1e-12)


def test_log10_midpoint():
    space = [SearchSpace("eta", "log10", 1e-4, 1.0)]
    assert map_to_space(np.array([0.5]), space)["eta"] == pytest.approx(1e-2, rel=1e-12)


def test_one_minus_log10_midpoint_of_momentum_range():
    # 1 - 10^((log10 0.5 + log10 0.001)/2) = 1 - sqrt(0.0005)
    space = [SearchSpace("m", "one-minus-log10", 0.5, 0.999)]
    got = map_to_space(np.array([0.5]), space)["m"]
    assert got == pytest.approx(1.0 - math.sqrt(0.5 * 0.001), rel=1e-12)
    assert got == pytest.approx(0.97764, abs=5e-6)


@pytest.mark.parametrize("scale,low,high", [
    ("linear", -3.0, 7.0),
    ("log10", 1e-5, 1e2),
    ("one-minus-log10", 0.5, 0.9999),
])
def test_map_is_monotone_in_each_scale(scale, low, high):
    space = [SearchSpace("x", scale, low, high)]
    us = np.linspace(0.0, 1.0, 33)
    values = [map_to_space(np.array([u]), space)["x"] for u in us]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(low, rel=1e-9)
    assert values[-1] == pytest.approx(high, rel=1e-9)


@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(max_examples=60, deadline=None)
def test_mapped_values_stay_inside_bounds(u):
    spaces = [SearchSpace("a", "linear", 1.0, 2.0),
              SearchSpace("b", "log10", 1e-3, 1e1),
              SearchSpace("c", "one-minus-log10", 0.8, 0.99)]
    values = map_to_space(np.array([u, u, u]), spaces)
    assert 1.0 <= values["a"] <= 2.0
    assert 1e-3 <= values["b"] <= 1e1 * (1 + 1e-12)
    assert 0.8 <= values["c"] <= 0.99 * (1 + 1e-12)


def test_invalid_spaces_rejected():
    with pytest.raises(ConfigError):
        SearchSpace("x", "log10", -1.0, 1.0)
    with pytest.raises(ConfigError):
        SearchSpace("x", "linear", 2.0, 1.0)
    with pytest.raises(ConfigError):
        SearchSpace("x", "one-minus-log10", 0.5, 1.0)
    with pytest.raises(ConfigError):
        SearchSpace("x", "sqrt", 0.0, 1.0)
    with pytest.raises(ConfigError):
        map_to_space(np.zeros(2), [SearchSpace("x", "linear", 0.0, 1.0)])
