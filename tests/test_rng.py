"""Uniform streams on the open interval and the AS241 normal quantile."""

import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from franson.rng import (
    BELOW_ONE,
    DRAWS_PER_ITEM,
    MAX_ABS_NORMAL,
    _open_unit_interval,
    item_uniforms,
    normal_quantile,
)

SRC = Path(__file__).resolve().parent.parent / "src"
ULP_BOUND = 4


def stdlib_quantile(p) -> np.ndarray:
    """The stdlib's AS241, one scalar at a time: the reference."""
    inv_cdf = NormalDist().inv_cdf
    return np.array([inv_cdf(float(x)) for x in np.ravel(p)])


def assert_within_ulps(z, ref):
    ulps = np.abs(z - ref) / np.spacing(np.abs(ref))
    assert np.all(ulps <= ULP_BOUND), f"{ulps.max()} ulp at p index {np.argmax(ulps)}"


@pytest.mark.parametrize(
    "grid, expected",
    [
        (0.0, 2.0**-54),
        (2.0**-53, 3 * 2.0**-54),
        (0.5 - 2.0**-53, 0.5 - 2.0**-54),  # below 1/2 the shift is exact
        (0.5, 0.5),  # above it the shift ties and rounds to even
        (0.5 + 2.0**-53, 0.5 + 2 * 2.0**-53),
        (1.0 - 2 * 2.0**-53, 1.0 - 2 * 2.0**-53),
        (1.0 - 2.0**-53, BELOW_ONE),  # would round up to 1.0 unclamped
    ],
)
def test_open_unit_interval_on_extreme_grid_values(grid, expected):
    u = _open_unit_interval(np.array([grid]))
    assert u[0] == expected
    assert 0.0 < u[0] < 1.0


def test_item_rows_are_addressed_by_index():
    # row i of a range that starts at item k is row k + i of the whole
    whole = item_uniforms(5, (2, 1), 40)
    assert whole.shape == (40, DRAWS_PER_ITEM)
    for k in (1, 17, 39, 40):
        assert np.array_equal(item_uniforms(5, (2, 1), 40 - k, start=k), whole[k:])


def test_item_rows_are_addressed_by_index_far_into_the_stream():
    # advance jumps over 2**40 items without generating them
    far = item_uniforms(5, (2, 1), 40, start=2**40)
    for k in (1, 17, 39):
        assert np.array_equal(item_uniforms(5, (2, 1), 40 - k, start=2**40 + k), far[k:])
    assert not np.array_equal(far, item_uniforms(5, (2, 1), 40))


def test_quantile_matches_the_stdlib_on_random_draws():
    p = item_uniforms(11, (3,), 40_000).ravel()
    assert_within_ulps(normal_quantile(p), stdlib_quantile(p))


def test_quantile_matches_the_stdlib_on_a_log_spaced_tail_grid():
    low = np.concatenate([np.logspace(-16.5, math.log10(0.075), 400), 2.0 ** -np.arange(4, 55)])
    high = 1.0 - low[low >= 2.0**-53]
    for p in (low, high):
        assert_within_ulps(normal_quantile(p), stdlib_quantile(p))


def central(p):
    return np.abs(p - 0.5) <= 0.425


def near_tail(p):
    return np.sqrt(-np.log(np.minimum(p, 1.0 - p))) <= 5.0


@pytest.mark.parametrize(
    "boundary, inside",
    [
        (0.075, central),  # |q| = 0.425
        (0.925, central),
        (math.exp(-25.0), near_tail),  # r = 5
        (1.0 - math.exp(-25.0), near_tail),
    ],
)
def test_quantile_matches_the_stdlib_across_branch_boundaries(boundary, inside):
    p = boundary + np.spacing(boundary) * np.arange(-256, 257)
    assert inside(p).any() and not inside(p).all()  # the grid straddles the boundary
    assert_within_ulps(normal_quantile(p), stdlib_quantile(p))


def test_quantile_of_each_draw_alone_equals_the_batched_quantile():
    # a batch runs only the rationals its draws select: a draw's quantile must
    # not depend on which other branches its batch holds
    p = np.array([0.5, 0.3, 0.05, 0.97, 1e-9, 1e-12, 2.0**-54, BELOW_ONE, math.exp(-25.0)])
    alone = np.concatenate([normal_quantile(p[i : i + 1]) for i in range(p.size)])
    assert np.array_equal(normal_quantile(p), alone)
    assert normal_quantile(np.empty(0)).size == 0


def test_quantile_is_odd_about_one_half():
    # On the 2**-53 grid 1 - p is exact, so the symmetry is exact too.
    near_r5 = round(math.exp(-25.0) * 2**53) * 2.0**-53
    p = np.concatenate(
        [np.random.default_rng(4).random(20_000), 2.0 ** -np.arange(1, 54), [near_r5]]
    )
    assert np.array_equal(normal_quantile(1.0 - p), -normal_quantile(p))


def test_quantile_is_finite_and_bounded_at_the_extreme_draws():
    z = normal_quantile(np.array([2.0**-54, BELOW_ONE]))
    assert np.all(np.isfinite(z))
    assert z[0] < 0 < z[1]
    assert np.all(np.abs(z) <= MAX_ABS_NORMAL)
    assert_within_ulps(z, stdlib_quantile([2.0**-54, BELOW_ONE]))


def test_quantile_of_a_strided_column_equals_that_of_its_copy():
    u = item_uniforms(2, (9,), 5_000)
    assert np.array_equal(normal_quantile(u[:, 3]), normal_quantile(u[:, 3].copy()))


def test_importing_franson_loads_no_scipy():
    code = (
        "import sys, franson, franson.cli; "
        "sys.exit(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')[:3] or 0)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
