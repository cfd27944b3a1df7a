"""Geometry primitives: balls, rects, parabolic cylinders, coverings."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from oracles import ball_contains, contains
from spdelab.errors import InvalidArgumentError, ResourceLimitError
from spdelab.geometry import (Ball, SpaceTimeRect, as_point, cover_cylinder,
                              covering_bound, make_cylinder)


def test_as_point_normalizes():
    assert as_point(1.5) == (1.5,)
    assert as_point([1, 2]) == (1.0, 2.0)


def test_ball_is_open_max_norm():
    b = Ball((0.0, 0.0), 1.0)
    assert ball_contains(b, (0.9, -0.9))
    assert not ball_contains(b, (1.0, 0.0))      # boundary excluded
    assert not ball_contains(b, (0.5, 1.1))
    assert b.dim == 2


def test_ball_mask_matches_contains(grid32):
    b = Ball((0.25,), 0.5)
    xs = grid32.coords_flat()
    mask = b.mask(xs)
    for i in range(grid32.size):
        assert mask[i] == ball_contains(b, (xs[0][i],))


def test_ball_rejects_bad_radius():
    with pytest.raises(InvalidArgumentError):
        Ball((0.0,), 0.0)
    with pytest.raises(InvalidArgumentError):
        Ball((0.0,), -1.0)
    with pytest.raises(InvalidArgumentError):
        Ball((0.0,), math.inf)


def test_rect_time_interval_is_half_open():
    r = SpaceTimeRect(0.25, 0.5, Ball((0.0,), 1.0))
    assert not contains(r, 0.25, 0.0)      # left end excluded
    assert contains(r, 0.5, 0.0)           # right end included
    assert contains(r, 0.3, 0.99)
    assert not contains(r, 0.3, 1.0)


def test_rect_rejects_empty_interval():
    with pytest.raises(InvalidArgumentError):
        SpaceTimeRect(0.5, 0.5, Ball((0.0,), 1.0))
    with pytest.raises(InvalidArgumentError):
        SpaceTimeRect(0.7, 0.5, Ball((0.0,), 1.0))


def test_rect_equality_is_canonical():
    # region identity, as Ensemble looks regions up, is dataclass equality
    r1 = SpaceTimeRect(0.0, 1.0, Ball([0.0, 0.0], 0.5))
    r2 = SpaceTimeRect(0, 1, Ball((0, 0), 0.5))
    assert r1 == r2 and hash(r1) == hash(r2)


def test_parabolic_cylinder_rect():
    q = make_cylinder(1.0, 0.0, 0.5)
    assert q.t_lo == 1.0 - 0.25
    assert q.t_hi == 1.0
    assert q.ball == Ball((0.0,), 0.5)
    assert make_cylinder(1.0, (0.0,), 0.5) == q
    for r in (0.0, -0.5, math.nan):
        with pytest.raises(InvalidArgumentError, match="cylinder radius must be positive"):
            make_cylinder(1.0, (0.0,), r)


def test_covering_bound_frozen_values():
    # ceil(L_n (1-theta)^-(n+2)) with L_1 = 4.25*4.5, L_2 = 4.25*4.5^2,
    # evaluated in floats exactly as documented
    assert covering_bound(0.75, 1) == math.ceil(4.25 * 4.5 * (1.0 - 0.75) ** -3)
    assert covering_bound(0.75, 2) == math.ceil(4.25 * 4.5**2 * (1.0 - 0.75) ** -4)
    assert covering_bound(0.9, 1) == math.ceil(4.25 * 4.5 * (1.0 - 0.9) ** -3)
    assert covering_bound(0.75, 1) == 1224
    with pytest.raises(InvalidArgumentError):
        covering_bound(0.75, 3)


@pytest.mark.parametrize("theta", [0.0, 1.0, 1.5, -0.5, math.nan])
def test_covering_bound_rejects_theta_outside_unit_interval(theta):
    for n in (1, 2):
        with pytest.raises(InvalidArgumentError, match=r"theta must lie in \(0, 1\)"):
            covering_bound(theta, n)


def test_cover_trivial_below_half():
    for theta, R, n in ((0.4, 1.0, 1), (0.5, 2.0, 2)):
        cover = cover_cylinder(theta, R, n)
        assert len(cover) == 0
        assert cover.levels.shape == (0,) and cover.cell.shape == (0, n)
        assert list(cover) == []


def test_cover_anchors_inside_target():
    theta, R = 0.75, 1.0
    anchors = cover_cylinder(theta, R, 1)
    target = make_cylinder(1.0, (0.0,), theta * R)
    for t, x in anchors:
        assert contains(target, t, x), (t, x)


def test_cover_counts_scale_free():
    # anchor count depends on theta and n only; R scales out
    for theta in (0.6, 0.8):
        assert len(cover_cylinder(theta, 1.0, 1)) == len(cover_cylinder(theta, 0.25, 1))


def test_cover_membership_brute_force():
    """Every point of a fine grid over the target lies in some cover element.

    The full sweep over the stated (theta, R, n) combinations runs in the
    acceptance suite; this is the cheap everyday version.
    """
    theta, R, n = 0.7, 1.0, 1
    anchors = cover_cylinder(theta, R, n)
    rho = (1.0 - theta) * R / 2.0
    ta = np.array([a[0] for a in anchors])
    xa = np.array([a[1] for a in anchors])
    tg = 1.0 - (theta * R) ** 2 * np.linspace(0.0, 1.0, 29)
    xg = np.linspace(-theta * R, theta * R, 29)
    X = np.array(list(itertools.product(*([xg] * n))))
    for t in tg:
        active = (t <= ta + 1e-12) & (ta - rho * rho - 1e-12 <= t)
        assert np.any(active)
        sp = np.all(np.abs(X[:, None, :] - xa[None, active, :]) < rho + 1e-12,
                    axis=2)
        assert np.all(np.any(sp, axis=1))


def test_cover_rejects_bad_arguments():
    with pytest.raises(InvalidArgumentError):
        cover_cylinder(1.0, 1.0, 1)
    with pytest.raises(InvalidArgumentError):
        cover_cylinder(0.75, -1.0, 1)
    with pytest.raises(InvalidArgumentError):
        cover_cylinder(0.75, 1.0, 3)


def test_cover_rejects_out_of_range_radius():
    # (theta R)^2 overflows for R = 1e308 and rho^2 underflows to 0 for
    # R = 1e-170; neither may reach the lattice arithmetic
    for R in (math.inf, 1e308, 1e-170):
        with pytest.raises(InvalidArgumentError, match=r"^R "):
            cover_cylinder(0.75, R, 1)


def test_cover_budget_checked_before_allocating():
    # 6,179,060,845 anchors: 148 GB as arrays, so this must raise up front
    with pytest.raises(ResourceLimitError,
                       match=r"theta=0\.99, n=2 needs 6179060845 anchors"):
        cover_cylinder(0.99, 1.0, 2)


def reference_cover(theta, R, n):
    """One (time, point) tuple per anchor, built by the original loop."""
    if theta <= 0.5:
        return []
    rho = (1.0 - theta) * R / 2.0
    depth = (theta * R) ** 2
    k_t = int(math.ceil(depth / rho**2 * (1.0 + 1e-12)))
    k_x = int(math.ceil(2.0 * theta * R / rho * (1.0 + 1e-12)))
    t_step = depth / k_t
    half = theta * R
    w = 2.0 * half / k_x
    axis = -half + w * (np.arange(k_x) + 0.5)
    anchors = []
    for t in 1.0 - t_step * np.arange(k_t):
        for idx in np.ndindex(*(k_x,) * n):
            anchors.append((float(t), tuple(float(axis[i]) for i in idx)))
    return anchors


@pytest.mark.parametrize("theta", [0.6, 0.75, 0.9])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("R", [1.0, 0.5])
def test_cover_matches_reference_loop(theta, n, R):
    ref = reference_cover(theta, R, n)
    cover = cover_cylinder(theta, R, n)
    C = len(cover.cell)
    assert np.array_equal(cover.levels, np.array([a[0] for a in ref[::C]]))
    assert np.array_equal(cover.cell, np.array([a[1] for a in ref[:C]]))
    assert len(cover) == len(ref)
    listed = list(cover)
    assert listed == ref
    assert all(type(t) is float and type(x) is tuple
               and all(type(c) is float for c in x) for t, x in listed)
    assert not cover.levels.flags.writeable
    assert not cover.cell.flags.writeable


@pytest.mark.parametrize("n", [1, 2])
def test_cover_within_bound_and_target_over_theta_grid(n):
    # up to theta = 0.9, where n = 2 needs 444,925 anchors
    for theta in [k / 200 for k in range(101, 181)]:
        counts = set()
        for R in (1.0, 0.3):
            cover = cover_cylinder(theta, R, n)
            counts.add(len(cover))
            ts, xs = cover.levels, cover.cell
            assert len(cover) <= covering_bound(theta, n), theta
            assert np.all(np.abs(xs) < theta * R), (theta, R)
            assert np.all(ts <= 1.0) and np.all(ts > 1.0 - (theta * R) ** 2), (theta, R)
        assert len(counts) == 1, (theta, counts)


def test_cover_lattice_holds_levels_and_one_cell():
    # 325 levels x 1,369 points: the 444,925 anchors are never materialised
    tracemalloc.start()
    try:
        cover_cylinder(0.9, 1.0, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("theta, n, k_t, cell", [(0.75, 1, 37, 13), (0.9, 2, 325, 37**2)])
def test_cover_iteration_shares_floats_and_tuples(theta, n, k_t, cell):
    # one float per time level and one tuple per point of the spatial cell
    cover = cover_cylinder(theta, 1.0, n)
    assert cover.levels.shape == (k_t,) and cover.cell.shape == (cell, n)
    listed = list(cover)
    assert len(listed) == len(cover) == k_t * cell
    assert len({id(t) for t, _ in listed}) == k_t
    assert len({id(x) for _, x in listed}) == cell
