"""Geometry primitives: balls, rects, parabolic cylinders, coverings."""
import itertools
import math

import numpy as np
import pytest

from spdelab.errors import InvalidArgumentError, DimensionMismatchError
from spdelab.geometry import (Ball, ParabolicCylinder, SpaceTimeRect, as_point,
                              contains, cover_cylinder, covering_bound,
                              make_cylinder, max_norm, volume)


def test_as_point_normalizes():
    assert as_point(1.5) == (1.5,)
    assert as_point([1, 2]) == (1.0, 2.0)
    assert as_point((0.5,), dim=1) == (0.5,)
    with pytest.raises(DimensionMismatchError):
        as_point((1.0, 2.0), dim=1)


def test_max_norm():
    assert max_norm((3.0, -4.0)) == 4.0
    assert max_norm((0.0,)) == 0.0


def test_ball_is_open_max_norm():
    b = Ball((0.0, 0.0), 1.0)
    assert b.contains((0.9, -0.9))
    assert not b.contains((1.0, 0.0))      # boundary excluded
    assert not b.contains((0.5, 1.1))
    assert b.dim == 2


def test_ball_mask_matches_contains(grid32):
    b = Ball((0.25,), 0.5)
    xs = grid32.coords_flat()
    mask = b.mask(xs)
    for i in range(grid32.size):
        assert mask[i] == b.contains((xs[0][i],))


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
    q = ParabolicCylinder(1.0, (0.0,), 0.5).to_rect()
    assert q.t_lo == 1.0 - 0.25
    assert q.t_hi == 1.0
    assert q.ball.radius == 0.5
    assert make_cylinder(1.0, 0.0, 0.5) == q


def test_volume_closed_form():
    # [TRIVIAL] (2r)^n times interval length
    assert volume(SpaceTimeRect(0.0, 2.0, Ball((0.0,), 0.5))) == 2.0 * 1.0
    assert volume(SpaceTimeRect(0.0, 0.5, Ball((0.0, 0.0), 1.0))) == 0.5 * 4.0


def test_covering_bound_frozen_values():
    # ceil(L_n (1-theta)^-(n+2)) with L_1 = 4.25*4.5, L_2 = 4.25*4.5^2,
    # evaluated in floats exactly as documented
    assert covering_bound(0.75, 1) == math.ceil(4.25 * 4.5 * (1.0 - 0.75) ** -3)
    assert covering_bound(0.75, 2) == math.ceil(4.25 * 4.5**2 * (1.0 - 0.75) ** -4)
    assert covering_bound(0.9, 1) == math.ceil(4.25 * 4.5 * (1.0 - 0.9) ** -3)
    assert covering_bound(0.75, 1) == 1224
    with pytest.raises(InvalidArgumentError):
        covering_bound(0.75, 3)


def test_cover_trivial_below_half():
    assert cover_cylinder(0.4, 1.0, 1) == []
    assert cover_cylinder(0.5, 2.0, 2) == []


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
