"""Grids, paths, mixed norms, and the norm interpolation inequality."""
import math

import numpy as np
import pytest

from oracles import inf_on, neg_part_energy
from spdelab.errors import (DomainError, EmptyRegionError, InvalidArgumentError)
from spdelab.fields import (FieldPath, FieldSnapshot, Grid, MixedNormSpec,
                            interpolation_check, lpq_norm, moment_product,
                            smoothstep, sup_on)
from spdelab.geometry import Ball, SpaceTimeRect


def brute_lpq(path, p, q, rect):
    """O(M*S) double-sum oracle for the (p, q) mixed norm."""
    mask = path.grid.node_mask(rect.ball)
    steps = path.step_indices(rect.t_lo, rect.t_hi)
    dv = path.grid.cell_volume()
    inner = []
    for j in steps:
        v = np.abs(path.values[j][mask])
        inner.append((dv * np.sum(v**q)) ** (1.0 / q))
    inner = np.asarray(inner)
    return float((path.dt * np.sum(inner**p)) ** (1.0 / p))


@pytest.fixture(scope="module")
def random_path(grid32):
    rng = np.random.default_rng(8)
    times = np.linspace(0.0, 1.0, 17)
    vals = rng.gamma(2.0, 1.0, size=(17, grid32.size))
    return FieldPath(grid32, times, vals)


def test_grid_regular():
    g = Grid.regular(1, 64)
    assert g.dx == 4.0 / 64
    assert g.size == 64
    assert g.coords1d()[0] == -2.0
    assert g.coords1d()[-1] == pytest.approx(2.0 - g.dx)
    g2 = Grid.regular(2, 16)
    assert g2.shape == (16, 16)
    assert g2.size == 256
    assert g2.cell_volume() == pytest.approx(g2.dx**2)
    with pytest.raises(InvalidArgumentError, match="npts"):
        Grid.regular(1, 0)


@pytest.mark.parametrize("n, center", [(1, 0.0), (1, (0.3,)), (2, 0.0),
                                       (2, (0.25, -0.5))])
def test_max_dist_matches_coordinate_loop(n, center):
    g = Grid.regular(n, 16, 1.5)
    xs = g.coords_flat()
    c = np.broadcast_to(np.asarray(center, dtype=float), (n,))
    want = np.max(np.stack([np.abs(x - cd) for x, cd in zip(xs, c)]), axis=0)
    assert np.array_equal(g.max_dist(center), want)


@pytest.mark.parametrize("n", [1, 2])
def test_coords_flat_is_built_once_and_read_only(n):
    g = Grid.regular(n, 8)
    xs = g.coords_flat()
    assert g.coords_flat() is xs
    mesh = np.meshgrid(*(g.coords1d(),) * n, indexing="ij")
    for x, want in zip(xs, mesh):
        assert np.array_equal(x, want.ravel())
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 1.0
    # the kept arrays are no field: grids of equal fields stay equal
    assert g == Grid.regular(n, 8) and hash(g) == hash(Grid.regular(n, 8))


def test_path_shape_validation(grid32):
    times = np.linspace(0.0, 1.0, 5)
    with pytest.raises(InvalidArgumentError):
        FieldPath(grid32, times, np.zeros((4, grid32.size)))
    with pytest.raises(InvalidArgumentError):
        # nonuniform time spacing
        FieldPath(grid32, [0.0, 0.1, 0.3], np.zeros((3, grid32.size)))
    with pytest.raises(InvalidArgumentError):
        FieldPath(grid32, [0.0], np.zeros((1, grid32.size)))


def test_snapshot_rejects_non_finite(grid32):
    with pytest.raises(InvalidArgumentError):
        FieldSnapshot(grid32, 0.0, np.full(grid32.shape, np.nan))


def test_step_indices_half_open(grid32):
    # times 0, 0.25, 0.5, 0.75, 1.0; steps are indexed by their left endpoint
    times = np.linspace(0.0, 1.0, 5)
    p = FieldPath(grid32, times, np.ones((5, grid32.size)))
    # (0, 0.5] holds the steps whose left endpoints are 0.25 and 0.5
    assert list(p.step_indices(0.0, 0.5)) == [1, 2]
    # the left endpoint is excluded, the right included
    assert list(p.step_indices(0.25, 0.25 + 1e-15)) == []
    assert list(p.step_indices(-1.0, 0.0)) == [0]
    assert list(p.step_indices(0.9, 2.0)) == []


def test_lpq_norm_matches_double_sum(random_path):
    rect = SpaceTimeRect(0.2, 0.9, Ball((0.0,), 1.0))
    for p, q in ((2.0, 2.0), (4.0, 2.0), (1.0, 3.0), (6.0, 1.0)):
        got = lpq_norm(random_path, MixedNormSpec(p, q), rect)
        want = brute_lpq(random_path, p, q, rect)
        assert got == pytest.approx(want, rel=1e-12), (p, q)


def test_lpq_norm_constant_field(grid32):
    # [DERIVED] for u = c: ||u||_{p,q} = c * T^(1/p) * V^(1/q) with the
    # discrete time and ball measures
    c = 3.0
    times = np.linspace(0.0, 1.0, 9)
    path = FieldPath(grid32, times, np.full((9, grid32.size), c))
    rect = SpaceTimeRect(0.0, 1.0, Ball((0.0,), 1.0))
    steps = path.step_indices(0.0, 1.0)
    vol = grid32.cell_volume() * int(np.count_nonzero(grid32.node_mask(rect.ball)))
    t_meas = path.dt * steps.size
    got = lpq_norm(path, MixedNormSpec(4.0, 2.0), rect)
    assert got == pytest.approx(c * t_meas ** 0.25 * vol**0.5, rel=1e-12)


def test_lpq_norm_empty_region_raises(random_path):
    # ball between two grid nodes: no node falls inside
    with pytest.raises(EmptyRegionError):
        lpq_norm(random_path, MixedNormSpec(2, 2),
                 SpaceTimeRect(0.2, 0.9, Ball((0.01,), 1e-6)))
    # nonempty ball but no time step in the window
    with pytest.raises(EmptyRegionError):
        lpq_norm(random_path, MixedNormSpec(2, 2),
                 SpaceTimeRect(2.0, 3.0, Ball((0.0,), 1.0)))


def test_sup_inf_on(random_path):
    rect = SpaceTimeRect(0.2, 0.9, Ball((0.3,), 0.7))
    mask = random_path.grid.node_mask(rect.ball)
    steps = random_path.step_indices(rect.t_lo, rect.t_hi)
    block = random_path.values[np.ix_(steps, np.nonzero(mask)[0])]
    assert sup_on(random_path, rect) == block.max()
    assert inf_on(random_path, rect) == block.min()


def test_moment_product_constant_field(grid32):
    # [DERIVED] u = c on both regions: product = w1 (c+mu)^-a * w2 (c+mu)^a
    # = w1 * w2 with w the discrete region measures, independent of c
    c, mu, alpha = 2.0, 0.5, 1.7
    times = np.linspace(0.0, 1.0, 9)
    path = FieldPath(grid32, times, np.full((9, grid32.size), c))
    d1 = SpaceTimeRect(0.0, 0.5, Ball((0.0,), 1.0))
    d2 = SpaceTimeRect(0.5, 1.0, Ball((0.0,), 1.0))
    w = path.dt * grid32.cell_volume()
    npts = int(np.count_nonzero(grid32.node_mask(d1.ball)))
    m1 = w * path.step_indices(0.0, 0.5).size * npts
    m2 = w * path.step_indices(0.5, 1.0).size * npts
    got = moment_product(path, alpha, mu, d1, d2)
    assert got == pytest.approx(m1 * m2, rel=1e-12)


def test_moment_product_rejects_nonpositive(grid32):
    times = np.linspace(0.0, 1.0, 5)
    vals = np.full((5, grid32.size), -1.0)
    path = FieldPath(grid32, times, vals)
    rect = SpaceTimeRect(0.0, 1.0, Ball((0.0,), 1.0))
    with pytest.raises(DomainError):
        moment_product(path, 1.0, 0.5, rect, rect)


def test_neg_part_energy(grid32):
    vals = np.zeros(grid32.size)
    vals[3] = -2.0
    vals[7] = 1.0     # positive part must not contribute
    snap = FieldSnapshot(grid32, 0.0, vals)
    assert neg_part_energy(snap) == pytest.approx(grid32.cell_volume() * 4.0)


def test_smoothstep_shape():
    rho = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    v = smoothstep(1.0, 2.0, rho)
    assert np.all(v >= 0.0) and np.all(v <= 1.0)
    assert v[0] == 1.0 and v[1] == 1.0 and v[2] == 1.0
    assert v[4] == 0.0
    assert 0.0 < v[3] < 1.0
    # nonincreasing in rho
    assert np.all(np.diff(v) <= 0.0)


def test_interpolation_reports_consistent(random_path):
    rect = SpaceTimeRect(0.2, 0.9, Ball((0.0,), 1.0))
    rep = interpolation_check(random_path, 4.0, 3.0, 2.0, rect, eps=0.7)
    assert rep.slack == pytest.approx(rep.rhs - rep.lhs)
    assert rep.rhs == pytest.approx(rep.sup_term + rep.low_norm_term)
    assert rep.gamma == pytest.approx(4.0 / 3.0 - 1.0)
    assert rep.young_constant == pytest.approx(0.75)
    assert rep.slack >= -1e-9


def test_interpolation_space_mode(random_path):
    rect = SpaceTimeRect(0.2, 0.9, Ball((0.0,), 1.0))
    rep = interpolation_check(random_path, 3.0, 2.0, 4.0, rect, eps=0.3,
                              mode="space")
    assert rep.slack >= -1e-9


def test_interpolation_rejects_bad_exponents(random_path):
    rect = SpaceTimeRect(0.2, 0.9, Ball((0.0,), 1.0))
    with pytest.raises(InvalidArgumentError):
        interpolation_check(random_path, 2.0, 2.5, 2.0, rect, eps=1.0)
    with pytest.raises(InvalidArgumentError):
        # beta <= alpha/2 breaks the Young split
        interpolation_check(random_path, 4.0, 1.5, 2.0, rect, eps=1.0)
    with pytest.raises(InvalidArgumentError):
        interpolation_check(random_path, 4.0, 3.0, 2.0, rect, eps=0.0)
