"""Log-field oscillation, level-set decay, and the moment-product tail."""
import math

import numpy as np
import pytest

from oracles import cube_average
from spdelab.cubes import Cube, build_core, subcubes, unit_cube
from spdelab.errors import (DomainError, EmptyRegionError,
                            InsufficientDataError, InvalidArgumentError)
from spdelab.fields import FieldPath, Grid
from spdelab.geometry import Ball, SpaceTimeRect
from spdelab.jn import (_cube_weights, _increment_series, cube_stats,
                        fit_decay, hierarchy_stats, levelset_fractions,
                        log_field, log_transform, master_cutoff,
                        moment_tail_value, stability_spread, tail_quantiles)
from spdelab.solver import ModelParams, build_model


ROOT = Cube(l=0.5, s=0.125, z=math.sqrt(0.125), w=(0.0,))


def constant_slice_path(grid, levels):
    """Spatially constant path with one value per snapshot."""
    times = np.linspace(0.0, 1.0, len(levels))
    vals = np.tile(np.asarray(levels, dtype=float)[:, None], (1, grid.size))
    return FieldPath(grid, times, vals)


def test_log_field_exact_transform(grid32):
    path = constant_slice_path(grid32, [1.0, 2.0, 0.5, 1.0, 3.0])
    mu = 0.25
    lf = log_field(path, mu)
    assert np.allclose(log_transform(path.values, mu), -np.log(path.values + mu))
    assert lf.clamp_fraction == 0.0
    assert lf.mu == mu


def test_log_field_clamps_small_negativity(grid32):
    vals = np.full((3, grid32.size), 1.0)
    vals[1, 5] = -0.04       # above -mu/2 for mu = 0.1
    path = FieldPath(grid32, np.linspace(0, 1, 3), vals)
    lf = log_field(path, 0.1)
    assert lf.clamp_fraction == pytest.approx(1.0 / (3 * grid32.size))
    # clamped to 0 before the shift
    assert log_transform(path.values, lf.mu)[1, 5] == pytest.approx(-math.log(0.1))


def test_log_field_rejects_deep_negativity(grid32):
    vals = np.full((3, grid32.size), 1.0)
    vals[2, 7] = -0.06       # below -mu/2 for mu = 0.1
    path = FieldPath(grid32, np.linspace(0, 1, 3), vals)
    with pytest.raises(DomainError) as err:
        log_field(path, 0.1)
    assert err.value.witness[0] == 2 and err.value.witness[1] == 7
    with pytest.raises(InvalidArgumentError):
        log_field(path, 0.0)


def test_log_field_monotone_in_mu(grid32):
    path = constant_slice_path(grid32, [0.5, 1.0, 2.0])
    h_small = log_transform(path.values, 1e-6)
    h_large = log_transform(path.values, 1e-2)
    assert np.all(h_large <= h_small)


def test_cube_average_constant_field(grid64):
    path = constant_slice_path(grid64, [2.0] * 9)
    # center time l = 0.5 sits on the 9-point axis exactly
    lf = log_field(path, 0.5)
    got = cube_average(lf, ROOT)
    assert got == pytest.approx(-math.log(2.5), rel=1e-12)


def test_cube_average_weighted_formula(grid64):
    rng = np.random.default_rng(3)
    vals = rng.gamma(2.0, 1.0, size=(9, grid64.size))
    path = FieldPath(grid64, np.linspace(0, 1, 9), vals)
    lf = log_field(path, 0.1)
    xs = grid64.coords1d()
    w2 = master_cutoff(np.abs(xs - ROOT.w[0]) / (2.0 * ROOT.z)) ** 2
    j = path.time_index(ROOT.l)
    want = float(np.dot(log_transform(path.values[j], lf.mu), w2) / np.sum(w2))
    assert cube_average(lf, ROOT) == pytest.approx(want, rel=1e-12)


def test_noise_martingale_zero_without_channels(grid64):
    cm = build_model(ModelParams(g_kind="zero", m=0), 1)
    path = constant_slice_path(grid64, list(np.linspace(1, 2, 17)))
    lf = log_field(path, 0.1)
    w2 = _cube_weights(grid64, ROOT)
    jc = path.time_index(ROOT.l)
    for sign in (+1, -1):
        visited, incr = _increment_series(lf, cm, ROOT, w2, jc, sign)
        # the halves walk away from the cube's time center
        assert np.all(np.diff(visited) == sign) and visited[0] == jc + sign
        assert np.all(incr == 0.0)
    assert cube_stats(lf, cm, ROOT).qv_ratio == 0.0


def test_noise_martingale_series_shape(long_path, default_model):
    lf = log_field(long_path, 1e-4)
    w2 = _cube_weights(lf.grid, ROOT)
    jc = long_path.time_index(ROOT.l)
    visited, incr = _increment_series(lf, default_model, ROOT, w2, jc, +1)
    assert visited[-1] == long_path.time_index(ROOT.time_hi)
    qv = np.cumsum(incr * incr)
    assert np.all(np.diff(qv) >= 0.0)      # QV accumulates
    offsets = long_path.times[visited] - long_path.times[jc]
    ratio = cube_stats(lf, default_model, ROOT).qv_ratio
    assert ratio == pytest.approx(float(np.max(qv / offsets)))


def test_local_bmo_and_cube_stats(long_path, default_model):
    lf = log_field(long_path, 1e-4)
    st = cube_stats(lf, default_model, ROOT)
    assert st.cube == ROOT
    assert st.plus_avg > 0.0 and st.minus_avg >= 0.0 and st.qv_ratio > 0.0
    assert st.a_c == cube_average(lf, ROOT)


def test_hierarchy_stats_respects_limit(long_path, default_model):
    lf = log_field(long_path, 1e-4)
    hier = build_core(ROOT, 1)
    rows = list(hierarchy_stats(lf, default_model, hier, per_level_limit=5))
    by_level = {}
    for level, k, st in rows:
        by_level.setdefault(level, []).append(k)
    assert by_level[0] == [0]
    assert by_level[1] == [0, 1, 2, 3, 4]


def test_levelset_fractions_synthetic_oracle(grid64):
    # spatially constant field with hand-picked log values per snapshot,
    # so the excess fractions over each eighth are exact step functions.
    # ROOT spans (0, 1]; with 33 snapshots on [0, 1] (dt = 1/32) and steps
    # labeled by left endpoint, the top eighth (0.875, 1] holds steps
    # {29, 30, 31} and the bottom eighth (0, 0.125] holds {1, 2, 3, 4}.
    # The center snapshot (t = 0.5) is j = 16.
    mu = 1e-4
    h = np.full(33, 4.0)
    h[29] = 9.0
    h[1] = 1.0
    h[2] = 2.0
    levels = np.exp(-h) - mu
    path = constant_slice_path(grid64, levels)
    lf = log_field(path, mu)
    a_c, up, lo = levelset_fractions(lf, ROOT, alphas=[0.5, 1.5, 4.5, 6.5])
    assert a_c == pytest.approx(4.0)
    # upper side: excesses over {29, 30, 31} are 5, 0, 0
    assert np.allclose(up, [1 / 3, 1 / 3, 1 / 3, 0.0])
    # lower side: excesses over {1, 2, 3, 4} are 3, 2, 0, 0
    assert np.allclose(lo, [0.5, 0.5, 0.0, 0.0])
    with pytest.raises(InvalidArgumentError):
        levelset_fractions(lf, ROOT, alphas=[])
    with pytest.raises(InvalidArgumentError):
        levelset_fractions(lf, ROOT, alphas=[-1.0])


@pytest.mark.parametrize("cube, what", [
    # the ball (0.0125, 0.1125) falls between the nodes 0 and 0.125, which
    # the cutoff weight still reaches
    (Cube(l=0.5, s=0.0025, z=0.05, w=(0.0625,)), "grid node"),
    # the top eighth (0.5003, 0.5004] is shorter than one step
    (Cube(l=0.5, s=1e-4, z=0.01, w=(0.0,)), "time step"),
], ids=["no-node", "no-step"])
def test_levelset_fractions_rejects_an_empty_eighth(grid32, cube, what):
    lf = log_field(constant_slice_path(grid32, np.ones(129)), 1e-4)
    with pytest.raises(EmptyRegionError, match=f"owns no {what}"):
        levelset_fractions(lf, cube, alphas=[1.0])


def levelset_fractions_by_alpha(lf, cube, alphas):
    """Reference: one comparison pass over the excess per alpha."""
    parts = subcubes(cube)
    a_c = cube_average(lf, cube)
    nodes = np.nonzero(lf.grid.node_mask(cube.ball()))[0]
    out = []
    for rect, orient in ((parts.d_plus, +1.0), (parts.d_minus, -1.0)):
        steps = lf.path.step_indices(rect.t_lo, rect.t_hi)
        excess = orient * (log_transform(lf.path.values[np.ix_(steps, nodes)], lf.mu) - a_c)
        out.append(np.array([float(np.mean(excess > al)) for al in alphas]))
    return a_c, out[0], out[1]


def test_levelset_fractions_match_per_alpha_loop(long_path):
    # ties at an alpha, repeated values and NaN entries (which exceed no
    # alpha) on both eighths; the fractions must agree bit for bit
    parts = subcubes(ROOT)
    nodes = np.nonzero(long_path.grid.node_mask(ROOT.ball()))[0]
    up = long_path.step_indices(parts.d_plus.t_lo, parts.d_plus.t_hi)
    lo = long_path.step_indices(parts.d_minus.t_lo, parts.d_minus.t_hi)
    u = long_path.values.copy()
    u[up[0], nodes[:4]] = u[up[1], nodes[5]]
    u[up[2], nodes[3]] = np.nan
    u[lo[1], nodes[7]] = np.nan
    lf = log_field(FieldPath(long_path.grid, long_path.times, u), 1e-4)
    h = log_transform(u, lf.mu)
    a_c = cube_average(lf, ROOT)
    ties = [h[up[1], nodes[5]] - a_c, a_c - h[lo[0], nodes[2]]]
    assert min(ties) > 0.0
    alphas = np.sort(np.concatenate([np.geomspace(0.01, 3.0, 24), ties]))
    got = levelset_fractions(lf, ROOT, alphas)
    want = levelset_fractions_by_alpha(lf, ROOT, alphas)
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        np.testing.assert_array_equal(g, w)
    assert np.any(want[1] > 0.0) and np.any(want[2] > 0.0)


def test_fit_decay_recovers_exact_exponential():
    alphas = np.linspace(0.1, 2.0, 12)
    B, b = 0.8, 2.5
    fractions = B * np.exp(-b * alphas)
    fit = fit_decay(alphas, fractions)
    assert fit.decay_rate == pytest.approx(b, rel=1e-9)
    assert fit.amplitude == pytest.approx(B, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_decay_band_and_errors():
    alphas = np.linspace(0.1, 2.0, 12)
    fractions = 0.8 * np.exp(-2.5 * alphas)
    # corrupt the tail; a band that excludes it still recovers the rate
    fractions[-3:] = 1e-6
    fit = fit_decay(alphas, fractions, band=(0.05, 1.0))
    assert fit.decay_rate == pytest.approx(2.5, rel=1e-9)
    with pytest.raises(InsufficientDataError):
        fit_decay(alphas, np.zeros_like(alphas))
    with pytest.raises(InsufficientDataError):
        # band keeps fewer than 3 points
        fit_decay(alphas, fractions, band=(0.5, 0.9))
    with pytest.raises(InvalidArgumentError):
        fit_decay(alphas, fractions, band=(0.9, 0.5))


def test_tail_quantiles_matches_numpy(rng):
    values = rng.exponential(1.0, 333)
    q = tail_quantiles(values, eps_levels=(0.1, 0.01))
    for eps in (0.1, 0.01):
        assert q[eps] == np.quantile(values, 1.0 - eps, method="higher")
    # "higher" always returns an observed sample
    assert all(v in values for v in q.values())


def test_moment_tail_value_constant_field(grid64):
    # constant field: both factors are region measures times powers of c+mu
    c, mu, nu = 2.0, 0.5, 2.0
    path = constant_slice_path(grid64, [c] * 33)
    parts = subcubes(ROOT)
    nodes = int(np.count_nonzero(grid64.node_mask(ROOT.ball())))
    w = path.dt * grid64.cell_volume()
    m_plus = w * path.step_indices(parts.d_plus.t_lo, parts.d_plus.t_hi).size * nodes
    m_minus = w * path.step_indices(parts.d_minus.t_lo, parts.d_minus.t_hi).size * nodes
    want = (m_plus * (c + mu) ** -nu * m_minus * (c + mu) ** nu) ** (1.0 / nu)
    got = moment_tail_value(path, mu, nu, parts.d_plus, parts.d_minus)
    assert got == pytest.approx(want, rel=1e-12)
    with pytest.raises(InvalidArgumentError):
        moment_tail_value(path, mu, 0.0, parts.d_plus, parts.d_minus)


def test_stability_spread():
    assert stability_spread({1: 2.0, 2: 2.5, 3: 3.0}) == pytest.approx(0.5)
    with pytest.raises(InsufficientDataError):
        stability_spread({1: 2.0})
    with pytest.raises(InvalidArgumentError):
        stability_spread({1: 0.0, 2: 1.0})


def test_cube_weights_boundary_guard(grid32):
    # enlarged ball must stay inside the periodic box
    path = constant_slice_path(grid32, [1.0] * 5)
    lf = log_field(path, 0.1)
    near_edge = Cube(l=0.5, s=0.125, z=math.sqrt(0.125), w=(1.8,))
    with pytest.raises(InvalidArgumentError):
        cube_average(lf, near_edge)
