"""Noise pairings along stored paths against per-step reference loops.

Each reference below evaluates the coefficients one step at a time with a
scalar t and a flat state, the way the quantities are defined; the code
under test evaluates them for many steps at once, with t as a (J, 1)
column and u as (J, S), in blocks whose split must not change a bit.
"""
import dataclasses
import math

import numpy as np
import pytest

from spdelab import jn, solver
from spdelab.cubes import Cube
from spdelab.degiorgi import (CutoffFamily, IterationParams,
                              _martingale_increments, iteration_trace,
                              time_window)
from spdelab.errors import DimensionMismatchError, StateError
from spdelab.fields import FieldPath, Grid
from spdelab.jn import _cube_weights, _increment_series, cube_stats, log_field
from spdelab.solver import (ModelParams, SolverConfig, TestFunction,
                            _coef_fields, apply_operator, build_model,
                            g_along_path, make_initial_condition, path_seed,
                            qv_check, solve_path, weak_residual)

EXPR_G = "0.3*u*sin(x)*cos(t)"
CASES = {
    "1d-trig": (1, ModelParams()),
    "1d-expr": (1, ModelParams(a_kind="random_elliptic", iota=0.5, a_seed=3,
                               f_kind="linear", lambda_f=0.4,
                               g_kind="expr", g_expr=EXPR_G)),
    "2d-trig": (2, ModelParams(a_kind="random_elliptic", iota=0.5, a_seed=5,
                               f_kind="expr", f_expr="0.4*u*sin(pi*x/2.0)", lambda_f=0.4)),
    "2d-expr": (2, ModelParams(a_kind="random_elliptic", iota=0.5, a_seed=7,
                               f_kind="expr", f_expr="0.2*u*cos(t)",
                               g_kind="expr", g_expr=EXPR_G)),
}
# (l, s, w) of the root cube of a horizon-1 path, and of a small
# off-center cube
ROOT_CUBE = (0.5, 0.125, 0.0)
CUBES = {"root": ROOT_CUBE, "small": (0.625, 1.0 / 32.0, 0.25)}


def make_cube(n, l, s, w):
    return Cube(l=l, s=s, z=math.sqrt(s), w=(w,) * n)


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    """(model, horizon-1 path with noise) for one coefficient family."""
    n, params = CASES[request.param]
    grid = Grid.regular(n, 32 if n == 1 else 16)
    cm = build_model(params, n, grid.extent)
    u0 = make_initial_condition("bump", grid)
    path = solve_path(u0, cm, SolverConfig(), 1.0,
                      seed=path_seed(2718, n))
    return cm, path


def close(got, ref, rel=1e-12):
    """Equal up to rel times the largest magnitude in ref."""
    ref = np.asarray(ref, dtype=float)
    scale = float(np.max(np.abs(ref))) if ref.size else 0.0
    np.testing.assert_allclose(got, ref, rtol=rel, atol=rel * scale)


def g_at(cm, path, j):
    return np.asarray(cm.g(float(path.times[j]), path.grid.coords_flat(),
                           path.values[j]), dtype=float)


# ---------------------------------------------------------------------------
# per-step references

def ref_qv(path, cm, phi):
    grid, dt = path.grid, path.dt
    xs = grid.coords_flat()
    empirical = pairing = 0.0
    for j in range(path.steps):
        t = float(path.times[j])
        uj, ujp = path.values[j], path.values[j + 1]
        coef = _coef_fields(cm, grid, xs, t, uj)
        drift = dt * float(phi.pair(apply_operator(grid, coef, ujp)))
        if cm.f is not None:
            drift += dt * float(phi.pair(np.broadcast_to(
                np.asarray(cm.f(t, xs, uj), dtype=float), (grid.size,))))
        incr = float(phi.pair(ujp - uj)) - drift
        empirical += incr * incr
        gv = g_at(cm, path, j)
        pairing += dt * float(np.sum(phi.pair(gv) ** 2))
    return empirical, pairing


def ref_weak_terms(path, cm, phi, s, t):
    """(lhs, diffusion, forcing, noise) of the weak form between s and t."""
    grid, dt = path.grid, path.dt
    xs = grid.coords_flat()
    js, jt = path.time_index(s), path.time_index(t)
    diffusion = forcing = noise = 0.0
    for j in range(js, jt):
        tj, u = float(path.times[j]), path.values[j]
        diffusion += dt * float(phi.pair(apply_operator(
            grid, _coef_fields(cm, grid, xs, tj, u), u)))
        if cm.f is not None:
            forcing += dt * float(phi.pair(np.broadcast_to(
                np.asarray(cm.f(tj, xs, u), dtype=float), (grid.size,))))
        noise += float(np.sum(phi.pair(g_at(cm, path, j)) * path.noise[j]))
    lhs = float(phi.pair(path.values[jt] - path.values[js]))
    return lhs, diffusion, forcing, noise


def ref_martingale_increments(path, cm, fam, k, a, eps):
    steps = path.step_indices(*time_window(k))
    phi2 = fam.sample(path.grid, k + 1) ** 2
    shift = a * (1.0 - 2.0 ** (-k - 1))
    vol = path.grid.cell_volume()
    incr = []
    for j in steps:
        v = np.clip(path.values[j] - shift, 0.0, None) * phi2
        pairings = vol * np.sum(g_at(cm, path, j) * v[None, :], axis=1)
        incr.append(eps * float(np.dot(pairings, path.noise[j])))
    return steps, np.array(incr)


def ref_half(lf, cm, cube, sign):
    """(visited snapshots, compensator increments) of one cube half, one
    step at a time from the time center: forward for sign=+1; for sign=-1
    through the snapshots in reversed order with negated noise."""
    path = lf.path
    w2 = _cube_weights(lf.grid, cube)
    j = path.time_index(cube.l)
    jend = path.time_index(cube.time_hi if sign > 0 else cube.time_lo)
    visited, incr = [], []
    while j != jend:
        # the step from j to j + sign starts at j; its noise is the
        # increment recorded between the two snapshots
        u = path.values[j]
        gt = g_at(cm, path, j) / (np.clip(u, 0.0, None) + lf.mu)[None, :]
        coefs = np.sum(gt * w2[None, :], axis=1) / np.sum(w2)
        incr.append(sign * float(np.dot(coefs, path.noise[min(j, j + sign)])))
        j += sign
        visited.append(j)
    return np.array(visited), np.array(incr)


def ref_cube_stats(lf, cm, cube):
    """(a_c, plus_avg, minus_avg, qv_ratio) by per-step loops."""
    path = lf.path
    w2 = _cube_weights(lf.grid, cube)
    nodes = np.nonzero(lf.grid.node_mask(cube.ball()))[0]
    jc = path.time_index(cube.l)
    h = -np.log(np.clip(path.values, 0.0, None) + lf.mu)
    a_c = float(np.sum(h[jc] * w2) / np.sum(w2))
    avgs = []
    for sign in (+1, -1):
        total = count = comp = 0.0
        for j, d in zip(*ref_half(lf, cm, cube, sign)):
            comp += d
            for node in nodes:
                total += math.sqrt(max(h[j, node] - comp - a_c, 0.0))
                count += 1
        avgs.append(total / count)
    qv = ratio = 0.0
    for j, d in zip(*ref_half(lf, cm, cube, +1)):
        qv += d * d
        ratio = max(ratio, qv / float(path.times[j] - path.times[jc]))
    return a_c, avgs[0], avgs[1], ratio


# ---------------------------------------------------------------------------
# oracle comparisons

def test_g_along_path_matches_per_step_g(case):
    """t is passed as a (J, 1) column and u as (J, S); steps in any order."""
    cm, path = case
    steps = np.arange(path.steps)[::-3]
    shapes = []

    def keep(block, gv):
        shapes.append(gv.shape)
        return np.moveaxis(gv, 1, 0)

    got = g_along_path(path, cm, steps, keep)
    assert shapes == [(cm.m, steps.size, path.grid.size)]
    close(got, np.stack([g_at(cm, path, j) for j in steps]))


def test_qv_check_matches_per_step_loop(case):
    cm, path = case
    phi = TestFunction.bump(path.grid, 0.0, 1.0, 1.0)
    rep = qv_check(path, cm, phi)
    close([rep.empirical_qv, rep.pairing_qv], ref_qv(path, cm, phi))


def test_weak_residual_matches_per_step_loop(case):
    cm, path = case
    phi = TestFunction.bump(path.grid, 0.0, 1.0, 1.0)
    lhs, diffusion, forcing, noise = ref_weak_terms(path, cm, phi, 0.25, 0.75)
    ref = abs(lhs - diffusion - forcing - noise)
    # the residual is a small difference of the four terms, so rounding is
    # measured against the largest of them
    scale = max(abs(lhs), abs(diffusion), abs(forcing), abs(noise))
    got = weak_residual(path, cm, phi, 0.25, 0.75)
    assert got == pytest.approx(ref, rel=1e-12, abs=1e-12 * scale)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_martingale_increments_match_per_step_loop(case, k):
    cm, path = case
    fam = CutoffFamily(path.grid.n)
    a, eps = 0.25 * float(path.values.max()), 0.5
    steps, incr = _martingale_increments(path, cm, fam, k, a, eps)
    ref_steps, ref_incr = ref_martingale_increments(path, cm, fam, k, a, eps)
    assert np.array_equal(steps, ref_steps) and steps.size > 0
    close(incr, ref_incr)


def test_noise_martingale_matches_per_step_loop(case):
    """Both halves' compensator increments, the lower one in reversed time."""
    cm, path = case
    cube = make_cube(path.grid.n, *ROOT_CUBE)
    lf = log_field(path, 1e-4)
    w2 = _cube_weights(lf.grid, cube)
    for sign in (+1, -1):
        visited, incr = _increment_series(lf, cm, cube, w2, path.time_index(cube.l), sign)
        ref_visited, ref_incr = ref_half(lf, cm, cube, sign)
        assert np.array_equal(visited, ref_visited) and visited.size > 0
        close(incr, ref_incr)


@pytest.mark.parametrize("which", sorted(CUBES))
def test_cube_stats_matches_per_step_loop(case, which):
    cm, path = case
    cube = make_cube(path.grid.n, *CUBES[which])
    lf = log_field(path, 1e-4)
    st = cube_stats(lf, cm, cube)
    assert st.cube == cube
    for got, ref in zip([st.a_c, st.plus_avg, st.minus_avg, st.qv_ratio],
                        ref_cube_stats(lf, cm, cube)):
        close(got, ref)


def test_cube_stats_weighs_once_and_calls_g_once_per_half(case, monkeypatch):
    cm, path = case
    calls = {"weights": 0, "g": 0}

    def counted_weights(*args, _w=jn._cube_weights):
        calls["weights"] += 1
        return _w(*args)

    def counted_g(*args, _g=cm.g):
        calls["g"] += 1
        return _g(*args)

    monkeypatch.setattr(jn, "_cube_weights", counted_weights)
    cm = dataclasses.replace(cm, g=counted_g)
    cube_stats(log_field(path, 1e-4), cm, make_cube(path.grid.n, *ROOT_CUBE))
    assert calls == {"weights": 1, "g": 2}


# ---------------------------------------------------------------------------
# the noise record

def without_noise(path, noise=None):
    return FieldPath(path.grid, path.times, path.values, noise=noise)


def test_noise_readers_reject_a_path_without_its_record(case):
    """weak_residual, iteration_trace and cube_stats pair g with the
    recorded increments, so a noisy model on a bare path is an error, and
    so is a record of 2m channels, which broadcasts against m = 1."""
    cm, path = case
    phi = TestFunction.bump(path.grid, 0.0, 1.0, 1.0)
    params = IterationParams(a=0.25 * float(path.values.max()), K=1)
    cube = make_cube(path.grid.n, *ROOT_CUBE)
    assert cm.m > 0
    for bare, error, message in ((without_noise(path), StateError, "no recorded noise"),
                                 (without_noise(path, np.repeat(path.noise, 2, axis=1)),
                                  DimensionMismatchError, "the model has")):
        with pytest.raises(error, match=message):
            weak_residual(bare, cm, phi, 0.25, 0.75)
        with pytest.raises(error, match=message):
            iteration_trace(bare, cm, CutoffFamily(path.grid.n), params)
        with pytest.raises(error, match=message):
            cube_stats(log_field(bare, 1e-4), cm, cube)


def test_qv_check_needs_no_noise_record(case):
    """qv_check reads the states and g only: a bare path gives the
    recorded path's report exactly."""
    cm, path = case
    phi = TestFunction.bump(path.grid, 0.0, 1.0, 1.0)
    assert qv_check(without_noise(path), cm, phi) == qv_check(path, cm, phi)


# ---------------------------------------------------------------------------
# block independence

def test_blocked_results_are_bitwise_equal(case, monkeypatch):
    """Blocks of 3 steps reproduce the one-block results bit for bit."""
    cm, path = case
    calls = []

    def counted_g(*args, _g=cm.g):
        calls.append(1)
        return _g(*args)

    cm = dataclasses.replace(cm, g=counted_g)
    n = path.grid.n
    phi = TestFunction.bump(path.grid, 0.0, 1.0, 1.0)
    fam = CutoffFamily(n)
    a = 0.25 * float(path.values.max())
    cube = make_cube(n, *ROOT_CUBE)
    lf = log_field(path, 1e-4)
    w2, jc = _cube_weights(lf.grid, cube), path.time_index(cube.l)

    def run():
        calls.clear()
        rep = qv_check(path, cm, phi)
        out = [np.array([rep.empirical_qv, rep.pairing_qv]),
               np.array([weak_residual(path, cm, phi, 0.25, 0.75)]),
               _martingale_increments(path, cm, fam, 1, a, 1.0)[1],
               _increment_series(lf, cm, cube, w2, jc, +1)[1],
               _increment_series(lf, cm, cube, w2, jc, -1)[1],
               np.array([r.c_hat or 0.0 for r in iteration_trace(
                   path, cm, fam, IterationParams(a=a, K=3)).rows])]
        return out, len(calls)

    whole, whole_calls = run()
    monkeypatch.setattr(solver, "_G_BLOCK_BYTES", 3 * 8 * cm.m * path.grid.size)
    blocked, blocked_calls = run()
    # qv_check, weak_residual, one increment series, the compensator of
    # each cube half, and one increment series per k = 0..3: one g call each
    assert whole_calls == 9
    assert blocked_calls > 3 * whole_calls
    for w, b in zip(whole, blocked):
        assert w.tobytes() == b.tobytes()
