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

from spdelab import solver
from spdelab.cubes import Cube
from spdelab.degiorgi import (CutoffFamily, IterationParams,
                              _martingale_increments, iteration_trace,
                              time_window)
from spdelab.fields import Grid
from spdelab.jn import _cube_weights, log_field, noise_martingale
from spdelab.solver import (ModelParams, SolverConfig, TestFunction,
                            _coef_fields, apply_operator, build_model,
                            g_along_path, make_initial_condition, path_seed,
                            qv_check, solve_path, weak_residual)

EXPR_G = "0.3*u*sin(x)*cos(t)"
CASES = {
    "1d-trig": (1, ModelParams(), "semi-implicit"),
    "1d-trig-explicit": (1, ModelParams(f_kind="linear", lambda_f=0.4), "explicit"),
    "1d-expr": (1, ModelParams(a_kind="random_elliptic", iota=0.5, a_seed=3,
                               f_kind="linear", lambda_f=0.4,
                               g_kind="expr", g_expr=EXPR_G), "semi-implicit"),
    "2d-trig": (2, ModelParams(a_kind="random_elliptic", iota=0.5, a_seed=5,
                               f_kind="linear_sin", lambda_f=0.4), "semi-implicit"),
    "2d-expr": (2, ModelParams(a_kind="random_elliptic", iota=0.5, a_seed=7,
                               f_kind="expr", f_expr="0.2*u*cos(t)",
                               g_kind="expr", g_expr=EXPR_G), "semi-implicit"),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    """(model, horizon-1 path with noise) for one coefficient family."""
    n, params, scheme = CASES[request.param]
    grid = Grid.regular(n, 32 if n == 1 else 16)
    cm = build_model(params, n, grid.extent)
    u0 = make_initial_condition("bump", grid)
    path = solve_path(u0, cm, SolverConfig(scheme=scheme), 1.0,
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
    phi2 = TestFunction(grid, phi.values**2)
    implicit = path.scheme == "semi-implicit"
    empirical = pairing = squared = 0.0
    for j in range(path.steps):
        t = float(path.times[j])
        uj, ujp = path.values[j], path.values[j + 1]
        coef = _coef_fields(cm, grid, xs, t, uj)
        drift = dt * float(phi.pair(apply_operator(grid, coef, ujp if implicit else uj)))
        if cm.f is not None:
            drift += dt * float(phi.pair(np.broadcast_to(
                np.asarray(cm.f(t, xs, uj), dtype=float), (grid.size,))))
        incr = float(phi.pair(ujp - uj)) - drift
        empirical += incr * incr
        gv = g_at(cm, path, j)
        pairing += dt * float(np.sum(phi.pair(gv) ** 2))
        squared += dt * float(np.sum(phi2.pair(gv * gv)))
    return empirical, pairing, squared


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


def ref_compensator(lf, cm, cube):
    """Forward compensator increments from the cube's time center."""
    path = lf.path
    w2 = _cube_weights(lf.grid, cube)
    jc, jend = path.time_index(cube.l), path.time_index(cube.time_hi)
    incr = []
    for j in range(jc, jend):
        u = path.values[j]
        gt = g_at(cm, path, j) / (np.clip(u, 0.0, None) + lf.mu)[None, :]
        coefs = np.sum(gt * w2[None, :], axis=1) / np.sum(w2)
        incr.append(float(np.dot(coefs, path.noise[j])))
    return np.array(incr)


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
    close([rep.empirical_qv, rep.pairing_qv, rep.squared_qv], ref_qv(path, cm, phi))


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
    cm, path = case
    n = path.grid.n
    cube = Cube(l=0.5, s=0.125, z=math.sqrt(0.125), w=(0.0,) * n)
    lf = log_field(path, 1e-4)
    ms = noise_martingale(lf, cm, cube)
    incr = ref_compensator(lf, cm, cube)
    assert ms.values.size == incr.size + 1 and incr.size > 0
    close(ms.values[1:], np.cumsum(incr))
    close(ms.qv[1:], np.cumsum(incr * incr))


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
    cube = Cube(l=0.5, s=0.125, z=math.sqrt(0.125), w=(0.0,) * n)
    lf = log_field(path, 1e-4)

    def run():
        calls.clear()
        rep = qv_check(path, cm, phi)
        out = [np.array([rep.empirical_qv, rep.pairing_qv, rep.squared_qv]),
               np.array([weak_residual(path, cm, phi, 0.25, 0.75)]),
               _martingale_increments(path, cm, fam, 1, a, 1.0)[1],
               noise_martingale(lf, cm, cube).values,
               np.array([r.c_hat or 0.0 for r in iteration_trace(
                   path, cm, fam, IterationParams(a=a, K=3)).rows])]
        return out, len(calls)

    whole, whole_calls = run()
    monkeypatch.setattr(solver, "_G_BLOCK_BYTES", 3 * 8 * cm.m * path.grid.size)
    blocked, blocked_calls = run()
    # qv_check, weak_residual, one increment series, the compensator, and
    # one increment series per k = 0..3: one g call each
    assert whole_calls == 8
    assert blocked_calls > 3 * whole_calls
    for w, b in zip(whole, blocked):
        assert w.tobytes() == b.tobytes()
