"""The implicit step kernel against the general paths it shortcuts.

A free of t and u and constant in space is solved by FFT instead of a
sparse LU; noise declared through `sigma` is formed from profiles built
once per batch instead of a g call per step.  Each shortcut is checked
against the general computation, the choice of solve is pinned by
counting factorizations, and every path keeps the rule that its result
does not depend on which paths share its batch.
"""
import dataclasses
import math

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from spdelab import solver
from spdelab.fields import FieldSnapshot, Grid
from spdelab.solver import (ModelParams, SolverConfig, _circulant_solve,
                            _coef_fields, _implicit_matrix, build_model,
                            draw_increments, integrate_batch,
                            make_initial_condition, path_seed,
                            periodic_heat_kernel, solve_path, time_axis)

CONSTANT_A = {
    "identity": ModelParams(),
    "constant": ModelParams(a_kind="constant", a_value=0.5, iota=0.5),
}


def close(got, ref, rel=1e-12):
    """Equal up to rel times the largest magnitude in ref."""
    ref = np.asarray(ref, dtype=float)
    np.testing.assert_allclose(got, ref, rtol=rel, atol=rel * float(np.max(np.abs(ref))))


def grid_for(n):
    return Grid.regular(n, 32 if n == 1 else 16)


def batch_inputs(grid, cm, rows=4, horizon=0.25, dt=None):
    """Distinct positive initial rows, the step times and seeded increments."""
    dt = SolverConfig(dt=dt).step_size(grid)
    times = time_axis(0.0, horizon, dt)
    u0b = np.stack([make_initial_condition("random_positive", grid, seed=40 + b).flat()
                    for b in range(rows)])
    dW = None
    if cm.m > 0:
        dW = np.stack([draw_increments(path_seed(61, b), times.size - 1, cm.m, dt)
                       for b in range(rows)])
    return u0b, times, dW


def counting(fn, calls):
    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)
    return counted


# ---------------------------------------------------------------------------
# circulant solve

@pytest.mark.parametrize("n, npts", [(1, 64), (2, 16)])
@pytest.mark.parametrize("kind", sorted(CONSTANT_A))
def test_fft_solve_matches_sparse_lu(n, npts, kind, rng):
    grid = Grid.regular(n, npts)
    cm = build_model(CONSTANT_A[kind], n, grid.extent)
    a = _coef_fields(cm, grid, grid.coords_flat(), 0.0, None)
    dt = 2.0 * grid.dx**2
    rhs = rng.normal(size=(5, grid.size))
    want = splu(_implicit_matrix(grid, a, dt)).solve(rhs.T).T
    close(_circulant_solve(grid, float(a[0]), dt)(rhs), want)


M_STEPS = 8        # steps of the runs that count factorizations
B_ROWS = 3

# expected splu calls per integrate_batch call of M_STEPS steps on B_ROWS rows
FACTORIZATIONS = {
    "identity": (ModelParams(), 0),
    "constant": (ModelParams(a_kind="constant", a_value=0.5, iota=0.5), 0),
    "constant-expr": (ModelParams(a_kind="expr", a_expr="0.75", iota=0.5), 0),
    "x-dependent": (ModelParams(a_kind="expr", a_expr="1 + 0.5*sin(x)", iota=0.5), 1),
    "t-dependent": (ModelParams(a_kind="expr", a_expr="1 + 0*t"), M_STEPS),
    "random_elliptic": (ModelParams(a_kind="random_elliptic", iota=0.5, a_seed=2), M_STEPS),
    "u-dependent": (ModelParams(a_kind="expr", a_expr="1 + 0*u"), M_STEPS * B_ROWS),
}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", sorted(FACTORIZATIONS))
def test_solve_path_is_chosen_by_coefficient(monkeypatch, n, name):
    params, want = FACTORIZATIONS[name]
    grid = grid_for(n)
    cm = build_model(params, n, grid.extent)
    calls = []
    monkeypatch.setattr(solver, "splu", counting(solver.splu, calls))
    u0b, times, dW = batch_inputs(grid, cm, rows=B_ROWS)
    times = times[:M_STEPS + 1]
    integrate_batch(grid, cm, SolverConfig(), u0b, times,
                    dW[:, :M_STEPS], keep_history=True)
    assert len(calls) == want


# ---------------------------------------------------------------------------
# noise from profiles

@pytest.mark.parametrize("n", [1, 2])
def test_trig_g_is_built_from_sigma(n, rng):
    grid = grid_for(n)
    cm = build_model(ModelParams(), n, grid.extent)
    xs = grid.coords_flat()
    sig = cm.sigma(xs)
    assert sig.shape == (cm.m, grid.size)
    u = rng.normal(size=(3, grid.size))
    np.testing.assert_array_equal(cm.g(0.4, xs, u), sig[:, None, :] * u[None])
    np.testing.assert_array_equal(cm.g(0.4, xs, u[0]), sig * u[0])
    for params in (ModelParams(g_kind="expr", g_expr="0.3*u", m=1),
                   ModelParams(g_kind="zero", m=0)):
        assert build_model(params, n, grid.extent).sigma is None


@pytest.mark.parametrize("scheme", ["semi-implicit", "explicit"])
@pytest.mark.parametrize("n", [1, 2])
def test_noise_profiles_match_general_g(n, scheme):
    grid = grid_for(n)
    cm = build_model(ModelParams(f_kind="linear_sin", lambda_f=0.4), n, grid.extent)
    cfg = SolverConfig(scheme=scheme, dt=grid.dx**2 / (4.0 * n))
    u0b, times, dW = batch_inputs(grid, cm, dt=cfg.dt)
    lean = integrate_batch(grid, cm, cfg, u0b, times, dW, keep_history=True)
    general = integrate_batch(grid, dataclasses.replace(cm, sigma=None), cfg,
                              u0b, times, dW, keep_history=True)
    assert not np.any(lean.failed)
    close(lean.history, general.history)


def test_sigma_replaces_per_step_g_calls():
    grid = grid_for(1)
    cm = build_model(ModelParams(), 1, grid.extent)
    u0b, times, dW = batch_inputs(grid, cm)
    for model, want in ((cm, 0), (dataclasses.replace(cm, sigma=None), times.size - 1)):
        calls = []
        traced = dataclasses.replace(model, g=counting(model.g, calls))
        integrate_batch(grid, traced, SolverConfig(), u0b, times, dW)
        assert len(calls) == want


# ---------------------------------------------------------------------------
# batch invariance

@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", sorted(CONSTANT_A))
def test_batch_equals_rows_bitwise(n, kind):
    grid = grid_for(n)
    cm = build_model(CONSTANT_A[kind], n, grid.extent)
    u0b, times, dW = batch_inputs(grid, cm, rows=5)
    cfg = SolverConfig()
    whole = integrate_batch(grid, cm, cfg, u0b, times, dW, keep_history=True)
    for b in range(u0b.shape[0]):
        row = integrate_batch(grid, cm, cfg, u0b[b:b + 1], times, dW[b:b + 1],
                              keep_history=True)
        np.testing.assert_array_equal(row.history[0], whole.history[b])


def test_state_dependent_a_ignores_batch_grouping():
    grid = grid_for(1)
    cm = build_model(ModelParams(a_kind="expr", a_expr="1 + 0.5*u/(1+abs(u))",
                                 iota=0.5), 1, grid.extent)
    assert cm.a_deps == frozenset({"u"})
    u0b, times, dW = batch_inputs(grid, cm, rows=4)
    cfg = SolverConfig()
    whole = integrate_batch(grid, cm, cfg, u0b, times, dW, keep_history=True)
    for lo, hi in ((0, 1), (1, 4), (2, 3)):
        part = integrate_batch(grid, cm, cfg, u0b[lo:hi], times, dW[lo:hi],
                               keep_history=True)
        np.testing.assert_array_equal(part.history, whole.history[lo:hi])


# ---------------------------------------------------------------------------
# coefficients that read t or u but do not vary

@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("a_expr, dep", [("1 + 0*u", "u"), ("1 + 0*t", "t")])
def test_dependent_a_matches_identity(n, a_expr, dep):
    grid = grid_for(n)
    identity = build_model(ModelParams(), n, grid.extent)
    cm = build_model(ModelParams(a_kind="expr", a_expr=a_expr), n, grid.extent)
    assert cm.a_deps == frozenset({dep})
    u0b, times, dW = batch_inputs(grid, cm)
    cfg = SolverConfig()
    got = integrate_batch(grid, cm, cfg, u0b, times, dW, keep_history=True)
    want = integrate_batch(grid, identity, cfg, u0b, times, dW, keep_history=True)
    close(got.history, want.history)


# ---------------------------------------------------------------------------
# 2d heat benchmark

def test_2d_heat_kernel_second_order_and_mass():
    # [DERIVED] the 2d periodized heat kernel is the product of 1d ones;
    # dt = dx^2/2 makes both error terms scale with dx^2
    t_init, t_final = 0.0625, 0.25
    errors = []
    for npts in (16, 32, 64):
        grid = Grid.regular(2, npts)
        cm = build_model(ModelParams(g_kind="zero", m=0), 2, grid.extent)
        x0, x1 = grid.coords_flat()
        u0 = FieldSnapshot(grid, 0.0, (periodic_heat_kernel(x0, t_init)
                                       * periodic_heat_kernel(x1, t_init)).reshape(grid.shape))
        path = solve_path(u0, cm, SolverConfig(), t_final, seed=0)
        t = t_init + float(path.times[-1])
        exact = periodic_heat_kernel(x0, t) * periodic_heat_kernel(x1, t)
        vol = grid.cell_volume()
        errors.append(math.sqrt(vol * float(np.sum((path.values[-1] - exact) ** 2))))
        mass = vol * np.sum(path.values, axis=1)
        assert float(np.max(np.abs(mass - mass[0]))) <= 1e-13
    ratios = [errors[i] / errors[i + 1] for i in range(2)]
    assert all(3.5 <= r <= 4.5 for r in ratios), ratios
