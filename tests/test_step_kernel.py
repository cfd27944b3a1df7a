"""The implicit step kernel against the general paths it shortcuts.

A free of t and u and constant in space is solved by FFT instead of a
sparse LU; in 1d, every other A is solved as a cyclic symmetric positive
definite tridiagonal system by LAPACK with a Sherman-Morrison correction:
stacked matrices factored in one dpttrf call (once per call, once per block
of steps for A that reads t, once per step for A that reads u), then one
dpttrs call per step; noise declared through `sigma` is formed from
profiles built once per batch instead of a g call per step.  Each shortcut
is checked against the general computation, the choice of solve is pinned
by counting evaluations of A, factorizations and solves, and every path
keeps the rule that its result does not depend on which paths share its
batch.
"""
import dataclasses
import math
import types
import warnings

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from oracles import neg_part_energy
from spdelab import solver
from spdelab.errors import NumericError
from spdelab.fields import FieldSnapshot, Grid, region_rows
from spdelab.geometry import Ball, SpaceTimeRect
from spdelab.solver import (CoefficientModel, ModelParams, SolverConfig,
                            _circulant_solve, _coef_fields, _cyclic_factor,
                            _cyclic_parts, _cyclic_solve, _definite,
                            _implicit_matrix, build_model,
                            draw_increments, integrate_batch,
                            make_initial_condition, path_seed,
                            periodic_heat_kernel, solve_path, time_axis)

CONSTANT_A = {
    "identity": ModelParams(),
    "constant": ModelParams(a_kind="constant", a_value=0.5, iota=0.5),
}
# A that the integrator solves anew every step
REFACTORED_A = {
    "random_elliptic": ModelParams(a_kind="random_elliptic", iota=0.5, a_seed=2),
    "t-dependent": ModelParams(a_kind="expr", a_expr="1 + 0*t"),
    "u-dependent": ModelParams(a_kind="expr", a_expr="1 + 0.5*u/(1+abs(u))", iota=0.5),
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


# ---------------------------------------------------------------------------
# cyclic tridiagonal solve

@pytest.mark.parametrize("npts", [4, 5, 8, 64, 128])
@pytest.mark.parametrize("iota", [1.0, 0.5, 0.1])
def test_cyclic_solve_matches_sparse_lu(npts, iota, rng):
    grid = Grid.regular(1, npts)
    dt = 2.0 * grid.dx**2
    rhs = rng.normal(size=(5, npts))
    # one field shared by every row
    a = rng.uniform(iota, 1.0 / iota, size=npts)
    want = splu(_implicit_matrix(grid, a, dt)).solve(rhs.T).T
    close(_cyclic_solve(_cyclic_factor(_cyclic_parts(grid, a, dt)), rhs), want)
    # one field per row, split in one call and solved row by row
    rows = rng.uniform(iota, 1.0 / iota, size=(5, npts))
    e, d, gamma, c = _cyclic_parts(grid, rows, dt)
    for b in range(5):
        want = splu(_implicit_matrix(grid, rows[b], dt)).solve(rhs[b])
        factor = _cyclic_factor((e[b], d[b], gamma[b], c[b]))
        close(_cyclic_solve(factor, rhs[b:b + 1])[0], want)


@pytest.mark.parametrize("npts", [4, 5, 64, 128])
@pytest.mark.parametrize("iota", [1.0, 0.5, 0.1])
@pytest.mark.parametrize("rows", [1, 2, 7])
def test_stacked_cyclic_solve_equals_rows_alone(npts, iota, rows, rng):
    # one field per row, stacked into one dpttrf and one dpttrs call,
    # against each row's matrix factored and solved in calls of its own: the
    # same bits, rhs scales apart
    grid = Grid.regular(1, npts)
    dt = rng.uniform(0.25, 2.0) * grid.dx**2
    a = rng.uniform(iota, 1.0 / iota, size=(rows, npts))
    rhs = rng.normal(size=(rows, npts)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(rows, 1))
    parts = _cyclic_parts(grid, a, dt)
    stacked = _cyclic_solve(_cyclic_factor(parts), rhs)
    alone = np.stack([_cyclic_solve(_cyclic_factor(tuple(p[b] for p in parts)),
                                    rhs[b:b + 1])[0] for b in range(rows)])
    np.testing.assert_array_equal(stacked.view(np.uint64), alone.view(np.uint64))


def test_cyclic_solve_raises_on_lapack_failure():
    # T has an exactly zero pivot at its second node: dpttrf reports info = 2
    parts = (np.zeros(4), np.array([1.0, 0.0, 1.0, 1.0]), -1.0, 0.0)
    with pytest.raises(NumericError, match="dpttrf info = 2"):
        _cyclic_factor(parts)


@pytest.mark.parametrize("npts", [4, 5, 64, 128])
@pytest.mark.parametrize("iota", [1.0, 0.5, 0.1])
def test_positive_definite_solves_match_sparse_lu(npts, iota, rng):
    # against sparse LU of I - dt L_a: one field that serves every step,
    # solved twice, and one field per row stacked into one dpttrf call
    # (test_cyclic_solve_matches_sparse_lu covers one field for one step)
    grid = Grid.regular(1, npts)
    dt = 2.0 * grid.dx**2
    rhs = rng.normal(size=(5, npts))
    a = rng.uniform(iota, 1.0 / iota, size=npts)
    want = splu(_implicit_matrix(grid, a, dt)).solve(rhs.T).T
    assert _definite(_cyclic_parts(grid, a, dt))
    shared = solver._implicit_solver(grid, a, dt)
    for _ in range(2):
        close(shared(rhs), want)
    rows = rng.uniform(iota, 1.0 / iota, size=(5, npts))
    parts = _cyclic_parts(grid, rows, dt)
    assert _definite(parts).all()
    got = _cyclic_solve(_cyclic_factor(parts), rhs)
    for b in range(5):
        close(got[b], splu(_implicit_matrix(grid, rows[b], dt)).solve(rhs[b]))


@pytest.mark.parametrize("npts", [4, 5, 64])
@pytest.mark.parametrize("rows", [2, 7])
def test_factored_solve_batch_equals_rows_alone(npts, rows, rng):
    # one field that serves every step: dpttrs solves each rhs column on its
    # own, so a batch gives bitwise the rows it gives one at a time (B = 1)
    grid = Grid.regular(1, npts)
    dt = rng.uniform(0.25, 2.0) * grid.dx**2
    solve = solver._implicit_solver(grid, rng.uniform(0.5, 2.0, npts), dt)
    rhs = rng.normal(size=(rows, npts)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(rows, 1))
    batch = solve(rhs)
    alone = np.stack([solve(rhs[b:b + 1])[0] for b in range(rows)])
    np.testing.assert_array_equal(batch.view(np.uint64), alone.view(np.uint64))


@pytest.mark.parametrize("npts", [4, 5, 64])
@pytest.mark.parametrize("rows", [2, 7])
def test_shared_field_solve_equals_per_row_solve(npts, rows, rng):
    # one field that serves every step gives bitwise the rows of the per-row
    # stacked solve with that field repeated for each row
    grid = Grid.regular(1, npts)
    dt = rng.uniform(0.25, 2.0) * grid.dx**2
    a = rng.uniform(0.5, 2.0, npts)
    rhs = rng.normal(size=(rows, npts)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(rows, 1))
    shared = solver._implicit_solver(grid, a, dt)(rhs)
    per_row = solver._implicit_solver(grid, np.tile(a, (rows, 1)), dt, np.arange(rows))(rhs)
    np.testing.assert_array_equal(shared.view(np.uint64), per_row.view(np.uint64))


def hand_built(a, deps):
    """A 1d model of diffusion alone, with a coefficient that validate_model
    would reject: integrate_batch must not rely on that check."""
    return CoefficientModel(n=1, a=a, f=None, g=None, iota=0.5, growth=0.0, m=0,
                            a_deps=frozenset(deps))


def test_rows_whose_a_is_not_positive_definite_fail_alone():
    # A reads u and turns negative past u = 5: row 1 has two neighbouring
    # nodes there, so a face of -1; row 3 one node, so two faces of exactly
    # 0.  Neither is solved, each fails at the first step, and rows 0 and 2
    # keep the bits of their runs alone
    cm = hand_built(lambda t, xs, u: np.where(u > 5.0, -1.0, 1.0 + 0.5 * u / (1.0 + np.abs(u))),
                    "u")
    grid = grid_for(1)
    u0b, times, _ = batch_inputs(grid, cm, rows=4)
    u0b[1, 10:12] = 10.0
    u0b[3] = 0.0
    u0b[3, 20] = 10.0
    cfg = SolverConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = integrate_batch(grid, cm, cfg, u0b, times, None, keep_history=True)
    assert list(res.failed) == [False, True, False, True]
    assert list(res.fail_step[[1, 3]]) == [0, 0]
    assert np.all(np.isnan(res.history[[1, 3], 1:]))
    for b in (0, 2):
        alone = integrate_batch(grid, cm, cfg, u0b[b:b + 1], times, None, keep_history=True)
        np.testing.assert_array_equal(alone.history[0].view(np.uint64),
                                      res.history[b].view(np.uint64))


@pytest.mark.parametrize("deps", ["t", ""], ids=["reads-t", "x-only"])
def test_shared_a_not_positive_definite_fails_every_row(deps):
    # one field for every row, whose faces turn negative at step 3 (A reads
    # t) or from the start (A varies only in x): every row fails at that
    # step, through failed/fail_step, and nothing is raised
    bad = 3 if deps else 0

    def a(t, xs, u):
        return np.where(t >= times[bad], -1.0, 1.0) * (1.0 + 0.5 * np.sin(xs[0]))

    grid = grid_for(1)
    cm = hand_built(a, deps)
    u0b, times, _ = batch_inputs(grid, cm, rows=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = integrate_batch(grid, cm, SolverConfig(), u0b, times, None, keep_history=True)
    assert res.failed.all()
    assert list(res.fail_step) == [bad] * 3
    assert np.all(np.isfinite(res.history[:, :bad + 1]))
    assert np.all(np.isnan(res.history[:, bad + 1:]))


M_STEPS = 8        # steps of the runs that count factorizations
K_STEPS = 3        # in blocks of this many steps: 3, 3 and 2
B_ROWS = 3

# model -> (params, (dpttrf, dpttrs) calls in 1d, (splu, LU solve) calls in
# 2d) per integrate_batch call of M_STEPS steps on B_ROWS rows; 1d never
# calls splu, and 2d never calls LAPACK's tridiagonal routines.  A 1d
# factorization takes one dpttrs call for its Sherman-Morrison vectors, and
# each step one for its rows
FACTORIZATIONS = {
    "identity": (ModelParams(), (0, 0), (0, 0)),
    "constant": (ModelParams(a_kind="constant", a_value=0.5, iota=0.5), (0, 0), (0, 0)),
    "constant-expr": (ModelParams(a_kind="expr", a_expr="0.75", iota=0.5), (0, 0), (0, 0)),
    # one field for the call
    "x-dependent": (ModelParams(a_kind="expr", a_expr="1 + 0.5*sin(x)", iota=0.5),
                    (1, 1 + M_STEPS), (1, M_STEPS)),
    # one stack of fields per block in 1d, one LU per step in 2d
    "t-dependent": (ModelParams(a_kind="expr", a_expr="1 + 0*t"),
                    (3, 3 + M_STEPS), (M_STEPS, M_STEPS)),
    "random_elliptic": (ModelParams(a_kind="random_elliptic", iota=0.5, a_seed=2),
                        (3, 3 + M_STEPS), (M_STEPS, M_STEPS)),
    # one stack of rows per step in 1d, one LU per row and step in 2d
    "u-dependent": (ModelParams(a_kind="expr", a_expr="1 + 0*u"),
                    (M_STEPS, 2 * M_STEPS), (M_STEPS * B_ROWS, M_STEPS * B_ROWS)),
}
FACTORIZERS = ("splu", "dpttrf")


def count_solves(monkeypatch):
    """Count the calls of splu, of the solve of each factor it returns
    ("lu.solve"), and of dpttrf and dpttrs, by name."""
    calls = {name: [] for name in ("splu", "lu.solve", "dpttrf", "dpttrs")}
    for name in ("dpttrf", "dpttrs"):
        monkeypatch.setattr(solver, name, counting(getattr(solver, name), calls[name]))
    factorize = solver.splu

    def splu(matrix):
        calls["splu"].append(1)
        return types.SimpleNamespace(solve=counting(factorize(matrix).solve,
                                                    calls["lu.solve"]))
    monkeypatch.setattr(solver, "splu", splu)
    return calls


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", sorted(FACTORIZATIONS))
def test_solve_path_is_chosen_by_coefficient(monkeypatch, n, name):
    params, want_1d, want_2d = FACTORIZATIONS[name]
    grid = grid_for(n)
    cm = build_model(params, n, grid.extent)
    calls = count_solves(monkeypatch)
    u0b, times, dW = batch_inputs(grid, cm, rows=B_ROWS)
    monkeypatch.setattr(solver, "_STEP_BLOCK_BYTES", K_STEPS * 8 * u0b.size)
    times = times[:M_STEPS + 1]
    integrate_batch(grid, cm, SolverConfig(), u0b, times,
                    dW[:, :M_STEPS], keep_history=True)
    got = {name: len(c) for name, c in calls.items()}
    if n == 1:
        assert (got["splu"], got["lu.solve"]) == (0, 0)
        assert (got["dpttrf"], got["dpttrs"]) == want_1d
    else:
        assert (got["dpttrf"], got["dpttrs"]) == (0, 0)
        assert (got["splu"], got["lu.solve"]) == want_2d


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


@pytest.mark.parametrize("n", [1, 2])
def test_noise_profiles_match_general_g(n):
    grid = grid_for(n)
    cm = build_model(ModelParams(f_kind="expr", f_expr=f"0.4*u*sin(pi*x/{grid.extent!r})",
                                 lambda_f=0.4), n, grid.extent)
    cfg = SolverConfig(dt=grid.dx**2 / (4.0 * n))
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


@pytest.mark.parametrize("kind", sorted(REFACTORED_A))
def test_refactored_a_batch_equals_rows_bitwise(kind):
    grid = grid_for(1)
    cm = build_model(REFACTORED_A[kind], 1, grid.extent)
    u0b, times, dW = batch_inputs(grid, cm, rows=5)
    cfg = SolverConfig()
    whole = integrate_batch(grid, cm, cfg, u0b, times, dW, keep_history=True)
    assert not np.any(whole.failed)
    for b in range(u0b.shape[0]):
        row = integrate_batch(grid, cm, cfg, u0b[b:b + 1], times, dW[b:b + 1],
                              keep_history=True)
        np.testing.assert_array_equal(row.history[0], whole.history[b])


# f and g linear in u and A free of u make the scheme linear in u, and
# doubling is exact in binary floating point, so the path from 2 u0 is twice
# the path from u0 bit for bit, through the FFT, dpttrs and sparse LU solves
LINEAR = {
    (1, "identity-linear-f"): ModelParams(f_kind="linear", lambda_f=1.0),
    (1, "x-only"): ModelParams(a_kind="expr", a_expr="1 + 0.5*sin(x)", iota=0.5),
    (1, "reads-t"): ModelParams(a_kind="expr", a_expr="1 + 0.5*sin(3*t)", iota=0.5),
    (2, "x-only"): ModelParams(a_kind="expr", a_expr="1 + 0.5*sin(x1)*cos(x2)", iota=0.5),
    (2, "random_elliptic"): ModelParams(a_kind="random_elliptic", iota=0.5, a_seed=2),
}


@pytest.mark.parametrize("n, kind", sorted(LINEAR))
def test_doubled_initial_data_doubles_the_path_bitwise(n, kind):
    grid = grid_for(n)
    cm = build_model(LINEAR[n, kind], n, grid.extent)
    u0b, times, dW = batch_inputs(grid, cm, rows=3)
    cfg = SolverConfig()
    once = integrate_batch(grid, cm, cfg, u0b, times, dW, keep_history=True)
    twice = integrate_batch(grid, cm, cfg, 2.0 * u0b, times, dW, keep_history=True)
    assert cm.m > 0 and not once.failed.any()
    np.testing.assert_array_equal(twice.history, 2.0 * once.history)


@pytest.mark.parametrize("kind", ["random_elliptic", "u-dependent"])
def test_blowup_isolation_under_refactored_a(kind):
    # the cubic blow-up of test_solver's batch test: row 0 turns NaN, and
    # neither the shared LAPACK call nor the Sherman-Morrison correction
    # may carry it into row 1, which must stay exactly 0
    grid = grid_for(1)
    params = dataclasses.replace(REFACTORED_A[kind], f_kind="expr", f_expr="u * u * u",
                                 g_kind="zero", m=0, growth_bound=1e9)
    cm = build_model(params, 1, grid.extent)
    times = time_axis(0.0, 40.0, 0.5)
    u0b = np.zeros((3, grid.size))
    u0b[0] = 50.0
    u0b[2] = make_initial_condition("bump", grid, amplitude=0.1).flat()
    res = integrate_batch(grid, cm, SolverConfig(dt=0.5), u0b, times, None,
                          keep_history=True)
    assert list(res.failed) == [True, False, False]
    assert np.all(np.isnan(res.history[0, res.fail_step[0] + 1:]))
    assert np.all(res.history[1] == 0.0)
    alone = integrate_batch(grid, cm, SolverConfig(dt=0.5), u0b[2:], times, None,
                            keep_history=True)
    np.testing.assert_array_equal(alone.history[0], res.history[2])


@pytest.mark.parametrize("n, kind", [(1, "identity"), (1, "random_elliptic"),
                                     (1, "u-dependent"), (2, "random_elliptic"),
                                     (2, "x-dependent"), (2, "u-dependent")])
def test_blowup_inside_a_block(monkeypatch, n, kind):
    # the 1d FFT, the 1d cyclic dpttrs solve of A that reads t or u, and
    # sparse LU in 2d, refactored every step, per row or once: row 0 passes
    # the blow-up limit two steps before the end of its block and keeps
    # stepping, overflowing, until the block ends (A that reads u is not
    # solved for it again); that raises no warning, its failure step is the
    # one of a block of one step, and rows 1 (exactly 0) and 2 keep their bits
    grid = Grid.regular(n, 16 if n == 1 else 8)
    params = dataclasses.replace(FACTORIZATIONS[kind][0], f_kind="expr", f_expr="u * u * u",
                                 g_kind="zero", m=0, growth_bound=1e9)
    cm = build_model(params, n, grid.extent)
    times = time_axis(0.0, 10.0, 0.5)
    u0b = np.zeros((3, grid.size))
    u0b[0] = 2.0
    u0b[2] = make_initial_condition("bump", grid, amplitude=0.1).flat()

    def run(steps):
        monkeypatch.setattr(solver, "_STEP_BLOCK_BYTES", steps * 8 * u0b.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return integrate_batch(grid, cm, SolverConfig(dt=0.5), u0b, times, None,
                                   keep_history=True)

    ref = run(1)
    fail = int(ref.fail_step[0])
    assert list(ref.failed) == [True, False, False]
    assert 1 <= fail and fail + 3 < times.size - 1
    got = run(fail + 3)
    np.testing.assert_array_equal(got.failed, ref.failed)
    np.testing.assert_array_equal(got.fail_step, ref.fail_step)
    assert np.all(np.isfinite(got.history[0, :fail + 1]))
    assert np.all(np.isnan(got.history[0, fail + 1:]))
    np.testing.assert_array_equal(got.history.view(np.uint64), ref.history.view(np.uint64))
    assert np.all(got.history[1] == 0.0)


def test_failed_row_is_not_solved_again(monkeypatch):
    # A that reads u with every step in one block: row 0 passes the blow-up
    # limit at its failure step, and no later step of the block lists it
    # among the rows to solve; the other rows are listed at every step
    grid = Grid.regular(1, 16)
    params = dataclasses.replace(FACTORIZATIONS["u-dependent"][0], f_kind="expr",
                                 f_expr="u * u * u", g_kind="zero", m=0, growth_bound=1e9)
    cm = build_model(params, 1, grid.extent)
    times = time_axis(0.0, 10.0, 0.5)
    u0b = np.zeros((3, grid.size))
    u0b[0] = 2.0
    u0b[2] = make_initial_condition("bump", grid, amplitude=0.1).flat()
    listed, build = [], solver._implicit_solver

    def spy(grid, a, dt, rows):
        listed.append(rows.tolist())
        return build(grid, a, dt, rows)

    monkeypatch.setattr(solver, "_implicit_solver", spy)
    monkeypatch.setattr(solver, "_STEP_BLOCK_BYTES", (times.size - 1) * 8 * u0b.size)
    res = integrate_batch(grid, cm, SolverConfig(dt=0.5), u0b, times, None)
    fail = int(res.fail_step[0])
    assert list(res.failed) == [True, False, False] and fail + 1 < times.size - 1
    assert listed == [[0, 1, 2] if j <= fail else [1, 2] for j in range(times.size - 1)]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["t-dependent", "u-dependent"])
def test_data_past_the_blowup_limit_is_stepped(n, kind):
    # the failure test reads results, never the data: a spike past the limit
    # that the first implicit step spreads below it fails no row, whether A
    # is solved for all rows at once or per row
    grid = Grid.regular(n, 16 if n == 1 else 8)
    params = dataclasses.replace(FACTORIZATIONS[kind][0], g_kind="zero", m=0)
    cm = build_model(params, n, grid.extent)
    u0b = np.zeros((2, grid.size))
    u0b[0, 0] = 1.5 * solver.BLOWUP_LIMIT
    u0b[1] = make_initial_condition("bump", grid, amplitude=0.1).flat()
    res = integrate_batch(grid, cm, SolverConfig(dt=0.5), u0b, time_axis(0.0, 2.0, 0.5),
                          None, keep_history=True)
    assert not res.failed.any()
    assert 0.0 < np.max(res.history[0, 1]) < solver.BLOWUP_LIMIT


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


@pytest.mark.parametrize("n, npts", [(1, 32), (2, 8)])
def test_state_dependent_a_step_matches_dense_solve(monkeypatch, n, npts):
    # one step of A that reads u, against I - dt L_a written out densely
    # from apply_operator with a at each row's left state: an oracle that
    # shares neither the tridiagonal split nor the sparse matrix builder
    grid = Grid.regular(n, npts)
    cm = build_model(ModelParams(a_kind="expr", a_expr="1 + 0.5*u/(1+abs(u))",
                                 iota=0.5, g_kind="zero"), n, grid.extent)
    u0b, times, dW = batch_inputs(grid, cm, rows=B_ROWS)
    assert dW is None
    calls, name = [], "dpttrf" if n == 1 else "splu"
    monkeypatch.setattr(solver, name, counting(getattr(solver, name), calls))
    got = integrate_batch(grid, cm, SolverConfig(), u0b, times[:2], None,
                          keep_history=True).history[:, -1]
    assert len(calls) == (1 if n == 1 else B_ROWS)
    dt = float(times[1] - times[0])
    xs = grid.coords_flat()
    for b in range(B_ROWS):
        a = np.asarray(cm.a(float(times[0]), xs, u0b[b]), dtype=float)
        L = np.stack([solver.apply_operator(grid, a, e) for e in np.eye(grid.size)], axis=1)
        close(got[b], np.linalg.solve(np.eye(grid.size) - dt * L, u0b[b]))


# ---------------------------------------------------------------------------
# A that reads t, evaluated and factored per block of steps

# the coefficient models by which of t and u A reads
A_READS = {
    "t": ModelParams(a_kind="random_elliptic", iota=0.5, a_seed=2),
    "u": ModelParams(a_kind="expr", a_expr="1 + 0.5*u/(1+abs(u))", iota=0.5),
    "neither": ModelParams(a_kind="expr", a_expr="1 + 0.5*sin(x)", iota=0.5),
}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("reads", sorted(A_READS))
def test_a_is_evaluated_once_per_block(monkeypatch, n, reads):
    # M_STEPS steps in blocks of K_STEPS: A that reads t alone is called once
    # per block, with the block's step times as a column and u=None; A that
    # reads u once per step, with the rows' states; A that reads neither once
    grid = grid_for(n)
    cm = build_model(A_READS[reads], n, grid.extent)
    assert cm.a_deps == (frozenset() if reads == "neither" else frozenset(reads))
    seen = []

    def a(t, xs, u, _a=cm.a):
        seen.append((np.shape(t), None if u is None else u.shape))
        return _a(t, xs, u)

    u0b, times, dW = batch_inputs(grid, cm, rows=B_ROWS)
    monkeypatch.setattr(solver, "_STEP_BLOCK_BYTES", K_STEPS * 8 * u0b.size)
    integrate_batch(grid, dataclasses.replace(cm, a=a), SolverConfig(), u0b,
                    times[:M_STEPS + 1], dW[:, :M_STEPS])
    want = {"t": [((k, 1), None) for k in (3, 3, 2)],
            "u": [((), u0b.shape)] * M_STEPS,
            "neither": [((), None)]}[reads]
    assert len(want) == {"t": math.ceil(M_STEPS / K_STEPS), "u": M_STEPS, "neither": 1}[reads]
    assert seen == want


@pytest.mark.parametrize("n, npts", [(1, 32), (2, 8)])
def test_block_of_t_dependent_fields_matches_dense_solve(monkeypatch, n, npts):
    # every step of blocks of K_STEPS steps of A that reads t, against
    # I - dt L_a written out densely from apply_operator with a evaluated at
    # that step's time alone: an oracle that shares neither the stacked
    # factorization nor the sparse matrix builder
    grid = Grid.regular(n, npts)
    cm = build_model(dataclasses.replace(A_READS["t"], g_kind="zero"), n, grid.extent)
    u0b, times, dW = batch_inputs(grid, cm, rows=B_ROWS, horizon=2.0)
    assert dW is None
    times = times[:M_STEPS + 1]
    monkeypatch.setattr(solver, "_STEP_BLOCK_BYTES", K_STEPS * 8 * u0b.size)
    history = integrate_batch(grid, cm, SolverConfig(), u0b, times, None,
                              keep_history=True).history
    dt = float(times[1] - times[0])
    xs = grid.coords_flat()
    for j in range(M_STEPS):
        a = np.asarray(cm.a(float(times[j]), xs, None), dtype=float)
        L = np.stack([solver.apply_operator(grid, a, e) for e in np.eye(grid.size)], axis=1)
        want = np.linalg.solve(np.eye(grid.size) - dt * L, history[:, j].T).T
        close(history[:, j + 1], want, rel=1e-13)


def test_indefinite_field_inside_a_block(monkeypatch):
    # A that reads t has negative faces at step `bad` alone, in the middle of
    # a block of every step: the steps before it keep the bits of blocks of
    # one step, every row fails at that step, and nothing is raised
    bad = 4

    def a(t, xs, u):
        return np.where(t == times[bad], -1.0, 1.0) * (1.0 + 0.5 * np.sin(xs[0] + t))

    grid = grid_for(1)
    cm = hand_built(a, "t")
    u0b, times, _ = batch_inputs(grid, cm, rows=B_ROWS)
    times = times[:M_STEPS + 1]

    def run(steps):
        monkeypatch.setattr(solver, "_STEP_BLOCK_BYTES", steps * 8 * u0b.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return integrate_batch(grid, cm, SolverConfig(), u0b, times, None,
                                   keep_history=True)

    ref, got = run(1), run(M_STEPS)
    for res in (ref, got):
        assert res.failed.all()
        assert list(res.fail_step) == [bad] * B_ROWS
        assert np.all(np.isnan(res.history[:, bad + 1:]))
    np.testing.assert_array_equal(got.history[:, :bad + 1].view(np.uint64),
                                  ref.history[:, :bad + 1].view(np.uint64))
    # the block's factorization leaves the bad field out, so the fields after
    # it are solved with the bits of each field factored alone
    dt = float(times[1] - times[0])
    fields = _coef_fields(cm, grid, grid.coords_flat(), times[:-1, None], None)
    block = solver._implicit_solver(grid, fields, dt)
    for i, field in enumerate(fields):
        got = block(u0b, i)
        if i == bad:
            assert np.all(np.isnan(got))
            continue
        alone = solver._implicit_solver(grid, field[None], dt)(u0b)
        np.testing.assert_array_equal(got.view(np.uint64), alone.view(np.uint64))


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


# ---------------------------------------------------------------------------
# every solve inverts I - dt L_a

# solve -> (fields, (splu, dpttrf) calls in 1d, in 2d); the fields are one
# field (S,), one per row, the two fields of a block of two steps, or the
# one field of a block of one step.  "fft" and "per-step" take one value
# everywhere: the shape of a picks the FFT, so a block of one step that A
# reading t gives is factored all the same
SOLVES = {
    "fft": ("one", (0, 0), (0, 0)),
    "shared-lu": ("one", (0, 1), (1, 0)),
    "per-step": ("step", (0, 1), (1, 0)),
    "per-row": ("rows", (0, 1), (B_ROWS, 0)),
    "per-block": ("block", (0, 1), (2, 0)),
}


@pytest.mark.parametrize("n, npts", [(1, 4), (1, 5), (1, 64), (2, 4), (2, 16)])
@pytest.mark.parametrize("dt_per_dx2", [0.5, 2.0])
@pytest.mark.parametrize("name", sorted(SOLVES))
def test_every_solve_inverts_the_operator(monkeypatch, n, npts, dt_per_dx2, name, rng):
    # the solve and apply_operator must agree on L_a, which the QV and
    # weak-residual diagnostics assume
    fields, calls_1d, calls_2d = SOLVES[name]
    grid = Grid.regular(n, npts)
    dt = dt_per_dx2 * grid.dx**2
    shape = {"one": grid.size, "step": (1, grid.size), "rows": (B_ROWS, grid.size),
             "block": (2, grid.size)}[fields]
    if name in ("fft", "per-step"):
        a = np.full(shape, 0.75)
    else:
        a = rng.uniform(0.5, 2.0, size=shape)
    rhs = rng.normal(size=(B_ROWS, grid.size))
    calls = count_solves(monkeypatch)
    solve = solver._implicit_solver(grid, a, dt, np.arange(B_ROWS) if fields == "rows" else None)
    # step i of a block solves with field i; the other solves serve one step
    for i, field in enumerate(a if fields in ("step", "block") else [a]):
        x = solve(rhs, i)
        residual = x - dt * solver.apply_operator(grid, field, x) - rhs
        assert np.max(np.abs(residual)) <= 1e-13 * np.max(np.abs(rhs))
    assert tuple(len(calls[name]) for name in FACTORIZERS) == (
        calls_1d if n == 1 else calls_2d)


@pytest.mark.parametrize("n", [1, 2])
def test_per_row_solve_skips_unlisted_rows(n, rng):
    # row 1 is left out of `rows`, or has one non-finite entry in its rhs or
    # its field; in the stacked 1d call that entry would reach row 2
    grid = grid_for(n)
    dt = grid.dx**2
    a = rng.uniform(0.5, 2.0, size=(B_ROWS, grid.size))
    rhs = rng.normal(size=(B_ROWS, grid.size))
    every = solver._implicit_solver(grid, a, dt, np.arange(B_ROWS))(rhs)
    for row1 in ("unlisted", "inf rhs", "nan rhs", "inf field", "nan field"):
        rows = np.array([0, 2]) if row1 == "unlisted" else np.arange(B_ROWS)
        bad_a, bad_rhs = a.copy(), rhs.copy()
        if row1 != "unlisted":
            value, where = row1.split()
            (bad_rhs if where == "rhs" else bad_a)[1, grid.size // 2] = float(value)
        some = solver._implicit_solver(grid, bad_a, dt, rows)(bad_rhs)
        assert np.all(np.isnan(some[1])), row1
        np.testing.assert_array_equal(some[[0, 2]].view(np.uint64),
                                      every[[0, 2]].view(np.uint64), err_msg=row1)


# ---------------------------------------------------------------------------
# per-path statistics of the step loop

@pytest.mark.parametrize("n", [1, 2])
def test_step_loop_statistics_match_history(n, history_statistics):
    # the cubic blow-up of test_blowup_isolation_under_refactored_a on signed
    # rows: row 0 fails in its first steps; row 1 has negative entries from
    # the start and, under the cubic drift, a negative part that keeps
    # growing after row 0 has turned NaN, so its energy peaks late; row 2
    # never goes negative; row 3 fails only after the first region ends; the
    # negative part of row 4 only spreads out, so its energy peaks at time 0
    grid = grid_for(n)
    params = dataclasses.replace(REFACTORED_A["random_elliptic"], f_kind="expr",
                                 f_expr="u * u * u", g_kind="zero", m=0,
                                 growth_bound=1e9)
    cm = build_model(params, n, grid.extent)
    times = time_axis(0.0, 40.0, 0.5)
    bump = make_initial_condition("bump", grid, amplitude=0.1).flat()
    u0b = np.stack([np.full(grid.size, 50.0), bump - 0.1, bump,
                    np.full(grid.size, 0.2), -bump])
    ball = Ball((0.0,) * n, 1.0)
    regions = [region_rows(grid, times, SpaceTimeRect(lo, hi, ball))
               for lo, hi in ((0.0, 5.0), (20.0, 40.0))]
    res = integrate_batch(grid, cm, SolverConfig(dt=0.5), u0b, times, None,
                          keep_history=True, regions=regions)
    assert list(res.failed) == [True, False, False, True, False]
    assert res.fail_step[3] > regions[0][0][-1]
    assert res.sup.shape == res.inf.shape == (2, 5)
    sup, inf, energy = history_statistics(grid, times, res, regions)
    np.testing.assert_array_equal(res.sup, sup)
    np.testing.assert_array_equal(res.inf, inf)
    np.testing.assert_array_equal(res.neg_energy, energy)
    assert np.all(np.isnan(res.sup[:, [0, 3]])) and np.all(np.isnan(res.neg_energy[[0, 3]]))
    negative = [[neg_part_energy(FieldSnapshot(grid, 0.0, v.reshape(grid.shape)))
                 for v in res.history[b]] for b in (1, 4)]
    # row 1's energy is reached only after row 0's failure step
    assert int(np.argmax(negative[0])) > res.fail_step[0] + 1
    assert res.neg_energy[1] > negative[0][0] > 0.0
    assert res.neg_energy[2] == 0.0
    assert int(np.argmax(negative[1])) == 0
