"""Coefficient models, the semi-implicit stepper, and weak-form diagnostics."""
import math
import re

import numpy as np
import pytest

from spdelab.errors import (BlowUpError, DimensionMismatchError,
                            InvalidArgumentError, ModelInvalidError)
from spdelab.fields import FieldSnapshot, Grid
from spdelab.geometry import Ball, SpaceTimeRect
from spdelab.solver import (CoefficientModel, ModelParams, SolverConfig,
                            TestFunction, apply_operator, build_model,
                            compile_expression, draw_increments,
                            integrate_batch, make_initial_condition,
                            path_seed, periodic_heat_kernel, qv_check,
                            solve_path, time_axis, validate_model,
                            weak_residual)


# ---------------------------------------------------------------------------
# expression sublanguage

def test_expression_matches_numpy():
    fn, used = compile_expression("sin(pi * x1) * u + 2.5 / (1 + t)", 1)
    assert used >= {"t", "x1", "u"}
    xs = (np.linspace(-2, 2, 9),)
    u = np.arange(9.0)
    got = fn(0.5, xs, u)
    want = np.sin(np.pi * xs[0]) * u + 2.5 / 1.5
    assert np.allclose(got, want)


def test_expression_two_dims_and_minmax():
    fn, used = compile_expression("max(x1, x2) - min(u, 0.5)", 2)
    assert used >= {"x1", "x2", "u"}
    xs = (np.array([1.0, -1.0]), np.array([0.0, 3.0]))
    u = np.array([0.2, 0.9])
    assert np.allclose(fn(0.0, xs, u),
                       np.maximum(xs[0], xs[1]) - np.minimum(u, 0.5))


def test_expression_unary_signs_are_exact():
    u = np.array([-3.0, 0.1, 7.25])
    minus, _ = compile_expression("-0.2*u", 1)
    plus, _ = compile_expression("+u", 1)
    assert np.array_equal(minus(0.0, (u,), u), -0.2 * u)
    assert np.array_equal(plus(0.0, (u,), u), u)


def test_expression_rejects_unsafe_constructs():
    for text in ("__import__('os')", "u.__class__", "open('x')",
                 "lambda v: v", "x3", "u ** 2"):
        with pytest.raises(InvalidArgumentError):
            compile_expression(text, 1)


# each expression against the numpy calls it stands for, made in the same
# order; together they use every operator, both signs, every function and
# every name of the grammar at n = 2
EXPRESSION_ORACLES = {
    "u + x1": lambda t, x1, x2, u: np.add(u, x1),
    "t - u": lambda t, x1, x2, u: np.subtract(t, u),
    "x2 * u": lambda t, x1, x2, u: np.multiply(x2, u),
    "u / (3 + x)": lambda t, x1, x2, u: np.divide(u, np.add(3.0, x1)),
    "-u * t": lambda t, x1, x2, u: np.multiply(-u, t),
    "+x2 - -0.25": lambda t, x1, x2, u: np.subtract(+x2, -0.25),
    "sin(u)": lambda t, x1, x2, u: np.sin(u),
    "cos(x2 * t)": lambda t, x1, x2, u: np.cos(np.multiply(x2, t)),
    "exp(-t)": lambda t, x1, x2, u: np.exp(-t),
    "abs(u - 0.5)": lambda t, x1, x2, u: np.abs(np.subtract(u, 0.5)),
    "min(u, x1)": lambda t, x1, x2, u: np.minimum(u, x1),
    "max(t, -u)": lambda t, x1, x2, u: np.maximum(t, -u),
    "pi * x": lambda t, x1, x2, u: np.multiply(math.pi, x1),
    "1 + 0.5*u/(1+abs(u))": lambda t, x1, x2, u: np.add(
        1.0, np.divide(np.multiply(0.5, u), np.add(1.0, np.abs(u)))),
}


@pytest.mark.parametrize("text", list(EXPRESSION_ORACLES))
@pytest.mark.parametrize("form", ["batch", "time column"])
def test_compiled_expression_is_bitwise_numpy(text, form):
    rng = np.random.default_rng(3)
    S = 7
    xs = (rng.uniform(-2.0, 2.0, S), rng.uniform(-2.0, 2.0, S))
    if form == "batch":      # scalar t, (B, S) states
        t, u = 0.375, rng.normal(size=(4, S))
    else:                    # (J, 1) column of step times, (J, S) states
        t, u = rng.uniform(0.0, 2.0, (5, 1)), rng.normal(size=(5, S))
    fn, _ = compile_expression(text, 2)
    got, want = fn(t, xs, u), EXPRESSION_ORACLES[text](t, *xs, u)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


def test_expression_used_names():
    assert compile_expression("x + x2 * t + pi", 2)[1] == {"x", "x2", "t", "pi"}
    assert compile_expression("2.5", 1)[1] == frozenset()


@pytest.mark.parametrize("text, message", [
    ("foo(1) + x3", "unknown function"),
    ("x3 + foo(1)", "unknown name 'x3'"),
    ("u ** 2 + foo(1)", "unsupported syntax BinOp"),
    ("sin(u, t) + x3", "sin takes 1 argument"),
    ("max(u, x3) + foo(1)", "unknown name 'x3'"),
])
def test_expression_reports_first_offending_node(text, message):
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        compile_expression(text, 1)


# ---------------------------------------------------------------------------
# model construction and validation

def test_build_model_identity_default():
    cm = build_model(ModelParams(), 1)
    assert cm.a is None and cm.a_deps == frozenset()
    assert cm.f is None
    assert cm.m == 4 and cm.g is not None
    assert cm.iota == 1.0


def test_build_model_unknown_kinds():
    with pytest.raises(InvalidArgumentError):
        build_model(ModelParams(a_kind="nope"), 1)
    with pytest.raises(InvalidArgumentError):
        build_model(ModelParams(f_kind="nope"), 1)
    with pytest.raises(InvalidArgumentError):
        build_model(ModelParams(g_kind="nope", m=1), 1)
    with pytest.raises(InvalidArgumentError):
        build_model(ModelParams(a_kind="expr"), 1)     # missing a_expr


def test_random_elliptic_respects_iota():
    iota = 0.3
    cm = build_model(ModelParams(a_kind="random_elliptic", iota=iota,
                                 a_seed=5), 1)
    grid = Grid.regular(1, 64)
    xs = grid.coords_flat()
    for t in (0.0, 0.37, 1.0):
        av = np.asarray(cm.a(t, xs, None), dtype=float)
        assert np.all(av >= iota - 1e-12)
        assert np.all(av <= 1.0 / iota + 1e-12)


def test_validate_model_flags_growth_violation():
    # |f| = |u| but the declared growth bound is 0.5
    cm = build_model(ModelParams(f_kind="linear", lambda_f=1.0, g_kind="zero",
                                 m=0, growth_bound=0.5), 1)
    with pytest.raises(ModelInvalidError) as err:
        validate_model(cm)
    assert err.value.witness is not None


def test_validate_model_flags_ellipticity_violation():
    cm = build_model(ModelParams(a_kind="expr", a_expr="3", iota=0.5), 1)
    with pytest.raises(ModelInvalidError, match="ellipticity violated") as err:
        validate_model(cm)
    t, x, u = err.value.witness
    xs = tuple(np.array([c]) for c in x)
    a = float(np.broadcast_to(cm.a(t, xs, np.array([u])), (1,))[0])
    assert not (cm.iota <= a <= 1.0 / cm.iota)


# models that break their bound only for |u| of order 1 to 10: each sample
# must draw its own magnitude to reach them
LARGE_U_VIOLATIONS = {
    "ellipticity": ModelParams(a_kind="expr", a_expr="1 + 0.5*u*u", iota=0.5),
    "growth": ModelParams(f_kind="expr", f_expr="0.2*u*u", g_kind="zero"),
}


@pytest.mark.parametrize("bound", sorted(LARGE_U_VIOLATIONS))
def test_validate_model_reaches_large_u(bound):
    cm = build_model(LARGE_U_VIOLATIONS[bound], 1)
    with pytest.raises(ModelInvalidError, match=f"{bound} .*violated") as err:
        validate_model(cm, extent=2.0, t_max=1.0)
    t, x, u = err.value.witness
    xs = tuple(np.array([c]) for c in x)
    uv = np.array([u])
    if bound == "ellipticity":
        a = float(np.broadcast_to(cm.a(t, xs, uv), (1,))[0])
        assert not (cm.iota <= a <= 1.0 / cm.iota)
    else:
        size = abs(float(np.broadcast_to(cm.f(t, xs, uv), (1,))[0]))
        assert cm.g is None and size > cm.growth * abs(u)


def test_validate_model_accepts_default():
    cm = build_model(ModelParams(), 1)
    report = validate_model(cm)
    # identity A sits on both ellipticity bounds at iota = 1, and the bound
    # on |g| is exact: the m = 4 trig profiles have sum of squares 1 at
    # every x, so |g| = lambda_g |u| up to roundoff
    assert report.worst_ellip_low == report.worst_ellip_high == 0.0
    assert abs(report.worst_growth_margin) <= 1e-12 * cm.growth


def test_validate_model_reports_growth_slack():
    # |g| = 0.1 |u| under a declared bound of 5: a slack of 4.9, which a
    # margin taken at the sample u = 0 would read as 0
    report = validate_model(build_model(ModelParams(lambda_g=0.1, growth_bound=5.0), 1))
    assert report.worst_growth_margin <= -4.9 + 1e-12


@pytest.mark.parametrize("kwargs, name", [
    ({"t_max": math.nan}, "t_max"), ({"t_max": math.inf}, "t_max"),
    ({"t_max": -1.0}, "t_max"),
    ({"extent": math.inf}, "extent"), ({"extent": -2.0}, "extent"),
    ({"extent": 0.0}, "extent"), ({"extent": math.nan}, "extent"),
])
def test_validate_model_rejects_bad_arguments(kwargs, name):
    cm = build_model(ModelParams(), 1)
    with pytest.raises(InvalidArgumentError, match=name):
        validate_model(cm, **kwargs)


def test_validate_model_accepts_zero_horizon():
    cm = build_model(ModelParams(), 1)
    report = validate_model(cm, t_max=0.0)
    # the bound on |g| is exact, as in test_validate_model_accepts_default
    assert report.worst_ellip_low == 0.0
    assert abs(report.worst_growth_margin) <= 1e-12 * cm.growth


# ---------------------------------------------------------------------------
# seeding

def test_path_seed_is_order_independent():
    a = draw_increments(path_seed(2024, 5), 8, 2, 0.01)
    b = draw_increments(path_seed(2024, 5), 8, 2, 0.01)
    c = draw_increments(path_seed(2024, 6), 8, 2, 0.01)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_draw_increments_moments(rng):
    dt = 0.02
    dW = draw_increments(123, 20000, 1, dt)
    assert dW.shape == (20000, 1)
    assert abs(float(dW.mean())) < 3.0 * math.sqrt(dt / 20000)
    assert float(dW.var()) == pytest.approx(dt, rel=0.05)


def test_time_axis():
    t = time_axis(0.0, 1.0, 0.25)
    assert np.allclose(t, [0.0, 0.25, 0.5, 0.75, 1.0])
    # non-divisible horizon rounds the step count up
    t = time_axis(0.0, 1.0, 0.3)
    assert t.size == 5 and t[-1] >= 1.0
    t = time_axis(0.5, 0.5, 0.25)
    assert t[0] == 0.5 and t[-1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# discrete operator

def laplacian_oracle(grid, v):
    return (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / grid.dx**2


def test_apply_operator_identity_is_laplacian(grid32, rng):
    cm = build_model(ModelParams(), 1)
    xs = grid32.coords_flat()
    v = rng.normal(size=grid32.size)
    from spdelab.solver import _coef_fields
    coef = _coef_fields(cm, grid32, xs, 0.0, None)
    got = apply_operator(grid32, coef, v)
    assert np.allclose(got, laplacian_oracle(grid32, v), atol=1e-10)


def test_apply_operator_conservative(grid32, rng):
    # row sums and column sums of the flux form vanish: constants are
    # steady states and total mass is conserved, for any coefficient field
    cm = build_model(ModelParams(a_kind="random_elliptic", iota=0.4, a_seed=3), 1)
    xs = grid32.coords_flat()
    from spdelab.solver import _coef_fields
    coef = _coef_fields(cm, grid32, xs, 0.2, None)
    const = np.ones(grid32.size)
    assert np.allclose(apply_operator(grid32, coef, const), 0.0, atol=1e-12)
    v = rng.normal(size=grid32.size)
    assert abs(float(np.sum(apply_operator(grid32, coef, v)))) < 1e-10


# ---------------------------------------------------------------------------
# integration oracles

def test_linear_drift_exact_discrete_solution(grid32):
    # constant-in-space data stays constant, so diffusion vanishes and the
    # semi-implicit update is exactly u_{j+1} = (1 + lambda dt) u_j
    lam = 0.7
    cm = build_model(ModelParams(f_kind="linear", lambda_f=lam, g_kind="zero",
                                 m=0), 1)
    u0 = make_initial_condition("constant", grid32, amplitude=2.0)
    cfg = SolverConfig(dt=0.01)
    path = solve_path(u0, cm, cfg, 0.2, seed=0)
    M = path.steps
    want = 2.0 * (1.0 + lam * 0.01) ** M
    assert np.allclose(path.values[-1], want, rtol=1e-12)


def test_multiplicative_noise_exact_discrete_solution(grid32):
    # g = u, constant in space: u_{j+1} = u_j (1 + dW_j) exactly
    cm = build_model(ModelParams(g_kind="expr", g_expr="u",
                                 growth_bound=1.0), 1)
    u0 = make_initial_condition("constant", grid32, amplitude=1.0)
    cfg = SolverConfig(dt=0.005)
    path = solve_path(u0, cm, cfg, 0.1, seed=path_seed(9, 0))
    growth = np.prod(1.0 + path.noise[:, 0])
    assert np.allclose(path.values[-1], growth, rtol=1e-12)


def test_heat_benchmark_single_resolution():
    # [DERIVED] periodized heat kernel; both dt and dx^2 errors are tiny
    grid = Grid.regular(1, 128)
    cm = build_model(ModelParams(g_kind="zero", m=0), 1)
    t0, t1 = 0.0625, 0.25
    u0 = FieldSnapshot(grid, t0, periodic_heat_kernel(grid.coords1d(), t0))
    path = solve_path(u0, cm, SolverConfig(), t1 - t0, seed=0)
    want = periodic_heat_kernel(grid.coords1d(), t1)
    err = math.sqrt(grid.dx * float(np.sum((path.values[-1] - want) ** 2)))
    assert err < 5e-4


def test_blowup_isolation_in_batch(grid32):
    # row 0 seeds a supercritical reaction, row 1 stays at zero; the
    # failure must not leak across rows
    cm = build_model(ModelParams(f_kind="expr", f_expr="u * u * u",
                                 g_kind="zero", m=0, growth_bound=1e9), 1)
    cfg = SolverConfig(dt=0.5)
    times = time_axis(0.0, 40.0, 0.5)
    u0b = np.zeros((2, grid32.size))
    u0b[0] = 50.0
    res = integrate_batch(grid32, cm, cfg, u0b, times, None, keep_history=True)
    assert res.failed[0] and not res.failed[1]
    assert res.fail_step[0] >= 0
    assert np.all(np.isnan(res.history[0, -1]))
    assert np.all(res.history[1, -1] == 0.0)
    # frozen at NaN from the failing step onward
    assert np.all(np.isnan(res.history[0, res.fail_step[0] + 1:]))


def test_solve_path_raises_on_blowup(grid32):
    cm = build_model(ModelParams(f_kind="expr", f_expr="u * u * u",
                                 g_kind="zero", m=0, growth_bound=1e9), 1)
    u0 = make_initial_condition("constant", grid32, amplitude=50.0)
    with pytest.raises(BlowUpError) as err:
        solve_path(u0, cm, SolverConfig(dt=0.5), 40.0, seed=0)
    assert err.value.step_index is not None


# ---------------------------------------------------------------------------
# test functions and weak-form diagnostics

def test_test_function_validation(grid32):
    with pytest.raises(InvalidArgumentError):
        TestFunction(grid32, -np.ones(grid32.size))
    v = np.ones(grid32.size)      # nonzero at the wrap seam
    with pytest.raises(InvalidArgumentError):
        TestFunction(grid32, v)
    phi = TestFunction.bump(grid32, radius=1.0)
    assert np.all(phi.values >= 0.0)
    assert phi.pair(np.ones(grid32.size)) == pytest.approx(
        grid32.cell_volume() * float(np.sum(phi.values)))


def test_weak_residual_first_order_in_dt(grid64):
    cm = build_model(ModelParams(g_kind="zero", m=0), 1)
    u0 = make_initial_condition("bump", grid64)
    phi = TestFunction.bump(grid64, radius=1.0)
    dt0 = grid64.dx**2 / 2.0
    r = []
    for dt in (dt0, dt0 / 2.0):
        path = solve_path(u0, cm, SolverConfig(dt=dt), 0.125, seed=0)
        r.append(weak_residual(path, cm, phi, 0.0, 0.125))
    assert r[0] / r[1] == pytest.approx(2.0, abs=0.25)


def test_weak_residual_stochastic_consistency(stoch_path, default_model):
    # the residual with the recorded noise is of scheme order, far below
    # the size of the individual It^o terms
    phi = TestFunction.bump(stoch_path.grid, radius=1.0)
    res = weak_residual(stoch_path, default_model, phi, 0.0, 0.5)
    scale = abs(float(phi.pair(stoch_path.values[-1] - stoch_path.values[0])))
    assert res < 0.05 * max(scale, 1e-12)


def test_qv_check_zero_noise(grid32):
    cm = build_model(ModelParams(g_kind="zero", m=0), 1)
    u0 = make_initial_condition("bump", grid32)
    path = solve_path(u0, cm, SolverConfig(), 0.05, seed=0)
    phi = TestFunction.bump(grid32, radius=1.0)
    rep = qv_check(path, cm, phi)
    assert rep.pairing_qv == 0.0
    # drift removal is exact up to float roundoff
    assert rep.empirical_qv < 1e-24


def test_qv_check_single_channel_closed_form(grid32):
    # g = u: pairing_qv = sum_j <u_j, phi>^2 dt, computable directly
    cm = build_model(ModelParams(g_kind="expr", g_expr="u",
                                 growth_bound=1.0), 1)
    u0 = make_initial_condition("bump", grid32)
    path = solve_path(u0, cm, SolverConfig(), 0.05, seed=path_seed(4, 0))
    phi = TestFunction.bump(grid32, radius=1.0)
    rep = qv_check(path, cm, phi)
    want = float(np.sum(phi.pair(path.values[:-1]) ** 2)) * path.dt
    assert rep.pairing_qv == pytest.approx(want, rel=1e-12)
    assert 0.5 < rep.empirical_qv / rep.pairing_qv < 2.0


# ---------------------------------------------------------------------------
# heat kernel and initial data

def test_periodic_heat_kernel_mass_and_symmetry(grid64):
    x = grid64.coords1d()
    for t in (0.01, 0.1, 1.0):
        k = periodic_heat_kernel(x, t)
        assert grid64.dx * float(np.sum(k)) == pytest.approx(1.0, abs=1e-8)
    k = periodic_heat_kernel(x, 0.05)
    # even in x up to the asymmetric node at -extent
    assert np.allclose(k[1:], k[1:][::-1], atol=1e-12)


def test_initial_conditions(grid32):
    bump = make_initial_condition("bump", grid32, amplitude=2.0, width=1.0)
    assert float(bump.values.max()) == pytest.approx(2.0)
    assert np.all(bump.values >= 0.0)
    xs = grid32.coords1d()
    assert np.all(bump.flat()[np.abs(xs) >= 1.0] == 0.0)

    rnd = make_initial_condition("random_positive", grid32, seed=11)
    assert np.all(rnd.values > 0.0)
    again = make_initial_condition("random_positive", grid32, seed=11)
    assert np.array_equal(rnd.values, again.values)

    with pytest.raises(InvalidArgumentError):
        make_initial_condition("nope", grid32)
    with pytest.raises(InvalidArgumentError):
        make_initial_condition("bump", grid32, amplitude=0.0)
    for width in (0.0, -1.0):
        with pytest.raises(InvalidArgumentError, match="width must be positive"):
            make_initial_condition("bump", grid32, width=width)
    # the paper's excluded data: a bump between the nodes at +-2/7 vanishes
    # at every node, and an amplitude whose product overflows
    with pytest.raises(InvalidArgumentError, match="'bump' vanishes at every node"):
        make_initial_condition("bump", Grid.regular(1, 7), width=1e-3)
    with pytest.raises(InvalidArgumentError, match="'random_positive' overflows"):
        make_initial_condition("random_positive", grid32, amplitude=1.7e308)


@pytest.mark.parametrize("npts, width, peak_nodes", [
    (7, 1e-3, [3, 4]),     # the kernel itself underflows at every node
    (8, 1e-200, [4]),      # width**2 underflows to 0
    (8, 1e-320, [4]),
    (8, 1e200, list(range(8))),  # width**2 overflows
])
def test_gaussian_of_extreme_width_is_its_limit(npts, width, peak_nodes):
    # a width far below the spacing leaves the nodes nearest 0, one far
    # above it the constant, each at the amplitude (to rounding: the two
    # nodes at +-2/7 differ in their last bit)
    u0 = make_initial_condition("gaussian", Grid.regular(1, npts), amplitude=3.0, width=width)
    want = np.zeros(npts)
    want[peak_nodes] = 3.0
    assert np.allclose(u0.values, want, rtol=1e-9, atol=0.0)


def test_gaussian_2d_is_outer_product_of_1d_kernels():
    grid = Grid.regular(2, 16)
    u0 = make_initial_condition("gaussian", grid, amplitude=3.0, width=0.5)
    col = periodic_heat_kernel(grid.coords1d(), 0.25, extent=grid.extent)
    col = col / col.max()
    assert np.allclose(u0.values, 3.0 * np.outer(col, col), rtol=1e-14, atol=0.0)
