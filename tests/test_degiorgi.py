"""Truncation iteration: cutoffs, energies, martingale sup, trace."""
import math

import numpy as np
import pytest

from spdelab.degiorgi import (CutoffFamily, IterationParams, iteration_trace,
                              martingale_sup, shrink_radius, time_window,
                              truncate, truncation_energy, windowed_qv,
                              _martingale_increments)
from spdelab.errors import InvalidArgumentError
from spdelab.fields import (FieldPath, Grid, MixedNormSpec, lpq_norm,
                            smoothstep, sup_on)
from spdelab.geometry import Ball, SpaceTimeRect

from oracles import cutoff_value


def test_shrink_radius_sequence():
    # [TRIVIAL] b_k = 1/2 + 2^-(k+1)
    assert shrink_radius(0) == 1.0
    assert shrink_radius(1) == 0.75
    assert shrink_radius(2) == 0.625
    assert shrink_radius(10) == pytest.approx(0.5, abs=1e-3)
    with pytest.raises(InvalidArgumentError):
        shrink_radius(-1)


def test_time_window_sequence():
    assert time_window(0) == (0.0, 1.0)
    lo, hi = time_window(1)
    assert hi == 1.0 and lo == pytest.approx(1.0 - 0.75**2)
    # windows are nested and increasing in k
    for k in range(5):
        assert time_window(k + 1)[0] > time_window(k)[0]


def test_cutoff_plateau_and_support():
    fam = CutoffFamily(1)
    for k in (0, 1, 3):
        inner = shrink_radius(k)
        outer = 1.5 if k == 0 else shrink_radius(k - 1)
        assert cutoff_value(fam, k, 0.0) == 1.0
        assert cutoff_value(fam, k, inner * 0.999) == 1.0
        assert cutoff_value(fam, k, outer * 1.001) == 0.0
        mid = cutoff_value(fam, k, (inner + outer) / 2.0)
        assert 0.0 < mid < 1.0


def test_cutoff_slope_within_budget():
    # |phi_k'| <= 3 * 2^k <= n * 2^(k+2)
    fam = CutoffFamily(1)
    for k in (0, 1, 2, 4):
        x = np.linspace(0.0, 1.6, 20001)
        v = cutoff_value(fam, k, x)
        slope = np.abs(np.diff(v)) / (x[1] - x[0])
        assert slope.max() <= 3.0 * 2.0**k * (1.0 + 1e-6)
        assert 3.0 * 2.0**k <= 1 * 2.0 ** (k + 2)


def test_cutoff_sample_matches_value(grid32):
    fam = CutoffFamily(1)
    xs = grid32.coords1d()
    assert np.allclose(fam.sample(grid32, 2), cutoff_value(fam, 2, xs))
    grid = Grid.regular(2, 16)
    fam2 = CutoffFamily(2)
    pts = np.stack(grid.coords_flat(), -1)
    for k in (0, 2):
        assert np.allclose(fam2.sample(grid, k), cutoff_value(fam2, k, pts))
    with pytest.raises(InvalidArgumentError, match="last axis 3"):
        cutoff_value(fam2, 2, np.zeros((4, 3)))


def test_truncate_exact(grid32):
    times = np.linspace(0.0, 1.0, 5)
    vals = np.linspace(-1.0, 3.0, grid32.size)[None, :].repeat(5, axis=0)
    path = FieldPath(grid32, times, vals)
    a = 2.0
    for k in (0, 1, 3):
        shift = a * (1.0 - 2.0 ** (-k))
        got = truncate(path, k, a)
        assert np.array_equal(got.values, np.clip(vals - shift, 0.0, None))
    with pytest.raises(InvalidArgumentError):
        truncate(path, 0, -1.0)
    with pytest.raises(InvalidArgumentError):
        truncate(path, -1, 1.0)


def test_truncation_energy_double_sum_oracle(grid32):
    # independent recomputation from the documented pieces: shift, cutoff
    # profile via smoothstep, squared (4, 2) norm over I_k x B_1
    rng = np.random.default_rng(21)
    times = np.linspace(0.0, 1.0, 17)
    vals = rng.gamma(2.0, 1.0, size=(17, grid32.size))
    path = FieldPath(grid32, times, vals)
    fam = CutoffFamily(1)
    a, k = 1.5, 1
    shift = a * (1.0 - 2.0 ** (-k))
    inner, outer = shrink_radius(k), shrink_radius(k - 1)
    phi = smoothstep(inner, outer, np.abs(grid32.coords1d()))
    cut = np.clip(vals - shift, 0.0, None) * phi[None, :]
    wpath = FieldPath(grid32, times, cut)
    rect = SpaceTimeRect(*time_window(k), Ball((0.0,), 1.0))
    want = lpq_norm(wpath, MixedNormSpec(4.0, 2.0), rect) ** 2
    assert truncation_energy(path, fam, k, a) == pytest.approx(want, rel=1e-12)


def test_energy_vanishes_above_double_sup(grid32):
    # a >= 2 sup u makes every k >= 1 shift at least sup u, so the
    # truncation is identically zero, exactly
    rng = np.random.default_rng(33)
    times = np.linspace(0.0, 1.0, 9)
    vals = rng.uniform(0.0, 1.0, size=(9, grid32.size))
    path = FieldPath(grid32, times, vals)
    fam = CutoffFamily(1)
    a = 2.0 * float(vals.max())
    for k in range(1, 6):
        assert truncation_energy(path, fam, k, a) == 0.0
    assert truncation_energy(path, fam, 0, a) > 0.0


def test_martingale_sup_brute_force(long_path, default_model):
    """The trace's single-pass X* equals the O(M^2) max over increment windows."""
    fam = CutoffFamily(1)
    a = 0.25 * sup_on(long_path, SpaceTimeRect(0.0, 1.0, Ball((0.0,), 1.0)))
    trace = iteration_trace(long_path, default_model, fam, IterationParams(a=a, K=1))
    for k in (0, 1):
        _, incr = _martingale_increments(long_path, default_model, fam, k, a, 1.0)
        prefix = np.concatenate([[0.0], np.cumsum(incr)])
        brute = max(float(prefix[t] - prefix[s])
                    for t in range(prefix.size) for s in range(t + 1))
        got = trace.rows[k].mart_sup
        assert got == pytest.approx(max(brute, 0.0), rel=1e-12)
        assert got >= 0.0


def test_martingale_scaling_in_eps(long_path, default_model):
    fam = CutoffFamily(1)
    a = 0.5
    x1 = martingale_sup(long_path, default_model, fam, 1, a, eps=0.5)
    x2 = martingale_sup(long_path, default_model, fam, 1, a, eps=1.0)
    assert x2 == pytest.approx(2.0 * x1, rel=1e-12)
    q1 = windowed_qv(long_path, default_model, fam, 1, a, eps=0.5)
    q2 = windowed_qv(long_path, default_model, fam, 1, a, eps=1.0)
    assert q2 == pytest.approx(4.0 * q1, rel=1e-12)


def test_iteration_params_validation():
    with pytest.raises(InvalidArgumentError):
        IterationParams(a=0.0)
    with pytest.raises(InvalidArgumentError):
        IterationParams(a=1.0, eps=1.5)
    with pytest.raises(InvalidArgumentError):
        IterationParams(a=1.0, K=0)
    with pytest.raises(InvalidArgumentError):
        IterationParams(a=1.0, delta=1.0)


def test_iteration_trace_consistency(long_path, default_model):
    base = sup_on(long_path, SpaceTimeRect(0.0, 1.0, Ball((0.0,), 1.0)))
    params = IterationParams(a=0.5 * base, K=6, delta=0.25)
    fam = CutoffFamily(1)
    tr = iteration_trace(long_path, default_model, fam, params)
    assert len(tr.rows) == 7
    assert tr.rows[0].c_hat is None
    # recompute every c_hat from the stored rows
    for k in range(1, 7):
        U, Up = tr.rows[k].energy, tr.rows[k - 1].energy
        Xp = tr.rows[k - 1].mart_sup
        if Up > 0.0:
            want = (U * tr.a ** (2 * tr.delta) / ((Up + Xp) * Up**tr.delta)) \
                ** (1.0 / k)
            assert tr.rows[k].c_hat == pytest.approx(want, rel=1e-12)
        else:
            assert tr.rows[k].c_hat is None
    assert tr.c_hat_max == max(r.c_hat for r in tr.rows[1:] if r.c_hat is not None)
    assert all(r.energy >= 0.0 for r in tr.rows)


def test_iteration_trace_vanishing_path(grid32):
    # deterministic heat flow from a bump: a above twice the sup forces
    # all energies past k = 0 to vanish and the trace to report decay
    from spdelab.solver import (ModelParams, SolverConfig, build_model,
                                make_initial_condition, solve_path)
    cm = build_model(ModelParams(g_kind="zero", m=0), 1)
    u0 = make_initial_condition("bump", grid32)
    path = solve_path(u0, cm, SolverConfig(), 1.0, seed=0)
    a = 2.0 * float(path.values.max())
    tr = iteration_trace(path, cm, CutoffFamily(1), IterationParams(a=a, K=4))
    assert [r.energy for r in tr.rows[1:]] == [0.0] * 4
    assert tr.decayed
    assert all(r.qv_bound == 0.0 for r in tr.rows)
    assert all(r.c_hat is None for r in tr.rows[2:])
