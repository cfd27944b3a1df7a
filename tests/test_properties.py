"""Property tests of the reproducibility contract.

An ensemble's per-path summaries may not depend on the chunk size or the
thread count, and the statistics `integrate_batch` takes in its step loop
must equal the same reductions of the kept history and may not depend on
which rows share a batch or on how many steps share a block.  Specs and
batches are generated small, over every kind of A, both schemes, trig and
expression noise, and drifts that make some paths fail.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spdelab import solver
from spdelab.fields import Grid, region_rows
from spdelab.geometry import Ball, SpaceTimeRect
from spdelab.montecarlo import ExperimentSpec, run_ensemble
from spdelab.solver import (ModelParams, SolverConfig, build_model, draw_increments,
                            integrate_batch, path_seed, time_axis)

HORIZON = 0.25
A_KINDS = {
    "identity": dict(),
    "constant": dict(a_kind="constant", a_value=0.5, iota=0.5),
    "random_elliptic": dict(a_kind="random_elliptic", iota=0.5, a_seed=3),
    "reads t": dict(a_kind="expr", a_expr="1 + 0.5*sin(8*t)", iota=0.5),
    "reads u": dict(a_kind="expr", a_expr="1 + 0.5*u/(1+abs(u))", iota=0.5),
}
# the cubic drift blows up large data within the horizon
DRIFTS = {"none": dict(), "linear": dict(f_kind="linear", lambda_f=0.5),
          "cubic": dict(f_kind="expr", f_expr="10*u*u*u", growth_bound=1e9)}
NOISES = {"trig": dict(), "expr": dict(g_kind="expr", g_expr="0.3*sin(u) + 0.1*u*cos(x)")}
RECTS = {"Q": (0.05, 0.15, 1.0), "P": (0.1, HORIZON, 1.5)}


@st.composite
def setups(draw):
    n = draw(st.sampled_from([1, 2]))
    grid = Grid.regular(n, draw(st.sampled_from([8, 16])))
    params = ModelParams(**A_KINDS[draw(st.sampled_from(sorted(A_KINDS)))],
                         **DRIFTS[draw(st.sampled_from(sorted(DRIFTS)))],
                         **NOISES[draw(st.sampled_from(sorted(NOISES)))])
    scheme = draw(st.sampled_from(["semi-implicit", "explicit"]))
    # the explicit scheme's stability bound for A up to 1/iota
    dt = grid.dx**2 * params.iota / (2 * n) if scheme == "explicit" else None
    regions = {name: SpaceTimeRect(lo, hi, Ball((0.0,) * n, r))
               for name, (lo, hi, r) in RECTS.items()}
    return grid, params, SolverConfig(dt=dt, scheme=scheme), regions


def assert_same_summaries(got, want):
    for name in want.sup:
        np.testing.assert_array_equal(got.sup[name], want.sup[name])
        np.testing.assert_array_equal(got.inf[name], want.inf[name])
    np.testing.assert_array_equal(got.neg_energy, want.neg_energy)
    np.testing.assert_array_equal(got.failed, want.failed)
    np.testing.assert_array_equal(got.fail_steps, want.fail_steps)


@settings(max_examples=12)
@given(setup=setups(), paths=st.integers(1, 6), amplitude=st.floats(0.5, 1.5),
       seed=st.integers(0, 2**16))
def test_ensemble_summaries_ignore_chunk_and_threads(setup, paths, amplitude, seed):
    grid, params, cfg, regions = setup
    spec = ExperimentSpec(grid=grid, model=params, solver=cfg, horizon=HORIZON,
                          ic_amplitude=amplitude, n_paths=paths, master_seed=seed,
                          chunk=paths, regions=regions)
    want = run_ensemble(spec)
    for chunk in range(1, paths + 1):
        spec.chunk = chunk
        for threads in (1, 2):
            assert_same_summaries(run_ensemble(spec, threads=threads), want)


@st.composite
def signed_batches(draw):
    grid, params, cfg, regions = draw(setups())
    rows = draw(st.integers(2, 5))
    # each row's scale sets whether the cubic drift blows it up in time, and
    # a negative offset lets it grow a negative part after another row fails
    scales = draw(arrays(float, (rows, 1), elements=st.sampled_from([3.0, 0.3, 0.1])))
    offsets = draw(arrays(float, (rows, 1), elements=st.sampled_from([-1.0, 0.0, 1.0])))
    u0b = scales * (offsets + draw(arrays(float, (rows, grid.size),
                                          elements=st.floats(-1.0, 1.0, allow_subnormal=False),
                                          fill=st.nothing())))
    split = draw(st.integers(1, rows - 1))
    # noisy batches draw each row's increments from its own seed; the others
    # integrate the noise-free equation, so rows differ only in their data
    noise_seed = draw(st.none() | st.integers(0, 2**16))
    return grid, params, cfg, regions, u0b, split, noise_seed


def block_steps(steps, u0b):
    """A step-block budget that makes integrate_batch take `steps` steps per block."""
    return steps * 8 * u0b.size


# enough examples that some rows fail inside a block of 3 steps
@settings(max_examples=150)
@given(batch=signed_batches())
def test_step_loop_statistics_match_history_and_ignore_batching(batch, history_statistics):
    grid, params, cfg, regions, u0b, split, noise_seed = batch
    cm = build_model(params, grid.n, grid.extent)
    dt = cfg.step_size(grid)
    times = time_axis(0.0, HORIZON, dt)
    M = times.size - 1
    rows = [region_rows(grid, times, rect) for rect in regions.values()]
    dW = None
    if noise_seed is not None:
        dW = np.stack([draw_increments(path_seed(noise_seed, b), M, cm.m, dt)
                       for b in range(u0b.shape[0])])
    res = integrate_batch(grid, cm, cfg, u0b, times, dW, keep_history=True, regions=rows)
    sup, inf, energy = history_statistics(grid, times, res, rows)
    np.testing.assert_array_equal(res.sup, sup)
    np.testing.assert_array_equal(res.inf, inf)
    np.testing.assert_array_equal(res.neg_energy, energy)
    for part in (slice(0, split), slice(split, None)):
        alone = integrate_batch(grid, cm, cfg, u0b[part], times,
                                None if dW is None else dW[part], regions=rows)
        np.testing.assert_array_equal(alone.sup, res.sup[:, part])
        np.testing.assert_array_equal(alone.inf, res.inf[:, part])
        np.testing.assert_array_equal(alone.neg_energy, res.neg_energy[part])
    # one step per block, a block that ends inside the run, and one block
    for steps in (1, 3, M):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_STEP_BLOCK_BYTES", block_steps(steps, u0b))
            blocked = integrate_batch(grid, cm, cfg, u0b, times, dW, keep_history=True,
                                      regions=rows)
        for name in ("final", "history", "sup", "inf", "neg_energy", "failed", "fail_step"):
            got, want = (np.ascontiguousarray(getattr(r, name)) for r in (blocked, res))
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8),
                                          err_msg=f"{name} with {steps} steps per block")
