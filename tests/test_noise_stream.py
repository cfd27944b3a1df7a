"""The noise of a batch: step-major blocks drawn one segment at a time.

`integrate_batch` takes a batch's noise as the (B, M, m) increments or as
B seeds, and its private `solver._noise_blocks` hands the step loop
consecutive (k, B, m) blocks.  A seeded row draws its own Philox stream in
segments, so its blocks, joined, must equal one draw of the whole path
bit for bit, whatever the block and segment sizes; a row that fails must
not move another row's noise or result; an ensemble that keeps no
history must hold its noise one segment at a time, never as a (B, M, m)
array; a kept path's record, `IntegrationResult.noise`, is the noise it
was stepped with, and a solved path is an ensemble row, noise and all.
Noise of any other shape is refused before any step.
"""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from spdelab import solver
from spdelab.errors import DimensionMismatchError
from spdelab.fields import Grid
from spdelab.montecarlo import ExperimentSpec, run_ensemble
from spdelab.solver import (ModelParams, SolverConfig, build_model, draw_increments,
                            integrate_batch, make_initial_condition, path_seed, solve_path,
                            time_axis)

SEED = 29


def whole(rows, steps, m, dt):
    """The (B, steps, m) increments of each row drawn at once."""
    return np.stack([draw_increments(path_seed(SEED, i), steps, m, dt) for i in rows])


def joined(blocks, K):
    """Every block of a `_noise_blocks` generator, joined as (B, steps, m)."""
    blocks = [block.copy() for block in blocks]
    assert all(len(b) == K for b in blocks[:-1]) and 1 <= len(blocks[-1]) <= K
    return np.concatenate(blocks).swapaxes(0, 1)


@pytest.mark.parametrize("K", [1, 3, 7])
@pytest.mark.parametrize("blocks_per_segment", [1, 2, None], ids=["R=K", "R=2K", "R=default"])
def test_blocks_joined_equal_one_draw_per_row(monkeypatch, K, blocks_per_segment):
    # 23 steps: divided by no block size here and by no segment R they make
    B, steps, m, dt = 3, 23, 2, 0.01
    if blocks_per_segment is not None:
        monkeypatch.setattr(solver, "_STEP_BLOCK_BYTES", 8 * B * m * K * blocks_per_segment)
    rows = range(4, 4 + B)
    want = whole(rows, steps, m, dt)
    record = np.full((B, steps, m), np.nan)
    seeds = [path_seed(SEED, i) for i in rows]
    got = joined(solver._noise_blocks(seeds, m, dt, steps, K, record), K)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert record.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    # an array goes through the same reader and comes out as it went in
    again = joined(solver._noise_blocks(want, m, dt, steps, K), K)
    assert again.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_a_failing_row_leaves_the_other_rows_noise_and_results(monkeypatch):
    # row 0 blows up under a cubic drift a few blocks into the run; rows 1
    # and 2 must read the same noise, and reach the same bits, as alone
    grid = Grid.regular(1, 16)
    params = ModelParams(f_kind="expr", f_expr="u * u * u", growth_bound=1e9, m=2)
    cm = build_model(params, 1, grid.extent)
    times = time_axis(0.0, 10.0, 0.25)
    M = times.size - 1
    u0b = np.stack([np.full(grid.size, 2.0)] + [
        make_initial_condition("bump", grid, amplitude=0.1 * (1 + b)).flat() for b in (1, 2)])
    monkeypatch.setattr(solver, "_STEP_BLOCK_BYTES", 3 * 8 * u0b.size)

    def run(rows):
        return integrate_batch(grid, cm, SolverConfig(dt=0.25), u0b[rows], times,
                               [path_seed(SEED, i) for i in rows], keep_history=True)

    res = run([0, 1, 2])
    assert list(res.failed) == [True, False, False]
    assert 3 < res.fail_step[0] < M - 3
    want = whole([0, 1, 2], M, cm.m, 0.25)
    assert res.noise.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    for b in (1, 2):
        alone = run([b])
        assert not alone.failed[0]
        np.testing.assert_array_equal(alone.history[0].view(np.uint64),
                                      res.history[b].view(np.uint64))


def test_an_ensemble_without_histories_holds_no_whole_noise_array():
    # npts 32 and horizon 32 make M = 4096 steps: the whole (B, M, m)
    # increments of one 64-path chunk would take 8.4 MB
    spec = ExperimentSpec(grid=Grid.regular(1, 32), horizon=32.0, n_paths=64, chunk=64)
    M = time_axis(0.0, spec.horizon, spec.solver.step_size(spec.grid)).size - 1
    whole_bytes = spec.chunk * M * spec.model.m * 8
    assert whole_bytes > 8e6
    # a one-path run first, so caches made once per process are not counted
    run_ensemble(dataclasses.replace(spec, horizon=0.25, n_paths=1))
    tracemalloc.start()
    try:
        ens = run_ensemble(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.n_ok == spec.n_paths
    assert peak < whole_bytes / 4


def test_a_kept_history_keeps_the_noise_it_was_stepped_with():
    spec = ExperimentSpec(grid=Grid.regular(1, 16), horizon=0.5, n_paths=5, chunk=2,
                          master_seed=SEED)
    dt = spec.solver.step_size(spec.grid)
    M = time_axis(0.0, spec.horizon, dt).size - 1
    noise = {}
    run_ensemble(spec, consumers=(lambda i, path: noise.__setitem__(i, path.noise.copy()),))
    want = whole(range(spec.n_paths), M, spec.model.m, dt)
    for i in range(spec.n_paths):
        assert noise[i].view(np.uint64).tolist() == want[i].view(np.uint64).tolist()
    # and no record is made for a model without noise
    quiet = dataclasses.replace(spec, model=dataclasses.replace(spec.model, g_kind="zero", m=0))
    paths = {}
    run_ensemble(quiet, consumers=(lambda i, path: paths.__setitem__(i, path.noise),))
    assert set(paths) == set(range(spec.n_paths)) and all(v is None for v in paths.values())


def test_noise_of_the_wrong_shape_is_refused_before_any_step(monkeypatch):
    grid = Grid.regular(1, 16)
    cm = build_model(ModelParams(m=2), 1, grid.extent)
    times = time_axis(0.0, 0.25, 0.0625)
    B, M = 3, times.size - 1
    u0b = np.ones((B, grid.size))

    def step(*args):
        raise AssertionError("a step ran with mis-shaped noise")
    monkeypatch.setattr(solver, "_coef_fields", step)
    wrong = [np.zeros((B, M + 5, 2)), np.zeros((B, M - 1, 2)), np.zeros((B, M, 3)),
             np.zeros((B + 1, M, 2)), np.zeros((B - 1, M, 2)), np.zeros((M, 2)),
             [path_seed(SEED, i) for i in range(B + 1)], [SEED] * (B - 1)]
    for dW in wrong:
        with pytest.raises(DimensionMismatchError):
            integrate_batch(grid, cm, SolverConfig(), u0b, times, dW)
    # the same rule holds for a solved path's explicit increments
    u0 = make_initial_condition("bump", grid, amplitude=0.5)
    with pytest.raises(DimensionMismatchError):
        solve_path(u0, cm, SolverConfig(dt=0.0625), 0.25, seed=0,
                   increments=np.zeros((M + 5, 2)))


def test_a_solved_path_is_its_ensemble_row_bit_for_bit():
    # row 3 of 5 shares its chunk of 4 with rows 0-2
    spec = ExperimentSpec(grid=Grid.regular(1, 16), horizon=0.5, n_paths=5, chunk=4,
                          master_seed=SEED)
    kept = {}
    run_ensemble(spec, consumers=(lambda i, path: kept.__setitem__(i, path),))
    cm, u0 = spec.build()
    path = solve_path(u0, cm, spec.solver, spec.horizon, seed=path_seed(SEED, 3))
    row = kept[3]
    assert path.times.tolist() == row.times.tolist()
    assert path.values.view(np.uint64).tolist() == row.values.view(np.uint64).tolist()
    assert path.noise.view(np.uint64).tolist() == row.noise.view(np.uint64).tolist()


def test_a_solved_path_without_noise_records_none_as_an_ensemble_row_does():
    grid = Grid.regular(1, 16)
    cm = build_model(ModelParams(g_kind="zero", m=0), 1, grid.extent)
    u0 = make_initial_condition("bump", grid, amplitude=0.5)
    assert solve_path(u0, cm, SolverConfig(), 0.25, seed=0).noise is None
