"""The noise stream: step-major blocks drawn one segment at a time.

`solver.NoiseStream` hands `integrate_batch` the increments of a batch as
consecutive (k, B, m) blocks.  A seeded row draws its own Philox stream in
segments, so its blocks, joined, must equal one draw of the whole path
bit for bit, whatever the block and segment sizes; a row that fails must
not move another row's noise or result; and an ensemble that keeps no
history must hold its noise one segment at a time, never as a (B, M, m)
array.
"""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from spdelab import solver
from spdelab.fields import Grid
from spdelab.montecarlo import ExperimentSpec, run_ensemble
from spdelab.solver import (ModelParams, NoiseStream, SolverConfig, build_model,
                            draw_increments, integrate_batch, make_initial_condition,
                            path_seed, time_axis)

SEED = 29


def whole(rows, steps, m, dt):
    """The (B, steps, m) increments of each row drawn at once."""
    return np.stack([draw_increments(path_seed(SEED, i), steps, m, dt) for i in rows])


def joined(stream, steps, K):
    """Every block the stream yields for `steps` steps, joined as (B, steps, m)."""
    blocks = [block.copy() for block in stream.blocks(steps, K)]
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
    stream = NoiseStream([path_seed(SEED, i) for i in rows], m, dt, record)
    got = joined(stream, steps, K)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert record.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    # an array goes through the same reader and comes out as it went in
    again = joined(NoiseStream(want, m, dt), steps, K)
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
        record = np.empty((len(rows), M, cm.m))
        stream = NoiseStream([path_seed(SEED, i) for i in rows], cm.m, 0.25, record)
        res = integrate_batch(grid, cm, SolverConfig(dt=0.25), u0b[rows], times, stream,
                              keep_history=True)
        return res, record

    res, record = run([0, 1, 2])
    assert list(res.failed) == [True, False, False]
    assert 3 < res.fail_step[0] < M - 3
    want = whole([0, 1, 2], M, cm.m, 0.25)
    assert record.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    for b in (1, 2):
        alone, _ = run([b])
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
