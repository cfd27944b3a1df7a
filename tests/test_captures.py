"""Captured rows in place of whole paths, and the budget for the histories
still kept.

`integrate_batch` copies the `(steps, nodes)` rows a caller asks for out
of each block of snapshots; `run_ensemble` hands a consumer that declares
its rows in a `captures` attribute those arrays, and keeps whole paths
only for consumers that declare nothing.  `spdelab jn` reads its cube rows
this way, so its results, and the error it raises for a path below
-mu/2, must be those of the whole-path reading bit for bit.
"""
import math

import numpy as np
import pytest

from spdelab import cli, montecarlo, solver
from spdelab.cubes import Cube, subcubes
from spdelab.errors import DomainError, ResourceLimitError
from spdelab.fields import FieldPath, Grid, region_rows
from spdelab.geometry import Ball, SpaceTimeRect
from spdelab.jn import eighth_reads, levelset_fractions, log_field, moment_tail_value
from spdelab.montecarlo import ExperimentSpec, run_ensemble
from spdelab.solver import (ModelParams, SolverConfig, build_model, draw_increments,
                            integrate_batch, make_initial_condition, path_seed,
                            solve_path, time_axis)

HORIZON = 0.25
# the cubic drift blows the large rows up within the horizon
BLOWUP = ModelParams(f_kind="expr", f_expr="10*u*u*u", growth_bound=1e9)


def assert_same_bits(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


def capture_rows(grid, times):
    """A region's rows, one snapshot on every node, and the first and last
    snapshots on nodes out of order."""
    M = times.size - 1
    rect = SpaceTimeRect(0.05, 0.2, Ball((0.0,) * grid.n, 1.0))
    return [region_rows(grid, times, rect),
            (np.array([M // 2]), np.arange(grid.size)),
            (np.array([M, 0]), np.array([grid.size - 1, 0, 3]))]


def signed_batch(grid):
    """Rows that stay small, turn negative, or blow up."""
    bump = make_initial_condition("bump", grid).flat()
    return np.stack([0.3 * bump, 0.5 * (bump - 0.3), 3.0 * bump, 2.5 * (bump - 0.1)])


@pytest.mark.parametrize("n, npts", [(1, 32), (2, 16)], ids=["1d", "2d"])
@pytest.mark.parametrize("steps_per_block", [1, 3, None], ids=["K=1", "K=3", "K=M"])
def test_captures_equal_the_history_rows(n, npts, steps_per_block, monkeypatch):
    grid = Grid.regular(n, npts)
    cm = build_model(BLOWUP, n, grid.extent)
    dt = SolverConfig().step_size(grid)
    times = time_axis(0.0, 2 * HORIZON, dt)
    M = times.size - 1
    u0b = signed_batch(grid)
    dW = np.stack([draw_increments(path_seed(5, b), M, cm.m, dt) for b in range(len(u0b))])
    K = M if steps_per_block is None else steps_per_block
    monkeypatch.setattr(solver, "_STEP_BLOCK_BYTES", K * 8 * u0b.size)
    rows = capture_rows(grid, times)
    res = integrate_batch(grid, cm, SolverConfig(), u0b, times, dW, keep_history=True,
                          captures=rows)
    # some row fails, and at K = 3 it fails inside a block, stepping on to its end
    assert res.failed.any() and not res.failed.all()
    if K == 3:
        assert np.any(res.fail_step[res.failed] % 3 != 2)
    for (steps, nodes), got in zip(rows, res.captured):
        want = res.history[:, steps][:, :, nodes]
        assert got.shape == (len(u0b), len(steps), len(nodes))
        assert_same_bits(got, want)
    ok = ~res.failed
    assert np.all(np.isnan(res.neg_min[~ok]))
    np.testing.assert_array_equal(res.neg_min[ok],
                                  np.minimum(res.history[ok].min(axis=(1, 2)), 0.0))
    assert np.any(res.neg_min[ok] < 0.0)
    # the captures do not need the history
    alone = integrate_batch(grid, cm, SolverConfig(), u0b, times, dW, captures=rows)
    assert alone.history is None
    for got, want in zip(alone.captured, res.captured):
        assert_same_bits(got, want)


def small_spec(n, **kw):
    grid = Grid.regular(n, 16 if n == 1 else 8)
    return ExperimentSpec(grid=grid, horizon=HORIZON, n_paths=10, master_seed=11, **kw)


def declaring_consumer(spec, out):
    times = time_axis(0.0, spec.horizon, spec.solver.step_size(spec.grid))

    def consume(i, arrays):
        out[i] = [a.copy() for a in arrays]

    consume.captures = capture_rows(spec.grid, times)
    return consume


@pytest.mark.parametrize("n", [1, 2], ids=["1d", "2d"])
def test_declared_rows_ignore_chunk_and_threads(n):
    spec = small_spec(n, chunk=64)
    rows = declaring_consumer(spec, {}).captures
    want = {}

    def whole(i, path):
        want[i] = [path.values[np.ix_(*r)] for r in rows]

    run_ensemble(spec, consumers=(whole,))
    assert sorted(want) == list(range(spec.n_paths))
    for chunk in (1, 7, 64):
        spec.chunk = chunk
        for threads in (1, 2):
            got = {}
            run_ensemble(spec, consumers=(declaring_consumer(spec, got),), threads=threads)
            assert sorted(got) == sorted(want)
            for i in want:
                for g, w in zip(got[i], want[i]):
                    assert_same_bits(g, w)


def test_no_history_is_kept_when_every_consumer_declares_rows(monkeypatch):
    spec = small_spec(1, chunk=4)
    kept = []
    real = montecarlo.integrate_batch

    def spy(*args, **kwargs):
        kept.append(kwargs["keep_history"])
        return real(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "integrate_batch", spy)
    declared = (declaring_consumer(spec, {}), declaring_consumer(spec, {}))
    run_ensemble(spec, consumers=declared)
    assert kept == [False] * 3
    kept.clear()
    run_ensemble(spec, consumers=(*declared, lambda i, path: None))
    assert kept == [True] * 3


def test_eighth_reads_of_captures_equal_the_path_level_results():
    spec = ExperimentSpec(grid=Grid.regular(1, 32), horizon=1.0, n_paths=12, chunk=5)
    root = Cube(l=0.5, s=0.125, z=math.sqrt(0.125), w=(0.0,))
    parts = subcubes(root)
    alphas = np.asarray(spec.alphas)
    cm, u0 = spec.build()
    reads = eighth_reads(solve_path(u0, cm, spec.solver, spec.horizon, seed=0), root)
    got, want = {}, {}

    def captured(i, u):
        got[i] = (*reads.fractions(u, spec.mu, alphas), reads.tail_value(u, spec.mu, spec.nu))

    def whole(i, path):
        want[i] = (*levelset_fractions(log_field(path, spec.mu), root, alphas),
                   moment_tail_value(path, spec.mu, spec.nu, parts.d_plus, parts.d_minus))

    captured.captures = reads.rows
    run_ensemble(spec, consumers=(captured, whole))
    assert sorted(got) == sorted(want) == list(range(spec.n_paths))
    for i in want:
        a_c, up, lo, tail = got[i]
        assert a_c == want[i][0] and tail == want[i][3]
        np.testing.assert_array_equal(up, want[i][1])
        np.testing.assert_array_equal(lo, want[i][2])


# ---------------------------------------------------------------------------
# the whole-path domain check of `spdelab jn`

# npts 128: the FFT solve leaves roundoff negatives of about -1e-16 far from
# the bump; lambda_g = 2 at npts 16: the noise factor turns some paths
# negative inside the cube's eighths
ROUNDOFF = ('[grid]\nnpts = 128\n\n[solver]\nhorizon = 0.25\n\n[regions]\n'
            'P = {"t_lo": 0.125, "t_hi": 0.25, "center": [0.0], "radius": 0.5}\n\n'
            '[montecarlo]\npaths = 8\nchunk = 3\nseed = 1\n')
SIGN_FLIPS = ("[grid]\nnpts = 16\n\n[model]\nlambda_g = 2.0\n\n"
              "[montecarlo]\npaths = 8\nchunk = 3\nseed = 13\ndepth = 0\n")


def whole_path_minima(spec):
    """Per path, its least value overall and on the jn cube's eighths, from
    kept histories, and the message log_field raises on each path."""
    root = Cube(l=spec.horizon / 2, s=spec.horizon / 8, z=math.sqrt(spec.horizon / 8),
                w=(0.0,) * spec.grid.n)
    parts = subcubes(root)
    least = np.full(spec.n_paths, np.nan)
    eighths = np.full(spec.n_paths, np.nan)
    paths = {}

    def consume(i, path):
        least[i] = path.values.min()
        eighths[i] = min(path.values[np.ix_(*region_rows(path.grid, path.times, r))].min()
                         for r in (parts.d_plus, parts.d_minus))
        paths[i] = FieldPath(path.grid, path.times, path.values.copy())

    ens = run_ensemble(spec, consumers=(consume,))
    return ens, least, eighths, paths


def jn_error(tmp_path, capsys, text, mu, threads):
    cfg = tmp_path / "jn.cfg"
    cfg.write_text(text + f"mu = {mu!r}\n")
    out = tmp_path / f"run-{threads}"
    rc = cli.main(["--config", str(cfg), "--threads", str(threads), "--out", str(out), "jn"])
    assert rc == 2
    assert not any(out.iterdir())
    return capsys.readouterr().err


@pytest.mark.parametrize("threads", [1, 2])
def test_jn_reports_the_first_path_below_minus_half_mu(tmp_path, capsys, threads):
    spec = cli.parse_config(ROUNDOFF)
    ens, least, _, paths = whole_path_minima(spec)
    # -mu/2 lies between path 0's least value and the ensemble's
    mu = float(-(least[0] + least[ens.ok].min()))
    assert least[0] >= -mu / 2 > least[ens.ok].min()
    first = next(i for i in range(spec.n_paths) if ens.ok[i] and least[i] < -mu / 2)
    assert first > 0
    with pytest.raises(DomainError) as err:
        log_field(paths[first], mu)
    assert jn_error(tmp_path, capsys, ROUNDOFF, mu, threads) == f"error: {err.value}\n"


def test_jn_reports_a_path_negative_inside_its_eighths_as_log_field_does(tmp_path, capsys):
    spec = cli.parse_config(SIGN_FLIPS)
    ens, least, eighths, paths = whole_path_minima(spec)
    mu = 0.1
    # path 0 passes, and some path has u + mu <= 0 on the rows its moment
    # tail reads, which the tail alone would report in its own words
    assert least[0] >= -mu / 2 and np.any(ens.ok & (eighths + mu <= 0.0))
    first = next(i for i in range(spec.n_paths) if ens.ok[i] and least[i] < -mu / 2)
    with pytest.raises(DomainError) as err:
        log_field(paths[first], mu)
    assert jn_error(tmp_path, capsys, SIGN_FLIPS, mu, 1) == f"error: {err.value}\n"


# ---------------------------------------------------------------------------
# the history budget

def path_bytes(spec):
    steps = time_axis(0.0, spec.horizon, spec.solver.step_size(spec.grid)).size - 1
    return 8 * (steps + 1) * spec.grid.size


def summaries(ens):
    return [ens.sup, ens.inf, ens.neg_energy, ens.neg_min, ens.failed, ens.fail_steps]


def path_sums(out):
    """A whole-path consumer that records each path's sum."""
    def consume(i, path):
        out[i] = path.values.sum()
    return consume


def test_history_chunks_shrink_to_the_budget(monkeypatch):
    spec = small_spec(1, chunk=64, regions={"Q": SpaceTimeRect(0.05, 0.2, Ball((0.0,), 1.0))})
    want_sums = np.full(spec.n_paths, np.nan)
    want = run_ensemble(spec, consumers=(path_sums(want_sums),))
    batches = []
    real = montecarlo.integrate_batch

    def spy(grid, cm, cfg, u0b, *args, **kwargs):
        batches.append(len(u0b))
        return real(grid, cm, cfg, u0b, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "integrate_batch", spy)
    monkeypatch.setattr(solver, "_HISTORY_BYTES", 3 * path_bytes(spec) + 7)
    sums = np.full(spec.n_paths, np.nan)
    got = run_ensemble(spec, consumers=(path_sums(sums),))
    assert batches == [3, 3, 3, 1]
    for g, w in zip(summaries(got), summaries(want)):
        if isinstance(w, dict):
            for name in w:
                np.testing.assert_array_equal(g[name], w[name])
        else:
            np.testing.assert_array_equal(g, w)
    np.testing.assert_array_equal(sums, want_sums)


def test_a_path_over_the_budget_is_refused_before_any_path_runs(monkeypatch):
    spec = small_spec(1)
    calls = []
    for module in (montecarlo, solver):
        monkeypatch.setattr(module, "integrate_batch", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(solver, "_HISTORY_BYTES", path_bytes(spec) - 1)
    with pytest.raises(ResourceLimitError, match="history budget"):
        run_ensemble(spec, consumers=(lambda i, path: None,))
    cm, u0 = spec.build()
    with pytest.raises(ResourceLimitError, match="history budget"):
        solve_path(u0, cm, spec.solver, spec.horizon, seed=0)
    assert calls == []
    # a run that keeps no history is not limited by it
    monkeypatch.undo()
    monkeypatch.setattr(solver, "_HISTORY_BYTES", path_bytes(spec) - 1)
    run_ensemble(spec, consumers=(declaring_consumer(spec, {}),))


def test_cli_exits_2_on_a_history_over_the_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solver, "_HISTORY_BYTES", 1000)
    rc = cli.main(["--config", "/dev/null", "--out", str(tmp_path / "run"), "norms"])
    assert rc == 2
    assert "history budget" in capsys.readouterr().err
    assert not any((tmp_path / "run").iterdir())
