"""Shared fixtures and the acceptance-summary reporter."""
import numpy as np
import pytest
from hypothesis import settings

from oracles import neg_part_energy
from spdelab.fields import FieldSnapshot, Grid
from spdelab.montecarlo import ExperimentSpec, run_ensemble
from spdelab.solver import (ModelParams, SolverConfig, build_model,
                            make_initial_condition, path_seed, solve_path)

# property tests draw the same examples on every run and keep no example
# database, so tier-1 stays deterministic and writes no .hypothesis/;
# integration runs take longer than hypothesis's default deadline
settings.register_profile("spdelab", derandomize=True, database=None, deadline=None)
settings.load_profile("spdelab")

# one line per acceptance criterion, printed after the test summary so the
# measured values are visible even when every test passes
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def grid32():
    return Grid.regular(1, 32)


@pytest.fixture(scope="session")
def grid64():
    return Grid.regular(1, 64)


@pytest.fixture(scope="session")
def default_model(grid64):
    """Identity diffusion, no drift, 4-channel multiplicative trig noise."""
    return build_model(ModelParams(), grid64.n, grid64.extent)


@pytest.fixture(scope="session")
def stoch_path(grid64, default_model):
    """One solved noisy path on [0, 0.5], shared by read-only tests."""
    u0 = make_initial_condition("bump", grid64)
    return solve_path(u0, default_model, SolverConfig(), 0.5,
                      seed=path_seed(314, 0))


@pytest.fixture(scope="session")
def long_path(grid64, default_model):
    """A horizon-1 path, long enough for the cube constructions."""
    u0 = make_initial_condition("bump", grid64)
    return solve_path(u0, default_model, SolverConfig(), 1.0,
                      seed=path_seed(314, 1))


@pytest.fixture(scope="session")
def small_ensemble():
    """16 paths on a coarse grid; enough for estimator plumbing tests."""
    spec = ExperimentSpec(grid=Grid.regular(1, 32), horizon=0.25,
                          n_paths=16, master_seed=77, chunk=8)
    return spec, run_ensemble(spec)


@pytest.fixture
def rng():
    return np.random.default_rng(1905)


def _history_statistics(grid, times, res, regions):
    """sup/inf over each region and the negative-part energy of every row of
    an integrate_batch result, reduced from its kept history: the reference
    for the statistics the step loop takes, NaN on failed rows."""
    B = res.history.shape[0]
    sup = np.full((len(regions), B), np.nan)
    inf = np.full((len(regions), B), np.nan)
    energy = np.full(B, np.nan)
    for b in np.flatnonzero(~res.failed):
        for r, (steps, nodes) in enumerate(regions):
            sub = res.history[b][np.ix_(steps, nodes)]
            sup[r, b], inf[r, b] = sub.max(), sub.min()
        energy[b] = max(neg_part_energy(FieldSnapshot(grid, float(t), v.reshape(grid.shape)))
                        for t, v in zip(times, res.history[b]))
    return sup, inf, energy


@pytest.fixture(scope="session")
def history_statistics():
    return _history_statistics
