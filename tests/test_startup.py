"""Start-up cost: scipy is loaded only by the solves that call it.

The FFT solve of an identity or constant A needs nothing from scipy, so
parsing configs and running a subcommand that never solves with LAPACK
or `splu` must not import it, and a 1d run, which solves with LAPACK
alone, must not import scipy.sparse.  Each case runs in a fresh
interpreter, because the test process itself has loaded scipy long
before.  The cold runs of the scipy solves must give bitwise the step
computed here.
"""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import spdelab
from spdelab.fields import Grid
from spdelab.solver import (ModelParams, SolverConfig, build_model, draw_increments,
                            integrate_batch, make_initial_condition, path_seed)

TESTS = Path(__file__).resolve().parent
SRC = Path(spdelab.__file__).resolve().parents[1]

# scipy branch -> (n, npts, a_expr, scipy module the solve loads)
COLD_STEPS = {
    "lapack-1d-t": (1, 32, "1 + 0.5*sin(3*t)", "scipy.linalg.lapack"),
    "lapack-1d-u": (1, 32, "1 + 0.5*u/(1+abs(u))", "scipy.linalg.lapack"),
    "lapack-1d-x": (1, 32, "1 + 0.5*sin(x)", "scipy.linalg.lapack"),
    "splu-2d-t": (2, 8, "1 + 0.5*sin(3*t)", "scipy.sparse.linalg"),
}


def one_step(case: str) -> np.ndarray:
    """The final rows of one integrate_batch step on 3 rows for a COLD_STEPS case."""
    n, npts, a_expr, _ = COLD_STEPS[case]
    grid = Grid.regular(n, npts)
    cm = build_model(ModelParams(a_kind="expr", a_expr=a_expr, iota=0.5), n, grid.extent)
    dt = SolverConfig().step_size(grid)
    u0b = np.stack([make_initial_condition("random_positive", grid, seed=40 + b).flat()
                    for b in range(3)])
    dW = np.stack([draw_increments(path_seed(61, b), 1, cm.m, dt) for b in range(3)])
    times = np.array([0.25, 0.25 + dt])
    return integrate_batch(grid, cm, SolverConfig(), u0b, times, dW,
                           keep_history=True).history[:, -1]


def run_fresh(*scripts: str) -> list:
    """Run each script in its own new interpreter, all at once, with src and
    tests importable; the last stdout line of each is JSON."""
    path = os.pathsep.join(filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")]))
    procs = [subprocess.Popen([sys.executable, "-c", textwrap.dedent(script)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": path})
             for script in scripts]
    out = []
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 0, stderr
        out.append(json.loads(stdout.strip().splitlines()[-1]))
    return out


SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_cli_and_config_parsing_never_load_scipy(tmp_path):
    # the module runs as __main__ before `spdelab.cli` is imported by name,
    # so runpy has no half-imported module to warn about
    [got] = run_fresh(f"""
        import json, runpy, sys, warnings
        warnings.simplefilter("error")
        sys.argv = ["spdelab", "--out", {str(tmp_path / "cubes")!r}, "cubes"]
        try:
            runpy.run_module("spdelab.cli", run_name="__main__")
            code = None
        except SystemExit as exc:
            code = exc.code
        from spdelab import cli
        import test_golden
        for text in ["", *(run.config for run in test_golden.RUNS.values())]:
            cli.parse_config(text)
        print(json.dumps({{"code": code, "scipy": {SCIPY_LOADED}}}))
    """)
    assert got == {"code": 0, "scipy": []}
    assert (tmp_path / "cubes" / "cube_counts.csv").is_file()


def test_scipy_solves_load_it_on_first_use():
    # one interpreter per case, so each solve is the first to load scipy
    cases = sorted(COLD_STEPS)
    runs = run_fresh(*(f"""
        import json, sys
        from test_startup import one_step
        before = {SCIPY_LOADED}
        final = one_step({case!r})
        print(json.dumps({{"before": before, "after": {SCIPY_LOADED},
                           "final": final.tobytes().hex()}}))
    """ for case in cases))
    for case, got in zip(cases, runs):
        assert got["before"] == [], case
        assert COLD_STEPS[case][3] in got["after"], case
        sparse = [m for m in got["after"] if m.startswith("scipy.sparse")]
        assert bool(sparse) == (COLD_STEPS[case][0] == 2), (case, sparse)
        assert bytes.fromhex(got["final"]) == one_step(case).tobytes(), case
