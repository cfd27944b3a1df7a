"""Start-up cost: scipy is loaded only by the solves that call it.

The FFT solve of an identity or constant A needs nothing from scipy, so
parsing configs and running a subcommand that never solves with LAPACK
or `splu` must not import it.  A 1d run, which solves with LAPACK alone,
loads scipy's LAPACK extension, scipy.linalg._flapack, and neither the
scipy.linalg package nor scipy.sparse; a later import of scipy.linalg
shares that extension.  Each case runs in a fresh interpreter, because
the test process itself has loaded scipy long before.  The cold runs of
the scipy solves, by the direct load, by its fallback through
scipy.linalg.lapack, and on two threads, must give bitwise the results
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
    "lapack-1d-t": (1, 32, "1 + 0.5*sin(3*t)", "scipy.linalg._flapack"),
    "lapack-1d-u": (1, 32, "1 + 0.5*u/(1+abs(u))", "scipy.linalg._flapack"),
    "lapack-1d-x": (1, 32, "1 + 0.5*sin(x)", "scipy.linalg._flapack"),
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
        if COLD_STEPS[case][0] == 1:
            assert "scipy.linalg" not in got["after"], case
        assert bytes.fromhex(got["final"]) == one_step(case).tobytes(), case


def test_scipy_linalg_imported_after_a_1d_solve_shares_its_routines():
    [got] = run_fresh(f"""
        import json, sys
        from spdelab import solver
        from test_startup import one_step
        one_step("lapack-1d-u")
        before = {SCIPY_LOADED}
        import scipy.linalg, scipy.sparse.linalg
        print(json.dumps({{
            "package_before": "scipy.linalg" in before,
            "same": [getattr(scipy.linalg.lapack, name) is solver._lapack(name)
                     for name in ("dpttrf", "dpttrs")],
            "splu": scipy.sparse.linalg.splu is not None}}))
    """)
    assert got == {"package_before": False, "same": [True, True], "splu": True}


def test_lapack_falls_back_to_scipy_linalg_when_no_extension_is_found():
    # the direct lookup finds nothing; the import system, asked next for
    # the same name by scipy.linalg.lapack, is answered as usual
    [got] = run_fresh(f"""
        import json, sys
        from importlib.machinery import PathFinder
        from test_startup import one_step
        find_spec = PathFinder.find_spec
        missed = []

        def first_miss(name, path=None, target=None):
            if name == "scipy.linalg._flapack" and not missed:
                missed.append(name)
                return None
            return find_spec(name, path, target)

        PathFinder.find_spec = staticmethod(first_miss)
        final = one_step("lapack-1d-u")
        PathFinder.find_spec = find_spec
        from spdelab import solver
        import scipy.linalg
        print(json.dumps({{"missed": missed, "after": {SCIPY_LOADED},
                           "fallback": solver._flapack() is scipy.linalg.lapack,
                           "final": final.tobytes().hex()}}))
    """)
    assert got["missed"] == ["scipy.linalg._flapack"]
    assert got["fallback"] and "scipy.linalg.lapack" in got["after"]
    assert bytes.fromhex(got["final"]) == one_step("lapack-1d-u").tobytes()


def test_two_threads_load_lapack_once_and_write_the_same_tables(tmp_path):
    # 16 paths in chunks of 8: both threads start a chunk, and reach their
    # first dpttrf, together
    import test_golden
    cfg = tmp_path / "u.cfg"
    cfg.write_text(test_golden.CONFIG_1D_U)
    runs = run_fresh(*(f"""
        import json, runpy, sys
        sys.argv = ["spdelab", "--config", {str(cfg)!r}, "--out",
                    {str(tmp_path / threads)!r}, "--threads", {threads!r}, "ensemble"]
        try:
            runpy.run_module("spdelab.cli", run_name="__main__")
            code = None
        except SystemExit as exc:
            code = exc.code
        from spdelab import solver
        print(json.dumps({{"code": code, "loads": solver._flapack.cache_info().misses,
                           "package": "scipy.linalg" in sys.modules}}))
    """ for threads in ("1", "2")))
    assert runs == [{"code": 0, "loads": 1, "package": False}] * 2
    tables = [sorted((tmp_path / threads).glob("*.csv")) for threads in ("1", "2")]
    assert [p.name for p in tables[0]] == [p.name for p in tables[1]] != []
    for one, two in zip(*tables):
        assert one.read_bytes() == two.read_bytes(), one.name


def test_eight_threads_racing_to_first_use_load_lapack_once():
    # more threads than cores, released together, switching every microsecond
    [got] = run_fresh("""
        import json, sys, threading
        from spdelab import solver
        start = threading.Barrier(8)
        found = []

        def first_use():
            start.wait(timeout=30)
            found.append([solver._lapack(name) for name in ("dpttrf", "dpttrs")])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_use) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        print(json.dumps({"alive": sum(thread.is_alive() for thread in threads),
                          "loads": solver._flapack.cache_info().misses,
                          "distinct": len({tuple(map(id, f)) for f in found}),
                          "found": len(found)}))
    """)
    assert got == {"alive": 0, "loads": 1, "distinct": 1, "found": 8}
