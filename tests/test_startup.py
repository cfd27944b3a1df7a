"""Start-up cost: scipy is loaded only by the solves that call it.

Parsing configs and running a subcommand that never solves must not
import scipy.  A solve loads only the scipy extension it calls, from its
package's directory: the FFT solve of an identity or constant A loads
scipy's pocketfft extension, scipy.fft._pocketfft.pypocketfft, and
neither the scipy.fft package nor numpy.fft; a 1d solve of any other A
loads scipy's LAPACK extension, scipy.linalg._flapack, and neither the
scipy.linalg package nor scipy.sparse.  A later import of the package
shares that extension.  Each case runs in a fresh interpreter, because
the test process itself has loaded scipy long before.  The cold runs of
the scipy solves, by the direct load, by its fallback through the import
of the extension's own name, and on two threads, must give bitwise the
results computed here.
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

FLAPACK = "scipy.linalg._flapack"
POCKETFFT = "scipy.fft._pocketfft.pypocketfft"

# scipy branch -> (n, npts, a_expr, scipy module the solve loads)
COLD_STEPS = {
    "fft-1d": (1, 32, "0.75", POCKETFFT),
    "fft-2d": (2, 16, "0.75", POCKETFFT),
    "lapack-1d-t": (1, 32, "1 + 0.5*sin(3*t)", FLAPACK),
    "lapack-1d-u": (1, 32, "1 + 0.5*u/(1+abs(u))", FLAPACK),
    "lapack-1d-x": (1, 32, "1 + 0.5*sin(x)", FLAPACK),
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
                           "numpy.fft": "numpy.fft" in sys.modules,
                           "final": final.tobytes().hex()}}))
    """ for case in cases))
    for case, got in zip(cases, runs):
        assert got["before"] == [], case
        assert COLD_STEPS[case][3] in got["after"], case
        sparse = [m for m in got["after"] if m.startswith("scipy.sparse")]
        assert bool(sparse) == case.startswith("splu"), (case, sparse)
        if not sparse:
            # the extension alone, not its package, and not numpy's FFT
            assert not {"scipy.linalg", "scipy.fft"} & set(got["after"]), case
            assert not got["numpy.fft"], case
        assert bytes.fromhex(got["final"]) == one_step(case).tobytes(), case


def test_scipy_linalg_imported_after_a_1d_solve_shares_its_routines():
    [got] = run_fresh(f"""
        import json, sys
        from spdelab import solver
        from test_startup import one_step
        one_step("lapack-1d-u")
        one_step("fft-1d")
        before = {SCIPY_LOADED}
        import scipy.fft, scipy.linalg, scipy.sparse.linalg
        from scipy.fft._pocketfft import pypocketfft
        print(json.dumps({{
            "package_before": "scipy.linalg" in before or "scipy.fft" in before,
            "same": [getattr(scipy.linalg.lapack, name)
                     is solver._scipy_routine({FLAPACK!r}, name)
                     for name in ("dpttrf", "dpttrs")]
                    + [getattr(pypocketfft, name) is solver._scipy_routine({POCKETFFT!r}, name)
                       for name in ("r2c", "c2c", "c2r")],
            "splu": scipy.sparse.linalg.splu is not None}}))
    """)
    assert got == {"package_before": False, "same": [True] * 5, "splu": True}


def falls_back(case: str) -> dict:
    """One cold solve of a COLD_STEPS case whose extension the direct lookup
    misses once; the import system, asked next for the same name by the
    import of that name, is answered as usual."""
    module = COLD_STEPS[case][3]
    [got] = run_fresh(f"""
        import json, sys
        from importlib.machinery import PathFinder
        from test_startup import one_step
        find_spec = PathFinder.find_spec
        missed = []

        def first_miss(name, path=None, target=None):
            if name == {module!r} and not missed:
                missed.append(name)
                return None
            return find_spec(name, path, target)

        PathFinder.find_spec = staticmethod(first_miss)
        final = one_step({case!r})
        PathFinder.find_spec = find_spec
        from spdelab import solver
        print(json.dumps({{"missed": missed, "after": {SCIPY_LOADED},
                           "fallback": solver._scipy_extension({module!r})
                                       is sys.modules[{module!r}],
                           "final": final.tobytes().hex()}}))
    """)
    assert got["missed"] == [module] and got["fallback"]
    assert bytes.fromhex(got["final"]) == one_step(case).tobytes()
    return got


def test_lapack_falls_back_to_scipy_linalg_when_no_extension_is_found():
    got = falls_back("lapack-1d-u")
    assert "scipy.linalg.lapack" in got["after"]


def test_fft_falls_back_to_scipy_fft_when_no_extension_is_found():
    got = falls_back("fft-2d")
    assert "scipy.fft" in got["after"]


def two_thread_tables(tmp_path, config: str, command: str) -> list:
    """A cold run of `command` on config with --threads 1 and 2, each in its
    own interpreter; both must write the same tables.  Returns each run's
    exit code, count of scipy extensions loaded and scipy packages loaded."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    runs = run_fresh(*(f"""
        import json, runpy, sys
        sys.argv = ["spdelab", "--config", {str(cfg)!r}, "--out",
                    {str(tmp_path / threads)!r}, "--threads", {threads!r}, {command!r}]
        try:
            runpy.run_module("spdelab.cli", run_name="__main__")
            code = None
        except SystemExit as exc:
            code = exc.code
        from spdelab import solver
        packages = {{"scipy.linalg", "scipy.fft"}} & set(sys.modules)
        print(json.dumps({{"code": code, "loads": solver._scipy_extension.cache_info().misses,
                           "packages": sorted(packages)}}))
    """ for threads in ("1", "2")))
    tables = [sorted((tmp_path / threads).glob("*.csv")) for threads in ("1", "2")]
    assert [p.name for p in tables[0]] == [p.name for p in tables[1]] != []
    for one, two in zip(*tables):
        assert one.read_bytes() == two.read_bytes(), one.name
    return runs


def test_two_threads_load_lapack_once_and_write_the_same_tables(tmp_path):
    # 16 paths in chunks of 8: both threads start a chunk, and reach their
    # first dpttrf, together
    import test_golden
    runs = two_thread_tables(tmp_path, test_golden.CONFIG_1D_U, "ensemble")
    assert runs == [{"code": 0, "loads": 1, "packages": []}] * 2


def test_two_threads_load_pocketfft_once_and_write_the_same_harnack_tables(tmp_path):
    # the default model: both threads reach their first FFT solve together
    import test_golden
    runs = two_thread_tables(tmp_path, test_golden.CONFIG_DEFAULT, "harnack")
    assert runs == [{"code": 0, "loads": 1, "packages": []}] * 2


def test_eight_threads_racing_to_first_use_load_lapack_once():
    # more threads than cores, released together, switching every
    # microsecond; each loads the LAPACK and the pocketfft routines, and
    # each extension is loaded once
    [got] = run_fresh(f"""
        import json, sys, threading
        from spdelab import solver
        start = threading.Barrier(8)
        found = []

        def first_use():
            start.wait(timeout=30)
            found.append([solver._scipy_routine(module, name)
                          for module, names in (({FLAPACK!r}, ("dpttrf", "dpttrs")),
                                                ({POCKETFFT!r}, ("r2c", "c2c", "c2r")))
                          for name in names])

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
        print(json.dumps({{"alive": sum(thread.is_alive() for thread in threads),
                           "loads": solver._scipy_extension.cache_info().misses,
                           "distinct": len({{tuple(map(id, f)) for f in found}}),
                           "found": len(found)}}))
    """)
    assert got == {"alive": 0, "loads": 2, "distinct": 1, "found": 8}
