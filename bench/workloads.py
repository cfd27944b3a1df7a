"""The four benchmark workloads: what each runs, and how its outputs are checked.

Each workload runs through the public API of spdelab: a subcommand goes
through `spdelab.cli.main` in-process, everything else is a library call
made the way `tests/test_acceptance.py` makes it.  Calls are looked up on
the module at call time (`ctx.m.jn.log_field`, not an imported name), so
the tracing wrappers of `layers.py` see them.

A workload is sized so that one iteration takes 2 to 10 seconds on a
2-core machine; the benchmark repeats it for the measured interval and
reports the median.  The benchmark seed becomes the master seed of every
experiment in the workload.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import numpy as np


def nproc() -> int:
    """CPUs this process may run on, as `nproc` counts them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


THREADS = min(2, nproc())


# ensemble step count for horizon 1 on the default box [-2, 2): dt = dx^2/2
# with dx = 4 / npts gives npts^2 / 8 steps
def _steps(npts: int) -> int:
    return npts * npts // 8


def _csv(header, rows) -> bytes:
    """Library results written the way the CLI writes its tables."""
    def fmt(v):
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)
    lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _rows(results: dict, key: str) -> list:
    return list(csv.DictReader(io.StringIO(results[key].decode())))


class Checks:
    """Output checks and path counts of one iteration."""

    def __init__(self):
        self.items = []          # (name, ok, detail)
        # scalar outputs compared with reference.json: `refs` depend on the
        # seed and are compared on the recorded seed, `fixed` do not and are
        # compared on every seed
        self.refs = {}
        self.fixed = {}
        self.paths = 0
        self.paths_failed = 0

    def add(self, name: str, ok: bool, detail=""):
        self.items.append((name, bool(ok), str(detail)))

    @property
    def failed(self) -> list:
        return [item for item in self.items if not item[1]]


# ---------------------------------------------------------------------------
# tail-ensemble

HARNACK = {"npts": 128, "paths": 128, "chunk": 64}
POSITIVITY_2D = {"npts": 32, "paths": 48, "chunk": 24}


class TailEnsemble:
    name = "tail-ensemble"
    why = ("streaming ensembles without history: solver steps with one shared "
           "factorization per chunk dominate, 1D narrow rows and 2D wide rows; "
           "the only workload on the thread pool")
    configs = {
        "harnack": ("[grid]\nn = 1\nnpts = {npts}\n\n[solver]\nhorizon = 1.0\n\n"
                    "[montecarlo]\npaths = {paths}\nchunk = {chunk}\n").format(**HARNACK),
        "positivity2d": ("[grid]\nn = 2\nnpts = {npts}\n\n[solver]\nhorizon = 1.0\n\n"
                         "[montecarlo]\npaths = {paths}\nchunk = {chunk}\n"
                         ).format(**POSITIVITY_2D),
    }
    threads = THREADS
    node_steps = (HARNACK["paths"] * _steps(HARNACK["npts"]) * HARNACK["npts"]
                  + POSITIVITY_2D["paths"] * _steps(POSITIVITY_2D["npts"])
                  * POSITIVITY_2D["npts"] ** 2)
    largest_array = {
        "what": "harnack noise increments per chunk (chunk, M, m) float64",
        "shape": [HARNACK["chunk"], _steps(HARNACK["npts"]), 4],
        "bytes": HARNACK["chunk"] * _steps(HARNACK["npts"]) * 4 * 8,
        "computed": True,
    }

    def run(self, ctx):
        threads = ("--threads", str(self.threads))
        ctx.cli("harnack", "harnack", *threads)
        ctx.cli("positivity2d", "positivity", *threads)

    def check(self, ctx, results, raw) -> Checks:
        c = Checks()
        for part, paths in (("harnack", HARNACK["paths"]),
                            ("positivity2d", POSITIVITY_2D["paths"])):
            c.add(f"{part} exit code 0", ctx.rcs[part] == 0, ctx.rcs[part])
            c.paths += paths
            c.paths_failed += _manifest_failures(results, part)["count"]
        summary = _rows(results, "harnack/harnack_summary.csv")[0]
        curve = _rows(results, "harnack/harnack_curve.csv")
        last = curve[-1]
        c.add("harnack: no monotonicity violations",
              int(summary["monotonicity_violations"]) == 0, summary["monotonicity_violations"])
        c.add("harnack: run not invalid", summary["invalid"] == "false", summary["invalid"])
        c.add("harnack: p_hat(256) <= 0.01",
              float(last["gamma"]) == 256.0 and float(last["p_hat"]) <= 0.01, last["p_hat"])
        pos = _rows(results, "positivity2d/positivity_summary.csv")[0]
        c.add("positivity 2d: no path at or below the floor",
              int(pos["n_at_or_below"]) == 0, pos["n_at_or_below"])
        worst, initial = float(pos["worst_neg_energy"]), float(pos["initial_energy"])
        c.add("positivity 2d: worst negative-part energy <= 1e-10 initial energy",
              worst <= 1e-10 * initial, f"{worst!r} vs {initial!r}")
        mins = [float(r["region_min"]) for r in _rows(results, "positivity2d/positivity_paths.csv")]
        c.refs = {
            "harnack.threshold_a": float(summary["threshold_a"]),
            "positivity.median_min": float(np.median(mins)),
        }
        # the threshold is the ensemble median, so half the paths exceed it
        c.fixed = {
            "harnack.hits_gamma1": float(curve[0]["hits"]),
            "positivity.initial_energy": initial,
        }
        return c


# ---------------------------------------------------------------------------
# path-diagnostics

# The per-step consumers (iteration_trace, qv_check), which re-evaluate g
# along each stored path, run on the first DIAG["heavy"] paths and take
# most of the wall time.  The level-set consumer is cheap per path and runs
# on all of them: its fit uses ensemble-median fractions, whose upper-side
# r^2 sits near 0.93; at criterion 13's 200 paths some seeds fall below 0.9
# (seed 11: 0.893), at 800 paths seeds 0-15 gave 0.917-0.958.  `spdelab jn`
# at npts 128 is no better (128 paths: 0.888 on seed 4), so the r^2 check
# stays on this ensemble.
DIAG = {"npts": 64, "paths": 800, "heavy": 32}
JN = {"npts": 128, "paths": 64}


class PathDiagnostics:
    name = "path-diagnostics"
    why = ("stored-path consumers whose per-step Python loops re-evaluate g take "
           "most of the time; full histories are kept, so this workload sets peak memory")
    configs = {"jn": "[grid]\nnpts = {npts}\n\n[montecarlo]\npaths = {paths}\n".format(**JN)}
    threads = 1
    node_steps = (DIAG["paths"] * _steps(DIAG["npts"]) * DIAG["npts"]
                  + (1 + JN["paths"]) * _steps(JN["npts"]) * JN["npts"])
    largest_array = {
        "what": "jn path history per chunk (chunk, M+1, S) float64",
        "shape": [64, _steps(JN["npts"]) + 1, JN["npts"]],
        "bytes": 64 * (_steps(JN["npts"]) + 1) * JN["npts"] * 8,
        "computed": True,
    }

    def run(self, ctx):
        m = ctx.m
        spec = m.montecarlo.ExperimentSpec(grid=m.fields.Grid.regular(1, DIAG["npts"]),
                                           horizon=1.0, n_paths=DIAG["paths"],
                                           master_seed=ctx.seed)
        grid = spec.grid
        alphas = np.asarray(spec.alphas)
        fam = m.degiorgi.CutoffFamily(1)
        base = m.geometry.SpaceTimeRect(*m.degiorgi.time_window(0),
                                        m.geometry.Ball((0.0,), 1.0))
        phi = m.solver.TestFunction.bump(grid, 0.0, 1.0, 1.0)
        root = m.cubes.Cube(l=0.5, s=0.125, z=math.sqrt(0.125), w=(0.0,))
        parts = m.cubes.subcubes(root)
        heavy = DIAG["heavy"]
        n = spec.n_paths
        out = {
            "c_hat": np.full(heavy, np.nan), "emp": np.full(heavy, np.nan),
            "pair": np.full(heavy, np.nan), "tail": np.full(n, np.nan),
            "up": np.full((n, alphas.size), np.nan), "lo": np.full((n, alphas.size), np.nan),
        }
        cm = ctx.call(spec.build)[0]

        def criterion_8(i, path):
            if i >= heavy:
                return
            a = 0.5 * m.fields.sup_on(path, base)
            trace = m.degiorgi.iteration_trace(path, cm, fam,
                                               m.degiorgi.IterationParams(a=a, delta=0.25))
            out["c_hat"][i] = trace.c_hat_max

        def qv_and_criterion_13(i, path):
            if i < heavy:
                rep = m.solver.qv_check(path, cm, phi)
                out["emp"][i], out["pair"][i] = rep.empirical_qv, rep.pairing_qv
            lf = m.jn.log_field(path, spec.mu)
            _, out["up"][i], out["lo"][i] = m.jn.levelset_fractions(lf, root, alphas)
            out["tail"][i] = m.jn.moment_tail_value(path, spec.mu, spec.nu,
                                                    parts.d_plus, parts.d_minus)

        ens = ctx.call(m.montecarlo.run_ensemble, spec,
                       consumers=(criterion_8, qv_and_criterion_13))
        ok = ens.ok
        med_up = np.median(out["up"][ok], axis=0)
        med_lo = np.median(out["lo"][ok], axis=0)
        fits = [ctx.call(m.jn.fit_decay, alphas, med, band=(0.05, 0.9))
                for med in (med_up, med_lo)]
        ctx.cli("jn", "jn")
        ctx.results["diag/paths.csv"] = _csv(
            ["path", "c_hat", "empirical_qv", "pairing_qv"],
            [(i, out["c_hat"][i], out["emp"][i], out["pair"][i]) for i in range(heavy)])
        ctx.results["diag/levelsets.csv"] = _csv(
            ["alpha", "upper_fraction", "lower_fraction"], zip(alphas, med_up, med_lo))
        ctx.results["diag/fits.csv"] = _csv(
            ["side", "decay_rate", "amplitude", "r_squared"],
            [(side, f.decay_rate, f.amplitude, f.r_squared)
             for side, f in zip(("upper", "lower"), fits)])
        ctx.results["diag/tails.csv"] = _csv(["path", "tail"], enumerate(out["tail"]))
        return {"failed": int(np.sum(ens.failed)), "out": out, "fits": fits}

    def check(self, ctx, results, raw) -> Checks:
        c = Checks()
        c.paths += DIAG["paths"] + JN["paths"]
        c.paths_failed += raw["failed"]
        c.add("jn exit code 0", ctx.rcs["jn"] == 0, ctx.rcs["jn"])
        c.paths_failed += _manifest_failures(results, "jn")["count"]
        out = raw["out"]
        c.add("c_hat finite on every path", np.all(np.isfinite(out["c_hat"])),
              out["c_hat"].tolist())
        qv = float(np.sum(out["emp"]) / np.sum(out["pair"]))
        c.add("empirical/pairing QV within [0.8, 1.2]", 0.8 <= qv <= 1.2, qv)
        up, lo = raw["fits"]
        c.add("level-set fits: r^2 > 0.9 on both sides",
              up.r_squared > 0.9 and lo.r_squared > 0.9, (up.r_squared, lo.r_squared))
        c.add("level-set fits: positive decay rates",
              up.decay_rate > 0.0 and lo.decay_rate > 0.0, (up.decay_rate, lo.decay_rate))
        summary = {r["side"]: r for r in _rows(results, "jn/jn_summary.csv")}
        tails = {r["eps"]: float(r["k_hat"]) for r in _rows(results, "jn/jn_tails.csv")}
        cube_rows = _rows(results, "jn/jn_cubes.csv")
        c.add("jn: positive decay rates",
              all(float(summary[s]["decay_rate"]) > 0.0 for s in ("upper", "lower")),
              [summary[s]["decay_rate"] for s in ("upper", "lower")])
        c.add("jn: tail quantiles finite and positive",
              all(math.isfinite(v) and v > 0.0 for v in tails.values()), tails)
        c.add("jn: cube statistics on root + 32 cubes, all finite",
              len(cube_rows) == 33 and all(math.isfinite(float(r["qv_ratio"]))
                                           for r in cube_rows), len(cube_rows))
        c.refs = {
            "diag.c_hat_median": float(np.median(out["c_hat"])),
            "diag.qv_ratio": qv,
            "diag.rate_upper": up.decay_rate,
            "diag.rate_lower": lo.decay_rate,
            "jn.rate_upper": float(summary["upper"]["decay_rate"]),
            "jn.rate_lower": float(summary["lower"]["decay_rate"]),
            "jn.k_hat_0.05": tails["0.05"],
        }
        return c


# ---------------------------------------------------------------------------
# rough-coefficient

MOSER = {"npts": 64, "data": 50}
STATE_A = {"npts": 64, "paths": 6}


class RoughCoefficient:
    name = "rough-coefficient"
    why = ("diffusion that changes every step: one factorization per step or per "
           "path per step, so a faster shared-A solve should leave it unchanged")
    configs = {
        "moser": "[grid]\nnpts = {npts}\n".format(**MOSER),
        "ensemble": ("[grid]\nnpts = {npts}\n\n[model]\na = expr\n"
                     "a_expr = 1 + 0.5*u/(1+abs(u))\niota = 0.5\n\n"
                     "[montecarlo]\npaths = {paths}\n").format(**STATE_A),
    }
    threads = 1
    node_steps = (MOSER["data"] * (_steps(MOSER["npts"]) * MOSER["npts"]
                                   + _steps(2 * MOSER["npts"]) * 2 * MOSER["npts"])
                  + STATE_A["paths"] * _steps(STATE_A["npts"]) * STATE_A["npts"])
    largest_array = {
        "what": "state-dependent ensemble noise increments (paths, M, m) float64",
        "shape": [STATE_A["paths"], _steps(STATE_A["npts"]), 4],
        "bytes": STATE_A["paths"] * _steps(STATE_A["npts"]) * 4 * 8,
        "computed": True,
    }

    def run(self, ctx):
        ctx.cli("moser", "moser")
        ctx.cli("ensemble", "ensemble")

    def check(self, ctx, results, raw) -> Checks:
        c = Checks()
        for part in ("moser", "ensemble"):
            c.add(f"{part} exit code 0", ctx.rcs[part] == 0, ctx.rcs[part])
        ratios = _rows(results, "moser/comparison_ratios.csv")
        values = [float(r[k]) for r in ratios for k in ("ratio", "ratio_refined")]
        c.add("moser: every ratio finite",
              len(ratios) == MOSER["data"] and all(math.isfinite(v) for v in values),
              len(ratios))
        summary = _rows(results, "moser/comparison_summary.csv")[0]
        change = float(summary["relative_change"])
        c.add("moser: relative change < 20%", change < 0.20, change)
        paths = _rows(results, "ensemble/paths.csv")
        failed = sum(r["failed"] == "true" for r in paths)
        c.paths += len(paths)
        c.paths_failed += _manifest_failures(results, "ensemble")["count"]
        c.add("state-dependent ensemble: no failed path",
              len(paths) == STATE_A["paths"] and failed == 0, failed)
        c.refs = {
            "moser.max_ratio": float(summary["max_ratio"]),
            "moser.max_ratio_refined": float(summary["max_ratio_refined"]),
            "ensemble.median_sup_Q": float(np.median([float(r["sup_Q"]) for r in paths])),
            "ensemble.median_inf_P": float(np.median([float(r["inf_P"]) for r in paths])),
        }
        return c


# ---------------------------------------------------------------------------
# combinatorics

COVERS = [(theta, n, R) for theta in (0.6, 0.75, 0.9) for n in (1, 2) for R in (1.0, 0.5)]
CUBE_DEPTH = 3


class Combinatorics:
    name = "combinatorics"
    why = ("no solver: cylinder covers and cube hierarchies are built as Python "
           "objects and arrays, and geometry and cubes run in no other workload")
    configs = {"cubes": ""}
    threads = 1
    node_steps = 0
    largest_array = {
        "what": "extended hierarchy level-3 centres (8388608,) float64",
        "shape": [8388608],
        "bytes": 8388608 * 8,
        "computed": True,
    }

    def run(self, ctx):
        m = ctx.m
        covers = []
        for theta, n, R in COVERS:
            anchors = ctx.call(m.geometry.cover_cylinder, theta, R, n)
            # compact copies for the checks; the anchor list itself is freed
            ta = np.array([a[0] for a in anchors])
            xa = np.array([a[1] for a in anchors]).reshape(len(anchors), n)
            covers.append((theta, n, R, ta, xa))
            del anchors
        root = m.cubes.unit_cube(1)
        core = ctx.call(m.cubes.build_core, root, CUBE_DEPTH)
        core_counts = [core.count_level(j) for j in range(CUBE_DEPTH + 1)]
        del core
        ext = ctx.call(m.cubes.build_extended, root, CUBE_DEPTH)
        ext_counts = [ext.count_level(j) for j in range(CUBE_DEPTH + 1)]
        del ext
        ctx.cli("cubes", "cubes")
        ctx.results["covers.csv"] = _csv(
            ["theta", "n", "R", "anchors", "sha256"],
            [(theta, n, R, ta.size,
              hashlib.sha256(ta.tobytes() + xa.tobytes()).hexdigest())
             for theta, n, R, ta, xa in covers])
        ctx.results["cube_levels.csv"] = _csv(
            ["level", "core", "extended"],
            [(j, core_counts[j], ext_counts[j]) for j in range(CUBE_DEPTH + 1)])
        return {"covers": covers, "core": core_counts, "extended": ext_counts}

    def check(self, ctx, results, raw) -> Checks:
        m = ctx.m
        c = Checks()
        rng = np.random.default_rng(ctx.seed)
        counts = {}
        for theta, n, R, ta, xa in raw["covers"]:
            tag = f"theta={theta} n={n} R={R}"
            bound = m.geometry.covering_bound(theta, n)
            c.add(f"cover {tag}: anchors <= covering_bound", ta.size <= bound,
                  f"{ta.size} <= {bound}")
            counts.setdefault((theta, n), set()).add(ta.size)
            c.add(f"cover {tag}: anchors inside the target",
                  np.all(np.abs(xa) < theta * R) and np.all(ta <= 1.0)
                  and np.all(ta > 1.0 - (theta * R) ** 2))
            c.add(f"cover {tag}: sampled points covered",
                  _covered(theta, n, R, ta, xa, rng))
        for (theta, n), sizes in counts.items():
            c.add(f"cover theta={theta} n={n}: same count at both radii",
                  len(sizes) == 1, sorted(sizes))
        for j in range(CUBE_DEPTH + 1):
            c.add(f"cubes level {j}: core count matches core_count",
                  raw["core"][j] == m.cubes.core_count(1, j), raw["core"][j])
            c.add(f"cubes level {j}: extended count matches extended_count",
                  raw["extended"][j] == m.cubes.extended_count(1, j), raw["extended"][j])
        c.add("cubes exit code 0", ctx.rcs["cubes"] == 0, ctx.rcs["cubes"])
        for r in _rows(results, "cubes/cube_counts.csv"):
            c.add(f"spdelab cubes level {r['level']}: counts match the recurrence",
                  r["core_count"] == r["core_expected"]
                  and r["extended_count"] == r["extended_expected"])
        c.fixed = {f"anchors.theta{theta}.n{n}": float(sizes.pop())
                   for (theta, n), sizes in counts.items()}
        c.fixed["cubes.core_total"] = float(sum(raw["core"]))
        c.fixed["cubes.extended_total"] = float(sum(raw["extended"]))
        return c


def _covered(theta, n, R, ta, xa, rng) -> bool:
    """Every point of a grid over the target cylinder, plus random points
    drawn from the benchmark seed, lies in some covering cylinder."""
    rho = (1.0 - theta) * R / 2.0
    depth = (theta * R) ** 2
    axis = np.linspace(-theta * R, theta * R, 9)
    grid_x = np.array(np.meshgrid(*([axis] * n), indexing="ij")).reshape(n, -1).T
    samples = [(t, grid_x) for t in 1.0 - depth * np.linspace(0.0, 1.0, 9)]
    for _ in range(32):
        t = 1.0 - depth * rng.random()
        samples.append((t, rng.uniform(-theta * R, theta * R, size=(1, n))))
    for t, pts in samples:
        active = (t <= ta + 1e-12) & (ta - rho * rho - 1e-12 <= t)
        inside = np.all(np.abs(pts[:, None, :] - xa[None, active, :]) < rho + 1e-12, axis=2)
        if not np.all(np.any(inside, axis=1)):
            return False
    return True


def _manifest_failures(results: dict, part: str) -> dict:
    return json.loads(results[f"{part}/manifest.json"])["failures"]


WORKLOADS = {w.name: w for w in (TailEnsemble(), PathDiagnostics(),
                                 RoughCoefficient(), Combinatorics())}
