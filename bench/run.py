#!/usr/bin/env python3
"""spdelab benchmark: time to a checked result, set-up, memory, and layers.

Run from the root of a checkout:

    python3 bench/run.py --workload tail-ensemble --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table

`--trace 0` reports the end-to-end metrics: `wall_s` (median time of one
iteration, summed over the calls into spdelab, checks excluded),
`setup_s` (median over fresh processes of start to ready: importing
spdelab, numpy and scipy, then parsing the workload's configs) and
`peak_rss_mb` of this process.  `--trace 1` runs untraced iterations for
half the interval and traced ones for the other half, and reports the
per-layer metrics of `layers.py`, the tracing overhead and node-steps per
second.  The last line of standard output is one JSON object with keys
correct, attempted, failed and metrics; `attempted` counts paths
integrated plus output checks, `failed` the failed paths plus failed
checks.  Any failed check makes the exit code 1.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types

import layers
from workloads import WORKLOADS, nproc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
MODULES = ("cli", "cubes", "degiorgi", "fields", "geometry", "jn", "montecarlo", "solver")
SETUP_RUNS = 5
# a reference value may differ from the recorded one in its last bits only
REL_TOL = 1e-9

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# volatile manifest keys; everything else in a result file must repeat
MANIFEST_CLOCK_KEYS = ("started", "finished")

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from spdelab import cli; "
    "[cli.parse_config(open(p).read()) for p in sys.argv[2:]]; print('ready', flush=True)")


def load_spdelab():
    """Import spdelab from this checkout's src/ and return its modules."""
    if not os.path.isfile(os.path.join(SRC, "spdelab", "__init__.py")):
        raise RuntimeError(f"no spdelab sources under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    pkg = importlib.import_module("spdelab")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"spdelab imported from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"spdelab.{name}") for name in MODULES}
    return types.SimpleNamespace(**mods), [pkg, *mods.values()]


class Context:
    """One iteration of a workload: its calls, their time and their outputs."""

    def __init__(self, m, seed, workdir, config_paths):
        self.m = m
        self.seed = seed
        self.workdir = workdir
        self.config_paths = config_paths
        self.wall = 0.0
        self.results = {}
        self.rcs = {}
        self._cli_parts = []

    def call(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.wall += time.perf_counter() - start

    def cli(self, part, subcommand, *extra):
        argv = ["--config", self.config_paths[part], "--seed", str(self.seed),
                "--out", os.path.join(self.workdir, part), *extra, subcommand]
        with contextlib.redirect_stdout(io.StringIO()):
            self.rcs[part] = self.call(self.m.cli.main, argv)
        self._cli_parts.append(part)

    def collect(self):
        """Read the CLI result files into `results`, then delete them."""
        for part in self._cli_parts:
            directory = os.path.join(self.workdir, part)
            for name in sorted(os.listdir(directory)):
                with open(os.path.join(directory, name), "rb") as fh:
                    data = fh.read()
                if name == "manifest.json":
                    manifest = json.loads(data)
                    for key in MANIFEST_CLOCK_KEYS:
                        manifest.pop(key, None)
                    data = json.dumps(manifest, sort_keys=True).encode()
                self.results[f"{part}/{name}"] = data
        shutil.rmtree(self.workdir, ignore_errors=True)


def write_configs(workload, directory) -> dict:
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for part, text in workload.configs.items():
        paths[part] = os.path.join(directory, f"{part}.cfg")
        with open(paths[part], "w") as fh:
            fh.write(text)
    return paths


def iterate(workload, m, seed, workdir, config_paths):
    gc.collect()
    ctx = Context(m, seed, workdir, config_paths)
    raw = workload.run(ctx)
    ctx.collect()
    return ctx, raw


def load_reference():
    if not os.path.isfile(REFERENCE):
        raise RuntimeError(f"missing {REFERENCE}; record it with bench/record_reference.py")
    with open(REFERENCE) as fh:
        return json.load(fh)


def evaluate(workload, ctx, raw, reference):
    """Output checks of one iteration, including the reference comparison:
    values that do not depend on the seed on every seed, the others on the
    recorded seed only."""
    checks = workload.check(ctx, ctx.results, raw)
    if reference is None:
        return checks
    table = reference["workloads"][workload.name]
    compared = dict(checks.fixed)
    if ctx.seed == reference["seed"]:
        compared.update(checks.refs)
    for key, value in sorted(compared.items()):
        ref = table[key]
        checks.add(f"reference {key} (seed {ctx.seed})",
                   abs(value - ref) <= REL_TOL * max(1.0, abs(ref)), f"{value!r} vs {ref!r}")
    return checks


def measure_setup(config_paths) -> list:
    """Start-to-ready times of fresh interpreters, after one unmeasured start."""
    times = []
    for k in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, SRC, *config_paths],
                                stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait() != 0 or line != "ready":
            raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
        if k > 0:
            times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# environment

def _git_revision() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = os.path.join(ROOT, ".git", name)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "spdelab", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def _caches() -> list:
    """Data and unified caches: level, size per instance and instance count."""
    seen = {}
    for index in glob.glob("/sys/devices/system/cpu/cpu[0-9]*/cache/index[0-9]*"):
        try:
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            if kind == "Instruction":
                continue
            fields = []
            for name in ("level", "size", "shared_cpu_list"):
                with open(os.path.join(index, name)) as fh:
                    fields.append(fh.read().strip())
        except OSError:
            continue
        level, size, shared = fields
        seen[(level, shared)] = size
    levels = {}
    for (level, _), size in seen.items():
        entry = levels.setdefault(level, {"level": int(level), "size": size, "instances": 0})
        entry["instances"] += 1
    return [levels[k] for k in sorted(levels)]


def environment(workload) -> dict:
    import numpy
    import scipy
    return {
        "nproc": nproc(),
        "threads_used": workload.threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": _git_revision(),
        "spdelab_source_sha256": _source_digest(),
        "caches": _caches(),
        "largest_array": workload.largest_array,
        "workload_why": workload.why,
    }


# ---------------------------------------------------------------------------
# one workload

class Tally:
    """attempted/failed over every iteration of the run, plus check details."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add_checks(self, checks):
        self.attempted += checks.paths + len(checks.items)
        self.failed += checks.paths_failed + len(checks.failed)
        self.failures += checks.failed

    def require(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append((name, False, str(detail)))


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.m, self.modules = load_spdelab()
        self.reference = load_reference()
        self.base = os.path.join(OUT, f"{workload.name}-seed{seed}-pid{os.getpid()}")
        self.configs = write_configs(workload, self.base)
        self.workdir = os.path.join(self.base, "iteration")
        self.tally = Tally()
        self.first = {}      # seed: outputs of its first iteration

    def measure(self, seconds, at_least, after=None, seed=None) -> list:
        """Iterate on `seed` (the run's seed by default) until `seconds`
        have passed and at least `at_least` iterations ran; every
        iteration's outputs must equal those of the seed's first iteration
        byte for byte.  Returns the wall times."""
        seed = self.seed if seed is None else seed
        walls = []
        start = time.perf_counter()
        while len(walls) < at_least or time.perf_counter() - start < seconds:
            ctx, raw = iterate(self.workload, self.m, seed, self.workdir, self.configs)
            self.tally.add_checks(evaluate(self.workload, ctx, raw, self.reference))
            first = self.first.setdefault(seed, ctx.results)
            self.tally.require("outputs identical to the first untraced iteration",
                               ctx.results == first, _diff(first, ctx.results))
            walls.append(ctx.wall)
            if after is not None:
                after(ctx)
        return walls

    def warm_up(self):
        """One unmeasured iteration on the recorded seed, so lazy imports and
        first-call costs stay out of the timing and every run compares the
        seed-dependent outputs with reference.json."""
        self.measure(0.0, 1, seed=self.reference["seed"])

    def untraced(self, seconds) -> tuple:
        setup = measure_setup(list(self.configs.values()))
        self.warm_up()
        walls = self.measure(seconds, 2)
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        return metrics, {"walls": walls, "setups": setup}

    def traced(self, seconds) -> tuple:
        workload, tally = self.workload, self.tally
        self.warm_up()
        plain = self.measure(seconds / 2.0, 1)
        tracer = layers.Tracer()
        per_iteration = []
        last_spans = []

        def collect_layers(ctx):
            values = layers.layer_metrics(tracer.spans, tracer.counts)
            values["trace.wall_s"] = ctx.wall
            per_iteration.append(values)
            tally.require("self times of each thread sum to no more than the traced wall time",
                          values["trace.self_max_thread_s"] <= ctx.wall,
                          f"{values['trace.self_max_thread_s']!r} > {ctx.wall!r}")
            tally.require("traced node-steps equal the count from the inputs",
                          values["solver.node_steps"] == workload.node_steps,
                          f"{values['solver.node_steps']} vs {workload.node_steps}")
            last_spans[:] = tracer.spans
            tracer.reset()

        # traced outputs are compared with the untraced first iteration's
        with layers.installed(tracer, self.modules):
            tracer.reset()
            self.measure(seconds / 2.0, 2, after=collect_layers)

        counts = [k for k, v in per_iteration[0].items() if isinstance(v, int)]
        for key in counts:
            tally.require(f"count {key} identical across traced iterations",
                          len({values[key] for values in per_iteration}) == 1,
                          [values[key] for values in per_iteration])
        metrics = {}
        for key in per_iteration[0]:
            samples = [values[key] for values in per_iteration]
            metrics[key] = samples[0] if key in counts else statistics.median(samples)
        plain_wall = statistics.median(plain)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain_wall
        metrics["solver.node_steps_per_s"] = workload.node_steps / plain_wall
        self._write_spans(last_spans)
        return metrics, {"walls": plain,
                         "traced_walls": [v["trace.wall_s"] for v in per_iteration]}

    def _write_spans(self, spans):
        path = os.path.join(OUT, f"spans-{self.workload.name}-seed{self.seed}.csv")
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,thread\n")
            for sid, name, start, end, parent, thread in sorted(spans):
                fh.write(f"{sid},{name},{start!r},{end!r},"
                         f"{'' if parent is None else parent},{thread}\n")

    def __call__(self, seconds, traced) -> tuple:
        env = environment(self.workload)
        try:
            metrics, detail = self.traced(seconds) if traced else self.untraced(seconds)
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        record = {"workload": self.workload.name, "seed": self.seed, "seconds": seconds,
                  "trace": int(traced), "environment": env, "metrics": metrics,
                  "attempted": self.tally.attempted, "failed": self.tally.failed,
                  "failures": self.tally.failures, **detail}
        with open(os.path.join(self.base, "result.json"), "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        return env, metrics, self.tally


def _diff(a, b) -> str:
    return ", ".join(sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k)))


PER_LAYER_UNITS = dict(
    [(metric, unit) for metric, unit, _, _ in layers.SPAN_METRICS]
    + layers.COUNTERS + layers.G_METRICS
    + [("trace.self_total_s", "s"), ("trace.self_max_thread_s", "s"), ("trace.wall_s", "s"),
       ("trace.overhead_s", "s"),
       ("solver.node_steps_per_s", "1/s")])


def result_line(metrics, tally, traced) -> dict:
    units = PER_LAYER_UNITS if traced else END_TO_END
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


# ---------------------------------------------------------------------------
# every workload in one table

def run_all(seed, seconds, trace) -> int:
    status = 0
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if not lines:
            rows.append((name, "error", "", f"exit code {proc.returncode}"))
            continue
        result = json.loads(lines[-1])
        rate = result["failed"] / result["attempted"]
        rows.append((name, "error_rate", repr(rate), "ratio"))
        for metric, entry in result["metrics"].items():
            rows.append((name, metric, repr(entry["value"]), entry["unit"]))
    width = max(len(r[1]) for r in rows)
    for workload, metric, value, unit in rows:
        print(f"{workload:18} {metric:{width}} {value:>24} {unit}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    workload = WORKLOADS[args.workload]
    try:
        env, metrics, tally = Run(workload, args.seed)(args.seconds, bool(args.trace))
    except (RuntimeError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for name, _, detail in tally.failures:
        print(f"bench: check failed: {name}: {detail}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result_line(metrics, tally, bool(args.trace))))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
