#!/usr/bin/env python3
"""Record reference.json: the checked scalar outputs of every workload.

    python3 bench/record_reference.py

Run it once, at the commit whose outputs are the reference.  Each
workload runs one untraced iteration on RECORDED_SEED, which must pass all
its checks, and its values are kept.  The benchmark compares them at a
relative tolerance of run.REL_TOL: values that do not depend on the seed
(`Checks.fixed`) on every iteration, the others in the warm-up iteration
of every run, which uses RECORDED_SEED.  The seed-independent values are
also computed on the CHECK_SEEDS, and recording fails if they differ.
"""
import json
import os

import run
from workloads import WORKLOADS

RECORDED_SEED = 0
CHECK_SEEDS = (1, 2)


def main():
    m, _ = run.load_spdelab()
    table = {}
    for workload in WORKLOADS.values():
        base = os.path.join(run.OUT, f"record-{workload.name}")
        configs = run.write_configs(workload, base)
        per_seed = {}
        for seed in (RECORDED_SEED, *CHECK_SEEDS):
            ctx, raw = run.iterate(workload, m, seed, os.path.join(base, "iteration"), configs)
            checks = run.evaluate(workload, ctx, raw, None)
            if checks.failed or checks.paths_failed:
                raise SystemExit(f"{workload.name} seed {seed}: {checks.failed}")
            per_seed[seed] = checks
            print(workload.name, seed, checks.refs, checks.fixed, flush=True)
        recorded = per_seed[RECORDED_SEED]
        for seed in CHECK_SEEDS:
            if per_seed[seed].fixed != recorded.fixed:
                raise SystemExit(f"{workload.name}: seed-independent values differ on seed "
                                 f"{seed}: {per_seed[seed].fixed} vs {recorded.fixed}")
        table[workload.name] = {**recorded.refs, **recorded.fixed}
    with open(run.REFERENCE, "w") as fh:
        json.dump({"seed": RECORDED_SEED, "workloads": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
