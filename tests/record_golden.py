#!/usr/bin/env python3
"""Rewrite tests/golden: the reference CSV files and manifest entries of
every golden run.

    PYTHONPATH=src python3 tests/record_golden.py

Run it only at a commit whose outputs are the new reference. Before it
overwrites anything it prints every cell that changes against the current
references and the largest relative difference; both go into the
CHANGES.md entry of the change that rewrites a reference.
"""
import json
import math
import shutil
import tempfile
from pathlib import Path

from test_golden import GOLDEN, cell_diffs, manifest_entries, read_rows, run_all


def main():
    with tempfile.TemporaryDirectory() as tmp:
        dirs = run_all(Path(tmp))
        worst = 0.0
        for run, outdir in dirs.items():
            ref = GOLDEN / run
            entries = manifest_entries(outdir)
            csvs = [name for name in entries["results"] if name.endswith(".csv")]
            for name in csvs:
                if (ref / name).exists():
                    for where, a, b, rel in cell_diffs(f"{run}/{name}",
                                                      read_rows(outdir / name),
                                                      read_rows(ref / name)):
                        print(f"{where}: {b!r} -> {a!r} (rel {rel:.3g})")
                        worst = max(worst, rel)
                else:
                    print(f"{run}/{name}: new")
            if ref.exists():
                shutil.rmtree(ref)
            ref.mkdir(parents=True)
            for name in csvs:
                shutil.copyfile(outdir / name, ref / name)
            with open(ref / "manifest.json", "w") as fh:
                json.dump(entries, fh, indent=2, sort_keys=True)
                fh.write("\n")
        stale = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir() and p.name not in dirs)
        for name in stale:
            shutil.rmtree(GOLDEN / name)
            print(f"{name}: removed")
        print(f"largest relative difference: {worst:.3g}"
              + (" (a text cell changed)" if math.isinf(worst) else ""))


if __name__ == "__main__":
    main()
