#!/usr/bin/env python3
"""Rewrite tests/golden, or check the current outputs against it exactly.

    PYTHONPATH=src python3 tests/record_golden.py           # rewrite
    PYTHONPATH=src python3 tests/record_golden.py --check   # compare only

Rewrite only at a commit whose outputs are the new reference. Before it
overwrites anything it prints every cell that changes against the current
references and the largest relative difference; both go into the
CHANGES.md entry of the change that rewrites a reference.

--check writes nothing. It prints every CSV cell whose text differs from
the reference at all (no tolerance), every missing or extra CSV file and
run, and every manifest entry that differs, then the count of differing
cells out of the reference's cells. It exits 1 on any difference.
"""
import argparse
import contextlib
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

from test_golden import GOLDEN, cell_diffs, manifest_entries, read_rows, run_all


def compare(run: str, outdir: Path) -> tuple:
    """(CSV cell diffs, other differences, reference cell count) of one run.

    Cell diffs are cell_diffs tuples; the other differences are lines
    naming a missing or extra CSV file or a differing manifest entry.
    """
    ref = GOLDEN / run
    entries = manifest_entries(outdir)
    got = sorted(name for name in entries["results"] if name.endswith(".csv"))
    want = sorted(p.name for p in ref.glob("*.csv"))
    cells, other, total = [], [], 0
    for name in sorted(set(got) | set(want)):
        if name not in want:
            other.append(f"{run}/{name}: new")
        elif name not in got:
            other.append(f"{run}/{name}: not written")
        else:
            rows = read_rows(ref / name)
            total += sum(len(row) for row in rows)
            cells += cell_diffs(f"{run}/{name}", read_rows(outdir / name), rows)
    manifest = ref / "manifest.json"
    if manifest.exists() and json.loads(manifest.read_text()) != entries:
        other.append(f"{run}/manifest.json: results or failures differ")
    return cells, other, total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the references exactly and write nothing")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        # the runs' own stdout goes to stderr, so stdout lists differences only
        with contextlib.redirect_stdout(sys.stderr):
            dirs = run_all(Path(tmp))
        stale = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir() and p.name not in dirs)
        other = [f"{name}: no longer a golden run" for name in stale]
        worst, changed, total = 0.0, 0, 0
        for run, outdir in dirs.items():
            cells, run_other, run_total = compare(run, outdir)
            for where, a, b, rel in cells:
                print(f"{where}: {b!r} -> {a!r} (rel {rel:.3g})")
                worst = max(worst, rel)
            changed, total, other = changed + len(cells), total + run_total, other + run_other
            if not args.check:
                ref = GOLDEN / run
                if ref.exists():
                    shutil.rmtree(ref)
                ref.mkdir(parents=True)
                entries = manifest_entries(outdir)
                for name in entries["results"]:
                    if name.endswith(".csv"):
                        shutil.copyfile(outdir / name, ref / name)
                with open(ref / "manifest.json", "w") as fh:
                    json.dump(entries, fh, indent=2, sort_keys=True)
                    fh.write("\n")
        for line in other:
            print(line)
        if args.check:
            print(f"{changed} of {total} golden cells differ"
                  + (f"; {len(other)} other differences" if other else ""))
            return 1 if changed or other else 0
        for name in stale:
            shutil.rmtree(GOLDEN / name)
        print(f"largest relative difference: {worst:.3g}"
              + (" (a text cell changed)" if math.isinf(worst) else ""))
        return 0


if __name__ == "__main__":
    sys.exit(main())
