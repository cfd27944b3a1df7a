"""Golden outputs: every subcommand's CSV files against committed references.

Each subcommand runs through `main` with `--plot` on a small config, and
2D `positivity` runs once more. Every CSV cell is compared with the file
of the same name under tests/golden/<run>/: text cells must be equal,
number cells equal or within a relative 1e-12. The manifest's `results`
and `failures` must equal the reference manifest's. A reference changes
only together with a CHANGES.md entry that lists the changed cells and the
largest relative difference; `tests/record_golden.py` rewrites them and
prints both.
"""
import csv
import json
import math
from pathlib import Path

from spdelab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-12

CONFIG_1D = """\
[grid]
npts = 32

[model]
a = random_elliptic
iota = 0.5

[montecarlo]
paths = 16
chunk = 8
"""

CONFIG_2D = CONFIG_1D.replace("[grid]\n", "[grid]\nn = 2\n").replace("npts = 32", "npts = 16")

# run name -> (subcommand, config text)
RUNS = {**{name: (name, CONFIG_1D) for name in cli.SUBCOMMANDS},
        "positivity-2d": ("positivity", CONFIG_2D)}


def run_all(base: Path) -> dict:
    """Run every golden case under base; run name -> its run directory."""
    out = {}
    for run, (command, text) in RUNS.items():
        cfg = base / f"{run}.cfg"
        cfg.write_text(text)
        out[run] = base / run
        rc = cli.main(["--config", str(cfg), "--out", str(out[run]), "--plot", command])
        assert rc == 0, f"{run}: exit code {rc}"
    return out


def manifest_entries(outdir: Path) -> dict:
    """The manifest keys that must match the reference."""
    manifest = json.loads((outdir / "manifest.json").read_text())
    return {"results": manifest["results"], "failures": manifest["failures"]}


def read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _relative(got: str, want: str) -> float:
    """Relative difference of two number cells; inf when either is text."""
    try:
        a, b = float(got), float(want)
    except ValueError:
        return math.inf
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def cell_diffs(name: str, got: list, want: list) -> list:
    """(where, got, want, relative difference) for every cell whose text differs."""
    out = []
    if len(got) != len(want):
        out.append((f"{name}: {len(got)} rows", "", f"{len(want)} rows", math.inf))
    header = want[0] if want else []
    for i, (grow, wrow) in enumerate(zip(got, want)):
        if len(grow) != len(wrow):
            out.append((f"{name} row {i}: {len(grow)} cells", "", f"{len(wrow)} cells",
                        math.inf))
        for j, (a, b) in enumerate(zip(grow, wrow)):
            if a != b:
                col = header[j] if j < len(header) else j
                out.append((f"{name} row {i} {col}", a, b, _relative(a, b)))
    return out


def test_every_subcommand_matches_its_reference(tmp_path):
    dirs = run_all(tmp_path)
    assert sorted(p.name for p in GOLDEN.iterdir() if p.is_dir()) == sorted(RUNS)
    problems = []
    for run, outdir in dirs.items():
        ref = GOLDEN / run
        got, want = manifest_entries(outdir), json.loads((ref / "manifest.json").read_text())
        if got != want:
            problems.append(f"{run}/manifest.json: {got} != reference {want}")
        for name in got["results"]:
            if name.endswith(".svg"):
                text = (outdir / name).read_text()
                if not (text.startswith("<svg ") and text.rstrip().endswith("</svg>")):
                    problems.append(f"{run}/{name}: not an SVG document")
        for path in sorted(ref.glob("*.csv")):
            for where, a, b, rel in cell_diffs(f"{run}/{path.name}",
                                              read_rows(outdir / path.name),
                                              read_rows(path)):
                if rel > REL_TOL:
                    problems.append(f"{where}: {a!r}, reference {b!r} (rel {rel:.3g})")
    print("\n".join(problems))
    assert not problems, f"{len(problems)} differences:\n" + "\n".join(problems)
