"""Golden outputs: every subcommand's CSV files against committed references.

Each subcommand runs through `main` with `--plot` on a small config, and
more runs pin the config branches that the subcommands' own runs leave
out; the comment above each config says which.  Every CSV cell is
compared with the file of the same name under tests/golden/<run>/: text
cells must be equal, number cells equal or within a relative 1e-12.  The
manifest's `results` and `failures` must equal the reference manifest's,
and each run must end with its own exit code.  A reference changes only
together with a CHANGES.md entry that lists the changed cells and the
largest relative difference; `tests/record_golden.py` rewrites them and
prints both.  A new run is recorded at the parent of the change that
needs it, before any source changes.
"""
import csv
import json
import math
from pathlib import Path
from typing import NamedTuple

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

# A that varies only in x: one shared matrix, solved every step
CONFIG_1D_X = CONFIG_1D.replace("a = random_elliptic\n",
                                "a = expr\na_expr = 1 + 0.5*sin(x)\n")

# A that reads u: one matrix per row and step, a 1D dpttrf and a 2D splu each step
CONFIG_1D_U = CONFIG_1D.replace("a = random_elliptic\n",
                                "a = expr\na_expr = 1 + 0.5*u/(1+abs(u))\n")
CONFIG_2D_U = (CONFIG_1D_U.replace("[grid]\n", "[grid]\nn = 2\n")
               .replace("npts = 32", "npts = 16").replace("paths = 16", "paths = 8"))

# A that varies only in x in 2D: one sparse LU for the whole batch
CONFIG_2D_X = CONFIG_2D_U.replace("1 + 0.5*u/(1+abs(u))", "1 + 0.5*sin(x1)*cos(x2)")

# the default model, identity A: the 1D and 2D FFT solves
CONFIG_DEFAULT = "[grid]\nnpts = 32\n\n[montecarlo]\npaths = 16\nchunk = 8\n"
CONFIG_DEFAULT_2D = CONFIG_DEFAULT.replace("[grid]\n", "[grid]\nn = 2\n").replace(
    "npts = 32", "npts = 16")

# a = constant (an FFT solve), and f and g given as expressions
CONFIG_EXPR = CONFIG_1D.replace("a = random_elliptic\niota = 0.5\n", """\
a = constant
a_value = 0.75
iota = 0.5
f = expr
f_expr = 0.5*u*cos(x)
g = expr
g_expr = 0.3*u*sin(t + x)
growth_bound = 1.0
""")

# f = linear so steep that every path blows up: the failure roster, exit 3
CONFIG_BLOWUP = CONFIG_DEFAULT.replace("[montecarlo]", "[model]\nf = linear\nlambda_f = 1000\n\n"
                                       "[montecarlo]")

# trig noise so strong that a step's factor 1 + sum_i sigma_i dW^i can be
# negative: paths at the floor and a positive negative-part energy
CONFIG_NOISY = CONFIG_DEFAULT.replace("[montecarlo]", "[model]\nlambda_g = 4\n\n[montecarlo]")

# [regions] in both spellings, run on two threads under --seed
CONFIG_REGIONS = CONFIG_1D + """
[regions]
cylinder = {"t0": 0.5, "x0": [0.25], "r": 0.5}
box = {"t_lo": 0.25, "t_hi": 0.75, "center": [-0.5], "radius": 0.75}
"""

# the keys no other run sets: [solver] dt, f0 = gaussian and the replay-only
# scheme and tol, [montecarlo] gammas, and a unary minus in an expression
CONFIG_KEYS = """\
[grid]
npts = 32

[model]
f = expr
f_expr = -0.5*u
growth_bound = 1.0

[solver]
dt = 0.005
scheme = semi-implicit
tol = 1e-08
f0 = gaussian
width = 0.75

[montecarlo]
paths = 16
chunk = 8
gammas = 1, 4, 16
"""

# one region, named neither P nor Q: positivity reads it, and norms falls
# back to its default window; f0 = constant
CONFIG_ONE_REGION = """\
[grid]
npts = 32

[solver]
f0 = constant

[regions]
R = {"t0": 1.0, "x0": [0.0], "r": 0.5}

[montecarlo]
paths = 16
chunk = 8
"""


class Run(NamedTuple):
    """One golden case: `main` runs `command` on `config`, with `argv`
    before the subcommand, and must return `exit`."""

    command: str
    config: str
    argv: tuple = ()
    exit: int = 0


RUNS = {**{name: Run(name, CONFIG_1D) for name in cli.SUBCOMMANDS},
        "positivity-2d": Run("positivity", CONFIG_2D),
        "ensemble-1d-x": Run("ensemble", CONFIG_1D_X),
        "ensemble-1d-u": Run("ensemble", CONFIG_1D_U),
        "ensemble-2d-u": Run("ensemble", CONFIG_2D_U),
        "ensemble-2d-x": Run("ensemble", CONFIG_2D_X),
        "harnack-default": Run("harnack", CONFIG_DEFAULT),
        "positivity-2d-default": Run("positivity", CONFIG_DEFAULT_2D),
        "ensemble-expr": Run("ensemble", CONFIG_EXPR),
        "positivity-noisy": Run("positivity", CONFIG_NOISY),
        "ensemble-blowup": Run("ensemble", CONFIG_BLOWUP, exit=3),
        "ensemble-regions": Run("ensemble", CONFIG_REGIONS,
                                ("--seed", "7", "--threads", "2")),
        "harnack-keys": Run("harnack", CONFIG_KEYS),
        "positivity-one-region": Run("positivity", CONFIG_ONE_REGION),
        "norms-one-region": Run("norms", CONFIG_ONE_REGION)}


def run_all(base: Path) -> dict:
    """Run every golden case under base; run name -> its run directory."""
    out = {}
    for run, spec in RUNS.items():
        cfg = base / f"{run}.cfg"
        cfg.write_text(spec.config)
        out[run] = base / run
        rc = cli.main(["--config", str(cfg), "--out", str(out[run]), "--plot",
                       *spec.argv, spec.command])
        assert rc == spec.exit, f"{run}: exit code {rc}, expected {spec.exit}"
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
