"""Command line driver: config parsing, dispatch, and run artifacts.

A run reads one INI-style config (every key optional), executes one
subcommand, and leaves a directory containing CSV result tables plus a
manifest.json.  The manifest embeds the effective configuration in
canonical form, so `--config <run>/manifest.json` replays the run and,
because all randomness is counter-seeded and CSV floats are written
with repr, reproduces every result file byte for byte no matter how
many threads are used.

A subcommand is added by one row of SUBCOMMANDS: its runner and its help
line. The runner writes its files through a RunFiles, which lists each of
them in the manifest automatically.

Exit codes: 0 success, 2 validation error or a size over its budget,
3 numeric failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import difflib
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from .cubes import (
    Cube,
    build_core,
    build_extended,
    core_count,
    count_bound,
    extended_count,
    unit_cube,
)
from .degiorgi import CutoffFamily, IterationParams, iteration_trace, time_window
from .errors import ConfigError, DomainError, InvalidArgumentError, ResourceLimitError
from .fields import FieldSnapshot, Grid, MixedNormSpec, lpq_norm, sup_on
from .geometry import Ball, SpaceTimeRect, make_cylinder
from .jn import eighth_reads, fit_decay, hierarchy_stats, log_field, tail_quantiles
from .montecarlo import (
    ExperimentSpec,
    comparison_experiment,
    harnack_curve,
    indicator_monotonicity,
    median_sup,
    positivity_scan,
    run_ensemble,
    validate_windows,
)
from .solver import (
    ModelParams,
    SolverConfig,
    build_model,
    path_seed,
    periodic_heat_kernel,
    solve_path,
    validate_model,
)

DEFAULT_REGIONS = {
    "Q": SpaceTimeRect(0.0625, 0.25, Ball((0.0,), 0.5)),
    "P": SpaceTimeRect(0.5, 1.0, Ball((0.0,), 0.5)),
}


# ---------------------------------------------------------------------------
# config text <-> ExperimentSpec

def _floats(raw: str) -> tuple:
    toks = raw.replace(",", " ").split()
    if not toks:
        raise ValueError("expected at least one number")
    return tuple(float(t) for t in toks)


def _dt(raw: str):
    return None if raw.lower() == "auto" else float(raw)


def _scheme(raw: str):
    if raw != "semi-implicit":
        raise ValueError(f"the one scheme is semi-implicit, got {raw!r}")


def _optional(show):
    """Printer that leaves the key out when the value is None."""
    return lambda v: None if v is None else show(v)


class _Key(NamedTuple):
    """One config key: the spec field it sets and how its value is written."""

    section: str
    key: str
    field: str | None  # "<owner>.<attr>", owner one of grid, model, solver, spec
    parse: Callable  # raw text -> value
    show: Callable | None  # value -> text, or None to leave the key out
    default: object = dataclasses.MISSING  # only where the owner has none


_INT, _FLOAT, _STR = (int, str), (float, repr), (str, str)
_FLOATS = (_floats, lambda v: ", ".join(repr(x) for x in v))

# Key validation, parsing and the canonical text all follow this table, in
# its order. A key the text leaves out takes its owner's field default.
_KEYS = (
    _Key("grid", "n", "grid.n", *_INT, default=1),
    _Key("grid", "npts", "grid.npts", *_INT, default=128),
    _Key("grid", "extent", "grid.extent", *_FLOAT),
    _Key("model", "a", "model.a_kind", *_STR),
    _Key("model", "f", "model.f_kind", *_STR),
    _Key("model", "g", "model.g_kind", *_STR),
    _Key("model", "lambda_f", "model.lambda_f", *_FLOAT),
    _Key("model", "lambda_g", "model.lambda_g", *_FLOAT),
    _Key("model", "iota", "model.iota", *_FLOAT),
    _Key("model", "m", "model.m", *_INT),
    _Key("model", "a_seed", "model.a_seed", *_INT),
    _Key("model", "a_value", "model.a_value", *_FLOAT),
    _Key("model", "a_expr", "model.a_expr", str, _optional(str)),
    _Key("model", "f_expr", "model.f_expr", str, _optional(str)),
    _Key("model", "g_expr", "model.g_expr", str, _optional(str)),
    _Key("model", "growth_bound", "model.growth_bound", float, _optional(repr)),
    _Key("solver", "dt", "solver.dt", _dt, lambda v: "auto" if v is None else repr(v)),
    # replay-only keys, never printed: manifests that still carry them replay
    _Key("solver", "scheme", None, _scheme, None),
    _Key("solver", "tol", None, float, None),
    _Key("solver", "f0", "spec.ic_kind", *_STR),
    _Key("solver", "amplitude", "spec.ic_amplitude", *_FLOAT),
    _Key("solver", "width", "spec.ic_width", *_FLOAT),
    _Key("solver", "ic_seed", "spec.ic_seed", *_INT),
    _Key("solver", "horizon", "spec.horizon", *_FLOAT),
    _Key("montecarlo", "paths", "spec.n_paths", *_INT),
    _Key("montecarlo", "seed", "spec.master_seed", *_INT),
    _Key("montecarlo", "chunk", "spec.chunk", *_INT),
    _Key("montecarlo", "gammas", "spec.gammas", *_FLOATS),
    _Key("montecarlo", "floor", "spec.floor", *_FLOAT),
    _Key("montecarlo", "alphas", "spec.alphas", *_FLOATS),
    _Key("montecarlo", "mu", "spec.mu", *_FLOAT),
    _Key("montecarlo", "nu", "spec.nu", *_FLOAT),
    _Key("montecarlo", "depth", "spec.depth", *_INT),
)

# [regions] keys are user-chosen names, so the table has no rows for it
_SECTIONS = ("grid", "model", "solver", "regions", "montecarlo")


def _tokenize(text: str):
    """INI text -> {section: {key: (raw value, line number)}}.

    Unknown sections and keys are rejected with a close-match hint.
    """
    sections: dict = {}
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"unterminated section header {line!r}", line=ln)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                hint = difflib.get_close_matches(name, _SECTIONS, n=1, cutoff=0.5)
                msg = f"unknown section [{name}]"
                if hint:
                    msg += f"; did you mean [{hint[0]}]?"
                raise ConfigError(msg, line=ln)
            current = name
            sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=ln)
        if current is None:
            raise ConfigError("key outside any [section]", line=ln)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if current != "regions":
            known = [k.key for k in _KEYS if k.section == current]
            if key not in known:
                hint = difflib.get_close_matches(key, known, n=1, cutoff=0.5)
                msg = f"unknown key {key!r} in [{current}]"
                if hint:
                    msg += f"; did you mean {hint[0]!r}?"
                raise ConfigError(msg, line=ln)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", line=ln)
        sections[current][key] = (val, ln)
    return sections


def _region(raw: str) -> SpaceTimeRect:
    obj = json.loads(raw)
    if not isinstance(obj, dict):
        raise ValueError("region must be a JSON object")
    keys = set(obj)
    if keys == {"t0", "x0", "r"}:
        return make_cylinder(obj["t0"], obj["x0"], obj["r"])
    if keys == {"t_lo", "t_hi", "center", "radius"}:
        return SpaceTimeRect(obj["t_lo"], obj["t_hi"],
                             Ball(obj["center"], obj["radius"]))
    raise ValueError(
        "region needs keys {t0, x0, r} (parabolic cylinder) or "
        f"{{t_lo, t_hi, center, radius}}, got {sorted(keys)}")


def _rejection(build) -> str | None:
    """The message of the InvalidArgumentError build() raises, or None."""
    try:
        build()
    except InvalidArgumentError as exc:
        return str(exc)
    return None


def _construct(make, base: dict, given: list):
    """make(**base) with the (attr, value, line) triples of given applied.

    A rejection is reported at the line of the first given key whose value
    alone, on top of base, is rejected with the same message: that value is
    wrong whatever the other keys say.  Failing that, at the line of the
    only given key without which the others are accepted: a kind key whose
    expression is bad, as an expression is read only once its kind key
    selects it.  Otherwise several keys are at fault together (or base
    is), and no line is reported.
    """
    try:
        return make(**{**base, **{attr: value for attr, value, _ in given}})
    except InvalidArgumentError as exc:
        line = None
        if _rejection(lambda: make(**base)) is None:
            line = next((ln for attr, value, ln in given
                         if _rejection(lambda: make(**{**base, attr: value})) == str(exc)),
                        None)
            if line is None:
                culprits = [ln for attr, _, ln in given if _rejection(lambda: make(
                    **{**base, **{a: v for a, v, _ in given if a != attr}})) is None]
                line = culprits[0] if len(culprits) == 1 else None
        raise ConfigError(str(exc), line=line) from None


def parse_config(text: str) -> ExperimentSpec:
    """Config text to a fully validated spec, all defaults filled.

    Unknown keys, malformed values, and geometry violations raise
    ConfigError carrying the offending line number when one exists.
    The coefficient model is built and spot-checked over the horizon, and
    ExperimentSpec builds the initial condition, eagerly so a bad model or
    field fails here, not mid-run.
    """
    sections = _tokenize(text)
    base = {"grid": {}, "model": {}, "solver": {}, "spec": {}}
    given = {owner: [] for owner in base}
    for k in _KEYS:
        entry = sections.get(k.section, {}).get(k.key)
        if entry is not None:
            raw, ln = entry
            try:
                value = k.parse(raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for [{k.section}] {k.key}: {exc}",
                                  line=ln) from None
        if k.field is None:
            continue
        owner, attr = k.field.split(".")
        if k.default is not dataclasses.MISSING:
            base[owner][attr] = k.default
        if entry is not None:
            given[owner].append((attr, value, ln))

    grid = _construct(Grid.regular, base["grid"], given["grid"])

    # the model is spot-checked over the configured horizon; a horizon that
    # the spec step rejects below is replaced by the default until then
    horizon = next((v for attr, v, _ in given["spec"]
                    if attr == "horizon" and 0.0 < v < math.inf), ExperimentSpec.horizon)

    def model_params(**params):
        p = ModelParams(**params)
        try:
            validate_model(build_model(p, grid.n, grid.extent),
                           extent=grid.extent, t_max=horizon)
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"model rejected: {exc}") from None
        return p

    model = _construct(model_params, base["model"], given["model"])
    solver = _construct(SolverConfig, base["solver"], given["solver"])

    named = []
    for name, (raw, ln) in sections.get("regions", {}).items():
        try:
            named.append((name, _region(raw), ln))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad region {name!r}: {exc}", line=ln) from None
    defaults = {} if named else {
        name: SpaceTimeRect(r.t_lo, r.t_hi, Ball((0.0,) * grid.n, r.ball.radius))
        for name, r in DEFAULT_REGIONS.items()}

    # the kind of initial condition is judged first and the other keys on
    # top of it, as the kind decides what amplitude overflows; the solver
    # joins the spec's keys at the line of its one key, dt
    spec_base = {**base["spec"], "grid": grid, "model": model,
                 "solver": SolverConfig(), "regions": defaults}
    kind = [entry for entry in given["spec"] if entry[0] == "ic_kind"]
    if kind:
        spec_base["ic_kind"] = _construct(ExperimentSpec, spec_base, kind).ic_kind
    spec = _construct(ExperimentSpec, spec_base,
                      [entry for entry in given["spec"] if entry[0] != "ic_kind"]
                      + [("solver", solver, ln) for _, _, ln in given["solver"]])
    if named:
        spec = _construct(lambda **regions: dataclasses.replace(spec, regions=regions),
                          {}, named)

    if "P" in spec.regions and "Q" in spec.regions:
        try:
            validate_windows(spec.regions["P"], spec.regions["Q"])
        except InvalidArgumentError as exc:
            lines = {name: ln for name, _, ln in named}
            raise ConfigError(str(exc), line=lines.get("P", lines.get("Q"))) from None
    return spec


def _value(spec: ExperimentSpec, field: str):
    owner, attr = field.split(".")
    return getattr(spec if owner == "spec" else getattr(spec, owner), attr)


def print_config(spec: ExperimentSpec) -> str:
    """Canonical config text; parse_config(print_config(s)) == s."""
    lines = []
    for section in _SECTIONS:
        lines += ["", f"[{section}]"]
        if section == "regions":
            lines += [f"{name} = " + json.dumps(
                {"t_lo": rect.t_lo, "t_hi": rect.t_hi,
                 "center": list(rect.ball.center), "radius": rect.ball.radius})
                for name, rect in spec.regions.items()]
        for k in _KEYS:
            if k.section == section and k.field is not None:
                text = k.show(_value(spec, k.field))
                if text is not None:
                    lines.append(f"{k.key} = {text}")
    return "\n".join(lines[1:]) + "\n"


# ---------------------------------------------------------------------------
# report writing

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: str, header, rows):
    # repr floats round-trip exactly, and no timestamps: reruns are
    # byte-identical, which the manifest contract relies on.
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def svg_line_chart(path: str, xs, series, labels, title: str,
                   xlabel: str, ylabel: str, logx: bool = False):
    """Minimal self-contained SVG line chart (no plotting dependency)."""
    xs = [float(v) for v in xs]
    tx = [math.log2(v) for v in xs] if logx else xs
    ys = [float(v) for s in series for v in s]
    x0, x1 = min(tx), max(tx)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.06 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    W, H, ML, MR, MT, MB = 640, 420, 72, 24, 46, 56

    def X(v):
        return ML + (W - ML - MR) * (v - x0) / (x1 - x0)

    def Y(v):
        return H - MB - (H - MT - MB) * (v - y0) / (y1 - y0)

    colors = ("#1f6fb4", "#c44e52", "#55a868", "#8172b2")
    dashes = ("", "7,4", "2,3", "10,3,2,3")
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
           f'viewBox="0 0 {W} {H}" font-family="sans-serif" font-size="12">',
           f'<rect width="{W}" height="{H}" fill="white"/>',
           f'<text x="{W / 2:.1f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
           f'<line x1="{ML}" y1="{H - MB}" x2="{W - MR}" y2="{H - MB}" stroke="black"/>',
           f'<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{H - MB}" stroke="black"/>',
           f'<text x="{(ML + W - MR) / 2:.1f}" y="{H - 14}" text-anchor="middle">{xlabel}</text>',
           f'<text x="18" y="{(MT + H - MB) / 2:.1f}" text-anchor="middle" '
           f'transform="rotate(-90 18 {(MT + H - MB) / 2:.1f})">{ylabel}</text>']
    for i in range(5):
        vx = x0 + i * (x1 - x0) / 4.0
        lab = 2.0**vx if logx else vx
        out.append(f'<line x1="{X(vx):.2f}" y1="{H - MB}" x2="{X(vx):.2f}" '
                   f'y2="{H - MB + 5}" stroke="black"/>')
        out.append(f'<text x="{X(vx):.2f}" y="{H - MB + 18}" '
                   f'text-anchor="middle">{lab:.4g}</text>')
        vy = y0 + i * (y1 - y0) / 4.0
        out.append(f'<line x1="{ML - 5}" y1="{Y(vy):.2f}" x2="{ML}" '
                   f'y2="{Y(vy):.2f}" stroke="black"/>')
        out.append(f'<text x="{ML - 8}" y="{Y(vy) + 4:.2f}" '
                   f'text-anchor="end">{vy:.4g}</text>')
    for k, (ser, label) in enumerate(zip(series, labels)):
        color = colors[k % len(colors)]
        dash = dashes[k % len(dashes)]
        pts = " ".join(f"{X(tx[i]):.2f},{Y(float(v)):.2f}" for i, v in enumerate(ser))
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.8"'
                   f'{extra} points="{pts}"/>')
        out.append(f'<text x="{W - MR - 6}" y="{MT + 16 + 16 * k}" text-anchor="end" '
                   f'fill="{color}">{label}</text>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


class RunFiles:
    """The result files of one run: joins each name onto the run directory,
    records it for the manifest's `results`, and writes charts only under --plot."""

    def __init__(self, outdir: str, plot: bool):
        self.outdir, self.plot, self.names = outdir, plot, []

    def _path(self, name: str) -> str:
        self.names.append(name)
        return os.path.join(self.outdir, name)

    def csv(self, name: str, header, rows):
        write_csv(self._path(name), header, rows)

    def chart(self, name: str, *args, **kwargs):
        if self.plot:
            svg_line_chart(self._path(name), *args, **kwargs)


def _failure_roster(ens) -> dict:
    """The manifest's failures: the failed paths of ens, none without one."""
    idx = [] if ens is None else np.nonzero(ens.failed)[0]
    return {"count": len(idx),
            "paths": [int(i) for i in idx],
            "steps": [int(ens.fail_steps[i]) for i in idx],
            "invalid": ens is not None and bool(ens.invalid)}


# ---------------------------------------------------------------------------
# subcommands; each writes through a RunFiles and returns its Ensemble or None

def cmd_solve(spec, out, args):
    """Deterministic heat benchmark: L2 error against the periodized kernel
    at three resolutions, time step locked to dx^2/2 so both error terms
    scale together."""
    t_init, t_final = 0.0625, 0.25
    rows = []
    prev_err = None
    for npts in (64, 128, 256):
        g = Grid.regular(1, npts, spec.grid.extent)
        cm = build_model(ModelParams(a_kind="identity", f_kind="zero",
                                     g_kind="zero", m=0), 1, g.extent)
        x = g.coords_flat()[0]
        u0 = FieldSnapshot(g, 0.0, periodic_heat_kernel(x, t_init, g.extent))
        path = solve_path(u0, cm, SolverConfig(), t_final, seed=0)
        exact = periodic_heat_kernel(x, t_init + float(path.times[-1]), g.extent)
        err = float(math.sqrt(g.dx * np.sum((path.values[-1] - exact) ** 2)))
        rows.append((npts, g.dx, path.dt, err,
                     None if prev_err is None else prev_err / err))
        prev_err = err
    out.csv("resolution_study.csv", ["npts", "dx", "dt", "l2_error", "error_ratio"], rows)
    out.chart("resolution_study.svg",
              [r[0] for r in rows], [[r[3] for r in rows]], ["l2 error"],
              "heat benchmark", "nodes", "l2 error", logx=True)
    print(f"error ratios per refinement: "
          f"{', '.join(repr(r[4]) for r in rows[1:])}")


def cmd_ensemble(spec, out, args):
    ens = run_ensemble(spec, threads=args.threads)
    names = sorted(spec.regions)
    header = ["path", "failed", "fail_step"]
    for name in names:
        header += [f"sup_{name}", f"inf_{name}"]
    header.append("neg_energy")
    rows = []
    for i in range(spec.n_paths):
        row = [i, bool(ens.failed[i]), int(ens.fail_steps[i])]
        for name in names:
            row += [float(ens.sup[name][i]), float(ens.inf[name][i])]
        row.append(float(ens.neg_energy[i]))
        rows.append(row)
    out.csv("paths.csv", header, rows)
    print(f"{ens.n_ok}/{spec.n_paths} paths completed"
          + (" (run flagged invalid)" if ens.invalid else ""))
    return ens


def _named_regions(spec, *names):
    out = []
    for name in names:
        if name not in spec.regions:
            raise InvalidArgumentError(
                f"this experiment needs a region named {name!r} in [regions]")
        out.append(spec.regions[name])
    return out


def _solved_path(spec, index=0):
    """The spec's coefficient model and its path `index`, solved alone over
    the whole horizon."""
    cm, u0 = spec.build()
    return cm, solve_path(u0, cm, spec.solver, spec.horizon,
                          seed=path_seed(spec.master_seed, index))


def cmd_harnack(spec, out, args):
    Q, P = _named_regions(spec, "Q", "P")
    ens = run_ensemble(spec, threads=args.threads)
    a = median_sup(ens, Q)
    curve = harnack_curve(ens, P, Q, a, spec.gammas)
    violations = indicator_monotonicity(ens, P, Q, a, spec.gammas)
    out.csv("harnack_curve.csv",
            ["gamma", "hits", "trials", "p_hat", "ci_lo", "ci_hi"],
            [(g, e.hits, e.trials, e.p_hat, e.ci_lo, e.ci_hi) for g, e in curve])
    out.csv("harnack_summary.csv",
            ["threshold_a", "n_paths", "n_ok", "n_failed",
             "monotonicity_violations", "invalid"],
            [(a, spec.n_paths, ens.n_ok, int(np.sum(ens.failed)),
              violations, ens.invalid)])
    out.chart("harnack_curve.svg",
              [g for g, _ in curve],
              [[e.p_hat for _, e in curve], [e.ci_hi for _, e in curve]],
              ["p_hat", "ci_hi"], "joint tail vs ratio threshold",
              "gamma", "probability", logx=True)
    last_g, last = curve[-1]
    print(f"a = {a!r}; p_hat({last_g:g}) = {last.p_hat!r} "
          f"[{last.ci_lo!r}, {last.ci_hi!r}]; monotonicity violations: {violations}")
    return ens


def cmd_positivity(spec, out, args):
    if "P" in spec.regions:
        region = spec.regions["P"]
    elif len(spec.regions) == 1:
        region = next(iter(spec.regions.values()))
    else:
        raise InvalidArgumentError(
            "positivity needs a region named 'P' (or a single region)")
    ens = run_ensemble(spec, threads=args.threads)
    rep = positivity_scan(ens, region, spec.floor)
    ok_ids = np.nonzero(ens.ok)[0]
    out.csv("positivity_paths.csv",
            ["path", "region_min", "neg_energy"],
            [(int(i), float(m), float(ens.neg_energy[i]))
             for i, m in zip(ok_ids, rep.mins)])
    out.csv("positivity_summary.csv",
            ["floor", "n_at_or_below", "worst_neg_energy",
             "initial_energy", "n_failed"],
            [(rep.floor, rep.n_at_or_below, rep.worst_neg_energy,
              rep.initial_energy, rep.n_failed)])
    print(f"{rep.n_at_or_below} of {rep.mins.size} paths reached the floor "
          f"{rep.floor!r}; worst negative-part energy {rep.worst_neg_energy!r}")
    return ens


def cmd_moser(spec, out, args):
    Q, P = _named_regions(spec, "Q", "P")
    rep = comparison_experiment(spec.grid, P, Q, n_data=50,
                                seed=spec.master_seed, horizon=spec.horizon)
    out.csv("comparison_ratios.csv",
            ["data_index", "ratio", "ratio_refined"],
            [(d, float(rep.ratios[d]), float(rep.ratios_refined[d]))
             for d in range(rep.ratios.size)])
    out.csv("comparison_summary.csv",
            ["max_ratio", "max_ratio_refined", "relative_change"],
            [(rep.max_ratio, rep.max_ratio_refined, rep.relative_change)])
    print(f"max sup/inf ratio {rep.max_ratio!r}, refined {rep.max_ratio_refined!r} "
          f"(relative change {rep.relative_change!r})")


def cmd_degiorgi(spec, out, args):
    n = spec.grid.n
    if spec.horizon < 1.0:
        raise InvalidArgumentError(
            "the iteration windows live in (0, 1]; set horizon >= 1")
    if spec.grid.extent < 1.5:
        raise InvalidArgumentError(
            "the cutoff family needs the box to cover |x| <= 3/2")
    cm, path = _solved_path(spec)
    lo, hi = time_window(0)
    base = sup_on(path, SpaceTimeRect(lo, hi, Ball((0.0,) * n, 1.0)))
    if base <= 0.0:
        raise InvalidArgumentError(
            "field is nonpositive on the base window; no level to truncate at")
    params = IterationParams(a=0.5 * base)
    trace = iteration_trace(path, cm, CutoffFamily(n), params)
    out.csv("iteration_trace.csv",
            ["k", "energy", "mart_sup", "qv_bound", "c_hat"],
            [(r.k, r.energy, r.mart_sup, r.qv_bound, r.c_hat) for r in trace.rows])
    out.csv("iteration_summary.csv",
            ["a", "eps", "delta", "decayed", "c_hat_max"],
            [(trace.a, trace.eps, trace.delta, trace.decayed, trace.c_hat_max)])
    print(f"a = {trace.a!r}; U_K/U_0 = "
          f"{(trace.rows[-1].energy / trace.rows[0].energy if trace.rows[0].energy else 0.0)!r};"
          f" decayed: {trace.decayed}")


def cmd_jn(spec, out, args):
    n = spec.grid.n
    H = spec.horizon
    root = Cube(l=H / 2.0, s=H / 8.0, z=math.sqrt(H / 8.0), w=(0.0,) * n)
    # a depth over the cube budget fails before path 0 is solved
    hier = build_core(root, spec.depth)
    cm, path = _solved_path(spec)
    lf = log_field(path, spec.mu)

    # a bad cube fails before any path runs; no table is written until
    # the fits below succeed, so a failed run leaves no result files
    cube_rows = [(level, k, st.cube.l, st.cube.s, st.a_c, st.plus_avg, st.minus_avg,
                  st.qv_ratio)
                 for level, k, st in hierarchy_stats(lf, cm, hier, per_level_limit=32)]

    # the decay fit uses ensemble-median fractions: one path's fractions
    # are too quantized at desk scale to survive the band filter
    alphas = np.asarray(spec.alphas, dtype=float)
    frac_up = np.full((spec.n_paths, alphas.size), np.nan)
    frac_lo = np.full((spec.n_paths, alphas.size), np.nan)
    values = np.full(spec.n_paths, np.nan)
    # every path shares path 0's times, so its rows serve them all, and the
    # ensemble captures those rows instead of keeping whole paths
    reads = eighth_reads(path, root)

    def consume(i, u):
        _, frac_up[i], frac_lo[i] = reads.fractions(u, spec.mu, alphas)
        try:
            values[i] = reads.tail_value(u, spec.mu, spec.nu)
        except DomainError:
            # u + mu <= 0 puts the path below -mu/2, reported after the run
            pass

    consume.captures = reads.rows
    ens = run_ensemble(spec, consumers=(consume,), threads=args.threads)
    # log_field's check of whole paths: the first path with a value below
    # -mu/2 is solved again alone, bitwise as in its batch, and raises there
    below = np.flatnonzero(ens.ok & (ens.neg_min < -0.5 * spec.mu))
    if below.size:
        log_field(_solved_path(spec, int(below[0]))[1], spec.mu)
    med_up = np.median(frac_up[ens.ok], axis=0)
    med_lo = np.median(frac_lo[ens.ok], axis=0)
    fit_plus = fit_decay(alphas, med_up, band=(0.05, 0.9))
    fit_minus = fit_decay(alphas, med_lo, band=(0.05, 0.9))
    quantiles = tail_quantiles(values[ens.ok])
    out.csv("jn_cubes.csv",
            ["level", "index", "time_center", "scale", "a_c",
             "upper_avg", "lower_avg", "qv_ratio"], cube_rows)
    out.csv("jn_levelsets.csv",
            ["alpha", "upper_fraction", "lower_fraction"],
            [(float(a), float(fp), float(fm)) for a, fp, fm in
             zip(alphas, med_up, med_lo)])
    out.csv("jn_summary.csv",
            ["side", "decay_rate", "amplitude", "r_squared", "clamp_fraction"],
            [("upper", fit_plus.decay_rate, fit_plus.amplitude,
              fit_plus.r_squared, lf.clamp_fraction),
             ("lower", fit_minus.decay_rate, fit_minus.amplitude,
              fit_minus.r_squared, lf.clamp_fraction)])
    out.csv("jn_tails.csv",
            ["eps", "k_hat", "mu", "nu"],
            [(eps, q, spec.mu, spec.nu)
             for eps, q in sorted(quantiles.items(), reverse=True)])
    out.chart("jn_levelsets.svg",
              list(alphas), [list(med_up), list(med_lo)],
              ["upper", "lower"], "level-set fractions", "alpha", "fraction")
    print(f"decay rates: upper {fit_plus.decay_rate!r} "
          f"(r^2 {fit_plus.r_squared!r}), lower {fit_minus.decay_rate!r} "
          f"(r^2 {fit_minus.r_squared!r})")
    return ens


def cmd_cubes(spec, out, args):
    depth = spec.depth
    n = spec.grid.n
    root = unit_cube(n)
    core = build_core(root, depth)
    ext = build_extended(root, depth)
    rows = []
    all_match = True
    for j in range(depth + 1):
        c, e = core.count_level(j), ext.count_level(j)
        ce, ee = core_count(n, j), extended_count(n, j)
        all_match &= (c == ce and e == ee)
        rows.append((j, core.levels[j].s, core.levels[j].z, c, ce, e, ee,
                     count_bound(n, j)))
    out.csv("cube_counts.csv",
            ["level", "s", "z", "core_count", "core_expected",
             "extended_count", "extended_expected", "bound"], rows)
    print(f"depth {depth}, n = {n}: counts "
          + ("match the recurrence" if all_match else "DIVERGE from the recurrence"))


def cmd_norms(spec, out, args):
    _, path = _solved_path(spec)
    if "Q" in spec.regions:
        rect = spec.regions["Q"]
    else:
        rect = SpaceTimeRect(spec.horizon / 4.0, spec.horizon,
                             Ball((0.0,) * spec.grid.n, 1.0))
    pairs = [(1.0, 1.0), (2.0, 2.0), (4.0, 2.0), (2.0, 4.0),
             (math.inf, 2.0), (2.0, math.inf), (math.inf, math.inf)]
    rows = [(p, q, lpq_norm(path, MixedNormSpec(p, q), rect)) for p, q in pairs]
    out.csv("norms.csv", ["p", "q", "value"], rows)
    print(f"{len(rows)} mixed norms over ({rect.t_lo!r}, {rect.t_hi!r}] x "
          f"B_{rect.ball.radius:g}")


class Subcommand(NamedTuple):
    run: Callable  # (spec, RunFiles, parsed args) -> Ensemble or None
    help: str


SUBCOMMANDS = {
    "solve": Subcommand(cmd_solve, "deterministic heat benchmark over three resolutions"),
    "ensemble": Subcommand(cmd_ensemble, "integrate an ensemble and tabulate per-path extrema"),
    "harnack": Subcommand(cmd_harnack, "joint sup/inf tail probabilities over ratio thresholds"),
    "positivity": Subcommand(cmd_positivity, "minima and negative-part energy over an ensemble"),
    "moser": Subcommand(cmd_moser, "deterministic sup/inf comparison for random positive data"),
    "degiorgi": Subcommand(cmd_degiorgi, "truncation energy iteration trace on one path"),
    "jn": Subcommand(cmd_jn, "log-field oscillation, level sets, and moment-product tails"),
    "cubes": Subcommand(cmd_cubes, "cube hierarchy counts against the recurrence"),
    "norms": Subcommand(cmd_norms, "mixed space-time norms of one solved path"),
}


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spdelab",
        description="Numerical experiments for a stochastic diffusion equation "
                    "with multiplicative noise.")
    ap.add_argument("--config", help="config file, or a manifest.json to replay")
    ap.add_argument("--seed", type=int, help="override the master seed")
    ap.add_argument("--threads", type=int, default=1,
                    help="worker threads (affects speed, never results)")
    ap.add_argument("--out", help="run directory (default: run-<stamp>-seed<seed>)")
    ap.add_argument("--plot", action="store_true", help="also write SVG charts")
    sub = ap.add_subparsers(dest="command", required=True, metavar="subcommand")
    for name, command in SUBCOMMANDS.items():
        sub.add_parser(name, help=command.help)
    return ap


def _load_config_text(path: str) -> str:
    with open(path) as fh:
        raw = fh.read()
    if raw.lstrip().startswith("{"):
        text = json.loads(raw).get("config_text")
        if not isinstance(text, str):
            raise ConfigError(f"{path} looks like a manifest but has no config_text string")
        return text
    return raw


def _version() -> str:
    """The installed package version, looked up only when a manifest is written."""
    from importlib import metadata
    try:
        return metadata.version("spdelab")
    except metadata.PackageNotFoundError:  # running from a source tree
        return "0.1.0"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"argument --threads: must be >= 1, got {args.threads}")
    try:
        text = _load_config_text(args.config) if args.config else ""
        spec = parse_config(text)
        if args.seed is not None:
            spec = dataclasses.replace(spec, master_seed=args.seed)
        outdir = args.out or f"run-{time.strftime('%Y%m%d-%H%M%S')}-seed{spec.master_seed}"
        os.makedirs(outdir, exist_ok=True)
        started = time.strftime("%Y-%m-%dT%H:%M:%S")
        files = RunFiles(outdir, args.plot)
        failures = _failure_roster(SUBCOMMANDS[args.command].run(spec, files, args))
        manifest = {
            "version": _version(),
            "subcommand": args.command,
            "master_seed": spec.master_seed,
            "config_text": print_config(spec),
            "config_source": text,
            "started": started,
            "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "results": sorted(files.names),
            "failures": failures,
        }
        tmp = os.path.join(outdir, "manifest.json.tmp")
        with open(tmp, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, os.path.join(outdir, "manifest.json"))
        print(f"results in {outdir}")
        if failures["invalid"]:
            print(f"error: {failures['count']}/{spec.n_paths} paths diverged; "
                  "estimates from this run are unusable", file=sys.stderr)
            return 3
        return 0
    except (ValueError, OSError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
