"""Property tests of the reproducibility contract, region membership and
the config language.

An ensemble's per-path summaries may not depend on the chunk size or the
thread count, and the statistics `integrate_batch` takes in its step loop
must equal the same reductions of the kept history and may not depend on
which rows share a batch or on how many steps share a block.  Specs and
batches are generated small, over every kind of A, trig and expression
noise, and drifts that make some paths fail.

`region_rows` must equal a brute-force membership over every (step, node)
pair, every implicit solve must leave a residual of at most 1e-13 of its
right-hand side, and the canonical config text must round-trip through
the parser.  A compiled expression must give the bits of a reference
evaluator over the generated tree, and one construct outside the grammar
anywhere in an expression must be rejected when it is compiled.
"""
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import ball_contains
from spdelab import cli, solver
from spdelab.errors import ConfigError, EmptyRegionError, InvalidArgumentError
from spdelab.fields import Grid, region_rows
from spdelab.geometry import Ball, SpaceTimeRect
from spdelab.montecarlo import ExperimentSpec, run_ensemble
from spdelab.solver import (ModelParams, SolverConfig, build_model, draw_increments,
                            integrate_batch, path_seed, time_axis)

HORIZON = 0.25
A_KINDS = {
    "identity": dict(),
    "constant": dict(a_kind="constant", a_value=0.5, iota=0.5),
    "random_elliptic": dict(a_kind="random_elliptic", iota=0.5, a_seed=3),
    "reads t": dict(a_kind="expr", a_expr="1 + 0.5*sin(8*t)", iota=0.5),
    "reads u": dict(a_kind="expr", a_expr="1 + 0.5*u/(1+abs(u))", iota=0.5),
}
# the cubic drift blows up large data within the horizon
DRIFTS = {"none": dict(), "linear": dict(f_kind="linear", lambda_f=0.5),
          "cubic": dict(f_kind="expr", f_expr="10*u*u*u", growth_bound=1e9)}
NOISES = {"trig": dict(), "expr": dict(g_kind="expr", g_expr="0.3*sin(u) + 0.1*u*cos(x)")}
RECTS = {"Q": (0.05, 0.15, 1.0), "P": (0.1, HORIZON, 1.5)}


@st.composite
def setups(draw):
    n = draw(st.sampled_from([1, 2]))
    grid = Grid.regular(n, draw(st.sampled_from([8, 16])))
    params = ModelParams(**A_KINDS[draw(st.sampled_from(sorted(A_KINDS)))],
                         **DRIFTS[draw(st.sampled_from(sorted(DRIFTS)))],
                         **NOISES[draw(st.sampled_from(sorted(NOISES)))])
    regions = {name: SpaceTimeRect(lo, hi, Ball((0.0,) * n, r))
               for name, (lo, hi, r) in RECTS.items()}
    return grid, params, SolverConfig(), regions


def assert_same_summaries(got, want):
    for name in want.sup:
        np.testing.assert_array_equal(got.sup[name], want.sup[name])
        np.testing.assert_array_equal(got.inf[name], want.inf[name])
    np.testing.assert_array_equal(got.neg_energy, want.neg_energy)
    np.testing.assert_array_equal(got.failed, want.failed)
    np.testing.assert_array_equal(got.fail_steps, want.fail_steps)


@settings(max_examples=12)
@given(setup=setups(), paths=st.integers(1, 6), amplitude=st.floats(0.5, 1.5),
       seed=st.integers(0, 2**16))
def test_ensemble_summaries_ignore_chunk_and_threads(setup, paths, amplitude, seed):
    grid, params, cfg, regions = setup
    spec = ExperimentSpec(grid=grid, model=params, solver=cfg, horizon=HORIZON,
                          ic_amplitude=amplitude, n_paths=paths, master_seed=seed,
                          chunk=paths, regions=regions)
    want = run_ensemble(spec)
    for chunk in range(1, paths + 1):
        spec.chunk = chunk
        for threads in (1, 2):
            assert_same_summaries(run_ensemble(spec, threads=threads), want)


@st.composite
def signed_batches(draw):
    grid, params, cfg, regions = draw(setups())
    rows = draw(st.integers(2, 5))
    # each row's scale sets whether the cubic drift blows it up in time, and
    # a negative offset lets it grow a negative part after another row fails
    scales = draw(arrays(float, (rows, 1), elements=st.sampled_from([3.0, 0.3, 0.1])))
    offsets = draw(arrays(float, (rows, 1), elements=st.sampled_from([-1.0, 0.0, 1.0])))
    u0b = scales * (offsets + draw(arrays(float, (rows, grid.size),
                                          elements=st.floats(-1.0, 1.0, allow_subnormal=False),
                                          fill=st.nothing())))
    split = draw(st.integers(1, rows - 1))
    # noisy batches draw each row's increments from its own seed; the others
    # integrate the noise-free equation, so rows differ only in their data
    noise_seed = draw(st.none() | st.integers(0, 2**16))
    return grid, params, cfg, regions, u0b, split, noise_seed


def block_steps(steps, u0b):
    """A step-block budget that makes integrate_batch take `steps` steps per block."""
    return steps * 8 * u0b.size


# enough examples that some rows fail inside a block of 3 steps
@settings(max_examples=150)
@given(batch=signed_batches())
def test_step_loop_statistics_match_history_and_ignore_batching(batch, history_statistics):
    grid, params, cfg, regions, u0b, split, noise_seed = batch
    cm = build_model(params, grid.n, grid.extent)
    dt = cfg.step_size(grid)
    times = time_axis(0.0, HORIZON, dt)
    M = times.size - 1
    rows = [region_rows(grid, times, rect) for rect in regions.values()]
    dW = None
    if noise_seed is not None:
        dW = np.stack([draw_increments(path_seed(noise_seed, b), M, cm.m, dt)
                       for b in range(u0b.shape[0])])
    res = integrate_batch(grid, cm, cfg, u0b, times, dW, keep_history=True, regions=rows)
    sup, inf, energy = history_statistics(grid, times, res, rows)
    np.testing.assert_array_equal(res.sup, sup)
    np.testing.assert_array_equal(res.inf, inf)
    np.testing.assert_array_equal(res.neg_energy, energy)
    for part in (slice(0, split), slice(split, None)):
        alone = integrate_batch(grid, cm, cfg, u0b[part], times,
                                None if dW is None else dW[part], regions=rows)
        np.testing.assert_array_equal(alone.sup, res.sup[:, part])
        np.testing.assert_array_equal(alone.inf, res.inf[:, part])
        np.testing.assert_array_equal(alone.neg_energy, res.neg_energy[part])
    # one step per block, a block that ends inside the run, and one block
    for steps in (1, 3, M):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_STEP_BLOCK_BYTES", block_steps(steps, u0b))
            blocked = integrate_batch(grid, cm, cfg, u0b, times, dW, keep_history=True,
                                      regions=rows)
        for name in ("history", "sup", "inf", "neg_energy", "failed", "fail_step"):
            got, want = (np.ascontiguousarray(getattr(r, name)) for r in (blocked, res))
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8),
                                          err_msg=f"{name} with {steps} steps per block")


@st.composite
def grids_times_rects(draw):
    n = draw(st.sampled_from([1, 2]))
    grid = Grid.regular(n, draw(st.sampled_from([4, 8, 16])), draw(st.sampled_from([1.0, 2.0])))
    dt = draw(st.sampled_from([0.01, 0.1, 1.0 / 3.0]))
    times = solver.time_axis(0.0, draw(st.integers(1, 12)) * dt, dt)
    # bounds that fall on a node or a step time, or within rounding of
    # one, decide membership at the open and the closed ends
    coords = grid.coords1d()

    def near(values):
        base = draw(st.sampled_from(list(values)) | st.floats(-3.0, 3.0))
        return base + draw(st.sampled_from([0.0, 1e-12, -1e-12]) | st.floats(-0.5, 0.5))

    t_lo = near(times)
    t_hi = t_lo + draw(st.sampled_from([dt, 2 * dt]) | st.floats(1e-6, 2.0))
    center = tuple(near(coords) for _ in range(n))
    radius = draw(st.sampled_from([grid.dx, 1.5 * grid.dx, grid.extent])
                  | st.floats(1e-6, 2.0 * grid.extent))
    return grid, times, SpaceTimeRect(t_lo, t_hi, Ball(center, radius))


@settings(max_examples=300)
@given(setup=grids_times_rects())
def test_region_rows_equal_brute_force_membership(setup):
    grid, times, rect = setup
    # a step belongs when its left endpoint lies in (t_lo, t_hi], with the
    # documented tolerance of 1e-9 steps; a node when it is in the open ball
    eps = 1e-9 * (times[1] - times[0])
    steps = [j for j in range(times.size - 1)
             if rect.t_lo + eps < times[j] <= rect.t_hi + eps]
    points = list(zip(*grid.coords_flat()))
    nodes = [i for i, x in enumerate(points) if ball_contains(rect.ball, x)]
    if not (steps and nodes):
        with pytest.raises(EmptyRegionError):
            region_rows(grid, times, rect)
        return
    got_steps, got_nodes = region_rows(grid, times, rect)
    assert got_steps.tolist() == steps
    assert got_nodes.tolist() == nodes


@st.composite
def implicit_systems(draw):
    """A coefficient field in [iota, 1/iota], shared by every row or one per
    row, or one value everywhere (the FFT solve when reused), with the
    right-hand sides of B rows."""
    n = draw(st.sampled_from([1, 2]))
    grid = Grid.regular(n, draw(st.sampled_from([4, 5, 8, 16, 33] if n == 1 else [4, 5, 8, 16])))
    iota = draw(st.floats(0.1, 1.0))
    rows = draw(st.integers(1, 4))
    field = draw(st.sampled_from(["constant", "shared", "per row"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = {"constant": 1, "shared": grid.size, "per row": (rows, grid.size)}[field]
    a = rng.uniform(iota, 1.0 / iota, size=shape)
    if field == "constant":
        a = np.full(grid.size, a[0])
    rhs = rng.normal(size=(rows, grid.size)) * 10.0 ** draw(st.floats(-3.0, 3.0))
    # the per-row solve serves one step; the others are picked by `reused`
    reused = field != "per row" and draw(st.booleans())
    return grid, a, draw(st.floats(0.25, 2.0)) * grid.dx**2, reused, rhs


@settings(max_examples=200)
@given(system=implicit_systems())
def test_implicit_solver_inverts_the_operator(system):
    grid, a, dt, reused, rhs = system
    x = solver._implicit_solver(grid, a, dt, reused=reused, rows=np.arange(len(rhs)))(rhs)
    residual = x - dt * solver.apply_operator(grid, a, x) - rhs
    assert np.max(np.abs(residual)) <= 1e-13 * np.max(np.abs(rhs))


def _float_list(elements, max_size=4):
    return st.lists(elements, min_size=1, max_size=max_size).map(
        lambda xs: ", ".join(repr(x) for x in xs))


def _repr(lo, hi):
    return st.floats(lo, hi).map(repr)


# well-formed values for every key the model does not tie to another
VALUES = {
    ("grid", "npts"): st.sampled_from([8, 16, 32]).map(str),
    ("grid", "extent"): _repr(1.5, 3.0),
    ("model", "lambda_f"): _repr(0.0, 0.5),
    ("model", "lambda_g"): _repr(0.0, 0.5),
    ("model", "m"): st.integers(0, 4).map(str),
    ("model", "a_seed"): st.integers(0, 2**31).map(str),
    ("solver", "dt"): st.just("auto") | _repr(1e-4, 1e-2),
    ("solver", "scheme"): st.just("semi-implicit"),
    ("solver", "tol"): _repr(1e-12, 1e-3),
    ("solver", "f0"): st.sampled_from(["bump", "constant", "gaussian", "random_positive"]),
    ("solver", "amplitude"): _repr(0.1, 3.0),
    ("solver", "width"): _repr(0.2, 2.0),
    ("solver", "ic_seed"): st.integers(0, 2**31).map(str),
    ("solver", "horizon"): _repr(1.0, 2.0),
    ("montecarlo", "paths"): st.integers(1, 500).map(str),
    ("montecarlo", "seed"): st.integers(0, 2**63).map(str),
    ("montecarlo", "chunk"): st.integers(1, 64).map(str),
    ("montecarlo", "gammas"): _float_list(st.floats(0.0, 300.0)),
    ("montecarlo", "floor"): _repr(0.0, 1.0),
    ("montecarlo", "alphas"): _float_list(st.floats(1e-3, 5.0), max_size=30),
    ("montecarlo", "mu"): _repr(1e-6, 0.1),
    ("montecarlo", "nu"): _repr(0.1, 4.0),
    ("montecarlo", "depth"): st.integers(0, 3).map(str),
}
# keys whose valid values depend on other keys, drawn in configs() below
LINKED = {("grid", "n"), ("model", "a"), ("model", "f"), ("model", "g"),
          ("model", "iota"), ("model", "a_value"), ("model", "a_expr"),
          ("model", "f_expr"), ("model", "g_expr"), ("model", "growth_bound")}
# A within [iota, 1/iota] for any 1 + d*s with |s| <= 1 and d <= 1 - iota
A_SHAPES = ["sin(pi*x1)", "cos(3*t)", "u/(1+abs(u))"]
# |f| and |g| at most half of |u|, inside any growth bound from 1
F_EXPRS = ["0.5*u*cos(t)", "0.25*sin(u)", "0.5*u*exp(-x*x)"]
G_EXPRS = ["0.5*u*sin(x1)", "0.3*sin(u) + 0.1*u*cos(x)", "0.2*u*min(1, abs(t))"]


def _region(draw, n: int, t_lo: float, t_hi: float) -> str:
    """One region in either form: its interval starts at or after t_lo and
    ends by t_hi, and its ball fits inside the smallest drawn box."""
    r = draw(st.floats(0.05, 0.5))
    center = [draw(st.floats(-0.5, 0.5)) for _ in range(n)]
    if draw(st.booleans()):
        # a parabolic cylinder reaches r^2 below its anchor time t0
        return json.dumps({"t0": draw(st.floats(t_lo + r * r, t_hi)), "x0": center, "r": r})
    lo = draw(st.floats(t_lo, t_hi - 0.02))
    return json.dumps({"t_lo": lo, "t_hi": draw(st.floats(lo + 0.01, t_hi)),
                       "center": center, "radius": r})


@st.composite
def configs(draw, a_kind):
    """Config text over every key of the table, in any order, each key
    given or left to its default, and regions in both forms; a_kind None
    leaves A to its default."""
    n = draw(st.sampled_from([1, 2]))
    given = {("grid", "n"): str(n)} if n == 2 or draw(st.booleans()) else {}
    for key, values in VALUES.items():
        if draw(st.booleans()):
            given[key] = draw(values)

    iota = draw(st.floats(0.25, 1.0) | st.none())
    if iota is not None:
        given[("model", "iota")] = repr(iota)
    iota = 1.0 if iota is None else iota
    if a_kind is not None:
        given[("model", "a")] = a_kind
    if a_kind == "constant" or draw(st.booleans()):
        given[("model", "a_value")] = repr(draw(st.floats(iota, 1.0 / iota)))
    if a_kind == "expr" or draw(st.booleans()):
        d = draw(st.floats(0.0, 1.0)) * (1.0 - iota)
        given[("model", "a_expr")] = f"1 + {d!r}*{draw(st.sampled_from(A_SHAPES))}"
    f_kind = draw(st.sampled_from(["expr", "linear", "zero", None]))
    g_kind = draw(st.sampled_from(["expr", "trig", "zero", None]))
    for key, kind, exprs in (("f", f_kind, F_EXPRS), ("g", g_kind, G_EXPRS)):
        if kind is not None:
            given[("model", key)] = kind
        if kind == "expr" or draw(st.booleans()):
            given[("model", f"{key}_expr")] = draw(st.sampled_from(exprs))
    if "expr" in (f_kind, g_kind) or draw(st.booleans()):
        given[("model", "growth_bound")] = repr(draw(st.floats(1.0, 5.0)))

    regions = {}
    for name in draw(st.lists(st.sampled_from(["Q", "P", "box", "late"]), unique=True)):
        # Q before P, as the sup/inf windows require; every region ends
        # by time 1, inside any drawn horizon
        t_lo, t_hi = {"Q": (0.01, 0.45), "P": (0.5, 1.0)}.get(name, (0.0, 1.0))
        regions[name] = _region(draw, n, t_lo, t_hi)

    lines = {}
    for (section, key), value in given.items():
        lines.setdefault(section, []).append(f"{key} = {value}")
    if regions:
        lines["regions"] = [f"{name} = {text}" for name, text in regions.items()]
    sections = draw(st.permutations(sorted(lines)))
    return "\n\n".join(f"[{section}]\n" + "\n".join(draw(st.permutations(lines[section])))
                       for section in sections) + "\n"


def test_generated_configs_cover_every_key():
    assert set(VALUES) | LINKED == {(k.section, k.key) for k in cli._KEYS}


@pytest.mark.parametrize("a_kind", ["identity", "constant", "random_elliptic", "expr", None])
@settings(max_examples=16)
@given(data=st.data())
def test_config_round_trips_through_its_canonical_text(a_kind, data):
    text = data.draw(configs(a_kind))
    spec = cli.parse_config(text)
    canon = cli.print_config(spec)
    assert cli.parse_config(canon) == spec
    assert cli.print_config(cli.parse_config(canon)) == canon


# values each key's own check rejects, whatever the other keys say
BAD_VALUES = {
    ("grid", "n"): ["3", "0", "one"],
    ("grid", "npts"): ["2", "0", "8.5"],
    ("grid", "extent"): ["-1", "0", "nan", "inf"],
    ("model", "a"): ["nope"],
    ("model", "f"): ["nope"],
    ("model", "g"): ["nope"],
    ("model", "lambda_f"): ["-1", "nan", "inf"],
    ("model", "lambda_g"): ["-0.5", "inf"],
    ("model", "iota"): ["2", "0", "nan"],
    ("model", "m"): ["-1", "two"],
    ("model", "a_seed"): ["-1"],
    ("model", "growth_bound"): ["-1", "nan", "inf"],
    ("solver", "dt"): ["-1", "0", "fast", "inf"],
    ("solver", "scheme"): ["explicit", "rk4"],
    ("solver", "f0"): ["nope"],
    ("solver", "amplitude"): ["-1", "0", "nan"],
    ("solver", "width"): ["-0.5", "0"],
    ("solver", "ic_seed"): ["-1"],
    ("solver", "horizon"): ["-1", "0", "nan", "inf"],
    ("montecarlo", "paths"): ["0", "-3"],
    ("montecarlo", "seed"): ["-1"],
    ("montecarlo", "chunk"): ["0"],
    ("montecarlo", "gammas"): [",", "1, nan", "-1"],
    ("montecarlo", "floor"): ["-1", "nan"],
    ("montecarlo", "alphas"): ["-1, 0.5", "0"],
    ("montecarlo", "mu"): ["-1", "0", "inf"],
    ("montecarlo", "nu"): ["0", "nan", "inf"],
    ("montecarlo", "depth"): ["-1", "1.5"],
}


def key_lines(text: str) -> dict:
    """(section, key) -> (line number, value) for every key = value line."""
    out, section = {}, None
    for ln, line in enumerate(text.splitlines(), start=1):
        if line.startswith("["):
            section = line[1:-1]
        elif "=" in line:
            key, _, value = line.partition("=")
            out[(section, key.strip())] = (ln, value.strip())
    return out


@settings(max_examples=60)
@given(data=st.data())
def test_one_corrupted_value_is_reported_at_its_own_line(data):
    # a value that its own key rejects is reported at that key's line; a
    # constant A pushed out of [iota, 1/iota] through a_value alone is the
    # documented pair's fault, rejected at no line (and unread unless a is
    # constant)
    text = data.draw(configs(data.draw(st.sampled_from(["constant", "random_elliptic", None]))))
    lines = key_lines(text)
    choices = sorted(set(BAD_VALUES) & set(lines)) + [("model", "a_value")] * (
        ("model", "a_value") in lines)
    assume(choices)
    key = data.draw(st.sampled_from(choices))
    ln, value = lines[key]
    bad = data.draw(st.sampled_from(BAD_VALUES.get(key, ["50"])))
    rows = text.splitlines()
    rows[ln - 1] = f"{key[1]} = {bad}"
    corrupt = "\n".join(rows) + "\n"
    if key == ("model", "a_value"):
        if lines.get(("model", "a"), (0, None))[1] != "constant":
            cli.parse_config(corrupt)
            return
        ln = None
    with pytest.raises(ConfigError) as info:
        cli.parse_config(corrupt)
    assert info.value.line == ln, (corrupt, str(info.value))


# the expression grammar at n = 2: names, constants, unary signs, the four
# operators and the six functions, each with the numpy call it stands for
EXPR_NAMES = ["t", "u", "x", "x1", "x2", "pi"]
EXPR_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
EXPR_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs,
              "min": np.minimum, "max": np.maximum}


def expression_trees():
    """Trees of ("name", id), ("const", text), ("sign", op, arg),
    ("op", op, left, right) and ("call", name, args)."""
    leaves = (st.sampled_from(EXPR_NAMES).map(lambda name: ("name", name))
              | st.integers(0, 9).map(lambda v: ("const", str(v)))
              | st.floats(0.0, 1e3, allow_subnormal=False).map(lambda v: ("const", repr(v))))

    def extend(sub):
        return (st.tuples(st.just("sign"), st.sampled_from("+-"), sub)
                | st.tuples(st.just("op"), st.sampled_from(sorted(EXPR_OPS)), sub, sub)
                | st.tuples(st.just("call"), st.sampled_from(["sin", "cos", "exp", "abs"]),
                            st.tuples(sub))
                | st.tuples(st.just("call"), st.sampled_from(["min", "max"]),
                            st.tuples(sub, sub)))
    return st.recursive(leaves, extend, max_leaves=10)


def expression_text(tree) -> str:
    kind = tree[0]
    if kind in ("name", "const"):
        return tree[1]
    if kind == "sign":
        return f"{tree[1]}({expression_text(tree[2])})"
    if kind == "op":
        return f"({expression_text(tree[2])} {tree[1]} {expression_text(tree[3])})"
    return f"{tree[1]}({', '.join(expression_text(a) for a in tree[2])})"


def expression_value(tree, t, xs, u):
    """The reference evaluator: the numpy calls of the tree, left to right."""
    kind = tree[0]
    if kind == "name":
        return {"t": t, "u": u, "x": xs[0], "x1": xs[0], "x2": xs[1], "pi": math.pi}[tree[1]]
    if kind == "const":
        return float(tree[1])
    if kind == "sign":
        value = expression_value(tree[2], t, xs, u)
        return -value if tree[1] == "-" else +value
    if kind == "op":
        return EXPR_OPS[tree[1]](expression_value(tree[2], t, xs, u),
                                 expression_value(tree[3], t, xs, u))
    return EXPR_FUNCS[tree[1]](*(expression_value(a, t, xs, u) for a in tree[2]))


def expression_names(tree) -> set:
    if tree[0] in ("name", "const"):
        return {tree[1]} if tree[0] == "name" else set()
    return set().union(*map(expression_names, tree[2] if tree[0] == "call" else tree[2:]))


@settings(max_examples=200)
@given(tree=expression_trees(), seed=st.integers(0, 2**16))
def test_compiled_expression_equals_reference_evaluator(tree, seed):
    rng = np.random.default_rng(seed)
    xs = (rng.uniform(-2.0, 2.0, 6), rng.uniform(-2.0, 2.0, 6))
    t, u = float(rng.uniform(0.0, 2.0)), rng.normal(size=(3, 6)) * 10.0
    fn, used = solver.compile_expression(expression_text(tree), 2)
    # overflow and division by zero give the same inf and NaN on both sides
    with np.errstate(all="ignore"):
        got, want = (np.asarray(v, dtype=float) for v in (fn(t, xs, u),
                                                          expression_value(tree, t, xs, u)))
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert used == expression_names(tree)


# constructs outside the grammar, around an in-grammar expression e, and the
# message each is rejected with
OUTSIDE_GRAMMAR = {
    "attribute": ("({e}).real", "unsupported syntax Attribute"),
    "subscript": ("({e})[0]", "unsupported syntax Subscript"),
    "lambda": ("(lambda v: {e})", "unsupported syntax Lambda"),
    "lambda call": ("(lambda v: v)({e})", "unknown function"),
    "list comprehension": ("[v for v in {e}]", "unsupported syntax ListComp"),
    "generator in a call": ("sum(v for v in {e})", "unknown function"),
    "unknown call": ("open({e})", "unknown function"),
    "import": ("__import__('os')", "unknown function"),
}


@settings(max_examples=100)
@given(valid=expression_trees(), inner=expression_trees(),
       construct=st.sampled_from(sorted(OUTSIDE_GRAMMAR)),
       place=st.sampled_from(["{bad}", "({valid}) * {bad}", "{bad} - ({valid})",
                              "max({valid}, {bad})", "-sin({bad})"]))
def test_construct_outside_the_grammar_is_rejected_when_compiled(valid, inner, construct,
                                                                 place):
    # the in-grammar parts hold no offending node, so the construct is the
    # first one reported, by compile_expression itself: nothing is evaluated
    pattern, message = OUTSIDE_GRAMMAR[construct]
    bad = pattern.format(e=expression_text(inner))
    text = place.format(valid=expression_text(valid), bad=bad)
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        solver.compile_expression(text, 2)
