"""Oscillation diagnostics for the log transform of a positive solution.

Everything here works on h = -log(max(u, 0) + mu), which `log_transform`
takes elementwise on just the values a reader needs; `log_field` only
checks that a path lies in its domain.  For each parabolic cube,
`cube_stats` makes one pass: it finds the cube's cutoff weight, its
ball's grid nodes and its time-center snapshot once, takes the weighted
spatial average a of h at the center, builds the compensating noise
martingale M driven by g/(u + mu) on each half, and returns the two
one-sided oscillation averages of sqrt((h - M - a)^+) over the upper and
lower half together with the worst QV(t)/t ratio of M on the upper
half.  The lower half is handled by reversing the snapshot order and
negating the recorded noise increments.

On the top and bottom eighths of a cube the module measures level-set
fractions of the excess of h over a (fit_decay fits their exponential
decay profile), and per path it evaluates the two-sided moment product
(integral of v^-nu over the top eighth) * (integral of v^nu over the
bottom eighth), v = u + mu, whose ensemble quantiles (tail_quantiles)
quantify the reverse Cauchy-Schwarz tail.  Both read only the cube's
center snapshot and its two eighths: `eighth_reads` names those rows, so
an ensemble can capture them instead of keeping whole paths, and the
path-level `levelset_fractions` and `moment_tail_value` slice a path and
call the same code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cubes import Cube, CubeHierarchy, subcubes
from .errors import (
    DimensionMismatchError,
    DomainError,
    EmptyRegionError,
    InsufficientDataError,
    InvalidArgumentError,
)
from .fields import (
    FieldPath,
    Grid,
    moment_product,
    region_rows,
    rows_moment_product,
    smoothstep,
)
from .geometry import SpaceTimeRect
from .solver import CoefficientModel, g_along_path

# master spatial weight: 1 on the half-radius ball, 0 outside 3/4, in
# the rescaled coordinate xi = (y - center) / (2 radius)
_PLATEAU, _SUPPORT = 0.5, 0.75


def master_cutoff(xi: np.ndarray) -> np.ndarray:
    return smoothstep(_PLATEAU, _SUPPORT, xi)


def log_transform(u, mu: float) -> np.ndarray:
    """h = -log(max(u, 0) + mu) of any array of values u.

    Elementwise, so h of some rows of a path is bitwise those rows of h
    over the whole path; each reader takes it on the rows it reads.
    """
    return -np.log(np.clip(u, 0.0, None) + mu)


@dataclass(frozen=True)
class LogField:
    """A path whose log transform at shift mu is defined: no value lies
    below -mu/2.  clamp_fraction is the share of its values in [-mu/2, 0),
    which log_transform clamps to 0."""

    path: FieldPath
    mu: float
    clamp_fraction: float

    @property
    def grid(self) -> Grid:
        return self.path.grid


def log_field(path: FieldPath, mu: float) -> LogField:
    """Check a whole path for the log transform, with clamping of small
    discrete negativity.

    Values below -mu/2 indicate the field is not a positive solution at
    this mu and raise DomainError with a witness; values in [-mu/2, 0)
    are clamped to 0 and counted in clamp_fraction.
    """
    if not (mu > 0.0):
        raise InvalidArgumentError(f"mu must be positive, got {mu}")
    vmin = float(np.min(path.values))
    if vmin < -0.5 * mu:
        j, node = np.unravel_index(int(np.argmin(path.values)), path.values.shape)
        raise DomainError(
            f"field value {vmin:.6g} at step {j}, node {node} is below -mu/2 = {-0.5 * mu:.6g}",
            witness=(int(j), int(node), vmin))
    clamp_fraction = 0.0 if vmin >= 0.0 else float(np.mean(path.values < 0.0))
    return LogField(path=path, mu=mu, clamp_fraction=clamp_fraction)


def _cube_weights(grid: Grid, cube: Cube) -> np.ndarray:
    """Squared master cutoff on the grid, scaled to the cube's ball.

    The weight is supported in the 3/2-enlarged ball, which must fit
    inside the periodic box, and must not vanish on the grid.
    """
    if cube.n != grid.n:
        raise DimensionMismatchError(f"cube dimension {cube.n} != grid dimension {grid.n}")
    for d in range(grid.n):
        if abs(cube.w[d]) + 1.5 * cube.z > grid.extent + 1e-12:
            raise InvalidArgumentError(
                f"enlarged ball of radius {1.5 * cube.z} at {cube.w} exits the box "
                f"[-{grid.extent}, {grid.extent})")
    w2 = master_cutoff(grid.max_dist(cube.w) / (2.0 * cube.z)) ** 2
    if np.sum(w2) <= 0.0:
        raise EmptyRegionError(f"grid does not resolve the cube ball of radius {cube.z}")
    return w2


def _center_average(u: np.ndarray, mu: float, w2: np.ndarray) -> float:
    """Average of h over one snapshot u, weighted by the cube weight w2."""
    return float(np.dot(log_transform(u, mu), w2) / np.sum(w2))


def _increment_series(lf: LogField, cm: CoefficientModel, cube: Cube,
                      w2: np.ndarray, jc: int, sign: int) -> tuple:
    """Step indices and compensator increments on one half of the cube.

    w2 is the cube's weight and jc its center snapshot.  sign=+1 walks
    from the center up to the cube top with the recorded increments;
    sign=-1 walks from the center down to the cube bottom in reversed
    time with negated increments.  Returned arrays: snapshot indices
    visited after each increment (length K >= 1) and the increments
    (length K), so the compensator before visiting index[k] is the
    prefix sum of the first k increments.  Each increment pairs the
    recorded noise with the w2-weighted averages of g_i(u) / (max(u,0) + mu)
    at the start of its step.
    """
    path = lf.path
    if sign > 0:
        side, t_lo, t_hi = "upper", cube.l, cube.time_hi
        visited = np.arange(jc + 1, path.time_index(cube.time_hi) + 1)
        sources = visited - 1          # g evaluated at the increment's start
        noise_rows = visited - 1
        flip = 1.0
    else:
        side, t_lo, t_hi = "lower", cube.time_lo, cube.l
        visited = np.arange(jc - 1, path.time_index(cube.time_lo) - 1, -1)
        sources = visited + 1          # reversed: start of the reversed step
        noise_rows = visited
        flip = -1.0
    if visited.size == 0:
        raise EmptyRegionError(
            f"{side} half ({t_lo!r}, {t_hi!r}] of the level-{cube.level} cube is too "
            f"short for dt = {path.dt!r}: both its ends fall on snapshot {jc}; "
            f"raise npts for a finer step")
    if cm.m == 0:
        return visited, np.zeros(visited.size)

    def averages(block, gv):
        gt = gv / (np.clip(path.values[block], 0.0, None) + lf.mu)
        return np.sum(gt * w2, axis=-1).T / np.sum(w2)

    coefs = g_along_path(path, cm, sources, averages)
    return visited, flip * np.sum(coefs * path.increments(noise_rows, cm.m), axis=1)


def _side_average(lf: LogField, nodes: np.ndarray, visited, incr, a_c: float) -> float:
    """Mean over one cube half of sqrt((h - M - a)^+) on the ball's node
    rows, compensated in time, from that half's increment series."""
    comp = np.cumsum(incr)
    sub = log_transform(lf.path.values[np.ix_(visited, nodes)], lf.mu)
    excess = np.clip(sub - comp[:, None] - a_c, 0.0, None)
    return float(np.mean(np.sqrt(excess)))


@dataclass(frozen=True)
class CubeStats:
    cube: Cube
    a_c: float
    plus_avg: float
    minus_avg: float
    qv_ratio: float


def cube_stats(lf: LogField, cm: CoefficientModel, cube: Cube) -> CubeStats:
    """All per-cube diagnostics in one pass.

    The cube's weight, its ball's node rows and its center snapshot are
    found once and shared by both halves.  a_c is the weighted average of
    h at the center; qv_ratio is the worst ratio QV(t)/t of the upper
    half's realized compensator quadratic variation to the time elapsed
    since the center.
    """
    path = lf.path
    w2 = _cube_weights(lf.grid, cube)
    nodes = np.nonzero(lf.grid.node_mask(cube.ball()))[0]
    if nodes.size == 0:
        raise EmptyRegionError(f"grid does not resolve the cube ball of radius {cube.z}")
    jc = path.time_index(cube.l)
    a_c = _center_average(path.values[jc], lf.mu, w2)
    visited, incr = _increment_series(lf, cm, cube, w2, jc, +1)
    offsets = path.times[visited] - path.times[jc]
    return CubeStats(
        cube=cube, a_c=a_c,
        plus_avg=_side_average(lf, nodes, visited, incr, a_c),
        minus_avg=_side_average(lf, nodes, *_increment_series(lf, cm, cube, w2, jc, -1), a_c),
        qv_ratio=float(np.max(np.cumsum(incr * incr) / offsets)))


def hierarchy_stats(lf: LogField, cm: CoefficientModel, hierarchy: CubeHierarchy,
                    per_level_limit: int | None = None):
    """Yield (level, index, CubeStats) over the hierarchy, bounded per level."""
    for lv in hierarchy.levels:
        stop = lv.count if per_level_limit is None else min(per_level_limit, lv.count)
        for k in range(stop):
            yield lv.level, k, cube_stats(lf, cm, lv.cube(k))


# ---------------------------------------------------------------------------
# level-set decay and the moment-product tail

@dataclass(frozen=True)
class EighthReads:
    """The rows of a path that the level-set fractions and the moment
    tail read on one cube, found once for all paths on the same times.

    rows holds three `(steps, nodes)` row sets: the center snapshot on
    every node (its weighted average is a_c), then the top and the bottom
    eighth.  w2 is the cube weight, times the step times of each eighth's
    rows, and weight the quadrature weight dt dx^n.  The methods take u
    on those rows, one array per row set, as path.values[np.ix_(*rows[k])]
    or as `run_ensemble` captures them.
    """

    rows: tuple
    w2: np.ndarray
    times: tuple
    weight: float

    def fractions(self, u, mu: float, alphas: np.ndarray) -> tuple:
        """(a_c, upper fractions, lower fractions): the measure fraction of
        {h - a_c > alpha} on the top eighth and of {a_c - h > alpha} on
        the bottom eighth, per alpha."""
        center, upper, lower = u
        a_c = _center_average(center[0], mu, self.w2)
        out = []
        for rows, orient in ((upper, +1.0), (lower, -1.0)):
            excess = np.sort(orient * (log_transform(rows, mu) - a_c), axis=None)
            # NaN sorts last and exceeds no alpha
            finite = excess[:excess.size - np.count_nonzero(np.isnan(excess))]
            above = finite.size - np.searchsorted(finite, alphas, side="right")
            out.append(above / excess.size)
        return a_c, out[0], out[1]

    def tail_value(self, u, mu: float, nu: float) -> float:
        """moment_tail_value over the top and bottom eighths."""
        exponent = _tail_exponent(nu)
        return float(rows_moment_product(zip(self.times, u[1:]), nu, mu, self.weight)
                     ** exponent)


def eighth_reads(path: FieldPath, cube: Cube) -> EighthReads:
    """The rows the level-set fractions and moment tail of `cube` read of
    `path`, and of any path on the same grid and times."""
    w2 = _cube_weights(path.grid, cube)
    center = (np.array([path.time_index(cube.l)]), np.arange(path.grid.size))
    parts = subcubes(cube)
    eighths = [region_rows(path.grid, path.times, rect)
               for rect in (parts.d_plus, parts.d_minus)]
    return EighthReads(rows=(center, *eighths), w2=w2,
                       times=tuple(path.times[steps] for steps, _ in eighths),
                       weight=path.dt * path.grid.cell_volume())


def levelset_fractions(lf: LogField, cube: Cube, alphas) -> tuple:
    """Excess level-set fractions on the top/bottom eighths of a cube:
    `EighthReads.fractions` of the path's rows."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or alphas.size == 0 or np.any(alphas <= 0.0):
        raise InvalidArgumentError("alphas must be a nonempty 1d array of positive levels")
    reads = eighth_reads(lf.path, cube)
    return reads.fractions([lf.path.values[np.ix_(*rows)] for rows in reads.rows],
                           lf.mu, alphas)


@dataclass(frozen=True)
class LevelSetFit:
    decay_rate: float
    amplitude: float
    r_squared: float


def fit_decay(alphas, fractions, band: tuple = (0.0, 1.0)) -> LevelSetFit:
    """Least-squares exponential fit fractions ~ amplitude * exp(-rate * alpha).

    Only strictly positive fractions inside band enter the log-linear
    fit; fewer than 3 of them is an error.  The band exists because the
    decay claim is an upper bound: it says nothing where the fraction
    saturates near 1, and below a few grid cells the fraction is
    quantized, so both ends pollute the fit.
    """
    alphas = np.asarray(alphas, dtype=float)
    fractions = np.asarray(fractions, dtype=float)
    lo, hi = band
    if not (0.0 <= lo < hi <= 1.0):
        raise InvalidArgumentError(f"band must satisfy 0 <= lo < hi <= 1, got {band}")
    mask = (fractions > 0.0) & (fractions >= lo) & (fractions <= hi)
    if int(mask.sum()) < 3:
        raise InsufficientDataError(
            f"need at least 3 positive level-set fractions to fit, got {int(mask.sum())}")
    x = alphas[mask]
    y = np.log(fractions[mask])
    design = np.stack([np.ones_like(x), -x], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    sstot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if sstot == 0.0 else 1.0 - float(np.sum(resid**2)) / sstot
    return LevelSetFit(decay_rate=float(coef[1]), amplitude=float(math.exp(coef[0])),
                       r_squared=r2)


def _tail_exponent(nu: float) -> float:
    """1/nu, which takes a moment product of order nu to its tail value."""
    if not (nu > 0.0):
        raise InvalidArgumentError(f"nu must be positive, got {nu}")
    return 1.0 / nu


def moment_tail_value(path: FieldPath, mu: float, nu: float,
                      d_plus: SpaceTimeRect, d_minus: SpaceTimeRect) -> float:
    """Per-path statistic: the two-region moment product to the power 1/nu."""
    exponent = _tail_exponent(nu)
    return float(moment_product(path, nu, mu, d_plus, d_minus) ** exponent)


def tail_quantiles(values, eps_levels=(0.1, 0.05, 0.01)) -> dict:
    """Upper empirical quantiles K_eps = quantile(values, 1 - eps)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise InsufficientDataError("no tail values to take quantiles of")
    return {float(e): float(np.quantile(values, 1.0 - e, method="higher"))
            for e in eps_levels}


def stability_spread(k_by_mu: dict) -> float:
    """Relative spread (max - min) / min of quantiles across mu values."""
    vals = np.array(sorted(k_by_mu.values()))
    if vals.size < 2:
        raise InsufficientDataError("need quantiles at >= 2 mu values")
    if not np.all((vals > 0.0) & (vals < math.inf)):
        raise InvalidArgumentError("quantiles must be positive and finite to compare spreads")
    return float((vals[-1] - vals[0]) / vals[0])
