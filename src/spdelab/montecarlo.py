"""Ensemble execution and the headline experiments.

Paths are integrated in batches with per-path counter-derived seeds, so
an ensemble's results do not depend on chunk size or thread count: path
i always consumes the stream seeded by (master_seed, spawn_key=(i,)),
all reductions are row-local, and every recorded statistic lands in a
preallocated slot indexed by i.  Region extrema, the negative-part
energy and the least value are taken inside `solver.integrate_batch`'s
step loop (failed paths read NaN).  A per-path consumer may declare the
rows it reads; it then gets those rows, captured in the step loop, and
full path histories are kept only when some consumer reads whole paths.

On top of the ensemble sit the experiment drivers: the sup/inf
inequality curve, a joint-tail estimate with its Wilson interval per
ratio threshold, the positivity scan, the deterministic
comparison-constant study, and the elementary event-inclusion check
used by the tail argument.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    GeometryError,
    InsufficientDataError,
    InvalidArgumentError,
)
from .fields import FieldPath, FieldSnapshot, Grid, region_rows
from .geometry import SpaceTimeRect
from .solver import (
    ModelParams,
    SolverConfig,
    build_model,
    draw_increments,
    history_capacity,
    integrate_batch,
    make_initial_condition,
    path_seed,
    time_axis,
    validate_model,
)

FAILURE_RATE_LIMIT = 0.01


@dataclass
class ExperimentSpec:
    """Full description of one reproducible ensemble run."""

    grid: Grid
    model: ModelParams = field(default_factory=ModelParams)
    solver: SolverConfig = field(default_factory=SolverConfig)
    ic_kind: str = "bump"
    ic_amplitude: float = 1.0
    ic_width: float = 1.0
    ic_seed: int = 0
    horizon: float = 1.0
    n_paths: int = 200
    master_seed: int = 2024
    regions: dict = field(default_factory=dict)
    chunk: int = 64
    gammas: tuple = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
    floor: float = 0.0
    # level thresholds for log-field set decay; geometric spacing reaches
    # both the small-threshold plateau and the large-threshold tail
    alphas: tuple = tuple(float(a) for a in np.geomspace(0.04, 2.0, 24))
    mu: float = 1e-4
    nu: float = 1.0
    depth: int = 1

    def __post_init__(self):
        if self.n_paths < 1:
            raise InvalidArgumentError(f"n_paths must be >= 1, got {self.n_paths}")
        if not (0.0 < self.horizon < math.inf):
            raise InvalidArgumentError(
                f"horizon must be positive and finite, got {self.horizon}")
        if self.chunk < 1:
            raise InvalidArgumentError(f"chunk must be >= 1, got {self.chunk}")
        # numpy's SeedSequence takes nonnegative entropy only
        if self.master_seed < 0:
            raise InvalidArgumentError(f"master seed must be nonnegative, got {self.master_seed}")
        if self.ic_seed < 0:
            raise InvalidArgumentError(f"ic_seed must be nonnegative, got {self.ic_seed}")
        # each check is written so that NaN fails it; the jn and cubes
        # settings are checked here too, so a bad one costs no simulation
        if not all(0.0 <= g < math.inf for g in self.gammas):
            raise InvalidArgumentError("ratio thresholds must be nonnegative and finite")
        if not (0.0 <= self.floor < math.inf):
            raise InvalidArgumentError(f"floor must be nonnegative and finite, got {self.floor}")
        if len(self.alphas) == 0 or not all(0.0 < a < math.inf for a in self.alphas):
            raise InvalidArgumentError("alphas must be a nonempty list of positive, finite levels")
        if not (0.0 < self.mu < math.inf):
            raise InvalidArgumentError(f"mu must be positive and finite, got {self.mu}")
        if not (0.0 < self.nu < math.inf):
            raise InvalidArgumentError(f"nu must be positive and finite, got {self.nu}")
        if self.depth < 0 or int(self.depth) != self.depth:
            raise InvalidArgumentError(
                f"depth must be a nonnegative integer, got {self.depth}")
        for name, rect in self.regions.items():
            if rect.t_lo < -1e-12 or rect.t_hi > self.horizon + 1e-12:
                raise InvalidArgumentError(
                    f"region {name!r} spans ({rect.t_lo}, {rect.t_hi}], outside "
                    f"the simulated interval (0, {self.horizon}]")
            if rect.ball.dim != self.grid.n:
                raise InvalidArgumentError(
                    f"region {name!r} ball has dimension {rect.ball.dim}, the grid {self.grid.n}")
            for d in range(rect.ball.dim):
                if abs(rect.ball.center[d]) + rect.ball.radius > self.grid.extent + 1e-12:
                    raise InvalidArgumentError(
                        f"region {name!r} ball exits the box [-{self.grid.extent}, "
                        f"{self.grid.extent})")
        dt = self.solver.step_size(self.grid)
        if not self.horizon / dt < math.inf:
            raise InvalidArgumentError(f"horizon / dt overflows: horizon {self.horizon}, dt {dt}")
        self.initial_condition()  # refuses a non-finite or vanishing field

    def initial_condition(self) -> FieldSnapshot:
        return make_initial_condition(self.ic_kind, self.grid, self.ic_amplitude,
                                      self.ic_width, self.ic_seed)

    def build(self):
        """The spot-checked coefficient model and the initial condition."""
        cm = build_model(self.model, self.grid.n, self.grid.extent)
        validate_model(cm, extent=self.grid.extent, t_max=self.horizon)
        return cm, self.initial_condition()


@dataclass
class Ensemble:
    """Per-path summaries of one ensemble run, indexed by path number."""

    spec: ExperimentSpec
    sup: dict
    inf: dict
    neg_energy: np.ndarray
    neg_min: np.ndarray
    failed: np.ndarray
    fail_steps: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.spec.n_paths

    @property
    def ok(self) -> np.ndarray:
        return ~self.failed

    @property
    def n_ok(self) -> int:
        return int(np.sum(self.ok))

    @property
    def invalid(self) -> bool:
        return int(np.sum(self.failed)) > FAILURE_RATE_LIMIT * self.n_paths

    def _region_name(self, rect: SpaceTimeRect) -> str:
        for name, r in self.spec.regions.items():
            if r == rect:
                return name
        raise InvalidArgumentError(
            "region was not recorded during the run; add it to spec.regions")

    def sup_over(self, rect: SpaceTimeRect) -> np.ndarray:
        return self.sup[self._region_name(rect)]

    def inf_over(self, rect: SpaceTimeRect) -> np.ndarray:
        return self.inf[self._region_name(rect)]


def run_ensemble(spec: ExperimentSpec, consumers: Sequence[Callable] = (),
                 threads: int = 1) -> Ensemble:
    """Integrate all paths of the spec and collect streaming summaries.

    consumers are callables invoked for every successful path; they must
    write only to per-index slots because invocation order is unspecified
    when threads > 1.  Blown-up paths are recorded in the failure roster
    and excluded from summaries.

    A consumer is called as consume(index, FieldPath) unless it declares
    the rows it reads in a `captures` attribute: a sequence of
    `(steps, nodes)` rows, steps being snapshot indices 0..M and nodes
    flat grid nodes.  It is then called as consume(index, arrays), one
    array of shape (len(steps), len(nodes)) per declared row set, equal to
    path.values[np.ix_(steps, nodes)] bit for bit.  The declaration is an
    attribute of the function, so a wrapper made with functools.wraps
    keeps it.  Full histories are kept only when some consumer declares
    nothing; their chunks are then shrunk to fit solver._HISTORY_BYTES
    (results do not depend on the chunk), and a single path over that
    budget raises ResourceLimitError before any path runs.
    """
    grid = spec.grid
    cm, u0 = spec.build()
    dt = spec.solver.step_size(grid)
    times = time_axis(0.0, spec.horizon, dt)
    M = times.size - 1
    N = spec.n_paths
    # resolved before any path runs, so an empty region costs no simulation
    rows = {name: region_rows(grid, times, rect) for name, rect in spec.regions.items()}

    sup = {name: np.full(N, np.nan) for name in rows}
    inf = {name: np.full(N, np.nan) for name in rows}
    neg_energy = np.full(N, np.nan)
    neg_min = np.full(N, np.nan)
    failed = np.zeros(N, dtype=bool)
    fail_steps = np.full(N, -1, dtype=int)
    u0_flat = u0.flat()
    declared = [getattr(consume, "captures", None) for consume in consumers]
    keep_history = any(wanted is None for wanted in declared)
    chunk = min(spec.chunk, history_capacity(M, grid.size)) if keep_history else spec.chunk
    # every declared row set, and each declaring consumer's slice of them
    captures, reads = [], []
    for wanted in declared:
        if wanted is None:
            reads.append(None)
        else:
            reads.append(slice(len(captures), len(captures) + len(wanted)))
            captures += wanted

    def run_chunk(lo: int, hi: int):
        B = hi - lo
        dW = None
        if cm.m > 0:
            dW = np.empty((B, M, cm.m))
            for b, i in enumerate(range(lo, hi)):
                dW[b] = draw_increments(path_seed(spec.master_seed, i), M, cm.m, dt)
        res = integrate_batch(grid, cm, spec.solver, np.tile(u0_flat, (B, 1)),
                              times, dW, keep_history=keep_history,
                              regions=list(rows.values()), captures=captures)
        for r, name in enumerate(rows):
            sup[name][lo:hi] = res.sup[r]
            inf[name][lo:hi] = res.inf[r]
        neg_energy[lo:hi] = res.neg_energy
        neg_min[lo:hi] = res.neg_min
        failed[lo:hi] = res.failed
        fail_steps[lo:hi] = res.fail_step
        for b, i in enumerate(range(lo, hi)):
            if res.failed[b]:
                continue
            fp = None
            if keep_history:
                fp = FieldPath(grid, times, res.history[b],
                               noise=dW[b] if dW is not None else None)
            for consume, read in zip(consumers, reads):
                consume(i, fp if read is None else tuple(c[b] for c in res.captured[read]))

    bounds = [(lo, min(lo + chunk, N)) for lo in range(0, N, chunk)]
    if threads > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda ab: run_chunk(*ab), bounds))
    else:
        for lo, hi in bounds:
            run_chunk(lo, hi)
    return Ensemble(spec=spec, sup=sup, inf=inf, neg_energy=neg_energy, neg_min=neg_min,
                    failed=failed, fail_steps=fail_steps)


# ---------------------------------------------------------------------------
# tail estimation

@dataclass(frozen=True)
class TailEstimate:
    hits: int
    trials: int
    p_hat: float
    ci_lo: float
    ci_hi: float


def wilson_interval(hits: int, trials: int, z: float = 1.96) -> tuple:
    """Wilson 95% score interval; accurate for proportions near 0 and 1."""
    if trials < 1:
        raise InvalidArgumentError(f"trials must be >= 1, got {trials}")
    if not (0 <= hits <= trials):
        raise InvalidArgumentError(f"hits {hits} outside [0, {trials}]")
    p = hits / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def _tail_estimate(hits: int, trials: int) -> TailEstimate:
    """The estimate and Wilson interval of `hits` events in `trials` paths."""
    if trials == 0:
        raise InsufficientDataError("every path failed; nothing to estimate on")
    lo, hi = wilson_interval(hits, trials)
    return TailEstimate(hits=hits, trials=trials, p_hat=hits / trials, ci_lo=lo, ci_hi=hi)


# ---------------------------------------------------------------------------
# sup/inf inequality experiment

def validate_windows(P: SpaceTimeRect, Q: SpaceTimeRect) -> None:
    """Geometry preconditions for the sup/inf comparison.

    Q is where the supremum is read, P where the infimum is read; P must
    come after Q, and Q must start after the initial time.
    """
    if not (Q.t_lo > 0.0):
        raise GeometryError(
            f"violated rule: the sup window must start strictly after time 0 "
            f"(Q.t_lo > 0); got Q.t_lo = {Q.t_lo}")
    if not (P.t_lo >= Q.t_hi):
        raise GeometryError(
            f"violated rule: the inf window must start after the sup window ends "
            f"(P.t_lo >= Q.t_hi); got P.t_lo = {P.t_lo}, Q.t_hi = {Q.t_hi}")


def median_sup(ens: Ensemble, Q: SpaceTimeRect) -> float:
    """Ensemble median of the supremum over Q (successful paths only)."""
    vals = ens.sup_over(Q)[ens.ok]
    if vals.size == 0:
        raise InsufficientDataError("every path failed; no suprema to take a median of")
    return float(np.median(vals))


def _harnack_indicators(ens: Ensemble, P: SpaceTimeRect, Q: SpaceTimeRect,
                        a: float, gammas) -> np.ndarray:
    """Joint event indicators {sup_Q u > a and gamma * inf_P u <= a}, of
    shape (n_ok, len(gammas)): one row per successful path, in path order."""
    validate_windows(P, Q)
    gammas = np.asarray(gammas, dtype=float)
    supq = ens.sup_over(Q)[ens.ok]
    infp = ens.inf_over(P)[ens.ok]
    return (supq > a)[:, None] & (infp[:, None] * gammas[None, :] <= a)


def harnack_curve(ens: Ensemble, P: SpaceTimeRect, Q: SpaceTimeRect,
                  a: float, gammas) -> list:
    """Tail estimate of the joint event per ratio threshold gamma."""
    ind = _harnack_indicators(ens, P, Q, a, gammas)
    return [(float(g), _tail_estimate(int(np.sum(ind[:, col])), ind.shape[0]))
            for col, g in enumerate(np.asarray(gammas, dtype=float))]


def indicator_monotonicity(ens: Ensemble, P: SpaceTimeRect, Q: SpaceTimeRect,
                           a: float, gammas) -> int:
    """Count per-path violations of the event nesting in gamma.

    For a nonnegative path, raising gamma only shrinks the event
    {gamma * inf <= a}, so along sorted gammas each path's indicator may
    only switch from 1 to 0.  Returns the number of (path, step)
    adjacent pairs that violate this; 0 is the expected value.
    """
    gammas = np.sort(np.asarray(gammas, dtype=float))
    ind = _harnack_indicators(ens, P, Q, a, gammas)
    return int(np.sum(ind[:, 1:] & ~ind[:, :-1]))


# ---------------------------------------------------------------------------
# positivity

@dataclass(frozen=True)
class PositivityReport:
    floor: float
    mins: np.ndarray
    n_at_or_below: int
    worst_neg_energy: float
    initial_energy: float
    n_failed: int


def positivity_scan(ens: Ensemble, region: SpaceTimeRect,
                    floor: float = 0.0) -> PositivityReport:
    """Count paths whose region infimum does not stay above the floor."""
    if not (0.0 <= floor < math.inf):
        raise InvalidArgumentError(f"floor must be nonnegative and finite, got {floor}")
    vals0 = ens.spec.initial_condition().flat()
    mins = ens.inf_over(region)[ens.ok]
    if mins.size == 0:
        raise InsufficientDataError("every path failed; no minima to scan")
    vol = ens.spec.grid.cell_volume()
    return PositivityReport(
        floor=floor, mins=mins,
        n_at_or_below=int(np.sum(mins <= floor)),
        worst_neg_energy=float(np.max(ens.neg_energy[ens.ok])),
        initial_energy=float(vol * np.sum(vals0 * vals0)),
        n_failed=int(np.sum(ens.failed)))


# ---------------------------------------------------------------------------
# deterministic comparison constant

@dataclass(frozen=True)
class ComparisonReport:
    ratios: np.ndarray
    ratios_refined: np.ndarray
    max_ratio: float
    max_ratio_refined: float

    @property
    def relative_change(self) -> float:
        return abs(self.max_ratio_refined - self.max_ratio) / self.max_ratio


def comparison_experiment(grid: Grid, P: SpaceTimeRect, Q: SpaceTimeRect,
                          n_data: int = 50, seed: int = 7,
                          horizon: float = 1.0) -> ComparisonReport:
    """sup/inf ratios for random positive data under a rough coefficient
    (random_elliptic with iota = 0.5).

    All initial data evolve as one batch per grid, with no noise; A reads
    t, so each step takes one implicit solve for the whole batch, the one
    `solver._implicit_solver` picks for a block of fields.  The refined
    pass doubles the resolution with the time step following the
    parabolic default.
    """
    validate_windows(P, Q)
    params = ModelParams(a_kind="random_elliptic", f_kind="zero", g_kind="zero",
                         iota=0.5, m=0, a_seed=seed)

    cfg = SolverConfig()

    def rows_on(g: Grid) -> tuple:
        times = time_axis(0.0, horizon, cfg.step_size(g))
        return g, times, [region_rows(g, times, rect) for rect in (Q, P)]

    def ratios_on(g: Grid, times: np.ndarray, rows: list) -> np.ndarray:
        cm = build_model(params, g.n, g.extent)
        u0b = np.stack([
            make_initial_condition("random_positive", g, seed=seed + 1 + d).flat()
            for d in range(n_data)])
        res = integrate_batch(g, cm, cfg, u0b, times, None, regions=rows)
        if np.any(res.failed):
            raise InsufficientDataError("deterministic comparison path failed to integrate")
        sup_q, inf_p = res.sup[0], res.inf[1]
        return np.where(inf_p > 0.0, sup_q / inf_p, np.inf)

    # both resolutions' regions are resolved before either runs
    runs = [rows_on(g) for g in (grid, Grid.regular(grid.n, 2 * grid.npts, grid.extent))]
    base, refined = (ratios_on(*run) for run in runs)
    return ComparisonReport(ratios=base, ratios_refined=refined,
                            max_ratio=float(np.max(base)),
                            max_ratio_refined=float(np.max(refined)))


# ---------------------------------------------------------------------------
# elementary event inclusion

def filter_lemma_check(samples, K: float, N: float, b: float) -> int:
    """Count violations of the inclusion
    {X + Z > b, N Y + Z <= b}  within  {X > K N b / (K N + 1), N Y <= b}
    over finite triples satisfying Y >= K Z >= 0.  The inclusion holds
    exactly, so the expected count is zero; a positive count signals a
    broken precondition or arithmetic.
    """
    if not all(0.0 < v < math.inf for v in (K, N, b)):
        raise InvalidArgumentError(f"K, N, b must be positive and finite, got {(K, N, b)}")
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise InvalidArgumentError(f"samples must have shape (n, 3), got {arr.shape}")
    X, Y, Z = arr[:, 0], arr[:, 1], arr[:, 2]
    bad = ~((np.abs(X) < math.inf) & (Y < math.inf) & (Y >= K * Z) & (Z >= 0.0))
    if np.any(bad):
        idx = np.nonzero(bad)[0]
        raise InvalidArgumentError(
            f"samples at indices {idx[:5].tolist()} are not finite with Y >= K*Z >= 0")
    left = (X + Z > b) & (N * Y + Z <= b)
    right = (X > K * N * b / (K * N + 1.0)) & (N * Y <= b)
    return int(np.sum(left & ~right))
