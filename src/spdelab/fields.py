"""Grid-sampled space-time fields, mixed norms, and derived functionals.

Discretization conventions, used consistently by every quadrature here and
by the solver: values live on the nodes of a periodic grid on [-X, X)^n;
spatial integrals are node sums weighted by dx^n; time integrals are
left-point Riemann sums over steps, a step [t_j, t_{j+1}) belonging to a
region when its left endpoint t_j does.  A (node, step) pair is in a region
when the node is in the open ball and the step is in the half-open time
interval.  `region_rows` is the one place that rule is applied: every
extremum, norm and integral over a region, here and in the ensemble
recorders, reads the rows it returns, and a region that owns no node or
no step is rejected there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    EmptyRegionError,
    InvalidArgumentError,
    StateError,
)
from .geometry import Ball, SpaceTimeRect


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the box [-extent, extent)^n."""

    n: int
    dx: float
    extent: float = 2.0

    def __post_init__(self):
        if self.n not in (1, 2):
            raise InvalidArgumentError(f"spatial dimension must be 1 or 2, got {self.n}")
        if not (0.0 < self.dx < math.inf and 0.0 < self.extent < math.inf):
            raise InvalidArgumentError("dx and extent must be positive and finite")
        # the parabolic default step is dx^2 / 2
        if not (0.0 < self.dx * self.dx < math.inf):
            raise InvalidArgumentError(f"dx^2 must be positive and finite, got dx = {self.dx}")
        ratio = 2.0 * self.extent / self.dx
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 4:
            raise InvalidArgumentError(
                f"2*extent/dx must be an integer >= 4, got {ratio}"
            )

    @classmethod
    def regular(cls, n: int, npts: int, extent: float = 2.0) -> "Grid":
        if int(npts) < 1:
            raise InvalidArgumentError(f"npts must be positive, got {npts}")
        return cls(n, 2.0 * float(extent) / int(npts), float(extent))

    @property
    def npts(self) -> int:
        return int(round(2.0 * self.extent / self.dx))

    @property
    def shape(self) -> tuple:
        return (self.npts,) * self.n

    @property
    def size(self) -> int:
        return self.npts**self.n

    def coords1d(self) -> np.ndarray:
        return -self.extent + self.dx * np.arange(self.npts)

    def coords_flat(self) -> tuple:
        """Per-dimension coordinate arrays of flattened (C-order) nodes."""
        return tuple(g.ravel() for g in np.meshgrid(*(self.coords1d(),) * self.n,
                                                    indexing="ij"))

    def max_dist(self, center=0.0) -> np.ndarray:
        """max_d |x_d - center_d| over the flattened nodes."""
        xs = self.coords_flat()
        c = np.broadcast_to(np.asarray(center, dtype=float), (self.n,))
        rho = np.abs(xs[0] - c[0])
        for d in range(1, self.n):
            rho = np.maximum(rho, np.abs(xs[d] - c[d]))
        return rho

    def node_mask(self, ball: Ball) -> np.ndarray:
        if ball.dim != self.n:
            raise DimensionMismatchError(
                f"grid dimension {self.n} != ball dimension {ball.dim}"
            )
        return ball.mask(self.coords_flat())

    def cell_volume(self) -> float:
        return self.dx**self.n


def step_mask(times: np.ndarray, t_lo: float, t_hi: float) -> np.ndarray:
    """Mask over the steps of uniform `times` (one entry per step) whose
    left endpoint lies in (t_lo, t_hi], with a tolerance of 1e-9 steps."""
    eps = 1e-9 * float(times[1] - times[0])
    t = times[:-1]
    return (t > t_lo + eps) & (t <= t_hi + eps)


def region_rows(grid: Grid, times: np.ndarray, rect: SpaceTimeRect) -> tuple:
    """(steps, nodes): the indices of the steps of `times` and of the flat
    grid nodes that rect owns.  Raises EmptyRegionError when it owns none
    of either."""
    steps = np.nonzero(step_mask(times, rect.t_lo, rect.t_hi))[0]
    nodes = np.nonzero(grid.node_mask(rect.ball))[0]
    for what, rows in (("grid node", nodes), ("time step", steps)):
        if rows.size == 0:
            raise EmptyRegionError(
                f"region ({rect.t_lo!r}, {rect.t_hi!r}] x ball of radius "
                f"{rect.ball.radius!r} at {rect.ball.center} owns no {what}")
    return steps, nodes


def _finite_or_raise(values: np.ndarray, what: str):
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(np.atleast_1d(values)))
        raise InvalidArgumentError(f"{what} contains non-finite entries, first at {bad[0]}")


@dataclass(frozen=True)
class FieldSnapshot:
    """One time slice of a field; values indexed like grid.shape."""

    grid: Grid
    t: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise DimensionMismatchError(
                f"snapshot shape {v.shape} != grid shape {self.grid.shape}"
            )
        _finite_or_raise(v, "snapshot")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "t", float(self.t))

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)


class FieldPath:
    """A field sampled at uniformly spaced times, with its noise record.

    A solved path holds semi-implicit Euler states, the only scheme, so a
    path names none.  values has shape (M + 1, grid.size) in C-order;
    noise, when recorded, has shape (M, m) holding the Brownian increments
    consumed by each step.  Code that reads the increments goes through
    `increments`, which rejects a path without a record.
    """

    def __init__(self, grid: Grid, times, values, noise=None):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise InvalidArgumentError("a path needs at least two times")
        dt = np.diff(times)
        if np.any(dt <= 0) or np.ptp(dt) > 1e-9 * dt[0]:
            raise InvalidArgumentError("path times must be uniformly increasing")
        if values.shape != (times.size, grid.size):
            raise DimensionMismatchError(
                f"path values shape {values.shape} != {(times.size, grid.size)}"
            )
        if noise is not None:
            noise = np.asarray(noise, dtype=float)
            if noise.ndim != 2 or noise.shape[0] != times.size - 1:
                raise DimensionMismatchError(
                    f"noise shape {noise.shape} incompatible with {times.size - 1} steps"
                )
        self.grid = grid
        self.times = times
        self.values = values
        self.noise = noise

    @property
    def steps(self) -> int:
        return self.times.size - 1

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def increments(self, steps, m: int) -> np.ndarray:
        """The recorded noise increments of the given steps for a model
        with m channels, shape (len(steps), m).  StateError when the path
        carries no record; DimensionMismatchError when it records another
        channel count, which would otherwise broadcast silently."""
        if self.noise is None:
            raise StateError("path has no recorded noise increments")
        if self.noise.shape[1] != m:
            raise DimensionMismatchError(
                f"path records {self.noise.shape[1]} noise channels, the model has {m}")
        return self.noise[steps]

    def step_indices(self, t_lo: float, t_hi: float) -> np.ndarray:
        """Steps whose left endpoint lies in (t_lo, t_hi]."""
        return np.nonzero(step_mask(self.times, t_lo, t_hi))[0]

    def time_index(self, t: float) -> int:
        """Nearest snapshot index to an absolute time."""
        j = int(round((float(t) - self.times[0]) / self.dt))
        return min(max(j, 0), self.steps)


@dataclass(frozen=True)
class MixedNormSpec:
    """Exponent pair (p in time, q in space); math.inf selects the sup."""

    p: float
    q: float

    def __post_init__(self):
        for e in (self.p, self.q):
            if not (e > 0.0):
                raise InvalidArgumentError(f"norm exponents must be positive, got {e}")


def lpq_norm(path: FieldPath, spec: MixedNormSpec, rect: SpaceTimeRect) -> float:
    """Mixed norm (integral_I ||u(t)||_{q,B}^p dt)^(1/p) over rect = I x B."""
    vals = np.abs(path.values[np.ix_(*region_rows(path.grid, path.times, rect))])
    vol = path.grid.cell_volume()
    if math.isinf(spec.q):
        inner = vals.max(axis=1)
    else:
        inner = (vol * np.sum(vals**spec.q, axis=1)) ** (1.0 / spec.q)
    if math.isinf(spec.p):
        return float(inner.max())
    return float((path.dt * np.sum(inner**spec.p)) ** (1.0 / spec.p))


def sup_on(path: FieldPath, rect: SpaceTimeRect) -> float:
    """Max nodal value over in-region (node, step) pairs."""
    return float(path.values[np.ix_(*region_rows(path.grid, path.times, rect))].max())


def moment_product(path: FieldPath, alpha: float, mu: float,
                   d1: SpaceTimeRect, d2: SpaceTimeRect) -> float:
    """Product (integral_{d1} (u+mu)^-alpha) * (integral_{d2} (u+mu)^alpha).

    The shift mu >= 0 regularizes the negative power; with mu = 0 the field
    must be strictly positive on d1 and d2.
    """
    def regions():
        for rect in (d1, d2):
            steps, nodes = region_rows(path.grid, path.times, rect)
            yield path.times[steps], path.values[np.ix_(steps, nodes)]

    return rows_moment_product(regions(), alpha, mu, path.dt * path.grid.cell_volume())


def rows_moment_product(regions, alpha: float, mu: float, weight: float) -> float:
    """moment_product of u given on the rows of d1 and d2.

    regions yields (times, u) for d1, then for d2: u on the region's
    (steps, nodes) rows and the time of each step.  weight is the
    quadrature weight dt dx^n.  alpha and mu are checked before regions
    is read.
    """
    if not (alpha > 0.0):
        raise InvalidArgumentError(f"alpha must be positive, got {alpha}")
    if mu < 0.0:
        raise InvalidArgumentError(f"mu must be nonnegative, got {mu}")
    out = []
    for (times, u), sign in zip(regions, (-1.0, 1.0)):
        v = u + mu
        if np.any(v <= 0.0):
            j, i = np.argwhere(v <= 0.0)[0]
            raise DomainError(
                f"nonpositive shifted value {v[j, i]} inside region",
                witness=(float(times[j]), float(v[j, i])),
            )
        out.append(weight * float(np.sum(v ** (sign * alpha))))
    return out[0] * out[1]


def smoothstep(lo: float, hi: float, rho) -> np.ndarray:
    """C^1 ramp: 1 for rho <= lo, 0 for rho >= hi, cubic in between."""
    s = np.clip((hi - np.asarray(rho, dtype=float)) / (hi - lo), 0.0, 1.0)
    return s * s * (3.0 - 2.0 * s)


@dataclass(frozen=True)
class InterpolationReport:
    lhs: float
    rhs: float
    slack: float
    eps: float
    young_constant: float
    gamma: float
    sup_term: float
    low_norm_term: float


def interpolation_check(path: FieldPath, alpha: float, beta: float, q: float,
                        rect: SpaceTimeRect, eps: float,
                        mode: str = "time") -> InterpolationReport:
    """Verify the interpolation bound between norm exponents alpha and beta.

    mode "time" checks  ||u||_{alpha,q} <= eps * Vh^(1/q) ||u||_sup
                        + (beta/alpha) eps^-gamma ||u||_{beta,q},
    mode "space" checks ||u||_{q,alpha} <= eps * Th^(1/q) ||u||_sup
                        + (beta/alpha) eps^-gamma ||u||_{q,beta},
    with gamma = alpha/beta - 1.  Vh and Th are the discrete ball measure
    and interval measure of the region, so the chain of inequalities is
    exact for grid fields and the slack can only be nonnegative up to
    rounding.  The Young split contributes the constant beta/alpha.
    """
    if not (0.0 < beta < alpha) or not (beta > alpha / 2.0):
        raise InvalidArgumentError(
            f"need alpha/2 < beta < alpha, got alpha={alpha}, beta={beta}"
        )
    if not (eps > 0.0):
        raise InvalidArgumentError(f"eps must be positive, got {eps}")
    if mode not in ("time", "space"):
        raise InvalidArgumentError(f"mode must be 'time' or 'space', got {mode}")

    steps, nodes = region_rows(path.grid, path.times, rect)
    gamma = alpha / beta - 1.0
    young = beta / alpha
    sup = float(np.abs(path.values[np.ix_(steps, nodes)]).max())
    if mode == "time":
        lhs = lpq_norm(path, MixedNormSpec(alpha, q), rect)
        low = lpq_norm(path, MixedNormSpec(beta, q), rect)
        measure = path.grid.cell_volume() * nodes.size
        sup_term = eps * measure ** (1.0 / q) * sup
    else:
        lhs = lpq_norm(path, MixedNormSpec(q, alpha), rect)
        low = lpq_norm(path, MixedNormSpec(q, beta), rect)
        measure = path.dt * steps.size
        sup_term = eps * measure ** (1.0 / q) * sup
    low_term = young * eps**-gamma * low
    rhs = sup_term + low_term
    return InterpolationReport(lhs=lhs, rhs=rhs, slack=rhs - lhs, eps=eps,
                               young_constant=young, gamma=gamma,
                               sup_term=sup_term, low_norm_term=low_term)
