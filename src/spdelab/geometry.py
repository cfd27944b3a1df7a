"""Space-time regions under the max norm.

Every region handled here is a time interval crossed with an open ball in
the max norm |x| = max_i |x_i|.  Time intervals are half-open (t_lo, t_hi]:
a region owns its final time but not its initial one.  A parabolic cylinder
of radius r anchored at (t0, x0) is the rect (t0 - r^2, t0] x B_r(x0).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidArgumentError, ResourceLimitError


def as_point(x) -> tuple:
    """Normalize a scalar or coordinate sequence to a tuple of floats."""
    if np.isscalar(x):
        return (float(x),)
    return tuple(float(c) for c in x)


@dataclass(frozen=True)
class Ball:
    """Open max-norm ball B_radius(center)."""

    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0.0) or not math.isfinite(self.radius):
            raise InvalidArgumentError(f"ball radius must be positive, got {self.radius}")

    @property
    def dim(self) -> int:
        return len(self.center)

    def mask(self, coords: tuple) -> np.ndarray:
        """Boolean membership of flat node coordinate arrays."""
        if len(coords) != self.dim:
            raise DimensionMismatchError(
                f"ball has dimension {self.dim}, coordinates have {len(coords)}"
            )
        m = np.abs(coords[0] - self.center[0]) < self.radius
        for d in range(1, self.dim):
            m &= np.abs(coords[d] - self.center[d]) < self.radius
        return m


@dataclass(frozen=True)
class SpaceTimeRect:
    """Half-open time interval (t_lo, t_hi] crossed with an open ball."""

    t_lo: float
    t_hi: float
    ball: Ball

    def __post_init__(self):
        object.__setattr__(self, "t_lo", float(self.t_lo))
        object.__setattr__(self, "t_hi", float(self.t_hi))
        if not self.t_lo < self.t_hi:
            raise InvalidArgumentError(
                f"time interval is empty: ({self.t_lo}, {self.t_hi}]"
            )


def make_cylinder(t0: float, x0, r: float) -> SpaceTimeRect:
    """The parabolic cylinder Q_r(t0, x0): time depth r^2 below the anchor
    time t0, crossed with B_r(x0)."""
    t0, x0, r = float(t0), as_point(x0), float(r)
    if not (r > 0.0):
        raise InvalidArgumentError(f"cylinder radius must be positive, got {r}")
    return SpaceTimeRect(t0 - r**2, t0, Ball(x0, r))


# Uniform lattice constants: the covering below needs at most
# ceil(L * (1 - theta)^-(n + 2)) cylinders.  The center counts are
# ceil(4 theta^2 / (1-theta)^2) in time and ceil(4 theta / (1-theta)) per
# space axis, so the product is bounded by (4 + (1-theta)^2)(4 + (1-theta))^n
# * (1-theta)^-(n+2) <= 4.25 * 4.5^n * (1-theta)^-(n+2) for theta > 1/2.
COVERING_CONSTANT = {1: 4.25 * 4.5, 2: 4.25 * 4.5**2}


def _check_theta(theta: float):
    if not (0.0 < theta < 1.0):
        raise InvalidArgumentError(f"theta must lie in (0, 1), got {theta}")


def covering_bound(theta: float, n: int) -> int:
    """Cylinder budget ceil(L_n (1 - theta)^-(n+2)) for the lattice covering."""
    _check_theta(theta)
    if n not in COVERING_CONSTANT:
        raise InvalidArgumentError(f"no covering constant for dimension {n}")
    return int(math.ceil(COVERING_CONSTANT[n] * (1.0 - theta) ** -(n + 2)))


def _axis_centers(count: int, half_width: float) -> np.ndarray:
    # Midpoints of `count` equal subintervals of (-half_width, half_width).
    w = 2.0 * half_width / count
    return -half_width + w * (np.arange(count) + 0.5)


# Most anchors cover_cylinder builds: at n = 2 this many rows of times and
# coords hold 480 MB.  theta = 0.95 (n = 2) and theta = 0.99 (n = 1) fit.
_COVER_BUDGET = 20_000_000

# Rows converted to Python values at a time when a lattice is iterated, so
# iteration never holds the whole lattice as Python objects.
_ITER_BLOCK = 4096


@dataclass(frozen=True, slots=True, eq=False)
class CoverLattice:
    """Read-only anchor lattice of a cylinder cover.

    Anchor k is (times[k], coords[k]): times has shape (K,), coords (K, n).
    len() is K; iteration yields (float, tuple) pairs in row order.
    """

    times: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        self.times.flags.writeable = False
        self.coords.flags.writeable = False

    def __len__(self) -> int:
        return self.times.shape[0]

    def __iter__(self):
        # zip over the n coordinate columns builds each point tuple
        # directly, with no per-row list to allocate and then copy
        for lo in range(0, len(self), _ITER_BLOCK):
            hi = lo + _ITER_BLOCK
            yield from zip(self.times[lo:hi].tolist(),
                           zip(*self.coords[lo:hi].T.tolist()))


def cover_cylinder(theta: float, R: float, n: int) -> CoverLattice:
    """Axis-aligned lattice of cylinder anchors covering Q_{theta R}(1, 0).

    Returns anchors (t_i, x_i), each inside Q_{theta R}, such that the
    cylinders Q_rho(t_i, x_i) with rho = (1 - theta) R / 2 cover Q_{theta R}.
    Anchor times are spaced at most rho^2 apart and anchor coordinates at
    most rho apart, which keeps every point of the target strictly inside
    some covering ball and within depth rho^2 below some anchor time.
    Anchors run through the times from 1 downward and, at each time,
    through the spatial lattice in C order.

    For theta <= 1/2 the single cylinder Q_{R/2}(1, 0) already contains
    Q_{theta R}, so no anchors are needed and the lattice is empty: times
    has shape (0,) and coords (0, n).  A lattice of more than
    _COVER_BUDGET anchors raises ResourceLimitError before anything is
    allocated.
    """
    _check_theta(theta)
    if not (R > 0.0 and math.isfinite(R)):
        raise InvalidArgumentError(f"R must be positive and finite, got {R}")
    if n not in (1, 2):
        raise InvalidArgumentError(f"spatial dimension must be 1 or 2, got {n}")
    if theta <= 0.5:
        return CoverLattice(np.empty(0), np.empty((0, n)))

    rho = (1.0 - theta) * R / 2.0
    try:
        depth, rho2 = (theta * R) ** 2, rho**2
    except OverflowError:
        depth = rho2 = math.inf
    if not (math.isfinite(depth) and rho2 > 0.0):
        raise InvalidArgumentError(
            f"R = {R} is out of range: (theta R)^2 = {depth} and rho^2 = {rho2} "
            f"must be finite and positive")
    # ceil with a tiny upward nudge: an undercount by one float ulp would
    # open a coverage gap, an overcount of one is absorbed by the bound.
    k_t = int(math.ceil(depth / rho2 * (1.0 + 1e-12)))
    k_x = int(math.ceil(2.0 * theta * R / rho * (1.0 + 1e-12)))
    count = k_t * k_x**n
    if count > _COVER_BUDGET:
        raise ResourceLimitError(
            f"cover at theta={theta}, n={n} needs {count} anchors, "
            f"over budget {_COVER_BUDGET}")

    t_step = depth / k_t
    times = np.repeat(1.0 - t_step * np.arange(k_t), k_x**n)
    ax = _axis_centers(k_x, theta * R)
    cell = np.stack(np.meshgrid(*[ax] * n, indexing="ij"), -1).reshape(-1, n)
    return CoverLattice(times, np.tile(cell, (k_t, 1)))
