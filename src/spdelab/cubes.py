"""Dyadic parabolic cube hierarchies.

A cube here is a space-time box (l - 4s, l + 4s) x B_z(w) in the max
norm, kept parabolic through z^2 = s.  Its two named subregions are the
top and bottom eighths of its time span, over the same ball.

Two recursive collections are built from a root cube.  The core
collection subdivides the top and bottom eighths of every cube into
zeta^(n+2) congruent pieces (time split zeta^2-fold, each space axis
zeta-fold) and reads each piece as the corresponding eighth of a new,
eight-times-taller cube.  The extended collection applies the same move
to the top and bottom quarters, (l + 2s, l + 4s) and (l - 4s, l - 2s),
instead, seeded from every cube of the core collection.
Levels group cubes by spatial radius z_j = z_root / zeta^j, so the
extended level count obeys

    x_j = 2 zeta^(n+2) x_{j-1} + (2 zeta^(n+2))^j,  x_0 = 1.

Counts grow fast; builds are guarded by an explicit cube budget,
checked before any level is allocated.  Levels are flat arrays (one
scale per level), each allocated once with every child written in
place; core level j is the tail of extended level j.  A cube's row
tells a plus child (cut from its parent's upper piece) from a minus
child (lower piece): the first half of each parent's children are plus.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError
from .geometry import Ball, SpaceTimeRect

DEFAULT_BUDGET = 20_000_000
# the division factor zeta; count_bound holds only for 4
ZETA = 4


@dataclass(frozen=True)
class Cube:
    """Parabolic cube (l-4s, l+4s) x B_z(w) with z^2 = s."""

    l: float
    s: float
    z: float
    w: tuple
    level: int = 0

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(float(c) for c in np.atleast_1d(self.w)))
        if not (self.s > 0.0 and self.z > 0.0):
            raise InvalidArgumentError(f"cube scales must be positive, got s={self.s}, z={self.z}")
        if abs(self.z * self.z - self.s) > 1e-9 * self.s:
            raise InvalidArgumentError(
                f"cube is not parabolic: z^2={self.z * self.z} but s={self.s}")
        if self.level < 0:
            raise InvalidArgumentError(f"level must be nonnegative, got {self.level}")

    @property
    def n(self) -> int:
        return len(self.w)

    @property
    def time_lo(self) -> float:
        return self.l - 4.0 * self.s

    @property
    def time_hi(self) -> float:
        return self.l + 4.0 * self.s

    def ball(self) -> Ball:
        return Ball(self.w, self.z)


def unit_cube(n: int) -> Cube:
    """The reference cube (0, 2) x B_{1/2}(0)."""
    if n not in (1, 2):
        raise InvalidArgumentError(f"spatial dimension must be 1 or 2, got {n}")
    return Cube(l=1.0, s=0.25, z=0.5, w=(0.0,) * n)


@dataclass(frozen=True)
class SubcubeSet:
    """The top (d_plus) and bottom (d_minus) eighths of a cube's time
    span, over its ball."""

    d_plus: SpaceTimeRect
    d_minus: SpaceTimeRect


def subcubes(c: Cube) -> SubcubeSet:
    """The top and bottom eighths of a cube."""
    b = c.ball()
    l, s = c.l, c.s
    return SubcubeSet(d_plus=SpaceTimeRect(l + 3 * s, l + 4 * s, b),
                      d_minus=SpaceTimeRect(l - 4 * s, l - 3 * s, b))


@dataclass
class CubeLevel:
    """All cubes of one level, as flat arrays sharing a scale.

    Order is deterministic: parent-major, then plus children before
    minus children, then time slot, then space combination.  That order
    is how plus children are told from minus children: of the
    2 zeta^(n+2) consecutive rows a parent writes, the first half are
    plus.
    """

    level: int
    s: float
    z: float
    l: np.ndarray
    w: np.ndarray

    @property
    def count(self) -> int:
        return int(self.l.size)

    @property
    def n(self) -> int:
        return int(self.w.shape[1])

    def cube(self, k: int) -> Cube:
        if not (0 <= k < self.count):
            raise InvalidArgumentError(f"cube index {k} out of range [0, {self.count})")
        return Cube(float(self.l[k]), self.s, self.z, tuple(self.w[k]), level=self.level)


def _root_level(root: Cube) -> CubeLevel:
    return CubeLevel(level=root.level, s=root.s, z=root.z,
                     l=np.array([root.l]),
                     w=np.array([root.w], dtype=float))


def _subdivide(parent: CubeLevel, height: int, out: CubeLevel, at: int) -> CubeLevel:
    """Write the children of every cube of a level into out, from row at.

    Height 1 subdivides the top and bottom eighths (l+3s, l+4s) and
    (l-4s, l-3s), height 2 the quarters (l+2s, l+4s) and (l-4s, l-2s),
    into pieces height * s2 tall, where out carries the child scales.
    Each congruent piece is the same-named subregion of exactly one
    child cube, which fixes the child center: for the top pieces the
    child's time top coincides with the piece top, for the bottom
    pieces the bottoms coincide.  Returns the written rows as a view.
    """
    s, z, s2, z2 = parent.s, parent.z, out.s, out.z
    k = np.arange(ZETA**2)
    plus_off = (4.0 - height) * s + height * (k + 1) * s2 - 4.0 * s2
    minus_off = -4.0 * s + height * k * s2 + 4.0 * s2
    offs = np.stack([plus_off, minus_off])

    n = parent.n
    axis = -z + (2.0 * np.arange(ZETA) + 1.0) * z2
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    space = np.stack([g.ravel() for g in grids], axis=1)

    P, T, Q = parent.count, ZETA**2, ZETA**n
    rows = slice(at, at + P * 2 * T * Q)
    np.add(parent.l[:, None, None, None], offs[None, :, :, None],
           out=out.l[rows].reshape(P, 2, T, Q))
    np.add(parent.w[:, None, None, None, :], space[None, None, None, :, :],
           out=out.w[rows].reshape(P, 2, T, Q, n))
    return CubeLevel(level=out.level, s=s2, z=z2, l=out.l[rows], w=out.w[rows])


@dataclass
class CubeHierarchy:
    """Finite prefix of a recursive cube collection."""

    root: Cube
    depth: int
    levels: list = field(default_factory=list)

    def count_level(self, j: int) -> int:
        if not (0 <= j <= self.depth):
            raise InvalidArgumentError(f"level {j} outside built range [0, {self.depth}]")
        return self.levels[j].count

    @property
    def total(self) -> int:
        return sum(lv.count for lv in self.levels)


def core_count(n: int, j: int) -> int:
    """Cubes at level j of the core collection: (2 zeta^(n+2))^j."""
    return (2 * ZETA ** (n + 2)) ** j


def extended_count(n: int, j: int) -> int:
    """Reference recurrence x_j = 2 zeta^(n+2) x_{j-1} + (2 zeta^(n+2))^j."""
    x = 1
    for i in range(1, j + 1):
        x = 2 * ZETA ** (n + 2) * x + core_count(n, i)
    return x


def count_bound(n: int, j: int) -> int:
    """Closed-form cap 4^((n+3)j) on the extended level count (zeta = 4)."""
    return 4 ** ((n + 3) * j)


def _build(root: Cube, depth: int, budget: int, extended: bool) -> CubeHierarchy:
    """Levels 0..depth of the core or the extended collection.

    Each level is sized from the levels already built, never from the
    count formulas, so comparing counts with them stays a check.
    """
    if depth < 0 or int(depth) != depth:
        raise InvalidArgumentError(f"depth must be a nonnegative integer, got {depth}")
    if budget < 1:
        raise InvalidArgumentError(f"budget must be >= 1, got {budget}")
    depth, n = int(depth), root.n
    total = sum(core_count(n, j) for j in range(depth + 1))
    if extended:
        total += sum(extended_count(n, j) for j in range(depth + 1))
    if total > budget:
        raise ResourceLimitError(
            f"{'extended' if extended else 'core'} hierarchy needs {total} cubes "
            f"at depth {depth}, over budget {budget}")
    fan = 2 * ZETA ** (n + 2)
    core = _root_level(root)
    levels = [core]
    for _ in range(depth):
        prev = levels[-1]
        head = prev.count * fan if extended else 0
        size = head + core.count * fan
        level = CubeLevel(level=prev.level + 1, s=prev.s / ZETA**2, z=prev.z / ZETA,
                          l=np.empty(size), w=np.empty((size, n)))
        if extended:
            _subdivide(prev, 2, level, 0)
        core = _subdivide(core, 1, level, head)
        levels.append(level)
    return CubeHierarchy(root, depth, levels)


def build_core(root: Cube, depth: int, budget: int = DEFAULT_BUDGET) -> CubeHierarchy:
    """Levels 0..depth of the core (eighth-subdividing) collection."""
    return _build(root, depth, budget, extended=False)


def build_extended(root: Cube, depth: int, budget: int = DEFAULT_BUDGET) -> CubeHierarchy:
    """Levels 0..depth of the extended collection.

    Level j holds the quarter-subdivision children of level j-1 plus
    the core-collection cubes of level j, reproducing the recurrence
    x_j = 2 zeta^(n+2) x_{j-1} + (2 zeta^(n+2))^j.  Both parts are
    written in place into level j, whose tail is core level j.  The
    budget covers the core and the extended counts together.
    """
    return _build(root, depth, budget, extended=True)
