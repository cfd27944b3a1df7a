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
checked before anything is built.  A built level is its recursion, not
its arrays: the root level holds the root cube, and every other level
its scales, its count and its parts, the parent levels whose children
fill it in row order with the offsets that place them.  Counts and
`CubeLevel.cube(k)` are read from the parts and write no array.  Core
level j is the tail of extended level j.
A cube's row tells a plus child (cut from its parent's upper piece) from
a minus child (lower piece): the first half of each parent's children
are plus.
"""
from __future__ import annotations

import itertools
import operator
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
        # a tuple (as CubeLevel.cube passes) skips the array round trip
        w = self.w if isinstance(self.w, tuple) else np.atleast_1d(self.w)
        object.__setattr__(self, "w", tuple(map(float, w)))
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


def _is_index(x) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


class CubeLevel:
    """All cubes of one level, sharing a scale.

    The root level holds its one cube, root; every other level holds its
    parts, each a parent level and the offsets that place its children,
    and the parts' children fill the level in row order.  Count and
    `cube(k)` are read from the parts, down to the root, and no array of
    the level's rows is written.

    Order is deterministic: part by part, then parent-major, then plus
    children before minus children, then time slot, then space
    combination.  That order is how plus children are told from minus
    children: of the 2 zeta^(n+2) consecutive rows a parent writes, the
    first half are plus.
    """

    def __init__(self, level: int, s: float, z: float, parts=(), root: Cube | None = None):
        self.level, self.s, self.z = level, s, z
        self.parts, self.root = tuple(parts), root
        if root is None:
            self.count = sum(part.count for part in self.parts)
            self.n = len(self.parts[0].space[0])
        else:
            self.count, self.n = 1, root.n

    def cube(self, k: int) -> Cube:
        if not _is_index(k):
            raise InvalidArgumentError(f"cube index must be an integer, got {k!r}")
        if not (0 <= k < self.count):
            raise InvalidArgumentError(f"cube index {k} out of range [0, {self.count})")
        l, w = self._row(int(k))
        return Cube(l, self.s, self.z, w, level=self.level)

    def _row(self, k: int) -> tuple:
        """(l, w) of row k: the root's own, else the parent row plus the
        child's offsets."""
        if self.root is not None:
            return self.root.l, self.root.w
        for part in self.parts:
            if k < part.count:
                break
            k -= part.count
        p, k = divmod(k, len(part.time) * len(part.space))
        i, q = divmod(k, len(part.space))
        l, w = part.parent._row(p)
        return l + part.time[i], tuple(map(operator.add, w, part.space[q]))


@dataclass(frozen=True)
class _Part:
    """The children of every cube of a parent level, as the offsets added
    to each parent row: time holds 2 zeta^2 offsets (plus then minus, by
    time slot), space zeta^n tuples of n offsets."""

    parent: CubeLevel
    time: tuple
    space: tuple
    count: int


def _part(parent: CubeLevel, height: int, s2: float, z2: float) -> _Part:
    """The children of every cube of a level, at scales s2 and z2.

    Height 1 subdivides the top and bottom eighths (l+3s, l+4s) and
    (l-4s, l-3s), height 2 the quarters (l+2s, l+4s) and (l-4s, l-2s),
    into pieces height * s2 tall.  Each congruent piece is the same-named
    subregion of exactly one child cube, which fixes the child center:
    for the top pieces the child's time top coincides with the piece top,
    for the bottom pieces the bottoms coincide.
    """
    s, z, slots = parent.s, parent.z, range(ZETA**2)
    time = tuple([(4.0 - height) * s + height * (k + 1) * s2 - 4.0 * s2 for k in slots]
                 + [-4.0 * s + height * k * s2 + 4.0 * s2 for k in slots])
    axis = [-z + (2.0 * i + 1.0) * z2 for i in range(ZETA)]
    space = tuple(itertools.product(axis, repeat=parent.n))
    return _Part(parent, time, space, parent.count * len(time) * len(space))


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


def _check_count_args(n: int, j: int):
    if not (_is_index(n) and n in (1, 2)):
        raise InvalidArgumentError(f"counts hold for spatial dimension 1 or 2, got {n!r}")
    if not (_is_index(j) and j >= 0):
        raise InvalidArgumentError(f"level must be a nonnegative integer, got {j!r}")


def core_count(n: int, j: int) -> int:
    """Cubes at level j of the core collection: (2 zeta^(n+2))^j."""
    _check_count_args(n, j)
    return (2 * ZETA ** (n + 2)) ** j


def extended_count(n: int, j: int) -> int:
    """Reference recurrence x_j = 2 zeta^(n+2) x_{j-1} + (2 zeta^(n+2))^j."""
    _check_count_args(n, j)
    x = 1
    for i in range(1, j + 1):
        x = 2 * ZETA ** (n + 2) * x + core_count(n, i)
    return x


def count_bound(n: int, j: int) -> int:
    """Closed-form cap 4^((n+3)j) on the extended level count (zeta = 4)."""
    _check_count_args(n, j)
    return 4 ** ((n + 3) * j)


def _build(root: Cube, depth: int, budget: int, extended: bool) -> CubeHierarchy:
    """Levels 0..depth of the core or the extended collection, as parts.

    A core level has one part, the eighth children of the core level
    above; an extended level has two, the quarter children of the level
    above and then the eighth children of the core level above, so its
    tail is core level j.  Each count is summed from the parts, never
    taken from the count formulas, so comparing counts with them stays a
    check.
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
    core = CubeLevel(root.level, root.s, root.z, root=root)
    levels = [core]
    for _ in range(depth):
        prev = levels[-1]
        j, s2, z2 = prev.level + 1, prev.s / ZETA**2, prev.z / ZETA
        eighths = _part(core, 1, s2, z2)
        core = CubeLevel(j, s2, z2, parts=(eighths,))
        levels.append(CubeLevel(j, s2, z2, parts=(_part(prev, 2, s2, z2), eighths))
                      if extended else core)
    return CubeHierarchy(root, depth, levels)


def build_core(root: Cube, depth: int, budget: int = DEFAULT_BUDGET) -> CubeHierarchy:
    """Levels 0..depth of the core (eighth-subdividing) collection."""
    return _build(root, depth, budget, extended=False)


def build_extended(root: Cube, depth: int, budget: int = DEFAULT_BUDGET) -> CubeHierarchy:
    """Levels 0..depth of the extended collection.

    Level j holds the quarter-subdivision children of level j-1 plus
    the core-collection cubes of level j, reproducing the recurrence
    x_j = 2 zeta^(n+2) x_{j-1} + (2 zeta^(n+2))^j.  Level j's tail is
    core level j.  The budget covers the core and the extended counts
    together.
    """
    return _build(root, depth, budget, extended=True)
