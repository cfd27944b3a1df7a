"""Parabolic cube hierarchy: geometry, counts, and containment."""
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

from oracles import containment_ok, level_rows
from spdelab.cubes import (ZETA, Cube, CubeHierarchy, CubeLevel, build_core,
                           build_extended, core_count, count_bound,
                           extended_count, subcubes, unit_cube)
from spdelab.errors import InvalidArgumentError, ResourceLimitError


def test_cube_basic_geometry():
    c = unit_cube(1)
    assert (c.l, c.s, c.z) == (1.0, 0.25, 0.5)
    assert c.time_lo == 0.0 and c.time_hi == 2.0
    assert c.ball().radius == 0.5


def test_cube_rejects_nonparabolic_scales():
    with pytest.raises(InvalidArgumentError):
        Cube(l=0.0, s=0.25, z=0.4, w=(0.0,))     # z^2 != s
    with pytest.raises(InvalidArgumentError):
        Cube(l=0.0, s=-1.0, z=1.0, w=(0.0,))


def test_subcubes_frozen_geometry():
    # [TRIVIAL] top and bottom eighths (s) of (l-4s, l+4s)
    c = unit_cube(1)
    s = subcubes(c)
    assert (s.d_plus.t_lo, s.d_plus.t_hi) == (1.75, 2.0)
    assert (s.d_minus.t_lo, s.d_minus.t_hi) == (0.0, 0.25)
    for rect in (s.d_plus, s.d_minus):
        assert rect.ball == c.ball()


def test_count_recurrence_closed_form():
    # core level j has (2 zeta^(n+2))^j cubes; for n=1, zeta=4 that is 128^j
    for j in range(4):
        assert core_count(1, j) == 128**j
        assert core_count(2, j) == 512**j
    # extended counts follow x_j = 128 x_{j-1} + 128^j (n=1)
    x = 1
    for j in range(1, 4):
        x = 128 * x + 128**j
        assert extended_count(1, j) == x
    # frozen values
    assert [extended_count(1, j) for j in range(4)] == [1, 256, 49152, 8388608]
    assert all(extended_count(1, j) <= count_bound(1, j) for j in range(4))
    assert all(extended_count(2, j) <= count_bound(2, j) for j in range(3))


def test_build_core_matches_counts():
    h = build_core(unit_cube(1), depth=2)
    assert [lv.count for lv in h.levels] == [core_count(1, j) for j in range(3)]
    assert containment_ok(h)


def test_build_extended_matches_counts():
    h = build_extended(unit_cube(1), depth=2)
    assert [lv.count for lv in h.levels] == [extended_count(1, j) for j in range(3)]
    assert containment_ok(h)


@pytest.mark.parametrize("n, depth", [(1, 3), (2, 2)])
def test_total_sums_the_levels(n, depth):
    core, ext = build_core(unit_cube(n), depth), build_extended(unit_cube(n), depth)
    assert core.total == sum(core_count(n, j) for j in range(depth + 1))
    assert ext.total == sum(extended_count(n, j) for j in range(depth + 1))


def test_containment_fails_for_a_cube_outside_the_root():
    # one offset of the level-1 part is moved, which moves cube 5 (time slot
    # 0, space combination 5) and every cube that shares that offset
    root = unit_cube(2)
    h = build_core(root, depth=1)
    assert containment_ok(h)
    lv = h.levels[1]
    [part] = lv.parts
    early, late, wide = list(part.time), list(part.time), list(part.space)
    early[0] = root.time_lo + 3.0 * lv.s - root.l
    late[0] = root.time_hi - 3.0 * lv.s - root.l
    wide[5] = (part.space[5][0], root.z)
    for displaced in (replace(part, time=tuple(early)), replace(part, time=tuple(late)),
                      replace(part, space=tuple(wide))):
        moved = CubeLevel(lv.level, lv.s, lv.z, parts=(displaced,))
        assert moved.cube(5) != lv.cube(5)
        assert not containment_ok(CubeHierarchy(root, 1, [h.levels[0], moved]))


def test_build_core_2d():
    h = build_core(unit_cube(2), depth=1)
    assert [lv.count for lv in h.levels] == [1, core_count(2, 1)]
    assert containment_ok(h)


def test_child_scales_quarter_parent():
    # each level divides s by zeta^2 = 16 and z by zeta = 4
    h = build_core(unit_cube(1), depth=2)
    for j in range(1, 3):
        assert h.levels[j].s == pytest.approx(h.levels[j - 1].s / 16.0)
        assert h.levels[j].z == pytest.approx(h.levels[j - 1].z / 4.0)


def test_children_tile_parent_eighths():
    """Level-1 core cubes cover the top and bottom eighths of the root.

    The construction promises: each congruent child piece is the
    same-named (d+ or d-) eighth of exactly one child cube, and those
    pieces tile the parent's two eighths.  Plus and minus children are
    told apart by the documented child order: the first half of each
    parent's 2 zeta^(n+2) children are plus.
    """
    root = unit_cube(1)
    h = build_core(root, depth=1)
    parts = subcubes(root)
    lv = h.levels[1]
    plus_boxes = []
    minus_boxes = []
    for k in range(lv.count):
        plus = k // ZETA ** (root.n + 2) % 2 == 0
        d = subcubes(lv.cube(k))
        box = (d.d_plus if plus else d.d_minus)
        (plus_boxes if plus else minus_boxes).append(box)
    # pieces land inside the right parent eighth
    for box in plus_boxes:
        assert box.t_lo >= parts.d_plus.t_lo - 1e-12
        assert box.t_hi <= parts.d_plus.t_hi + 1e-12
    for box in minus_boxes:
        assert box.t_lo >= parts.d_minus.t_lo - 1e-12
        assert box.t_hi <= parts.d_minus.t_hi + 1e-12
    # and their total volume equals the eighth's volume (tiling, no overlap
    # double count at this tolerance)
    def vol(rect):
        return (rect.t_hi - rect.t_lo) * (2.0 * rect.ball.radius)

    assert sum(vol(b) for b in plus_boxes) == pytest.approx(vol(parts.d_plus))
    assert sum(vol(b) for b in minus_boxes) == pytest.approx(vol(parts.d_minus))


def test_level_ordering_deterministic():
    h1 = build_core(unit_cube(1), depth=1)
    h2 = build_core(unit_cube(1), depth=1)
    (l, w), (l2, w2) = level_rows(h1.levels[1]), level_rows(h2.levels[1])
    assert np.array_equal(l, l2) and np.array_equal(w, w2)
    # plus children enumerate before minus children: the first half of the
    # root's children sit above its time center 1, the second half below
    half = h1.levels[1].count // 2
    assert np.all(l[:half] > 1.0) and np.all(l[half:] < 1.0)


def test_budget_guard():
    with pytest.raises(ResourceLimitError):
        build_core(unit_cube(1), depth=4, budget=10**6)
    with pytest.raises(ResourceLimitError):
        build_extended(unit_cube(1), depth=3, budget=10**5)


def test_cube_index_bounds():
    h = build_core(unit_cube(1), depth=1)
    with pytest.raises(InvalidArgumentError):
        h.levels[1].cube(128)
    with pytest.raises(InvalidArgumentError):
        h.levels[1].cube(-1)


@dataclass
class _Reference:
    """A reference level: its scales and every row, l (count,) and w (count, n)."""

    level: int
    s: float
    z: float
    l: np.ndarray
    w: np.ndarray

    @property
    def count(self):
        return self.l.size

    @property
    def n(self):
        return self.w.shape[1]


def _reference_children(parent, target):
    """Eighth or quarter children of a level, as independent copies.

    A separate statement of the subdivision that the builders must
    match bit for bit.
    """
    s, z = parent.s, parent.z
    s2, z2 = s / 16, z / 4
    k = np.arange(16)
    if target == "eighth":
        plus_off = 3.0 * s + (k + 1) * s2 - 4.0 * s2
        minus_off = -4.0 * s + k * s2 + 4.0 * s2
    else:
        plus_off = 2.0 * s + 2.0 * (k + 1) * s2 - 4.0 * s2
        minus_off = -4.0 * s + 2.0 * k * s2 + 4.0 * s2
    n = parent.n
    axis = -z + (2.0 * np.arange(4) + 1.0) * z2
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    space = np.stack([g.ravel() for g in grids], axis=1)
    P, T, Q = parent.count, 16, 4**n
    offs = np.stack([plus_off, minus_off])
    l_out = np.broadcast_to((parent.l[:, None, None] + offs[None, :, :])[..., None],
                            (P, 2, T, Q)).reshape(-1)
    w_out = np.broadcast_to(parent.w[:, None, None, None, :] + space[None, None, None, :, :],
                            (P, 2, T, Q, n)).reshape(-1, n)
    return _Reference(parent.level + 1, s2, z2, l_out, w_out)


def _reference_levels(root, depth, extended):
    """Yield levels 0..depth: core by eighths, extended as quarter
    children of the previous level concatenated with the core level."""
    core = _Reference(root.level, root.s, root.z, np.array([root.l]),
                      np.array([root.w], dtype=float))
    prev = core
    yield core
    for _ in range(depth):
        core = _reference_children(core, "eighth")
        if extended:
            kids = _reference_children(prev, "quarter")
            prev = _Reference(core.level, kids.s, kids.z,
                              np.concatenate([kids.l, core.l]),
                              np.concatenate([kids.w, core.w]))
            del kids
        else:
            prev = core
        yield prev


def _checked_rows(count, fan, tail, seed):
    """Rows to read one at a time: the first and last, both sides of the
    boundary between the parts (tail rows from the end) and of every
    parent block (fan rows), and a seeded sample."""
    edges = {count - tail, *range(0, count + 1, fan)}
    rows = {k for e in edges for k in (e - 1, e) if 0 <= k < count}
    rows.update(np.random.default_rng(seed).integers(0, count, 200).tolist())
    return sorted(rows)


@pytest.mark.parametrize("n, depth", [(1, 0), (1, 1), (1, 2), (1, 3),
                                      (2, 0), (2, 1), (2, 2)])
@pytest.mark.parametrize("build", [build_core, build_extended])
def test_levels_match_reference_build(build, n, depth):
    h = build(unit_cube(n), depth)
    ref = _reference_levels(unit_cube(n), depth, build is build_extended)
    assert len(h.levels) == depth + 1
    for j, want in enumerate(ref):
        got = h.levels[j]
        assert (got.level, got.s, got.z) == (want.level, want.s, want.z)
        assert (got.count, got.n) == (want.count, want.n)
        # rows one at a time from the recursion
        rows = _checked_rows(want.count, 2 * ZETA ** (n + 2), core_count(n, j), seed=j)
        cubes = [got.cube(k) for k in rows]
        assert all((c.s, c.z, c.level) == (want.s, want.z, want.level) for c in cubes)
        assert np.array([c.l for c in cubes]).tobytes() == want.l[rows].tobytes(), j
        assert np.array([c.w for c in cubes]).tobytes() == want.w[rows].tobytes(), j
        # every row, expanded from the level's parts
        for name, a, b in zip("lw", level_rows(got), (want.l, want.w)):
            assert a.dtype == b.dtype and np.array_equal(a, b), (j, name)
        del a, b        # release the expanded rows before the next level


def test_counts_and_cube_reads_write_no_level_arrays():
    # written out, level 3 alone is 8388608 rows: 128 MiB of l and w
    tracemalloc.start()
    try:
        h = build_extended(unit_cube(1), 3)
        counts = [h.count_level(j) for j in range(4)]
        cubes = [lv.cube(k) for lv in h.levels for k in range(min(32, lv.count))]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [extended_count(1, j) for j in range(4)] and h.total == sum(counts)
    assert len(cubes) == 1 + 3 * 32
    assert peak < 2**20, peak


@pytest.mark.parametrize("count, args", [(core_count, (1, -1)), (count_bound, (1, -1)),
                                         (extended_count, (1, -2)), (core_count, (3, 1)),
                                         (extended_count, (0, 1)), (count_bound, (3, 1)),
                                         (core_count, (1, 1.0)), (core_count, (True, 1)),
                                         (extended_count, (1, True))])
def test_counts_reject_bad_arguments(count, args):
    with pytest.raises(InvalidArgumentError):
        count(*args)


@pytest.mark.parametrize("k", [True, 1.0, "1", None])
def test_cube_index_must_be_an_integer(k):
    lv = build_core(unit_cube(1), depth=1).levels[1]
    with pytest.raises(InvalidArgumentError):
        lv.cube(k)
    assert lv.cube(np.int64(1)) == lv.cube(1)
