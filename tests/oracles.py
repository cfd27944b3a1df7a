"""Reference computations that tests compare the package against.

Each is a direct statement of a definition, kept out of the package
because no experiment runs it: exact region membership of a point, the
region infimum of a stored path, the negative-part energy of one
snapshot, the weighted average of h at a cube's time center, the rows
of a cube level as arrays, the containment of a cube hierarchy in its
root, the cutoff profile at arbitrary points, and the count of a joint
event over an ensemble's successful paths.
"""
import numpy as np

from spdelab.errors import DimensionMismatchError, InvalidArgumentError
from spdelab.fields import region_rows, smoothstep
from spdelab.geometry import as_point
from spdelab.jn import _center_average, _cube_weights


def ball_contains(ball, x) -> bool:
    """Membership in the open max-norm ball B_radius(center)."""
    pt = as_point(x)
    if len(pt) != ball.dim:
        raise DimensionMismatchError(
            f"expected a point with {ball.dim} coordinates, got {len(pt)}")
    return max(abs(a - b) for a, b in zip(pt, ball.center)) < ball.radius


def contains(rect, t: float, x) -> bool:
    """Exact membership test: t in (t_lo, t_hi] and |x - center| < radius."""
    if not (rect.t_lo < t <= rect.t_hi):
        return False
    return ball_contains(rect.ball, x)


def inf_on(path, rect) -> float:
    """Min nodal value over in-region (node, step) pairs."""
    return float(path.values[np.ix_(*region_rows(path.grid, path.times, rect))].min())


def cube_average(lf, cube) -> float:
    """Weighted spatial average of h at the cube's time center l."""
    w2 = _cube_weights(lf.grid, cube)
    return _center_average(lf.path.values[lf.path.time_index(cube.l)], lf.mu, w2)


def neg_part_energy(snap) -> float:
    """Squared L2 norm of the negative part u^- on the whole grid."""
    neg = np.minimum(snap.values, 0.0)
    return float(snap.grid.cell_volume() * np.sum(neg * neg))


def level_rows(lv) -> tuple:
    """Every row of a cube level as arrays, l (count,) and w (count, n): the
    root's cube, else each part's children, parent-major, written as the
    parent rows plus the part's offsets by one numpy addition each."""
    if lv.root is not None:
        return np.array([lv.root.l]), np.array([lv.root.w], dtype=float)
    l, w = np.empty(lv.count), np.empty((lv.count, lv.n))
    at = 0
    for part in lv.parts:
        pl, pw = level_rows(part.parent)
        shape = (pl.size, len(part.time), len(part.space))
        rows = slice(at, at + part.count)
        np.add(pl[:, None, None], np.array(part.time)[None, :, None],
               out=l[rows].reshape(shape))
        np.add(pw[:, None, None, :], np.array(part.space)[None, None, :, :],
               out=w[rows].reshape(shape + (lv.n,)))
        at = rows.stop
    return l, w


def containment_ok(h, tol: float = 1e-9) -> bool:
    """Exhaustive check that every cube lies inside the root cube."""
    root = h.root
    for lv in h.levels:
        l, w = level_rows(lv)
        if float(l.min()) - 4.0 * lv.s < root.time_lo - tol:
            return False
        if float(l.max()) + 4.0 * lv.s > root.time_hi + tol:
            return False
        for d in range(lv.n):
            off = np.abs(w[:, d] - root.w[d])
            if float(off.max()) + lv.z > root.z + tol:
                return False
    return True


def cutoff_value(fam, k: int, x) -> np.ndarray:
    """Profile of the k-th member of a CutoffFamily at points x, shape
    (..., n) or scalar/1d when n == 1."""
    pts = np.asarray(x, dtype=float)
    if fam.n == 1:
        rho = np.abs(pts)
    else:
        if pts.shape[-1] != fam.n:
            raise InvalidArgumentError(
                f"points have last axis {pts.shape[-1]}, expected {fam.n}")
        rho = np.max(np.abs(pts), axis=-1)
    inner, outer = fam._radii(k)
    return smoothstep(inner, outer, rho)


def joint_tail(ens, e1, e2) -> tuple:
    """(hits, trials) of the event e1 and e2 over the successful paths of
    an ensemble; e1 and e2 are boolean arrays indexed by path number."""
    both = np.asarray(e1, dtype=bool) & np.asarray(e2, dtype=bool) & ens.ok
    return int(np.sum(both)), ens.n_ok
