"""Reference computations that tests compare the package against.

Each is a direct statement of a definition, kept out of the package
because no experiment runs it: exact region membership of a point, the
region infimum of a stored path, the negative-part energy of one
snapshot, the weighted average of h at a cube's time center, the
containment of a cube hierarchy in its root, and the cutoff profile at
arbitrary points.
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


def containment_ok(h, tol: float = 1e-9) -> bool:
    """Exhaustive check that every cube lies inside the root cube."""
    root = h.root
    for lv in h.levels:
        if float(lv.l.min()) - 4.0 * lv.s < root.time_lo - tol:
            return False
        if float(lv.l.max()) + 4.0 * lv.s > root.time_hi + tol:
            return False
        for d in range(lv.n):
            off = np.abs(lv.w[:, d] - root.w[d])
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
