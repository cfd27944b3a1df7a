"""Reference computations that tests compare the package against.

Each is a direct statement of a definition, kept out of the package
because no experiment runs it: exact region membership of a point, the
region infimum of a stored path, the negative-part energy of one
snapshot, and the containment of a cube hierarchy in its root.
"""
import numpy as np

from spdelab.errors import DimensionMismatchError
from spdelab.fields import region_rows
from spdelab.geometry import as_point


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
