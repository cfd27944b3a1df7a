"""Truncation-energy iteration diagnostics.

For a level a > 0 the iteration looks at the truncations
u_k = (u - a(1 - 2^-k))^+ through a family of shrinking cutoffs: phi_k
equals 1 on the ball of radius b_k = 1/2 + 2^-(k+1) and vanishes
outside radius b_{k-1}, while the time window shrinks from (0, 1] to
(3/4, 1] as I_k = (1 - b_k^2, 1].  The tracked quantities are the
squared (4, 2) space-time norm U_k of u_k phi_k over I_k x B_1, the
running supremum X*_k of the noise martingale built from the next
truncation, and the windowed quadratic variation of that martingale
relative to U_k^2.  The trace reports, per step, the smallest constant
making the one-step contraction inequality

    U_k <= C^k a^(-2 delta) (U_{k-1} + X*_{k-1}) U_{k-1}^delta

an equality, so ensembles of traces give an empirical distribution for
the contraction constant.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .fields import FieldPath, Grid, MixedNormSpec, lpq_norm, smoothstep
from .geometry import Ball, SpaceTimeRect
from .solver import CoefficientModel, g_along_path

ZERO_FLOOR = 1e-30


def shrink_radius(k: int) -> float:
    """Plateau radius b_k = 1/2 + 2^-(k+1)."""
    if k < 0 or int(k) != k:
        raise InvalidArgumentError(f"iteration index must be a nonnegative integer, got {k}")
    return 0.5 + 2.0 ** (-k - 1)


def time_window(k: int) -> tuple:
    """Shrinking window I_k = (1 - b_k^2, 1]."""
    b = shrink_radius(k)
    return (1.0 - b * b, 1.0)


@dataclass(frozen=True)
class CutoffFamily:
    """Radial plateau cutoffs: 1 inside b_k, 0 outside b_{k-1}.

    The profile between the radii is a clamped cubic ramp; its slope is
    at most 3 * 2^k, inside the n * 2^(k+2) budget for any n >= 1.
    The k = 0 member ramps between radii 1 and 3/2, so it is
    identically 1 on the closed unit ball.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidArgumentError(f"dimension must be >= 1, got {self.n}")

    @staticmethod
    def _radii(k: int) -> tuple:
        return shrink_radius(k), shrink_radius(k - 1) if k > 0 else 1.5

    def sample(self, grid: Grid, k: int) -> np.ndarray:
        """Flat node samples of the k-th profile."""
        inner, outer = self._radii(k)
        return smoothstep(inner, outer, grid.max_dist())


def truncate(path: FieldPath, k: int, a: float) -> FieldPath:
    """Positive part of the field shifted by a(1 - 2^-k)."""
    if not (a > 0.0):
        raise InvalidArgumentError(f"truncation level must be positive, got {a}")
    if k < 0 or int(k) != k:
        raise InvalidArgumentError(f"iteration index must be nonnegative, got {k}")
    shift = a * (1.0 - 2.0 ** (-k))
    vals = np.clip(path.values - shift, 0.0, None)
    return FieldPath(path.grid, path.times, vals, noise=path.noise)


def _windowed(path: FieldPath, k: int) -> SpaceTimeRect:
    lo, hi = time_window(k)
    return SpaceTimeRect(lo, hi, Ball((0.0,) * path.grid.n, 1.0))


def truncation_energy(path: FieldPath, fam: CutoffFamily, k: int, a: float) -> float:
    """U_k: squared (4,2) mixed norm of the cut-off truncation on I_k x B_1."""
    trunc = truncate(path, k, a)
    phi = fam.sample(path.grid, k)
    weighted = FieldPath(path.grid, path.times, trunc.values * phi[None, :])
    val = lpq_norm(weighted, MixedNormSpec(4.0, 2.0), _windowed(path, k)) ** 2
    return 0.0 if val < ZERO_FLOOR else float(val)


def _martingale_increments(path: FieldPath, cm: CoefficientModel,
                           fam: CutoffFamily, k: int, a: float,
                           eps: float) -> tuple:
    """Window steps and increments eps * sum_i <g_i(u_j), v_j> dW_ij.

    The integrand v uses the next truncation and squared next cutoff,
    matching the martingale whose running supremum controls step k.
    """
    grid = path.grid
    lo, hi = time_window(k)
    steps = path.step_indices(lo, hi)
    if steps.size == 0 or cm.m == 0:
        return steps, np.zeros(steps.size)
    phi2 = fam.sample(grid, k + 1) ** 2
    shift = a * (1.0 - 2.0 ** (-k - 1))

    def pairings(block, gv):
        v = np.clip(path.values[block] - shift, 0.0, None) * phi2
        return np.sum(gv * v, axis=-1).T

    p = grid.cell_volume() * g_along_path(path, cm, steps, pairings)
    return steps, eps * np.sum(p * path.increments(steps, cm.m), axis=1)


def _running_sup(incr: np.ndarray) -> float:
    """sup over s <= t of sum(incr[s:t]): prefix sums, starting from 0,
    minus their running minimum; always >= 0 because s = t is allowed."""
    prefix = np.concatenate([[0.0], np.cumsum(incr)])
    return float(np.max(prefix - np.minimum.accumulate(prefix)))


def martingale_sup(path: FieldPath, cm: CoefficientModel, fam: CutoffFamily,
                   k: int, a: float, eps: float = 1.0) -> float:
    """X*_k: sup over s <= t in I_k of the martingale increment X_t - X_s."""
    return _running_sup(_martingale_increments(path, cm, fam, k, a, eps)[1])


def windowed_qv(path: FieldPath, cm: CoefficientModel, fam: CutoffFamily,
                k: int, a: float, eps: float = 1.0) -> float:
    """Realized quadratic variation of the step-k martingale over I_k."""
    _, incr = _martingale_increments(path, cm, fam, k, a, eps)
    return float(np.sum(incr * incr))


@dataclass(frozen=True)
class IterationParams:
    a: float
    eps: float = 1.0
    K: int = 8
    delta: float = 0.25

    def __post_init__(self):
        if not (self.a > 0.0):
            raise InvalidArgumentError(f"level a must be positive, got {self.a}")
        if not (0.0 < self.eps <= 1.0):
            raise InvalidArgumentError(f"eps must lie in (0, 1], got {self.eps}")
        if self.K < 1:
            raise InvalidArgumentError(f"max index K must be >= 1, got {self.K}")
        if not (0.0 < self.delta < 1.0):
            raise InvalidArgumentError(f"delta must lie in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class IterationRow:
    k: int
    energy: float
    mart_sup: float
    qv_bound: float
    c_hat: float | None


@dataclass(frozen=True)
class IterationTrace:
    rows: tuple
    a: float
    eps: float
    delta: float
    decayed: bool

    @property
    def c_hat_max(self) -> float:
        vals = [r.c_hat for r in self.rows if r.c_hat is not None]
        return max(vals) if vals else 0.0


def iteration_trace(path: FieldPath, cm: CoefficientModel, fam: CutoffFamily,
                    params: IterationParams) -> IterationTrace:
    """Full diagnostic trace for k = 0..K.

    qv_bound_k divides the windowed realized QV by eps^2 U_k^2 (0/0 read
    as 0).  c_hat_k is the per-step contraction constant
    (U_k a^(2 delta) / ((U_{k-1} + X*_{k-1}) U_{k-1}^delta))^(1/k),
    undefined (None) when U_{k-1} is exactly 0.
    """
    a, eps, delta = params.a, params.eps, params.delta
    rows = []
    energies = []
    for k in range(params.K + 1):
        U = truncation_energy(path, fam, k, a)
        _, incr = _martingale_increments(path, cm, fam, k, a, eps)
        X = _running_sup(incr)
        qv = float(np.sum(incr * incr))
        denom = eps * eps * U * U
        qv_bound = qv / denom if denom > 0.0 else 0.0
        c_hat = None
        if k >= 1:
            U_prev, X_prev = energies[-1], rows[-1].mart_sup
            if U_prev > 0.0:
                ratio = U * a ** (2.0 * delta) / ((U_prev + X_prev) * U_prev**delta)
                c_hat = float(ratio ** (1.0 / k))
        rows.append(IterationRow(k=k, energy=U, mart_sup=X, qv_bound=qv_bound,
                                 c_hat=c_hat))
        energies.append(U)
    u0 = energies[0]
    decayed = energies[-1] == 0.0 or (u0 > 0.0 and energies[-1] < 1e-2 * u0)
    return IterationTrace(rows=tuple(rows), a=a, eps=eps, delta=delta,
                          decayed=decayed)
