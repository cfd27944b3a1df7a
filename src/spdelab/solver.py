"""Time stepping for the semilinear stochastic diffusion equation.

The equation integrated here is

    du = div(A(t, x, u) grad u) dt + f(t, x, u) dt + sum_i g_i(t, x, u) dW^i

on the periodic box [-X, X)^n, with A elliptic (iota <= A <= 1/iota as
quadratic forms) and |f| + |g|_{l2} <= Lambda |u|.  The one scheme is
semi-implicit Euler: diffusion implicit with A frozen at the previous
iterate, drift and noise explicit at the left endpoint,

    (I - dt L_A) u_{j+1} = u_j + dt f(t_j, x, u_j) + sum_i g_i(t_j, x, u_j) dW^i_j.

L_A is the conservative finite-difference divergence-form operator with
face-averaged coefficients, so the total mass sum(u) dx^n is conserved
exactly when f = g = 0.

Batches of paths are stepped together and all per-path arithmetic is
row-local, so results are bit-identical however paths are grouped into
batches.  `integrate_batch` runs the steps in blocks of K, sized by a
private byte budget: each step multiplies in its noise factor, adds f and
g, evaluates A when A reads u, and solves; each block evaluates A that
reads t (not u) at its K step times in one call, forms its
multiplicative-noise factors in one call, checks for blow-up, copies the
rows a caller captures, reduces the per-path statistics and copies the
history when one is kept.  A kept history is bounded by a second private
budget, checked before anything is allocated.  Every step and reduction is
the same per row and per snapshot whatever K is, so results are
bit-identical for every K as well.  A row that fails inside a block steps
on to the block's end, with numpy's overflow and invalid-value warnings
off; a failure shows in the result's failed/fail_step, never as a warning.

`_implicit_solver` picks the implicit solve from the shape of A's fields
and from n, and says when each factorization is made.  A free of t and u
and constant in space makes I - dt L_A circulant, solved by a real FFT.
In 1d every other A gives a cyclic tridiagonal matrix, symmetric and,
while every face value of A is positive, strictly diagonally dominant
with a positive diagonal, so positive definite.  It is factored as
L D L^T by LAPACK's dpttrf, which needs no pivoting, and solved by its
dpttrs plus a Sherman-Morrison correction for the corners.  A 1d field
with a face value <= 0 or a non-finite entry is not solved: its rows come
back NaN and fail.  In 2d any A that is not constant in space is solved
by sparse LU.  The FFT solve carries roundoff of order 1e-16 max|u|, so
nodes where u is nearly 0 may come out slightly negative.

scipy is imported only inside `splu`, `_lapack` and `_implicit_matrix`,
on first use, and scipy.sparse only by 2d runs.  A run
whose A is the identity, or free of t and u and constant in space, solves
by FFT and never loads scipy.
"""
from __future__ import annotations

import ast
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BlowUpError,
    DimensionMismatchError,
    InvalidArgumentError,
    ModelInvalidError,
    NumericError,
    ResourceLimitError,
)
from .fields import FieldPath, FieldSnapshot, Grid, smoothstep

BLOWUP_LIMIT = 1e100


# ---------------------------------------------------------------------------
# coefficient models

def _check_iota(iota: float):
    # 1/iota bounds A from above, so it must be finite too
    if not (0.0 < iota <= 1.0 and 1.0 / iota < math.inf):
        raise InvalidArgumentError(f"iota must lie in (0, 1] with 1/iota finite, got {iota}")


@dataclass
class CoefficientModel:
    """Callable coefficients (A, f, g) plus their declared bounds.

    a, f, g take (t, xs, u) in one of three forms.  On the grid, xs is the
    tuple of flat coordinate arrays of length S, and either t is a scalar
    and u has shape (S,) or (B, S), or t is a (J, 1) column of step times
    and u has shape (J, S), one stored state per row.  At sample points
    (validate_model), t, u and every array in xs have shape (K,), one
    point (t_k, x_k, u_k) each.  Results broadcast against u, and g
    returns an array of shape (m,) + u.shape.  a is the scalar coefficient
    (A = a I), None for the identity; f or g is None when that term
    vanishes.  a_deps lists which of {"t", "u"} the diffusion coefficient
    actually reads: the integrator passes u=None when "u" is absent,
    evaluates a only once per call when a_deps is empty, and when it is
    {"t"} calls a once per block of steps with t the (J, 1) column of the
    block's step times and u=None, so a must broadcast against a t column
    and return J fields, shape (J, S) or broadcastable to it.  The shape
    of those fields picks the solve (`_implicit_solver`).

    sigma, when not None, declares multiplicative noise
    g_i(t, x, u) = sigma_i(x) u: it maps xs to an (m, S) array, and the
    integrator evaluates it once per batch instead of calling g each step.
    """

    n: int
    a: Callable | None
    f: Callable | None
    g: Callable | None
    iota: float
    growth: float
    m: int
    sigma: Callable | None = None
    a_deps: frozenset = frozenset()

    def __post_init__(self):
        if self.n not in (1, 2):
            raise InvalidArgumentError(f"spatial dimension must be 1 or 2, got {self.n}")
        _check_iota(self.iota)
        if not (0.0 <= self.growth < math.inf):
            raise InvalidArgumentError(f"growth bound must be >= 0 and finite, got {self.growth}")
        if self.m < 0 or (self.g is None and self.m != 0):
            raise InvalidArgumentError("channel count m inconsistent with g")


@dataclass
class SolverConfig:
    """Stepping controls of the semi-implicit scheme: the time step.

    dt=None selects the parabolic default dx^2/2; the implicit diffusion
    puts no stability restriction on it. A solved path always records its
    noise.
    """

    dt: float | None = None

    def __post_init__(self):
        if self.dt is not None and not (0.0 < self.dt < math.inf):
            raise InvalidArgumentError(f"dt must be positive and finite, got {self.dt}")

    def step_size(self, grid: Grid) -> float:
        return self.dt if self.dt is not None else grid.dx**2 / 2.0


# --- expression sublanguage -------------------------------------------------
# Coefficients can be given as expressions over (t, x, u) using + - * /,
# unary minus, numbers, pi, and the functions sin, cos, exp, abs, min, max.

_EXPR_FUNCS = {
    "sin": (np.sin, 1),
    "cos": (np.cos, 1),
    "exp": (np.exp, 1),
    "abs": (np.abs, 1),
    "min": (np.minimum, 2),
    "max": (np.maximum, 2),
}
_EXPR_OPS = {ast.Add: np.add, ast.Sub: np.subtract,
             ast.Mult: np.multiply, ast.Div: np.divide}


def compile_expression(text: str, n: int):
    """Compile an expression into fn(t, xs, u); returns (fn, used_names).

    Allowed names: t, u, the coordinates x1 .. xn, x (alias for x1), and pi.
    One pass over the syntax tree checks each node against the grammar,
    children left to right, and returns the closure that evaluates it, so
    the first node outside the grammar is the one reported.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise InvalidArgumentError(f"bad expression {text!r}: {exc.msg}") from None

    reads = {"t": lambda t, xs, u: t, "u": lambda t, xs, u: u,
             "pi": lambda t, xs, u: math.pi, "x": lambda t, xs, u: xs[0]}
    for d in range(n):
        reads[f"x{d + 1}"] = lambda t, xs, u, d=d: xs[d]
    used: set = set()

    def build(node):
        if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPS:
            op, left, right = _EXPR_OPS[type(node.op)], build(node.left), build(node.right)
            return lambda t, xs, u: op(left(t, xs, u), right(t, xs, u))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            arg = build(node.operand)
            if isinstance(node.op, ast.USub):
                return lambda t, xs, u: -arg(t, xs, u)
            return lambda t, xs, u: +arg(t, xs, u)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            value = float(node.value)
            return lambda t, xs, u: value
        if isinstance(node, ast.Name):
            if node.id not in reads:
                raise InvalidArgumentError(
                    f"unknown name {node.id!r} in expression {text!r}")
            used.add(node.id)
            return reads[node.id]
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _EXPR_FUNCS:
                raise InvalidArgumentError(f"unknown function in expression {text!r}")
            fn, arity = _EXPR_FUNCS[node.func.id]
            if len(node.args) != arity or node.keywords:
                raise InvalidArgumentError(
                    f"{node.func.id} takes {arity} argument(s) in expression {text!r}")
            args = [build(a) for a in node.args]
            return lambda t, xs, u: fn(*(a(t, xs, u) for a in args))
        raise InvalidArgumentError(
            f"unsupported syntax {type(node).__name__} in expression {text!r}")

    return build(tree.body), frozenset(used)


# --- built-in families ------------------------------------------------------

@dataclass
class ModelParams:
    """Config-level description of a coefficient model."""

    a_kind: str = "identity"
    f_kind: str = "zero"
    g_kind: str = "trig"
    lambda_f: float = 0.0
    lambda_g: float = 0.5
    iota: float = 1.0
    m: int = 4
    a_seed: int = 0
    a_value: float = 1.0
    a_expr: str | None = None
    f_expr: str | None = None
    g_expr: str | None = None
    growth_bound: float | None = None


def _trig_profiles(m: int, n: int, extent: float, xs) -> np.ndarray:
    """m spatial profiles with sum of squares <= 1 everywhere."""
    groups = (m + 1) // 2
    amp = 1.0 / math.sqrt(groups)
    out = np.empty((m,) + np.shape(xs[0]))
    for i in range(m):
        group = i // 2
        dim = group % n
        freq = group // n + 1
        phase = freq * math.pi * xs[dim] / extent
        out[i] = amp * (np.cos(phase) if i % 2 == 0 else np.sin(phase))
    return out


def build_model(params: ModelParams, n: int, extent: float = 2.0) -> CoefficientModel:
    """Instantiate the coefficient callables described by params."""
    p = params
    _check_iota(p.iota)
    if not (0.0 <= p.lambda_f < math.inf and 0.0 <= p.lambda_g < math.inf):
        raise InvalidArgumentError("lambda_f and lambda_g must be nonnegative and finite")
    if p.a_seed < 0:
        raise InvalidArgumentError(f"a_seed must be nonnegative, got {p.a_seed}")

    # diffusion coefficient
    a_deps: frozenset = frozenset()
    if p.a_kind == "identity":
        a_fn = None
    elif p.a_kind == "constant":
        if not (p.iota <= p.a_value <= 1.0 / p.iota):
            raise InvalidArgumentError(
                f"constant coefficient {p.a_value} outside [{p.iota}, {1.0 / p.iota}]")
        c = float(p.a_value)

        def a_fn(t, xs, u, _c=c):
            return np.full_like(np.asarray(xs[0], dtype=float), _c)
    elif p.a_kind == "random_elliptic":
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(p.a_seed)))
        lo, hi = p.iota, 1.0 / p.iota
        mid, amp = 0.5 * (lo + hi), 0.45 * (hi - lo)
        kx = int(rng.integers(1, 4))
        ky = int(rng.integers(1, 4))
        ph = rng.uniform(0.0, 2.0 * math.pi, size=3)
        omega = math.pi * (1.0 + 2.0 * rng.random())

        def a_fn(t, xs, u):
            s = np.sin(kx * math.pi * xs[0] / extent + ph[0])
            if len(xs) == 2:
                s = s * np.cos(ky * math.pi * xs[1] / extent + ph[1])
            return mid + amp * s * np.cos(omega * t + ph[2])

        a_deps = frozenset({"t"})
    elif p.a_kind == "expr":
        if not p.a_expr:
            raise InvalidArgumentError("a_kind 'expr' needs a_expr")
        fn, used = compile_expression(p.a_expr, n)
        a_fn = fn
        a_deps = frozenset(used & {"t", "u"})
    else:
        raise InvalidArgumentError(f"unknown a_kind {p.a_kind!r}")

    # drift
    if p.f_kind == "zero":
        f_fn = None
    elif p.f_kind == "linear":
        def f_fn(t, xs, u, _l=float(p.lambda_f)):
            return _l * u
    elif p.f_kind == "expr":
        if not p.f_expr:
            raise InvalidArgumentError("f_kind 'expr' needs f_expr")
        f_fn = compile_expression(p.f_expr, n)[0]
    else:
        raise InvalidArgumentError(f"unknown f_kind {p.f_kind!r}")

    # noise; m = 0 turns it off, but a bad m or kind is rejected even then
    if p.m < 0:
        raise InvalidArgumentError(f"channel count m must be >= 0, got {p.m}")
    if p.g_kind not in ("zero", "trig", "expr"):
        raise InvalidArgumentError(f"unknown g_kind {p.g_kind!r}")
    sigma = None
    if p.g_kind == "zero" or p.m == 0 or (p.g_kind == "trig" and p.lambda_g == 0.0):
        g_fn, m_eff = None, 0
    elif p.g_kind == "trig":
        def sigma(xs, _lam=float(p.lambda_g), _m=int(p.m)):
            return _lam * _trig_profiles(_m, n, extent, xs)

        def g_fn(t, xs, u):
            sig = sigma(xs)
            if u.ndim == 1:
                return sig * u
            return sig[:, None, :] * u[None, :, :]

        m_eff = int(p.m)
    elif p.g_kind == "expr":
        if not p.g_expr:
            raise InvalidArgumentError("g_kind 'expr' needs g_expr")
        base = compile_expression(p.g_expr, n)[0]

        def g_fn(t, xs, u):
            return np.broadcast_to(np.asarray(base(t, xs, u), dtype=float),
                                   u.shape)[None]

        m_eff = 1

    growth = p.growth_bound if p.growth_bound is not None else p.lambda_f + p.lambda_g
    return CoefficientModel(n=n, a=a_fn, f=f_fn, g=g_fn, iota=float(p.iota),
                            growth=float(growth), m=m_eff, sigma=sigma,
                            a_deps=a_deps)


@dataclass(frozen=True)
class ValidationReport:
    """The worst margins validate_model saw over its samples.

    worst_growth_margin is the largest (|f| + |g|) / |u| over the samples
    with u != 0, less the growth bound: 0 when a sample attains the bound,
    negative by the bound's slack.
    """

    worst_ellip_low: float
    worst_ellip_high: float
    worst_growth_margin: float


# samples validate_model draws, from a fixed seed
_VALIDATION_SAMPLES = 256
_VALIDATION_SEED = 0


def validate_model(cm: CoefficientModel, extent: float = 2.0,
                   t_max: float = 2.0) -> ValidationReport:
    """Spot-check ellipticity and the linear growth bound on random samples.

    Each of the _VALIDATION_SAMPLES samples draws its own time, point and
    state magnitude, and the coefficients are evaluated on all of them in
    one call.  Raises ModelInvalidError with a witness triple on a violated
    bound, ellipticity first, or where |f| + |g| is not finite; otherwise
    returns the worst observed margins.
    """
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise InvalidArgumentError(f"t_max must be finite and >= 0, got {t_max}")
    if not (math.isfinite(extent) and extent > 0.0):
        raise InvalidArgumentError(f"extent must be finite and > 0, got {extent}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(_VALIDATION_SEED)))
    K = _VALIDATION_SAMPLES
    t = rng.uniform(0.0, t_max, size=K)
    xs = tuple(rng.uniform(-extent, extent, size=K) for _ in range(cm.n))
    u = rng.choice([-1.0, 1.0], size=K) * 10.0 ** rng.uniform(-4.0, 1.0, size=K)
    u[0] = 0.0

    def witness(k):
        return (float(t[k]), tuple(float(c[k]) for c in xs), float(u[k]))

    a = np.ones(K) if cm.a is None else np.broadcast_to(
        np.asarray(cm.a(t, xs, u), dtype=float), (K,))
    lo_margin = float(np.min(a - cm.iota))
    hi_margin = float(np.min(1.0 / cm.iota - a))
    tol_e = 1e-9 / cm.iota
    if lo_margin < -tol_e or hi_margin < -tol_e:
        k = int(np.argmin(np.minimum(a - cm.iota, 1.0 / cm.iota - a)))
        raise ModelInvalidError(
            f"ellipticity violated at {witness(k)}: coefficient {float(a[k]):.6g} "
            f"outside [{cm.iota}, {1.0 / cm.iota}]", witness=witness(k))

    size = np.zeros(K)
    # an f or g that overflows at a sample is refused below, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        if cm.f is not None:
            size = size + np.abs(np.broadcast_to(np.asarray(cm.f(t, xs, u), float), (K,)))
        if cm.g is not None:
            # hypot, not the root of a sum of squares, which overflows first
            gv = np.asarray(cm.g(t, xs, u), dtype=float)
            size = size + np.hypot.reduce(gv, axis=0, initial=0.0)
    if not np.all(np.isfinite(size)):
        k = int(np.argmin(np.isfinite(size)))
        raise ModelInvalidError(f"|f|+|g| is not finite at {witness(k)}", witness=witness(k))
    # a bound whose product with |u| overflows holds at that sample
    with np.errstate(over="ignore"):
        bound = cm.growth * np.abs(u)
    excess = size - bound
    scaled = excess - 1e-12 * np.maximum(1.0, bound)
    if np.any(scaled > 0.0):
        k = int(np.argmax(scaled))
        raise ModelInvalidError(
            f"growth bound violated at {witness(k)}: |f|+|g| = {float(size[k]):.6g} "
            f"> {cm.growth} * {abs(float(u[k])):.6g}", witness=witness(k))
    nonzero = u != 0.0
    margin = float(np.max(size[nonzero] / np.abs(u[nonzero]))) - cm.growth
    return ValidationReport(worst_ellip_low=lo_margin, worst_ellip_high=hi_margin,
                            worst_growth_margin=margin)


# ---------------------------------------------------------------------------
# discrete operator

def _coef_fields(cm: CoefficientModel, grid: Grid, xs, t, u) -> np.ndarray:
    """The scalar diffusion coefficient as a flat array: (S,), u.shape, or
    (J, S) for a (J, 1) column t of step times and u None."""
    S = grid.size
    if cm.a is None:
        return np.ones(S)
    tail = np.shape(t if u is None else u)[:-1] + (S,)
    return np.broadcast_to(np.asarray(cm.a(t, xs, u), dtype=float), tail)


def _faces(a: np.ndarray, axis: int) -> tuple:
    """(a_{i+1/2}, a_{i-1/2}) along one axis: a face takes the mean of the
    coefficients at its two nodes, with periodic wrap.  Written as slice
    copies into new arrays, the bits of 0.5 * (a + np.roll(a, -1)) and its
    roll by one, at about half the cost of two np.roll calls."""
    rest = (slice(None),) * (a.ndim - 1 - axis % a.ndim)
    lo, hi, first, last = ((Ellipsis, cut) + rest for cut in (
        slice(None, -1), slice(1, None), slice(None, 1), slice(-1, None)))
    af = np.empty(a.shape)
    af[lo] = a[hi]
    af[last] = a[first]
    af += a
    af *= 0.5
    afm = np.empty(a.shape)
    afm[hi] = af[lo]
    afm[first] = af[last]
    return af, afm


def apply_operator(grid: Grid, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Conservative divergence-form L applied to flat states (..., S)."""
    w = v.reshape(v.shape[:-1] + grid.shape)
    am = a.reshape(a.shape[:-1] + grid.shape)
    out = None
    for axis in range(-grid.n, 0):
        af, afm = _faces(am, axis)
        flux = af * (np.roll(w, -1, axis) - w) - afm * (w - np.roll(w, 1, axis))
        out = flux if out is None else out + flux
    return (out / grid.dx**2).reshape(v.shape)


def splu(matrix):
    """scipy's sparse LU factorization of a CSC matrix."""
    from scipy.sparse.linalg import splu as factorize
    return factorize(matrix)


@functools.cache
def _lapack(name: str):
    """scipy's wrapper of the LAPACK routine `name`, imported on first use;
    the cache spares each per-step call an import statement."""
    from scipy.linalg import lapack
    return getattr(lapack, name)


def dpttrf(d, e):
    """LAPACK's L D L^T factorization of a symmetric positive definite
    tridiagonal, as scipy.linalg.lapack.dpttrf."""
    return _lapack("dpttrf")(d, e)


def dpttrs(d, e, b):
    """LAPACK's solve against a dpttrf factorization, as
    scipy.linalg.lapack.dpttrs."""
    return _lapack("dpttrs")(d, e, b)


def _implicit_matrix(grid: Grid, a: np.ndarray, dt: float):
    """Sparse I - dt L for a shared (unbatched) coefficient field."""
    from scipy import sparse

    lam = dt / grid.dx**2
    S = grid.size
    am = np.broadcast_to(a, (S,)).reshape(grid.shape)
    idx = np.arange(S).reshape(grid.shape)
    faces, cols = [], [idx]
    for axis in range(grid.n):
        faces += _faces(am, axis)
        cols += [np.roll(idx, -1, axis), np.roll(idx, 1, axis)]
    diag = 1.0 + lam * functools.reduce(np.add, faces)
    vals = np.concatenate([diag.ravel()] + [(-lam * f).ravel() for f in faces])
    rows = np.tile(idx.ravel(), len(cols))
    return sparse.csc_matrix((vals, (rows, np.concatenate([c.ravel() for c in cols]))),
                             shape=(S, S))


def _circulant_solve(grid: Grid, c: float, dt: float):
    """Batched solve of I - dt L for the constant coefficient c, by real FFT.

    The matrix is circulant (block-circulant in 2d); its eigenvalue at
    wavenumber k is 1 + lam c (2 - 2 cos(2 pi k / N)), summed over the
    axes, with lam = dt / dx^2.  Each row is transformed on its own, over
    the grid axes: a real transform of the last, which halves it, and a
    complex one of the axis before it in 2d.  That is what numpy's
    rfftn/irfftn do, with the same bits, but their argument handling
    adds about 5 us a call: some 10% of a 64-row 1d solve on 64 nodes
    (numpy 2.4 on a 2-core x86 VM).
    """
    N = grid.npts
    symbol = 2.0 - 2.0 * np.cos(2.0 * math.pi * np.arange(N) / N)
    half = symbol[:N // 2 + 1]
    inv = 1.0 / (1.0 + dt / grid.dx**2 * c * (symbol[:, None] + half if grid.n == 2 else half))
    shape, lead = grid.shape, range(-grid.n, -1)

    def solve(rhs):
        spec = np.fft.rfft(rhs.reshape(rhs.shape[:-1] + shape))
        for axis in lead:
            spec = np.fft.fft(spec, axis=axis)
        # numpy divides by a real c as by c + 0i, which multiplies both parts
        # by 1/c; doing that in place skips the complex division
        spec.real *= inv
        spec.imag *= inv
        for axis in lead:
            spec = np.fft.ifft(spec, axis=axis)
        return np.fft.irfft(spec, n=N).reshape(rhs.shape)
    return solve


def _cyclic_parts(grid: Grid, a: np.ndarray, dt: float) -> tuple:
    """1d I - dt L for coefficient rows a (..., N), split for Sherman-Morrison.

    The periodic matrix is symmetric: diagonal 1 + lam (af_i + af_{i-1}),
    entry -lam af_i between nodes i and i + 1 (mod N), so both corners hold
    c = -lam af_{N-1}.  It equals T + w v^T with w = (gamma, 0, ..., 0, c),
    v = (1, 0, ..., 0, c / gamma) and gamma = -d_0, where T is tridiagonal
    with off-diagonal e and diagonal d (d_0 doubled, d_{N-1} less c^2/gamma),
    so T = M + w w^T / d_0 for the matrix M without its corners.  Returns
    (e, d, gamma, c), each with the leading axes of a; e has N entries, the
    last 0, the coupling to the next matrix in a stack.

    When every face af_i is positive, M is symmetric and strictly
    diagonally dominant with a positive diagonal, so positive definite,
    and T is too; `_definite` tells which matrices of a stack are.
    """
    lam = dt / grid.dx**2
    af, afm = _faces(a, -1)
    d = 1.0 + lam * (af + afm)
    e = -lam * af
    gamma, c = -d[..., 0], e[..., -1].copy()
    e[..., -1] = 0.0
    d[..., 0] -= gamma
    d[..., -1] -= c * c / gamma
    return e, d, gamma, c


def _definite(parts: tuple) -> np.ndarray:
    """Which matrices of _cyclic_parts have every face positive (every
    off-diagonal and corner below 0) and a finite diagonal: then T is
    symmetric positive definite, its L D L^T pivots stay above 1, and its
    LAPACK solve touches no other matrix of a stack.  A coefficient that is
    NaN, infinite or so large that a face overflows fails it."""
    e, d, _, c = parts
    # a NaN fails the comparison of a max, and a NaN or infinity makes the sum
    # non-finite (as would finite entries whose sum overflows, near 1e308)
    return (e[..., :-1].max(axis=-1) < 0.0) & (c < 0.0) & np.isfinite(d.sum(axis=-1))


def _cyclic_factor(parts: tuple) -> tuple:
    """Factor the R matrices of _cyclic_parts for Sherman-Morrison.

    One LAPACK dpttrf call factors the R matrices T as L D L^T, with no
    pivoting, on the diagonal of one symmetric tridiagonal with zero
    coupling: the factors are those of each T alone, as a zero coupling
    leaves the next pivot as it is.  One dpttrs call against the stacked
    w gives z = T^{-1} w.  Returns (df, ef, z, ratio, denom): the stacked
    factorization, and z, ratio = c / gamma and denom = 1 + v^T z with the
    leading axes of the parts.  A matrix that is not positive definite
    stops the factorization: NumericError.
    """
    e, d, gamma, c = parts
    df, ef, info = dpttrf(d.ravel(), e.ravel()[:d.size - 1])
    if info != 0:
        raise NumericError(f"tridiagonal factorization failed: LAPACK dpttrf info = {info}")
    w = np.zeros(d.shape)
    w[..., 0], w[..., -1] = gamma, c
    z = dpttrs(df, ef, w.reshape(-1, 1))[0].reshape(d.shape)
    ratio = c / gamma
    return df, ef, z, ratio, 1.0 + z[..., 0] + ratio * z[..., -1]


def _factor_definite(parts: tuple) -> tuple:
    """(definite, factor): which matrices of a stack from _cyclic_parts pass
    `_definite`, and the _cyclic_factor of those alone (None when none does).
    Left in, a matrix that fails would stop dpttrf before the ones after it."""
    definite = _definite(parts)
    if not definite.all():
        parts = tuple(p[definite] for p in parts)
    return definite, _cyclic_factor(parts) if definite.any() else None


def _cyclic_matrices(factor: tuple) -> list:
    """Each matrix of a stack from _cyclic_factor, as a factor of its own."""
    df, ef, z, ratio, denom = factor
    n = z.shape[-1]
    return [(df[i * n:(i + 1) * n], ef[i * n:(i + 1) * n - 1], z[i], ratio[i], denom[i])
            for i in range(len(z))]


def _cyclic_solve(factor: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve (T + w v^T) x = rhs for the R matrices of _cyclic_factor, rhs
    (K, N), row k with matrix k mod R: R = 1 for a shared field, R = K for
    one per row.

    One LAPACK dpttrs call solves the K / R rhs columns of length R N; with
    y = T^{-1} rhs, Sherman-Morrison gives x = y - z (v^T y) / (1 + v^T z),
    for v = (1, 0, ..., 0, c / gamma).  A row's result depends on no other
    row while every rhs entry is finite, and each rhs column is solved on
    its own, so R = 1 gives the bits of R = K with the field repeated.
    """
    df, ef, z, ratio, denom = factor
    y = dpttrs(df, ef, rhs.reshape(-1, df.size).T)[0].T.reshape((-1,) + z.shape)
    y -= ((y[..., 0] + ratio * y[..., -1]) / denom)[..., None] * z
    return y.reshape(rhs.shape)


def _implicit_solver(grid: Grid, a: np.ndarray, dt: float, rows=None):
    """The solve (rhs (B, S), i) -> (B, S) of I - dt L_a for step i.

    a is one of: one field (S,) shared by every row and step (A reads
    neither t nor u); the shared fields (k, S) of the k steps of a block
    (rows None), field i for step i; or one field per row (B, S) for one
    step, of which only the rows listed in `rows` are solved.  Only the
    fields of a block are chosen by i; i defaults to 0.

    One field (S,) that is constant in space is solved by FFT.  In 1d every
    other field is cyclic tridiagonal and, while its faces are positive,
    symmetric positive definite (_cyclic_parts).  The shared fields are
    factored here, in one dpttrf call (_cyclic_factor), and each call of the
    solve is one dpttrs call (_cyclic_solve); the fields of the rows are
    factored in one dpttrf call per solve.  A shared 1d field that is not
    positive definite, or not finite, is left out of the factorization and
    gives NaN for every row at its step, which the step loop records as
    failures.  In 2d sparse LU factors one shared field here, each field of
    a block at its step, and each row's field per solve.

    For one field per row, only the listed rows whose rhs and field are
    finite (in 1d: whose matrix passes `_definite`) are solved, and the
    other rows come back NaN.
    """
    if a.ndim == 2 and rows is not None:
        def solve(rhs, i=0):
            out = np.full_like(rhs, np.nan)
            live = rows[np.all(np.isfinite(rhs[rows]), axis=1)]
            if grid.n == 2:
                for b in live[np.all(np.isfinite(a[live]), axis=1)]:
                    out[b] = splu(_implicit_matrix(grid, a[b], dt)).solve(rhs[b])
                return out
            # the listed rows alone, less those whose matrix is not positive definite
            definite, factor = _factor_definite(_cyclic_parts(grid, a[live], dt))
            live = live[definite]
            if live.size:
                out[live] = _cyclic_solve(factor, rhs[live])
            return out
        return solve
    if a.ndim == 1 and np.all(a == a[0]):
        fft = _circulant_solve(grid, float(a[0]), dt)
        return lambda rhs, i=0: fft(rhs)
    fields = a.reshape(-1, grid.size)
    if grid.n == 2:
        if a.ndim == 1:
            lu = splu(_implicit_matrix(grid, a, dt))
            return lambda rhs, i=0: lu.solve(rhs.T).T
        return lambda rhs, i=0: splu(_implicit_matrix(grid, fields[i], dt)).solve(rhs.T).T
    # the factorization holds the definite fields in order
    definite, factor = _factor_definite(_cyclic_parts(grid, fields, dt))
    factored = iter(_cyclic_matrices(factor) if factor else ())
    mats = [next(factored) if ok else None for ok in definite.tolist()]

    def solve(rhs, i=0):
        mat = mats[i % len(mats)]
        if mat is None:
            return np.full_like(rhs, np.nan)
        return _cyclic_solve(mat, rhs)
    return solve


# ---------------------------------------------------------------------------
# seeding and integration

def path_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    """Counter-derived seed for one path; independent of execution order."""
    return np.random.SeedSequence(master_seed, spawn_key=(index,))


def draw_increments(seed, steps: int, m: int, dt: float) -> np.ndarray:
    """Brownian increments, shape (steps, m), N(0, dt) entries."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(int(seed))
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.normal(0.0, math.sqrt(dt), size=(steps, m))


def time_axis(t0: float, horizon: float, dt: float) -> np.ndarray:
    """Step boundaries from t0 to the first boundary at or beyond t0 + horizon."""
    ratio = horizon / dt
    steps = int(round(ratio)) if abs(ratio - round(ratio)) < 1e-9 else int(math.ceil(ratio))
    return t0 + dt * np.arange(max(steps, 1) + 1)


@dataclass
class IntegrationResult:
    """The batch's history when kept, its failures, per-path statistics
    taken in the step loop, and the captured rows.

    sup/inf have shape (R, B), over each requested region; neg_energy has
    shape (B,), the running max over snapshots of dx^n * sum(min(u, 0)^2),
    and neg_min shape (B,), the least min(u, 0) over every snapshot and
    node.  A failed row reads NaN in all four.  captured holds one array
    of shape (B, len(steps), len(nodes)) per requested capture, equal to
    history[:, steps][:, :, nodes]; a failed row reads NaN from its
    failing step on, as in the history.
    """

    history: np.ndarray | None
    failed: np.ndarray
    fail_step: np.ndarray
    sup: np.ndarray
    inf: np.ndarray
    neg_energy: np.ndarray
    neg_min: np.ndarray
    captured: list


# integrate_batch takes as many steps per block as (B, S) snapshots fit in
# this many bytes; the K fields of A that reads t, and their parts and
# factorization, are a few arrays of K S floats, which the same bound caps
_STEP_BLOCK_BYTES = 384 << 10

# the full path histories one integrate_batch call may keep; run_ensemble
# shrinks its chunks to fit, and solve_path refuses a path that does not
_HISTORY_BYTES = 512 << 20


def history_capacity(steps: int, size: int) -> int:
    """How many full histories of steps + 1 snapshots of `size` nodes fit
    in _HISTORY_BYTES.  Raises ResourceLimitError, before anything is
    allocated, when not even one does."""
    per_path = 8 * (steps + 1) * size
    if per_path > _HISTORY_BYTES:
        raise ResourceLimitError(
            f"one path history of {steps + 1} snapshots x {size} nodes takes "
            f"{per_path} bytes, over the history budget of {_HISTORY_BYTES}")
    return _HISTORY_BYTES // per_path


def integrate_batch(grid: Grid, cm: CoefficientModel, cfg: SolverConfig,
                    u0b: np.ndarray, times: np.ndarray, dWb,
                    keep_history: bool = False, regions: Sequence = (),
                    captures: Sequence = ()) -> IntegrationResult:
    """Advance a batch of paths through all steps of `times`.

    u0b has shape (B, S); dWb has shape (B, M, m) or is None when m = 0.
    A path that turns non-finite (or exceeds the blow-up limit) is frozen
    at NaN and reported in failed/fail_step; other rows are unaffected.

    regions are `(steps, nodes)` rows from `fields.region_rows`: step j
    of a region reads snapshot j, the left endpoint of that step.  The
    negative-part energy and neg_min read every snapshot 0..M, but a block
    of snapshots with no negative entry changes neither and is skipped; one
    with a NaN row is not, so the other rows keep their values after a
    failure.  captures are `(steps, nodes)` index arrays too, with steps
    any snapshot indices 0..M: each block copies the captured rows it
    holds, so a consumer that reads only those rows needs no history.

    The steps run in blocks of K, through a step-major buffer of K + 1
    snapshots; K is the number of (B, S) snapshots that fit in
    _STEP_BLOCK_BYTES, at least 1 and at most M.  Per step: the noise
    factor is multiplied in, f and a g without sigma are added, A is
    evaluated anew when it reads u, and the solve runs.  Per block: A that
    reads t but not u, in one call with t the (K, 1) column of the block's
    step times and u=None, and its solve for those K fields (each kind of
    A is solved as `_implicit_solver` says); the multiplicative-noise factors
    1 + sum_i sigma_i dW^i of all K steps, the blow-up check, the
    captures, the region sup/inf and negative-part energy, and the copy
    into the history.  A row that fails
    inside a block steps on to the block's end, overflowing in its own row
    only, before it is set to NaN from its failing step on; the step loop
    raises no overflow or invalid-value warning, so a failure shows in
    failed/fail_step (and an ensemble's manifest), never as a warning.
    cfg is not read, as the step comes from `times`; it stays the third
    positional parameter because `bench/layers.py` reads u0b, times and
    keep_history by position.
    """
    if cm.n != grid.n:
        raise DimensionMismatchError(f"model dimension {cm.n} != grid dimension {grid.n}")
    B, S = u0b.shape
    M = times.size - 1
    dt = float(times[1] - times[0])
    xs = grid.coords_flat()
    K = max(1, min(M, _STEP_BLOCK_BYTES // (8 * B * S)))
    buf = np.empty((K + 1, B, S))
    buf[0] = u0b
    failed = np.zeros(B, dtype=bool)
    fail_step = np.full(B, -1, dtype=int)
    hist = np.empty((B, M + 1, S)) if keep_history else None
    if keep_history:
        hist[:, 0, :] = buf[0]
    read = np.zeros((len(regions), M + 1), dtype=bool)
    for r, (steps, _) in enumerate(regions):
        read[r, steps] = True
    sup = np.full((len(regions), B), -np.inf)
    inf = np.full((len(regions), B), np.inf)
    neg_energy = np.zeros(B)
    neg_min = np.zeros(B)
    captured = [np.empty((B, len(steps), len(nodes))) for steps, nodes in captures]
    vol = grid.cell_volume()

    def record(first, snaps):
        """Fold snapshots first, first + 1, ... of shape (k, B, S) into the
        captures and statistics; the negative part is taken in place in
        snaps, so the captures are copied first."""
        for (steps, nodes), out in zip(captures, captured):
            at = np.flatnonzero((steps >= first) & (steps < first + len(snaps)))
            if at.size:
                out[:, at] = snaps[steps[at] - first][..., nodes].swapaxes(0, 1)
        for r, (_, nodes) in enumerate(regions):
            mask = read[r, first:first + len(snaps)]
            if mask.any():
                sub = snaps if mask.all() else snaps[mask]
                np.maximum(sup[r], sub.max(axis=0)[:, nodes].max(axis=1), out=sup[r])
                np.minimum(inf[r], sub.min(axis=0)[:, nodes].min(axis=1), out=inf[r])
        if not snaps.min() >= 0.0:
            neg = np.minimum(snaps, 0.0, out=snaps)
            np.minimum(neg_min, neg.min(axis=2).min(axis=0), out=neg_min)
            neg *= neg
            energy = vol * np.sum(neg, axis=-1)
            np.maximum(neg_energy, energy.max(axis=0), out=neg_energy)

    record(0, buf[:1].copy())

    noisy = cm.m > 0 and dWb is not None
    sig = np.asarray(cm.sigma(xs), dtype=float) if noisy and cm.sigma is not None else None
    solve = None
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, M, K):
            k = min(K, M - lo)
            block = buf[1:k + 1]
            if sig is not None:
                np.einsum("bkm,ms->kbs", dWb[:, lo:lo + k], sig, out=block)
                block += 1.0
            # A that reads t (not u) is evaluated, and solved for, once per
            # block at the block's step times; A that reads neither once
            if "u" not in cm.a_deps and (solve is None or cm.a_deps):
                when = times[lo:lo + k, None] if cm.a_deps else float(times[0])
                solve = _implicit_solver(grid, _coef_fields(cm, grid, xs, when, None), dt)
            for i in range(k):
                j = lo + i
                t = float(times[j])
                u, rhs = buf[i], buf[i + 1]
                if sig is not None:
                    rhs *= u
                else:
                    rhs[...] = u
                if cm.f is not None:
                    rhs += dt * np.broadcast_to(np.asarray(cm.f(t, xs, u), dtype=float), (B, S))
                if noisy and sig is None:
                    gj = np.asarray(cm.g(t, xs, u), dtype=float)
                    rhs += np.einsum("mbs,bm->bs", gj, dWb[:, j, :])

                # A that reads u: one field per row, solved for the rows whose
                # results so far (not the data) pass the failure test
                if "u" in cm.a_deps:
                    rows = np.flatnonzero((j == 0) | np.all(np.abs(u) <= BLOWUP_LIMIT, axis=1))
                    solve = _implicit_solver(grid, _coef_fields(cm, grid, xs, t, u), dt, rows)
                rhs[...] = solve(rhs, i)

            # the block passes unless an entry is past the limit or NaN; then a
            # row fails at its first step with such an entry and reads NaN from
            # that step's result on, and a row that failed before reads NaN
            if failed.any() or not (block.max() <= BLOWUP_LIMIT
                                    and block.min() >= -BLOWUP_LIMIT):
                bad = ~np.all(np.abs(block) <= BLOWUP_LIMIT, axis=2) | failed
                bad = np.logical_or.accumulate(bad, axis=0)
                fresh = bad[-1] & ~failed
                fail_step[fresh] = lo + np.argmax(bad[:, fresh], axis=0)
                failed |= fresh
                block[bad] = np.nan
            if keep_history:
                hist[:, lo + 1:lo + k + 1, :] = block.swapaxes(0, 1)
            # record overwrites the block, so the next block's start goes first
            buf[0] = buf[k]
            record(lo + 1, block)
    sup[:, failed] = inf[:, failed] = neg_energy[failed] = neg_min[failed] = np.nan
    return IntegrationResult(history=hist, failed=failed, fail_step=fail_step,
                             sup=sup, inf=inf, neg_energy=neg_energy, neg_min=neg_min,
                             captured=captured)


def solve_path(u0: FieldSnapshot, cm: CoefficientModel, cfg: SolverConfig,
               horizon: float, seed, increments=None) -> FieldPath:
    """Integrate one path from u0 over [u0.t, u0.t + horizon].

    seed may be an integer or a SeedSequence; explicit `increments`
    (steps x m) override the seeded draw and are recorded as given.  A
    history over _HISTORY_BYTES is refused before anything is integrated.
    """
    if not (horizon > 0.0):
        raise InvalidArgumentError(f"horizon must be positive, got {horizon}")
    grid = u0.grid
    dt = cfg.step_size(grid)
    times = time_axis(u0.t, horizon, dt)
    M = times.size - 1
    history_capacity(M, grid.size)
    if increments is not None:
        dW = np.asarray(increments, dtype=float)
        if dW.shape != (M, cm.m):
            raise DimensionMismatchError(
                f"increments shape {dW.shape} != {(M, cm.m)}")
    else:
        dW = draw_increments(seed, M, cm.m, dt)
    res = integrate_batch(grid, cm, cfg, u0.flat()[None, :], times,
                          dW[None] if cm.m else None, keep_history=True)
    if res.failed[0]:
        raise BlowUpError(f"path blew up at step {int(res.fail_step[0])}",
                          step_index=int(res.fail_step[0]))
    return FieldPath(grid, times, res.history[0], noise=dW)


# ---------------------------------------------------------------------------
# test functions and weak-form diagnostics

@dataclass(frozen=True)
class TestFunction:
    """Nonnegative grid-sampled test function vanishing near the wrap seam."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.size != self.grid.size:
            raise DimensionMismatchError("test function size != grid size")
        if not np.all(np.isfinite(v)):
            raise InvalidArgumentError("test function has non-finite values")
        if np.any(v < 0.0):
            raise InvalidArgumentError("test function must be nonnegative")
        margin = self.grid.max_dist() >= self.grid.extent - 2.0 * self.grid.dx
        if np.any(v[margin] != 0.0):
            raise InvalidArgumentError(
                "test function must vanish within two nodes of the wrap seam")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def bump(cls, grid: Grid, center=0.0, radius: float = 1.0,
             height: float = 1.0) -> "TestFunction":
        return cls(grid, height * smoothstep(radius / 2.0, radius, grid.max_dist(center)))

    def pair(self, fields: np.ndarray):
        """Discrete L2 pairing dx^n sum(phi * field) over the last axis."""
        return self.grid.cell_volume() * np.sum(fields * self.values, axis=-1)


# bytes of the (m, J, S) array of g values that g_along_path evaluates at once
_G_BLOCK_BYTES = 64 << 20


def g_along_path(path: FieldPath, cm: CoefficientModel, steps, reduce) -> np.ndarray:
    """Per-step reductions along a stored path, with g at left endpoints.

    steps is a nonempty index array, in any order.  For each block of
    consecutive entries, cm.g is called once with t as a (J, 1) column of
    step times and u as the (J, S) stored states, and reduce(block, gv)
    maps the block's step indices and that (m, J, S) array (None when
    m = 0) to an array whose leading axis runs over the block.  The
    blocks' results are concatenated in the order of `steps`.  Blocks keep
    gv under _G_BLOCK_BYTES; every reduction is per step, so the result
    does not depend on where the blocks split.
    """
    steps = np.asarray(steps, dtype=int)
    size = max(1, _G_BLOCK_BYTES // (8 * max(cm.m, 1) * path.grid.size))
    xs = path.grid.coords_flat()
    out = []
    for lo in range(0, steps.size, size):
        block = steps[lo:lo + size]
        gv = None
        if cm.m > 0:
            gv = np.asarray(cm.g(path.times[block][:, None], xs, path.values[block]),
                            dtype=float)
        out.append(reduce(block, gv))
    return np.concatenate(out)


def _drift_terms(path: FieldPath, cm: CoefficientModel, phi: TestFunction,
                 block, after) -> tuple:
    """Per-step pairings <L_A u, phi> and <f, phi> over a block of steps.

    A and f are taken at the left endpoint; L_A is applied to the state
    at step j + after (0: left endpoint, 1: right endpoint).
    """
    grid = path.grid
    xs = grid.coords_flat()
    t = path.times[block][:, None]
    u = path.values[block]
    coef = _coef_fields(cm, grid, xs, t, u)
    diffusion = phi.pair(apply_operator(grid, coef, path.values[block + after]))
    forcing = np.zeros(block.size)
    if cm.f is not None:
        forcing = phi.pair(np.broadcast_to(np.asarray(cm.f(t, xs, u), dtype=float),
                                           u.shape))
    return diffusion, forcing


def weak_residual(path: FieldPath, cm: CoefficientModel, phi: TestFunction,
                  s: float, t: float) -> float:
    """Absolute defect of the weak formulation between times s and t.

    All time integrals use left-endpoint quadrature, so for the
    semi-implicit scheme the defect is the diffusion telescoping error,
    of size O(dt) on smooth data.
    """
    js, jt = path.time_index(s), path.time_index(t)
    if js >= jt:
        raise InvalidArgumentError(f"need s < t with at least one step, got {s}, {t}")

    def terms(block, gv):
        diffusion, forcing = _drift_terms(path, cm, phi, block, 0)
        noise = np.zeros(block.size)
        if gv is not None:
            noise = np.sum(phi.pair(gv).T * path.increments(block, cm.m), axis=1)
        return np.stack([diffusion, forcing, noise], axis=1)

    diffusion, forcing, noise = np.sum(g_along_path(path, cm, np.arange(js, jt), terms),
                                       axis=0)
    lhs = float(phi.pair(path.values[jt] - path.values[js]))
    return float(abs(lhs - path.dt * diffusion - path.dt * forcing - noise))


@dataclass(frozen=True)
class QvReport:
    empirical_qv: float
    pairing_qv: float


def qv_check(path: FieldPath, cm: CoefficientModel, phi: TestFunction) -> QvReport:
    """Quadratic variation of the pairing <u, phi> along the whole path.

    empirical_qv sums squared martingale increments, i.e. pairing
    increments minus the semi-implicit drift, with L_A applied at the
    right endpoint of each step as the solve does; pairing_qv accumulates
    sum_i <g_i, phi>^2 dt.  Both read the stored states and g alone, never
    the recorded noise, so a path without a noise record is checked too.
    """
    dt = path.dt

    def terms(block, gv):
        diffusion, forcing = _drift_terms(path, cm, phi, block, 1)
        incr = (phi.pair(path.values[block + 1] - path.values[block])
                - (dt * diffusion + dt * forcing))
        pairing = np.zeros(block.size)
        if gv is not None:
            pairing = dt * np.sum(phi.pair(gv) ** 2, axis=0)
        return np.stack([incr * incr, pairing], axis=1)

    empirical, pairing = np.sum(g_along_path(path, cm, np.arange(path.steps), terms), axis=0)
    return QvReport(empirical_qv=float(empirical), pairing_qv=float(pairing))


# ---------------------------------------------------------------------------
# reference solutions and initial data

def periodic_heat_kernel(x, t: float, extent: float = 2.0, images: int = 8) -> np.ndarray:
    """Heat kernel of u_t = u_xx on the circle [-extent, extent), unit mass."""
    if not (t > 0.0):
        raise InvalidArgumentError(f"kernel time must be positive, got {t}")
    x = np.asarray(x, dtype=float)
    L = 2.0 * extent
    out = np.zeros_like(x)
    for k in range(-images, images + 1):
        y = x - L * k
        out += np.exp(-y * y / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    return out


def make_initial_condition(kind: str, grid: Grid, amplitude: float = 1.0,
                           width: float = 1.0, seed: int = 0) -> FieldSnapshot:
    """Named nonnegative initial data sampled on the grid at t = 0; a field
    that is not finite, or that vanishes at every node (data the paper's
    positivity result excludes), is refused here, where it is built."""
    if not (0.0 < amplitude < math.inf):
        raise InvalidArgumentError(f"amplitude must be positive and finite, got {amplitude}")
    if not (0.0 < width < math.inf):
        raise InvalidArgumentError(f"width must be positive and finite, got {width}")
    xs = grid.coords_flat()
    rho = grid.max_dist()
    if kind == "bump":
        # zero from rho = width on; rho / width is formed only inside, where
        # it cannot overflow however small the width
        vals = np.zeros(grid.size)
        inside = rho < width
        vals[inside] = amplitude * (1.0 - (rho[inside] / width) ** 2) ** 2
    elif kind == "constant":
        vals = np.full(grid.size, amplitude)
    elif kind == "gaussian":
        # per axis, periodic_heat_kernel at time width**2, each node's image
        # sum taken relative to the smallest exponent: peak 1 for every width
        # (1 / (4 width^2) is inf for the narrowest), so no factor exceeds 1
        rate = (0.5 / width) * (0.5 / width)
        vals = np.ones(grid.size) * amplitude
        for d in range(grid.n):
            y2 = np.stack([(xs[d] - 2.0 * grid.extent * k) ** 2 for k in range(-8, 9)])
            excess = y2 - y2.min()
            with np.errstate(over="ignore"):
                e = np.multiply(excess, rate, out=np.zeros_like(excess), where=excess > 0.0)
            col = np.exp(-e).sum(axis=0)
            vals = vals * (col / col.max())
    elif kind == "random_positive":
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        logv = np.zeros(grid.size)
        for d in range(grid.n):
            for k in range(1, 4):
                c = rng.normal(0.0, 0.5 / k)
                ph = rng.uniform(0.0, 2.0 * math.pi)
                logv += c * np.cos(k * math.pi * xs[d] / grid.extent + ph)
        with np.errstate(over="ignore"):  # an overflow is refused below
            vals = amplitude * np.exp(logv)
    else:
        raise InvalidArgumentError(f"unknown initial condition kind {kind!r}")
    if not np.all(np.isfinite(vals)):
        raise InvalidArgumentError(f"initial condition {kind!r} overflows: amplitude {amplitude}")
    if not np.any(vals > 0.0):
        raise InvalidArgumentError(f"initial condition {kind!r} vanishes at every node "
                                   f"(amplitude {amplitude}, width {width})")
    return FieldSnapshot(grid, 0.0, vals.reshape(grid.shape))
