"""Numerical laboratory for a semilinear stochastic diffusion equation.

The package simulates du = div(A grad u) dt + f dt + g_i dW^i on a
periodic box and measures the quantities that the regularity theory of
such equations is built from: mixed space-time norms, truncation
energies, parabolic cube hierarchies, oscillation of log u, and the
tail probability of the sup/inf comparison failing.
"""

__version__ = "0.1.0"

from .cubes import (
    Cube,
    CubeHierarchy,
    build_core,
    build_extended,
    core_count,
    count_bound,
    extended_count,
    subcubes,
    unit_cube,
)
from .degiorgi import (
    CutoffFamily,
    IterationParams,
    IterationTrace,
    iteration_trace,
    martingale_sup,
    shrink_radius,
    time_window,
    truncate,
    truncation_energy,
    windowed_qv,
)
from .errors import (
    BlowUpError,
    ConfigError,
    DimensionMismatchError,
    DomainError,
    EmptyRegionError,
    GeometryError,
    InsufficientDataError,
    InvalidArgumentError,
    ModelInvalidError,
    NumericError,
    ResourceLimitError,
    StateError,
)
from .fields import (
    FieldPath,
    FieldSnapshot,
    Grid,
    MixedNormSpec,
    interpolation_check,
    lpq_norm,
    moment_product,
    smoothstep,
    sup_on,
)
from .geometry import (
    Ball,
    SpaceTimeRect,
    cover_cylinder,
    covering_bound,
    make_cylinder,
)
from .jn import (
    LogField,
    cube_stats,
    fit_decay,
    hierarchy_stats,
    levelset_fractions,
    log_field,
    moment_tail_value,
    stability_spread,
    tail_quantiles,
)
from .montecarlo import (
    Ensemble,
    ExperimentSpec,
    TailEstimate,
    comparison_experiment,
    filter_lemma_check,
    harnack_curve,
    harnack_indicators,
    indicator_monotonicity,
    joint_tail,
    median_sup,
    positivity_scan,
    run_ensemble,
    validate_windows,
    wilson_interval,
)
from .solver import (
    CoefficientModel,
    ModelParams,
    SolverConfig,
    TestFunction,
    build_model,
    compile_expression,
    draw_increments,
    integrate_batch,
    make_initial_condition,
    path_seed,
    periodic_heat_kernel,
    qv_check,
    solve_path,
    time_axis,
    validate_model,
    weak_residual,
)
