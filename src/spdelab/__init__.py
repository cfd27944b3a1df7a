"""Numerical laboratory for a semilinear stochastic diffusion equation.

The package simulates du = div(A grad u) dt + f dt + g_i dW^i on a
periodic box and measures the quantities that the regularity theory of
such equations is built from: mixed space-time norms, truncation
energies, parabolic cube hierarchies, oscillation of log u, and the
tail probability of the sup/inf comparison failing.

The package re-exports nothing: each name is imported from its module,
as in `from spdelab.solver import integrate_batch`.
"""

__version__ = "0.1.0"
