"""Symmetry-breaking bifurcation toolkit for the capillary-gravity Whitham equation.

The package locates double bifurcation points of the dispersion symbol,
evaluates the sign function phi(T; k1, k2) whose zeros mark
symmetry-breaking tension values, expands phi exactly in the Fourier
multipliers, scans wavenumber pairs for admissibility, and constructs
small-amplitude asymmetric periodic travelling waves by a truncated
Lyapunov-Schmidt reduction with Newton refinement.
"""

from .coefficients import (
    LIMIT_HIGH_T,
    LIMIT_LOW_T,
    MultiplierContext,
    expand_symbolic,
    expansion_size,
    limit_ratio,
    multiplier,
    numeric_session,
    phi_target_indices,
)
from .errors import (
    CapWhithamError,
    ConvergenceError,
    DomainError,
    NearResonanceError,
    SizeGuardError,
    TruncationError,
)
from .symbol import (
    WaveNumberPair,
    double_bifurcation,
    eval_symbol,
    eval_symbol_deriv,
    turning_point,
)
from .symmetry_breaking import (
    STATUS_ADMITS,
    STATUS_EXCLUDED_DIFFERENCE,
    STATUS_EXCLUDED_DIVISOR,
    STATUS_PASSES,
    STATUS_UNDECIDED,
    exclusion_check,
    pair_scan,
    phi_curve,
    phi_eval,
    phi_limits,
    phi_root,
)
from .waves import (
    ModalParameters,
    SolverSettings,
    WaveProfile,
    asymmetry_test,
    inner_products,
    linear_dependence_residual,
    residual_j_inf,
    solve_w,
    solve_wave,
    symmetric_solve,
    synthesize_v,
    variational_identity,
)

__version__ = "0.1.0"

__all__ = [
    "CapWhithamError",
    "ConvergenceError",
    "DomainError",
    "LIMIT_HIGH_T",
    "LIMIT_LOW_T",
    "ModalParameters",
    "MultiplierContext",
    "NearResonanceError",
    "STATUS_ADMITS",
    "STATUS_EXCLUDED_DIFFERENCE",
    "STATUS_EXCLUDED_DIVISOR",
    "STATUS_PASSES",
    "STATUS_UNDECIDED",
    "SizeGuardError",
    "SolverSettings",
    "TruncationError",
    "WaveNumberPair",
    "WaveProfile",
    "asymmetry_test",
    "double_bifurcation",
    "eval_symbol",
    "eval_symbol_deriv",
    "exclusion_check",
    "expand_symbolic",
    "expansion_size",
    "inner_products",
    "limit_ratio",
    "linear_dependence_residual",
    "multiplier",
    "numeric_session",
    "pair_scan",
    "phi_curve",
    "phi_eval",
    "phi_limits",
    "phi_root",
    "phi_target_indices",
    "residual_j_inf",
    "solve_w",
    "solve_wave",
    "symmetric_solve",
    "synthesize_v",
    "turning_point",
    "variational_identity",
]
