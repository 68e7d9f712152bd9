"""Exact spectra for the oscillator with algebraically decaying mass.

Layers: `exactalg` (rational polynomial arithmetic and root isolation),
`aim_core` (the iterative quantization engine), `fh_oscillator` (model,
closed-form spectrum, eigenfunctions), `sl_oracle` (finite-difference
oracle), `cli` (command-line front end) and `verify` (its cross-checks).
"""
from .aim_core import (
    AimSpectrumReport,
    AimState,
    DeltaPoly,
    aim_eigenvalues,
    aim_iterate,
    aim_seed,
    eigenfunction_via_alpha,
    quantization_delta,
)
from .exactalg import (
    BiPoly,
    RootInterval,
    isolate_real_roots,
    poly_diff_tau,
    poly_eval,
    refine_root,
)
from .fh_oscillator import (
    EigenFunction,
    ModelParams,
    SpectrumEntry,
    aim_inputs,
    bound_state_info,
    eigen_polynomial,
    normalization_constant,
    residual_check,
    spectrum_closed_dimensionless,
    wavefunction_eval,
)
from .sl_oracle import (
    Grid,
    TridiagOp,
    discretize,
    eigen_count_below,
    lowest_eigenvalues,
)

__all__ = [
    "AimSpectrumReport", "AimState", "BiPoly", "DeltaPoly", "EigenFunction",
    "Grid", "ModelParams", "RootInterval", "SpectrumEntry", "TridiagOp",
    "aim_eigenvalues", "aim_inputs", "aim_iterate", "aim_seed",
    "bound_state_info", "discretize", "eigen_count_below", "eigen_polynomial",
    "eigenfunction_via_alpha", "isolate_real_roots", "lowest_eigenvalues",
    "normalization_constant", "poly_diff_tau", "poly_eval",
    "quantization_delta", "refine_root", "residual_check",
    "spectrum_closed_dimensionless", "wavefunction_eval",
]
