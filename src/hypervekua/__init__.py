"""Hyperbolic pseudoanalytic function theory for the Zakharov-Shabat system.

Split-complex arithmetic, generating pairs and their derivative/integral
calculus, formal powers, and the explicit period-2 machinery for the
coupling-mode equations, plus a CLI for table generation and verification.
"""

from .errors import (CenterSingular, ConfigError, DegeneratePair,
                     DepthExceeded, DomainMismatch, HyperVekuaError,
                     NoConvergence, NotHyperbolicAnalytic, OutOfDomain,
                     PotentialParseError, ResidualTooLarge, StepTooLarge,
                     ZeroDivisor)
from .fields import (GridDomain, HyperField, d_z, d_zbar,
                     hyperbolic_derivative, identity_field, load_field_csv,
                     load_field_json, monomial_field, save_field_csv,
                     save_field_json)
from .formal_powers import (FormalPowerSpec, formal_power,
                            formal_power_batch, formal_power_field,
                            formal_power_grid, l_path_power, z0_coefficients)
from .hypernum import (HyperbolicNumber, IdempotentCoords, conj,
                       from_idempotent, hyper, inverse, mul, to_idempotent)
from .pseudoanalytic import (CharCoefficients, GeneratingPair,
                             GeneratingSequence, adjoint,
                             characteristic_coefficients, check_generating,
                             classical_pair, decompose, fg_derivative,
                             fg_integral, higher_derivative, is_successor,
                             vekua_residual)
from .quadrature import Polyline, path_integral
from .zakharov_shabat import (ModeField, Potential, RecursiveIntegrals,
                              SpectralState, W_to_modes, antiderivative_S,
                              closed_form_grid, closed_form_power, modes_to_W,
                              parse_potential, recombine_mode_residuals,
                              recursive_integrals, spectral_solve,
                              vekua_zs_residual, zs_pair, zs_residual,
                              zs_sequence)

__version__ = "0.1.0"

__all__ = [
    "CenterSingular", "CharCoefficients", "ConfigError", "DegeneratePair",
    "DepthExceeded", "DomainMismatch", "FormalPowerSpec", "GeneratingPair",
    "GeneratingSequence", "GridDomain", "HyperField", "HyperVekuaError",
    "HyperbolicNumber", "IdempotentCoords", "ModeField", "NoConvergence",
    "NotHyperbolicAnalytic", "OutOfDomain", "Polyline", "Potential",
    "PotentialParseError", "RecursiveIntegrals", "ResidualTooLarge",
    "SpectralState", "StepTooLarge", "W_to_modes", "ZeroDivisor", "adjoint",
    "antiderivative_S", "characteristic_coefficients", "check_generating",
    "classical_pair", "closed_form_grid", "closed_form_power", "conj", "d_z",
    "d_zbar", "decompose", "fg_derivative", "fg_integral", "formal_power",
    "formal_power_batch", "formal_power_field", "formal_power_grid",
    "from_idempotent",
    "higher_derivative", "hyper", "hyperbolic_derivative", "identity_field",
    "inverse", "is_successor", "l_path_power", "load_field_csv",
    "load_field_json", "modes_to_W", "monomial_field", "mul",
    "parse_potential", "path_integral", "recombine_mode_residuals",
    "recursive_integrals", "save_field_csv", "save_field_json",
    "spectral_solve", "to_idempotent", "vekua_residual", "vekua_zs_residual",
    "z0_coefficients", "zs_pair", "zs_residual", "zs_sequence",
]
