"""Divisibility analysis for families of quantum dynamical maps.

The package covers four layers: dense operator/channel algebra
(`operators`, `channels`), trace-norm contractivity scans and kernel
inclusion tests (`divisibility`), structured families with closed-form
certificates (`idempotent`, `schur`, `gaussian`), and ready-made example
families plus a CLI (`presets`, `cli`). The package holds what those
layers use; test inputs and the dense reference routes that tests compare
against (the transpose map, symplectic samplers) live with the tests.
"""

from ._errors import (
    ConfigError,
    DegenerateDenominator,
    DimensionMismatch,
    DivscanError,
    DomainExceeded,
    HypothesisViolated,
    InvalidChannel,
    InvalidFamily,
    InvalidState,
    NonHermitianInput,
    OutsideValidityWindow,
    SingularChannel,
    SingularX,
)
from .channels import (
    Channel,
    ChoiMatrix,
    choi,
    choi_from_super,
    compose,
    extend_channel,
    inverse,
    kraus_channel,
    kraus_to_super,
    positivity_by_contractivity,
    super_channel,
)
from .divisibility import (
    DivisibilityReport,
    DynamicalFamily,
    cp_divisibility_scan,
    default_witnesses,
    intermediate_map,
    kernel_inclusion_divisible,
    kernel_inclusion_report,
    make_dynamical_family,
    p_divisibility_scan,
)
from .gaussian import (
    GaussianFamily,
    GaussianPair,
    det_criterion_scan,
    dilation_report,
    make_gaussian_family,
    make_pair,
)
from .idempotent import (
    IdempotentParams,
    choi_spectrum_closed_form,
    cp_condition,
    divisor_coeffs,
    l_positive_condition,
    phi,
    solve_left_divisor,
    two_positive_necessary,
)
from .operators import (
    random_hermitian,
    require_hermitian,
    trace_norm,
    unvec,
    vec,
)
from .schur import make_schur_family, schur_channel, toeplitz_a, toeplitz_spectrum

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "ChoiMatrix",
    "ConfigError",
    "DegenerateDenominator",
    "DimensionMismatch",
    "DivisibilityReport",
    "DivscanError",
    "DomainExceeded",
    "DynamicalFamily",
    "GaussianFamily",
    "GaussianPair",
    "HypothesisViolated",
    "IdempotentParams",
    "InvalidChannel",
    "InvalidFamily",
    "InvalidState",
    "NonHermitianInput",
    "OutsideValidityWindow",
    "SingularChannel",
    "SingularX",
    "choi",
    "choi_from_super",
    "choi_spectrum_closed_form",
    "compose",
    "cp_condition",
    "cp_divisibility_scan",
    "default_witnesses",
    "det_criterion_scan",
    "dilation_report",
    "divisor_coeffs",
    "extend_channel",
    "intermediate_map",
    "inverse",
    "kernel_inclusion_divisible",
    "kernel_inclusion_report",
    "kraus_channel",
    "kraus_to_super",
    "l_positive_condition",
    "make_dynamical_family",
    "make_gaussian_family",
    "make_pair",
    "make_schur_family",
    "p_divisibility_scan",
    "phi",
    "positivity_by_contractivity",
    "random_hermitian",
    "require_hermitian",
    "schur_channel",
    "solve_left_divisor",
    "super_channel",
    "toeplitz_a",
    "toeplitz_spectrum",
    "trace_norm",
    "two_positive_necessary",
    "unvec",
    "vec",
]
