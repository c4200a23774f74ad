"""Divisibility analysis for families of quantum dynamical maps.

The package covers four layers: dense operator/channel algebra
(`operators`, `channels`), trace-norm contractivity scans and kernel
inclusion tests (`divisibility`), structured families with closed-form
certificates (`idempotent`, `schur`, `gaussian`), and ready-made example
families plus a CLI (`presets`, `cli`).

DIVSCAN_THREADS, when it holds a positive integer, sets OMP_NUM_THREADS and
OPENBLAS_NUM_THREADS (unless those are set already) here, before numpy is
imported, so the BLAS starts with that many threads. It has no effect when
numpy was imported before divscan. `_thread_count` is the one parser of the
variable; the CLI calls it too and rejects any other value.
"""

import os

from ._errors import (
    ConfigError,
    DegenerateDenominator,
    DimensionMismatch,
    DivscanError,
    DomainExceeded,
    HypothesisViolated,
    InvalidChannel,
    InvalidDilation,
    InvalidFamily,
    InvalidState,
    NonHermitianInput,
    NotSymplectic,
    OutsideValidityWindow,
    SingularChannel,
    SingularX,
)


def _thread_count() -> int | None:
    """DIVSCAN_THREADS as a positive integer, or None when it is unset;
    ConfigError for any other value."""
    text = os.environ.get("DIVSCAN_THREADS")
    try:
        threads = None if text is None else int(text)
    except ValueError:
        threads = 0
    if threads is not None and threads < 1:
        raise ConfigError(f"DIVSCAN_THREADS must be a positive integer, got {text!r}")
    return threads


def _export_thread_count() -> None:
    try:
        threads = _thread_count()
    except ConfigError:
        return
    if threads is not None:
        os.environ.setdefault("OMP_NUM_THREADS", str(threads))
        os.environ.setdefault("OPENBLAS_NUM_THREADS", str(threads))


_export_thread_count()

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
    transpose_channel,
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
    dilation_channel,
    dilation_report,
    is_symplectic,
    make_gaussian_family,
    make_pair,
)
from .idempotent import (
    IdempotentParams,
    choi_spectrum_closed_form,
    cp_condition,
    divisor_coeffs,
    idempotent_product,
    l_positive_condition,
    phi,
    positivity_sufficient,
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
    "InvalidDilation",
    "InvalidFamily",
    "InvalidState",
    "NonHermitianInput",
    "NotSymplectic",
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
    "dilation_channel",
    "dilation_report",
    "divisor_coeffs",
    "extend_channel",
    "idempotent_product",
    "intermediate_map",
    "inverse",
    "is_symplectic",
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
    "positivity_sufficient",
    "random_hermitian",
    "require_hermitian",
    "schur_channel",
    "solve_left_divisor",
    "super_channel",
    "toeplitz_a",
    "toeplitz_spectrum",
    "trace_norm",
    "transpose_channel",
    "two_positive_necessary",
    "unvec",
    "vec",
]
