"""Ky Fan p-k norm toolkit.

Norms and dual norms, subdifferential descriptors, Birkhoff-James
orthogonality decisions, best approximation from a matrix subspace, strict
spectral approximants, and a p-sweep experiment harness.
"""

from .approx import (
    ApproximationResult,
    PkCheckReport,
    StrictApproxResult,
    UniquenessProbe,
    best_approx,
    certify_best,
    lex_compare,
    pk_singular_value_check,
    strict_spectral,
    unique_1d_probe,
)
from .core import MatrixSubspace, SpectrumBlocks, spectrum_blocks
from .errors import InvalidInputError, IoError, ParseError, UnsupportedError
from .lab import (
    ConvergenceReport,
    CounterexampleReport,
    SweepRecord,
    convergence_checks,
    counterexample_instance,
    counterexample_run,
    default_p_grid,
    emit_csv,
    p_sweep,
)
from .norms import NormSpec, dual_norm, norm
from .ortho import (
    BjResult,
    DensityCertificate,
    EpsBjResult,
    InnerRange,
    ParallelResult,
    check_bj,
    check_eps_bj,
    check_parallel,
    inner_range,
    subspace_certificate,
    verify_certificate,
)
from .subdiff import (
    SubdiffDescriptor,
    canonical_extreme,
    descriptor,
    dir_derivative,
    membership,
    sample_extreme,
)

__all__ = [
    "ApproximationResult",
    "BjResult",
    "ConvergenceReport",
    "CounterexampleReport",
    "DensityCertificate",
    "EpsBjResult",
    "InnerRange",
    "InvalidInputError",
    "IoError",
    "MatrixSubspace",
    "NormSpec",
    "ParallelResult",
    "ParseError",
    "PkCheckReport",
    "SpectrumBlocks",
    "StrictApproxResult",
    "SubdiffDescriptor",
    "SweepRecord",
    "UniquenessProbe",
    "UnsupportedError",
    "best_approx",
    "canonical_extreme",
    "certify_best",
    "check_bj",
    "check_eps_bj",
    "check_parallel",
    "convergence_checks",
    "counterexample_instance",
    "counterexample_run",
    "default_p_grid",
    "descriptor",
    "dir_derivative",
    "dual_norm",
    "emit_csv",
    "inner_range",
    "lex_compare",
    "membership",
    "norm",
    "p_sweep",
    "pk_singular_value_check",
    "sample_extreme",
    "spectrum_blocks",
    "strict_spectral",
    "subspace_certificate",
    "unique_1d_probe",
    "verify_certificate",
]
