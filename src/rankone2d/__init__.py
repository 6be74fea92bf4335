"""rankone2d: rank-one convexity checks for planar split energies.

Decides Legendre-Hadamard ellipticity of isotropic planar energies of the
form W(F) = h(lambda1/lambda2) + f(lambda1*lambda2) through several
equivalent criteria, cross-validated by a brute-force matrix oracle, with
stress-stretch invertibility analysis and ellipticity-domain scans.
"""

import os as _os

# The package's only BLAS/LAPACK calls are det, eigvalsh and norm of 2x2
# matrices, and dot products and norms of 2-vectors and of the 64-sample
# fits in classify_structure.  OpenBLAS threads none of them, yet its worker
# pool costs about 0.1 s of CPU per process at start-up.  So if numpy is
# first imported here, it loads OpenBLAS single-threaded unless the caller
# chose a thread count, and the environment is left as the caller set it.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                     "OPENBLAS_DEFAULT_NUM_THREADS")
if not any(v in _os.environ for v in _BLAS_THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .criteria import (
    ConditionReport,
    GridSpec,
    MainCheckResult,
    RankOneVerdict,
    StructureClassification,
    classify_structure,
    ks_check,
    main_check,
    necessary_battery,
    voliso_check,
)
from .energy import (
    SingularPair,
    SplitCoordinates,
    SplitEnergy,
    as_general,
    catalog,
    eval_W,
    eval_W_matrix,
    make_split,
)
from .errors import RankOneError
from .expr import Expr, Jet2, eval_jet2, parse, pretty
from .kernels import BACKEND, available_backends
from .oracle import (
    AcousticTensor,
    BruteForceResult,
    acoustic_tensor,
    analytic_second_derivative,
    brute_force_check,
    fd_second_derivative,
    svd2,
)
from .scalar_inf import InfimumResult, convexity_verdict, infimum_weighted_second
from .scan import EllipticityMap, emit_csv, emit_svg, scan_domain
from .stress import (
    InfinitesimalModuli,
    InvertibilityReport,
    StressState,
    infinitesimal_moduli,
    invertibility_verdict,
    linear_rank_one_check,
    principal_cauchy,
    stress_jacobian_det,
    w_lin,
)

__version__ = "0.1.0"

__all__ = [
    "AcousticTensor",
    "BACKEND",
    "BruteForceResult",
    "ConditionReport",
    "EllipticityMap",
    "Expr",
    "GridSpec",
    "InfimumResult",
    "InfinitesimalModuli",
    "InvertibilityReport",
    "Jet2",
    "MainCheckResult",
    "RankOneError",
    "RankOneVerdict",
    "SingularPair",
    "SplitCoordinates",
    "SplitEnergy",
    "StressState",
    "StructureClassification",
    "acoustic_tensor",
    "analytic_second_derivative",
    "as_general",
    "available_backends",
    "brute_force_check",
    "catalog",
    "classify_structure",
    "convexity_verdict",
    "emit_csv",
    "emit_svg",
    "eval_W",
    "eval_W_matrix",
    "eval_jet2",
    "fd_second_derivative",
    "infimum_weighted_second",
    "infinitesimal_moduli",
    "invertibility_verdict",
    "ks_check",
    "linear_rank_one_check",
    "main_check",
    "make_split",
    "necessary_battery",
    "parse",
    "pretty",
    "principal_cauchy",
    "scan_domain",
    "stress_jacobian_det",
    "svd2",
    "voliso_check",
    "w_lin",
]
