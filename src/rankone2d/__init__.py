"""rankone2d: rank-one convexity checks for planar split energies.

Decides Legendre-Hadamard ellipticity of isotropic planar energies of the
form W(F) = h(lambda1/lambda2) + f(lambda1*lambda2) through several
equivalent criteria, cross-validated by a brute-force matrix oracle, with
stress-stretch invertibility analysis and ellipticity-domain scans.

``import rankone2d`` loads numpy and none of the submodules.  Each name in
``__all__`` is imported from its submodule on first access (PEP 562) and
then kept in the package namespace, so ``from rankone2d import ks_check``
loads ``criteria`` and its imports, and nothing else.
"""

import importlib as _importlib
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
else:
    import numpy  # noqa: F401  -- every submodule needs it, so load it here too

__version__ = "0.1.0"

_EXPORTS = {
    "criteria": ("ConditionReport", "MainCheckResult", "RankOneVerdict",
                 "StructureClassification", "classify_structure", "ks_check",
                 "main_check", "necessary_battery", "voliso_check"),
    "energy": ("GridSpec", "SingularPair", "SplitEnergy", "as_general", "catalog",
               "eval_W", "make_split"),
    "errors": ("RankOneError",),
    "expr": ("Expr", "Jet2", "eval_jet2", "parse", "pretty"),
    "oracle": ("AcousticTensor", "BruteForceResult", "acoustic_tensor",
               "analytic_second_derivative", "brute_force_check", "eval_W_matrix",
               "fd_second_derivative", "svd2"),
    "scalar_inf": ("InfimumResult", "convexity_verdict", "infimum_weighted_second"),
    "scan": ("EllipticityMap", "emit_csv", "emit_svg", "scan_domain"),
    "stress": ("InfinitesimalModuli", "InvertibilityReport", "StressState",
               "infinitesimal_moduli", "invertibility_verdict",
               "linear_rank_one_check", "principal_cauchy", "stress_jacobian_det",
               "w_lin"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
