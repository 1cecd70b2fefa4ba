"""Quadratic symmetry algebras of three superintegrable systems, with numerical oracles.

Subpackages cover the deformed-oscillator algebra engine, the concrete system
catalog, an exact operator verifier built on truncated Taylor jets, finite
difference spectral oracles, the R^8 -> R^5 x S^3 quadratic transformation,
and a CLI that emits JSON verification reports.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# The package's matrices are small (Fock matrices of p + 1 rows, fits of tens
# of rows, tridiagonal bisection), so none reaches OpenBLAS's threading
# thresholds; yet the OpenBLAS numpy loads starts a worker per extra core, and
# each worker busy-waits for about 0.12 s of CPU after load. OpenBLAS reads its
# thread count only while it loads, so numpy is loaded here on one thread,
# unless it is loaded already or the user has set a thread count of their own,
# and the environment is restored as it was.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in _sys.modules and not any(v in _os.environ for v in _THREAD_VARIABLES):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .algebra import (
    FockRealization,
    PhiFamily,
    QuadraticAlgebraConstants,
    RepresentationCandidate,
    StructureFunction,
    build_fock_realization,
    find_representations,
    oscillator_realization,
    structure_function_general,
    verify_casimir,
    verify_commutation,
)
from .catalog import (
    Kepler5DParams,
    Oscillator8DParams,
    SpectrumRecord,
    YCMParams,
    kepler5d_constants,
    kepler5d_m_parameters,
    kepler5d_spectrum,
    osc8d_constants,
    osc8d_m_parameters,
    osc8d_spectrum,
    ycm_parabolic_s_parameters,
    ycm_spectrum_duality,
    ycm_spectrum_parabolic,
)
from .hurwitz import (
    DualityMap,
    Point5Fiber,
    Point8,
    euler_identity_residual,
    hurwitz_forward,
)
from .odecheck import (
    EigenResult,
    ParabolicChannelSpec,
    RadialOscillatorSpec,
    radial_oscillator_eigensolve,
    solve_parabolic_pair,
)

__all__ = [
    "__version__",
    "QuadraticAlgebraConstants",
    "StructureFunction",
    "RepresentationCandidate",
    "FockRealization",
    "PhiFamily",
    "structure_function_general",
    "oscillator_realization",
    "find_representations",
    "build_fock_realization",
    "verify_commutation",
    "verify_casimir",
    "Kepler5DParams",
    "Oscillator8DParams",
    "YCMParams",
    "SpectrumRecord",
    "kepler5d_constants",
    "kepler5d_m_parameters",
    "kepler5d_spectrum",
    "osc8d_constants",
    "osc8d_m_parameters",
    "osc8d_spectrum",
    "ycm_parabolic_s_parameters",
    "ycm_spectrum_parabolic",
    "ycm_spectrum_duality",
    "Point8",
    "Point5Fiber",
    "DualityMap",
    "hurwitz_forward",
    "euler_identity_residual",
    "ParabolicChannelSpec",
    "RadialOscillatorSpec",
    "EigenResult",
    "solve_parabolic_pair",
    "radial_oscillator_eigensolve",
]
