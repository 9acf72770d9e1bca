"""Curvature apparatus for Hermitian metrics: jets, connections, curvature
tensors, structure classification, operator identities, positivity reports,
and a curvature flow on discretized tori.

HERMITIA_THREADS=k caps the BLAS/OpenMP thread pools at k threads.  The
pools are sized when numpy loads, so the cap is set here, before any module
of the package imports numpy; thread variables already set take precedence.
"""

import os as _os

if _os.environ.get("HERMITIA_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["HERMITIA_THREADS"])

__version__ = "0.1.0"
