"""Numerical tolerances and seeding conventions used across the package.

The only threshold a caller may choose is a selection criterion's
acceptance, a ``tol`` argument (``--tol`` on the command line) that
defaults to ``CRITERION_TOL``.  Every rank, null and eigenvalue-grouping
cut is fixed and lives in :mod:`sectorlab._linalg`; states are validated
at ``STATE_TOL``.  Randomness is always drawn from a seeded generator so
that reports are reproducible byte for byte.
"""

from __future__ import annotations

import numpy as np

#: default acceptance threshold of the selection criteria
CRITERION_TOL = 1e-8

#: state validity (Hermiticity, positivity, unit trace)
STATE_TOL = 1e-10

DEFAULT_SEED = 0

#: seeds a randomised spectral split tries before it gives up
SEED_RETRIES = 5

#: dense-matrix feasibility cap on the ambient dimension
DIMENSION_CAP = 256


def rng_from_seed(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Normalize a seed (or an existing generator) to a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)
