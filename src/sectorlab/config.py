"""Numerical tolerances and seeding conventions used across the package.

The only threshold a caller may choose is a selection criterion's
acceptance, a ``tol`` argument (``--tol`` on the command line) that
defaults to ``CRITERION_TOL``.  Every other cut is fixed: those that
validate input (states, unitaries, Hamiltonians, probability weights) are
named here, and every rank, null, eigenvalue-grouping and verdict cut lives
in :mod:`sectorlab._linalg`, which also holds the comparisons that apply
them.  Randomness is always drawn from a seeded generator so that reports
are reproducible byte for byte.
"""

from __future__ import annotations

import numpy as np

#: default acceptance threshold of the selection criteria
CRITERION_TOL = 1e-8

#: state validity, absolute: Hermiticity to STATE_TOL * max(1, ||rho||),
#: eigenvalues >= -STATE_TOL, |trace - 1| <= STATE_TOL; a vacuum vector's
#: norm is within STATE_TOL of 1
STATE_TOL = 1e-10

#: unitarity and group relations: ||X - Y||_F <= UNITARY_TOL * d for d x d
#: matrices (:func:`sectorlab._linalg.relation_holds`)
UNITARY_TOL = 1e-10

#: a Hamiltonian H and its number operator N are each Hermitian to
#: OPERATOR_TOL * max(1, its norm) and commute to OPERATOR_TOL * max(1, ||H||)
#: (:func:`sectorlab._linalg.near`), absolute below unit scale; the
#: off-sector blocks of a Hamiltonian given to ``sector_energies`` are zero to
#: OPERATOR_TOL * max(1, ||H||)
OPERATOR_TOL = 1e-10

#: a probability weight's entries are >= -WEIGHT_SLACK and its sum is within
#: WEIGHT_SUM_TOL of 1, both absolute
WEIGHT_SLACK = 1e-12
WEIGHT_SUM_TOL = 1e-10

#: a thermal grid point has beta and |mu| at most GRID_BOUND, so that the
#: moments of a weight on the grid, sums of squared differences of the
#: coordinates, stay finite
GRID_BOUND = 1e150

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
