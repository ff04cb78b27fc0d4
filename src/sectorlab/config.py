"""Numerical tolerances and seeding conventions used across the package.

``Tolerances`` carries the two thresholds a caller may choose: the
eigenvalue grouping gap and the criterion acceptance threshold.  Every
rank, null and eigenvalue-grouping cut besides the gap is fixed and lives
in :mod:`sectorlab._linalg`; states are validated at ``STATE_TOL``.
Randomness is always drawn from a seeded generator so that reports are
reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    #: eigenvalue grouping gap when extracting spectral projections
    gap: float = 1e-8
    #: acceptance threshold for selection criteria (CLI-overridable)
    criterion: float = 1e-8


DEFAULT_TOL = Tolerances()

#: state validity (Hermiticity, positivity, unit trace)
STATE_TOL = 1e-10

DEFAULT_SEED = 0

#: seeds a randomised spectral split tries before it gives up
SEED_RETRIES = 5

#: dense-matrix feasibility cap on the ambient dimension
DIMENSION_CAP = 256


def with_overrides(**kwargs: float | None) -> Tolerances:
    """The default tolerances with any non-None keyword overrides applied."""
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    return replace(DEFAULT_TOL, **kwargs) if kwargs else DEFAULT_TOL


def rng_from_seed(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Normalize a seed (or an existing generator) to a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)
