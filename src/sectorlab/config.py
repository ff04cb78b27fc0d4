"""Numerical tolerances and seeding conventions used across the package.

Every rank/gap/state decision in the package goes through one of these
thresholds; functions accept explicit overrides and fall back to the
module default.  Randomness is always drawn from a seeded generator so
that reports are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    #: rank / span-membership decisions (the SVD rank cut of a span, span residuals)
    rank: float = 1e-9
    #: eigenvalue grouping gap when extracting spectral projections
    gap: float = 1e-8
    #: state validity (hermiticity, positivity, normalization)
    state: float = 1e-10
    #: acceptance threshold for selection criteria (CLI-overridable)
    criterion: float = 1e-8


DEFAULT_TOL = Tolerances()

DEFAULT_SEED = 0

#: dense-matrix feasibility cap on the ambient dimension
DIMENSION_CAP = 256


def with_overrides(tol: Tolerances | None = None, **kwargs: float) -> Tolerances:
    """Return ``tol`` (or the default) with any keyword overrides applied."""
    base = tol if tol is not None else DEFAULT_TOL
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    return replace(base, **kwargs) if kwargs else base


def rng_from_seed(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Normalize a seed (or an existing generator) to a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)
