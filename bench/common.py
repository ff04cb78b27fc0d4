"""Shared pieces of the benchmark: operations, rounds and seeding.

A workload is a list of *slots*.  One round runs every slot once, in the
listed order, which interleaves the operation kinds; a run repeats whole
rounds, so every run attempts the same operations in the same proportions.
Each slot draws its inputs from a generator seeded with (run seed, slot,
round), so the same seed gives the same inputs, and every operation gets
sectorlab objects of its own: a result cached on an input object is never
reused by a later operation.  A slot that picks among a few inputs of
unequal cost (a flip site, a region) cycles through them with a seeded
offset instead, so every run of R rounds sees the same costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


def cycle(options, k: int):
    """The k-th option, cyclically (see the module docstring)."""
    return options[k % len(options)]


class CheckError(AssertionError):
    """An output disagrees with the independent oracle."""


class KnownFault(Exception):
    """An output shows exactly the failure of the known fault its Op names."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass
class Op:
    """One timed library call and the check of its output.

    ``call`` does the work that is timed; ``check`` receives its result and
    raises :class:`CheckError` when the output is wrong.  ``fault`` names a
    known fault (``"F1"``, ``"F2"``) that makes this operation fail on the
    current code.  It counts as failed without making the run incorrect
    only when it fails in that fault's way: with an exception of one of the
    ``fault_errors`` types, which its check signals by raising
    :class:`KnownFault`.  Any other failure makes the run incorrect.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    fault: str | None = None
    fault_errors: tuple[type[BaseException], ...] = (KnownFault,)

    def shows_fault(self, err: BaseException) -> bool:
        return self.fault is not None and isinstance(err, self.fault_errors)


def slot_rng(seed: int, slot: int, rnd: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(slot), int(rnd)])


def build_round(slots, seed: int, rnd: int) -> list[Op]:
    """Instantiate every slot for round ``rnd``.

    ``slots`` is a list of factories ``f(rng, k) -> Op``, where ``k`` is the
    round index plus a seeded offset; a factory that ignores both yields
    equal inputs, as new objects, in every round.
    """
    offsets = np.random.default_rng([int(seed), 1 << 20]).integers(0, 1 << 16, len(slots))
    return [make(slot_rng(seed, i, rnd), int(offsets[i]) + rnd) for i, make in enumerate(slots)]


def rounds_for(seconds: float, nominal_round_s: float, slots: int,
               min_ops: int = 40) -> int:
    """Number of rounds in a run of about ``seconds``.

    ``nominal_round_s`` is a workload's measured round time, operations and
    checks, at the seed code on the reference machine (README.md).  The count
    depends only on the arguments, never on the measured speed, so two runs
    with the same ``--seconds`` attempt exactly the same operations.
    """
    by_time = int(round(seconds / nominal_round_s))
    by_count = -(-min_ops // slots)
    return max(by_time, by_count, 2)
