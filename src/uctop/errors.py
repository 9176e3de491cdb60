"""Exception types shared across the library."""

from __future__ import annotations

__all__ = [
    "UctopError",
    "GroupSpecError",
    "NontrivialPi0",
    "FunctorialityViolation",
    "NonPolynomialResult",
    "NegativeCoefficient",
]


def format_levi(levi) -> str:
    """A Levi set as it appears in messages, e.g. "{1,3}"."""
    return "{" + ",".join(str(i) for i in sorted(levi)) + "}"


class UctopError(Exception):
    """Base class for all library errors."""


class GroupSpecError(UctopError):
    """Malformed group spec string; `position` locates the offending token."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"position {position}: {message}"
        super().__init__(message)
        self.position = position


class NontrivialPi0(UctopError):
    """A proper Levi center has a nontrivial component group.

    The homology assembly implemented here requires pi0(Z(L_S)) = 1 for every
    proper subset S of the simple roots; inputs violating that are refused
    rather than computed incorrectly. `levi` names a witness subset and
    `factors` its invariant factors.
    """

    def __init__(self, levi: tuple[int, ...], factors: tuple[int, ...]):
        self.levi = tuple(levi)
        self.factors = tuple(factors)
        torsion = " x ".join(f"Z/{f}" for f in self.factors)
        super().__init__(
            f"component group of the Levi center at S = {format_levi(self.levi)} is "
            f"nontrivial ({torsion}); this case is refused"
        )


class FunctorialityViolation(UctopError):
    """The projection diagram failed an exact composition identity."""


class NonPolynomialResult(UctopError):
    """The purity substitution produced a non-polynomial expression."""


class NegativeCoefficient(UctopError):
    """The purity substitution produced a negative Betti coefficient."""
