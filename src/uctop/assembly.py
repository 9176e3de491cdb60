"""Handle attachment: homology of the universal centralizer itself.

The total space is recovered from its boundary manifold by gluing one real
2n-cell per central element. The attaching boundary map from the cells to
H_(2n-1)(boundary) = Q has rank exactly one: each cell boundary hits a
generic cotangent-fiber cocycle in |W| / |Z| points (transversally, all with
the same sign), and the center permutes the cells transitively, so all cell
boundaries carry the same nonzero class. That kills the top sphere class and
leaves |Z| - 1 independent cycles in degree 2n.
"""

from __future__ import annotations

from ._value import Frozen
from .counting import poincare_from_purity
from .errors import UctopError
from .boundary import BettiTable, boundary_homology
from .rootdata import RootDatum, center_order, weyl_order

__all__ = [
    "AssemblyReport",
    "intersection_number",
    "universal_centralizer_homology",
]


class AssemblyReport(Frozen):
    """Outcome of the handle assembly.

    `betti` grades the rational homology of the universal centralizer,
    `cells_attached` counts the glued 2n-cells (the center order),
    `boundary_rank` is the rank of the attaching map into H_(2n-1) of the
    boundary, `intersection_number` is the transverse count |W| / |Z|
    certifying that rank, and `purity_match` records agreement with the
    purity-predicted Poincare polynomial.
    """

    __slots__ = _fields = (
        "betti", "cells_attached", "boundary_rank", "intersection_number", "purity_match"
    )


def intersection_number(d: RootDatum) -> int:
    """Transverse intersection count |W| / |Z| of a cell boundary with a
    generic fiber.

    It is the int |W| // |Z|, since |Z| = |X/Q| divides |P/Q| = det A and
    det A divides |W| factor by factor; a |Z| that does not divide |W|
    raises UctopError.
    """
    w, z = weyl_order(d.cartan_type), center_order(d)
    if w % z:
        raise UctopError(f"center order {z} does not divide the Weyl group order {w}")
    return w // z


def universal_centralizer_homology(d: RootDatum) -> AssemblyReport:
    """Assemble the rational Betti table of the universal centralizer.

    Subject to the same gate as `boundary_homology` (every proper Levi center
    connected). The boundary must come out as the odd sphere S^(2n-1), or
    UctopError is raised; one 2n-cell per central element is then attached
    along a rank-one boundary map.
    """
    return _attach_handles(d, boundary_homology(d))  # raises NontrivialPi0 when gated


def _attach_handles(d: RootDatum, boundary: BettiTable) -> AssemblyReport:
    """Glue the 2n-cells onto a boundary with Betti table `boundary`."""
    n = d.rank
    if boundary != BettiTable.sphere(2 * n - 1):
        raise UctopError(
            "boundary homology is not the expected odd sphere; "
            "assembly premises are violated"
        )
    z = center_order(d)
    number = intersection_number(d)
    if number <= 0:
        raise UctopError("intersection certificate must be positive")
    betti = [0] * (2 * n + 1)
    betti[0] = 1
    betti[2 * n] = z - 1  # cells minus the one killing the sphere class
    table = BettiTable(tuple(betti))
    predicted = poincare_from_purity(d)
    purity_match = tuple(predicted.coeffs) == table.betti
    return AssemblyReport(
        betti=table,
        cells_attached=z,
        boundary_rank=1,
        intersection_number=number,
        purity_match=purity_match,
    )
