"""Killing-orthogonal projections in lattice coordinates, and their compounds.

The homology builds its arrows in fundamental-coweight coordinates, in closed
form (`uctop.homology`). This module keeps the direct route: the orthogonal
projection between Levi-center cocharacter spaces, written in the cached
lattice bases of `center_of_levi`, and the exterior powers of any rational
matrix by Laplace expansion. The tests compare the coweight arrows and their
closed-form minors against these. No command reads them, so the package
loads this module only on first use.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Iterable, Iterator

from .matrices import IntMatrix
from .levi import _center_of_levi_cached, _normalize_levi, invariant_form
from .rational import RatMatrix, _subset_index
from .rootdata import RootDatum, memoized

__all__ = ["killing_projection", "compound", "exterior_powers"]


@memoized
def _dual_gram(d: RootDatum) -> IntMatrix:
    """Gram matrix rewritten in the basis dual to the char-lattice rows.

    Scaled by a positive integer to clear its denominators; orthogonal
    projections do not see the scale.
    """
    lat_t = d.char_lattice.transpose()
    y, _, _ = lat_t.solve(invariant_form(d))  # L^-T G
    m, _, _ = lat_t.solve(y.transpose())  # L^-T G L^-1, as G is symmetric
    return m


@memoized
def _projector(d: RootDatum, sp: tuple[int, ...]) -> tuple[IntMatrix, int]:
    """Orthogonal projection onto the cocharacter space of Z(L_{S'}).

    Returns (N, den) with N / den = (B'^T G B')^(-1) B'^T G, where B' is the
    cached cocharacter basis of S' and G the dual Gram matrix: the map from
    cocharacter coordinates to coordinates in B'. It is one integer solve,
    and every arrow into S' is this one matrix times an integer basis.
    """
    bp = _center_of_levi_cached(d, sp).cochar_basis
    bp_t_g = bp.transpose().mul(_dual_gram(d))
    num, den, _ = bp_t_g.mul(bp).solve(bp_t_g)
    return num, den


def killing_projection(
    d: RootDatum, levi: Iterable[int], levi_prime: Iterable[int]
) -> RatMatrix:
    """Matrix of the orthogonal projection between Levi-center cocharacter spaces.

    For S contained in S', the cocharacter space of Z(L_{S'}) sits inside that
    of Z(L_S); this returns the orthogonal projection of the larger space onto
    the smaller one (with respect to the invariant form), written in the two
    cached cocharacter bases. Shape: (n - |S'|) x (n - |S|).
    """
    s = _normalize_levi(d, levi)
    sp = _normalize_levi(d, levi_prime)
    if not set(s) <= set(sp):
        raise ValueError(f"Levi set {s} is not contained in {sp}")
    return _killing_projection(d, s, sp)


def _killing_projection(d: RootDatum, s: tuple[int, ...], sp: tuple[int, ...]) -> RatMatrix:
    """`killing_projection` on normalized tuples with S inside S'."""
    num, den = _projector(d, sp)
    return RatMatrix.from_int(num.mul(_center_of_levi_cached(d, s).cochar_basis), den)


def compound(m: RatMatrix, k: int) -> RatMatrix:
    """k-th compound matrix: the exterior power on lexicographic subset bases.

    Entry at (row-subset I, column-subset J) is the minor det(m[I, J]);
    subsets of size k are ordered lexicographically. k = 0 gives the 1x1
    identity; k exceeding a dimension gives an empty matrix.
    """
    if k < 0:
        raise ValueError("exterior degree must be nonnegative")
    den, minors = next(itertools.islice(exterior_powers(m), k, None))
    row_index = _subset_index(m.rows, k)
    col_index = _subset_index(m.cols, k)
    num: list[dict[int, int]] = [{} for _ in row_index]
    for (ri, ci), v in minors.items():
        num[row_index[ri]][col_index[ci]] = v
    return RatMatrix(len(num), len(col_index), tuple(num), (den,) * len(num))


Minors = dict[tuple[tuple[int, ...], tuple[int, ...]], int]


def exterior_powers(m: RatMatrix) -> Iterator[tuple[int, Minors]]:
    """All minors of m in integers, one size k = 0, 1, 2, ... per item.

    With L the lcm of the row denominators of m, item k is (L^k, minors), where
    `minors` maps each pair (I, J) of sorted row and column index tuples of
    size k whose minor is nonzero to L^k * det(m[I, J]), an integer. Each size
    is built from the one before by Laplace expansion along the first row of
    I, so one pass per size computes every minor of that size. Past the
    smaller dimension the minors are empty; the iterator never ends.
    """
    lcm = math.lcm(*m.den)
    a = [{j: v * (lcm // d) for j, v in row.items()} for row, d in zip(m.num, m.den)]
    den = 1
    level: Minors = {((), ()): 1}
    while True:
        yield den, level
        nxt: Minors = {}
        for (ri, ci), v in level.items():
            for i in range(ri[0] if ri else m.rows):
                for j, e in a[i].items():
                    pos = bisect.bisect_left(ci, j)
                    if pos < len(ci) and ci[pos] == j:
                        continue
                    key = ((i,) + ri, ci[:pos] + (j,) + ci[pos:])
                    nxt[key] = nxt.get(key, 0) + (-e * v if pos % 2 else e * v)
        level = {key: v for key, v in nxt.items() if v}
        den *= lcm
