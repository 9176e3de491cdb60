"""Cech homology of the boundary manifold of a universal centralizer.

The boundary manifold fibers over a simplex with vertex set the simple roots;
its homology is the homotopy colimit, over proper subsets S of the simple
roots, of the exterior algebras on the Levi-center cocharacter spaces, with
transition maps the Killing-orthogonal projections. That colimit is realized
here as the Cech complex of the face cover indexed by nonempty subsets A of
the simple roots (the stalk at A lives on the Levi set S = Pi - A):

    term_p  =  direct sum over |A| = p + 1 of  Lambda^w  V_(Pi - A),

one chain complex per exterior degree w, with the block of the differential
from A to A - {a} equal to (-1)^pos(a, A) times the w-th compound of the
projection arrow. Every stalk is a homology object, so the rows never
interact and the Betti number in total degree m is the sum over w + p = m of
the row homology dimensions.
"""

from __future__ import annotations

import math

from ._value import Frozen, Value, setfield
from .errors import FunctorialityViolation, NontrivialPi0, UctopError, format_levi
from .rational import RatMatrix, _pivot_rows, _subset_index, exterior_powers
from .rootdata import (
    RootDatum,
    _killing_projection,
    all_levi_subsets,
    center_of_levi,
    memoized,
    proper_pi0_witness,
)

__all__ = [
    "CenterDiagram",
    "CechComplex",
    "CechRow",
    "BettiTable",
    "build_center_diagram",
    "build_cech_complex",
    "boundary_homology",
    "total_euler",
]


class BettiTable(Frozen):
    """Graded dimensions of rational homology, trailing zeros trimmed."""

    __slots__ = _fields = ("betti",)

    def __init__(self, betti: tuple[int, ...]) -> None:
        bs = list(betti)
        while bs and bs[-1] == 0:
            bs.pop()
        if any(b < 0 for b in bs):
            raise ValueError("Betti numbers must be nonnegative")
        setfield(self, "betti", tuple(bs))

    @classmethod
    def sphere(cls, dim: int) -> BettiTable:
        """Betti table of the sphere S^dim."""
        if dim == 0:
            return cls((2,))
        return cls((1,) + (0,) * (dim - 1) + (1,))

    def euler(self) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.betti))

    def total(self) -> int:
        return sum(self.betti)


class CenterDiagram(Value):
    """Projection arrows between Levi-center cocharacter spaces, over S
    properly inside Pi ordered by inclusion.

    `arrows` holds exactly the covering arrows (S, S + {a}) with S + {a}
    proper, each the projection matrix in the two bases: one per block of
    the Cech differentials, which read nothing else here. `arrow(S, S')`
    returns the arrow of any nested pair of normalized tuples, (S, S)
    included, computing the others the first time it is asked for and
    keeping them apart from `arrows`. Arrow composition is exact:
    arrow(S', S'') . arrow(S, S') == arrow(S, S'').
    """

    _fields = ("datum", "arrows")
    __slots__ = _fields + ("_long",)

    def __init__(
        self, datum: RootDatum, arrows: dict[tuple[tuple[int, ...], tuple[int, ...]], RatMatrix]
    ) -> None:
        self.datum = datum
        self.arrows = arrows
        self._long = {}

    def arrow(self, s: tuple[int, ...], sp: tuple[int, ...]) -> RatMatrix:
        key = (s, sp)
        if key in self.arrows:
            return self.arrows[key]
        if key not in self._long:
            if not set(s) <= set(sp):
                raise ValueError(f"Levi set {s} is not contained in {sp}")
            self._long[key] = _killing_projection(self.datum, s, sp)
        return self._long[key]


def build_center_diagram(d: RootDatum) -> CenterDiagram:
    """Populate the covering arrows; verify functoriality on covering
    triangles.

    Each triangle S -> S + {a} -> S + {a, b} with a < b is checked against
    the long arrow S -> S + {a, b}. The other middle set S + {b} needs no
    check here: d.d = 0 at w = 1, which `build_cech_complex` verifies, says
    exactly that both paths around the square agree.
    """
    arrows = {(s, sp): _killing_projection(d, s, sp) for s, sp, _ in _covering_pairs(d.rank)}
    diagram = CenterDiagram(d, arrows)
    _check_chains(diagram, _covering_triangles(d.rank))
    return diagram


def _covering_pairs(n: int):
    """(S, S + {a}, a) for every proper S and a outside it with S + {a}
    proper, S by (size, lex), then a ascending."""
    for s in all_levi_subsets(n, proper=True):
        if len(s) + 1 < n:
            for a in range(1, n + 1):
                if a not in s:
                    yield s, tuple(sorted(s + (a,))), a


def _covering_triangles(n: int, ascending: bool = True):
    """Chains S -> S + {a} -> S + {a, b} of proper subsets with a < b, or
    with a > b (the other middle set) when not `ascending`."""
    for s, sa, a in _covering_pairs(n):
        if len(sa) + 1 < n:
            for b in range(a + 1, n + 1) if ascending else range(1, a):
                if b not in s:
                    yield s, sa, tuple(sorted(sa + (b,)))


def _check_chains(diagram: CenterDiagram, chains) -> None:
    """Raise FunctorialityViolation unless, on every chain s1 <= s2 <= s3,
    arrow(s2, s3) . arrow(s1, s2) == arrow(s1, s3)."""
    for s1, s2, s3 in chains:
        if diagram.arrow(s2, s3).mul(diagram.arrow(s1, s2)) != diagram.arrow(s1, s3):
            raise FunctorialityViolation(
                f"projection composite through {s2} disagrees with the "
                f"direct arrow {s1} -> {s3}"
            )


class CechRow(Value):
    """One exterior degree w of the Cech complex.

    `dims[p]` is the total dimension of term_p (a direct sum over the index
    sets A with |A| = p + 1), and `diffs[p]` (for p >= 1) is the sparse
    differential term_p -> term_(p-1).
    """

    __slots__ = _fields = ("w", "dims", "diffs")

    def __init__(self, w: int, dims: list[int], diffs: dict[int, RatMatrix]) -> None:
        self.w = w
        self.dims = dims
        self.diffs = diffs


class CechComplex(Value):
    """Rows of chain complexes indexed by exterior degree w = 0..n."""

    __slots__ = _fields = ("n", "rows")

    def __init__(self, n: int, rows: list[CechRow]) -> None:
        self.n = n
        self.rows = rows


def build_cech_complex(diagram: CenterDiagram) -> CechComplex:
    """Assemble the block differentials for every exterior degree; check d.d = 0.

    Every block is a compound of a covering arrow. Each arrow's minors come
    from one `exterior_powers` stream, advanced one size per exterior degree,
    so every minor is computed once, in integers.
    """
    n = diagram.datum.rank
    faces = _faces(diagram.arrows, n)
    streams = {key: exterior_powers(m) for key, m in diagram.arrows.items()}
    rows: list[CechRow] = []
    for w in range(n + 1):
        minors = {key: next(stream) for key, stream in streams.items()}
        dims = [math.comb(p + 1, w) * math.comb(n, p + 1) for p in range(n)]
        diffs = {p: _assemble_differential(minors, faces[p], w, p, dims) for p in range(1, n)}
        row = CechRow(w, dims, diffs)
        _check_square_zero(row, n)
        rows.append(row)
    return CechComplex(n, rows)


def _faces(keys, n: int) -> dict[int, list[list]]:
    """faces[p][t] lists (arrow key, source index, sign) of the blocks in the
    rows of target t of the level-p differential, by source index.

    The covering arrow (S, S + {a}) is the face from A = Pi - S to A - {a},
    with sign (-1)^pos(a, A). Index sets are written 0-based here, and the
    sets of each size are numbered in lex order.
    """
    index_of = [_subset_index(n, k) for k in range(n + 1)]
    faces = {p: [[] for _ in index_of[p]] for p in range(1, n)}
    sources = sorted((tuple(i for i in range(n) if i + 1 not in s), (s, sp)) for s, sp in keys)
    for source, (s, sp) in sources:
        pos = next(k for k, i in enumerate(source) if i + 1 in sp)  # a, the one element of A in S'
        target = source[:pos] + source[pos + 1 :]
        faces[len(target)][index_of[len(target)][target]].append(
            ((s, sp), index_of[len(source)][source], -1 if pos % 2 else 1)
        )
    return faces


def _assemble_differential(minors, faces, w, p, dims):
    # block coordinates: w-subsets of the target (p of them) and source
    # (p + 1) cocharacter bases, lexicographic; the rows of one target share
    # the lcm of its arrows' denominators
    lo_index, hi_index = _subset_index(p, w), _subset_index(p + 1, w)
    lo, hi = len(lo_index), len(hi_index)
    num: list[dict[int, int]] = []
    den: list[int] = []
    for incoming in faces:
        row_den = math.lcm(*(minors[key][0] for key, _, _ in incoming))
        block_rows: list[dict[int, int]] = [{} for _ in range(lo)]
        for key, source, sign in incoming:
            arrow_den, arrow_minors = minors[key]
            f = sign * (row_den // arrow_den)
            col0 = source * hi
            for (rsub, csub), v in arrow_minors.items():
                block_rows[lo_index[rsub]][col0 + hi_index[csub]] = f * v
        num.extend(block_rows)
        den.extend([row_den] * lo)
    return RatMatrix(dims[p - 1], dims[p], tuple(num), tuple(den))


def _check_square_zero(row: CechRow, n: int) -> None:
    for p in range(2, n):
        d_hi = row.diffs[p]
        d_lo = row.diffs[p - 1]
        if not d_lo.mul(d_hi).is_zero():
            raise FunctorialityViolation(
                f"d.d != 0 in exterior degree {row.w} at level {p}"
            )


def _row_homology(row: CechRow, n: int) -> dict[int, int]:
    """Dimension of H_p for each Cech level p of one row, from exact ranks.

    Every rank is taken over Q, and `diffs[p]` is ranked only on its rows
    outside the pivot columns P of `diffs[p - 1]` (clearing: Chen and Kerber,
    "Persistent homology computation with a twist", EuroCG 2011). That is its
    full rank, because `build_cech_complex` has checked
    diffs[p - 1] . diffs[p] = 0 exactly on this row before any rank is taken.
    A pivot row r of diffs[p - 1] is a rational combination of its rows whose
    leading column is j, so r . diffs[p] = 0 writes row j of diffs[p] as a
    combination of rows of larger index. By descending induction on j, the
    rows outside P span the row space of diffs[p].
    """
    ranks = _cleared_ranks(row)
    out: dict[int, int] = {}
    for p in range(n):
        h = row.dims[p] - ranks.get(p, 0) - ranks.get(p + 1, 0)
        if h < 0:
            raise UctopError("negative homology dimension: rank bookkeeping bug")
        if h:
            out[p] = h
    return out


def _cleared_ranks(row: CechRow) -> dict[int, int]:
    """Rank over Q of each differential of one row, cleared as `_row_homology` explains."""
    ranks: dict[int, int] = {}
    pivots: dict[int, dict[int, int]] = {}
    for p in sorted(row.diffs):
        pivots = _pivot_rows([r for i, r in enumerate(row.diffs[p].num) if i not in pivots])
        ranks[p] = len(pivots)
    return ranks


@memoized
def boundary_homology(d: RootDatum) -> BettiTable:
    """Rational Betti numbers of the boundary manifold.

    Requires every proper Levi center to be connected (trivial pi0); raises
    NontrivialPi0 naming a witness subset otherwise, because the stalk
    identification used by this computation fails there.

    The witness comes from X/Q and the component groups from Levi SNFs, and
    the two routes are compared wherever the SNFs are computed anyway: at the
    witness on refusal, and at every proper S, whose cocharacter basis the
    diagram reads, otherwise. A disagreement raises UctopError.
    """
    witness = proper_pi0_witness(d)
    if witness is not None:
        factors = center_of_levi(d, witness).pi0.factors
        if not factors:
            raise UctopError(
                f"X/Q names S = {format_levi(witness)} as a witness, but its "
                "Levi center has trivial pi0"
            )
        raise NontrivialPi0(witness, factors)
    for s in all_levi_subsets(d.rank, proper=True):
        if not center_of_levi(d, s).pi0.is_trivial():
            raise UctopError(
                f"X/Q finds no witness, but the Levi center at S = {format_levi(s)} "
                "has nontrivial pi0"
            )
    complex_ = build_cech_complex(build_center_diagram(d))
    return _betti_from_complex(complex_)


def _betti_from_complex(complex_: CechComplex) -> BettiTable:
    """Exact Betti table of the complex: row homology summed over total degree w + p."""
    betti = [0] * (2 * complex_.n)
    for row in complex_.rows:
        for p, h in _row_homology(row, complex_.n).items():
            betti[row.w + p] += h
    return BettiTable(tuple(betti))


def total_euler(complex_: CechComplex) -> int:
    """Alternating sum of raw term dimensions over total degree w + p."""
    total = 0
    for row in complex_.rows:
        for p, dim in enumerate(row.dims):
            total += (-1) ** (row.w + p) * dim
    return total
