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

import itertools
import math

from ._value import Frozen, Value, setfield
from .errors import FunctorialityViolation, NontrivialPi0, UctopError, format_levi
from .matrices import (
    RatMatrix,
    _subset_index,
    exterior_powers,
    rank,
    rank_mod_p,
)
from .rootdata import (
    RootDatum,
    all_levi_subsets,
    center_of_levi,
    killing_projection,
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

    `arrows` holds exactly the arrows the Cech complex reads: the identity
    arrow (S, S) of every proper S (its size is the dimension at S) and the
    covering arrow (S, S + {a}) whenever S + {a} is proper, each the
    projection matrix in the two bases. `arrow(S, S')` returns the arrow of
    any nested pair, computing each longer one through `killing_projection`
    the first time it is asked for and keeping it apart from `arrows`.
    Arrow composition is exact:
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
            self._long[key] = killing_projection(self.datum, s, sp)
        return self._long[key]


def build_center_diagram(d: RootDatum) -> CenterDiagram:
    """Populate the identity and the covering arrows; verify functoriality on
    covering triangles.

    Each triangle S -> S + {a} -> S + {a, b} with a < b is checked against
    the long arrow S -> S + {a, b}. The other middle set S + {b} needs no
    check here: d.d = 0 at w = 1, which `build_cech_complex` verifies, says
    exactly that both paths around the square agree.
    """
    n = d.rank
    arrows: dict[tuple[tuple[int, ...], tuple[int, ...]], RatMatrix] = {}
    for s in all_levi_subsets(n, proper=True):
        arrows[(s, s)] = killing_projection(d, s, s)
        if len(s) + 1 < n:
            for a in range(1, n + 1):
                if a not in s:
                    sp = tuple(sorted(s + (a,)))
                    arrows[(s, sp)] = killing_projection(d, s, sp)
    diagram = CenterDiagram(d, arrows)
    _check_chains(diagram, _covering_triangles(n))
    return diagram


def _covering_triangles(n: int, ascending: bool = True):
    """Chains S -> S + {a} -> S + {a, b} of proper subsets with a < b, or
    with a > b (the other middle set) when not `ascending`."""
    full = set(range(1, n + 1))
    for s in all_levi_subsets(n, proper=True):
        if len(s) + 2 < n:
            for a, b in itertools.permutations(sorted(full - set(s)), 2):
                if (a < b) == ascending:
                    yield s, tuple(sorted(s + (a,))), tuple(sorted(s + (a, b)))


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

    `blocks[p]` lists the nonempty index sets A with |A| = p + 1 in
    lexicographic order, `dims[p]` is the total dimension of term_p, and
    `diffs[p]` (for p >= 1) is the sparse differential term_p -> term_(p-1).
    """

    __slots__ = _fields = ("w", "blocks", "dims", "diffs")

    def __init__(
        self,
        w: int,
        blocks: list[list[tuple[int, ...]]],
        dims: list[int],
        diffs: dict[int, RatMatrix],
    ) -> None:
        self.w = w
        self.blocks = blocks
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
    full = tuple(range(1, n + 1))
    blocks = [
        list(itertools.combinations(full, p + 1)) for p in range(n)
    ]
    index_of = [
        {a: i for i, a in enumerate(level)} for level in blocks
    ]
    streams = {
        key: exterior_powers(m) for key, m in diagram.arrows.items() if key[0] != key[1]
    }
    rows: list[CechRow] = []
    for w in range(n + 1):
        minors = {key: next(stream) for key, stream in streams.items()}
        width = [math.comb(p + 1, w) for p in range(n)]
        dims = [width[p] * len(blocks[p]) for p in range(n)]
        diffs: dict[int, RatMatrix] = {}
        for p in range(1, n):
            diffs[p] = _assemble_differential(
                minors, blocks, index_of, full, w, p, dims
            )
        row = CechRow(w, blocks, dims, diffs)
        _check_square_zero(row, n)
        rows.append(row)
    return CechComplex(n, rows)


def _assemble_differential(minors, blocks, index_of, full, w, p, dims):
    full_set = set(full)
    # block coordinates: w-subsets of the target (p of them) and source
    # (p + 1) cocharacter bases, lexicographic
    lo_index, hi_index = _subset_index(p, w), _subset_index(p + 1, w)
    lo, hi = len(lo_index), len(hi_index)
    # faces[t] lists (arrow key, column offset, sign) of the blocks in the
    # rows of target t; those rows share the lcm of the arrows' denominators
    faces: list[list] = [[] for _ in blocks[p - 1]]
    for ci, a in enumerate(blocks[p]):
        s = tuple(sorted(full_set - set(a)))
        for pos, elt in enumerate(a):
            target = tuple(x for x in a if x != elt)
            sp = tuple(sorted(full_set - set(target)))
            faces[index_of[p - 1][target]].append(((s, sp), ci * hi, -1 if pos % 2 else 1))
    num: list[dict[int, int]] = []
    den: list[int] = []
    for incoming in faces:
        row_den = math.lcm(*(minors[key][0] for key, _, _ in incoming))
        block_rows: list[dict[int, int]] = [{} for _ in range(lo)]
        for key, col0, sign in incoming:
            arrow_den, arrow_minors = minors[key]
            f = sign * (row_den // arrow_den)
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


def _row_homology(row: CechRow, n: int, rank_of) -> dict[int, int]:
    """Dimension of H_p for each Cech level p of one row, with ranks from `rank_of`."""
    ranks = {p: rank_of(m) for p, m in row.diffs.items()}
    out: dict[int, int] = {}
    for p in range(n):
        h = row.dims[p] - ranks.get(p, 0) - ranks.get(p + 1, 0)
        if h < 0:
            raise ArithmeticError("negative homology dimension: rank bookkeeping bug")
        if h:
            out[p] = h
    return out


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


RANK_PRIME = 2**61 - 1

MOD_P_CERTIFIED = "mod-p certified"
EXACT_RATIONAL = "exact rational"


def _betti_from_complex(complex_: CechComplex, row_order=None) -> BettiTable:
    return _certified_betti(complex_, row_order)[0]


def _certified_betti(complex_: CechComplex, row_order=None) -> tuple[BettiTable, str]:
    """Exact Betti table of the complex and the certificate that proves it.

    Ranks are first taken mod RANK_PRIME. The resulting table is exact when
    it is the sphere S^(2n-1), by three facts:

    (i) the F_p rank of an integer matrix is at most its rank over Q (and
        clearing denominators row by row changes no rank), so every mod-p
        homology dimension, hence every mod-p Betti number, bounds the exact
        one from above;
    (ii) the Euler characteristic is the alternating sum of the term
        dimensions whatever the ranks, so both tables share it, and the
        sphere's is 0;
    (iii) b_0 >= 1 exactly: total degree 0 is only the w = 0, p = 0 term,
        whose homology is computed here with an exact rank.

    By (i) every exact b_m outside {0, 2n - 1} is 0 and b_0, b_(2n-1) <= 1;
    by (iii) b_0 = 1; by (ii) b_(2n-1) = b_0 = 1. In every other case the
    table is recomputed with exact rational ranks. The label returned is
    MOD_P_CERTIFIED or EXACT_RATIONAL accordingly.
    """
    n = complex_.n
    rows = complex_.rows if row_order is None else [complex_.rows[w] for w in row_order]
    table = _betti_table(rows, n, lambda m: rank_mod_p(m, RANK_PRIME))
    if table == BettiTable.sphere(2 * n - 1) and _exact_b0(complex_) >= 1:
        return table, MOD_P_CERTIFIED
    return _betti_table(rows, n, rank), EXACT_RATIONAL


def _betti_table(rows: list[CechRow], n: int, rank_of) -> BettiTable:
    betti = [0] * (2 * n)
    for row in rows:
        for p, h in _row_homology(row, n, rank_of).items():
            betti[row.w + p] += h
    return BettiTable(tuple(betti))


def _exact_b0(complex_: CechComplex) -> int:
    row = complex_.rows[0]
    return row.dims[0] - (rank(row.diffs[1]) if 1 in row.diffs else 0)


def total_euler(complex_: CechComplex) -> int:
    """Alternating sum of raw term dimensions over total degree w + p."""
    total = 0
    for row in complex_.rows:
        for p, dim in enumerate(row.dims):
            total += (-1) ** (row.w + p) * dim
    return total
