"""Cech homology of the boundary manifold: the second route to its Betti table.

The boundary manifold fibers over a simplex with vertex set the simple roots;
its homology is the homotopy colimit, over proper subsets S of the simple
roots, of the exterior algebras on the Levi-center cocharacter spaces, with
transition maps the Killing-orthogonal projections. That colimit is realized
here as the Cech complex of the face cover indexed by nonempty subsets A of
the simple roots (the stalk at A lives on the Levi set S = Pi - A):

    term_p  =  direct sum over |A| = p + 1 of  Lambda^w  V_(Pi - A),

one chain complex per exterior degree w, with the block of the differential
from A to A - {a} equal to (-1)^pos(a, A) times the w-th compound of the
covering arrow S -> S + {a}. Every stalk is a homology object, so the rows
never interact and the Betti number in total degree m is the sum over
w + p = m of the row homology dimensions.

`boundary_homology` (in `uctop.boundary`, re-exported here) does not build
this complex. It certifies, exactly and arrow by arrow, that the diagram is
naturally isomorphic to the diagram of coordinate projections, whose complex
is the Kunneth product of n two-term complexes, and reports S^(2n-1) (that
module's docstring has the argument and its references). The build below is
what `uctop check` runs as the second route to the same table: the Cech
differentials in closed form, d.d = 0 checked exactly on every row, and
ranks taken with clearing. Its Betti table must equal the certified one.

Everything is written in fundamental-coweight coordinates. Over Q the
cocharacter space of Z(L_S) is span{omega_k^vee : k not in S} for every
isogeny, so the lattice enters only through the refusal witness and the Levi
SNFs it is compared with. The projection onto the space of S' fixes each
omega_k^vee with k outside S' and kills the coroots alpha_i^vee, i in S',
which the invariant form makes orthogonal to every omega_k^vee with k != i
(`_check_form` certifies that once per datum). So it sends omega_a^vee,
a in S', to column a of V_S' (`_coweight_columns`, one small Cartan solve
per connected component of S'). Each covering arrow S -> S + {a} is the
identity plus one column, its compounds have closed-form minors, and
functoriality is one identity between columns per covering pair
(`_check_functoriality`). The diagram is its covering arrows: on the Boolean
lattice of proper subsets they fix a functorial diagram, so no longer arrow
is ever built.
"""

from __future__ import annotations

import itertools
import math

from ._value import Frozen
from .boundary import BettiTable, _check_form, _coweight_columns, boundary_homology
from .errors import FunctorialityViolation, UctopError
from .levi import all_levi_subsets
from .rational import RatMatrix, _pivot_rows, _subset_index
from .rootdata import RootDatum, memoized

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


# a covering arrow's one column, (den, {target position: numerator})
Column = tuple[int, dict[int, int]]
# the covering arrows of a diagram, by (S, S + {a})
Arrows = dict[tuple[tuple[int, ...], tuple[int, ...]], Column]


class CenterDiagram(Frozen):
    """The covering arrows between Levi-center cocharacter spaces, over S
    properly inside Pi ordered by inclusion, in fundamental-coweight
    coordinates.

    `arrows` maps each covering pair (S, S + {a}) with S + {a} proper to its
    arrow, and holds nothing else: on the Boolean lattice of proper subsets a
    functorial diagram is fixed by its covering arrows
    (`_check_functoriality` says why), and each arrow is one block of the
    Cech differentials. It is the identity plus one column, kept as
    (den, column): the projection of omega_a^vee, with `column` mapping each
    target position r (the r-th coweight outside S + {a}) to its nonzero
    numerator over den.
    """

    __slots__ = _fields = ("datum", "arrows")
    __hash__ = None


def build_center_diagram(d: RootDatum) -> CenterDiagram:
    """Certify the invariant form and functoriality, then build every
    covering arrow."""
    _check_functoriality(d)
    return CenterDiagram(d, _covering_arrows(d))


def _covering_arrows(d: RootDatum) -> Arrows:
    """Every covering arrow of the diagram of d, keyed and written as
    `CenterDiagram.arrows` holds them."""
    n = d.rank
    arrows = {}
    for s, sp, a in _covering_pairs(n):
        den, columns = _coweight_columns(d, sp)
        column = columns[a]
        target = (k for k in range(1, n + 1) if k not in sp)
        arrows[(s, sp)] = (den, {r: column[k] for r, k in enumerate(target) if k in column})
    return arrows


def _covering_pairs(n: int):
    """(S, S + {a}, a) for every proper S and a outside it with S + {a}
    proper, S by (size, lex), then a ascending."""
    for s in all_levi_subsets(n, proper=True):
        if len(s) + 1 < n:
            for a in range(1, n + 1):
                if a not in s:
                    yield s, tuple(sorted(s + (a,))), a


@memoized
def _check_functoriality(d: RootDatum) -> None:
    """Certify the invariant form (`_check_form`), then raise
    FunctorialityViolation unless every nested chain s1 <= s2 <= s3 of
    proper subsets composes: Q_s3 . Q_s2 == Q_s3, with Q_S the projection
    onto the space of S as computed (it fixes omega_k^vee, k outside S, and
    sends omega_a^vee, a in S, to column a of V_S).

    Both sides fix the coweights outside s3 and send omega_a^vee, a in
    s3 - s2, to column a of V_s3. What is left is column a for a in s2,
    which reads, with K3 the complement of s3,

        V_s3[:, a] == V_s2[K3, a] + sum over b in s3 - s2 of V_s2[b, a] V_s3[:, b].

    It is checked once, in integers, on each covering pair (T, T + {c}) and
    a in T. Along a covering chain s2 = T_0, ..., T_m = s3, induction on m
    then gives Q_s3 . Q_s2 == Q_s3 . Q_(T_(m-1)) . Q_s2 == Q_s3 . Q_(T_(m-1))
    == Q_s3. So the arrow s1 -> s3 is the composite of the covering arrows
    along any covering chain, and certifying those is enough: composites of
    surjections are surjective (`boundary._check_naturality`).
    """
    _check_form(d)
    for t, tc, _ in _covering_pairs(d.rank):
        if t:
            v2, v3 = _coweight_columns(d, t), _coweight_columns(d, tc)
            for a in t:
                if not _composes(v2, v3, tc, a):
                    s1 = tuple(i for i in t if i != a)
                    raise FunctorialityViolation(
                        f"projection composite through {t} disagrees with the "
                        f"direct arrow {s1} -> {tc}"
                    )


def _composes(v2, v3, s3: tuple[int, ...], a: int) -> bool:
    """`_check_functoriality`'s identity on column a, for V_s2 = v2 and
    V_s3 = v3 as (den, columns), multiplied through by both denominators."""
    (den2, columns2), (den3, columns3) = v2, v3
    via = columns2[a]
    total = {k: den3 * v for k, v in via.items() if k not in s3}
    for b, c in via.items():
        if b in s3:
            for k, v in columns3[b].items():
                total[k] = total.get(k, 0) + c * v
    direct = {k: den2 * v for k, v in columns3[a].items()}
    return {k: v for k, v in total.items() if v} == direct


class CechRow(Frozen):
    """One exterior degree w of the Cech complex.

    `dims[p]` is the total dimension of term_p (a direct sum over the index
    sets A with |A| = p + 1), and `diffs[p]` (for p >= 1) is the sparse
    differential term_p -> term_(p-1).
    """

    __slots__ = _fields = ("w", "dims", "diffs")
    __hash__ = None


class CechComplex(Frozen):
    """Rows of chain complexes indexed by exterior degree w = 0..n."""

    __slots__ = _fields = ("n", "rows")
    __hash__ = None


def build_cech_complex(diagram: CenterDiagram) -> CechComplex:
    """Assemble the block differentials for every exterior degree; check d.d = 0.

    Every block is a compound of a covering arrow [I | v], whose minors are
    read off `_minor_patterns` in closed form, in integers.
    """
    n = diagram.datum.rank
    faces = _faces(diagram.arrows, n)
    rows: list[CechRow] = []
    for w in range(n + 1):
        dims = [math.comb(p + 1, w) * math.comb(n, p + 1) for p in range(n)]
        diffs = {
            p: _assemble_differential(diagram.arrows, faces[p], w, p, dims) for p in range(1, n)
        }
        row = CechRow(w, dims, diffs)
        _check_square_zero(row, n)
        rows.append(row)
    return CechComplex(n, rows)


def _faces(keys, n: int) -> dict[int, list[list]]:
    """faces[p][t] lists (arrow key, source index, pos) of the blocks in the
    rows of target t of the level-p differential, by source index.

    The covering arrow (S, S + {a}) is the face from A = Pi - S to A - {a},
    with a at position pos of A and sign (-1)^pos. Index sets are written
    0-based here, and the sets of each size are numbered in lex order.
    """
    index_of = [_subset_index(n, k) for k in range(n + 1)]
    faces = {p: [[] for _ in index_of[p]] for p in range(1, n)}
    sources = sorted((tuple(i for i in range(n) if i + 1 not in s), (s, sp)) for s, sp in keys)
    for source, (s, sp) in sources:
        pos = next(k for k, i in enumerate(source) if i + 1 in sp)  # a, the one element of A in S'
        target = source[:pos] + source[pos + 1 :]
        faces[len(target)][index_of[len(target)][target]].append(
            ((s, sp), index_of[len(source)][source], pos)
        )
    return faces


def _minor_patterns(p: int, w: int) -> list:
    """Where the nonzero w x w minors of a covering arrow sit, and their
    signs, for each source position pos of its one column.

    The arrow maps p + 1 source coweights onto p target ones. It is the
    identity except at source position pos, whose column is v. On target
    rows R and source columns C (w-subsets, lexicographic), the minor is 1
    when C is R, (-1)^(i + j) v_r when C is R - {r} + {pos} with r at place i
    of R and pos at place j of C, and 0 otherwise. Item pos is (ones, by_r):
    the (row, column) of each minor of the first kind, and by_r[r] the
    (row, column, sign) of each of the second kind that reads v_r.
    """
    cols = _subset_index(p + 1, w)
    rsubs = list(itertools.combinations(range(p), w))
    patterns = []
    for pos in range(p + 1):
        lift = [t if t < pos else t + 1 for t in range(p)]  # target -> source position
        ones, by_r = [], [[] for _ in range(p)]
        for row, rsub in enumerate(rsubs):
            csub = [lift[t] for t in rsub]
            ones.append((row, cols[tuple(csub)]))
            j = sum(1 for c in csub if c < pos)  # the place of pos once r is dropped
            for i, r in enumerate(rsub):
                rest = csub[:i] + csub[i + 1 :]
                jr = j - 1 if i < j else j
                col = cols[(*rest[:jr], pos, *rest[jr:])]
                by_r[r].append((row, col, -1 if (i + jr) % 2 else 1))
        patterns.append((ones, by_r))
    return patterns


def _fill_block(rows, col0: int, pattern, arrow: Column, scale: int) -> None:
    """Write `scale` times den times the minors of the arrow (den, v) into
    `rows`, their columns shifted by col0."""
    (den, column), (ones, by_r) = arrow, pattern
    one = scale * den
    for row, col in ones:
        rows[row][col0 + col] = one
    for r, v in column.items():
        x = scale * v
        for row, col, sign in by_r[r]:
            rows[row][col0 + col] = sign * x


def _assemble_differential(arrows, faces, w, p, dims):
    # block coordinates: w-subsets of the target (p of them) and source
    # (p + 1) coweights, lexicographic; the rows of one target share the lcm
    # of its arrows' denominators
    lo, hi = math.comb(p, w), math.comb(p + 1, w)
    patterns = _minor_patterns(p, w)
    num: list[dict[int, int]] = []
    den: list[int] = []
    for incoming in faces:
        row_den = math.lcm(*(arrows[key][0] for key, _, _ in incoming))
        block_rows: list[dict[int, int]] = [{} for _ in range(lo)]
        for key, source, pos in incoming:
            f = row_den // arrows[key][0]
            _fill_block(block_rows, source * hi, patterns[pos], arrows[key], -f if pos % 2 else f)
        num.extend(block_rows)
        den.extend([row_den] * lo)
    return RatMatrix(dims[p - 1], dims[p], tuple(num), tuple(den))


def _check_square_zero(row: CechRow, n: int) -> None:
    for p in range(2, n):
        d_hi = row.diffs[p]
        d_lo = row.diffs[p - 1]
        if not d_lo.mul_is_zero(d_hi):
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
