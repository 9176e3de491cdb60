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
covering arrow S -> S + {a}. Every stalk is a homology object, so the rows
never interact and the Betti number in total degree m is the sum over
w + p = m of the row homology dimensions.

Everything is written in fundamental-coweight coordinates. Over Q the
cocharacter space of Z(L_S) is span{omega_k^vee : k not in S} for every
isogeny, so the lattice enters only through the refusal witness and the Levi
SNFs it is compared with. The projection onto the space of S' fixes each
omega_k^vee with k outside S' and kills the coroots alpha_i^vee, i in S',
which the invariant form makes orthogonal to every omega_k^vee with k != i
(`_check_form` certifies that once per datum). So it sends omega_a^vee,
a in S', to column a of V_S' = -A[K', S'] . A[S', S']^(-1), with A the
Cartan matrix and K' the complement of S'. That column depends only on the
connected component of S' in the Dynkin diagram that holds a, so one small
solve per connected component gives every V_S'. Each covering arrow
S -> S + {a} is the identity plus one column, its compounds have
closed-form minors, and a covering triangle is an identity between columns.
The diagram is its covering arrows: on the Boolean lattice of proper
subsets they fix it once every covering triangle composes, so no longer
arrow is ever built.
"""

from __future__ import annotations

import itertools
import math

from ._value import Frozen, Value, setfield
from .errors import FunctorialityViolation, UctopError, format_levi
from .matrices import IntMatrix
from .rational import RatMatrix, _pivot_rows, _subset_index
from .rootdata import (
    RootDatum,
    all_levi_subsets,
    cartan_matrix,
    center_of_levi,
    invariant_form,
    memoized,
    witness_gate,
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


# a covering arrow's one column, (den, {target position: numerator})
Column = tuple[int, dict[int, int]]


class CenterDiagram(Value):
    """The covering arrows between Levi-center cocharacter spaces, over S
    properly inside Pi ordered by inclusion, in fundamental-coweight
    coordinates.

    `arrows` maps each covering pair (S, S + {a}) with S + {a} proper to its
    arrow, and holds nothing else: on the Boolean lattice of proper subsets a
    diagram is fixed by its covering arrows once every covering triangle
    composes (`_check_chains` says why), and each arrow is one block of the
    Cech differentials. It is the identity plus one column, kept as
    (den, column): the projection of omega_a^vee, with `column` mapping each
    target position r (the r-th coweight outside S + {a}) to its nonzero
    numerator over den.
    """

    __slots__ = _fields = ("datum", "arrows")

    def __init__(
        self, datum: RootDatum, arrows: dict[tuple[tuple[int, ...], tuple[int, ...]], Column]
    ) -> None:
        self.datum = datum
        self.arrows = arrows


@memoized
def _cartan_rows(d: RootDatum) -> list[list[int]]:
    return cartan_matrix(d.cartan_type).to_lists()


@memoized
def _check_form(d: RootDatum) -> None:
    """Certify the fact the coweight arrows rest on, once per datum.

    G = `invariant_form(d)` (whose own guards raise first) is the Gram
    matrix of the simple coroots, and omega^vee = alpha^vee . A^(-1), so
    G . A^(-1) holds the pairings (alpha_i^vee, omega_k^vee). It is diagonal,
    i.e. the coroots in S' span the orthogonal complement of the coweights
    outside S', exactly when G = D . A with D diagonal: when row i of G is
    G_ii / A_ii times row i of A.
    """
    g, a = invariant_form(d).to_lists(), _cartan_rows(d)
    n = d.rank
    if any(g[i][j] * a[i][i] != g[i][i] * a[i][j] for i in range(n) for j in range(n)):
        raise UctopError("Gram matrix times the inverse Cartan matrix must be diagonal")


@memoized
def _coweight_columns(d: RootDatum, sp: tuple[int, ...]) -> tuple[int, dict[int, dict[int, int]]]:
    """V_S' = -A[K', S'] . A[S', S']^(-1) for a nonempty proper S', with K'
    its complement and A the Cartan matrix, as (den, columns): columns[a]
    maps each k in K' where column a is nonzero to its numerator over den.

    Column a is the projection of omega_a^vee onto the cocharacter space of
    Z(L_S'), written in the coweights omega_k^vee, k in K': the projection
    fixes those and kills the coroots alpha_i^vee, i in S', and
    alpha_i^vee = sum over k of A[k, i] omega_k^vee.

    A[S', S'] is block diagonal over the connected components C of S' in the
    Dynkin diagram, and A[k, i] with i in C is nonzero only for k in C or a
    neighbour of C, and every neighbour lies outside S'. So column a, for a
    in C, is column a of V_C: it depends on C alone, and one solve per
    component (`_block_columns`) serves every S' that has it as a component.
    den is the lcm of the components' denominators, each in lowest terms, so
    it is the least common denominator of V_S'.
    """
    parts = [_block_columns(d, c) for c in _components(_cartan_rows(d), sp)]
    if len(parts) == 1:
        return parts[0]
    den = math.lcm(*(den_c for den_c, _ in parts))
    merged = {}
    for den_c, columns in parts:
        f = den // den_c
        merged.update((a, {k: f * v for k, v in col.items()}) for a, col in columns.items())
    return den, {a: merged[a] for a in sp}


def _components(a: list[list[int]], sp: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The connected components of S' in the Dynkin diagram of the Cartan
    rows `a`, each a sorted tuple, in the order of their least elements."""
    parts, seen = [], set()
    for i in sp:
        if i not in seen:
            seen.add(i)
            part, stack = [], [i]
            while stack:
                j = stack.pop()
                part.append(j)
                for k in sp:
                    if k not in seen and a[j - 1][k - 1]:
                        seen.add(k)
                        stack.append(k)
            parts.append(tuple(sorted(part)))
    return parts


@memoized
def _block_columns(d: RootDatum, c: tuple[int, ...]) -> tuple[int, dict[int, dict[int, int]]]:
    """`_coweight_columns` of a connected nonempty proper C: one fraction-free
    solve of A[C, C]^T X = -A[K, C]^T, K the complement of C, whose solution
    is V_C transposed."""
    a = _cartan_rows(d)
    outside = [k for k in range(1, d.rank + 1) if k not in c]
    size, width = len(c), len(outside)
    block = IntMatrix(size, size, tuple(a[j - 1][i - 1] for i in c for j in c))
    rhs = IntMatrix(size, width, tuple(-a[k - 1][i - 1] for i in c for k in outside))
    x, den, _ = block.solve(rhs)
    columns = {i: {k: v for k, v in zip(outside, x.row(r)) if v} for r, i in enumerate(c)}
    return den, columns


def build_center_diagram(d: RootDatum) -> CenterDiagram:
    """Certify the invariant form, populate the covering arrows, and verify
    functoriality on covering triangles.

    Each triangle S -> S + {a} -> S + {a, b} with a < b is checked against
    the long arrow S -> S + {a, b}. The other middle set S + {b} needs no
    check here: d.d = 0 at w = 1, which `build_cech_complex` verifies, says
    exactly that both paths around the square agree.
    """
    _check_form(d)
    n = d.rank
    arrows = {}
    for s, sp, a in _covering_pairs(n):
        den, columns = _coweight_columns(d, sp)
        column = columns[a]
        target = (k for k in range(1, n + 1) if k not in sp)
        arrows[(s, sp)] = (den, {r: column[k] for r, k in enumerate(target) if k in column})
    diagram = CenterDiagram(d, arrows)
    _check_chains(diagram, _covering_triangles(n))
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
    the composite projection s1 -> s2 -> s3 equals the direct one s1 -> s3.

    Write Q_S for the projection onto the space of S as computed: it fixes
    omega_k^vee for k outside S and sends omega_a^vee, a in S, to column a
    of V_S. A chain's identity is Q_s3 . Q_s2 == Q_s3 on the coweights
    outside s1. Both sides fix the coweights outside s3 and send
    omega_a^vee, a in s3 - s2, to column a of V_s3. What is left is column a
    for a in s2 - s1, which reads, with K3 the complement of s3,

        V_s3[:, a] == V_s2[K3, a] + sum over b in s3 - s2 of V_s2[b, a] V_s3[:, b].

    It does not depend on s1, so each (s2, s3, a) is checked once, in
    integers.

    The covering triangles of both orientations imply every nested chain.
    For a covering pair (T, T + {c}) and a in T, the identity on
    (T, T + {c}, a) is that of the covering triangle T - {a} -> T -> T + {c}:
    ascending when a < c (`build_center_diagram` checks it), descending when
    a > c (the `check` battery does). So Q_(T + c) . Q_T == Q_(T + c) on
    every covering pair, and along any covering chain T_0 = s2, ..., T_m = s3,
    induction on m gives Q_s3 . Q_s2 == Q_s3 . Q_(T_(m-1)) . Q_s2 ==
    Q_s3 . Q_(T_(m-1)) == Q_s3. Likewise a long arrow is the composite of the covering arrows along
    such a chain, and composites of surjections are surjective, so the
    battery ranks the covering arrows only.
    """
    d = diagram.datum
    done = set()
    for s1, s2, s3 in chains:
        for a in s2:
            if a not in s1 and (s2, s3, a) not in done:
                done.add((s2, s3, a))
                if not _composes(_coweight_columns(d, s2), _coweight_columns(d, s3), s3, a):
                    raise FunctorialityViolation(
                        f"projection composite through {s2} disagrees with the "
                        f"direct arrow {s1} -> {s3}"
                    )


def _composes(v2, v3, s3: tuple[int, ...], a: int) -> bool:
    """`_check_chains`' identity on column a, for V_s2 = v2 and V_s3 = v3 as
    (den, columns), multiplied through by both denominators."""
    (den2, columns2), (den3, columns3) = v2, v3
    via = columns2[a]
    total = {k: den3 * v for k, v in via.items() if k not in s3}
    for b, c in via.items():
        if b in s3:
            for k, v in columns3[b].items():
                total[k] = total.get(k, 0) + c * v
    direct = {k: den2 * v for k, v in columns3[a].items()}
    return {k: v for k, v in total.items() if v} == direct


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


@memoized
def boundary_homology(d: RootDatum) -> BettiTable:
    """Rational Betti numbers of the boundary manifold.

    Requires every proper Levi center to be connected (trivial pi0); raises
    NontrivialPi0 naming a witness subset otherwise, because the stalk
    identification used by this computation fails there.

    The witness comes from X/Q and the component groups from Levi SNFs, and
    the two routes are compared: at the witness on refusal (`witness_gate`,
    which the CLI calls before it loads this module), and at every proper S
    otherwise. A disagreement raises UctopError. The diagram itself
    reads only the Cartan matrix and the invariant form.
    """
    witness_gate(d)
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
