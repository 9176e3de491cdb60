"""Rational homology of the boundary manifold, certified in closed form.

The boundary manifold's homology is that of the Cech complex of the center
diagram (`uctop.homology` builds it): over proper subsets S of the simple
roots, the cocharacter space W_S = span{omega_k^vee : k not in S} of the Levi
center Z(L_S), with the Killing-orthogonal projections as arrows. Here it is
read off without building that complex.

Write A for the Cartan matrix, K = Pi - S, and U_S = span{alpha_i^vee :
i in S}. The invariant form makes W_S orthogonal to U_S (`_check_form`), so
x -> x mod U_S is an isomorphism W_S -> t/U_S, and the projection
W_S -> W_S' turns into the quotient map t/U_S -> t/U_S'. In the bases
{alpha_j^vee mod U_S : j in K} that quotient map is the coordinate
projection pi, and the change of basis from coweights is
phi_S = A^(-1)[K, K]. It is invertible by Jacobi's complementary-minor
identity, det A^(-1)[K, K] = det A[S, S] / det A (Horn and Johnson, "Matrix
Analysis", 0.8.4), and det A[S, S] > 0 because the positive definite form is
D . A with D positive and diagonal. So on every covering arrow
S -> S' = S + {a}, with M = [I | v] the arrow in coweights,

    phi_S' . M == pi . phi_S,

and the exterior powers of the phi_S carry the Cech complex isomorphically
onto that of the diagram whose every covering arrow is pi. That complex
depends only on n: with the term of the empty index set added it is the
tensor product, over the n simple roots, of the two-term complexes
Lambda(Q e_i) -> Q, each with homology Q e_i, so it has one class, in total
degree 2n - 1; dropping that term adds the class in degree 0. The boundary
is a rational S^(2n-1) (the Kunneth theorem; Weibel, "An Introduction to
Homological Algebra", Thm 3.6.3).

`_check_naturality` checks the identity exactly, in integers, on every
covering arrow, so `boundary_homology` reports the sphere only for a
diagram it has certified. Since M = phi_S'^(-1) . pi . phi_S and coordinate
projections compose, the certificate also makes the diagram functorial and
every arrow surjective. The full Cech build, its d.d = 0 check and its
cleared ranks stay in `uctop.homology`, which `uctop check` runs as a second
route to the same table. This module reads neither it nor the sparse
rational matrices, so `cgbetti` and `jgbetti` compile neither.
"""

from __future__ import annotations

import math

from ._value import Frozen, setfield
from .errors import FunctorialityViolation, UctopError, format_levi
from .matrices import IntMatrix
from .levi import all_levi_subsets, center_of_levi, invariant_form, witness_gate
from .rootdata import RootDatum, cartan_matrix, memoized

__all__ = ["BettiTable", "boundary_homology"]


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


def _inverse_cartan(d: RootDatum) -> list[list[int]]:
    """The rows of N = den . A^(-1), for some den != 0, checked by A . N == den . I."""
    a = cartan_matrix(d.cartan_type)
    n = d.rank
    x, den, _ = a.solve(IntMatrix.identity(n))
    if a.mul(x) != IntMatrix(n, n, tuple(den if i == j else 0 for i in range(n) for j in range(n))):
        raise UctopError("the inverse Cartan matrix does not multiply back to the identity")
    return x.to_lists()


@memoized
def _check_naturality(d: RootDatum) -> None:
    """Raise FunctorialityViolation unless phi_S' . M == pi . phi_S on every
    covering arrow M: S -> S' = S + {a} (the module docstring says why that
    certifies the Betti table).

    With N = den_N . A^(-1) (`_inverse_cartan`) and K' the complement of S',
    phi_S' = N[K', K'] / den_N and pi . phi_S = N[K', K] / den_N. M fixes the
    coweights in K', on which both sides agree, so what is left is column a:
    N[K', K'] . v == den . N[K', a] for column a of V_S' = v / den, in
    integers. It reads S' and a only, so the arrows are taken as the pairs
    (S', a) with S' nonempty and proper and a in S'.
    """
    x = _inverse_cartan(d)
    for sp in all_levi_subsets(d.rank, proper=True)[1:]:
        rows = [row for j, row in enumerate(x, 1) if j not in sp]
        den, columns = _coweight_columns(d, sp)
        for a in sp:
            column = columns[a].items()
            for row in rows:
                if sum(row[k - 1] * c for k, c in column) != den * row[a - 1]:
                    s = tuple(i for i in sp if i != a)
                    raise FunctorialityViolation(
                        f"naturality fails on the covering arrow {s} -> {sp}"
                    )


@memoized
def boundary_homology(d: RootDatum) -> BettiTable:
    """Rational Betti numbers of the boundary manifold: S^(2n-1), once the
    diagram is certified (the module docstring says why).

    Requires every proper Levi center to be connected (trivial pi0); raises
    NontrivialPi0 naming a witness subset otherwise, because the stalk
    identification used by this computation fails there.

    The witness comes from X/Q and the component groups from Levi SNFs, and
    the two routes are compared: at the witness on refusal (`witness_gate`,
    which the CLI calls before it loads this module), and at every proper S
    otherwise. A disagreement raises UctopError. Then `_check_form`
    certifies the invariant form and `_check_naturality` every covering
    arrow, in integers; a failure raises (FunctorialityViolation for an
    arrow), so no sphere is reported that was not certified. The Cech build
    in `uctop.homology` is the second route to the same table, which
    `uctop check` compares with this one.
    """
    witness_gate(d)
    for s in all_levi_subsets(d.rank, proper=True):
        if not center_of_levi(d, s).pi0.is_trivial():
            raise UctopError(
                f"X/Q finds no witness, but the Levi center at S = {format_levi(s)} "
                "has nontrivial pi0"
            )
    _check_form(d)
    _check_naturality(d)
    return BettiTable.sphere(2 * d.rank - 1)
