"""Levi centers, the invariant form and the refusal witness.

`levi_pi0` reads the component group of Z(L_S) from X/Q (X the character
lattice, Q the root lattice) with no Smith form, and so does the refusal
witness (`witness_gate`); these are the routes every request takes.
`center_of_levi` reads the component group and cocharacter lattice of
Z(L_S) off the Smith normal form (`snf`) of the Levi roots in the
char-lattice basis: the second route, which `uctop check` compares with
X/Q on every S, and the cocharacter bases of the Cech build. The
invariant form on the cocharacter space is the symmetrized Cartan matrix
D.A (minimal positive integer D per simple factor) in the simple-coroot
basis; orthogonal projections are insensitive to the per-factor scaling.
`info` does not load this module.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable

from ._value import Frozen, setfield
from .errors import NontrivialPi0, UctopError
from .matrices import IntMatrix
from .rootdata import (
    CartanType,
    RootDatum,
    _inverse_roots,
    _roots_in_basis,
    cartan_matrix,
    memoized,
)

__all__ = [
    "InvariantFactors",
    "snf",
    "CenterData",
    "center_of_levi",
    "invariant_form",
    "levi_root_matrix",
    "levi_pi0",
    "proper_pi0_witness",
    "witness_gate",
    "all_levi_subsets",
]


class InvariantFactors(Frozen):
    """Nontrivial invariant factors of a finitely generated abelian group.

    Only factors >= 2 are kept (1's carry no torsion); consecutive factors
    satisfy the divisibility chain factors[i] | factors[i+1].
    """

    __slots__ = _fields = ("factors",)

    def __init__(self, factors: tuple[int, ...]) -> None:
        if any(f < 2 for f in factors):
            raise ValueError("invariant factors must be >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError(f"divisibility chain violated: {a} does not divide {b}")
        setfield(self, "factors", factors)

    def order(self) -> int:
        """Order of the torsion group (1 when there is no torsion)."""
        return math.prod(self.factors)

    def is_trivial(self) -> bool:
        return not self.factors


def snf(m: IntMatrix) -> tuple[InvariantFactors, IntMatrix]:
    """Smith normal form data of an integer matrix.

    Returns the pair (factors, kernel): the nontrivial invariant factors of
    coker(m) (acting on row vectors: Z^cols / row-span) and a basis of the
    integer kernel {x : m x = 0} as matrix columns. The rank of m is
    m.cols - kernel.cols.
    """
    a = m.to_lists()
    nr, nc = m.rows, m.cols
    # v accumulates the column operations, stored by columns (v[j] is column
    # j), so a column operation is one list update; its trailing columns end
    # up spanning the integer kernel.
    v = [[0] * nc for _ in range(nc)]
    for j in range(nc):
        v[j][j] = 1
    diag: list[int] = []
    t = 0
    while t < min(nr, nc):
        piv = _smallest_nonzero(a, nr, nc, t)
        if piv is None:
            break
        _move_pivot(a, v, nr, t, piv)
        while True:
            changed = False
            if a[t][t] < 0:
                a[t] = [-e for e in a[t]]
            # clear column t below the pivot
            for i in range(t + 1, nr):
                if a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                if q:
                    at_row = a[t]
                    a[i] = [e - q * f for e, f in zip(a[i], at_row)]
                if a[i][t]:
                    a[t], a[i] = a[i], a[t]  # remainder is a strictly smaller pivot
                    changed = True
            # clear row t right of the pivot
            for j in range(t + 1, nc):
                if a[t][j] == 0:
                    continue
                q = a[t][j] // a[t][t]
                if q:
                    for i in range(nr):
                        if a[i][t]:
                            a[i][j] -= q * a[i][t]
                    v[j] = [x - q * y for x, y in zip(v[j], v[t])]
                if a[t][j]:
                    for i in range(nr):
                        a[i][t], a[i][j] = a[i][j], a[i][t]
                    v[t], v[j] = v[j], v[t]
                    changed = True
            if changed:
                continue
            # pivot must divide every entry of the trailing block (a unit does)
            bad = None if a[t][t] == 1 else _nondivisible(a, nr, nc, t)
            if bad is None:
                break
            a[t] = [e + f for e, f in zip(a[t], a[bad])]
        diag.append(a[t][t])
        t += 1
    rank_ = len(diag)
    kernel = tuple(itertools.chain.from_iterable(zip(*v[rank_:])))
    return InvariantFactors(tuple(d for d in diag if d >= 2)), IntMatrix(nc, nc - rank_, kernel)


def _smallest_nonzero(a, nr, nc, t):
    best = None
    best_abs = None
    for i in range(t, nr):
        for j in range(t, nc):
            e = a[i][j]
            if e and (best is None or abs(e) < best_abs):
                best, best_abs = (i, j), abs(e)
                if best_abs == 1:
                    return best
    return best


def _move_pivot(a, v, nr, t, piv):
    pi, pj = piv
    if pi != t:
        a[t], a[pi] = a[pi], a[t]
    if pj != t:
        for i in range(nr):
            a[i][t], a[i][pj] = a[i][pj], a[i][t]
        v[t], v[pj] = v[pj], v[t]


def _nondivisible(a, nr, nc, t):
    d = a[t][t]
    for i in range(t + 1, nr):
        for j in range(t + 1, nc):
            if a[i][j] % d:
                return i
    return None


class CenterData(Frozen):
    """Invariants of the center Z(L_S) of a standard Levi subgroup.

    `pi0` is the component group (as invariant factors), `cochar_basis` holds
    a basis of the cocharacter lattice of the center as columns (coordinates
    dual to the char-lattice rows), and `dim` is its dimension n - |S|.
    """

    __slots__ = _fields = ("pi0", "cochar_basis", "dim")


def _normalize_levi(d: RootDatum, levi: Iterable[int]) -> tuple[int, ...]:
    """Sorted tuple of a Levi set inside 1..n; private forms take only this."""
    s = tuple(sorted(set(levi)))
    n = d.rank
    if any(i < 1 or i > n for i in s):
        raise ValueError(f"Levi set {s} not contained in {{1..{n}}}")
    return s


def levi_root_matrix(d: RootDatum, levi: Iterable[int]) -> IntMatrix:
    """Rows: the simple roots indexed by `levi` written in the char-lattice basis."""
    return _levi_root_matrix(d, _normalize_levi(d, levi))


def _levi_root_matrix(d: RootDatum, s: tuple[int, ...]) -> IntMatrix:
    r, n = _roots_in_basis(d).entries, d.rank
    rows = (r[(i - 1) * n : i * n] for i in s)
    return IntMatrix(len(s), n, tuple(itertools.chain.from_iterable(rows)))


@memoized
def _center_of_levi_cached(d: RootDatum, s: tuple[int, ...]) -> CenterData:
    factors, kernel = snf(_levi_root_matrix(d, s))
    if kernel.cols != d.rank - len(s):
        raise UctopError("simple roots must be linearly independent")
    return CenterData(pi0=factors, cochar_basis=kernel, dim=d.rank - len(s))


def center_of_levi(d: RootDatum, levi: Iterable[int]) -> CenterData:
    """Component group and cocharacter basis of Z(L_S) for S = `levi`."""
    return _center_of_levi_cached(d, _normalize_levi(d, levi))


def invariant_form(d: RootDatum) -> IntMatrix:
    """Gram matrix of the invariant form on the cocharacter space: the
    minimally symmetrized Cartan matrix, per factor (symmetric and positive
    definite, or UctopError).

    On each simple factor any invariant form is a positive multiple of the
    Killing form, so the minimal integer symmetrizer D with D.A symmetric
    represents it faithfully for every projection computed here.
    """
    g = _symmetrized_cartan(d.cartan_type)
    if not g.is_symmetric():
        raise UctopError("Gram matrix must be symmetric")
    if not g.is_positive_definite():
        raise UctopError("Gram matrix must be positive definite")
    return g


def _symmetrized_cartan(t: CartanType) -> IntMatrix:
    """D.A, D the minimal symmetrizer of each factor: `invariant_form`
    before its guard."""
    n = t.rank
    a = cartan_matrix(t).to_lists()
    gram = [[0] * n for _ in range(n)]
    off = 0
    for _, rk in t.factors:
        ds = _block_symmetrizer(a, off, rk)
        for i in range(rk):
            for j in range(rk):
                gram[off + i][off + j] = ds[i] * a[off + i][off + j]
        off += rk
    return IntMatrix.from_rows(gram, cols=n)


def _block_symmetrizer(a: list[list[int]], off: int, rk: int) -> list[int]:
    """Minimal positive integers d with d_i a_ij = d_j a_ji on one factor block."""
    ds = [0] * rk  # 0: not reached yet
    ds[0] = 1
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(rk):
            p = a[off + i][off + j]
            if j != i and p and not ds[j]:
                # d_j = d_i * a_ij / a_ji along each Dynkin edge; the values
                # found so far are scaled first, so that it is an integer
                q = a[off + j][off + i]
                scale = abs(q) // math.gcd(ds[i] * p, q)
                ds = [v * scale for v in ds]
                ds[j] = ds[i] * p // q
                queue.append(j)
    if not all(ds):
        raise UctopError("Dynkin diagram of a simple factor must be connected")
    g = math.gcd(*ds)
    return [v // g for v in ds]


def all_levi_subsets(n: int, proper: bool = False) -> list[tuple[int, ...]]:
    """All subsets of {1..n} ordered by (size, lex); `proper` drops {1..n} itself."""
    kmax = n - 1 if proper else n
    out: list[tuple[int, ...]] = []
    for k in range(kmax + 1):
        out.extend(itertools.combinations(range(1, n + 1), k))
    return out


@memoized
def _class_supports(d: RootDatum) -> tuple[tuple[int, int], ...]:
    """Every class of X/Q as a pair (support, order): the support as a
    bitmask (bit i - 1 for alpha_i), the order that of the class in X/Q.

    `_inverse_roots` gives R^(-T) = N / den for R = `_roots_in_basis`.
    A character x (column, char-lattice basis) has simple-root coordinates
    N x / den, so x -> N x mod den has kernel exactly Q: X/Q is the subgroup
    of (Z/den)^n spanned by the columns of N mod den, and a class's support
    is the set of its nonzero coordinates. pi0(Z(L_S)) is the subgroup of
    the classes whose support lies in S: the torsion of X / ZPhi_S maps
    injectively (Q meets QPhi_S in ZPhi_S) onto them. |X/Q| <= 2^n.
    """
    n = d.rank
    num, den, _ = _inverse_roots(d)
    zero = (0,) * n
    elements, seen = [zero], {zero}
    for j in range(n):
        g = tuple(v % den for v in num.column(j))
        # H + <g> is the union of the cosets H + k g, for k up to the first
        # multiple of g that lands in a coset already listed
        subgroup, step = list(elements), g
        while step not in seen:
            for h in subgroup:
                x = tuple((a + b) % den for a, b in zip(h, step))
                seen.add(x)
                elements.append(x)
            step = tuple((a + b) % den for a, b in zip(step, g))
    return tuple((sum(1 << i for i, v in enumerate(x) if v), den // math.gcd(den, *x))
                 for x in elements)


def levi_pi0(d: RootDatum, levi: Iterable[int]) -> InvariantFactors:
    """Invariant factors of pi0(Z(L_S)) for S = `levi`, read from X/Q; no SNF.

    The group is made of the classes whose support lies in S
    (`_class_supports`), and a finite abelian group is fixed by its element
    orders: for a prime p, the classes killed by p^j number
    p^(r_1 + ... + r_j), where r_j counts the invariant factors that p^j
    divides, so p^j divides the r_j largest ones.
    """
    mask = sum(1 << (i - 1) for i in _normalize_levi(d, levi))
    orders = [o for m, o in _class_supports(d) if m | mask == mask]
    top = [1] * len(orders).bit_length()  # the invariant factors, largest first
    rest, p = max(orders), 2  # an abelian group's exponent is its largest order
    while rest > 1:
        power, killed = 1, 1
        while rest % p == 0:
            rest, power = rest // p, power * p
            step = sum(1 for o in orders if power % o == 0) // killed  # p^(r_j)
            killed *= step
            top = [f * p if step > p**i else f for i, f in enumerate(top)]
        p += 1
    return InvariantFactors(tuple(f for f in reversed(top) if f > 1))


def proper_pi0_witness(d: RootDatum) -> tuple[int, ...] | None:
    """First proper Levi set (by size, then lex) whose center has nontrivial pi0.

    Read from X/Q without an SNF: it is the (size, lex)-least nonempty
    proper support of a class. A set S has nontrivial pi0 exactly when it
    contains the support T of a nonzero class, and then |S| >= |T|, with
    equality only for S = T.
    """
    n = d.rank
    supports = [tuple(i + 1 for i in range(n) if m >> i & 1)
                for m, _ in _class_supports(d) if 0 < m < (1 << n) - 1]
    return min(supports, key=lambda s: (len(s), s), default=None)


def witness_gate(d: RootDatum) -> None:
    """Raise NontrivialPi0 when some proper Levi center is disconnected.

    The witness and its component group are both read from X/Q
    (`proper_pi0_witness`, `levi_pi0`), so no request runs a Smith form
    here; `uctop check` compares X/Q with the Levi SNFs at every S. It
    reads no homology, so a refused request never loads that code.
    """
    witness = proper_pi0_witness(d)
    if witness is not None:
        raise NontrivialPi0(witness, levi_pi0(d, witness).factors)
