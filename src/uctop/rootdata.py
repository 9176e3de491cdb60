"""Root systems, isogeny lattices, Levi centers and the refusal witness.

Conventions, fixed once for the whole library:

* Simple roots are numbered 1..n, Bourbaki labels inside each simple factor,
  factors concatenated in the order given.
* The Cartan matrix row A[i] holds the fundamental-weight coordinates of the
  simple root alpha_i, i.e. A[i][j] = <alpha_i, alpha_j^vee>.
* A root datum is a Cartan type plus a basis of the character lattice written
  in fundamental-weight coordinates (rows of `char_lattice`): the adjoint
  form uses the Cartan matrix rows, the simply connected form the identity.
* Cocharacters are written in the basis of the cocharacter lattice dual to
  the `char_lattice` rows, so <char-basis row i, cochar coordinate vector c>
  is simply c[i].
* The invariant form on the cocharacter space is the symmetrized Cartan
  matrix D.A (minimal positive integer D per simple factor), expressed in the
  simple-coroot basis. Orthogonal projections are insensitive to the
  per-factor scaling.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable

from ._value import Frozen, setfield
from .errors import NontrivialPi0, UctopError, format_levi
from .matrices import IntMatrix, InvariantFactors, snf

__all__ = [
    "CartanType",
    "RootDatum",
    "CenterData",
    "cartan_matrix",
    "build_datum",
    "center_of_levi",
    "center_order",
    "invariant_form",
    "weyl_order",
    "levi_root_matrix",
    "proper_pi0_witness",
    "witness_gate",
    "QuotientSupports",
    "quotient_supports",
    "all_levi_subsets",
]

_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class CartanType(Frozen):
    """A product of simple Cartan types, e.g. (('A', 1), ('A', 2))."""

    __slots__ = _fields = ("factors",)

    def __init__(self, factors: tuple[tuple[str, int], ...]) -> None:
        if not factors:
            raise ValueError("a Cartan type needs at least one simple factor")
        for letter, rk in factors:
            if letter not in _RANK_BOUNDS:
                raise ValueError(f"unknown Cartan letter {letter!r}")
            lo, hi = _RANK_BOUNDS[letter]
            if rk < lo or (hi is not None and rk > hi):
                bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
                raise ValueError(f"type {letter} requires rank {bound}, got {rk}")
        setfield(self, "factors", factors)

    @property
    def rank(self) -> int:
        return sum(rk for _, rk in self.factors)

    def __str__(self) -> str:
        return "x".join(f"{letter}{rk}" for letter, rk in self.factors)


def cartan_matrix(t: CartanType) -> IntMatrix:
    """Block-diagonal Cartan matrix, Bourbaki labeling within each factor."""
    n = t.rank
    a = [[0] * n for _ in range(n)]
    off = 0
    for letter, rk in t.factors:
        block = _simple_cartan_block(letter, rk)
        for i in range(rk):
            for j in range(rk):
                a[off + i][off + j] = block[i][j]
        off += rk
    return IntMatrix.from_rows(a, cols=n)


def _simple_cartan_block(letter: str, n: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i: int, j: int) -> None:
        a[i][j] = -1
        a[j][i] = -1

    if letter in ("A", "B", "C"):
        for i in range(n - 1):
            edge(i, i + 1)
        if letter == "B":
            a[n - 2][n - 1] = -2  # alpha_n is the short root
        elif letter == "C":
            a[n - 1][n - 2] = -2  # alpha_n is the long root
    elif letter == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 3, n - 1)
    elif letter == "E":
        chain = [0] + list(range(2, n))
        for x, y in zip(chain, chain[1:]):
            edge(x, y)
        edge(1, 3)  # node 2 hangs off node 4
    elif letter == "F":
        edge(0, 1)
        edge(1, 2)
        edge(2, 3)
        a[1][2] = -2  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
    elif letter == "G":
        edge(0, 1)
        a[1][0] = -3  # alpha_1 short, alpha_2 long
    return a


_WEYL_SIMPLE = {
    "E": {6: 51840, 7: 2903040, 8: 696729600},
    "F": {4: 1152},
    "G": {2: 12},
}


def weyl_order(t: CartanType) -> int:
    """Order of the Weyl group: product of the classical per-factor orders."""
    total = 1
    for letter, rk in t.factors:
        if letter == "A":
            total *= math.factorial(rk + 1)
        elif letter in ("B", "C"):
            total *= 2**rk * math.factorial(rk)
        elif letter == "D":
            total *= 2 ** (rk - 1) * math.factorial(rk)
        else:
            total *= _WEYL_SIMPLE[letter][rk]
    return total


class RootDatum(Frozen):
    """Cartan type plus a character-lattice basis in fundamental-weight coordinates.

    What is computed from a datum is cached on it and freed with it; equal
    datums built separately do not share a cache."""

    _fields = ("cartan_type", "char_lattice")
    __slots__ = _fields + ("_memo",)

    def __init__(self, cartan_type: CartanType, char_lattice: IntMatrix) -> None:
        setfield(self, "cartan_type", cartan_type)
        setfield(self, "char_lattice", char_lattice)
        setfield(self, "_memo", {})

    @property
    def rank(self) -> int:
        return self.cartan_type.rank

    def is_adjoint(self) -> bool:
        """True when the character lattice is the root lattice (any basis)."""
        return abs(self.char_lattice.det()) == abs(cartan_matrix(self.cartan_type).det())

    def is_simply_connected(self) -> bool:
        """True when the character lattice is the full weight lattice (any basis)."""
        return abs(self.char_lattice.det()) == 1


def memoized(fn):
    """Cache fn(d, *args) on the datum d, so the value lives exactly as long as d."""

    @functools.wraps(fn)
    def cached(d: RootDatum, *args):
        key = (fn, *args)
        return d._memo[key] if key in d._memo else d._memo.setdefault(key, fn(d, *args))

    return cached


def build_datum(t: CartanType, isogeny: str | IntMatrix) -> RootDatum:
    """Construct a root datum for the named isogeny type or an explicit lattice.

    `isogeny` is "adjoint", "sc", or an n x n integer basis matrix (rows in
    fundamental-weight coordinates) that must sit between the root lattice
    and the weight lattice.
    """
    n = t.rank
    if isinstance(isogeny, str):
        if isogeny == "adjoint":
            return RootDatum(t, cartan_matrix(t))
        if isogeny == "sc":
            return RootDatum(t, IntMatrix.identity(n))
        raise ValueError(f"unknown isogeny {isogeny!r}")
    if isogeny.rows != n or isogeny.cols != n:
        raise ValueError(f"lattice basis must be {n}x{n} for this type")
    d = RootDatum(t, isogeny)
    _roots_in_basis(d)  # raises unless the basis is regular and holds every root
    return d


@memoized
def _roots_in_basis(d: RootDatum) -> IntMatrix:
    """R = A . L^(-1): row i writes the simple root alpha_i in the char-lattice basis.

    The bases `build_datum` gives the named isogenies need no solve: L = A
    gives R = I and L = I gives R = A. Any other basis takes one
    fraction-free solve of L^T X = A^T. The solution comes back in lowest
    terms, so R is integral exactly when its denominator is 1, i.e. when the
    lattice contains the root lattice.
    """
    cartan, identity = cartan_matrix(d.cartan_type), IntMatrix.identity(d.rank)
    if d.char_lattice == cartan:
        return identity
    if d.char_lattice == identity:
        return cartan
    try:
        x, den, _ = d.char_lattice.transpose().solve(cartan.transpose())
    except ValueError:
        raise ValueError("lattice basis matrix is singular") from None
    if den != 1:
        raise ValueError(
            "lattice does not contain the root lattice: some simple root is "
            "not an integer combination of the basis rows"
        )
    return x.transpose()


class CenterData(Frozen):
    """Invariants of the center Z(L_S) of a standard Levi subgroup.

    `pi0` is the component group (as invariant factors), `cochar_basis` holds
    a basis of the cocharacter lattice of the center as columns (coordinates
    dual to the char-lattice rows), and `dim` is its dimension n - |S|.
    """

    __slots__ = _fields = ("pi0", "cochar_basis", "dim")

    def __init__(self, pi0: InvariantFactors, cochar_basis: IntMatrix, dim: int) -> None:
        setfield(self, "pi0", pi0)
        setfield(self, "cochar_basis", cochar_basis)
        setfield(self, "dim", dim)


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


def center_order(d: RootDatum) -> int:
    """Order of the center of the group: |Z| = |X/Q| = |det R|.

    R = `_roots_in_basis` presents X/Q (X the character lattice, Q the root
    lattice), so its determinant is the order of the S = Pi component group
    with no Smith form and no enumeration of X/Q. It is read from the
    elimination `_inverse_roots` runs for the classes of X/Q.
    """
    return abs(_inverse_roots(d)[2])


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


class QuotientSupports(Frozen):
    """Support sizes of the classes of X/Q (X the character lattice, Q the
    root lattice).

    The support of a class is the set of simple roots at which its
    simple-root coordinates are not integers. `sizes[k]` counts the classes
    whose support has k elements, and `witness` is the least nonempty proper
    support by (size, lex), or None when there is none.
    """

    __slots__ = _fields = ("sizes", "witness")

    def __init__(self, sizes: tuple[int, ...], witness: tuple[int, ...] | None) -> None:
        setfield(self, "sizes", sizes)
        setfield(self, "witness", witness)


@memoized
def _inverse_roots(d: RootDatum) -> tuple[IntMatrix, int, int]:
    """(N, den, det R) with R^(-T) = N / den, for R = `_roots_in_basis`: one
    fraction-free solve of R^T X = I, whose elimination also ends with det R.
    R = I (the adjoint form's own basis) needs no solve."""
    r, identity = _roots_in_basis(d), IntMatrix.identity(d.rank)
    if r == identity:
        return identity, 1, 1
    return r.transpose().solve(identity)


def _class_supports(d: RootDatum) -> list[int]:
    """The support of every class of X/Q as a bitmask (bit i - 1 for alpha_i).

    `_inverse_roots` gives R^(-T) = N / den for R = `_roots_in_basis`.
    A character x (column, char-lattice basis) has simple-root coordinates
    N x / den, so x -> N x mod den has kernel exactly Q: X/Q is the subgroup
    of (Z/den)^n spanned by the columns of N mod den, and a class's support
    is the set of its nonzero coordinates.
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
    return [sum(1 << i for i, v in enumerate(x) if v) for x in elements]


@memoized
def quotient_supports(d: RootDatum) -> QuotientSupports:
    """Support-size histogram and least proper support of X/Q; no SNF.

    |pi0(Z(L_S))| is the number of classes whose support lies in S, since
    the torsion of X / ZPhi_S maps injectively into X/Q (Q meets QPhi_S in
    ZPhi_S) onto exactly those classes. |X/Q| = |det R| <= 2^n.
    """
    n = d.rank
    full = (1 << n) - 1
    sizes = [0] * (n + 1)
    witness = None
    for mask in _class_supports(d):
        sizes[mask.bit_count()] += 1
        if mask and mask != full:
            s = tuple(i + 1 for i in range(n) if mask >> i & 1)
            if witness is None or (len(s), s) < (len(witness), witness):
                witness = s
    return QuotientSupports(tuple(sizes), witness)


def proper_pi0_witness(d: RootDatum) -> tuple[int, ...] | None:
    """First proper Levi set (by size, then lex) whose center has nontrivial pi0.

    Read from X/Q without an SNF: it is the (size, lex)-least nonempty
    proper support of a class. A set S has nontrivial pi0 exactly when it
    contains the support T of a nonzero class, and then |S| >= |T|, with
    equality only for S = T.
    """
    return quotient_supports(d).witness


def witness_gate(d: RootDatum) -> None:
    """Raise NontrivialPi0 when some proper Levi center is disconnected.

    The witness comes from X/Q (`proper_pi0_witness`) and its component
    group from its Levi SNF; UctopError is raised when the two routes
    disagree there. It reads no homology, so a refused request never loads
    that code.
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
