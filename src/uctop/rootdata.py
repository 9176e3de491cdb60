"""Root systems, isogeny lattices and the invariants read without a Smith form.

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

The Levi centers, the invariant form and the refusal witness are in
`uctop.levi`, which `info` does not load.
"""

from __future__ import annotations

import functools
import math

from ._value import Frozen, setfield
from .matrices import IntMatrix

__all__ = [
    "CartanType",
    "RootDatum",
    "cartan_matrix",
    "build_datum",
    "center_order",
    "weyl_order",
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


def center_order(d: RootDatum) -> int:
    """Order of the center of the group: |Z| = |X/Q| = |det R|.

    R = `_roots_in_basis` presents X/Q (X the character lattice, Q the root
    lattice), so its determinant is the order of the S = Pi component group
    with no Smith form and no enumeration of X/Q. It is read from the
    elimination `_inverse_roots` runs for the classes of X/Q.
    """
    return abs(_inverse_roots(d)[2])


@memoized
def _inverse_roots(d: RootDatum) -> tuple[IntMatrix, int, int]:
    """(N, den, det R) with R^(-T) = N / den, for R = `_roots_in_basis`: one
    fraction-free solve of R^T X = I, whose elimination also ends with det R.
    R = I (the adjoint form's own basis) needs no solve."""
    r, identity = _roots_in_basis(d), IntMatrix.identity(d.rank)
    if r == identity:
        return identity, 1, 1
    return r.transpose().solve(identity)

