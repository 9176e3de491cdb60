"""Exact integer and rational matrix primitives.

All arithmetic is arbitrary precision: integer matrices hold Python ints,
rational matrices hold sparse integer rows over per-row denominators (always
in lowest terms, positive denominators). Matrices are immutable value
objects; every operation returns a new value, so everything here is safe to
use concurrently.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Iterator, Sequence
from fractions import Fraction

from ._value import Frozen, setfield

__all__ = [
    "IntMatrix",
    "RatMatrix",
    "InvariantFactors",
    "snf",
    "rank",
    "rank_mod_p",
    "compound",
    "exterior_powers",
]


class IntMatrix(Frozen):
    """Immutable integer matrix, entries stored row-major."""

    __slots__ = _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        setfield(self, "rows", rows)
        setfield(self, "cols", cols)
        setfield(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> IntMatrix:
        """Build from a list of rows; ``cols`` is required when there are no rows."""
        rows = [list(r) for r in rows]
        return cls(len(rows), _width(rows, cols), tuple(int(e) for r in rows for e in r))

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> IntMatrix:
        return cls(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> IntMatrix:
        ent = tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows))
        return IntMatrix(self.cols, self.rows, ent)

    def mul(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        ent = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                ent.append(sum(ri[k] * other.at(k, j) for k in range(self.cols) if ri[k]))
        return IntMatrix(self.rows, other.cols, tuple(ent))

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def solve(self, rhs: IntMatrix) -> tuple[IntMatrix, int]:
        """Exact solution X of self . X = rhs, as (N, den) with X = N / den.

        Fraction-free (Bareiss) Gauss-Jordan on the augmented matrix: every
        intermediate entry is a minor of it, so each division is exact, and
        the left block ends as det . I. `den` is positive and shares no
        factor with all of N. Raises ValueError when self is singular.
        """
        n = self.rows
        if self.cols != n or rhs.rows != n:
            raise ValueError("solve needs a square matrix and a matching right side")
        a = [list(self.row(i)) + list(rhs.row(i)) for i in range(n)]
        prev = 1
        for c in range(n):
            piv = next((i for i in range(c, n) if a[i][c]), None)
            if piv is None:
                raise ValueError("matrix is singular")
            a[c], a[piv] = a[piv], a[c]
            pr = a[c]
            p = pr[c]
            for i in range(n):
                if i != c:
                    e = a[i][c]
                    a[i] = [(p * x - e * y) // prev for x, y in zip(a[i], pr)]
            prev = p
        num = [e for row in a for e in row[n:]]
        g = math.gcd(prev, *num)
        if prev < 0:
            g = -g
        return IntMatrix(n, rhs.cols, tuple(e // g for e in num)), prev // g

    def to_rational(self, den: int = 1) -> RatMatrix:
        """This matrix divided by `den`, as a rational matrix."""
        num = tuple(
            {j: e for j, e in enumerate(self.row(i)) if e} for i in range(self.rows)
        )
        return RatMatrix(self.rows, self.cols, num, (den,) * self.rows)


def _width(rows: list[list], cols: int | None) -> int:
    """Common row width, checked against `cols`; `cols` (or 0) when there are no rows."""
    if not rows:
        return cols or 0
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows")
    if cols is not None and cols != width:
        raise ValueError("cols does not match row width")
    return width


class RatMatrix(Frozen):
    """Immutable sparse rational matrix: integer rows over per-row denominators.

    Row i holds the value ``num[i][j] / den[i]`` at each column j in
    ``num[i]``; every other entry is zero. Rows are kept in lowest terms
    (positive denominator, no factor shared by it and all the row's
    numerators, no stored zeros), so equal matrices compare equal. The
    numerator rows alone are the matrix with its denominators cleared row by
    row, which scales each row by a nonzero rational and keeps the rank.
    The rows are dicts, so values are not hashable.
    """

    __slots__ = _fields = ("rows", "cols", "num", "den")
    __hash__ = None

    def __init__(
        self, rows: int, cols: int, num: tuple[dict[int, int], ...], den: tuple[int, ...]
    ) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(num) != rows or len(den) != rows:
            raise ValueError(f"expected {rows} rows and denominators")
        lowest, dens = [], []
        for row, d in zip(num, den):
            if d == 0:
                raise ValueError("row denominator must be nonzero")
            if any(j < 0 or j >= cols for j in row):
                raise ValueError("column index out of range")
            row = {j: v for j, v in row.items() if v}
            g = math.gcd(d, *row.values()) if row else abs(d)
            if d < 0:
                g = -g
            lowest.append({j: v // g for j, v in row.items()})
            dens.append(d // g)
        setfield(self, "rows", rows)
        setfield(self, "cols", cols)
        setfield(self, "num", tuple(lowest))
        setfield(self, "den", tuple(dens))

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[Fraction | int]], cols: int | None = None
    ) -> RatMatrix:
        rows = [[Fraction(e) for e in r] for r in rows]
        cols = _width(rows, cols)
        num, den = [], []
        for row in rows:
            d = math.lcm(*(e.denominator for e in row))
            num.append({j: e.numerator * (d // e.denominator) for j, e in enumerate(row) if e})
            den.append(d)
        return cls(len(rows), cols, tuple(num), tuple(den))

    @classmethod
    def identity(cls, n: int) -> RatMatrix:
        return cls(n, n, tuple({i: 1} for i in range(n)), (1,) * n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> RatMatrix:
        return cls(rows, cols, ({},) * rows, (1,) * rows)

    def at(self, i: int, j: int) -> Fraction:
        return Fraction(self.num[i].get(j, 0), self.den[i])

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(e for i in range(self.rows) for e in self.row(i))

    def row(self, i: int) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.cols
        d = self.den[i]
        for j, v in self.num[i].items():
            out[j] = Fraction(v, d)
        return tuple(out)

    def to_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def mul(self, other: RatMatrix) -> RatMatrix:
        """Exact sparse product, computed in integers."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        # bring other's rows to one denominator m, then each product row
        # is an integer combination of them over den[i] * m
        m = math.lcm(*other.den)
        scale = [m // d for d in other.den]
        num = []
        for row in self.num:
            acc: dict[int, int] = {}
            for k, a in row.items():
                f = a * scale[k]
                for j, b in other.num[k].items():
                    acc[j] = acc.get(j, 0) + f * b
            num.append(acc)
        return RatMatrix(self.rows, other.cols, tuple(num), tuple(d * m for d in self.den))

    def is_zero(self) -> bool:
        return not any(self.num)

    def det(self) -> Fraction:
        """Exact determinant: fraction-free (Bareiss) elimination of the
        numerator rows, over the product of the row denominators."""
        n = self.rows
        if self.cols != n:
            raise ValueError("determinant requires a square matrix")
        a = [[row.get(j, 0) for j in range(n)] for row in self.num]
        sign = prev = 1
        for c in range(n):
            piv = next((i for i in range(c, n) if a[i][c]), None)
            if piv is None:
                return Fraction(0)
            if piv != c:
                a[c], a[piv] = a[piv], a[c]
                sign = -sign
            pr = a[c]
            for i in range(c + 1, n):
                e = a[i][c]
                a[i] = [(pr[c] * x - e * y) // prev for x, y in zip(a[i], pr)]
            prev = pr[c]
        return Fraction(sign * prev, math.prod(self.den))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> RatMatrix:
        cols = list(col_idx)
        num = tuple({k: self.num[i][j] for k, j in enumerate(cols) if j in self.num[i]}
                    for i in row_idx)
        return RatMatrix(len(num), len(cols), num, tuple(self.den[i] for i in row_idx))


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
    # v accumulates the column operations; its trailing columns end up
    # spanning the integer kernel.
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]
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
                    for i in range(nc):
                        if v[i][t]:
                            v[i][j] -= q * v[i][t]
                if a[t][j]:
                    for i in range(nr):
                        a[i][t], a[i][j] = a[i][j], a[i][t]
                    for i in range(nc):
                        v[i][t], v[i][j] = v[i][j], v[i][t]
                    changed = True
            if changed:
                continue
            # pivot must divide every entry of the trailing block
            bad = _nondivisible(a, nr, nc, t)
            if bad is None:
                break
            a[t] = [e + f for e, f in zip(a[t], a[bad])]
        diag.append(a[t][t])
        t += 1
    rank_ = len(diag)
    kernel = IntMatrix.from_rows([row[rank_:] for row in v], cols=nc - rank_)
    return InvariantFactors(tuple(d for d in diag if d >= 2)), kernel


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
        for i in range(len(v)):
            v[i][t], v[i][pj] = v[i][pj], v[i][t]


def _nondivisible(a, nr, nc, t):
    d = a[t][t]
    for i in range(t + 1, nr):
        for j in range(t + 1, nc):
            if a[i][j] % d:
                return i
    return None


def rank(m: RatMatrix | IntMatrix) -> int:
    """Rank over the rationals, by sparse elimination on the numerator rows
    (the matrix with its denominators cleared row by row, same rank)."""
    if isinstance(m, IntMatrix):
        m = m.to_rational()
    return _sparse_rank(m.num, None)


def rank_mod_p(m: RatMatrix, p: int) -> int:
    """Rank over F_p of m with its denominators cleared row by row (p prime).

    Never exceeds rank(m): a minor that is nonzero mod p is a nonzero integer,
    and clearing a row's denominator scales it by a nonzero rational. For a
    fixed integer matrix the two ranks differ only when p divides every
    maximal nonzero minor.
    """
    return _sparse_rank(m.num, p)


def _sparse_rank(rows: Sequence[dict[int, int]], p: int | None) -> int:
    """Rank of integer rows (column -> value) over Q when p is None, else F_p.

    Each row is reduced against the pivot rows found so far, always at its
    leftmost column, and becomes a new pivot row if anything is left. Rows
    go sparsest first, which keeps the fill-in down.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        cur = dict(row) if p is None else {j: v % p for j, v in row.items() if v % p}
        while cur:
            c = min(cur)
            piv = pivots.get(c)
            if piv is None:
                if p is not None:
                    inv = pow(cur[c], -1, p)
                    cur = {j: v * inv % p for j, v in cur.items()}
                pivots[c] = cur
                break
            e = cur[c]
            if p is None:
                # pc * cur - e * piv clears column c; dividing out the
                # content keeps the integers small
                pc = piv[c]
                new = {j: pc * v for j, v in cur.items()}
                for j, v in piv.items():
                    x = new.get(j, 0) - e * v
                    if x:
                        new[j] = x
                    else:
                        new.pop(j, None)
                g = math.gcd(*new.values()) if new else 1
                cur = {j: v // g for j, v in new.items()} if g > 1 else new
            else:
                # pivot rows are monic, so this clears column c
                for j, v in piv.items():
                    x = (cur.get(j, 0) - e * v) % p
                    if x:
                        cur[j] = x
                    else:
                        cur.pop(j, None)
    return len(pivots)


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


def _subset_index(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Lexicographic position of each k-subset of range(n)."""
    return {sub: i for i, sub in enumerate(itertools.combinations(range(n), k))}


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

