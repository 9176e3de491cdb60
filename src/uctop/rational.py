"""Sparse exact rational matrices: the Cech differentials, with their rank
over Q.

A rational matrix holds sparse integer rows over per-row denominators, always
in lowest terms. Only the homology path and `check` use these, so a command
that reads no homology does not load this module. No command loads
`fractions` either: only `from_rows` and the entry readers (`row`, `entries`,
`to_lists`), which the tests and the benchmark ladder call, import it.
Matrices are immutable values, so everything here is safe to use
concurrently.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence

from ._value import Frozen, setfield
from .matrices import IntMatrix, _width

__all__ = ["RatMatrix", "rank"]


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
            if row and (min(row) < 0 or max(row) >= cols):
                raise ValueError("column index out of range")
            row = {j: v for j, v in row.items() if v}
            g = math.gcd(d, *row.values())
            if d < 0:
                g = -g
            lowest.append({j: v // g for j, v in row.items()} if g != 1 else row)
            dens.append(d // g)
        setfield(self, "rows", rows)
        setfield(self, "cols", cols)
        setfield(self, "num", tuple(lowest))
        setfield(self, "den", tuple(dens))

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[Fraction | int]], cols: int | None = None
    ) -> RatMatrix:
        from fractions import Fraction

        rows = [[Fraction(e) for e in r] for r in rows]
        cols = _width(rows, cols)
        num, den = [], []
        for row in rows:
            d = math.lcm(*(e.denominator for e in row))
            num.append({j: e.numerator * (d // e.denominator) for j, e in enumerate(row) if e})
            den.append(d)
        return cls(len(rows), cols, tuple(num), tuple(den))

    @classmethod
    def from_int(cls, m: IntMatrix, den: int = 1) -> RatMatrix:
        """The integer matrix `m` divided by `den`."""
        num = tuple({j: e for j, e in enumerate(m.row(i)) if e} for i in range(m.rows))
        return cls(m.rows, m.cols, num, (den,) * m.rows)

    @classmethod
    def identity(cls, n: int) -> RatMatrix:
        return cls(n, n, tuple({i: 1} for i in range(n)), (1,) * n)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(e for i in range(self.rows) for e in self.row(i))

    def row(self, i: int) -> tuple[Fraction, ...]:
        from fractions import Fraction

        out = [Fraction(0)] * self.cols
        d = self.den[i]
        for j, v in self.num[i].items():
            out[j] = Fraction(v, d)
        return tuple(out)

    def to_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def mul(self, other: RatMatrix) -> RatMatrix:
        """Exact sparse product, computed in integers."""
        # bring other's rows to one denominator m, then each product row
        # is an integer combination of them over den[i] * m
        m = math.lcm(*other.den)
        num = tuple(self._product_rows(other, m))
        return RatMatrix(self.rows, other.cols, num, tuple(d * m for d in self.den))

    def mul_is_zero(self, other: RatMatrix) -> bool:
        """Whether self . other == 0, exactly, without building the product."""
        rows = self._product_rows(other, math.lcm(*other.den))
        return not any(any(row.values()) for row in rows)

    def _product_rows(self, other: RatMatrix, m: int) -> Iterator[dict[int, int]]:
        """The rows of den[i] * m * (self . other), m a common multiple of other.den."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        scale = [m // d for d in other.den]
        for row in self.num:
            acc: dict[int, int] = {}
            for k, a in row.items():
                f = a * scale[k]
                for j, b in other.num[k].items():
                    acc[j] = acc.get(j, 0) + f * b
            yield acc

    def is_zero(self) -> bool:
        return not any(self.num)


def rank(m: RatMatrix | IntMatrix) -> int:
    """Rank over the rationals, by sparse elimination on the numerator rows
    (the matrix with its denominators cleared row by row, same rank)."""
    if isinstance(m, IntMatrix):
        rows = [{j: e for j, e in enumerate(m.row(i)) if e} for i in range(m.rows)]
        return len(_pivot_rows(rows))
    return len(_pivot_rows(m.num))


def _pivot_rows(rows: Sequence[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Echelon form over Q of integer rows (column -> value): its rows keyed
    by leading column, each a rational combination of the given rows that is
    zero left of its key. Their count is the rank.

    Each row is reduced against the pivot rows found so far, always at its
    leftmost column, and becomes a new pivot row if anything is left. Rows
    go sparsest first, which keeps the fill-in down.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        cur = dict(row)
        while cur:
            c = min(cur)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = cur
                break
            # pc * cur - e * piv clears column c; dividing out the content
            # keeps the integers small
            pc, e = piv[c], cur[c]
            new = {j: pc * v for j, v in cur.items()}
            for j, v in piv.items():
                x = new.get(j, 0) - e * v
                if x:
                    new[j] = x
                else:
                    new.pop(j, None)
            g = math.gcd(*new.values()) if new else 1
            cur = {j: v // g for j, v in new.items()} if g > 1 else new
    return pivots


def _subset_index(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Lexicographic position of each k-subset of range(n)."""
    return {sub: i for i, sub in enumerate(itertools.combinations(range(n), k))}
