"""Exact integer matrix primitives, all arbitrary precision.

Integer matrices hold Python ints; their determinants and solves run one
fraction-free (Bareiss) elimination, whose every entry is an integer minor.
The Smith normal form is in `uctop.levi`, and the sparse rational matrices
of the homology in `uctop.rational`; `info` loads neither. Matrices are
immutable values, so everything here is safe to use concurrently.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence

from ._value import Frozen, setfield

__all__ = ["IntMatrix"]


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

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> IntMatrix:
        ent = tuple(e for j in range(self.cols) for e in self.column(j))
        return IntMatrix(self.cols, self.rows, ent)

    def mul(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        rows = [self.row(i) for i in range(self.rows)]
        cols = [other.column(j) for j in range(other.cols)]
        ent = tuple(sum(map(operator.mul, r, c)) for r in rows for c in cols)
        return IntMatrix(self.rows, other.cols, ent)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_positive_definite(self) -> bool:
        """Sylvester's criterion, for a symmetric matrix: every leading
        principal minor is positive."""
        rows = self.to_lists()
        return all(
            IntMatrix.from_rows([r[:k] for r in rows[:k]]).det() > 0
            for k in range(1, self.rows + 1)
        )

    def det(self) -> int:
        """Exact determinant, by the elimination `solve` runs."""
        if self.cols != self.rows:
            raise ValueError("determinant requires a square matrix")
        pivot, sign = _bareiss(self.to_lists(), self.rows)
        return sign * pivot

    def solve(self, rhs: IntMatrix) -> tuple[IntMatrix, int, int]:
        """Exact solution X of self . X = rhs, as (N, den, det) with X = N / den
        and det the determinant of self.

        One `_bareiss` run on the augmented matrix leaves its left block as
        (+-det) . I. `den` is positive and shares no factor with all of N.
        Raises ValueError when self is singular.
        """
        n = self.rows
        if self.cols != n or rhs.rows != n:
            raise ValueError("solve needs a square matrix and a matching right side")
        a = [list(self.row(i)) + list(rhs.row(i)) for i in range(n)]
        pivot, sign = _bareiss(a, n)
        if not pivot:
            raise ValueError("matrix is singular")
        num = [e for row in a for e in row[n:]]
        g = math.gcd(pivot, *num)
        if pivot < 0:
            g = -g
        return IntMatrix(n, rhs.cols, tuple(e // g for e in num)), pivot // g, sign * pivot


def _bareiss(a: list[list[int]], n: int) -> tuple[int, int]:
    """Fraction-free (Bareiss) Gauss-Jordan on the first n columns of the n
    rows `a`, in place; each pivot is the first nonzero entry at or below the
    diagonal. Every intermediate entry is a minor of the input, so each
    division is exact, and the n x n block ends as (last pivot) . I. A row
    whose entry in the pivot column is already 0 is only rescaled by
    pivot / previous pivot, and left alone when the two are equal.

    Returns (last pivot, swap sign), whose product is the determinant of the
    block; the pivot is 0, with `a` left part-way, when the block is singular.
    """
    sign = prev = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0, sign
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        pr = a[c]
        p = pr[c]
        for i in range(n):
            if i == c:
                continue
            e = a[i][c]
            if e:
                a[i] = [(p * x - e * y) // prev for x, y in zip(a[i], pr)]
            elif p != prev:  # the same integers as the full update with e = 0
                a[i] = [p * x // prev for x in a[i]]
        prev = p
    return prev, sign


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
