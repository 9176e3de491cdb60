"""Brute-force oracles that only the tests read.

Like `uctop.oracles`, whose determinant and minor gcds they build on, they
avoid the library's elimination code paths: literal coset enumeration for
torsion groups, minor-gcd determinantal divisors of a whole matrix, plain
fraction pivoting for ranks, and Cramer's rule for solves and orthogonal
projections. The module imports only the standard library and
`uctop.oracles`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from uctop.oracles import leibniz_det, minor_gcds, subset_divisor_data


def determinantal_divisor_data(rows, cols=None):
    """(nontrivial invariant factors, rank) from gcds of all k x k minors."""
    return subset_divisor_data(minor_gcds(rows, cols), tuple(range(len(rows))))


def unrestricted_minor_gcds(rows, cols=None, size=None):
    """`minor_gcds` as a Leibniz sum over every column set, zero columns
    included: the reference its skipping of zero minors is tested against."""
    nr = len(rows)
    nc = len(rows[0]) if rows else (cols or 0)
    table = {}
    for k in range(min(nr, nr if size is None else size) + 1):
        for ridx in itertools.combinations(range(nr), k):
            g = 0
            for cidx in itertools.combinations(range(nc), k):
                g = math.gcd(g, leibniz_det([[rows[i][j] for j in cidx] for i in ridx]))
            table[ridx] = g
    return table


def _adjugate(rows):
    n = len(rows)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [
                [rows[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            adj[i][j] = (-1) ** (i + j) * leibniz_det(sub)
    return adj


def coset_invariant_factors(rows, order_bound=64):
    """Invariant factors of Z^n / row-span by literal coset enumeration.

    Only for square matrices with 0 < |det| <= order_bound. Enumerates the
    quotient group element by element, counts m-torsion for every divisor m,
    and searches the (unique) divisibility chain reproducing those counts.
    """
    n = len(rows)
    det = leibniz_det(rows)
    if det == 0:
        raise ValueError("coset enumeration needs a nonsingular matrix")
    order = abs(det)
    if order > order_bound:
        raise ValueError(f"quotient order {order} exceeds bound {order_bound}")
    adj = _adjugate(rows)

    def in_row_span(vec):
        # vec = u . rows with integer u iff vec . adj is divisible by det
        return all(
            sum(vec[i] * adj[i][j] for i in range(n)) % det == 0 for j in range(n)
        )

    reps = [tuple([0] * n)]
    frontier = [reps[0]]
    while frontier:
        base = frontier.pop()
        for axis in range(n):
            cand = list(base)
            cand[axis] = (cand[axis] + 1) % (order if order else 1)
            cand = tuple(cand)
            if not any(
                in_row_span([a - b for a, b in zip(cand, rep)]) for rep in reps
            ):
                reps.append(cand)
                frontier.append(cand)
    assert len(reps) == order, "coset count must equal |det|"

    def torsion_count(m):
        return sum(
            1 for rep in reps if in_row_span([m * x for x in rep])
        )

    divisors = [m for m in range(1, order + 1) if order % m == 0]
    counts = {m: torsion_count(m) for m in divisors}
    matches = [
        chain
        for chain in _divisor_chains(order, n)
        if all(
            counts[m] == math.prod(math.gcd(m, d) for d in chain) for m in divisors
        )
    ]
    assert len(matches) == 1, f"torsion counts must pin down the group: {matches}"
    return tuple(d for d in matches[0] if d >= 2)


def _divisor_chains(order, length):
    """All tuples (d_1, ..., d_length) with d_i | d_(i+1) and product = order."""
    if length == 0:
        return [()] if order == 1 else []
    out = []

    def rec(remaining, min_div, prefix):
        if len(prefix) == length:
            if remaining == 1:
                out.append(tuple(prefix))
            return
        for d in range(min_div, remaining + 1):
            if remaining % d == 0 and (not prefix or d % prefix[-1] == 0):
                rec(remaining // d, d, prefix + [d])

    rec(order, 1, [])
    return out


def naive_rank(rows):
    """Rank by plain rational Gaussian elimination with pivot normalization."""
    m = [[Fraction(e) for e in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        m[r] = [e / p for e in m[r]]
        for i in range(nr):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [e - f * g for e, g in zip(m[i], m[r])]
        r += 1
        if r == nr:
            break
    return r


def cramer_solve(a_rows, b_vec):
    """Solve a square rational system by Cramer's rule."""
    n = len(a_rows)
    det = leibniz_det(a_rows)
    if det == 0:
        raise ValueError("singular system")
    sol = []
    for j in range(n):
        modified = [
            [b_vec[i] if c == j else a_rows[i][c] for c in range(n)]
            for i in range(n)
        ]
        sol.append(Fraction(leibniz_det(modified), 1) / det)
    return sol


def cramer_projection(basis_cols, target_cols, gram_rows):
    """Orthogonal-projection matrix computed through Cramer normal equations.

    `basis_cols` / `target_cols` are lists of column vectors spanning the
    source and target subspaces, `gram_rows` the ambient Gram matrix; returns
    the matrix rows of the projection in those bases.
    """
    dim = len(gram_rows)

    def pair(u, v):
        return sum(
            Fraction(u[i]) * gram_rows[i][j] * Fraction(v[j])
            for i in range(dim)
            for j in range(dim)
        )

    k = len(target_cols)
    normal = [[pair(target_cols[i], target_cols[j]) for j in range(k)] for i in range(k)]
    out_cols = []
    for b in basis_cols:
        rhs = [pair(target_cols[i], b) for i in range(k)]
        out_cols.append(cramer_solve(normal, rhs) if k else [])
    # columns were solved one source vector at a time; transpose into rows
    return [[out_cols[c][r] for c in range(len(basis_cols))] for r in range(k)]
