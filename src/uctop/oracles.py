"""Independent brute-force oracles, shared by the test suite and `check`.

Everything here deliberately avoids the library's elimination code paths:
determinants are Leibniz sums over permutations, invariant factors come from
gcds of explicitly enumerated minors or from literal coset enumeration, ranks
use plain fraction pivoting rather than integer elimination, and Weyl
group orders come from closing the set of simple reflections. The module
imports only the standard library, never another `uctop` module, and the
package does not import it at load time.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def leibniz_det(rows):
    """Determinant as the signed permutation sum (1 for the empty matrix)."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i in range(n):
            term *= rows[i][perm[i]]
            if not term:
                break  # most permutations of a sparse matrix meet a zero
        else:
            inversions = sum(
                1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
            )
            total += -term if inversions % 2 else term
    return total


def minor_gcds(rows, cols=None, size=None):
    """{T: gcd of every |T| x |T| minor on the rows T} for each row set T (a
    sorted index tuple) of at most `size` rows (default: all of them); the
    gcd is 0 when there is no such minor or they all vanish."""
    nr = len(rows)
    nc = len(rows[0]) if rows else (cols or 0)
    table = {}
    for k in range(min(nr, nr if size is None else size) + 1):
        for ridx in itertools.combinations(range(nr), k):
            g = 0
            for cidx in itertools.combinations(range(nc), k):
                sub = [[rows[i][j] for j in cidx] for i in ridx]
                g = math.gcd(g, leibniz_det(sub))
            table[ridx] = g
    return table


def determinantal_divisor_data(rows, cols=None):
    """(nontrivial invariant factors, rank) from gcds of all k x k minors."""
    return subset_divisor_data(minor_gcds(rows, cols), tuple(range(len(rows))))


def subset_divisor_data(gcds, subset):
    """`determinantal_divisor_data` of the matrix made of the rows `subset`
    (a sorted index tuple) of the matrix whose `minor_gcds` table is `gcds`.

    Its k x k minors are the minors on the row sets T in `subset` with
    |T| = k, so its k-th determinantal divisor is the gcd of their g(T).
    """
    divisors = [1] + [
        math.gcd(*(gcds[t] for t in itertools.combinations(subset, k)))
        for k in range(1, len(subset) + 1)
    ]
    rank = max((k for k, g in enumerate(divisors) if g != 0), default=0)
    factors = tuple(
        divisors[k] // divisors[k - 1]
        for k in range(1, rank + 1)
        if divisors[k] // divisors[k - 1] >= 2
    )
    return factors, rank


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


def reflection_group_order(cartan_rows):
    """Order of the group generated by the simple reflections on weight space.

    The reflection for root i sends the coordinate row vector x to
    x - x_i * cartan_rows[i]; elements are closed under composition until no
    new matrices appear.
    """
    n = len(cartan_rows)
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    gens = []
    for i in range(n):
        rows = [list(r) for r in identity]
        for j in range(n):
            rows[i][j] -= cartan_rows[i][j]
        gens.append(tuple(tuple(r) for r in rows))

    def matmul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )

    seen = {identity}
    frontier = [identity]
    while frontier:
        g = frontier.pop()
        for s in gens:
            h = matmul(g, s)
            if h not in seen:
                seen.add(h)
                frontier.append(h)
    return len(seen)


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
