"""Independent brute-force oracles behind `check`, which the tests also read.

Everything here deliberately avoids the library's elimination code paths:
determinants are Leibniz sums over permutations, invariant factors come from
gcds of explicitly enumerated minors, and Weyl group orders come from
enumerating an orbit of the simple reflections. The module imports only the
standard library, never another `uctop` module, and the package does not
import it at load time. The oracles that only the tests read live with the
tests.
"""

from __future__ import annotations

import itertools
import math


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
    gcd is 0 when there is no such minor or they all vanish.

    A column set that holds a column zero on every row of T gives a zero
    minor, which cannot lower a gcd, so only the other column sets are
    expanded."""
    nr = len(rows)
    nc = len(rows[0]) if rows else (cols or 0)
    table = {}
    for k in range(min(nr, nr if size is None else size) + 1):
        for ridx in itertools.combinations(range(nr), k):
            live = [j for j in range(nc) if any(rows[i][j] for i in ridx)]
            g = 0
            for cidx in itertools.combinations(live, k):
                sub = [[rows[i][j] for j in cidx] for i in ridx]
                g = math.gcd(g, leibniz_det(sub))
                if g == 1:
                    break  # no further minor can lower a gcd of 1
            table[ridx] = g
    return table


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


def reflection_group_order(cartan_rows):
    """Order of the group generated by the simple reflections on weight space.

    The reflection for root i sends the coordinate row vector x to
    x - x_i * cartan_rows[i]. The group acts simply transitively on the Weyl
    chambers, and rho = (1, ..., 1) lies inside the dominant one, so its
    stabilizer is trivial and its orbit, enumerated here, has exactly |W|
    points.
    """
    n = len(cartan_rows)
    rho = (1,) * n
    seen = {rho}
    frontier = [rho]
    while frontier:
        x = frontier.pop()
        for i, root in enumerate(cartan_rows):
            y = tuple(e - x[i] * r for e, r in zip(x, root))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen)
