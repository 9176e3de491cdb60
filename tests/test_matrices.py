"""Exact linear algebra: SNF vs torsion oracles, ranks, compound matrices."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uctop.matrices import IntMatrix, InvariantFactors, snf
from uctop.projections import compound
from uctop.rational import RatMatrix, rank
from uctop.rootdata import CartanType, cartan_matrix

from uctop.oracles import leibniz_det, minor_gcds, subset_divisor_data

from reference_oracles import (
    coset_invariant_factors,
    cramer_solve,
    determinantal_divisor_data,
    naive_rank,
    unrestricted_minor_gcds,
)


def _assert_snf_matches_oracle(rows, cols=None):
    m = IntMatrix.from_rows(rows, cols=cols)
    factors, kernel = snf(m)
    want_factors, want_rank = determinantal_divisor_data(rows, cols=m.cols)
    assert factors.factors == want_factors, rows
    assert m.cols - kernel.cols == want_rank, rows
    # kernel columns really lie in the kernel and are independent
    assert m.mul(kernel).is_zero(), rows
    if kernel.cols:
        assert rank(RatMatrix.from_int(kernel)) == kernel.cols, rows


# ---------------------------------------------------------------------------
# frozen examples


def test_snf_single_entry_two():
    factors, kernel = snf(IntMatrix.from_rows([[2]]))
    assert factors.factors == (2,)
    assert kernel == IntMatrix(1, 0, ())  # rank 1


def test_snf_identity_three():
    factors, kernel = snf(IntMatrix.identity(3))
    assert factors.factors == ()
    assert kernel.cols == 0  # rank 3


def test_snf_diag_two_three():
    factors, kernel = snf(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert factors.factors == (6,)
    assert kernel.cols == 0  # rank 2
    # the result is the pair (factors, kernel); the rank is cols - kernel.cols
    assert snf(IntMatrix.from_rows([[2, 0, 0], [0, 4, 0]])) == (
        InvariantFactors((2, 4)),
        IntMatrix(3, 1, (0, 0, 1)),
    )


def test_snf_empty_shapes():
    factors, kernel = snf(IntMatrix.from_rows([], cols=3))
    assert factors.factors == ()
    assert kernel == IntMatrix.identity(3)  # rank 0
    factors, kernel = snf(IntMatrix.from_rows([[], [], []], cols=0))
    assert factors.factors == () and kernel.rows == 0 and kernel.cols == 0


def test_invariant_factors_validation():
    with pytest.raises(ValueError):
        InvariantFactors((1, 2))
    with pytest.raises(ValueError):
        InvariantFactors((4, 6))
    assert InvariantFactors((2, 4)).order() == 8
    assert InvariantFactors(()).order() == 1


# ---------------------------------------------------------------------------
# oracle sweeps (exhaustive where affordable, sampled beyond)


def test_snf_all_matrices_up_to_2x2_entries_pm3():
    for nr, nc in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)):
        for ents in itertools.product(range(-3, 4), repeat=nr * nc):
            rows = [list(ents[i * nc : (i + 1) * nc]) for i in range(nr)]
            _assert_snf_matches_oracle(rows, cols=nc)


def test_snf_all_2x3_and_3x2_entries_pm2():
    for nr, nc in ((2, 3), (3, 2)):
        for ents in itertools.product(range(-2, 3), repeat=6):
            rows = [list(ents[i * nc : (i + 1) * nc]) for i in range(nr)]
            _assert_snf_matches_oracle(rows, cols=nc)


def test_snf_all_3x3_entries_pm1():
    for ents in itertools.product(range(-1, 2), repeat=9):
        rows = [list(ents[:3]), list(ents[3:6]), list(ents[6:])]
        _assert_snf_matches_oracle(rows)


def test_snf_random_3x3_entries_pm3():
    rng = random.Random(20260810)
    for _ in range(20000):
        rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        _assert_snf_matches_oracle(rows)


@pytest.mark.slow
def test_snf_exhaustive_3x3_entries_pm3():
    # the full domain; takes on the order of an hour, run with `pytest -m slow`
    for ents in itertools.product(range(-3, 4), repeat=9):
        rows = [list(ents[:3]), list(ents[3:6]), list(ents[6:])]
        _assert_snf_matches_oracle(rows)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.integers(1, 3).flatmap(
        lambda nr: st.integers(1, 3).flatmap(
            lambda nc: st.lists(
                st.lists(st.integers(-3, 3), min_size=nc, max_size=nc),
                min_size=nr,
                max_size=nr,
            )
        )
    )
)
def test_snf_property_domain_pm3(rows):
    _assert_snf_matches_oracle(rows)


def test_snf_against_coset_enumeration():
    cases = [
        [[2]],
        [[3]],
        [[2, 0], [0, 3]],
        [[2, 0], [0, 4]],
        [[2, 1], [0, 2]],
        [[2, -1], [-1, 2]],
        [[4, 2], [2, 4]],
        [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
        [[1, 2, 3], [0, 2, 1], [0, 0, 3]],
    ]
    for ents in itertools.product(range(-2, 3), repeat=4):
        rows = [list(ents[:2]), list(ents[2:])]
        if 0 < abs(leibniz_det(rows)) <= 16:
            cases.append(rows)
    for rows in cases:
        want = coset_invariant_factors(rows)
        assert snf(IntMatrix.from_rows(rows))[0].factors == want, rows


def test_minor_gcd_table_gives_the_divisors_of_every_row_subset():
    # one table of a matrix's minors serves each matrix made of its rows
    rng = random.Random(16)
    for _ in range(20):
        nr, nc = rng.randint(1, 5), rng.randint(1, 4)
        rows = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(nc)] for _ in range(nr)]
        gcds = minor_gcds(rows, nc, 3)
        for k in range(4):
            for sub in itertools.combinations(range(nr), k):
                want = determinantal_divisor_data([rows[i] for i in sub], nc)
                assert subset_divisor_data(gcds, sub) == want, (rows, sub)


def test_minor_gcds_skip_only_minors_that_vanish():
    # sparse matrices with zero rows and zero columns: the column sets that
    # minor_gcds skips hold a column zero on the chosen rows
    rng = random.Random(24)
    for _ in range(200):
        nr, nc = rng.randint(0, 5), rng.randint(1, 5)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -4, 6)) for _ in range(nc)] for _ in range(nr)]
        for i in rng.sample(range(nr), rng.randint(0, nr)):
            rows[i] = [0] * nc
        for j in rng.sample(range(nc), rng.randint(0, nc)):
            for row in rows:
                row[j] = 0
        size = rng.choice((None, 1, 2, 3))
        assert minor_gcds(rows, nc, size) == unrestricted_minor_gcds(rows, nc, size), (rows, size)


# ---------------------------------------------------------------------------
# rank


def test_rank_examples():
    assert rank(RatMatrix.from_rows([[0, 0], [0, 0]])) == 0
    for n in range(5):
        assert rank(RatMatrix.identity(n)) == n
    assert rank(RatMatrix.from_rows([[1, 2], [2, 4]])) == 1


def test_rank_matches_naive_elimination():
    rng = random.Random(7)
    for _ in range(300):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)]
            for _ in range(nr)
        ]
        assert rank(RatMatrix.from_rows(rows, cols=nc)) == naive_rank(rows)


def test_rank_plus_nullity():
    rng = random.Random(11)
    for _ in range(300):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        m = IntMatrix.from_rows(rows, cols=nc)
        _, kernel = snf(m)
        assert rank(RatMatrix.from_int(m)) + kernel.cols == nc


def _random_sparse_rows(rng, nr, nc, density):
    return [
        [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < density else 0
            for _ in range(nc)
        ]
        for _ in range(nr)
    ]


def test_rank_against_naive_elimination():
    rng = random.Random(20261017)
    for _ in range(300):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = _random_sparse_rows(rng, nr, nc, rng.choice((0.2, 0.4, 0.7)))
        m = RatMatrix.from_rows(rows, cols=nc)
        want = naive_rank(rows)
        assert rank(m) == want, rows
        # denominators are 1..4, so 12 clears them all
        ints = [[int(12 * e) for e in row] for row in rows]
        assert rank(IntMatrix.from_rows(ints, cols=nc)) == want, rows


# ---------------------------------------------------------------------------
# sparse matrices and integer solves


def _naive_product(g_rows, f_rows, cols):
    """g . f on lists of Fractions, one triple loop."""
    return [
        [sum((Fraction(gr[k]) * f_rows[k][j] for k in range(len(f_rows))), Fraction(0))
         for j in range(cols)]
        for gr in g_rows
    ]


def test_sparse_matrix_agrees_with_dense():
    rng = random.Random(29)
    for _ in range(200):
        a, b, c = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        f_rows = _random_sparse_rows(rng, b, a, 0.4)
        g_rows = _random_sparse_rows(rng, c, b, 0.4)
        f, g = RatMatrix.from_rows(f_rows, cols=a), RatMatrix.from_rows(g_rows, cols=b)
        want = _naive_product(g_rows, f_rows, a)
        assert f.to_lists() == [[Fraction(e) for e in row] for row in f_rows]
        assert f.entries == tuple(Fraction(e) for row in f_rows for e in row)
        gf = g.mul(f)
        assert (gf.rows, gf.cols) == (c, a)
        assert gf.to_lists() == want
        assert gf.entries == tuple(e for row in want for e in row)
        assert gf.is_zero() == all(e == 0 for row in want for e in row)
        assert g.mul_is_zero(f) == gf.is_zero()
        assert gf == RatMatrix.from_rows(want, cols=a)
        assert rank(gf) == naive_rank(want)


def test_sparse_matrix_rows_in_lowest_terms():
    m = RatMatrix(2, 3, ({0: 4, 2: -6}, {1: 0}), (-8, 5))
    assert m.num == ({0: -2, 2: 3}, {})
    assert m.den == (4, 1)
    assert m.row(0) == (Fraction(-1, 2), Fraction(0), Fraction(3, 4))
    with pytest.raises(ValueError):
        RatMatrix(1, 2, ({2: 1},), (1,))
    with pytest.raises(ValueError):
        RatMatrix(1, 2, ({0: 1},), (0,))


def test_int_solve_matches_rational_inverse():
    rng = random.Random(31)
    for _ in range(100):
        n, k = rng.randint(1, 5), rng.randint(0, 4)
        m = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        det = leibniz_det(m.to_lists())
        if det == 0:
            with pytest.raises(ValueError):
                m.solve(IntMatrix.from_rows([[0] * k for _ in range(n)], cols=k))
            continue
        rhs = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(k)] for _ in range(n)], cols=k)
        num, den, solved_det = m.solve(rhs)
        assert den > 0 and solved_det == det  # the determinant its elimination ends with
        assert det % den == 0  # X = adj(m) rhs / det, so the lowest terms divide it
        for j in range(k):
            want = cramer_solve(m.to_lists(), rhs.column(j))
            assert num.column(j) == tuple(e * den for e in want)


# ---------------------------------------------------------------------------
# compound matrices


def test_compound_identity():
    for n in range(5):
        for k in range(n + 1):
            got = compound(RatMatrix.identity(n), k)
            import math

            assert got == RatMatrix.identity(math.comb(n, k))


def test_compound_two_by_two_determinant():
    m = RatMatrix.from_rows([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
    assert compound(m, 2).to_lists() == [[Fraction(-2)]]


def test_compound_rank_one_vanishes():
    m = RatMatrix.from_rows([[1, 2, 3], [2, 4, 6], [-1, -2, -3]])
    assert compound(m, 2).is_zero()


def test_compound_degree_zero_and_overflow():
    m = RatMatrix.from_rows([[1, 2], [3, 4]])
    assert compound(m, 0) == RatMatrix.identity(1)
    big = compound(m, 3)
    assert big.rows == 0 and big.cols == 0


def test_compound_entries_are_lexicographic_minors():
    m = RatMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    c = compound(m, 2)
    subsets = list(itertools.combinations(range(3), 2))
    for ri, rsub in enumerate(subsets):
        for ci, csub in enumerate(subsets):
            sub = [[m.row(i)[j] for j in csub] for i in rsub]
            assert c.row(ri)[ci] == leibniz_det(sub)


def _random_rat_matrix(rng, nr, nc):
    return RatMatrix.from_rows(
        [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)]
            for _ in range(nr)
        ],
        cols=nc,
    )


def test_compound_functoriality_randomized():
    rng = random.Random(20260810)
    for _ in range(200):
        a, b, c = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        f = _random_rat_matrix(rng, b, a)  # f: Q^a -> Q^b
        g = _random_rat_matrix(rng, c, b)  # g: Q^b -> Q^c
        gf = g.mul(f)
        for k in range(0, min(a, b, c) + 2):
            assert compound(gf, k) == compound(g, k).mul(compound(f, k))


# ---------------------------------------------------------------------------
# matrix plumbing


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        RatMatrix.from_rows([[1]], cols=2)


def test_determinant_matches_leibniz():
    assert IntMatrix(0, 0, ()).det() == 1
    assert IntMatrix.from_rows([[0, 1], [1, 0]]).det() == -1
    rng = random.Random(5)
    singular = swapped = 0
    for _ in range(300):
        n = rng.randint(0, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if n and rng.random() < 0.3:
            rows[0][0] = 0  # the elimination must swap in another pivot row
        if n > 1 and rng.random() < 0.2:
            rows[-1] = [2 * e for e in rows[0]]  # singular by construction
        want = leibniz_det(rows)
        assert IntMatrix.from_rows(rows, cols=n).det() == want, rows
        singular += want == 0
        swapped += n > 1 and rows[0][0] == 0 and want != 0
    assert singular and swapped, "the random cases missed singular or row-swap matrices"
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2]]).det()


def _fraction_inverse(rows):
    """Inverse by Gauss-Jordan over Fraction, with no integer elimination."""
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for c in range(n):
        piv = next(i for i in range(c, n) if a[i][c])
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(n):
            if i != c and (e := a[i][c]):
                a[i] = [x - e * y for x, y in zip(a[i], a[c])]
    return [r[n:] for r in a]


def _zero_multiplier_matrices(rng):
    """Regular matrices whose elimination meets rows already 0 in the pivot
    column, under equal pivots (unitriangular, signed permutation) and under
    changing ones (block-diagonal Cartan matrices), of rank <= 8."""
    for n in range(1, 9):
        upper = [[int(i == j) if j <= i else rng.randint(-3, 3) for j in range(n)]
                 for i in range(n)]
        yield upper
        yield [list(r) for r in zip(*upper)]
        perm = rng.sample(range(n), n)
        yield [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    for factors in (
        (("A", 1),) * 8,
        (("A", 1), ("A", 1)),
        (("A", 2), ("B", 3), ("G", 2)),
        (("D", 4), ("A", 4)),
        (("C", 3), ("F", 4), ("A", 1)),
        (("E", 6), ("A", 2)),
        (("E", 8),),
    ):
        yield cartan_matrix(CartanType(factors)).to_lists()


def test_det_and_solve_on_rows_with_zero_multipliers():
    rng = random.Random(14)
    for rows in _zero_multiplier_matrices(rng):
        n = len(rows)
        m = IntMatrix.from_rows(rows)
        assert m.det() == leibniz_det(rows), rows
        num, den, det = m.solve(IntMatrix.identity(n))
        assert det == leibniz_det(rows), rows
        assert den > 0 and math.gcd(den, *num.entries) == 1, rows
        got = [[Fraction(e, den) for e in num.row(i)] for i in range(n)]
        assert got == _fraction_inverse(rows), rows
