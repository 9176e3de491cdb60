"""Exact linear algebra: SNF vs torsion oracles, ranks, compound matrices."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uctop.homology import RANK_PRIME
from uctop.matrices import (
    IntMatrix,
    InvariantFactors,
    RatMatrix,
    compound,
    rank,
    rank_mod_p,
    snf,
)

from uctop.oracles import (
    coset_invariant_factors,
    cramer_solve,
    determinantal_divisor_data,
    leibniz_det,
    naive_rank,
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
        assert rank(kernel.to_rational()) == kernel.cols, rows


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


# ---------------------------------------------------------------------------
# rank


def test_rank_examples():
    assert rank(RatMatrix.zero(2, 2)) == 0
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
        assert rank(m.to_rational()) + kernel.cols == nc


def _random_sparse_rows(rng, nr, nc, density):
    return [
        [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < density else 0
            for _ in range(nc)
        ]
        for _ in range(nr)
    ]


def test_rank_mod_p_against_naive_elimination():
    rng = random.Random(20261017)
    drops = 0
    for _ in range(300):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = _random_sparse_rows(rng, nr, nc, rng.choice((0.2, 0.4, 0.7)))
        m = RatMatrix.from_rows(rows, cols=nc)
        want = naive_rank(rows)
        assert rank(m) == want, rows
        # denominators are 1..4, so 12 clears them all
        ints = [[int(12 * e) for e in row] for row in rows]
        assert rank(IntMatrix.from_rows(ints, cols=nc)) == want, rows
        assert rank_mod_p(m, RANK_PRIME) == want, rows
        for p in (2, 3, 5):
            got = rank_mod_p(m, p)
            assert got <= want, (rows, p)
            drops += got < want
    assert RANK_PRIME == 2**61 - 1
    assert drops, "no small prime ever lost rank; the bound went unexercised"


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
        if leibniz_det(m.to_lists()) == 0:
            with pytest.raises(ValueError):
                m.solve(IntMatrix.zero(n, k))
            continue
        rhs = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(k)] for _ in range(n)], cols=k)
        num, den = m.solve(rhs)
        assert den > 0
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
            sub = [[m.at(i, j) for j in csub] for i in rsub]
            assert c.at(ri, ci) == leibniz_det(sub)


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
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(0, 4)
        m = _random_rat_matrix(rng, n, n)
        assert m.det() == leibniz_det(m.to_lists())
