"""Cech complex structure and boundary-manifold homology."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from uctop import homology, rootdata
from uctop.cli import parse_spec
from uctop.errors import FunctorialityViolation, NontrivialPi0, UctopError
from uctop.homology import (
    BettiTable,
    CechComplex,
    _betti_from_complex,
    _check_square_zero,
    _cleared_ranks,
    _fill_block,
    _minor_patterns,
    boundary_homology,
    build_cech_complex,
    build_center_diagram,
    total_euler,
)
from uctop.matrices import IntMatrix
from uctop.projections import compound, killing_projection
from uctop.rational import RatMatrix, rank
from uctop.rootdata import (
    CartanType,
    _roots_in_basis,
    all_levi_subsets,
    build_datum,
    center_of_levi,
    invariant_form,
)

from uctop.oracles import leibniz_det

from reference_oracles import cramer_projection, naive_rank


def ct(*factors):
    return CartanType(tuple(factors))


SPHERE_SWEEP = [
    (ct(("A", 1)), "adjoint"),
    (ct(("A", 2)), "adjoint"),
    (ct(("A", 3)), "adjoint"),
    (ct(("A", 4)), "adjoint"),
    (ct(("B", 2)), "adjoint"),
    (ct(("B", 3)), "adjoint"),
    (ct(("B", 4)), "adjoint"),
    (ct(("C", 3)), "adjoint"),
    (ct(("C", 4)), "adjoint"),
    (ct(("D", 4)), "adjoint"),
    (ct(("G", 2)), "adjoint"),
    (ct(("F", 4)), "adjoint"),
    (ct(("A", 1), ("A", 1)), "adjoint"),
    (ct(("A", 1), ("A", 2)), "adjoint"),
    (ct(("A", 1)), "sc"),
    (ct(("A", 2)), "sc"),
    (ct(("A", 4)), "sc"),
    (ct(("G", 2)), "sc"),
    (ct(("F", 4)), "sc"),
]


def test_betti_table_normalization():
    t = BettiTable((1, 0, 0, 1, 0, 0))
    assert t.betti == (1, 0, 0, 1)
    assert t.euler() == 0
    assert t.total() == 2
    assert BettiTable.sphere(3) == t
    assert BettiTable.sphere(0).betti == (2,)
    with pytest.raises(ValueError):
        BettiTable((1, -1))


# ---------------------------------------------------------------------------
# diagram structure


def covering_matrix(n, s, sp, arrow):
    """The covering arrow (S, S') = (s, sp), held as (den, column), as a
    matrix: columns the coweights outside S, rows those outside S'."""
    den, column = arrow
    source = [k for k in range(1, n + 1) if k not in s]
    pos = next(j for j, k in enumerate(source) if k in sp)
    rows = [{j: den} for j, k in enumerate(source) if k not in sp]
    for r, v in column.items():
        rows[r][pos] = v
    return RatMatrix(len(rows), len(source), tuple(rows), (den,) * len(rows))


def composite(diag, s, sp):
    """The arrow of the nested pair S <= S' as the composite of the diagram's
    covering arrows, adding the elements of S' - S in ascending order."""
    n = diag.datum.rank
    m = RatMatrix.identity(n - len(s))
    for a in sorted(set(sp) - set(s)):
        t = tuple(sorted(s + (a,)))
        m = covering_matrix(n, s, t, diag.arrows[(s, t)]).mul(m)
        s = t
    return m


def direct_arrow(d, s, sp):
    """The projection from the space of S onto that of S' (S inside S'),
    written straight from V_S': identity on the coweights outside S', column
    a of V_S' at each a in S' - S."""
    n = d.rank
    source = [k for k in range(1, n + 1) if k not in s]
    if s == sp:
        return RatMatrix.identity(len(source))
    den, columns = homology._coweight_columns(d, sp)
    added = [(j, columns[a]) for j, a in enumerate(source) if a in sp]
    rows = [
        {j: den, **{i: column[k] for i, column in added if k in column}}
        for j, k in enumerate(source)
        if k not in sp
    ]
    return RatMatrix(len(rows), len(source), tuple(rows), (den,) * len(rows))


def nested_pairs(n):
    proper = all_levi_subsets(n, proper=True)
    return [(s, sp) for s in proper for sp in proper if set(s) <= set(sp)]


def test_diagram_rank_one_structure():
    # A1 has one proper Levi set, so no covering arrow, and its space is the
    # one-dimensional Levi center at S = {}
    d = build_datum(ct(("A", 1)), "adjoint")
    diag = build_center_diagram(d)
    assert diag.arrows == {}
    assert center_of_levi(d, ()).dim == 1
    assert composite(diag, (), ()) == RatMatrix.identity(1)


def test_diagram_rank_two_structure():
    d = build_datum(ct(("A", 2)), "adjoint")
    diag = build_center_diagram(d)
    assert list(diag.arrows) == [((), (1,)), ((), (2,))]
    for (s, sp), arrow in diag.arrows.items():
        m = covering_matrix(2, s, sp, arrow)
        assert (m.rows, m.cols, rank(m)) == (1, 2, 1)
    dims = {s: center_of_levi(d, s).dim for s in all_levi_subsets(2, proper=True)}
    assert dims == {(): 2, (1,): 1, (2,): 1}


def test_diagram_functoriality_exact():
    # every nested chain composes: the covering arrows, composed along either
    # middle set, and the arrows written straight from V_S agree
    for t, iso in ((ct(("A", 3)), "adjoint"), (ct(("B", 3)), "sc")):
        d = build_datum(t, iso)
        diag = build_center_diagram(d)
        pairs = nested_pairs(t.rank)
        for s1, s2 in pairs:
            assert composite(diag, s1, s2) == direct_arrow(d, s1, s2), (str(t), s1, s2)
            for s2b, s3 in pairs:
                if s2b == s2:
                    got = composite(diag, s2, s3).mul(composite(diag, s1, s2))
                    assert got == direct_arrow(d, s1, s3), (str(t), s1, s2, s3)


def test_diagram_holds_covering_arrows_only():
    # the arrows are the Killing projections of the lattice's Smith bases,
    # written in coweights: T_S' . killing_projection(S, S') == A(S, S') . T_S,
    # with T_S = R . B_S on the rows k outside S (R the simple roots in the
    # lattice basis, B_S the Smith cocharacter basis) and A(S, S') the
    # composite of the covering arrows from S to S'
    so8 = IntMatrix.from_rows([[1, 0, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 1], [0, 0, -1, 1]])
    for t, iso in (
        (ct(("A", 3)), "adjoint"),
        (ct(("B", 3)), "sc"),
        (ct(("G", 2)), "adjoint"),
        (ct(("C", 4)), "sc"),
        (ct(("D", 4)), so8),
        (ct(("A", 1), ("A", 2)), "adjoint"),
        (ct(("A", 1), ("B", 2)), "sc"),
    ):
        d = build_datum(t, iso)
        diag = build_center_diagram(d)
        n = t.rank
        roots = _roots_in_basis(d)

        def to_coweights(s):
            m = roots.mul(center_of_levi(d, s).cochar_basis)
            rows = [m.row(k - 1) for k in range(1, n + 1) if k not in s]
            return RatMatrix.from_rows(rows, m.cols)

        nested = nested_pairs(n)
        assert set(diag.arrows) == {(s, sp) for s, sp in nested if len(sp) == len(s) + 1}, str(t)
        for s, sp in nested:
            lhs = to_coweights(sp).mul(killing_projection(d, s, sp))
            assert lhs == composite(diag, s, sp).mul(to_coweights(s)), (str(t), s, sp)
        with pytest.raises(ValueError):
            killing_projection(d, (1,), (2,))


def test_closed_form_minors_are_the_compounds_of_the_arrows():
    for spec in ("D5:adjoint", "B4:sc"):
        d = parse_spec(spec).datum()
        n = d.rank
        diag = build_center_diagram(d)
        for (s, sp), arrow in diag.arrows.items():
            source = [k for k in range(1, n + 1) if k not in s]
            pos = next(j for j, k in enumerate(source) if k in sp)
            p = len(source) - 1
            m = direct_arrow(d, s, sp)
            assert covering_matrix(n, s, sp, arrow) == m, (spec, s, sp)
            for w in range(p + 2):
                rows = [{} for _ in range(math.comb(p, w))]
                _fill_block(rows, 0, _minor_patterns(p, w)[pos], arrow, 1)
                dens = (arrow[0],) * len(rows)
                got = RatMatrix(len(rows), math.comb(p + 1, w), tuple(rows), dens)
                assert got == compound(m, w), (spec, s, sp, w)


@pytest.mark.parametrize("spec", ["A3:adjoint", "B3:sc", "C3:adjoint", "A4:sc"])
def test_covering_triangles_detect_what_every_nested_chain_detects(monkeypatch, spec):
    # the covering triangles of both orientations imply every nested chain
    # (see _check_chains), so on data with one entry V_S'[k, a] off by one,
    # zero entries included, the two sets of chains raise together
    d = parse_spec(spec).datum()
    n = d.rank
    diag = build_center_diagram(d)
    proper = all_levi_subsets(n, proper=True)
    every = [(s1, s2, s3) for s1, s3 in nested_pairs(n) for s2 in proper
             if set(s1) <= set(s2) <= set(s3)]
    covering = [*homology._covering_triangles(n), *homology._covering_triangles(n, False)]
    real = homology._coweight_columns

    def raises(chains):
        try:
            homology._check_chains(diag, chains)
        except FunctorialityViolation:
            return True
        return False

    assert not raises(every)
    outcomes = []
    for sp in proper[1:]:
        for a in sp:
            for k in range(1, n + 1):
                if k not in sp:
                    def rigged(d, target, sp=sp, a=a, k=k):
                        den, columns = real(d, target)
                        if target != sp:
                            return den, columns
                        column = {**columns[a], k: columns[a].get(k, 0) + 1}
                        return den, {**columns, a: {r: v for r, v in column.items() if v}}

                    monkeypatch.setattr(homology, "_coweight_columns", rigged)
                    outcomes.append(raises(every))
                    assert raises(covering) == outcomes[-1], (spec, sp, a, k)
    assert outcomes and any(outcomes)


@pytest.mark.parametrize("spec", ["D6:adjoint", "A4:sc"])
def test_boundary_homology_solves_each_cartan_submatrix_once(cartan_solves, spec):
    # no lattice-basis projection and no Laplace minors: one small solve per
    # connected nonempty proper C of the Dynkin diagram gives every arrow
    d = parse_spec(spec).datum()
    assert boundary_homology(d) == BettiTable.sphere(2 * d.rank - 1)
    solved, blocks = cartan_solves(d)
    assert solved == blocks


# ---------------------------------------------------------------------------
# complex structure


def test_complex_rank_one_rows():
    d = build_datum(ct(("A", 1)), "adjoint")
    cx = build_cech_complex(build_center_diagram(d))
    assert cx.n == 1
    assert [row.dims for row in cx.rows] == [[1], [1]]
    assert all(not any(m.rows and m.cols for m in row.diffs.values()) for row in cx.rows)


def test_complex_rank_two_rows():
    d = build_datum(ct(("A", 2)), "adjoint")
    cx = build_cech_complex(build_center_diagram(d))
    w0, w1, w2 = cx.rows
    assert w0.dims == [2, 1]
    assert w0.diffs[1].to_lists() == [[Fraction(-1)], [Fraction(1)]]
    assert w1.dims == [2, 2]
    assert w2.dims == [0, 1]
    # block widths: C(p+1, w) per subset A at level p
    for row in cx.rows:
        for p, dim in enumerate(row.dims):
            assert dim == math.comb(2, p + 1) * math.comb(p + 1, row.w)


def test_d_squared_zero_rank_le_5():
    matrix = [
        (ct(("A", 5)), "sc"),
        (ct(("A", 5)), "adjoint"),
        (ct(("B", 5)), "sc"),
        (ct(("D", 5)), "sc"),
        (ct(("C", 4)), "sc"),
        (ct(("A", 2), ("A", 2)), "sc"),
        (ct(("A", 1), ("B", 2)), "sc"),
    ]
    for t, iso in matrix:
        d = build_datum(t, iso)
        cx = build_cech_complex(build_center_diagram(d))  # raises on violation
        for row in cx.rows:
            for p in range(2, cx.n):
                lo, hi = row.diffs[p - 1], row.diffs[p]
                if lo.rows and hi.cols:
                    assert lo.mul(hi).is_zero(), (str(t), row.w, p)


def test_square_zero_guard_names_degree_and_level():
    d = build_datum(ct(("A", 4)), "adjoint")
    cx = build_cech_complex(build_center_diagram(d))
    row = cx.rows[2]
    top = cx.n - 1  # only the check at the top level reads d_top
    lists = row.diffs[top].to_lists()
    i, j = next((i, j) for i, r in enumerate(lists) for j, e in enumerate(r) if e)
    lists[i][j] += 1
    _check_square_zero(row, cx.n)
    row.diffs[top] = RatMatrix.from_rows(lists, cols=row.diffs[top].cols)
    with pytest.raises(FunctorialityViolation, match=r"exterior degree 2 at level 3$"):
        _check_square_zero(row, cx.n)


def test_total_euler_vanishes():
    for t, iso in SPHERE_SWEEP[:10]:
        d = build_datum(t, iso)
        cx = build_cech_complex(build_center_diagram(d))
        assert total_euler(cx) == 0, str(t)


# ---------------------------------------------------------------------------
# boundary homology


def test_boundary_homology_spheres():
    for t, iso in SPHERE_SWEEP:
        d = build_datum(t, iso)
        n = t.rank
        assert boundary_homology(d) == BettiTable.sphere(2 * n - 1), (str(t), iso)


def test_cleared_ranks_equal_full_ranks():
    # clearing ranks diffs[p] on the rows outside the pivot columns of
    # diffs[p - 1] only; each such rank must be the full rank of diffs[p]
    for t, iso in SPHERE_SWEEP + [(ct(("E", 6)), "adjoint"), (ct(("E", 7)), "adjoint")]:
        cx = build_cech_complex(build_center_diagram(build_datum(t, iso)))
        for row in cx.rows:
            cleared = _cleared_ranks(row)
            assert sorted(cleared) == sorted(row.diffs), (str(t), iso, row.w)
            for p, m in row.diffs.items():
                assert cleared[p] == rank(m), (str(t), iso, row.w, p)
                if t.rank <= 4:
                    assert cleared[p] == naive_rank(m.to_lists()), (str(t), iso, row.w, p)


def test_boundary_homology_examples():
    assert boundary_homology(build_datum(ct(("A", 1)), "adjoint")).betti == (1, 1)
    assert boundary_homology(build_datum(ct(("A", 2)), "adjoint")).betti == (1, 0, 0, 1)
    assert boundary_homology(build_datum(ct(("A", 1)), "sc")).betti == (1, 1)


def test_boundary_homology_refusals():
    for t, iso, witness in [
        (ct(("A", 3)), "sc", (1, 3)),
        (ct(("D", 4)), "sc", (1, 3)),
        (ct(("B", 2)), "sc", (1,)),
    ]:
        d = build_datum(t, iso)
        with pytest.raises(NontrivialPi0) as err:
            boundary_homology(d)
        assert err.value.levi == witness, str(t)
    so8 = IntMatrix.from_rows(
        [[1, 0, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 1], [0, 0, -1, 1]]
    )
    with pytest.raises(NontrivialPi0) as err:
        boundary_homology(build_datum(ct(("D", 4)), so8))
    assert err.value.levi == (3, 4)


def test_boundary_homology_compares_the_witness_with_the_levi_snfs(monkeypatch):
    # X/Q names a witness whose SNF finds a connected center; the gate that
    # boundary_homology (and the CLI, before it loads the homology) calls
    # reads the witness in rootdata
    monkeypatch.setattr(rootdata, "proper_pi0_witness", lambda d: (1,))
    with pytest.raises(UctopError) as err:
        boundary_homology(build_datum(ct(("A", 2)), "adjoint"))
    assert type(err.value) is UctopError
    assert str(err.value) == (
        "X/Q names S = {1} as a witness, but its Levi center has trivial pi0"
    )
    # X/Q finds no witness where an SNF finds a disconnected proper center
    monkeypatch.setattr(rootdata, "proper_pi0_witness", lambda d: None)
    with pytest.raises(UctopError) as err:
        boundary_homology(build_datum(ct(("A", 3)), "sc"))
    assert type(err.value) is UctopError
    assert str(err.value) == (
        "X/Q finds no witness, but the Levi center at S = {1,3} has nontrivial pi0"
    )


def test_row_order_independence():
    for t, iso in ((ct(("A", 3)), "adjoint"), (ct(("B", 3)), "sc")):
        d = build_datum(t, iso)
        cx = build_cech_complex(build_center_diagram(d))
        n = cx.n
        forward = _betti_from_complex(cx)
        backward = _betti_from_complex(CechComplex(n, cx.rows[::-1]))
        middle_out = _betti_from_complex(
            CechComplex(n, sorted(cx.rows, key=lambda row: abs(row.w - n // 2)))
        )
        assert forward == backward == middle_out


def test_total_betti_bounded_by_chain_dimension():
    for t, iso in SPHERE_SWEEP[:8]:
        d = build_datum(t, iso)
        cx = build_cech_complex(build_center_diagram(d))
        betti = _betti_from_complex(cx)
        assert betti.total() <= sum(sum(row.dims) for row in cx.rows)


# ---------------------------------------------------------------------------
# brute-force oracle at rank <= 2: hand-built rows, naive elimination


def _hand_betti_rank_two(d):
    """Betti table assembled from scratch: Cramer projections, naive ranks."""
    lat = d.char_lattice.to_lists()
    det = leibniz_det(lat)
    n = 2
    inv = [
        [
            Fraction(
                (-1) ** (i + j)
                * leibniz_det(
                    [[lat[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
                ),
                det,
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    g = invariant_form(d).to_lists()
    gram = [
        [
            sum(inv[k][i] * g[k][l] * inv[l][j] for k in range(n) for l in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    basis_full = [list(center_of_levi(d, ()).cochar_basis.column(j)) for j in range(2)]
    proj = {}
    for s in ((1,), (2,)):
        target = [list(center_of_levi(d, s).cochar_basis.column(0))]
        proj[s] = cramer_projection(basis_full, target, gram)
    # row 0: A = {1,2} -> {1} with sign -1 (drop 2), -> {2} with sign +1 (drop 1)
    d0 = [[-1], [1]]
    h0 = {0: 2 - naive_rank(d0), 1: 1 - naive_rank(d0)}
    # row 1: same signs, blocks are the 1x2 projections onto S' = {2} and {1}
    d1 = [
        [-proj[(2,)][0][0], -proj[(2,)][0][1]],
        [proj[(1,)][0][0], proj[(1,)][0][1]],
    ]
    h1 = {0: 2 - naive_rank(d1), 1: 2 - naive_rank(d1)}
    # row 2: single block Lambda^2 of the full space at p = 1, no differentials
    h2 = {1: 1}
    betti = [0] * 4
    for w, hs in ((0, h0), (1, h1), (2, h2)):
        for p, val in hs.items():
            betti[w + p] += val
    return tuple(betti)


def test_rank_two_rows_match_hand_computation():
    for t, iso in (
        (ct(("A", 2)), "adjoint"),
        (ct(("A", 2)), "sc"),
        (ct(("B", 2)), "adjoint"),
        (ct(("G", 2)), "adjoint"),
        (ct(("G", 2)), "sc"),
        (ct(("A", 1), ("A", 1)), "adjoint"),
    ):
        d = build_datum(t, iso)
        hand = _hand_betti_rank_two(d)
        got = _betti_from_complex(build_cech_complex(build_center_diagram(d)))
        assert got.betti == BettiTable(hand).betti, (str(t), iso)


def test_rank_one_rows_match_hand_computation():
    for iso in ("adjoint", "sc"):
        d = build_datum(ct(("A", 1)), iso)
        got = _betti_from_complex(build_cech_complex(build_center_diagram(d)))
        assert got.betti == (1, 1)
