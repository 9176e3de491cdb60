"""Cech complex structure and boundary-manifold homology."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from uctop import homology
from uctop.errors import FunctorialityViolation, NontrivialPi0, UctopError
from uctop.homology import (
    EXACT_RATIONAL,
    MOD_P_CERTIFIED,
    BettiTable,
    _betti_from_complex,
    _certified_betti,
    _check_square_zero,
    boundary_homology,
    build_cech_complex,
    build_center_diagram,
    total_euler,
)
from uctop.matrices import IntMatrix, RatMatrix, rank, rank_mod_p
from uctop.rootdata import (
    CartanType,
    all_levi_subsets,
    build_datum,
    center_of_levi,
    invariant_form,
    killing_projection,
)

from uctop.oracles import cramer_projection, leibniz_det, naive_rank


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


def test_diagram_rank_one_structure():
    d = build_datum(ct(("A", 1)), "adjoint")
    diag = build_center_diagram(d)
    assert list(diag.arrows) == [((), ())]
    assert diag.arrow((), ()).rows == 1
    assert diag.arrow((), ()) == RatMatrix.identity(1)


def test_diagram_rank_two_structure():
    d = build_datum(ct(("A", 2)), "adjoint")
    diag = build_center_diagram(d)
    assert {s: diag.arrow(s, s).rows for s, sp in diag.arrows if s == sp} == {
        (): 2,
        (1,): 1,
        (2,): 1,
    }
    nonidentity = [k for k in diag.arrows if k[0] != k[1]]
    assert sorted(nonidentity) == [((), (1,)), ((), (2,))]
    for s, sp in nonidentity:
        assert rank(diag.arrow(s, sp)) == 1


def test_diagram_functoriality_exact():
    for t, iso in ((ct(("A", 3)), "adjoint"), (ct(("B", 3)), "sc")):
        d = build_datum(t, iso)
        diag = build_center_diagram(d)
        for (s1, s2), m12 in diag.arrows.items():
            for (s2b, s3), m23 in diag.arrows.items():
                if s2b != s2:
                    continue
                assert m23.mul(m12) == diag.arrow(s1, s3)


def test_diagram_holds_identity_and_covering_arrows_only():
    for t, iso in (
        (ct(("A", 3)), "adjoint"),
        (ct(("B", 3)), "sc"),
        (ct(("A", 1), ("A", 2)), "adjoint"),
    ):
        d = build_datum(t, iso)
        diag = build_center_diagram(d)
        proper = all_levi_subsets(t.rank, proper=True)
        nested = [(s, sp) for s in proper for sp in proper if set(s) <= set(sp)]
        assert set(diag.arrows) == {
            (s, sp) for s, sp in nested if len(sp) - len(s) <= 1
        }, str(t)
        for s, sp in nested:
            assert diag.arrow(s, sp) == killing_projection(d, s, sp), (str(t), s, sp)
        with pytest.raises(ValueError):
            diag.arrow((1,), (2,))


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


def _mod_p_table(cx, p):
    betti = [0] * (2 * cx.n)
    for row in cx.rows:
        ranks = {q: rank_mod_p(m, p) for q, m in row.diffs.items()}
        for q, dim in enumerate(row.dims):
            betti[row.w + q] += dim - ranks.get(q, 0) - ranks.get(q + 1, 0)
    return BettiTable(tuple(betti))


def test_sphere_sweep_is_certified_mod_p():
    for t, iso in SPHERE_SWEEP:
        cx = build_cech_complex(build_center_diagram(build_datum(t, iso)))
        table, how = _certified_betti(cx)
        assert table == BettiTable.sphere(2 * t.rank - 1), (str(t), iso)
        assert how == MOD_P_CERTIFIED, (str(t), iso)


@pytest.mark.parametrize("prime", [2, 3])
def test_exact_fallback_when_mod_p_table_is_not_a_sphere(monkeypatch, prime):
    monkeypatch.setattr(homology, "RANK_PRIME", prime)
    fallbacks = []
    for t, iso in SPHERE_SWEEP:
        d = build_datum(t, iso)
        sphere = BettiTable.sphere(2 * t.rank - 1)
        cx = build_cech_complex(build_center_diagram(d))
        table, how = _certified_betti(cx)
        assert table == sphere, (str(t), iso)
        assert (how == EXACT_RATIONAL) == (_mod_p_table(cx, prime) != sphere), (str(t), iso)
        if how == EXACT_RATIONAL:
            fallbacks.append(f"{t}:{iso}")
        assert boundary_homology(d) == sphere, (str(t), iso)
    assert fallbacks, f"no table mod {prime} differed from the sphere"
    with pytest.raises(NontrivialPi0) as err:
        boundary_homology(build_datum(ct(("A", 3)), "sc"))
    assert err.value.levi == (1, 3)


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
    # X/Q names a witness whose SNF finds a connected center
    monkeypatch.setattr(homology, "proper_pi0_witness", lambda d: (1,))
    with pytest.raises(UctopError) as err:
        boundary_homology(build_datum(ct(("A", 2)), "adjoint"))
    assert type(err.value) is UctopError
    assert str(err.value) == (
        "X/Q names S = {1} as a witness, but its Levi center has trivial pi0"
    )
    # X/Q finds no witness where an SNF finds a disconnected proper center
    monkeypatch.setattr(homology, "proper_pi0_witness", lambda d: None)
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
        backward = _betti_from_complex(cx, row_order=range(n, -1, -1))
        middle_out = _betti_from_complex(
            cx, row_order=sorted(range(n + 1), key=lambda w: abs(w - n // 2))
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
