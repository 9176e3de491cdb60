"""Point counts, E-polynomials and the purity substitution."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from uctop import levi
from uctop.cli import parse_spec
from uctop.counting import (
    QPolynomial,
    e_polynomial,
    format_poly,
    point_count_poly,
    poincare_from_purity,
    purity_poincare_coeffs,
)
from uctop.errors import NegativeCoefficient, NonPolynomialResult
from uctop.levi import all_levi_subsets, center_of_levi, proper_pi0_witness
from uctop.matrices import IntMatrix
from uctop.rootdata import CartanType, build_datum, cartan_matrix, center_order

ROOT = Path(__file__).resolve().parents[1]


def ct(*factors):
    return CartanType(tuple(factors))


DATA_MATRIX = [
    build_datum(ct(("A", 1)), "adjoint"),
    build_datum(ct(("A", 1)), "sc"),
    build_datum(ct(("A", 2)), "sc"),
    build_datum(ct(("A", 3)), "sc"),
    build_datum(ct(("A", 4)), "sc"),
    build_datum(ct(("B", 3)), "sc"),
    build_datum(ct(("C", 3)), "sc"),
    build_datum(ct(("D", 4)), "sc"),
    build_datum(ct(("E", 6)), "sc"),
    build_datum(ct(("F", 4)), "adjoint"),
    build_datum(ct(("G", 2)), "adjoint"),
    build_datum(ct(("A", 1), ("A", 2)), "sc"),
    build_datum(ct(("A", 3)), IntMatrix.from_rows([[1, 0, 1], [0, 1, 0], [2, 0, 0]])),
    build_datum(
        ct(("D", 4)),
        IntMatrix.from_rows([[1, 0, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 1], [0, 0, -1, 1]]),
    ),
]

ADJOINT_TYPES = (
    [ct(("A", n)) for n in range(1, 9)]
    + [ct(("B", n)) for n in range(2, 9)]
    + [ct(("C", n)) for n in range(3, 9)]
    + [ct(("D", n)) for n in range(4, 9)]
    + [
        ct(("E", 6)), ct(("E", 7)), ct(("E", 8)), ct(("F", 4)), ct(("G", 2)),
        ct(("A", 1), ("A", 1)), ct(("A", 1), ("A", 2)), ct(("B", 2), ("G", 2)),
    ]
)


def test_adjoint_count_is_q_to_2n():
    for t in ADJOINT_TYPES:
        d = build_datum(t, "adjoint")
        poly = point_count_poly(d)
        assert poly.coeffs == (0,) * (2 * t.rank) + (1,), str(t)


def test_count_a1_sc():
    poly = point_count_poly(build_datum(ct(("A", 1)), "sc"))
    assert poly.coeffs == (0, 1, 1)
    assert str(poly) == "q^2 + q"


def test_count_monic_degree_2n():
    for d in DATA_MATRIX:
        poly = point_count_poly(d)
        assert poly.degree == 2 * d.rank
        assert poly.coeffs[-1] == 1


def test_count_at_one_is_center_order():
    for d in DATA_MATRIX:
        assert point_count_poly(d).evaluate(1) == center_order(d)


def test_e_polynomial_same_coefficients_uv_variable():
    for d in DATA_MATRIX:
        e = e_polynomial(d)
        assert e.coeffs == point_count_poly(d).coeffs
        assert e.variable == "uv"
        assert e.evaluate(1) == center_order(d)


def test_e_polynomial_examples():
    assert str(e_polynomial(build_datum(ct(("A", 2)), "adjoint"))) == "(uv)^4"
    assert e_polynomial(build_datum(ct(("A", 1)), "sc")).coeffs == (0, 1, 1)
    assert e_polynomial(build_datum(ct(("A", 2)), "sc")).evaluate(1) == 3


def test_poincare_adjoint_is_one():
    for t in ADJOINT_TYPES:
        poly = poincare_from_purity(build_datum(t, "adjoint"))
        assert poly.coeffs == (1,), str(t)


def test_poincare_sl_p():
    for p in (2, 3, 5, 7):
        d = build_datum(ct(("A", p - 1)), "sc")
        poly = poincare_from_purity(d)
        want = [0] * (2 * (p - 1) + 1)
        want[0] = 1
        want[2 * (p - 1)] = p - 1
        assert poly.coeffs == tuple(want), p


def test_poincare_a1_sc():
    assert poincare_from_purity(build_datum(ct(("A", 1)), "sc")).coeffs == (1, 0, 1)


def test_substitution_identity():
    for d in DATA_MATRIX:
        n = d.rank
        e = e_polynomial(d).coeffs
        p = list(poincare_from_purity(d).coeffs)
        p += [0] * (4 * n + 1 - len(p))
        for k in range(2 * n + 1):
            ek = e[k] if k < len(e) else 0
            assert p[4 * n - 2 * k] == ek, (d.cartan_type, k)
        assert all(p[j] == 0 for j in range(1, 4 * n + 1, 2))


def test_purity_substitution_error_paths():
    with pytest.raises(NegativeCoefficient):
        purity_poincare_coeffs((0, -1, 1), 1)  # q^2 - q is not pure
    with pytest.raises(NonPolynomialResult):
        purity_poincare_coeffs((0, 0, 0, 1), 1)  # degree 3 > 2n for n = 1


def test_polynomial_normalization_and_eval():
    p = QPolynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert p.evaluate(3) == 7
    assert p.evaluate(Fraction(1, 2)) == 2
    z = QPolynomial(())
    assert z.coeffs == () and z.degree == -1 and z.evaluate(5) == 0
    assert QPolynomial((0, 0), "t").coeffs == ()


def test_format_poly():
    assert format_poly((), "q") == "0"
    assert format_poly((1,), "q") == "1"
    assert format_poly((0, 1, 1), "q") == "q^2 + q"
    assert format_poly((2, -3, 1), "q") == "q^2 - 3q + 2"
    assert format_poly((-1,), "t") == "-1"
    assert format_poly((0, 1), "uv") == "(uv)"
    assert format_poly((0, 0, 0, 0, 1), "uv") == "(uv)^4"


# ---------------------------------------------------------------------------
# the X/Q route against the Levi-SNF route


def _levi_snf_reference(d):
    """Count coefficients, |pi0| of every S and the first witness, all from
    Levi SNFs: count(q) = q^n sum_S |pi0(Z(L_S))| (q - 1)^(n - |S|)."""
    n = d.rank
    orders = {s: center_of_levi(d, s).pi0.order() for s in all_levi_subsets(n)}
    count = [0] * (2 * n + 1)
    for s, order in orders.items():
        k = n - len(s)
        for j in range(k + 1):
            count[n + j] += order * math.comb(k, j) * (-1) ** (k - j)
    witness = next((s for s in all_levi_subsets(n, proper=True) if orders[s] > 1), None)
    return tuple(count), orders, witness


def _lattice_basis(rows):
    """A basis of the lattice spanned by integer rows (full rank), by
    Euclidean row reduction column after column."""
    rows = [list(r) for r in rows]
    basis = []
    for c in range(len(rows[0])):
        while True:
            live = [r for r in rows if r[c]]
            if len(live) <= 1:
                break
            p = min(live, key=lambda r: abs(r[c]))
            for r in live:
                if r is not p:
                    q = r[c] // p[c]
                    r[:] = [a - q * b for a, b in zip(r, p)]
        pivot = next((r for r in rows if r[c]), None)
        if pivot is not None:
            rows.remove(pivot)
            basis.append(pivot)
    return basis


def _scrambled(rows, rng):
    """The same lattice in another basis: random row operations r_i += c r_j,
    sign flips and a shuffle."""
    rows = [list(r) for r in rows]
    for _ in range(rng.randint(2, 16) if len(rows) > 1 else 0):
        i, j = rng.sample(range(len(rows)), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rows = [[-a for a in r] if rng.random() < 0.3 else r for r in rows]
    rng.shuffle(rows)
    return rows


FUZZ_TYPES = [
    ct(("A", 1)), ct(("A", 2)), ct(("A", 3)), ct(("A", 4)), ct(("A", 5)),
    ct(("B", 2)), ct(("B", 3)), ct(("B", 5)), ct(("C", 3)), ct(("C", 4)),
    ct(("D", 4)), ct(("D", 5)), ct(("G", 2)), ct(("F", 4)),
    ct(("A", 1), ("A", 1)), ct(("A", 1), ("A", 3)), ct(("A", 2), ("A", 2)),
    ct(("A", 1), ("A", 1), ("A", 1)), ct(("A", 1), ("B", 2), ("A", 2)),
    ct(("A", 1), ("A", 1), ("A", 1), ("A", 1)), ct(("A", 3), ("A", 2)),
    ct(("A", 6)), ct(("D", 6)), ct(("E", 6)), ct(("A", 1), ("A", 5)),
    ct(("A", 2), ("A", 2), ("A", 2)),
]


def _center_routes(d):
    """|Z| three ways: |det R| (`center_order`), the Smith form of R at
    S = Pi, and the lattice index |det A| / |det L|."""
    return (
        center_order(d),
        center_of_levi(d, range(1, d.rank + 1)).pi0.order(),
        abs(cartan_matrix(d.cartan_type).det()) // abs(d.char_lattice.det()),
    )


def test_center_order_matches_the_smith_form_on_catalogue_lattices():
    catalogue = json.loads((ROOT / "bench" / "data" / "lattices.json").read_text())
    entries = [e for e in catalogue["entries"] if len(e["rows"]) <= 5]
    assert entries
    for e in entries:
        d = build_datum(parse_spec(e["ref"]).cartan_type, IntMatrix.from_rows(e["rows"]))
        z, smith, index = _center_routes(d)
        assert z == smith == index, (e["ref"], e["rows"])


@pytest.mark.parametrize("t", FUZZ_TYPES, ids=str)
def test_quotient_route_matches_levi_snf_route_in_random_bases(t):
    n = t.rank
    rng = random.Random(f"quotient:{t}")
    roots = cartan_matrix(t).to_lists()
    weight = [[int(i == j) for j in range(n)] for i in range(n)]
    lattices = [roots, weight]
    for _ in range(3):  # Q + Z w for a random weight w: any intermediate lattice
        w = [rng.randint(-3, 3) for _ in range(n)]
        lattices.append(_lattice_basis(roots + [w]))
    for rows in lattices:
        for _ in range(3):
            basis = _scrambled(rows, rng)
            d = build_datum(t, IntMatrix.from_rows(basis))
            count, orders, witness = _levi_snf_reference(d)
            assert point_count_poly(d).coeffs == count, basis
            classes = levi._class_supports(d)
            for s, order in orders.items():
                mask = sum(1 << (i - 1) for i in s)
                assert sum(1 for m, _ in classes if m & ~mask == 0) == order, (basis, s)
                # the whole group, not only its order: X/Q against the Smith form
                assert levi.levi_pi0(d, s) == center_of_levi(d, s).pi0, (basis, s)
            assert proper_pi0_witness(d) == witness, basis
            z, smith, index = _center_routes(d)
            assert z == smith == index, basis


def _sl_reference(n):
    """Count coefficients and witness of SL(n + 1), by hand: omega_k has the
    simple-root coordinates i (n + 1 - k) / (n + 1) (i <= k) and
    k (n + 1 - i) / (n + 1) (i >= k), so its support is the set of i with
    n + 1 not dividing i k."""
    supports = [tuple(i for i in range(1, n + 1) if i * k % (n + 1)) for k in range(n + 1)]
    count = [0] * (2 * n + 1)
    for s in supports:
        count[2 * n - len(s)] += 1
    proper = [s for s in supports if 0 < len(s) < n]
    return tuple(count), min(proper, key=lambda s: (len(s), s), default=None)


A7_SCRAMBLED = (
    "A7:lattice=[[-5,1,-1,-1,-3,1,-15],[5,-1,1,1,3,0,15],[3,-2,0,2,2,0,11],"
    "[3,0,2,1,2,0,13],[-7,-1,-2,0,-4,0,-19],[-2,2,0,0,-1,1,-7],[5,-2,1,1,3,-1,17]]"
)
A7_REFERENCE = (
    "A7:lattice=[[1,0,0,0,0,0,1],[0,1,0,0,0,0,0],[0,0,1,0,0,0,1],[0,0,0,1,0,0,0],"
    "[0,0,0,0,1,0,1],[0,0,0,0,0,1,0],[0,0,0,0,0,0,2]]"
)


def _pinned_spec():
    catalogue = json.loads((ROOT / "bench" / "data" / "lattices.json").read_text())
    return catalogue["pinned"][0]["argv"][1]


def _count_side(d):
    return (
        center_order(d),
        point_count_poly(d),
        e_polynomial(d).coeffs,
        poincare_from_purity(d).coeffs,
        proper_pi0_witness(d),
    )


def test_count_side_runs_without_any_snf(monkeypatch):
    def refuse(*args):
        raise AssertionError("the count side ran a Smith normal form")

    monkeypatch.setattr(levi, "snf", refuse)
    a14 = _count_side(parse_spec("A14:sc").datum())
    count, witness = _sl_reference(14)
    assert a14[0] == 15 and a14[1].coeffs == count and a14[4] == witness
    pinned = _count_side(parse_spec(_pinned_spec()).datum())
    assert pinned == _count_side(parse_spec("A9:sc").datum())
    assert pinned[0] == 10 and pinned[1].coeffs == _sl_reference(9)[0]
    assert pinned[4] == _sl_reference(9)[1]
    a7 = _count_side(parse_spec(A7_SCRAMBLED).datum())
    assert a7 == _count_side(parse_spec(A7_REFERENCE).datum())
    assert a7[0] == 4 and str(a7[1]) == "q^14 + q^10 + 2q^8"
    assert a7[4] == (1, 3, 5, 7)
