"""Handle attachment: assembled Betti tables, certificates, refusals."""

from __future__ import annotations

from fractions import Fraction

import pytest

from uctop import assembly
from uctop.assembly import intersection_number, universal_centralizer_homology
from uctop.counting import e_polynomial, poincare_from_purity
from uctop.errors import NontrivialPi0, UctopError
from uctop.levi import proper_pi0_witness
from uctop.matrices import IntMatrix
from uctop.rootdata import CartanType, build_datum, center_order


def ct(*factors):
    return CartanType(tuple(factors))


ADJOINT_LIST = [
    ct(("A", 1)), ct(("A", 2)), ct(("A", 3)), ct(("A", 4)),
    ct(("B", 2)), ct(("B", 3)), ct(("C", 3)), ct(("D", 4)),
    ct(("F", 4)), ct(("G", 2)),
    ct(("A", 1), ("A", 1)), ct(("A", 1), ("A", 2)),
]


def test_intersection_number_examples():
    assert intersection_number(build_datum(ct(("A", 1)), "adjoint")) == 2
    assert intersection_number(build_datum(ct(("A", 1)), "sc")) == 1
    assert intersection_number(build_datum(ct(("A", 2)), "sc")) == 2
    assert intersection_number(build_datum(ct(("D", 4)), "sc")) == Fraction(192, 4)


def test_adjoint_homology_is_a_point():
    for t in ADJOINT_LIST:
        report = universal_centralizer_homology(build_datum(t, "adjoint"))
        assert report.betti.betti == (1,), str(t)
        assert report.purity_match is True
        assert report.cells_attached == 1
        assert report.boundary_rank == 1


def test_sl_p_homology():
    for p in (2, 3, 5):
        n = p - 1
        report = universal_centralizer_homology(build_datum(ct(("A", n)), "sc"))
        want = [0] * (2 * n + 1)
        want[0] = 1
        want[2 * n] = p - 1
        assert report.betti.betti == tuple(w for w in want[: 2 * n + 1]) or (
            report.betti.betti == tuple(want)
        ), p
        assert report.betti.betti[0] == 1
        assert report.betti.betti[2 * n] == p - 1
        assert sum(report.betti.betti) == p
        assert report.cells_attached == p
        assert report.purity_match is True


def test_euler_matches_center_order_and_e_value():
    data = [
        build_datum(ct(("A", 4)), "sc"),
        build_datum(ct(("A", 2)), "sc"),
        build_datum(ct(("G", 2)), "sc"),
        build_datum(ct(("F", 4)), "sc"),
        build_datum(ct(("E", 6)), "adjoint"),
        build_datum(ct(("A", 3)), IntMatrix.from_rows([[1, 0, 1], [0, 1, 0], [2, 0, 0]])),
    ]
    for d in data:
        if proper_pi0_witness(d) is not None:
            continue
        report = universal_centralizer_homology(d)
        z = center_order(d)
        assert report.betti.euler() == z
        assert e_polynomial(d).evaluate(1) == z


def test_top_minus_one_degree_dies():
    for t in ADJOINT_LIST:
        for iso in ("adjoint", "sc"):
            d = build_datum(t, iso)
            if proper_pi0_witness(d) is not None:
                continue
            report = universal_centralizer_homology(d)
            n = d.rank
            betti = report.betti.betti
            assert len(betti) <= 2 * n - 1 or betti[2 * n - 1] == 0, (str(t), iso)


def test_purity_match_everywhere_assembly_succeeds():
    for t in ADJOINT_LIST:
        for iso in ("adjoint", "sc"):
            d = build_datum(t, iso)
            if proper_pi0_witness(d) is not None:
                continue
            report = universal_centralizer_homology(d)
            assert report.purity_match is True
            assert tuple(poincare_from_purity(d).coeffs) == report.betti.betti


def test_refusals_name_a_witness():
    cases = [
        (build_datum(ct(("A", 3)), "sc"), (1, 3)),
        (build_datum(ct(("D", 4)), "sc"), (1, 3)),
        (
            build_datum(
                ct(("D", 4)),
                IntMatrix.from_rows(
                    [[1, 0, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 1], [0, 0, -1, 1]]
                ),
            ),
            (3, 4),
        ),
        (build_datum(ct(("B", 3)), "sc"), (1, 3)),
        (build_datum(ct(("B", 2)), "sc"), (1,)),
    ]
    for d, witness in cases:
        with pytest.raises(NontrivialPi0) as err:
            universal_centralizer_homology(d)
        assert err.value.levi == witness
        assert err.value.factors and all(f >= 2 for f in err.value.factors)


def test_refusal_exactly_when_witness_exists():
    data = [
        build_datum(ct(("A", n)), iso)
        for n in range(1, 6)
        for iso in ("adjoint", "sc")
    ] + [
        build_datum(ct(("B", 2)), "sc"),
        build_datum(ct(("C", 3)), "sc"),
        build_datum(ct(("D", 4)), "sc"),
        build_datum(ct(("G", 2)), "sc"),
    ]
    for d in data:
        witness = proper_pi0_witness(d)
        if witness is None:
            universal_centralizer_homology(d)  # must not raise
        else:
            with pytest.raises(NontrivialPi0) as err:
                universal_centralizer_homology(d)
            assert err.value.levi == witness


def test_intersection_number_is_positive_integer_on_matrix():
    for t in ADJOINT_LIST:
        for iso in ("adjoint", "sc"):
            d = build_datum(t, iso)
            number = intersection_number(d)
            assert number > 0
            assert number.denominator == 1, (str(t), iso)
            assert type(number) is int, (str(t), iso)


def test_center_order_that_does_not_divide_the_weyl_order_is_an_error(monkeypatch):
    # |Z| divides |W| on every root datum, so only a rigged |Z| reaches the guard
    monkeypatch.setattr(assembly, "center_order", lambda d: 5)
    d = build_datum(ct(("A", 3)), "adjoint")
    with pytest.raises(UctopError, match="^center order 5 does not divide the Weyl group order 24$"):
        intersection_number(d)
    with pytest.raises(UctopError, match="center order 5 does not divide"):
        universal_centralizer_homology(d)
