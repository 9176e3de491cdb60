"""Value semantics of the library's record classes: field-wise equality and
hashing, immutability, repr, keyword construction and weak references."""

from __future__ import annotations

import weakref
from fractions import Fraction

import pytest

from uctop.assembly import AssemblyReport, universal_centralizer_homology
from uctop.cli import GroupSpec, parse_spec
from uctop.counting import QPolynomial
from uctop.homology import (
    BettiTable,
    CechComplex,
    CechRow,
    CenterDiagram,
    build_cech_complex,
    build_center_diagram,
)
from uctop.levi import (
    CenterData,
    InvariantFactors,
    QuotientSupports,
    center_of_levi,
    quotient_supports,
)
from uctop.matrices import IntMatrix
from uctop.rational import RatMatrix
from uctop.rootdata import CartanType, RootDatum, build_datum


def _datum() -> RootDatum:
    return build_datum(CartanType((("A", 3),)), "adjoint")


def _row() -> CechRow:
    return build_cech_complex(build_center_diagram(_datum())).rows[1]


# class -> (a factory building a fresh value, its fields in order, frozen)
VALUES = {
    IntMatrix: (lambda: IntMatrix(2, 2, (1, 2, 3, 4)), ("rows", "cols", "entries"), True),
    RatMatrix: (
        lambda: RatMatrix.from_rows([[Fraction(1, 2), 0], [0, 3]]),
        ("rows", "cols", "num", "den"),
        True,
    ),
    InvariantFactors: (lambda: InvariantFactors((2, 4)), ("factors",), True),
    CartanType: (lambda: CartanType((("A", 1), ("G", 2))), ("factors",), True),
    RootDatum: (_datum, ("cartan_type", "char_lattice"), True),
    CenterData: (lambda: center_of_levi(_datum(), (1,)), ("pi0", "cochar_basis", "dim"), True),
    QuotientSupports: (
        lambda: quotient_supports(build_datum(CartanType((("A", 3),)), "sc")),
        ("sizes", "witness"),
        True,
    ),
    QPolynomial: (lambda: QPolynomial((1, 0, 2), "uv"), ("coeffs", "variable"), True),
    BettiTable: (lambda: BettiTable((1, 0, 1)), ("betti",), True),
    CenterDiagram: (lambda: build_center_diagram(_datum()), ("datum", "arrows"), False),
    CechRow: (_row, ("w", "dims", "diffs"), False),
    CechComplex: (
        lambda: build_cech_complex(build_center_diagram(_datum())),
        ("n", "rows"),
        False,
    ),
    AssemblyReport: (
        lambda: universal_centralizer_homology(_datum()),
        ("betti", "cells_attached", "boundary_rank", "intersection_number", "purity_match"),
        True,
    ),
    GroupSpec: (lambda: parse_spec("A1xA2:sc"), ("raw", "cartan_type", "isogeny"), True),
}

PRIVATE = {RootDatum: "_memo", GroupSpec: "_datum"}


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda c: c.__name__)
def test_value_semantics(cls):
    factory, fields, frozen = VALUES[cls]
    a, b = factory(), factory()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert weakref.ref(a)() is a
    # every field is a constructor keyword, and the fields make the value
    assert cls(**{f: getattr(a, f) for f in fields}) == a
    # repr is Name(field=value, ...) over the public fields, in order
    body = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields)
    assert repr(a) == f"{cls.__name__}({body})"
    if frozen and cls is not RatMatrix:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    if frozen:
        for name in fields + ((PRIVATE[cls],) if cls in PRIVATE else ()):
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(a, name))
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == b


def test_private_caches_stay_out_of_equality_and_repr():
    d1, d2 = _datum(), _datum()
    center_of_levi(d1, (1, 2))  # fills d1's cache only
    assert d1._memo and not d2._memo
    assert d1 == d2 and hash(d1) == hash(d2)
    assert "_memo" not in repr(d1)
    g1, g2 = parse_spec("A2:adjoint"), parse_spec("A2:adjoint")
    g1.datum()
    assert g1 == g2 and hash(g1) == hash(g2) and "_datum" not in repr(g1)


def test_equality_needs_the_same_class():
    assert QPolynomial((1, 0), "t") == QPolynomial((1,), "t") != QPolynomial((1,))
    assert IntMatrix(1, 1, (1,)) != RatMatrix.identity(1)


def test_rational_matrices_are_unhashable():
    with pytest.raises(TypeError):
        hash(RatMatrix.identity(2))


def test_exact_reprs():
    assert repr(IntMatrix(1, 2, (3, 4))) == "IntMatrix(rows=1, cols=2, entries=(3, 4))"
    assert repr(QPolynomial((1, 0, 0), "t")) == "QPolynomial(coeffs=(1,), variable='t')"
    assert repr(build_datum(CartanType((("A", 1),)), "adjoint")) == (
        "RootDatum(cartan_type=CartanType(factors=(('A', 1),)), "
        "char_lattice=IntMatrix(rows=1, cols=1, entries=(2,)))"
    )
    assert repr(RatMatrix.from_rows([[Fraction(2, 4)]])) == (
        "RatMatrix(rows=1, cols=1, num=({0: 1},), den=(2,))"
    )
