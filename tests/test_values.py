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


# class -> (a factory building a fresh value, its fields in order)
VALUES = {
    IntMatrix: (lambda: IntMatrix(2, 2, (1, 2, 3, 4)), ("rows", "cols", "entries")),
    RatMatrix: (
        lambda: RatMatrix.from_rows([[Fraction(1, 2), 0], [0, 3]]),
        ("rows", "cols", "num", "den"),
    ),
    InvariantFactors: (lambda: InvariantFactors((2, 4)), ("factors",)),
    CartanType: (lambda: CartanType((("A", 1), ("G", 2))), ("factors",)),
    RootDatum: (_datum, ("cartan_type", "char_lattice")),
    CenterData: (lambda: center_of_levi(_datum(), (1,)), ("pi0", "cochar_basis", "dim")),
    QuotientSupports: (
        lambda: quotient_supports(build_datum(CartanType((("A", 3),)), "sc")),
        ("sizes", "witness"),
    ),
    QPolynomial: (lambda: QPolynomial((1, 0, 2), "uv"), ("coeffs", "variable")),
    BettiTable: (lambda: BettiTable((1, 0, 1)), ("betti",)),
    CenterDiagram: (lambda: build_center_diagram(_datum()), ("datum", "arrows")),
    CechRow: (_row, ("w", "dims", "diffs")),
    CechComplex: (
        lambda: build_cech_complex(build_center_diagram(_datum())),
        ("n", "rows"),
    ),
    AssemblyReport: (
        lambda: universal_centralizer_homology(_datum()),
        ("betti", "cells_attached", "boundary_rank", "intersection_number", "purity_match"),
    ),
    GroupSpec: (lambda: parse_spec("A1xA2:sc"), ("cartan_type", "isogeny")),
}

PRIVATE = {RootDatum: "_memo", GroupSpec: "_datum"}

# values holding dicts or lists
UNHASHABLE = {RatMatrix, CenterDiagram, CechRow, CechComplex}

# the records that take the inherited constructor
FIELD_ONLY = [CenterData, QuotientSupports, AssemblyReport, CenterDiagram, CechRow, CechComplex]


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda c: c.__name__)
def test_value_semantics(cls):
    factory, fields = VALUES[cls]
    a, b = factory(), factory()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert weakref.ref(a)() is a
    # every field is a constructor keyword, and the fields make the value
    assert cls(**{f: getattr(a, f) for f in fields}) == a
    # repr is Name(field=value, ...) over the public fields, in order
    body = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields)
    assert repr(a) == f"{cls.__name__}({body})"
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for name in fields + ((PRIVATE[cls],) if cls in PRIVATE else ()):
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


@pytest.mark.parametrize("cls", FIELD_ONLY, ids=lambda c: c.__name__)
def test_field_only_constructor_takes_each_field_once(cls):
    factory, fields = VALUES[cls]
    a = factory()
    values = [getattr(a, f) for f in fields]
    by_name = dict(zip(fields, values))
    assert "__init__" not in vars(cls)
    assert cls(*values) == cls(values[0], **dict(zip(fields[1:], values[1:]))) == a
    for args, kwargs in (
        (values[:-1], {}),  # missing
        ((), {f: v for f, v in by_name.items() if f != fields[0]}),  # missing
        (values + values[:1], {}),  # extra
        (values, {fields[-1]: values[-1]}),  # repeated
        ((), {**by_name, "extra": values[0]}),  # unknown
    ):
        with pytest.raises(TypeError, match="each of its fields"):
            cls(*args, **kwargs)


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
