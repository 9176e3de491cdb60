"""Exact-arithmetic topological invariants of universal centralizers.

Given a complex semisimple group described by its root datum (Cartan type
plus character lattice), this package computes, with no floating point
anywhere: Levi-center component groups, point counts over finite fields and
E-polynomials, the Cech homology of the boundary manifold, and the rational
Betti table of the universal centralizer via handle attachment, cross-checked
against the purity prediction.
"""

from .errors import (
    FunctorialityViolation,
    GroupSpecError,
    NegativeCoefficient,
    NonPolynomialResult,
    NontrivialPi0,
    UctopError,
)
from .matrices import IntMatrix, InvariantFactors, snf
from .rootdata import (
    CartanType,
    CenterData,
    RootDatum,
    all_levi_subsets,
    build_datum,
    cartan_matrix,
    center_of_levi,
    center_order,
    invariant_form,
    levi_root_matrix,
    proper_pi0_witness,
    weyl_order,
)

__version__ = "0.1.0"

# The homology, the assembly, the count polynomials, the sparse rational
# matrices and the lattice-basis projections load on first use, so that a
# command which never reads them does not compile them (PEP 562).
_LAZY = {
    "assembly": ("AssemblyReport", "intersection_number", "universal_centralizer_homology"),
    "counting": (
        "QPolynomial",
        "e_polynomial",
        "format_poly",
        "point_count_poly",
        "poincare_from_purity",
        "purity_poincare_coeffs",
    ),
    "homology": (
        "BettiTable",
        "CechComplex",
        "CenterDiagram",
        "boundary_homology",
        "build_cech_complex",
        "build_center_diagram",
        "total_euler",
    ),
    "projections": ("compound", "killing_projection"),
    "rational": ("RatMatrix", "rank"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_MODULE})
