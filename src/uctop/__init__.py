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
from .matrices import IntMatrix
from .rootdata import CartanType, RootDatum, build_datum, cartan_matrix, center_order, weyl_order

__version__ = "0.1.0"

# The Levi centers with their Smith form, the certified boundary homology,
# the Cech build, the assembly, the count polynomials, the sparse rational
# matrices and the lattice-basis projections load on first use, so that a
# command which never reads them does not compile them (PEP 562).
# `uctop.homology` re-exports the names of `uctop.boundary`, and both give
# the same objects.
_LAZY = {
    "assembly": ("AssemblyReport", "intersection_number", "universal_centralizer_homology"),
    "boundary": ("BettiTable", "boundary_homology"),
    "counting": (
        "QPolynomial",
        "e_polynomial",
        "format_poly",
        "point_count_poly",
        "poincare_from_purity",
        "purity_poincare_coeffs",
    ),
    "homology": (
        "CechComplex",
        "CenterDiagram",
        "build_cech_complex",
        "build_center_diagram",
        "total_euler",
    ),
    "levi": (
        "CenterData",
        "InvariantFactors",
        "all_levi_subsets",
        "center_of_levi",
        "invariant_form",
        "levi_root_matrix",
        "proper_pi0_witness",
        "snf",
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
