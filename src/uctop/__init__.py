"""Exact-arithmetic topological invariants of universal centralizers.

Given a complex semisimple group described by its root datum (Cartan type
plus character lattice), this package computes, with no floating point
anywhere: Levi-center component groups, point counts over finite fields and
E-polynomials, the Cech homology of the boundary manifold, and the rational
Betti table of the universal centralizer via handle attachment, cross-checked
against the purity prediction.
"""

from .assembly import AssemblyReport, intersection_number, universal_centralizer_homology
from .counting import (
    QPolynomial,
    e_polynomial,
    format_poly,
    point_count_poly,
    poincare_from_purity,
    purity_poincare_coeffs,
)
from .errors import (
    FunctorialityViolation,
    GroupSpecError,
    NegativeCoefficient,
    NonPolynomialResult,
    NontrivialPi0,
    UctopError,
)
from .homology import (
    BettiTable,
    CechComplex,
    CenterDiagram,
    boundary_homology,
    build_cech_complex,
    build_center_diagram,
    total_euler,
)
from .matrices import (
    IntMatrix,
    InvariantFactors,
    RatMatrix,
    compound,
    rank,
    snf,
)
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
    killing_projection,
    levi_root_matrix,
    proper_pi0_witness,
    weyl_order,
)

__version__ = "0.1.0"
