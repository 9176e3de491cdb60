"""The cross-module invariant battery behind `uctop check`.

Each item compares one result of the pipeline with a second route to it: a
brute-force oracle, another formula, or a guard's own test. The pipeline runs
in stages (the Levi centers, the invariant form, the functoriality of the
center diagram and the naturality certificate, the Cech complex, its Betti
table against the certified closed form, the assembly), and each stage
yields its value or the guard error it raised. That outcome sets
the skip reason of every item that reads the stage, so a failed guard is one
FAIL line, never an exception.
"""

from __future__ import annotations

from . import assembly, boundary, homology, levi, oracles
from .counting import e_polynomial, point_count_poly, poincare_from_purity
from .errors import FunctorialityViolation, NontrivialPi0, UctopError, format_levi
from .levi import all_levi_subsets, center_of_levi, levi_root_matrix, proper_pi0_witness
from .rational import rank
from .rootdata import RootDatum, cartan_matrix, weyl_order

__all__ = ["run_checks"]


def _attempt(errors, build, *args):
    """(build(*args), None), or (None, the error) when it raises one of `errors`."""
    try:
        return build(*args), None
    except errors as exc:
        return None, exc


def _outcome(error) -> bool | tuple[bool, str]:
    """An item's result: pass without an error, else fail with its message."""
    return True if error is None else (False, str(error))


def run_checks(d: RootDatum) -> list[tuple[str, str, str]]:
    """(name, "pass" | "fail" | "skip", detail) for each item, in output order."""
    n = d.rank
    items: list[tuple[str, str, str]] = []

    def item(name: str, test, skip: str = "") -> None:
        """Record `name` as skipped for `skip`, else as the result of `test()`,
        which is ok or (ok, detail)."""
        if skip:
            items.append((name, "skip", skip))
            return
        result = test()
        ok, detail = result if isinstance(result, tuple) else (result, "")
        items.append((name, "pass" if ok else "fail", detail))

    # stage 0, the Levi centers: center_of_levi's guard on the kernel rank
    # is the dimension item; every item that reads a center needs them all
    subsets = all_levi_subsets(n)
    centers, center_error = _attempt(
        UctopError, lambda: {s: center_of_levi(d, s) for s in subsets}
    )
    needs_centers = "needs the Levi centers" if centers is None else ""
    # |Z| from the Smith form at S = Pi, not from `center_order`'s determinant,
    # so the center-order items below compare two routes; the assembly items
    # check the determinant route against the purity prediction
    z = None if centers is None else centers[tuple(range(1, n + 1))].pi0.order()

    item(
        "levi center dimension equals n - |S| for all S",
        lambda: _outcome(center_error)
        if centers is None
        else all(c.dim == n - len(s) for s, c in centers.items()),
    )
    def chains():
        # each Smith form against X/Q, the route that every request reads
        for s, c in centers.items():
            if any(b % a for a, b in zip(c.pi0.factors, c.pi0.factors[1:])):
                return False
            if (quotient := levi.levi_pi0(d, s)) != c.pi0:
                factors = ", ".join(map(str, quotient.factors))
                return False, f"S = {format_levi(s)}: X/Q gives ({factors})"
        return True

    item("invariant factors form divisibility chains", chains, needs_centers)
    item(
        "cocharacter bases annihilate their Levi roots",
        lambda: all(
            levi_root_matrix(d, s).mul(c.cochar_basis).is_zero()
            for s, c in centers.items()
        ),
        needs_centers,
    )
    item(
        "rank-nullity for every Levi root matrix",
        lambda: all(
            rank(levi_root_matrix(d, s)) + c.cochar_basis.cols == n
            for s, c in centers.items()
        ),
        needs_centers,
    )
    if d.is_adjoint():
        item(
            "adjoint form: all component groups trivial",
            lambda: all(c.pi0.is_trivial() for c in centers.values()),
            needs_centers,
        )
    if d.is_simply_connected():
        item(
            "simply connected form: center order equals Cartan determinant",
            lambda: z == cartan_matrix(d.cartan_type).det(),
            needs_centers,
        )
    # each Levi matrix is a set of rows of the one at S = Pi, so one table of
    # the latter's minors on at most 4 rows serves every S with |S| <= 4
    gcds = oracles.minor_gcds(levi_root_matrix(d, range(1, n + 1)).to_lists(), n, 4)
    item(
        "smith factors match minor-gcd divisors on small Levi matrices",
        lambda: all(
            oracles.subset_divisor_data(gcds, tuple(i - 1 for i in s)) == (c.pi0.factors, len(s))
            for s, c in centers.items()
            if len(s) <= 4
        ),
        needs_centers,
    )
    item(
        "weyl order matches reflection enumeration",
        lambda: weyl_order(d.cartan_type)
        == oracles.reflection_group_order(cartan_matrix(d.cartan_type).to_lists()),
        "rank > 4" if n > 4 else "",
    )

    # stage 1, the invariant form: invariant_form's guard, item by item, on
    # the form it guards (a symmetrizer that cannot be built fails the
    # first); the functoriality check certifies the coweight arrows against it
    gram, form_error = _attempt(UctopError, levi._symmetrized_cartan, d.cartan_type)
    symmetric = gram is not None and gram.is_symmetric()
    definite = gram is not None and gram.is_positive_definite()
    item(
        "invariant form is symmetric",
        lambda: _outcome(form_error) if gram is None else symmetric,
    )
    item(
        "invariant form is positive definite",
        lambda: definite,
        "needs the invariant form" if gram is None else "",
    )
    needs_form = "" if symmetric and definite else "needs the invariant form"

    # stage 2, functoriality: the form certificate and the one identity per
    # covering pair and column that makes every nested chain compose
    # (homology._check_functoriality says why). The naturality certificate
    # reads the same covering columns: phi_S' . M == pi . phi_S with phi
    # invertible makes every covering arrow M = phi_S'^(-1) . pi . phi_S a
    # surjection, and every longer arrow is a composite of covering ones
    needs_diagram = needs_form or needs_centers
    chain_error = None
    if not needs_diagram:
        _, chain_error = _attempt(UctopError, homology._check_functoriality, d)
    item("projection functoriality over chains", lambda: _outcome(chain_error), needs_diagram)
    item(
        "projections surject onto their targets",
        lambda: _outcome(_attempt(UctopError, boundary._check_naturality, d)[1]),
        needs_diagram,
    )

    count = point_count_poly(d)
    epoly = e_polynomial(d)
    item(
        "point count is monic of degree 2n",
        lambda: count.degree == 2 * n and count.coeffs[-1] == 1,
    )
    item(
        "point count at q = 1 equals the center order",
        lambda: count.evaluate(1) == z,
        needs_centers,
    )
    item("E(1,1) equals the center order", lambda: epoly.evaluate(1) == z, needs_centers)
    if d.is_adjoint():
        item(
            "adjoint form: point count is exactly q^(2n)",
            lambda: count.coeffs == (0,) * (2 * n) + (1,),
        )
    item(
        "purity substitution reindexes the E-coefficients",
        lambda: _check_substitution(epoly.coeffs, poincare_from_purity(d).coeffs, n),
    )

    # stages 3 and 4, the Cech complex and the assembly: run only when X/Q
    # finds no disconnected proper Levi center and the diagram is functorial,
    # so refused data build no covering arrow; the refusal-contract item
    # compares that X/Q gate with the stage-0 Smith forms at every proper S,
    # as the divisibility item compares the groups that X/Q gives
    witness = proper_pi0_witness(d)
    refused = f"refused at S = {format_levi(witness)}" if witness else ""
    complex_ = dd_error = forward = betti_error = closed = closed_error = None
    report = assembly_error = None
    if not refused and not needs_diagram and chain_error is None:
        diagram = homology.build_center_diagram(d)
        # build_cech_complex raises unless d.d = 0 on every row
        complex_, dd_error = _attempt(FunctorialityViolation, homology.build_cech_complex, diagram)
    if complex_ is not None:
        # the rank bookkeeping's guard fails the sphere item below
        forward, betti_error = _attempt(UctopError, homology._betti_from_complex, complex_)
    if forward is not None:
        # the first route, which cgbetti and jgbetti answer from: the closed
        # form, certified arrow by arrow; a failed certificate fails the
        # sphere item below
        closed, closed_error = _attempt(UctopError, boundary.boundary_homology, d)
        report, assembly_error = _attempt(UctopError, assembly._attach_handles, d, forward)
        # the assembly refuses a boundary that is not the odd sphere, which
        # fails the sphere item below (forward != closed): that item is then
        # the one FAIL line of the assembly. Any other guard it trips fails
        # the certificate item
        if forward != closed:
            assembly_error = None
    needs_complex = refused or ("needs the Cech complex" if complex_ is None else "")
    needs_betti = needs_complex or ("needs the boundary betti table" if forward is None else "")
    needs_assembly = needs_complex or ("needs the assembly" if report is None else "")

    item(
        "cech differentials square to zero",
        lambda: _outcome(dd_error),
        needs_complex if dd_error is None else "",
    )
    item(
        "total euler characteristic vanishes",
        lambda: homology.total_euler(complex_) == 0,
        needs_complex,
    )
    item(
        "row order does not change the boundary betti table",
        lambda: forward == homology._betti_from_complex(
            homology.CechComplex(n, complex_.rows[::-1])
        ),
        needs_betti,
    )
    item(
        "total betti bounded by total chain dimension",
        lambda: forward.total() <= sum(sum(r.dims) for r in complex_.rows),
        needs_betti,
    )
    item(
        "boundary homology is the odd sphere",
        lambda: _outcome(betti_error if forward is None else closed_error)
        if closed is None
        else (forward == closed, f"betti {list(forward.betti)}"),
        needs_complex,
    )
    item(
        "assembled euler characteristic equals E(1,1)",
        lambda: report.betti.euler() == epoly.evaluate(1),
        needs_assembly,
    )
    item("assembled betti matches the purity prediction", lambda: report.purity_match, needs_assembly)
    item(
        "degree 2n-1 dies under handle attachment",
        lambda: len(report.betti.betti) <= 2 * n - 1 or report.betti.betti[2 * n - 1] == 0,
        needs_assembly,
    )
    item(
        "intersection certificate is a positive integer",
        lambda: _outcome(assembly_error)
        if report is None
        else report.intersection_number > 0 and report.intersection_number.denominator == 1,
        "" if assembly_error else needs_assembly,
    )
    if witness is None:
        # the gate's second route, run here only: no proper Smith form finds a disconnected center
        def connected():
            bad = [s for s, c in centers.items() if len(s) < n and not c.pi0.is_trivial()]
            return not bad or (False, f"S = {format_levi(bad[0])} has nontrivial pi0")

        item("refusal contract: no witness, assembly succeeded", connected, needs_assembly)
    else:
        # any other guard the assembly trips fails this item
        _, refusal = _attempt(UctopError, assembly.universal_centralizer_homology, d)
        item(
            "refusal contract: witness found, assembly refuses with it",
            lambda: (
                isinstance(refusal, NontrivialPi0) and refusal.levi == tuple(witness),
                refused,
            ),
            needs_centers,
        )
    return items


def _check_substitution(e_coeffs, p_coeffs, n: int) -> bool:
    padded = list(p_coeffs) + [0] * (4 * n + 1 - len(p_coeffs))
    for k in range(2 * n + 1):
        c = e_coeffs[k] if k < len(e_coeffs) else 0
        if padded[4 * n - 2 * k] != c:
            return False
    return all(padded[j] == 0 for j in range(1, 4 * n + 1, 2))
