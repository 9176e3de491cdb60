"""Command-line front end.

Group specs follow the grammar ``TYPE[xTYPE...]:(adjoint|sc|lattice=<JSON
integer matrix>)``, e.g. ``A3:sc``, ``a1xA2:adjoint``,
``D4:lattice=[[1,0,0,0],[-1,1,0,0],[0,-1,1,1],[0,0,-1,1]]``. Letters are
case-insensitive and whitespace is ignored. Levi sets are 1-based comma
lists matching the Bourbaki labels.

Exit codes: 0 success, 1 usage or parse errors, a failed internal guard (and
failed `check` runs), 2 mathematical refusal (a proper Levi center with
nontrivial component group).
"""

from __future__ import annotations

import argparse
import itertools
import sys
from fractions import Fraction

from ._value import Frozen, setfield
from .assembly import _attach_handles, universal_centralizer_homology
from .counting import e_polynomial, point_count_poly, poincare_from_purity
from .errors import (
    FunctorialityViolation,
    GroupSpecError,
    NontrivialPi0,
    UctopError,
    format_levi,
)
from .homology import (
    _betti_from_complex,
    _check_chains,
    _covering_triangles,
    boundary_homology,
    build_cech_complex,
    build_center_diagram,
    total_euler,
)
from .matrices import IntMatrix, rank
from .rootdata import (
    CartanType,
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

__all__ = ["GroupSpec", "parse_spec", "main", "entry"]

_LETTERS = "ABCDEFG"


class GroupSpec(Frozen):
    """A parsed group spec; `canonical` re-parses to the same datum."""

    _fields = ("raw", "cartan_type", "isogeny")
    __slots__ = _fields + ("_datum",)

    def __init__(self, raw: str, cartan_type: CartanType, isogeny: str | IntMatrix) -> None:
        setfield(self, "raw", raw)
        setfield(self, "cartan_type", cartan_type)
        setfield(self, "isogeny", isogeny)
        setfield(self, "_datum", None)

    @property
    def canonical(self) -> str:
        if isinstance(self.isogeny, str):
            iso = self.isogeny
        else:
            import json  # only lattice specs carry JSON

            rows = self.isogeny.to_lists()
            iso = "lattice=" + json.dumps(rows, separators=(",", ":"))
        return f"{self.cartan_type}:{iso}"

    def datum(self) -> RootDatum:
        if self._datum is None:  # built once, so every caller shares its cached results
            setfield(self, "_datum", build_datum(self.cartan_type, self.isogeny))
        return self._datum


def parse_spec(s: str) -> GroupSpec:
    """Parse a group spec string; raises GroupSpecError with a position.

    Only a `lattice=` spec is validated against its root datum here (its
    input already holds the n x n entries); a named isogeny always gives a
    datum, and nothing of size n x n is built for it before `main` has
    checked the rank.
    """
    compact = "".join(s.split())
    if not compact:
        raise GroupSpecError("empty group spec", 0)
    colon = compact.find(":")
    if colon < 0:
        raise GroupSpecError("missing ':' between type and isogeny", len(compact))
    factors = _parse_type_part(compact[:colon])
    isogeny = _parse_isogeny_part(compact, colon + 1, sum(r for _, r in factors))
    try:
        ct = CartanType(tuple(factors))
    except ValueError as exc:
        raise GroupSpecError(str(exc), 0) from None
    spec = GroupSpec(s, ct, isogeny)
    if isinstance(isogeny, IntMatrix):
        try:
            spec.datum()
        except ValueError as exc:
            raise GroupSpecError(str(exc), colon + 1) from None
    return spec


def _parse_type_part(part: str) -> list[tuple[str, int]]:
    factors: list[tuple[str, int]] = []
    i = 0
    if not part:
        raise GroupSpecError("empty Cartan type", 0)
    while i < len(part):
        letter = part[i].upper()
        if letter not in _LETTERS:
            raise GroupSpecError(f"expected a Cartan letter A-G, got {part[i]!r}", i)
        start = i
        i += 1
        j = i
        while j < len(part) and part[j].isdecimal():
            j += 1
        if j == i:
            raise GroupSpecError("expected a rank after the Cartan letter", i)
        try:
            rk = int(part[i:j])
        except ValueError:  # past the interpreter's limit on digits
            raise GroupSpecError("rank has too many digits", i) from None
        try:
            CartanType(((letter, rk),))
        except ValueError as exc:
            raise GroupSpecError(str(exc), start) from None
        factors.append((letter, rk))
        i = j
        if i < len(part):
            if part[i] not in "xX":
                raise GroupSpecError(f"expected 'x' between factors, got {part[i]!r}", i)
            i += 1
            if i == len(part):
                raise GroupSpecError("trailing factor separator", i)
    return factors


def _parse_isogeny_part(compact: str, pos: int, n: int) -> str | IntMatrix:
    part = compact[pos:]
    low = part.lower()
    if low == "adjoint":
        return "adjoint"
    if low == "sc":
        return "sc"
    if low.startswith("lattice="):
        import json  # loaded only for the specs that carry JSON

        payload = part[len("lattice=") :]
        try:
            rows = json.loads(payload)
        except (ValueError, RecursionError) as exc:
            # besides malformed JSON: an integer past the interpreter's digit
            # limit (ValueError) and arrays nested too deep (RecursionError)
            reason = getattr(exc, "msg", "too many digits or nesting levels")
            raise GroupSpecError(
                f"lattice matrix is not valid JSON ({reason})", pos + len("lattice=")
            ) from None
        if (
            not isinstance(rows, list)
            or not all(isinstance(r, list) for r in rows)
            or not all(isinstance(e, int) and not isinstance(e, bool) for r in rows for e in r)
        ):
            raise GroupSpecError(
                "lattice matrix must be a JSON list of integer rows", pos
            )
        if len(rows) != n or any(len(r) != n for r in rows):
            raise GroupSpecError(f"lattice matrix must be {n}x{n}", pos)
        return IntMatrix.from_rows(rows, cols=n)
    raise GroupSpecError(
        f"unknown isogeny {part!r} (expected adjoint, sc or lattice=...)", pos
    )


# ---------------------------------------------------------------------------
# command implementations: each returns its JSON sections and its table
# lines; `main` puts "command" and "spec" before the sections in the JSON,
# and exits 1 when sections["failed"] is set


def _cmd_info(spec: GroupSpec, d: RootDatum, args) -> tuple[dict, list[str]]:
    sections = {
        "rank": d.rank,
        "center_order": center_order(d),
        "weyl_order": weyl_order(d.cartan_type),
    }
    lines = [
        f"group: {spec.canonical}",
        f"rank: {sections['rank']}",
        f"center order: {sections['center_order']}",
        f"weyl order: {sections['weyl_order']}",
    ]
    return sections, lines


def _cmd_pi0(spec: GroupSpec, d: RootDatum, args) -> tuple[dict, list[str]]:
    if args.levi is not None:
        subsets = [tuple(args.levi)]
    else:
        subsets = all_levi_subsets(d.rank)
    table = []
    for s in subsets:
        c = center_of_levi(d, s)
        table.append(
            {"levi": list(s), "factors": list(c.pi0.factors), "order": c.pi0.order()}
        )
    lines = []
    for row in table:
        torsion = " x ".join(f"Z/{f}" for f in row["factors"]) or "trivial"
        lines.append(f"S = {format_levi(row['levi'])}: {torsion} (order {row['order']})")
    return {"pi0": table}, lines


def _poly_sections(poly) -> dict:
    return {"variable": poly.variable, "coeffs": list(poly.coeffs), "rendered": str(poly)}


def _cmd_count(spec: GroupSpec, d: RootDatum, args) -> tuple[dict, list[str]]:
    poly = point_count_poly(d)
    return _poly_sections(poly), [str(poly)]


def _cmd_epoly(spec: GroupSpec, d: RootDatum, args) -> tuple[dict, list[str]]:
    poly = e_polynomial(d)
    return {**_poly_sections(poly), "value_at_one": poly.evaluate(1)}, [str(poly)]


def _cmd_poincare(spec: GroupSpec, d: RootDatum, args) -> tuple[dict, list[str]]:
    poly = poincare_from_purity(d)
    label = "purity-predicted"
    return {**_poly_sections(poly), "label": label}, [str(poly), f"label: {label}"]


def _cmd_cgbetti(spec: GroupSpec, d: RootDatum, args) -> tuple[dict, list[str]]:
    betti = list(boundary_homology(d).betti)
    return {"betti": betti}, [f"betti: {betti}"]


def _cmd_jgbetti(spec: GroupSpec, d: RootDatum, args) -> tuple[dict, list[str]]:
    report = universal_centralizer_homology(d)
    sections = {
        "betti": list(report.betti.betti),
        "cells_attached": report.cells_attached,
        "boundary_rank": report.boundary_rank,
        "intersection_number": str(report.intersection_number),
        "purity_match": report.purity_match,
    }
    lines = [
        f"betti: {sections['betti']}",
        f"cells attached: {report.cells_attached}",
        f"boundary rank: {report.boundary_rank}",
        f"intersection number: {report.intersection_number}",
        f"purity match: {str(report.purity_match).lower()}",
    ]
    return sections, lines


def _cmd_check(spec: GroupSpec, d: RootDatum, args) -> tuple[dict, list[str]]:
    items = _run_checks(d)
    table = [{"name": name, "status": status, "detail": detail} for name, status, detail in items]
    lines = []
    for name, status, detail in items:
        suffix = f" ({detail})" if detail else ""
        lines.append(f"{status.upper():4s} {name}{suffix}")
    failed = sum(1 for _, status, _ in items if status == "fail")
    lines.append(
        f"{len(items)} checks: "
        f"{sum(1 for _, s, _ in items if s == 'pass')} passed, {failed} failed, "
        f"{sum(1 for _, s, _ in items if s == 'skip')} skipped"
    )
    return {"checks": table, "failed": failed}, lines


# ---------------------------------------------------------------------------
# the cross-module invariant battery behind `check`


def _run_checks(d: RootDatum) -> list[tuple[str, str, str]]:
    from . import oracles  # brute force; loaded only when the battery runs

    n = d.rank
    items: list[tuple[str, str, str]] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        items.append((name, "pass" if ok else "fail", detail))

    def run(checks, skip: str = "") -> None:
        """Record (name, predicate) entries; a predicate returns ok or (ok, detail).

        With a `skip` reason, every entry is recorded as skipped for it and
        no predicate runs.
        """
        for name, predicate in checks:
            if skip:
                items.append((name, "skip", skip))
            else:
                result = predicate()
                ok, detail = result if isinstance(result, tuple) else (result, "")
                add(name, ok, detail)

    subsets = all_levi_subsets(n)
    centers = {s: center_of_levi(d, s) for s in subsets}

    add(
        "levi center dimension equals n - |S| for all S",
        all(c.dim == n - len(s) for s, c in centers.items()),
    )
    add(
        "invariant factors form divisibility chains",
        all(
            all(b % a == 0 for a, b in zip(c.pi0.factors, c.pi0.factors[1:]))
            for c in centers.values()
        ),
    )
    add(
        "cocharacter bases annihilate their Levi roots",
        all(
            levi_root_matrix(d, s).mul(c.cochar_basis).is_zero()
            for s, c in centers.items()
        ),
    )
    add(
        "rank-nullity for every Levi root matrix",
        all(
            rank(levi_root_matrix(d, s).to_rational()) + c.cochar_basis.cols == n
            for s, c in centers.items()
        ),
    )
    if d.is_adjoint():
        add(
            "adjoint form: all component groups trivial",
            all(c.pi0.is_trivial() for c in centers.values()),
        )
    if d.is_simply_connected():
        det = cartan_matrix(d.cartan_type).to_rational().det()
        add(
            "simply connected form: center order equals Cartan determinant",
            Fraction(center_order(d)) == det,
        )
    add(
        "smith factors match minor-gcd divisors on small Levi matrices",
        all(
            oracles.determinantal_divisor_data(levi_root_matrix(d, s).to_lists(), n)
            == (c.pi0.factors, len(s))
            for s, c in centers.items()
            if len(s) <= 4
        ),
    )
    run(
        [
            (
                "weyl order matches reflection enumeration",
                lambda: weyl_order(d.cartan_type)
                == oracles.reflection_group_order(cartan_matrix(d.cartan_type).to_lists()),
            )
        ],
        skip="rank > 4" if n > 4 else "",
    )
    gram = invariant_form(d)
    add("invariant form is symmetric", gram == gram.transpose())
    add(
        "invariant form is positive definite",
        all(
            gram.to_rational().submatrix(range(k), range(k)).det() > 0
            for k in range(1, n + 1)
        ),
    )

    proper = all_levi_subsets(n, proper=True)
    # build_center_diagram checks the covering triangles with a < b itself;
    # the chains here are the rest, so each chain is checked once
    if n <= 4:
        checked = set(_covering_triangles(n))
        chains = [
            (s1, s2, s3)
            for s1, s2, s3 in itertools.product(proper, repeat=3)
            if set(s1) <= set(s2) <= set(s3) and (s1, s2, s3) not in checked
        ]
    else:
        chains = _covering_triangles(n, ascending=False)
    diagram = None
    try:
        diagram = build_center_diagram(d)
        _check_chains(diagram, chains)
    except FunctorialityViolation as exc:
        add("projection functoriality over chains", False, str(exc))
    else:
        add("projection functoriality over chains", True)
    # the diagram holds the covering arrows; without it each is computed here
    arrow = diagram.arrow if diagram is not None else lambda s, sp: killing_projection(d, s, sp)
    add(
        "projections surject onto their targets",
        all(
            rank(arrow(s, sp)) == n - len(sp)
            for s in proper
            for sp in proper
            if set(s) <= set(sp)
        )
        if n <= 5
        else all(
            rank(arrow(s, tuple(sorted(s + (a,))))) == n - len(s) - 1
            for s in proper
            for a in range(1, n + 1)
            if a not in s and len(s) + 1 < n
        ),
    )

    count = point_count_poly(d)
    z = center_order(d)
    add(
        "point count is monic of degree 2n",
        count.degree == 2 * n and count.coeffs[-1] == 1,
    )
    add("point count at q = 1 equals the center order", count.evaluate(1) == z)
    epoly = e_polynomial(d)
    add("E(1,1) equals the center order", epoly.evaluate(1) == z)
    if d.is_adjoint():
        expected = (0,) * (2 * n) + (1,)
        add("adjoint form: point count is exactly q^(2n)", count.coeffs == expected)
    poincare = poincare_from_purity(d)
    add(
        "purity substitution reindexes the E-coefficients",
        _check_substitution(epoly.coeffs, poincare.coeffs, n),
    )

    # these read the complex, its Betti table and the assembly below; they run only
    # when no proper Levi center is disconnected and every guard on the way passes
    sphere = (1,) + (0,) * (2 * n - 2) + (1,)
    complex_checks = [
        # build_cech_complex raises unless d.d = 0 on every row
        ("cech differentials square to zero", lambda: True),
        ("total euler characteristic vanishes", lambda: total_euler(complex_) == 0),
        (
            "row order does not change the boundary betti table",
            lambda: forward == _betti_from_complex(complex_, row_order=range(n, -1, -1)),
        ),
        (
            "total betti bounded by total chain dimension",
            lambda: forward.total() <= sum(sum(r.dims) for r in complex_.rows),
        ),
        (
            "boundary homology is the odd sphere",
            lambda: (forward.betti == sphere, f"betti {list(forward.betti)}"),
        ),
    ]
    assembly_checks = [
        (
            "assembled euler characteristic equals E(1,1)",
            lambda: report.betti.euler() == epoly.evaluate(1),
        ),
        ("assembled betti matches the purity prediction", lambda: report.purity_match),
        (
            "degree 2n-1 dies under handle attachment",
            lambda: len(report.betti.betti) <= 2 * n - 1
            or report.betti.betti[2 * n - 1] == 0,
        ),
        (
            "intersection certificate is a positive integer",
            lambda: report.intersection_number > 0
            and report.intersection_number.denominator == 1,
        ),
    ]
    witness = proper_pi0_witness(d)
    if witness is None:
        assembly_checks.append(("refusal contract: no witness, assembly succeeded", lambda: True))
        complex_ = None
        if diagram is not None:
            try:
                complex_ = build_cech_complex(diagram)
            except FunctorialityViolation as exc:
                name, _ = complex_checks.pop(0)  # the d.d = 0 entry
                add(name, False, str(exc))
        complex_skip = assembly_skip = "needs the Cech complex"
        if complex_ is not None:
            forward, complex_skip, assembly_skip = _betti_from_complex(complex_), "", ""
            try:
                report = _attach_handles(d, forward)
            except UctopError:  # the boundary is not the odd sphere; that item fails
                assembly_skip = "needs the assembly"
        run(complex_checks, skip=complex_skip)
        run(assembly_checks, skip=assembly_skip)
    else:
        detail = f"refused at S = {format_levi(witness)}"
        run(complex_checks + assembly_checks, skip=detail)
        refused = False
        try:
            universal_centralizer_homology(d)
        except NontrivialPi0 as exc:
            refused = tuple(exc.levi) == tuple(witness)
        add(
            "refusal contract: witness found, assembly refuses with it",
            refused,
            detail,
        )
    return items


def _check_substitution(e_coeffs, p_coeffs, n: int) -> bool:
    padded = list(p_coeffs) + [0] * (4 * n + 1 - len(p_coeffs))
    for k in range(2 * n + 1):
        c = e_coeffs[k] if k < len(e_coeffs) else 0
        if padded[4 * n - 2 * k] != c:
            return False
    return all(padded[j] == 0 for j in range(1, 4 * n + 1, 2))


# ---------------------------------------------------------------------------
# argument handling


# name -> (handler, help line, whether rank >= _SLOW_RANK needs --slow), in
# the order `--help` lists them
COMMANDS = {
    "info": (_cmd_info, "rank, center order and Weyl group order", False),
    "pi0": (_cmd_pi0, "component groups of the Levi centers", False),
    "count": (_cmd_count, "point-count polynomial over F_q", False),
    "epoly": (_cmd_epoly, "E-polynomial (the count read in uv)", False),
    "poincare": (_cmd_poincare, "purity-predicted Poincare polynomial", False),
    "cgbetti": (_cmd_cgbetti, "Betti table of the boundary manifold", True),
    "jgbetti": (_cmd_jgbetti, "Betti table of the universal centralizer", True),
    "check": (_cmd_check, "run the cross-module invariant battery", True),
}


_SLOW_RANK = 8


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="uctop", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, help_line, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("spec", help="group spec, e.g. A2:adjoint or A1xA2:sc")
        p.add_argument(
            "--format",
            choices=("table", "json"),
            default="table",
            help="output format (default: table)",
        )
        p.add_argument(
            "--max-rank",
            type=int,
            default=8,
            help="refuse total ranks above this bound (default: 8)",
        )
        p.add_argument(
            "--slow",
            action="store_true",
            help="allow homology computations at rank >= 8",
        )
        if name == "pi0":
            group = p.add_mutually_exclusive_group()
            group.add_argument(
                "--all",
                action="store_true",
                help="tabulate every subset S (default)",
            )
            group.add_argument(
                "--levi",
                type=_parse_levi_arg,
                default=None,
                help="single 1-based comma list, e.g. --levi=1,3 (empty for {})",
            )
    return parser


def _parse_levi_arg(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    items = [x.strip() for x in text.split(",")]
    try:  # decimal digits only, as for ranks in a spec: no sign, no '_'
        if all(x.isdecimal() for x in items):
            return tuple(sorted({int(x) for x in items}))
    except ValueError:  # past the interpreter's limit on digits
        pass
    raise argparse.ArgumentTypeError(f"--levi expects a comma list of integers, got {text!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command is None:
        parser.print_help()
        return 1
    handler, _, slow = COMMANDS[args.command]
    try:
        spec = parse_spec(args.spec)
        n = spec.cartan_type.rank  # gated before anything n x n is built
        if n > args.max_rank:
            raise GroupSpecError(
                f"total rank {n} exceeds --max-rank={args.max_rank}"
            )
        if slow and n >= _SLOW_RANK and not args.slow:
            raise GroupSpecError(
                f"{args.command} at rank {n} is expensive; pass --slow to run it"
            )
        if getattr(args, "levi", None) is not None:
            if any(i < 1 or i > n for i in args.levi):
                raise GroupSpecError(
                    f"--levi indices must lie in 1..{n}", None
                )
        sections, lines = handler(spec, spec.datum(), args)
    except NontrivialPi0 as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except UctopError as exc:  # bad input, or a library guard that failed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        import json  # loaded only under --format=json

        print(json.dumps({"command": args.command, "spec": spec.canonical, **sections}, indent=2))
    else:
        print("\n".join(lines))
    return 1 if sections.get("failed") else 0


def entry() -> None:
    sys.exit(main())
