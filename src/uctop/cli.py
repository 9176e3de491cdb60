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

import os
import sys
from types import SimpleNamespace

from ._value import Frozen, setfield
from .errors import GroupSpecError, NontrivialPi0, UctopError, format_levi
from .matrices import IntMatrix
from .rootdata import (
    CartanType,
    RootDatum,
    all_levi_subsets,
    build_datum,
    center_of_levi,
    center_order,
    weyl_order,
    witness_gate,
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
        while j < len(part) and part[j].isascii() and part[j].isdecimal():
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
# and exits 1 when sections["failed"] is set. Each imports the modules past
# `rootdata` that it reads, so no command loads what it never runs.


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
    from .counting import point_count_poly

    poly = point_count_poly(d)
    return _poly_sections(poly), [str(poly)]


def _cmd_epoly(spec: GroupSpec, d: RootDatum, args) -> tuple[dict, list[str]]:
    from .counting import e_polynomial

    poly = e_polynomial(d)
    return {**_poly_sections(poly), "value_at_one": poly.evaluate(1)}, [str(poly)]


def _cmd_poincare(spec: GroupSpec, d: RootDatum, args) -> tuple[dict, list[str]]:
    from .counting import poincare_from_purity

    poly = poincare_from_purity(d)
    label = "purity-predicted"
    return {**_poly_sections(poly), "label": label}, [str(poly), f"label: {label}"]


def _cmd_cgbetti(spec: GroupSpec, d: RootDatum, args) -> tuple[dict, list[str]]:
    witness_gate(d)  # a refused datum loads no homology
    from .homology import boundary_homology

    betti = list(boundary_homology(d).betti)
    return {"betti": betti}, [f"betti: {betti}"]


def _cmd_jgbetti(spec: GroupSpec, d: RootDatum, args) -> tuple[dict, list[str]]:
    witness_gate(d)
    from .assembly import universal_centralizer_homology

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
    from . import battery  # the battery and its oracles load only for `check`

    items = battery.run_checks(d)
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
# argument handling


# name -> (handler, help line), in the order `--help` lists them
COMMANDS = {
    "info": (_cmd_info, "rank, center order and Weyl group order"),
    "pi0": (_cmd_pi0, "component groups of the Levi centers"),
    "count": (_cmd_count, "point-count polynomial over F_q"),
    "epoly": (_cmd_epoly, "E-polynomial (the count read in uv)"),
    "poincare": (_cmd_poincare, "purity-predicted Poincare polynomial"),
    "cgbetti": (_cmd_cgbetti, "Betti table of the boundary manifold"),
    "jgbetti": (_cmd_jgbetti, "Betti table of the universal centralizer"),
    "check": (_cmd_check, "run the cross-module invariant battery"),
}


class _UsageError(Exception):
    pass


def _build_parser(names=COMMANDS):
    """The parser with a subcommand for each of `names`; each subcommand's
    parser is the same whichever others are built beside it."""
    import argparse  # only help, usage errors and the rarer forms reach it

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # exit 1, not argparse's default 2
            raise _UsageError(message)

    # no option prefixes: "--form" is not "--format", whatever options exist
    parser = _Parser(prog="uctop", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in names:
        p = sub.add_parser(name, help=COMMANDS[name][1], allow_abbrev=False)
        p.add_argument("spec", help="group spec, e.g. A2:adjoint or A1xA2:sc")
        for option, keywords in _OPTIONS.items():
            p.add_argument(option, **keywords)
        if name == "pi0":
            p.add_argument(
                "--levi",
                type=_parse_levi_arg,
                default=None,
                help="single 1-based comma list, e.g. --levi=1,3 (empty for {})",
            )
    return parser


def _decimal(text: str) -> int | None:
    """`text` read as ASCII decimal digits only, as ranks in a spec are (no
    sign, no '_', no other script's digits; whitespace around it is
    stripped), or None."""
    text = text.strip()
    try:
        return int(text) if text.isascii() and text.isdecimal() else None
    except ValueError:  # past the interpreter's limit on digits
        return None


def _parse_levi_arg(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    items = [_decimal(x) for x in text.split(",")]
    if None in items:
        import argparse

        raise argparse.ArgumentTypeError(f"--levi expects a comma list of integers, got {text!r}")
    return tuple(sorted(set(items)))


def _parse_max_rank_arg(text: str) -> int:
    if (value := _decimal(text)) is None:  # argparse's own message for type=int
        import argparse

        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


# the options every command takes, as argparse is given them; `_well_formed`
# reads the same entries, so both parsers follow one grammar
_OPTIONS = {
    "--format": {
        "choices": ("table", "json"),
        "default": "table",
        "help": "output format (default: table)",
    },
    "--max-rank": {
        "type": _parse_max_rank_arg,
        "default": 8,
        "help": "refuse total ranks above this bound (default: 8)",
    },
}


def _well_formed(argv: list[str]) -> SimpleNamespace | None:
    """What argparse makes of `argv` when it is well formed, or None.

    Well formed: a command, then a spec that does not start with '-', then
    options of `_OPTIONS` written --name=value, each at most once, with a
    value that the option's `type` converts and its `choices` hold, as
    argparse reads them. argparse runs only for everything else (help,
    usage errors, values after a space, repeated options, options before
    the spec, '--', pi0's --levi).
    """
    if len(argv) < 2 or argv[0] not in COMMANDS or argv[1].startswith("-"):
        return None
    values = {"command": argv[0], "spec": argv[1], "levi": None}
    values.update((o[2:].replace("-", "_"), k["default"]) for o, k in _OPTIONS.items())
    seen = set()
    for item in argv[2:]:
        name, eq, text = item.partition("=")
        keywords = _OPTIONS.get(name)
        if not eq or keywords is None or name in seen:
            return None
        seen.add(name)
        try:
            value = keywords.get("type", str)(text)
        except Exception:  # the same call under argparse reports it
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        values[name[2:].replace("-", "_")] = value
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _well_formed(argv)
    if args is None:
        # a leading command name needs only its own subparser; anything else
        # (no arguments, --help, an unknown command, an option first) gets the
        # full table, so every usage and help message reads the same
        parser = _build_parser(argv[:1] if argv and argv[0] in COMMANDS else COMMANDS)
        try:
            args = parser.parse_args(argv)
        except _UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.command is None:
            parser.print_help()
            return 1
    handler = COMMANDS[args.command][0]
    try:
        spec = parse_spec(args.spec)
        n = spec.cartan_type.rank  # gated before anything n x n is built
        if n > args.max_rank:
            raise GroupSpecError(
                f"total rank {n} exceeds --max-rank={args.max_rank}"
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
    try:
        try:
            code = main()
        finally:
            sys.stdout.flush()  # a closed pipe shows up here, not at exit
    except BrokenPipeError:
        # the reader has gone, as under `| head`: end quietly, with the status
        # of a writer killed by SIGPIPE; stdout goes to the null device so
        # that the interpreter's own flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)
