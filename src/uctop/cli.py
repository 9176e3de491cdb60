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

import atexit
import os
import sys
from types import SimpleNamespace

from ._value import Frozen, setfield
from .errors import GroupSpecError, NontrivialPi0, UctopError, format_levi
from .matrices import IntMatrix
from .rootdata import CartanType, RootDatum, build_datum, center_order, weyl_order

__all__ = ["GroupSpec", "parse_spec", "main", "entry"]

_LETTERS = "ABCDEFG"


class GroupSpec(Frozen):
    """A parsed group spec, equal to any spec of the same type and isogeny;
    `canonical` re-parses to the same datum."""

    _fields = ("cartan_type", "isogeny")
    __slots__ = _fields + ("_datum",)

    def __init__(self, cartan_type: CartanType, isogeny: str | IntMatrix) -> None:
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
    # the factors are nonempty and each already passed CartanType
    spec = GroupSpec(CartanType(tuple(factors)), isogeny)
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
# `rootdata` that it reads, so no command loads what it never runs: `info`
# reads no Levi center, and loads no Smith form.


def _fields(sections: dict) -> list[str]:
    """One table line per JSON section, `key: value`: underscores read as
    spaces and a flag as true or false, as the JSON writes it."""
    return [f"{key.replace('_', ' ')}: {str(v).lower() if isinstance(v, bool) else v}"
            for key, v in sections.items()]


def _cmd_info(spec: GroupSpec, d: RootDatum, args) -> tuple[dict, list[str]]:
    sections = {
        "rank": d.rank,
        "center_order": center_order(d),
        "weyl_order": weyl_order(d.cartan_type),
    }
    return sections, [f"group: {spec.canonical}", *_fields(sections)]


def _cmd_pi0(spec: GroupSpec, d: RootDatum, args) -> tuple[dict, list[str]]:
    from .levi import all_levi_subsets, center_of_levi

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
    from .levi import witness_gate

    witness_gate(d)  # a refused datum loads no homology
    from .boundary import boundary_homology

    sections = {"betti": list(boundary_homology(d).betti)}
    return sections, _fields(sections)


def _cmd_jgbetti(spec: GroupSpec, d: RootDatum, args) -> tuple[dict, list[str]]:
    from .levi import witness_gate

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
    return sections, _fields(sections)


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


def _decimal(text: str) -> int | None:
    """`text` read as ASCII decimal digits only, as ranks in a spec are (no
    sign, no '_', no other script's digits; whitespace around it is
    stripped), or None."""
    text = text.strip()
    try:
        return int(text) if text.isascii() and text.isdecimal() else None
    except ValueError:  # past the interpreter's limit on digits
        return None


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


def _complain(message: str) -> None:
    """Print `message` on stderr. A closed stderr (None when fd 2 was closed
    at start, or failing on write) loses the message, never the exit status
    that goes with it, and never sends it to stdout."""
    if sys.stderr is not None:
        try:
            print(message, file=sys.stderr)
        except OSError:
            pass


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _well_formed(argv)
    if args is None:
        from .usage import _build_parser, _UsageError

        # the full table on every path, so every usage and help message
        # reads the same
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except _UsageError as exc:
            _complain(f"error: {exc}")
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
        _complain(f"refused: {exc}")
        return 2
    except UctopError as exc:  # bad input, or a library guard that failed
        _complain(f"error: {exc}")
        return 1
    if args.format == "json":
        import json  # loaded only under --format=json

        print(json.dumps({"command": args.command, "spec": spec.canonical, **sections}, indent=2))
    else:
        print("\n".join(lines))
    return 1 if sections.get("failed") else 0


def entry() -> None:
    """The process entry point of `python -m uctop` and of the `uctop` script.

    Runs `main`, flushes stdout and then stderr, runs the registered exit
    handlers and ends the process with `os._exit`: the interpreter's
    teardown (unloading the modules, freeing the datum's caches) is not
    paid once the answer is out. It never returns; call `main` from Python.
    With fd 1 closed at start nothing is computed: `error: stdout is
    closed`, exit 1. Any other error writing stdout (a full disk, say) ends
    as `error: <reason>`, exit 1. `SystemExit` from argparse's `--help` and
    any unexpected exception leave by the interpreter's normal exit.
    """
    if sys.stdout is None:  # fd 1 was closed when the interpreter started
        _complain("error: stdout is closed")
        code = 1
    else:
        try:
            try:
                code = main()
            finally:
                sys.stdout.flush()  # a closed pipe shows up here, if not in main
        except BrokenPipeError:
            # the reader has gone, as under `| head`: end quietly, with the
            # status of a writer killed by SIGPIPE
            code = 141
        except OSError as exc:  # stdout only: main's stderr writes never raise
            _complain(f"error: {exc}")
            code = 1
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:  # a closed fd 2 takes nothing, as in _complain
            pass
    atexit._run_exitfuncs()
    os._exit(code)
