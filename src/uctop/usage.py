"""The argparse parser behind `uctop`'s help, usage errors and rarer forms.

`cli.main` reads a well-formed command line itself (`cli._well_formed`) and
imports this module only for everything else: help, usage errors, values
after a space, repeated options, options before the spec, '--' and pi0's
--levi. So argparse, and gettext and locale behind it, load only then. Both
parsers read the one option table, `cli._OPTIONS`, and argparse is the only
source of usage, help and error text.
"""

from __future__ import annotations

import argparse

from . import cli


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise _UsageError(message)


def _build_parser():
    """The parser with a subcommand for every command of `cli.COMMANDS`."""
    # no option prefixes: "--form" is not "--format", whatever options exist
    parser = _Parser(prog="uctop", description=cli.__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in cli.COMMANDS:
        p = sub.add_parser(name, help=cli.COMMANDS[name][1], allow_abbrev=False)
        p.add_argument("spec", help="group spec, e.g. A2:adjoint or A1xA2:sc")
        for option, keywords in cli._OPTIONS.items():
            p.add_argument(option, **keywords)
        if name == "pi0":
            p.add_argument(
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
    items = [cli._decimal(x) for x in text.split(",")]
    if None in items:
        raise argparse.ArgumentTypeError(f"--levi expects a comma list of integers, got {text!r}")
    return tuple(sorted(set(items)))
