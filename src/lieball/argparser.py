"""The argparse parser of the `lieball` command line.

`cli` reads a well-formed command line straight off its command table and
comes here only for the rest: help, a usage error, and every command line
the table does not read (a flag prefix such as `--lamb`, `--m=3`, a
negative fraction, `--flag=--`, a value that a flag's type raises on).
`cli` passes its table in, so this module imports no `lieball` module, and
a well-formed run loads neither it nor `argparse`.
"""

from __future__ import annotations

import argparse
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["build_parser", "parse_args"]

# Each subcommand under its name, in table order: its help, its handler's
# module, which is not read here, and its flags, the add_argument keywords
# under each option string, in usage order.
Subcommands = Dict[str, Tuple[str, str, Dict[str, dict]]]


def build_parser(subcommands: Subcommands, command: Optional[str] = None
                 ) -> argparse.ArgumentParser:
    """The `lieball` argparse parser, or with `command` that subcommand's
    parser, whose .error() prints a usage error."""
    parser = argparse.ArgumentParser(
        prog="lieball",
        description="Exact K-type tables for the conformal group of the Lie ball",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_, _, flags) in subcommands.items():
        p = subs.add_parser(name, help=help_)
        for flag, keywords in flags.items():
            p.add_argument(flag, **keywords)
    return subs.choices[command] if command else parser


def _join_fractions(argv: List[str], subcommands: Subcommands, rational: Callable) -> List[str]:
    """`argv` with each negative fraction joined to its flag: `--lambda -3/2`
    as `--lambda=-3/2`, which argparse reads; it takes a token that starts
    with '-' as a value only if it reads as a plain negative decimal.

    After the first token that names a subcommand, a token that starts with
    a single '-' is joined to the token before it when that token names a
    flag of type `rational` the way argparse reads it: in full, or as a
    prefix that no other option of the subcommand, -h and --help included,
    shares, such as --lamb.  Every other token is left alone.
    """
    out: List[str] = []
    options = None
    for token in argv:
        if options is None:
            if token in subcommands:
                options = {**subcommands[token][2], "-h": {}, "--help": {}}
        elif token.startswith("-") and not token.startswith("--"):
            named = [o for o in options if o.startswith(out[-1])]
            flag = out[-1] if out[-1] in options else named[0] if len(named) == 1 else None
            if options.get(flag, {}).get("type") is rational:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def parse_args(argv: List[str], subcommands: Subcommands, rational: Callable
               ) -> argparse.Namespace:
    """`argv` as the `lieball` parser reads it once each negative fraction
    is joined to its flag, a flag of type `rational`.  Argparse before 3.13
    reads `--flag=--` as [] without calling the flag's type; that exits here
    as the usage error argparse gives a flag with no value."""
    args = build_parser(subcommands).parse_args(_join_fractions(argv, subcommands, rational))
    for flag, keywords in subcommands[args.command][2].items():
        if getattr(args, keywords["dest"]) == []:
            message = f"argument {flag}: expected one argument"
            build_parser(subcommands, args.command).error(message)
    return args
