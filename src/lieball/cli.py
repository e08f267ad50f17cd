"""Command line interface: exact K-type tables and their cross-checks.

Subcommands: ktypes, harmonic, verify, weyl, ranges, verma, ehw.  All
output is deterministic for a fixed invocation and seed.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 certification failure.

This module holds what every subcommand shares: the report record and its
rendering, the formatters, the flag and subcommand tables, the parser and
`main`.  Each subcommand's handler is the `run` of its own module,
`lieball.commands.<subcommand>`, which imports the route it runs; `main`
imports only the module of the subcommand asked for.  So a cold invocation
compiles one handler and loads one route: `harmonic` never loads the
Euler-sum route, nor `ktypes` `harmonic`.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from typing import Callable, List, NamedTuple, Optional, Sequence

__all__ = ["main"]

WEYL_ENUMERATION_BOUND = 8
VERIFY_GRID_BOUND = 4
VERIFY_VERMA_DEGREES = 5
VERIFY_EQUIVARIANCE_TRIALS = 15
# Python's default limit on int <-> str conversion.  A rational flag written
# out in digits meets it inside Fraction; one in exponent notation would meet
# it only when the report is rendered, after building a value of any size.
RATIONAL_DIGIT_BOUND = 4300
# The flags whose value may be a negative fraction such as -3/2.
RATIONAL_FLAGS = ("--lambda", "--nu", "--z")


def _fmt_weight(w) -> str:
    return "(" + ", ".join(map(str, w)) + ")"


def _json_q(x: int | Fraction):
    return int(x) if x.denominator == 1 else str(x)


def _cell(x) -> str:
    """One value as written in text and CSV: booleans lower case, None empty."""
    if isinstance(x, bool):
        return str(x).lower()
    return "" if x is None else str(x)


class Report(NamedTuple):
    """What one subcommand reports: a builder per output format, called with
    no arguments, so that only the format asked for is built.

    text builds the lines of the text format, rows the CSV rows (header
    first), payload the JSON document; code is the exit code.
    """

    text: Callable[[], List[str]]
    rows: Callable[[], List[list]]
    payload: Callable[[], dict]
    code: int = 0


def render(report: Report, fmt: str) -> str:
    """The report in one --format: text, json or csv."""
    if fmt == "json":
        import json
        return json.dumps(report.payload(), indent=2) + "\n"
    if fmt == "csv":
        lines = [",".join(_cell(c) for c in row) for row in report.rows()]
    else:
        lines = report.text()
    return "\n".join(lines) + "\n"


def _table_report(table: KTypeTable, text: Callable[[], List[str]]) -> Report:
    """A K-type table in the JSON and CSV layout shared by ktypes and harmonic."""
    entries = table.sorted_entries()
    header = ["mu0", *(f"mu_{i}" for i in range(1, table.m + 1)), "mult"]
    return Report(
        text,
        lambda: [header, *([pi.mu0, *pi.mu, mult] for pi, mult in entries)],
        lambda: {"m": table.m, "lambda": table.lam, "entries": [
            {"mu0": pi.mu0, "mu": list(pi.mu), "mult": mult} for pi, mult in entries
        ]},
    )


def _integer_lambda(args, parser: argparse.ArgumentParser) -> int:
    """--lambda, defaulting to m - 1, for subcommands that need an integer."""
    lam = args.lam if args.lam is not None else args.m - 1
    if lam != int(lam):
        parser.error(f"--lambda must be an integer for {args.command}")
    return int(lam)


def _nonnegative_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _rational(raw: str) -> Fraction:
    from fractions import Fraction
    mantissa, _, exponent = raw.lower().partition("e")
    try:
        digits = sum(map(str.isdigit, mantissa)) + abs(int(exponent)) if exponent else 0
        if digits > RATIONAL_DIGIT_BOUND:
            raise argparse.ArgumentTypeError(f"more than {RATIONAL_DIGIT_BOUND} digits: {raw!r}")
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {raw!r}") from None


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser that reads `--lambda -3/2` as `--lambda=-3/2`,
    and likewise for --nu and --z.

    argparse takes a token that starts with '-' as a value only if it reads
    as a plain negative decimal, so it would take -3/2 for an option.  Such a
    token is joined to the flag before it when that flag names one of the
    rational flags the way argparse reads it: in full, or as a prefix that no
    other option of the subcommand shares, such as --lamb.  A token that
    starts with '--' is left alone, as is every other token.
    """

    def _long_option(self, token: str) -> Optional[str]:
        """The option string argparse reads `token` as, or None."""
        options = self._option_string_actions
        if token in options:
            return token
        matches = [o for o in options if o.startswith(token)]
        return matches[0] if len(matches) == 1 else None

    def parse_known_args(self, args=None, namespace=None):
        out: List[str] = []
        for token in args:
            negative = token.startswith("-") and not token.startswith("--")
            if negative and out and self._long_option(out[-1]) in RATIONAL_FLAGS:
                out[-1] += "=" + token
            else:
                out.append(token)
        return super().parse_known_args(out, namespace)


# Each flag once: its add_argument keywords under its option string, or under
# the option string, ':' and a name, for a variant of the flag.
_FLAGS = {
    "--m": dict(type=int, required=True, help="rank parameter m >= 2"),
    "--n": dict(type=int, required=True, help="rank parameter n >= 4"),
    "--z": dict(type=_rational, required=True, help="lowest-weight parameter"),
    "--lambda": dict(dest="lam", type=_rational, default=None,
                     help="scalar parameter (default m-1)"),
    "--lambda:residue": dict(dest="lam", type=_rational, default=None,
                             help="also report the residual operator degree at this parameter"),
    "--nu": dict(type=_rational, default=None, help="second scalar parameter"),
    "--max-l": dict(dest="max_l", type=_nonnegative_int, default=6,
                    help="largest symmetric-power degree (default %(default)s)"),
    "--seed": dict(type=int, default=0, help="seed for randomized checks"),
    "--format": dict(choices=("text", "json", "csv"), default="text",
                     help="output format (default text)"),
    "--out": dict(default=None, help="write output to this path"),
}
_FLAGS["--max-l:verma"] = {**_FLAGS["--max-l"], "default": 5}

# Each subcommand: its name, help and flags in usage order.  Its handler is
# the `run` of `lieball.commands.<name>`.
_SUBCOMMANDS = (
    ("ktypes", "K-type table from the Euler sum",
     "--m --lambda --max-l --format --out"),
    ("harmonic", "K-type table from the Laplacian kernel",
     "--m --max-l --format --out"),
    ("verify", "cross-check the two K-type tables",
     "--m --max-l --seed --format --out"),
    ("weyl", "list the minimal coset representatives",
     "--m --format --out"),
    ("ranges", "weakly fair and good range verdicts",
     "--m --lambda --format --out"),
    ("verma", "scalar generalized Verma homomorphisms",
     "--m --lambda --max-l:verma --format --out --nu"),
    ("ehw", "scalar lowest-weight unitarizability window",
     "--n --z --lambda:residue --format --out"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieball",
        description="Exact K-type tables for the conformal group of the Lie ball",
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    for name, help_, flags in _SUBCOMMANDS:
        p = subs.add_parser(name, help=help_)
        for flag in flags.split():
            p.add_argument(flag.partition(":")[0], **_FLAGS[flag])
        p.set_defaults(parser=p)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "m", 2) < 2:  # every subcommand with --m needs m >= 2
        args.parser.error("--m must be at least 2")
    try:
        command = import_module(f".commands.{args.command}", __package__)
        report = command.run(args, args.parser)
        text = render(report, args.format)
    except MemoryError:
        print(f"{args.parser.prog}: error: request too large: out of memory", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        from .harmonic import CertificationError  # here, so ktypes never loads harmonic
        if not isinstance(exc, CertificationError):
            raise
        print(f"certification failure: {exc}", file=sys.stderr)
        return 3
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            parser.exit(2, f"{parser.prog}: error: cannot write --out: {exc}\n")
    return report.code


if __name__ == "__main__":
    sys.exit(main())
