"""Command line interface: exact K-type tables and their cross-checks.

Subcommands: ktypes, harmonic, verify, weyl, ranges, verma, ehw.  All
output is deterministic for a fixed invocation and seed.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 certification failure.

This module is the process entry: the command table `_SUBCOMMANDS`, the
flag types, the table reader, `main` and `run`.  Each row of the table
holds a subcommand's help, the module of its handler and its flags.  The
handler is the function of the subcommand's name in that module, which
`main` imports only for the subcommand it runs, so a cold run compiles one
of them: `tables` (ktypes, harmonic), `verification` (verify) or
`listings` (weyl, ranges, verma, ehw).  What they share, the `Report`
record and its rendering, the formatters and `UsageError`, is in `report`.
A handler takes the parsed namespace and returns a `Report`, and imports
the route it runs when it runs, so a cold invocation loads one route:
`harmonic` never loads the Euler-sum route, nor `ktypes` `harmonic`.  No
module imports this one but `__main__`.

`main` reads its command line in one call, `_parse`.  A well-formed one, a
subcommand and then `--flag value` pairs, is read straight off the table.
Any other, or one with a value that a flag's type raises on, goes to the
argparse parser of `argparser`, which alone judges a refused value and
prints the help, once each negative fraction is joined to its flag.
A handler reports a usage error that parsing cannot find, such as an --m
beyond the `weyl` listing's bound, by raising `UsageError`; `main` prints
it through the subcommand's argparse parser.
So `argparser` and `argparse` load only for a command line that the table
does not read, or to print help or a usage error.

`run` is the process entry that `python -m lieball`, the `lieball` console
script and `python -m lieball.cli` all call: `main`, then `gc.freeze()`,
then the exit with `main`'s code.  `main` itself changes no process-wide
state, so tests and library callers run it in process.
"""

from __future__ import annotations

import errno
import gc
import os
import sys
from importlib import import_module
from types import SimpleNamespace
from typing import TYPE_CHECKING, List, NoReturn, Optional, Sequence

# The sizes of verify's checks are re-exported for the benchmark's traced pass.
from .report import (  # noqa: F401
    VERIFY_EQUIVARIANCE_TRIALS, VERIFY_GRID_BOUND, VERIFY_VERMA_DEGREES, UsageError, render,
)

if TYPE_CHECKING:
    import argparse
    from fractions import Fraction

__all__ = ["main", "run"]

# Python's default limit on int <-> str conversion, the digit bound of a
# rational flag when the limit is off: a flag in exponent notation is refused
# by its digit count before Fraction builds it, at any size.
RATIONAL_DIGIT_BOUND = 4300


# --- Parsing ---------------------------------------------------------------------


def _type_error(message: str) -> Exception:
    """The argparse.ArgumentTypeError of a flag's type function; argparse is
    imported only for a value that the type refuses."""
    import argparse
    return argparse.ArgumentTypeError(message)


def _nonnegative_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise _type_error(f"not an integer: {raw!r}") from None
    if value < 0:
        raise _type_error(f"must be nonnegative, got {value}")
    return value


def _rational(raw: str) -> Fraction:
    """A rational flag that every report can print.  Python converts an int
    of at most `bound` digits to str, and a report prints values up to about
    twice a flag plus twice --m (2λ − m, say), so the numerator must stay
    under 10^bound / 4.  10^bound is built only for a numerator near that
    size: at a limit of 10^7 digits it alone takes seconds."""
    from fractions import Fraction
    # Python 3.10 before 3.10.7 has no limit.
    bound = getattr(sys, "get_int_max_str_digits", int)() or RATIONAL_DIGIT_BOUND
    mantissa, _, exponent = raw.lower().partition("e")
    try:
        # each digit string that Fraction reads as one int (p and q of p/q,
        # or all of a decimal's digits), and a power of ten per exponent step
        digits = max(sum(map(str.isdigit, part)) for part in mantissa.split("/"))
        digits += abs(int(exponent)) if exponent else 0
        if digits > bound:
            raise _type_error(f"more than {bound} digits: {raw!r}")
        value = Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise _type_error(f"not a rational number: {raw!r}") from None
    size = abs(value.numerator)
    if size.bit_length() > 3 * (bound - 1) and 4 * size >= 10 ** bound:
        raise _type_error(
            f"too large: values derived from it may not print in {bound} digits: {raw!r}")
    return value


# The add_argument keywords of the flags that several subcommands share.  Each
# flag names its `dest`, the attribute of the namespace that holds its value.
_M = dict(dest="m", type=int, required=True, help="rank parameter m >= 2")
_LAMBDA = dict(dest="lam", type=_rational, default=None, help="scalar parameter (default m-1)")
_MAX_L = dict(dest="max_l", type=_nonnegative_int, default=6,
              help="largest symmetric-power degree (default %(default)s)")
_OUTPUT = {
    "--format": dict(dest="format", choices=("text", "json", "csv"), default="text",
                     help="output format (default text)"),
    "--out": dict(dest="out", default=None, help="write output to this path"),
}

# Each subcommand under its name: its help; the lieball module whose function
# of the subcommand's name handles it, imported only to run it; and its flags,
# the add_argument keywords under each option string, in usage order.
_SUBCOMMANDS = {
    "ktypes": ("K-type table from the Euler sum", "tables",
               {"--m": _M, "--lambda": _LAMBDA, "--max-l": _MAX_L, **_OUTPUT}),
    "harmonic": ("K-type table from the Laplacian kernel", "tables",
                 {"--m": _M, "--max-l": _MAX_L, **_OUTPUT}),
    "verify": ("cross-check the two K-type tables", "verification", {
        "--m": _M, "--max-l": _MAX_L,
        "--seed": dict(dest="seed", type=int, default=0, help="seed for randomized checks"),
        **_OUTPUT}),
    "weyl": ("list the minimal coset representatives", "listings", {"--m": _M, **_OUTPUT}),
    "ranges": ("weakly fair and good range verdicts", "listings",
               {"--m": _M, "--lambda": _LAMBDA, **_OUTPUT}),
    "verma": ("scalar generalized Verma homomorphisms", "listings", {
        "--m": _M, "--lambda": _LAMBDA, "--max-l": {**_MAX_L, "default": 5}, **_OUTPUT,
        "--nu": dict(dest="nu", type=_rational, default=None, help="second scalar parameter")}),
    "ehw": ("scalar lowest-weight unitarizability window", "listings", {
        "--n": dict(dest="n", type=int, required=True, help="rank parameter n >= 4"),
        "--z": dict(dest="z", type=_rational, required=True, help="lowest-weight parameter"),
        "--lambda": {**_LAMBDA,
                     "help": "also report the residual operator degree at this parameter"},
        **_OUTPUT}),
}


def _read_flags(argv: List[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse returns for a well-formed `argv`, read off
    `_SUBCOMMANDS`; None for any other argv.

    Well formed: a subcommand, then `--flag value` pairs, each flag one of
    the subcommand's, in full (the last of a repeated one wins, as in
    argparse), each value not starting with '-', accepted by the flag's type
    and in its choices, and every required flag present.  A value that its
    type raises on is left to argparse.
    """
    row = _SUBCOMMANDS.get(argv[0]) if len(argv) % 2 else None
    if row is None:
        return None
    given, flags = {}, row[2]
    for flag, raw in zip(argv[1::2], argv[2::2]):
        if flag not in flags or raw.startswith("-"):
            return None
        keywords = flags[flag]
        try:
            value = keywords.get("type", str)(raw)
        except Exception:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[flag] = value
    if any(keywords.get("required") and flag not in given for flag, keywords in flags.items()):
        return None
    return SimpleNamespace(command=argv[0], **{
        keywords["dest"]: given.get(flag, keywords.get("default"))
        for flag, keywords in flags.items()})


def _parse(argv: List[str]) -> argparse.Namespace | SimpleNamespace:
    """The namespace `main` reads `argv` as: off `_SUBCOMMANDS`, else by argparse."""
    args = _read_flags(argv)
    if args is None:
        from .argparser import parse_args
        args = parse_args(argv, _SUBCOMMANDS, _rational)
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    try:
        m = getattr(args, "m", 2)  # every subcommand with --m needs m >= 2
        if m < 2:
            raise UsageError("--m must be at least 2")
        if m > sys.maxsize:  # the tuples of rank m need an index-sized m
            raise UsageError(f"--m must be at most {sys.maxsize}")
        module = import_module(f"{__package__}.{_SUBCOMMANDS[args.command][1]}")
        report = getattr(module, args.command)(args)
        text = render(report, args.format)
    except UsageError as exc:
        from .argparser import build_parser
        build_parser(_SUBCOMMANDS, args.command).error(str(exc))
    except MemoryError:
        print(f"lieball {args.command}: error: request too large: out of memory",
              file=sys.stderr)
        return 2
    except RuntimeError as exc:
        from .harmonic import CertificationError  # here, so ktypes never loads harmonic
        if not isinstance(exc, CertificationError):
            raise
        print(f"certification failure: {exc}", file=sys.stderr)
        return 3
    try:
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        elif sys.stdout is None:  # the process started with stdout closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if args.out is None and sys.stdout is not None:
            # what the failed write left buffered goes to the null device, so
            # that the flush at exit does not fail on it again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        target = "stdout" if args.out is None else "--out"
        sys.stderr.write(f"lieball: error: cannot write {target}: {exc}\n")
        raise SystemExit(2)
    return report.code


def run() -> NoReturn:
    """Run `main` on sys.argv and exit with its code, the heap frozen first.

    Freezing once `main` has returned moves every live object to the
    permanent generation, which the collections at interpreter shutdown do
    not walk, so the OS takes that memory back instead.  atexit handlers
    and the stdio flush run as usual.  A `SystemExit` raised inside `main`
    (help, a usage error) passes through unfrozen.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
