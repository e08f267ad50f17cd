"""What a subcommand's handler returns, how `main` renders it, and what the
handler modules share.

A handler takes the parsed namespace and returns a `Report`, or raises
`UsageError` for a usage error that parsing cannot find.  The handlers live
in three modules, and `cli.main` imports only the one that holds the
subcommand it runs: `tables` (ktypes, harmonic), `verification` (verify)
and `listings` (weyl, ranges, verma, ehw).  This module is what every run
loads besides `cli`, so it holds only what more than one of them needs.
None of these modules imports `cli`.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple

__all__ = ["Report", "UsageError", "render"]

# The fixed sizes of verify's supporting checks; `cli` re-exports them for
# the benchmark's traced pass.
VERIFY_GRID_BOUND = 4
VERIFY_VERMA_DEGREES = 5
VERIFY_EQUIVARIANCE_TRIALS = 15


def _fmt_weight(w) -> str:
    return "(" + ", ".join(map(str, w)) + ")"


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


class UsageError(Exception):
    """A usage error found after parsing; `main` prints it as the
    subcommand's argparse parser prints its own, and exits 2."""


def _integer_lambda(args) -> int:
    """--lambda, defaulting to m - 1, for subcommands that need an integer."""
    lam = args.lam if args.lam is not None else args.m - 1
    if lam != int(lam):
        raise UsageError(f"--lambda must be an integer for {args.command}")
    return int(lam)
