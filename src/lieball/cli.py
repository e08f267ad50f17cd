"""Command line interface: exact K-type tables and their cross-checks.

Subcommands: ktypes, harmonic, verify, weyl, ranges, verma, ehw.  All
output is deterministic for a fixed invocation and seed.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 certification failure.

This module is the whole command line: the report record and its
rendering, the formatters, one handler per subcommand, the flag and
subcommand tables, the parser and `main`.  A handler takes the parsed
namespace and returns a `Report`, and each `_SUBCOMMANDS` row names its
subcommand's handler.  A handler imports the route it runs when it runs,
not when this module loads, so a cold invocation loads one route:
`harmonic` never loads the Euler-sum route, nor `ktypes` `harmonic`.

`main` reads its command line in one call, `_parse`.  A well-formed one, a
subcommand and then `--flag value` pairs, is read straight off the `_FLAGS`
and `_SUBCOMMANDS` tables.  Any other, or one with a value that a flag's
type raises on, goes to the argparse parser of `build_parser`, which alone
judges a refused value and prints the help, once `_join_fractions` has
joined each negative fraction to its flag.
A handler reports a usage error that parsing cannot find, such as an --m
beyond the `weyl` listing's bound, by raising `UsageError`; `main` prints
it through the subcommand's argparse parser.
So `argparse` is loaded only to print help or a usage error.

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
from types import SimpleNamespace
from typing import (
    TYPE_CHECKING, Callable, List, NamedTuple, NoReturn, Optional, Sequence, Tuple,
)

if TYPE_CHECKING:
    import argparse
    from fractions import Fraction

    from .ktype import KTypeTable

__all__ = ["main", "run"]

WEYL_ENUMERATION_BOUND = 8
VERIFY_GRID_BOUND = 4
VERIFY_VERMA_DEGREES = 5
VERIFY_EQUIVARIANCE_TRIALS = 15
# Python's default limit on int <-> str conversion, the digit bound of a
# rational flag when the limit is off: a flag in exponent notation is refused
# by its digit count before Fraction builds it, at any size.
RATIONAL_DIGIT_BOUND = 4300


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


def _table_report(table: KTypeTable, text: Callable[[list], List[str]]) -> Report:
    """A K-type table in the JSON and CSV layout shared by ktypes and harmonic;
    `text` builds the text lines from the sorted entries."""
    entries = table.sorted_entries()
    header = ["mu0", *(f"mu_{i}" for i in range(1, table.m + 1)), "mult"]
    return Report(
        lambda: text(entries),
        lambda: [header, *([pi.mu0, *pi.mu, mult] for pi, mult in entries)],
        lambda: {"m": table.m, "lambda": table.lam, "entries": [
            {"mu0": pi.mu0, "mu": list(pi.mu), "mult": mult} for pi, mult in entries
        ]},
    )


class UsageError(Exception):
    """A usage error found after parsing; `main` prints it as the
    subcommand's argparse parser prints its own, and exits 2."""


def _integer_lambda(args) -> int:
    """--lambda, defaulting to m - 1, for subcommands that need an integer."""
    lam = args.lam if args.lam is not None else args.m - 1
    if lam != int(lam):
        raise UsageError(f"--lambda must be an integer for {args.command}")
    return int(lam)


# --- The handlers: one per subcommand, from the parsed namespace to a Report.


def _ktypes(args) -> Report:
    """The K-type table from the Euler sum."""
    from .blattner import ktype_table
    from .repdata import weakly_fair
    lam = _integer_lambda(args)
    table = ktype_table(args.m, lam, max_mu0=lam + args.max_l, max_mu1=args.max_l)
    semantics = "multiplicity" if weakly_fair(args.m, lam) else "Euler characteristic"
    return _table_report(table, lambda entries: [
        f"K-type table  m={table.m}  lambda={table.lam}  ({semantics})",
        f"window: mu0 <= {table.max_mu0}, mu1 <= {table.max_mu1}",
        "mu0  mu  mult",
        *(f"{pi.mu0}  {_fmt_weight(pi.mu)}  {mult}" for pi, mult in entries),
        f"entries: {len(table.entries)}",
    ])


def _harmonic(args) -> Report:
    """The K-type table from the Laplacian kernel."""
    from .harmonic import sol_ktype_table
    table = sol_ktype_table(args.m, args.max_l)
    return _table_report(table, lambda entries: [
        f"harmonic kernel K-types  m={args.m}  lambda={args.m - 1}",
        "mu0  mu  mult  kernel_dim  weyl_dim",
        *(f"{pi.mu0}  {_fmt_weight(pi.mu)}  {mult}  " + "  ".join(map(str, table.dims[pi]))
          for pi, mult in entries),
        f"certified rows: {len(table.entries)}",
    ])


def _verify_checks(m: int, max_l: int, seed: int) -> Tuple[List[dict], bool]:
    """The two K-type tables compared, with the supporting checks of the
    theory around them: each check's name, verdict and detail, and whether
    all pass."""
    from .blattner import ktype_table, unique_scalar_match_check
    from .harmonic import so_invariance_check, sol_ktype_table
    from .ktype import root_vector
    from .repdata import inf_char, is_regular_type_d, orbit_equal, range_verdict
    from .repdata import verma_hom_condition, verma_inf_char

    lam = m - 1
    algebraic = ktype_table(m, lam, max_mu0=lam + max_l, max_mu1=max_l).entries
    analytic = sol_ktype_table(m, max_l).entries
    diff = min(
        (pi for pi in algebraic.keys() | analytic.keys()
         if algebraic.get(pi, 0) != analytic.get(pi, 0)),
        key=lambda pi: (pi.mu0, pi.mu),
        default=None,
    )
    verdict = range_verdict(m, lam)
    witnesses = verdict.good_witnesses[:1]
    chi = inf_char(m, lam)
    rows = [
        ("ktype tables", diff is None,
         f"Euler-sum and harmonic-kernel tables agree on {len(algebraic)} entries"
         if diff is None else
         f"first difference at (mu0={diff.mu0}; mu={_fmt_weight(diff.mu)}): "
         f"euler-sum={algebraic.get(diff, 0)} harmonic-kernel={analytic.get(diff, 0)}"),
        ("unique scalar match", unique_scalar_match_check(m, VERIFY_GRID_BOUND),
         f"exhaustive over the dominant grid with bound {VERIFY_GRID_BOUND}"),
        ("positivity ranges", verdict.weakly_fair and not verdict.good and witnesses,
         f"lambda={lam} weakly_fair={verdict.weakly_fair} good={verdict.good}" + "".join(
             f"; good witness <shift, {_fmt_weight(root_vector(m + 1, root))}> = {pairing}"
             for root, pairing in witnesses)),
        ("infinitesimal character", not is_regular_type_d(chi), f"{_fmt_weight(chi)} is singular"),
        ("verma homomorphisms",
         all(verma_hom_condition(m, m - l, m + l) == l
             and verma_hom_condition(m, m - l, m + l + 1) is None
             and orbit_equal(verma_inf_char(m, m - l), verma_inf_char(m, m + l))
             for l in range(VERIFY_VERMA_DEGREES + 1)),
         f"degrees 0..{VERIFY_VERMA_DEGREES} accepted with orbit-equal parameters"),
        ("laplacian equivariance",
         so_invariance_check(2 * m, VERIFY_EQUIVARIANCE_TRIALS, seed=seed),
         f"n={2 * m}, {VERIFY_EQUIVARIANCE_TRIALS} trials, seed={seed}"),
    ]
    checks = [{"name": name, "pass": bool(ok), "detail": detail} for name, ok, detail in rows]
    return checks, all(c["pass"] for c in checks)


def _verify(args) -> Report:
    """Cross-check the two K-type tables; exit 1 if any check fails."""
    checks, ok = _verify_checks(args.m, args.max_l, args.seed)
    passed = sum(1 for c in checks if c["pass"])
    return Report(
        lambda: [
            f"verification report  m={args.m}  lambda={args.m - 1}  "
            f"max_l={args.max_l}  seed={args.seed}",
            *(f"[{'PASS' if c['pass'] else 'FAIL'}] {c['name']}: {c['detail']}" for c in checks),
            f"result: {'PASS' if ok else 'FAIL'} ({passed}/{len(checks)})",
        ],
        # The CSV detail is always quoted: it holds commas.
        lambda: [
            ["check", "pass", "detail"],
            *([c["name"], c["pass"], '"' + c["detail"].replace('"', '""') + '"'] for c in checks),
        ],
        lambda: {"m": args.m, "lambda": args.m - 1, "max_l": args.max_l, "seed": args.seed,
                 "checks": checks, "pass": ok},
        code=0 if ok else 1,
    )


def _weyl(args) -> Report:
    """The minimal coset representatives, up to WEYL_ENUMERATION_BOUND."""
    from .weyl import enumerate_coset_reps, inversion_set, length, one_line_window
    if args.m > WEYL_ENUMERATION_BOUND:
        raise UsageError(f"--m exceeds the enumeration bound {WEYL_ENUMERATION_BOUND}")
    reps = enumerate_coset_reps(args.m)
    elements = [
        {"index": idx, "length": length(w), "window": list(one_line_window(w)),
         "inversions": [list(alpha) for alpha in inversion_set(w)]}
        for idx, w in enumerate(reps)
    ]
    header = ["index", "length", "window", "inversions"]
    # Text writes a root as (1,1,0) and the window as a tuple; CSV uses
    # spaces inside a cell and ';' between roots.
    return Report(
        lambda: [
            f"coset representatives  m={args.m}  count={len(reps)}",
            "  ".join(header),
            *(f"{e['index']}  {e['length']}  {_fmt_weight(e['window'])}  "
              + (" ".join("(" + ",".join(map(str, a)) + ")" for a in e["inversions"]) or "-")
              for e in elements),
        ],
        lambda: [header, *(
            [e["index"], e["length"], " ".join(map(str, e["window"])),
             ";".join(" ".join(map(str, a)) for a in e["inversions"])]
            for e in elements
        )],
        lambda: {"m": args.m, "count": len(reps), "elements": elements},
    )


def _witnesses_json(m: int, witnesses) -> List[dict]:
    from .ktype import root_vector
    return [
        {"root": list(root_vector(m + 1, root)), "pairing": _json_q(p)} for root, p in witnesses
    ]


def _ranges(args) -> Report:
    """The weakly fair and good range verdicts, with their violating roots."""
    from .ktype import root_vector
    from .repdata import inf_char, is_regular_type_d, range_verdict, range_violation_counts
    lam = _integer_lambda(args)
    chi = inf_char(args.m, lam)
    regular = is_regular_type_d(chi)

    def text() -> List[str]:
        verdict = range_verdict(args.m, lam)
        lines = [f"range verdict  m={args.m}  lambda={lam}"]
        for name, holds, witnesses in (
            ("weakly_fair", verdict.weakly_fair, verdict.weakly_fair_witnesses),
            ("good", verdict.good, verdict.good_witnesses),
        ):
            lines.append(f"{name}: {_cell(holds)}")
            lines += [
                f"  violated: <shift, {_fmt_weight(root_vector(args.m + 1, root))}> = {p}"
                for root, p in witnesses
            ]
        lines.append(
            f"infinitesimal character: {_fmt_weight(chi)} "
            f"({'regular' if regular else 'singular'})"
        )
        return lines

    def rows() -> List[list]:
        fair, good = range_violation_counts(args.m, lam)  # the CSV builds no witness
        return [["field", "value"], ["m", args.m], ["lambda", lam], ["weakly_fair", not fair],
                ["good", not good], ["weakly_fair_violations", fair], ["good_violations", good],
                ["inf_char_regular", regular]]

    def payload() -> dict:
        verdict = range_verdict(args.m, lam)
        return {
            "m": args.m,
            "lambda": lam,
            "weakly_fair": verdict.weakly_fair,
            "good": verdict.good,
            "weakly_fair_witnesses": _witnesses_json(args.m, verdict.weakly_fair_witnesses),
            "good_witnesses": _witnesses_json(args.m, verdict.good_witnesses),
            "inf_char": [_json_q(c) for c in chi],
            "inf_char_regular": regular,
        }

    return Report(text, rows, payload)


def _verma_pair(m: int, lam, nu) -> dict:
    """Degree of the homomorphism for (lambda, nu), and whether the two
    infinitesimal characters share an orbit (None when there is none)."""
    from .repdata import orbit_equal, verma_hom_condition, verma_inf_char
    degree = verma_hom_condition(m, lam, nu)
    consistent = (
        orbit_equal(verma_inf_char(m, lam), verma_inf_char(m, nu))
        if degree is not None
        else None
    )
    return {"lambda": lam, "nu": nu, "degree": degree, "orbit_equal": consistent}


def _verma(args) -> Report:
    """Scalar generalized Verma homomorphisms: one pair, or the sweep
    (m - l, m + l) for l up to --max-l."""
    if (args.lam is None) != (args.nu is None):
        raise UsageError("verma needs both --lambda and --nu, or neither")
    if args.lam is not None:
        pair = _verma_pair(args.m, args.lam, args.nu)
        l, consistent = pair["degree"], pair["orbit_equal"]
        params = f"(lambda, nu) = ({args.lam}, {args.nu})"
        return Report(
            lambda: [
                f"no homomorphism for {params}"
                if l is None
                else f"homomorphism of degree {l} for {params}; orbit_equal={_cell(consistent)}"
            ],
            lambda: [list(pair), list(pair.values())],
            lambda: {"m": args.m, "lambda": _json_q(args.lam), "nu": _json_q(args.nu),
                     "degree": l, "orbit_equal": consistent},
        )
    pairs = [
        {"l": l, **_verma_pair(args.m, args.m - l, args.m + l)} for l in range(args.max_l + 1)
    ]
    return Report(
        lambda: [f"scalar Verma homomorphisms  m={args.m}", "  ".join(pairs[0]),
                 *("  ".join(map(_cell, r.values())) for r in pairs)],
        lambda: [list(pairs[0]), *(list(r.values()) for r in pairs)],
        lambda: {"m": args.m, "pairs": pairs},
    )


def _ehw(args) -> Report:
    """The scalar lowest-weight unitarizability window, and with --lambda the
    residual operator's degree."""
    from .repdata import ehw_first_reduction_point, ehw_last_unitary_point, ehw_unitarizable
    from .repdata import knapp_stein_residue_degree
    if args.n < 4:
        raise UsageError("--n must be at least 4")
    a = ehw_first_reduction_point(args.n)
    b = ehw_last_unitary_point(args.n)
    unit = ehw_unitarizable(args.n, args.z)
    if args.lam is not None:
        if args.n % 2 != 0:
            raise UsageError("--lambda requires even --n for the residue degree")
        ks_degree = knapp_stein_residue_degree(args.n, args.lam)

    def text() -> List[str]:
        lines = [
            f"scalar lowest-weight unitarizability  n={args.n}  z={args.z}",
            f"first reduction point: {a}",
            f"last unitary point: {b}",
            f"unitarizable: {_cell(unit)}",
        ]
        if args.lam is not None:
            lines.append(
                f"no residual operator at lambda={args.lam}"
                if ks_degree is None
                else f"residual operator at lambda={args.lam}: Laplacian power {ks_degree}"
            )
        return lines

    def payload() -> dict:
        out = {"n": args.n, "z": _json_q(args.z), "unitarizable": unit,
               "first_reduction_point": _json_q(a), "last_unitary_point": _json_q(b)}
        if args.lam is not None:
            out.update({"lambda": _json_q(args.lam), "residue_degree": ks_degree})
        return out

    # A rational renders alike in both formats, so the CSV row is the payload.
    return Report(text, lambda: [list(row := payload()), list(row.values())], payload)


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
        digits = sum(map(str.isdigit, mantissa)) + abs(int(exponent)) if exponent else 0
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


# Each flag once: its add_argument keywords under its option string, or under
# the option string, ':' and a name, for a variant of the flag.  Every entry
# names its `dest`, the attribute of the namespace that holds its value.
_FLAGS = {
    "--m": dict(dest="m", type=int, required=True, help="rank parameter m >= 2"),
    "--n": dict(dest="n", type=int, required=True, help="rank parameter n >= 4"),
    "--z": dict(dest="z", type=_rational, required=True, help="lowest-weight parameter"),
    "--lambda": dict(dest="lam", type=_rational, default=None,
                     help="scalar parameter (default m-1)"),
    "--lambda:residue": dict(dest="lam", type=_rational, default=None,
                             help="also report the residual operator degree at this parameter"),
    "--nu": dict(dest="nu", type=_rational, default=None, help="second scalar parameter"),
    "--max-l": dict(dest="max_l", type=_nonnegative_int, default=6,
                    help="largest symmetric-power degree (default %(default)s)"),
    "--seed": dict(dest="seed", type=int, default=0, help="seed for randomized checks"),
    "--format": dict(dest="format", choices=("text", "json", "csv"), default="text",
                     help="output format (default text)"),
    "--out": dict(dest="out", default=None, help="write output to this path"),
}
_FLAGS["--max-l:verma"] = {**_FLAGS["--max-l"], "default": 5}

# Each subcommand: its name, help, flags in usage order, and handler.
_SUBCOMMANDS = (
    ("ktypes", "K-type table from the Euler sum",
     "--m --lambda --max-l --format --out", _ktypes),
    ("harmonic", "K-type table from the Laplacian kernel",
     "--m --max-l --format --out", _harmonic),
    ("verify", "cross-check the two K-type tables",
     "--m --max-l --seed --format --out", _verify),
    ("weyl", "list the minimal coset representatives",
     "--m --format --out", _weyl),
    ("ranges", "weakly fair and good range verdicts",
     "--m --lambda --format --out", _ranges),
    ("verma", "scalar generalized Verma homomorphisms",
     "--m --lambda --max-l:verma --format --out --nu", _verma),
    ("ehw", "scalar lowest-weight unitarizability window",
     "--n --z --lambda:residue --format --out", _ehw),
)


def _subcommand_flags(command: str) -> Optional[dict]:
    """The add_argument keywords of each of a subcommand's flags, under the
    option string, in usage order; None for a name that is no subcommand."""
    for name, _, flags, _ in _SUBCOMMANDS:
        if name == command:
            return {flag.partition(":")[0]: _FLAGS[flag] for flag in flags.split()}
    return None


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The `lieball` argparse parser, or with `command` that subcommand's
    parser, whose .error() prints a usage error."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="lieball",
        description="Exact K-type tables for the conformal group of the Lie ball",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_, _, _ in _SUBCOMMANDS:
        p = subs.add_parser(name, help=help_)
        for flag, keywords in _subcommand_flags(name).items():
            p.add_argument(flag, **keywords)
    return subs.choices[command] if command else parser


def _read_flags(argv: List[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse returns for a well-formed `argv`, read off the
    flag tables; None for any other argv.

    Well formed: a subcommand, then `--flag value` pairs, each flag one of
    the subcommand's, in full (the last of a repeated one wins, as in
    argparse), each value not starting with '-', accepted by the flag's type
    and in its choices, and every required flag present.  A value that its
    type raises on is left to argparse.
    """
    flags = _subcommand_flags(argv[0]) if len(argv) % 2 else None
    if flags is None:
        return None
    given = {}
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


def _join_fractions(argv: List[str]) -> List[str]:
    """`argv` with each negative fraction joined to its flag: `--lambda -3/2`
    as `--lambda=-3/2`, which argparse reads; it takes a token that starts
    with '-' as a value only if it reads as a plain negative decimal.

    After the first token that names a subcommand, a token that starts with
    a single '-' is joined to the token before it when that token names a
    flag of `_rational` type the way argparse reads it: in full, or as a
    prefix that no other option of the subcommand, -h and --help included,
    shares, such as --lamb.  Every other token is left alone.
    """
    out: List[str] = []
    options = None
    for token in argv:
        if options is None:
            flags = _subcommand_flags(token)
            options = flags and {**flags, "-h": {}, "--help": {}}
        elif token.startswith("-") and not token.startswith("--"):
            named = [o for o in options if o.startswith(out[-1])]
            flag = out[-1] if out[-1] in options else named[0] if len(named) == 1 else None
            if options.get(flag, {}).get("type") is _rational:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def _parse(argv: List[str]) -> argparse.Namespace | SimpleNamespace:
    """The namespace `main` reads `argv` as: off the flag tables, else by argparse."""
    return _read_flags(argv) or build_parser().parse_args(_join_fractions(argv))


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    try:
        for flag, keywords in _subcommand_flags(args.command).items():
            # argparse before 3.13 reads `--flag=--` as [] without calling the type
            if getattr(args, keywords["dest"]) == []:
                raise UsageError(f"argument {flag}: expected one argument")
        m = getattr(args, "m", 2)  # every subcommand with --m needs m >= 2
        if m < 2:
            raise UsageError("--m must be at least 2")
        if m > sys.maxsize:  # the tuples of rank m need an index-sized m
            raise UsageError(f"--m must be at most {sys.maxsize}")
        report = next(h for name, _, _, h in _SUBCOMMANDS if name == args.command)(args)
        text = render(report, args.format)
    except UsageError as exc:
        build_parser(args.command).error(str(exc))
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
