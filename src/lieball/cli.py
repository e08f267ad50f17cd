"""Command line interface: exact K-type tables and their cross-checks.

Subcommands: ktypes, harmonic, verify, weyl, ranges, verma, ehw.  All
output is deterministic for a fixed invocation and seed.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 certification failure.
Each handler imports the route it runs, so a subcommand loads only its own
modules: `harmonic` never loads the Euler-sum route, nor `ktypes` `harmonic`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

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


def _json_q(x: Fraction):
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


def cmd_ktypes(args, parser) -> Report:
    from .blattner import ktype_table
    from .repdata import weakly_fair
    lam = _integer_lambda(args, parser)
    table = ktype_table(args.m, lam, max_mu0=lam + args.max_l, max_mu1=args.max_l)
    semantics = "multiplicity" if weakly_fair(args.m, lam) else "Euler characteristic"
    return _table_report(table, lambda: [
        f"K-type table  m={table.m}  lambda={table.lam}  ({semantics})",
        f"window: mu0 <= {table.max_mu0}, mu1 <= {table.max_mu1}",
        "mu0  mu  mult",
        *(f"{pi.mu0}  {_fmt_weight(pi.mu)}  {mult}" for pi, mult in table.sorted_entries()),
        f"entries: {len(table.entries)}",
    ])


def cmd_harmonic(args, parser) -> Report:
    from .harmonic import sol_ktype_table
    table = sol_ktype_table(args.m, args.max_l)
    return _table_report(table, lambda: [
        f"harmonic kernel K-types  m={args.m}  lambda={args.m - 1}",
        "mu0  mu  mult  kernel_dim  weyl_dim",
        *(f"{pi.mu0}  {_fmt_weight(pi.mu)}  {mult}  " + "  ".join(map(str, table.dims[pi]))
          for pi, mult in table.sorted_entries()),
        f"certified rows: {len(table.entries)}",
    ])


def _verify_checks(m: int, max_l: int, seed: int) -> Tuple[List[dict], bool]:
    from .blattner import ktype_table, unique_scalar_match_check
    from .harmonic import so_invariance_check, sol_ktype_table
    from .repdata import inf_char, is_regular_type_d, orbit_equal, range_verdict
    from .repdata import verma_hom_condition, verma_inf_char
    from .weyl import root_vector
    checks: List[dict] = []

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append({"name": name, "pass": bool(ok), "detail": detail})

    lam = m - 1
    algebraic = ktype_table(m, lam, max_mu0=lam + max_l, max_mu1=max_l)
    analytic = sol_ktype_table(m, max_l)
    if algebraic.same_entries(analytic):
        record(
            "ktype tables",
            True,
            f"Euler-sum and harmonic-kernel tables agree on {len(algebraic.entries)} entries",
        )
    else:
        diff = min(
            (pi for pi in set(algebraic.entries) | set(analytic.entries)
             if algebraic.entries.get(pi, 0) != analytic.entries.get(pi, 0)),
            key=lambda pi: (pi.mu0, pi.mu),
        )
        record(
            "ktype tables",
            False,
            f"first difference at (mu0={diff.mu0}; mu={_fmt_weight(diff.mu)}): "
            f"euler-sum={algebraic.entries.get(diff, 0)} "
            f"harmonic-kernel={analytic.entries.get(diff, 0)}",
        )

    record(
        "unique scalar match",
        unique_scalar_match_check(m, VERIFY_GRID_BOUND),
        f"exhaustive over the dominant grid with bound {VERIFY_GRID_BOUND}",
    )

    verdict = range_verdict(m, lam)
    witness_ok = bool(verdict.good_witnesses)
    detail = f"lambda={lam} weakly_fair={verdict.weakly_fair} good={verdict.good}"
    if witness_ok:
        root, pairing = verdict.good_witnesses[0]
        detail += f"; good witness <shift, {_fmt_weight(root_vector(m + 1, root))}> = {pairing}"
    record(
        "positivity ranges",
        verdict.weakly_fair and not verdict.good and witness_ok,
        detail,
    )

    chi = inf_char(m, lam)
    record(
        "infinitesimal character",
        not is_regular_type_d(chi),
        f"{_fmt_weight(chi)} is singular",
    )

    verma_ok = all(
        verma_hom_condition(m, m - l, m + l) == l
        and verma_hom_condition(m, m - l, m + l + 1) is None
        and orbit_equal(verma_inf_char(m, m - l), verma_inf_char(m, m + l))
        for l in range(VERIFY_VERMA_DEGREES + 1)
    )
    record(
        "verma homomorphisms",
        verma_ok,
        f"degrees 0..{VERIFY_VERMA_DEGREES} accepted with orbit-equal parameters",
    )

    record(
        "laplacian equivariance",
        so_invariance_check(2 * m, VERIFY_EQUIVARIANCE_TRIALS, seed=seed),
        f"n={2 * m}, {VERIFY_EQUIVARIANCE_TRIALS} trials, seed={seed}",
    )

    return checks, all(c["pass"] for c in checks)


def cmd_verify(args, parser) -> Report:
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


def cmd_weyl(args, parser) -> Report:
    from .weyl import enumerate_coset_reps, inversion_set, length, one_line_window
    if args.m > WEYL_ENUMERATION_BOUND:
        parser.error(f"--m exceeds the enumeration bound {WEYL_ENUMERATION_BOUND}")
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
    from .weyl import root_vector
    return [
        {"root": list(root_vector(m + 1, root)), "pairing": _json_q(p)} for root, p in witnesses
    ]


def cmd_ranges(args, parser) -> Report:
    from .repdata import inf_char, is_regular_type_d, range_verdict, range_violation_counts
    from .weyl import root_vector
    lam = _integer_lambda(args, parser)
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


def cmd_verma(args, parser) -> Report:
    if (args.lam is None) != (args.nu is None):
        parser.error("verma needs both --lambda and --nu, or neither")
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


def cmd_ehw(args, parser) -> Report:
    from .repdata import ehw_first_reduction_point, ehw_last_unitary_point, ehw_unitarizable
    from .repdata import knapp_stein_residue_degree
    if args.n < 4:
        parser.error("--n must be at least 4")
    a = ehw_first_reduction_point(args.n)
    b = ehw_last_unitary_point(args.n)
    unit = ehw_unitarizable(args.n, args.z)
    if args.lam is not None:
        if args.n % 2 != 0:
            parser.error("--lambda requires even --n for the residue degree")
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
    return Report(text, lambda: [list(payload()), list(payload().values())], payload)


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

# Each subcommand: its name, help, handler and flags in usage order.
_SUBCOMMANDS = (
    ("ktypes", "K-type table from the Euler sum", cmd_ktypes,
     "--m --lambda --max-l --format --out"),
    ("harmonic", "K-type table from the Laplacian kernel", cmd_harmonic,
     "--m --max-l --format --out"),
    ("verify", "cross-check the two K-type tables", cmd_verify,
     "--m --max-l --seed --format --out"),
    ("weyl", "list the minimal coset representatives", cmd_weyl,
     "--m --format --out"),
    ("ranges", "weakly fair and good range verdicts", cmd_ranges,
     "--m --lambda --format --out"),
    ("verma", "scalar generalized Verma homomorphisms", cmd_verma,
     "--m --lambda --max-l:verma --format --out --nu"),
    ("ehw", "scalar lowest-weight unitarizability window", cmd_ehw,
     "--n --z --lambda:residue --format --out"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieball",
        description="Exact K-type tables for the conformal group of the Lie ball",
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    for name, help_, func, flags in _SUBCOMMANDS:
        p = subs.add_parser(name, help=help_)
        for flag in flags.split():
            p.add_argument(flag.partition(":")[0], **_FLAGS[flag])
        p.set_defaults(func=func, parser=p)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "m", 2) < 2:  # every subcommand with --m needs m >= 2
        args.parser.error("--m must be at least 2")
    try:
        report = args.func(args, args.parser)
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
