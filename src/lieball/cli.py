"""Command line interface: exact K-type tables and their cross-checks.

Subcommands: ktypes, harmonic, verify, weyl, ranges, verma, ehw.  All
output is deterministic for a fixed invocation and seed.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 certification failure.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction as Q
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .blattner import ktype_table, unique_scalar_match_check
from .harmonic import (
    CertificationError,
    so_invariance_check,
    sol_ktype_table,
)
from .repdata import (
    KTypeTable,
    ehw_first_reduction_point,
    ehw_last_unitary_point,
    ehw_unitarizable,
    inf_char,
    is_regular_type_d,
    knapp_stein_residue_degree,
    orbit_equal,
    range_verdict,
    verma_hom_condition,
    verma_inf_char,
    weakly_fair,
)
from .weyl import (
    enumerate_coset_reps,
    inversion_set,
    length,
    one_line_window,
    root_vector,
)

__all__ = ["main"]

WEYL_ENUMERATION_BOUND = 8
DEFAULT_MAX_L = 6
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


def _json_q(x: Q):
    return int(x) if x.denominator == 1 else str(x)


def _cell(x) -> str:
    """One value as written in text and CSV: booleans lower case, None empty."""
    if isinstance(x, bool):
        return str(x).lower()
    return "" if x is None else str(x)


class Report(NamedTuple):
    """What one subcommand reports, in each output format.

    text holds the lines of the text format, rows the CSV rows (header
    first), payload the JSON document; code is the exit code.
    """

    text: List[str]
    rows: List[list]
    payload: dict
    code: int = 0


def render(report: Report, fmt: str) -> str:
    """The report in one --format: text, json or csv."""
    if fmt == "json":
        import json
        return json.dumps(report.payload, indent=2) + "\n"
    if fmt == "csv":
        lines = [",".join(_cell(c) for c in row) for row in report.rows]
    else:
        lines = report.text
    return "\n".join(lines) + "\n"


def _table_report(table: KTypeTable, text: List[str]) -> Report:
    """A K-type table in the JSON and CSV layout shared by ktypes and harmonic."""
    entries = table.sorted_entries()
    header = ["mu0", *(f"mu_{i}" for i in range(1, table.m + 1)), "mult"]
    return Report(
        text=text,
        rows=[header, *([pi.mu0, *pi.mu, mult] for pi, mult in entries)],
        payload={
            "m": table.m,
            "lambda": table.lam,
            "entries": [
                {"mu0": pi.mu0, "mu": list(pi.mu), "mult": mult} for pi, mult in entries
            ],
        },
    )


def _check_m(parser: argparse.ArgumentParser, m: int, bound: Optional[int] = None) -> None:
    if m < 2:
        parser.error("--m must be at least 2")
    if bound is not None and m > bound:
        parser.error(f"--m exceeds the enumeration bound {bound}")


def _integer_lambda(args, parser: argparse.ArgumentParser) -> int:
    """--lambda, defaulting to m - 1, for subcommands that need an integer."""
    lam = args.lam if args.lam is not None else args.m - 1
    if lam != int(lam):
        parser.error(f"--lambda must be an integer for {args.command}")
    return int(lam)


def cmd_ktypes(args, parser) -> Report:
    _check_m(parser, args.m)
    lam = _integer_lambda(args, parser)
    table = ktype_table(args.m, lam, max_mu0=lam + args.max_l, max_mu1=args.max_l)
    semantics = "multiplicity" if weakly_fair(args.m, lam) else "Euler characteristic"
    return _table_report(table, [
        f"K-type table  m={table.m}  lambda={table.lam}  ({semantics})",
        f"window: mu0 <= {table.max_mu0}, mu1 <= {table.max_mu1}",
        "mu0  mu  mult",
        *(f"{pi.mu0}  {_fmt_weight(pi.mu)}  {mult}" for pi, mult in table.sorted_entries()),
        f"entries: {len(table.entries)}",
    ])


def cmd_harmonic(args, parser) -> Report:
    _check_m(parser, args.m)
    table = sol_ktype_table(args.m, args.max_l)
    lines = [
        f"harmonic kernel K-types  m={args.m}  lambda={args.m - 1}",
        "mu0  mu  mult  kernel_dim  weyl_dim",
    ]
    for pi, mult in table.sorted_entries():
        kd, wd = table.dims[pi]
        lines.append(f"{pi.mu0}  {_fmt_weight(pi.mu)}  {mult}  {kd}  {wd}")
    lines.append(f"certified rows: {len(table.entries)}")
    return _table_report(table, lines)


def _verify_checks(m: int, max_l: int, seed: int) -> Tuple[List[dict], bool]:
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
    _check_m(parser, args.m)
    checks, ok = _verify_checks(args.m, args.max_l, args.seed)
    passed = sum(1 for c in checks if c["pass"])
    text = [
        f"verification report  m={args.m}  lambda={args.m - 1}  "
        f"max_l={args.max_l}  seed={args.seed}",
        *(f"[{'PASS' if c['pass'] else 'FAIL'}] {c['name']}: {c['detail']}" for c in checks),
        f"result: {'PASS' if ok else 'FAIL'} ({passed}/{len(checks)})",
    ]
    # The CSV detail is always quoted: it holds commas.
    rows = [["check", "pass", "detail"]]
    rows += [[c["name"], c["pass"], '"' + c["detail"].replace('"', '""') + '"'] for c in checks]
    payload = {
        "m": args.m,
        "lambda": args.m - 1,
        "max_l": args.max_l,
        "seed": args.seed,
        "checks": checks,
        "pass": ok,
    }
    return Report(text, rows, payload, code=0 if ok else 1)


def cmd_weyl(args, parser) -> Report:
    _check_m(parser, args.m, WEYL_ENUMERATION_BOUND)
    reps = enumerate_coset_reps(args.m)
    header = ["index", "length", "window", "inversions"]
    text = [f"coset representatives  m={args.m}  count={len(reps)}", "  ".join(header)]
    rows = [header]
    elements = []
    for idx, w in enumerate(reps):
        window = list(one_line_window(w))
        inversions = [list(alpha) for alpha in inversion_set(w)]
        elements.append(
            {"index": idx, "length": length(w), "window": window, "inversions": inversions}
        )
        # Text writes a root as (1,1,0) and the window as a tuple; CSV uses
        # spaces inside a cell and ';' between roots.
        invs = " ".join("(" + ",".join(map(str, a)) + ")" for a in inversions) or "-"
        text.append(f"{idx}  {length(w)}  {_fmt_weight(window)}  {invs}")
        rows.append([
            idx,
            length(w),
            " ".join(map(str, window)),
            ";".join(" ".join(map(str, a)) for a in inversions),
        ])
    return Report(text, rows, {"m": args.m, "count": len(reps), "elements": elements})


def _witnesses_json(m: int, witnesses) -> List[dict]:
    return [
        {"root": list(root_vector(m + 1, root)), "pairing": _json_q(p)} for root, p in witnesses
    ]


def cmd_ranges(args, parser) -> Report:
    _check_m(parser, args.m)
    lam = _integer_lambda(args, parser)
    verdict = range_verdict(args.m, lam)
    chi = inf_char(args.m, lam)
    regular = is_regular_type_d(chi)
    text = [f"range verdict  m={args.m}  lambda={lam}"]
    for name, holds, witnesses in (
        ("weakly_fair", verdict.weakly_fair, verdict.weakly_fair_witnesses),
        ("good", verdict.good, verdict.good_witnesses),
    ):
        text.append(f"{name}: {_cell(holds)}")
        text += [
            f"  violated: <shift, {_fmt_weight(root_vector(args.m + 1, root))}> = {p}"
            for root, p in witnesses
        ]
    text.append(
        f"infinitesimal character: {_fmt_weight(chi)} "
        f"({'regular' if regular else 'singular'})"
    )
    rows = [
        ["field", "value"],
        ["m", args.m],
        ["lambda", lam],
        ["weakly_fair", verdict.weakly_fair],
        ["good", verdict.good],
        ["weakly_fair_violations", len(verdict.weakly_fair_witnesses)],
        ["good_violations", len(verdict.good_witnesses)],
        ["inf_char_regular", regular],
    ]
    payload = {
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
    degree = verma_hom_condition(m, lam, nu)
    consistent = (
        orbit_equal(verma_inf_char(m, lam), verma_inf_char(m, nu))
        if degree is not None
        else None
    )
    return {"lambda": lam, "nu": nu, "degree": degree, "orbit_equal": consistent}


def cmd_verma(args, parser) -> Report:
    _check_m(parser, args.m)
    if (args.lam is None) != (args.nu is None):
        parser.error("verma needs both --lambda and --nu, or neither")
    if args.lam is not None:
        pair = _verma_pair(args.m, args.lam, args.nu)
        l, consistent = pair["degree"], pair["orbit_equal"]
        params = f"(lambda, nu) = ({args.lam}, {args.nu})"
        text = (
            f"no homomorphism for {params}"
            if l is None
            else f"homomorphism of degree {l} for {params}; orbit_equal={_cell(consistent)}"
        )
        payload = {
            "m": args.m,
            "lambda": _json_q(args.lam),
            "nu": _json_q(args.nu),
            "degree": l,
            "orbit_equal": consistent,
        }
        return Report([text], [list(pair), list(pair.values())], payload)
    pairs = [
        {"l": l, **_verma_pair(args.m, args.m - l, args.m + l)} for l in range(args.max_l + 1)
    ]
    rows = [list(pairs[0]), *(list(r.values()) for r in pairs)]
    text = [f"scalar Verma homomorphisms  m={args.m}", *("  ".join(map(_cell, r)) for r in rows)]
    return Report(text, rows, {"m": args.m, "pairs": pairs})


def cmd_ehw(args, parser) -> Report:
    if args.n < 4:
        parser.error("--n must be at least 4")
    a = ehw_first_reduction_point(args.n)
    b = ehw_last_unitary_point(args.n)
    unit = ehw_unitarizable(args.n, args.z)
    text = [
        f"scalar lowest-weight unitarizability  n={args.n}  z={args.z}",
        f"first reduction point: {a}",
        f"last unitary point: {b}",
        f"unitarizable: {_cell(unit)}",
    ]
    payload = {
        "n": args.n,
        "z": _json_q(args.z),
        "unitarizable": unit,
        "first_reduction_point": _json_q(a),
        "last_unitary_point": _json_q(b),
    }
    if args.lam is not None:
        if args.n % 2 != 0:
            parser.error("--lambda requires even --n for the residue degree")
        ks_degree = knapp_stein_residue_degree(args.n, args.lam)
        text.append(
            f"no residual operator at lambda={args.lam}"
            if ks_degree is None
            else f"residual operator at lambda={args.lam}: Laplacian power {ks_degree}"
        )
        payload.update({"lambda": _json_q(args.lam), "residue_degree": ks_degree})
    # A rational renders alike in both formats, so the CSV row is the payload.
    return Report(text, [list(payload), list(payload.values())], payload)


def _nonnegative_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _rational(raw: str) -> Q:
    mantissa, _, exponent = raw.lower().partition("e")
    try:
        digits = sum(map(str.isdigit, mantissa)) + abs(int(exponent)) if exponent else 0
        if digits > RATIONAL_DIGIT_BOUND:
            raise argparse.ArgumentTypeError(f"more than {RATIONAL_DIGIT_BOUND} digits: {raw!r}")
        return Q(raw)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {raw!r}") from None


def _add_common(sub: argparse.ArgumentParser, *, with_m=True, with_lambda=False,
                with_max_l=False, max_l_default=DEFAULT_MAX_L, with_seed=False) -> None:
    if with_m:
        sub.add_argument("--m", type=int, required=True, help="rank parameter m >= 2")
    if with_lambda:
        sub.add_argument(
            "--lambda", dest="lam", type=_rational, default=None,
            help="scalar parameter (default m-1)",
        )
    if with_max_l:
        sub.add_argument(
            "--max-l", dest="max_l", type=_nonnegative_int, default=max_l_default,
            help=f"largest symmetric-power degree (default {max_l_default})",
        )
    if with_seed:
        sub.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    sub.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (default text)",
    )
    sub.add_argument("--out", default=None, help="write output to this path")


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieball",
        description="Exact K-type tables for the conformal group of the Lie ball",
    )
    subs = parser.add_subparsers(
        dest="command", required=True, parser_class=_SubcommandParser
    )

    p = subs.add_parser("ktypes", help="K-type table from the Euler sum")
    _add_common(p, with_lambda=True, with_max_l=True)
    p.set_defaults(func=cmd_ktypes, parser=p)

    p = subs.add_parser("harmonic", help="K-type table from the Laplacian kernel")
    _add_common(p, with_max_l=True)
    p.set_defaults(func=cmd_harmonic, parser=p)

    p = subs.add_parser("verify", help="cross-check the two K-type tables")
    _add_common(p, with_max_l=True, with_seed=True)
    p.set_defaults(func=cmd_verify, parser=p)

    p = subs.add_parser("weyl", help="list the minimal coset representatives")
    _add_common(p)
    p.set_defaults(func=cmd_weyl, parser=p)

    p = subs.add_parser("ranges", help="weakly fair and good range verdicts")
    _add_common(p, with_lambda=True)
    p.set_defaults(func=cmd_ranges, parser=p)

    p = subs.add_parser("verma", help="scalar generalized Verma homomorphisms")
    _add_common(p, with_lambda=True, with_max_l=True, max_l_default=5)
    p.add_argument("--nu", type=_rational, default=None, help="second scalar parameter")
    p.set_defaults(func=cmd_verma, parser=p)

    p = subs.add_parser("ehw", help="scalar lowest-weight unitarizability window")
    p.add_argument("--n", type=int, required=True, help="rank parameter n >= 4")
    p.add_argument("--z", type=_rational, required=True, help="lowest-weight parameter")
    p.add_argument(
        "--lambda", dest="lam", type=_rational, default=None,
        help="also report the residual operator degree at this parameter",
    )
    _add_common(p, with_m=False)
    p.set_defaults(func=cmd_ehw, parser=p)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args, args.parser)
        text = render(report, args.format)
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"{args.parser.prog}: error: request too large: out of memory", file=sys.stderr)
        return 2
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
