"""The handlers of the four listing subcommands: `weyl`, the minimal coset
representatives; `ranges`, the positivity range verdicts; `verma`, the
scalar generalized Verma homomorphisms; and `ehw`, the scalar
lowest-weight unitarizability window.  Each imports what it runs as it
runs: `weyl` loads no scalar arithmetic, `verma` and `ehw` no K-type
vocabulary."""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from .report import Report, UsageError, _cell, _fmt_weight, _integer_lambda

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["ehw", "ranges", "verma", "weyl"]

WEYL_ENUMERATION_BOUND = 8


def _json_q(x: int | Fraction):
    return int(x) if x.denominator == 1 else str(x)


def weyl(args) -> Report:
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


def ranges(args) -> Report:
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


def verma(args) -> Report:
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


def ehw(args) -> Report:
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
