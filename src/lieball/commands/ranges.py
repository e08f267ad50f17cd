"""`lieball ranges`: the weakly fair and good range verdicts."""

from __future__ import annotations

from typing import List

from ..cli import Report, _cell, _fmt_weight, _integer_lambda, _json_q

__all__ = ["run"]


def _witnesses_json(m: int, witnesses) -> List[dict]:
    from ..ktype import root_vector
    return [
        {"root": list(root_vector(m + 1, root)), "pairing": _json_q(p)} for root, p in witnesses
    ]


def run(args) -> Report:
    from ..ktype import root_vector
    from ..repdata import inf_char, is_regular_type_d, range_verdict, range_violation_counts
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
