"""`lieball ehw`: the scalar lowest-weight unitarizability window."""

from __future__ import annotations

from typing import List

from ..cli import Report, _cell, _json_q

__all__ = ["run"]


def run(args, parser) -> Report:
    from ..repdata import ehw_first_reduction_point, ehw_last_unitary_point, ehw_unitarizable
    from ..repdata import knapp_stein_residue_degree
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
