"""`lieball verma`: scalar generalized Verma homomorphisms."""

from __future__ import annotations

from ..cli import Report, _cell, _json_q

__all__ = ["run"]


def _verma_pair(m: int, lam, nu) -> dict:
    """Degree of the homomorphism for (lambda, nu), and whether the two
    infinitesimal characters share an orbit (None when there is none)."""
    from ..repdata import orbit_equal, verma_hom_condition, verma_inf_char
    degree = verma_hom_condition(m, lam, nu)
    consistent = (
        orbit_equal(verma_inf_char(m, lam), verma_inf_char(m, nu))
        if degree is not None
        else None
    )
    return {"lambda": lam, "nu": nu, "degree": degree, "orbit_equal": consistent}


def run(args, parser) -> Report:
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
