"""The handler of `verify`: the two K-type tables compared, with the
supporting checks of the theory around them.  It exits 1 if any check
fails."""

from __future__ import annotations

from typing import List, Tuple

from .report import (
    VERIFY_EQUIVARIANCE_TRIALS, VERIFY_GRID_BOUND, VERIFY_VERMA_DEGREES, Report, _fmt_weight,
)

__all__ = ["verify"]


def _checks(m: int, max_l: int, seed: int) -> Tuple[List[dict], bool]:
    """Each check's name, verdict and detail, and whether all pass."""
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


def verify(args) -> Report:
    """Cross-check the two K-type tables; exit 1 if any check fails."""
    checks, ok = _checks(args.m, args.max_l, args.seed)
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
