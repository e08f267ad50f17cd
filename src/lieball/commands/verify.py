"""`lieball verify`: cross-check the two K-type tables, with the supporting
checks of the theory around them."""

from __future__ import annotations

from typing import List, Tuple

from ..cli import (
    VERIFY_EQUIVARIANCE_TRIALS,
    VERIFY_GRID_BOUND,
    VERIFY_VERMA_DEGREES,
    Report,
    _fmt_weight,
)

__all__ = ["run"]


def _verify_checks(m: int, max_l: int, seed: int) -> Tuple[List[dict], bool]:
    from ..blattner import ktype_table, unique_scalar_match_check
    from ..harmonic import so_invariance_check, sol_ktype_table
    from ..repdata import inf_char, is_regular_type_d, orbit_equal, range_verdict, root_vector
    from ..repdata import verma_hom_condition, verma_inf_char
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


def run(args, parser) -> Report:
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
