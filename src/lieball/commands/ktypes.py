"""`lieball ktypes`: the K-type table from the Euler sum."""

from __future__ import annotations

from ..cli import Report, _fmt_weight, _integer_lambda, _table_report

__all__ = ["run"]


def run(args) -> Report:
    from ..blattner import ktype_table
    from ..repdata import weakly_fair
    lam = _integer_lambda(args)
    table = ktype_table(args.m, lam, max_mu0=lam + args.max_l, max_mu1=args.max_l)
    semantics = "multiplicity" if weakly_fair(args.m, lam) else "Euler characteristic"
    return _table_report(table, lambda: [
        f"K-type table  m={table.m}  lambda={table.lam}  ({semantics})",
        f"window: mu0 <= {table.max_mu0}, mu1 <= {table.max_mu1}",
        "mu0  mu  mult",
        *(f"{pi.mu0}  {_fmt_weight(pi.mu)}  {mult}" for pi, mult in table.sorted_entries()),
        f"entries: {len(table.entries)}",
    ])
