"""`lieball harmonic`: the K-type table from the Laplacian kernel."""

from __future__ import annotations

from ..cli import Report, _fmt_weight, _table_report

__all__ = ["run"]


def run(args, parser) -> Report:
    from ..harmonic import sol_ktype_table
    table = sol_ktype_table(args.m, args.max_l)
    return _table_report(table, lambda: [
        f"harmonic kernel K-types  m={args.m}  lambda={args.m - 1}",
        "mu0  mu  mult  kernel_dim  weyl_dim",
        *(f"{pi.mu0}  {_fmt_weight(pi.mu)}  {mult}  " + "  ".join(map(str, table.dims[pi]))
          for pi, mult in table.sorted_entries()),
        f"certified rows: {len(table.entries)}",
    ])
