"""The handlers of the two table subcommands: `ktypes`, the K-type table
from the Euler sum, and `harmonic`, the same table from the Laplacian
kernel.  Each imports its route as it runs, so `harmonic` never loads the
Euler-sum route, nor `ktypes` `harmonic`."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List

from .report import Report, _fmt_weight, _integer_lambda

if TYPE_CHECKING:
    from .ktype import KTypeTable

__all__ = ["harmonic", "ktypes"]


def _table_report(table: KTypeTable, text: Callable[[list], List[str]]) -> Report:
    """A K-type table in the JSON and CSV layout shared by ktypes and harmonic;
    `text` builds the text lines from the sorted entries."""
    entries = table.sorted_entries()
    header = ["mu0", *(f"mu_{i}" for i in range(1, table.m + 1)), "mult"]
    return Report(
        lambda: text(entries),
        lambda: [header, *([pi.mu0, *pi.mu, mult] for pi, mult in entries)],
        lambda: {"m": table.m, "lambda": table.lam, "entries": [
            {"mu0": pi.mu0, "mu": list(pi.mu), "mult": mult} for pi, mult in entries
        ]},
    )


def ktypes(args) -> Report:
    """The K-type table from the Euler sum."""
    from .blattner import ktype_table
    from .repdata import weakly_fair
    lam = _integer_lambda(args)
    table = ktype_table(args.m, lam, max_mu0=lam + args.max_l, max_mu1=args.max_l)
    semantics = "multiplicity" if weakly_fair(args.m, lam) else "Euler characteristic"
    return _table_report(table, lambda entries: [
        f"K-type table  m={table.m}  lambda={table.lam}  ({semantics})",
        f"window: mu0 <= {table.max_mu0}, mu1 <= {table.max_mu1}",
        "mu0  mu  mult",
        *(f"{pi.mu0}  {_fmt_weight(pi.mu)}  {mult}" for pi, mult in entries),
        f"entries: {len(table.entries)}",
    ])


def harmonic(args) -> Report:
    """The K-type table from the Laplacian kernel."""
    from .harmonic import sol_ktype_table
    table = sol_ktype_table(args.m, args.max_l)
    return _table_report(table, lambda entries: [
        f"harmonic kernel K-types  m={args.m}  lambda={args.m - 1}",
        "mu0  mu  mult  kernel_dim  weyl_dim",
        *(f"{pi.mu0}  {_fmt_weight(pi.mu)}  {mult}  " + "  ".join(map(str, table.dims[pi]))
          for pi, mult in entries),
        f"certified rows: {len(table.entries)}",
    ])
