"""`lieball weyl`: list the minimal coset representatives."""

from __future__ import annotations

from ..cli import WEYL_ENUMERATION_BOUND, Report, _fmt_weight

__all__ = ["run"]


def run(args, parser) -> Report:
    from ..weyl import enumerate_coset_reps, inversion_set, length, one_line_window
    if args.m > WEYL_ENUMERATION_BOUND:
        parser.error(f"--m exceeds the enumeration bound {WEYL_ENUMERATION_BOUND}")
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
