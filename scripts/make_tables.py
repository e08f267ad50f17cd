#!/usr/bin/env python3
"""Emit the K-type tables for a range of ranks as JSON or CSV files.

Writes one file per rank into the output directory, computed from the
alternating coset sum (`lieball ktypes`), plus a companion file from the
Laplacian kernel (`lieball harmonic`) so the two can be diffed byte for byte.
"""

import argparse
import pathlib

from lieball.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-m", type=int, default=2)
    ap.add_argument("--max-m", type=int, default=4)
    ap.add_argument("--max-l", type=int, default=6)
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    ap.add_argument("--out-dir", default="tables")
    args = ap.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for m in range(args.min_m, args.max_m + 1):
        for tag, command in (("euler", "ktypes"), ("kernel", "harmonic")):
            path = out_dir / f"ktypes_m{m}_{tag}.{args.format}"
            code = cli_main(
                [command, "--m", str(m), "--max-l", str(args.max_l),
                 "--format", args.format, "--out", str(path)]
            )
            if code != 0:
                return code
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
