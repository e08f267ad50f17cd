"""The benchmark's workloads: one fixed `lieball` invocation each.

BENCHMARK.json runs `kernel` and `verify`.  `euler` stays here to be run
by hand: on the machine the benchmark was built on, its run-to-run spread
exceeded the largest bound a benchmark may set.  DESIGN.md has the figures,
and why no workload runs at m = 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the lieball subcommand
    m: int
    max_l: int

    @property
    def algebraic(self) -> bool:
        """Runs the Euler-sum route (weyl, kostant, blattner)."""
        return self.command in ("ktypes", "verify")

    @property
    def analytic(self) -> bool:
        """Runs the Laplacian-kernel route (harmonic, linalg)."""
        return self.command in ("harmonic", "verify")

    def argv(self, seed: int) -> List[str]:
        """Arguments after `python -m lieball`; only `verify` takes the seed."""
        args = [self.command, "--m", str(self.m), "--max-l", str(self.max_l)]
        if self.command == "verify":
            args += ["--seed", str(seed)]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload("euler", "ktypes", 7, 6),
        Workload("kernel", "harmonic", 4, 16),
        Workload("verify", "verify", 6, 10),
    )
}
