"""Expected `lieball` output, built from closed forms and never from lieball.

Row l of the K-type table is (l+m-1; l, 0, ..., 0) with multiplicity 1, and
its kernel and Weyl dimensions are both C(2m+l-1, l) - C(2m+l-3, l-2), the
dimension of the degree-l harmonic polynomials in 2m variables.  For
`verify` only the lines that these closed forms fix are checked; the rest
must report PASS.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb
from typing import Dict, Optional

from workloads import Workload

# What `lieball verify` echoes about its supporting checks.  Kept apart from
# the CLI's own constants so that the oracle does not read the program.
VERIFY_GRID_BOUND = 4
VERIFY_EQUIVARIANCE_TRIALS = 15


def harmonic_dim(m: int, l: int) -> int:
    n = 2 * m
    return comb(n + l - 1, l) - (comb(n + l - 3, l - 2) if l >= 2 else 0)


def _row(m: int, l: int) -> str:
    mu = "(" + ", ".join([str(l)] + ["0"] * (m - 1)) + ")"
    return f"{l + m - 1}  {mu}  1"


@dataclass(frozen=True)
class Expected:
    """Line index -> exact text, the line count, and the prefix every line
    without an exact text must carry."""

    lines: Dict[int, str]
    n_lines: int
    other_prefix: str = ""

    def check(self, returncode: int, stdout: str) -> Optional[str]:
        """None if the output matches, else the first difference found."""
        if returncode != 0:
            return f"exit code {returncode}"
        got = stdout.split("\n")
        if got[-1] != "":
            return "output does not end with a newline"
        got = got[:-1]
        if len(got) != self.n_lines:
            return f"{len(got)} lines, expected {self.n_lines}"
        for i, line in enumerate(got):
            want = self.lines.get(i)
            if want is None:
                if not line.startswith(self.other_prefix):
                    return f"line {i + 1}: {line!r} lacks {self.other_prefix!r}"
            elif line != want:
                return f"line {i + 1}: {line!r} != {want!r}"
        return None

    def corrupted(self) -> "Expected":
        """The same expectation with one exact line altered, for self-tests."""
        i = max(self.lines)
        lines = dict(self.lines)
        lines[i] += " corrupted"
        return replace(self, lines=lines)


def _exact(text_lines) -> Expected:
    return Expected(dict(enumerate(text_lines)), len(text_lines))


def expected(w: Workload, seed: int) -> Expected:
    m, L = w.m, w.max_l
    if w.command == "ktypes":
        return _exact(
            [
                f"K-type table  m={m}  lambda={m - 1}  (multiplicity)",
                f"window: mu0 <= {m - 1 + L}, mu1 <= {L}",
                "mu0  mu  mult",
                *(_row(m, l) for l in range(L + 1)),
                f"entries: {L + 1}",
            ]
        )
    if w.command == "harmonic":
        return _exact(
            [
                f"harmonic kernel K-types  m={m}  lambda={m - 1}",
                "mu0  mu  mult  kernel_dim  weyl_dim",
                *(
                    f"{_row(m, l)}  {harmonic_dim(m, l)}  {harmonic_dim(m, l)}"
                    for l in range(L + 1)
                ),
                f"certified rows: {L + 1}",
            ]
        )
    if w.command == "verify":
        return Expected(
            {
                0: f"verification report  m={m}  lambda={m - 1}  max_l={L}  seed={seed}",
                1: "[PASS] ktype tables: Euler-sum and harmonic-kernel tables "
                f"agree on {L + 1} entries",
                2: "[PASS] unique scalar match: exhaustive over the dominant grid "
                f"with bound {VERIFY_GRID_BOUND}",
                6: f"[PASS] laplacian equivariance: n={2 * m}, "
                f"{VERIFY_EQUIVARIANCE_TRIALS} trials, seed={seed}",
                7: "result: PASS (6/6)",
            },
            8,
            "[PASS] ",
        )
    raise ValueError(f"no oracle for {w.command}")
