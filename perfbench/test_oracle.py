"""Self-tests of the benchmark's oracle and accounting.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The oracle is checked against real `lieball` output at small sizes, and a
corrupted expectation must turn a correct invocation into a counted failure.
The traced passes must count the same work and account for the traced wall
time, and a difference between them must fail the run.
"""

from __future__ import annotations

import json
import unittest
from unittest import mock

import run
from oracle import expected, harmonic_dim
from workloads import Workload

SMALL = (
    Workload("small-euler", "ktypes", 3, 4),
    Workload("small-kernel", "harmonic", 2, 5),
    Workload("small-verify", "verify", 3, 3),
)
FAR = 1e9  # deadline: no small invocation comes near it


class OracleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        run.BUILD.mkdir(parents=True, exist_ok=True)

    def test_closed_forms_match_the_cli(self) -> None:
        for w in SMALL:
            with self.subTest(w.name):
                tally = run.Tally()
                run.run_cli(w, 5, tally, FAR)
                self.assertEqual((tally.attempted, tally.failed, tally.problems), (1, 0, []))

    def test_corrupted_expectation_counts_as_failure(self) -> None:
        for w in SMALL:
            with self.subTest(w.name):
                tally = run.Tally()
                corrupt = lambda w, seed: expected(w, seed).corrupted()  # noqa: E731
                with mock.patch.object(run, "expected", corrupt):
                    run.run_cli(w, 5, tally, FAR)
                self.assertEqual((tally.attempted, tally.failed), (1, 1))

    def test_exit_code_and_wrong_seed_are_failures(self) -> None:
        w = SMALL[2]
        child = run.spawn(["-m", "lieball", *w.argv(5)], 60)
        self.assertIsNone(expected(w, 5).check(child.returncode, child.stdout))
        self.assertIsNotNone(expected(w, 5).check(1, child.stdout))
        self.assertIsNotNone(expected(w, 6).check(child.returncode, child.stdout))

    def test_harmonic_dimension_closed_form(self) -> None:
        # m = 2: dim of degree-l harmonics in 4 variables is (l + 1)^2.
        self.assertEqual([harmonic_dim(2, l) for l in range(6)], [1, 4, 9, 16, 25, 36])


class AccountingTest(unittest.TestCase):
    def test_reported_metrics_are_the_declared_ones(self) -> None:
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS
        )
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.layer_units())

    def test_self_times_subtract_nested_spans(self) -> None:
        spans = [
            {"name": "linalg.rank", "parent": "harmonic.kernel", "start": 1.0, "end": 2.0},
            {"name": "linalg.rank", "parent": "harmonic.kernel", "start": 2.5, "end": 3.0},
            {"name": "harmonic.kernel", "parent": None, "start": 0.5, "end": 3.5},
        ]
        own = run.self_times(spans)
        self.assertAlmostEqual(own["harmonic.kernel"], 1.5)
        self.assertAlmostEqual(own["linalg.rank"], 1.5)


class TracedTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        run.BUILD.mkdir(parents=True, exist_ok=True)

    def test_passes_agree_and_account_for_the_traced_wall(self) -> None:
        for w in SMALL:
            with self.subTest(w.name):
                tally = run.Tally()
                metrics, detail = run.traced(w, 5, tally, FAR)
                self.assertEqual((tally.failed, tally.problems), (0, []))
                self.assertEqual(set(metrics), set(run.layer_units()))
                self.assertAlmostEqual(
                    sum(detail["self_s"].values()) + metrics["trace.unattributed_s"],
                    metrics["trace.wall_s"],
                )
                exercised = ["cli.out_bytes", "blattner.table_entries"]
                if w.algebraic:
                    exercised += ["weyl.elements_tested", "kostant.shift_evals",
                                  "blattner.mu_vectors", "blattner.table_s"]
                if w.analytic:
                    exercised += ["harmonic.columns", "linalg.nnz", "linalg.rank",
                                  "harmonic.basis_peak_mb", "linalg.rank_peak_mb"]
                for name in exercised:
                    self.assertGreater(metrics[name], 0, name)

    def test_count_drift_and_recomputed_render_fail_the_run(self) -> None:
        real = run.traced_child

        def drifting(w, seed, which, deadline):
            child, rec = real(w, seed, which, deadline)
            if which == "memory":
                rec["counts"]["weyl.coset_reps"] += 1
                rec["render_recomputed"] = {"ktype_table": 1}
            return child, rec

        tally = run.Tally()
        with mock.patch.object(run, "traced_child", drifting):
            run.traced(SMALL[0], 5, tally, FAR)
        self.assertEqual(len(tally.problems), 2, tally.problems)


if __name__ == "__main__":
    unittest.main()
