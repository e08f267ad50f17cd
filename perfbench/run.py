"""Benchmark for lieball: cold CLI invocations, timed from outside.

    python3 perfbench/run.py --workload euler|kernel|verify --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
One client, closed loop, one process at a time: each invocation is a fresh
`python -m lieball ...` whose stdout is checked against oracle.py.

--trace 0 measures for S seconds and reports the end-to-end metrics:
median wall time, CPU time and peak RSS of one invocation, and the median
time of a cold `import lieball.cli` (setup_s).

--trace 1 runs one untraced invocation, then traced.py twice (the spans
pass and the memory pass), and reports the per-layer metrics: time per
layer, tracemalloc peaks, exact work counts, and the traced wall time with
its unattributed remainder.  The two passes must count the same work.

Diagnostics and provenance go to stderr and to .bench_build/perfbench/;
the last line of stdout is the result as one JSON object.  The exit code
is 0 when every output was correct and both traced passes counted the same
work, 1 when not, and 2 when the checkout holds no lieball sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from oracle import expected
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever the program does
SETUP_PROBES_PER_ROUND = 3
SETUP_ARGV = ["-c", "import lieball.cli"]

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
LAYER_TIMES = (
    "weyl.coset", "kostant.euler", "blattner.table", "blattner.unique_check",
    "harmonic.basis", "linalg.rank", "harmonic.kernel", "harmonic.certify",
    "harmonic.equivariance", "repdata.checks", "cli.render",
)
PEAKS = ("harmonic.basis_peak_mb", "linalg.rank_peak_mb")
COUNTS = (
    "weyl.elements_tested", "weyl.coset_reps", "blattner.mu_vectors",
    "kostant.shift_evals", "harmonic.columns", "harmonic.rows", "linalg.nnz",
    "linalg.rank", "blattner.table_entries", "cli.out_bytes",
)
TRACE_TIMES = ("trace.wall_s", "trace.unattributed_s")


def layer_units() -> Dict[str, str]:
    units = {f"{name}_s": "s" for name in LAYER_TIMES}
    units.update({name: "MiB" for name in PEAKS})
    units.update({name: "count" for name in COUNTS})
    units.update({name: "s" for name in TRACE_TIMES})
    return units


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args: List[str], limit: float) -> Child:
    """Run `python args...` to completion; wall, CPU and RSS are its own."""
    with open(BUILD / "child.stdout", "w+b") as out, open(BUILD / "child.stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        timer = threading.Timer(max(limit, 1.0), proc.kill)
        timer.start()
        try:
            # wait4, not RUSAGE_CHILDREN: that one keeps the maximum RSS over
            # all children reaped so far.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
            proc.returncode, out.read().decode(errors="replace"),
            err.read().decode(errors="replace"),
        )


class Tally:
    """Invocations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, what: str, reason: Optional[str]) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.problem(f"{what}: {reason}")

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)
            print(f"perfbench: {text}", file=sys.stderr)


def run_cli(w: Workload, seed: int, tally: Tally, deadline: float) -> Child:
    child = spawn(["-m", "lieball", *w.argv(seed)], deadline - time.perf_counter())
    reason = expected(w, seed).check(child.returncode, child.stdout)
    tally.record("lieball " + " ".join(w.argv(seed)), reason)
    if reason is not None and child.stderr:
        tally.problem("stderr: " + child.stderr[-2000:])
    return child


def probe_setup(tally: Tally, deadline: float) -> float:
    child = spawn(SETUP_ARGV, deadline - time.perf_counter())
    ok = child.returncode == 0 and not child.stdout
    tally.record("import lieball.cli", None if ok else f"exit {child.returncode}")
    return child.wall


def untraced(w: Workload, seed: int, seconds: int, tally: Tally, deadline: float):
    probe_setup(tally, deadline)  # writes the bytecode cache; not timed
    setup: List[float] = []
    runs: List[Child] = []
    rounds: List[float] = []
    start = time.perf_counter()
    stop = min(start + seconds, deadline)
    while True:
        begin = time.perf_counter()
        setup += [probe_setup(tally, deadline) for _ in range(SETUP_PROBES_PER_ROUND)]
        runs.append(run_cli(w, seed, tally, deadline))
        now = time.perf_counter()
        rounds.append(now - begin)
        # Start another round only if at least half of it is expected to
        # fall inside the window, so runs last about `seconds` on average.
        if now + statistics.median(rounds) / 2 > stop:
            break
    metrics = {
        "wall_s": statistics.median(c.wall for c in runs),
        "cpu_s": statistics.median(c.cpu for c in runs),
        "peak_rss_mb": statistics.median(c.rss_mb for c in runs),
        "setup_s": statistics.median(setup),
    }
    samples = {
        "wall_s": [c.wall for c in runs], "cpu_s": [c.cpu for c in runs],
        "peak_rss_mb": [c.rss_mb for c in runs], "setup_s": setup,
    }
    for name, values in samples.items():
        print(
            f"perfbench: {name}: median {metrics[name]:.4f} min {min(values):.4f} "
            f"max {max(values):.4f} n={len(values)}",
            file=sys.stderr,
        )
    return metrics, {"samples": samples}


def traced_child(w: Workload, seed: int, which: str, deadline: float):
    out = BUILD / f"trace-{which}.json"
    out.unlink(missing_ok=True)
    child = spawn(
        [str(HERE / "traced.py"), "--pass", which, "--name", w.name,
         "--command", w.command, "--m", str(w.m), "--max-l", str(w.max_l),
         "--seed", str(seed), "--out", str(out)],
        deadline - time.perf_counter(),
    )
    if child.returncode != 0:
        raise RuntimeError(f"traced.py --pass {which} exited {child.returncode}:\n{child.stderr}")
    return child, json.loads(out.read_text(encoding="utf-8"))


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Each layer's span time minus the time of the spans nested in it."""
    total: Dict[str, float] = {}
    for s in spans:
        total[s["name"]] = total.get(s["name"], 0.0) + s["end"] - s["start"]
    own = dict(total)
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def traced(w: Workload, seed: int, tally: Tally, deadline: float):
    plain = run_cli(w, seed, tally, deadline)
    spans_child, spans_rec = traced_child(w, seed, "spans", deadline)
    _, memory_rec = traced_child(w, seed, "memory", deadline)
    for which, rec in (("spans", spans_rec), ("memory", memory_rec)):
        reason = expected(w, seed).check(rec["returncode"], rec["stdout"])
        tally.record(f"traced cli.main, {which} pass", reason)
        if rec["render_recomputed"]:
            # The replay no longer makes the calls the CLI makes, so the
            # layer spans missed work that cli.render then did.
            tally.problem(f"{which} pass: cli.main recomputed {rec['render_recomputed']}")
    counts = {name: 0 for name in COUNTS}
    counts.update(spans_rec["counts"])
    if memory_rec["counts"] != spans_rec["counts"]:
        diff = {k: (spans_rec["counts"].get(k), memory_rec["counts"].get(k))
                for k in sorted(set(spans_rec["counts"]) | set(memory_rec["counts"]))
                if spans_rec["counts"].get(k) != memory_rec["counts"].get(k)}
        tally.problem(f"counts differ between the passes (spans, memory): {diff}")

    spans = spans_rec["spans"]
    own = self_times(spans)
    layer_total = {name: 0.0 for name in LAYER_TIMES}
    for s in spans:
        if s["name"] in layer_total:
            layer_total[s["name"]] += s["end"] - s["start"]
    for s in memory_rec["spans"]:
        if s["name"] == "kostant.euler":
            layer_total[s["name"]] += s["end"] - s["start"]
    unattributed = spans_child.wall - sum(own.values())
    counting = own.get("trace.count", 0.0)

    metrics = {f"{name}_s": layer_total[name] for name in LAYER_TIMES}
    metrics.update({name: memory_rec["peaks_mb"].get(name, 0.0) for name in PEAKS})
    metrics.update(counts)
    metrics["trace.wall_s"] = spans_child.wall
    metrics["trace.unattributed_s"] = unattributed

    print(f"perfbench: {'layer':<24}{'span s':>10}{'self s':>10}{'share':>8}", file=sys.stderr)
    for name, total in (*layer_total.items(), ("trace.count", counting)):
        if total:
            mine = own.get(name)
            share = "" if mine is None else f"{mine / spans_child.wall:8.1%}"
            mine_text = "(memory)" if mine is None else f"{mine:.3f}"
            print(f"perfbench: {name:<24}{total:>10.3f}{mine_text:>10}{share}",
                  file=sys.stderr)
    print(f"perfbench: {'unattributed':<24}{'':>10}{unattributed:>10.3f}"
          f"{unattributed / spans_child.wall:8.1%}", file=sys.stderr)
    # Tracing overhead: the counting it does in-process is measured; the
    # rest (wrappers and spans) is only bounded by one traced/untraced pair,
    # whose difference this host's run-to-run noise can swamp.
    pair = spans_child.wall - plain.wall
    print(f"perfbench: tracing overhead: counting {counting:.3f} s in-process; traced "
          f"{spans_child.wall:.3f} s - untraced {plain.wall:.3f} s = {pair:+.3f} s "
          f"(one pair, within run-to-run noise)", file=sys.stderr)
    detail = {
        "spans": spans + memory_rec["spans"],
        "self_s": own,
        "untraced_wall_s": plain.wall,
        "overhead": {"counting_s": counting, "traced_minus_untraced_s": pair},
        "memory_counts": memory_rec["counts"],
        "caches_cleared": spans_rec["caches_cleared"],
    }
    return metrics, detail


def git(*args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "--no-optional-locks", *args], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args) -> dict:
    commit = git("rev-parse", "HEAD")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": WORKLOADS[args.workload].argv(args.seed),
        "commit": commit,
        "dirty": None if commit is None else bool(git("status", "--porcelain")),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "started_unix": time.time(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="lieball benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "lieball" / "__init__.py").is_file():
        print(f"perfbench: no lieball sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    BUILD.mkdir(parents=True, exist_ok=True)
    record = provenance(args)
    print(f"perfbench: {json.dumps(record)}", file=sys.stderr)
    w = WORKLOADS[args.workload]
    tally = Tally()
    if args.trace:
        metrics, detail = traced(w, args.seed, tally, deadline)
        units = layer_units()
    else:
        metrics, detail = untraced(w, args.seed, args.seconds, tally, deadline)
        units = END_TO_END_UNITS
    correct = not tally.problems
    record.update(
        loadavg_after=os.getloadavg(), correct=correct, attempted=tally.attempted,
        failed=tally.failed, fail_share=tally.failed / tally.attempted,
        problems=tally.problems, metrics=metrics, **detail,
    )
    (BUILD / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(f"perfbench: fail_share {tally.failed}/{tally.attempted}, load average "
          f"{record['loadavg_before']} -> {record['loadavg_after']}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
