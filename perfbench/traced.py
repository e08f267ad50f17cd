"""Traced replay of one workload, timed from outside the program.

Run by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's src/:

    python3 perfbench/traced.py --pass spans|memory --name NAME \
        --command C --m M --max-l L --seed N --out FILE

Both passes replay what `lieball C --m M --max-l L` does, bottom-up through
the public entry point of each layer, so that each span finds the cached
dependencies it needs already warm and no work is done twice.  They end
with `cli.main` itself, which renders tables and check results that the
earlier spans computed.  Wrappers around the calls the program makes count
its work: the group elements `weyl.is_coset_rep` tests, the μ vectors and
`_shifted_weight` evaluations of the μ-scan, and the columns, rows and
nonzeros `harmonic_dimension` hands to `exact_rank`.

`spans` times each layer.  The parent times this child the way it times an
untraced invocation, so the two can be compared.

`memory` does the same work, with tracemalloc on around the top-level
`monomial_exponents` calls of `harmonic_dimension` and around `exact_rank`
at the largest degree, so its layer times are not used.  It then times
`kostant.euler_character` over the table's μ vectors, which the CLI never
calls (DESIGN.md says why it is kept).  Its counts must equal those of the
spans pass.

Each pass writes one JSON record (spans, counts, peaks, the rendered
stdout) to FILE when it ends.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import pkgutil
import sys
import time
import tracemalloc
from typing import Callable, Dict, List, Optional

from workloads import Workload

import lieball
import lieball.cli as cli
from lieball import blattner, harmonic, kostant, repdata, weyl
from lieball.cli import VERIFY_EQUIVARIANCE_TRIALS, VERIFY_GRID_BOUND, VERIFY_VERMA_DEGREES

MIB = 1 << 20


class Tracer:
    """Spans, counts and peaks, kept in memory until the pass ends."""

    def __init__(self, workload: str, memory: bool) -> None:
        self.workload = workload
        self.memory = memory
        self.spans: List[dict] = []
        self.counts: Dict[str, int] = {}
        self.peaks_mb: Dict[str, float] = {}
        self._stack: List[str] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                {"name": name, "parent": parent, "workload": self.workload,
                 "start": start, "end": end}
            )

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def clear_caches() -> List[str]:
    """cache_clear() every functools.lru_cache in the lieball modules."""
    cleared = {}
    for info in pkgutil.iter_modules(lieball.__path__):
        if info.name.startswith("__"):  # __main__ runs the CLI on import
            continue
        module = importlib.import_module(f"lieball.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                obj.cache_clear()
                cleared[id(obj)] = f"{obj.__module__}.{name}"
    return sorted(cleared.values())


@contextlib.contextmanager
def patched(module, name: str, wrap: Callable[[Callable], Callable]):
    """Replace module.name by wrap(original) inside the block.  A name the
    program no longer has is left alone, and what it would count stays 0."""
    original = getattr(module, name, None)
    if original is None:
        print(f"traced: {module.__name__}.{name} not found; not counted", file=sys.stderr)
        yield
        return
    setattr(module, name, wrap(original))
    try:
        yield
    finally:
        setattr(module, name, original)


@contextlib.contextmanager
def counting(t: Tracer, module, name: str, count: str,
             size: Optional[Callable[[object], int]] = None):
    """Add each call of module.name, or the size of each result, to `count`."""
    total = [0]

    def wrap(fn):
        if size is None:
            def calls(*args):
                total[0] += 1
                return fn(*args)
            return calls

        def sizes(*args):
            result = fn(*args)
            total[0] += size(result)
            return result
        return sizes

    with patched(module, name, wrap):
        yield
    t.count(count, total[0])


def basis_hook(t: Tracer):
    """Span each top-level `monomial_exponents` call (the function recurses
    through its module name, so inner calls pass straight through).  In the
    memory pass the basis peak is the memory earlier calls retain in the
    cache plus this call's own traced peak."""
    depth = [0]
    retained = [0]

    def wrap(fn):
        def basis(n, degree):
            if depth[0]:
                return fn(n, degree)
            depth[0] += 1
            try:
                if t.memory:
                    tracemalloc.start()
                with t.span("harmonic.basis"):
                    result = fn(n, degree)
                if t.memory:
                    current, peak = tracemalloc.get_traced_memory()
                    tracemalloc.stop()
                    peak_mb = (retained[0] + peak) / MIB
                    retained[0] += current
                    t.peaks_mb["harmonic.basis_peak_mb"] = max(
                        t.peaks_mb.get("harmonic.basis_peak_mb", 0.0), peak_mb
                    )
            finally:
                depth[0] -= 1
            return result
        return basis

    return patched(harmonic, "monomial_exponents", wrap)


def rank_hook(t: Tracer, traced_columns: Callable[[], bool]):
    """Count what each `exact_rank` call is given and returns; in the memory
    pass, trace its peak when traced_columns() says so."""

    def wrap(fn):
        def rank(vectors):
            with t.span("trace.count"):
                t.count("harmonic.columns", len(vectors))
                t.count("harmonic.rows", len(set(itertools.chain.from_iterable(vectors))))
                t.count("linalg.nnz", sum(map(len, vectors)))
            traced = t.memory and traced_columns()
            if traced:
                tracemalloc.start()  # the columns themselves were built untraced
            with t.span("linalg.rank"):
                r = fn(vectors)
            if traced:
                t.peaks_mb["linalg.rank_peak_mb"] = tracemalloc.get_traced_memory()[1] / MIB
                tracemalloc.stop()
            t.count("linalg.rank", r)
            return r
        return rank

    return patched(harmonic, "exact_rank", wrap)


class Memo:
    """Remembers a layer's results so that `cli.main` can reuse them."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn
        self.results: dict = {}
        self.misses = 0

    def __call__(self, *args, **kwargs):
        key = (args, tuple(sorted(kwargs.items())))
        if key not in self.results:
            self.misses += 1
            self.results[key] = self.fn(*args, **kwargs)
        return self.results[key]


def replay(w: Workload, seed: int, t: Tracer) -> dict:
    cleared = clear_caches()
    m, L, n, lam = w.m, w.max_l, 2 * w.m, w.m - 1
    memo = {
        f.__name__: Memo(f)
        for f in (blattner.ktype_table, blattner.unique_scalar_match_check,
                  harmonic.sol_ktype_table, harmonic.so_invariance_check,
                  repdata.range_verdict, repdata.inf_char, repdata.is_regular_type_d,
                  repdata.verma_hom_condition, repdata.verma_inf_char, repdata.orbit_equal)
    }
    if w.algebraic:
        with counting(t, weyl, "is_coset_rep", "weyl.elements_tested"):
            with t.span("weyl.coset"):
                reps = weyl.enumerate_coset_reps(m)
        t.count("weyl.coset_reps", len(reps))
        with counting(t, blattner, "_shifted_weight", "kostant.shift_evals"), \
                counting(t, blattner, "dominant_mu_vectors", "blattner.mu_vectors", len):
            with t.span("blattner.table"):
                table = memo["ktype_table"](m, lam, max_mu0=lam + L, max_mu1=L)
            if w.command == "verify":
                with t.span("blattner.unique_check"):
                    memo["unique_scalar_match_check"](m, VERIFY_GRID_BOUND)
        t.count("blattner.table_entries", len(table.entries))
    if w.analytic:
        degree = [0]
        # Pivots are freed between degrees and grow with l, so the largest
        # degree sets the elimination peak; tracing the others would only
        # add time.
        with basis_hook(t), rank_hook(t, lambda: degree[0] == L):
            with t.span("harmonic.kernel"):
                for l in range(L + 1):
                    degree[0] = l
                    harmonic.harmonic_dimension(n, l)
        with t.span("harmonic.certify"):
            analytic_table = memo["sol_ktype_table"](m, L)
        if not w.algebraic:
            t.count("blattner.table_entries", len(analytic_table.entries))
    if w.command == "verify":
        with t.span("harmonic.equivariance"):
            memo["so_invariance_check"](n, VERIFY_EQUIVARIANCE_TRIALS, seed=seed)
    if w.algebraic:
        with t.span("repdata.checks"):
            # `ktypes` takes its table's heading from the range verdict.
            memo["range_verdict"](m, lam)
            if w.command == "verify":
                memo["is_regular_type_d"](memo["inf_char"](m, lam))
                for l in range(VERIFY_VERMA_DEGREES + 1):
                    memo["verma_hom_condition"](m, m - l, m + l)
                    memo["verma_hom_condition"](m, m - l, m + l + 1)
                    memo["orbit_equal"](
                        memo["verma_inf_char"](m, m - l), memo["verma_inf_char"](m, m + l)
                    )
    before = {name: f.misses for name, f in memo.items()}
    out = io.StringIO()
    with contextlib.ExitStack() as stack:
        for name, f in memo.items():
            if hasattr(cli, name):  # only the names the CLI itself calls
                stack.enter_context(patched(cli, name, lambda _, f=f: f))
        stack.enter_context(contextlib.redirect_stdout(out))
        with t.span("cli.render"):
            returncode = cli.main(w.argv(seed))
    stdout = out.getvalue()
    t.count("cli.out_bytes", len(stdout.encode()))

    if t.memory and w.algebraic:
        # Off the CLI path: shifted-weight evaluation on its own, with the
        # coset representatives already cached.
        vectors = blattner.dominant_mu_vectors(m, L)
        with t.span("kostant.euler"):
            for mu in vectors:
                kostant.euler_character(m, kostant.KTypeParam(lam, mu))
    return {
        "stdout": stdout,
        "returncode": returncode,
        "caches_cleared": cleared,
        "render_recomputed": {
            name: f.misses - before[name] for name, f in memo.items()
            if f.misses > before[name]
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pass", dest="which", choices=("spans", "memory"), required=True)
    parser.add_argument("--name", required=True, help="workload name for the spans")
    parser.add_argument("--command", choices=("ktypes", "harmonic", "verify"), required=True)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--max-l", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    w = Workload(args.name, args.command, args.m, args.max_l)
    tracer = Tracer(w.name, memory=args.which == "memory")
    record = replay(w, args.seed, tracer)
    record.update(spans=tracer.spans, counts=tracer.counts, peaks_mb=tracer.peaks_mb)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
