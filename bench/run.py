"""hamsim benchmark: time to a verified solve, and each layer timed from outside.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sim-deep --seed 1 --seconds 25 --trace 0

One process runs one workload as a closed loop with a single caller: it
builds the inputs from the seed, then makes the workload's user-facing call
again and again, checking every output and timing set-up again after each
call, until the next call would end after ``--seconds``.  The first call is
a warm-up and is not timed.  ``--trace 0`` reports the end-to-end
metrics, timed against a reference process that shares the run's CPU (see
reference.py); ``--trace 1`` alternates untraced and traced solves and reports the
per-layer metrics from the spans (see spans.py), which it also writes to
``.bench_out/``.  The last line of standard output is one JSON object;
the lines above it are for people.  README.md explains the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"

# Between solves, set-up is timed again for this share of the solves' wall
# time, so that setup_s is a median over the whole run, like solve_s.
SETUP_SHARE = 0.1
SETUP_MAX_PER_SOLVE = 100
# An untraced set-up repeats until it has used this much CPU, so that enough
# reference blocks run beside it (see reference.py); setup_s is per set-up.
SETUP_BATCH_S = 0.1

# BLAS threads for every run.  An untraced run is held to one CPU, and a
# traced one should do the same work.
BLAS_THREADS = 1

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "n_exp": "count",
    "peak_rss_mb": "MiB",
}

LAYERS = ("cli", "parity", "coloring", "oracle", "one_sparse", "kernels",
          "suzuki", "numerics", "bench")

PER_LAYER = {
    "oracle.build_s": "s",
    "oracle.to_dense_s": "s",
    "oracle.queries_total": "count",
    "oracle.base_queries": "count",
    "coloring.verify_s": "s",
    "coloring.verify_queries": "count",
    "coloring.verify_max_queries_per_lookup": "count",
    "coloring.lookups": "count",
    "coloring.useful_ratio": "1",
    "coloring.queries_per_lookup": "1",
    "one_sparse.extract_s": "s",
    "one_sparse.pack_s": "s",
    "one_sparse.packed_bytes": "bytes",
    "kernels.apply_s": "s",
    "kernels.sweeps_per_s": "1/s",
    "kernels.entry_updates_per_s": "1/s",
    "kernels.bytes_moved_computed": "bytes",
    "suzuki.k": "count",
    "suzuki.r": "count",
    "suzuki.plan_length": "count",
    "suzuki.bound": "1",
    "suzuki.bound_slack": "1",
    "numerics.spectral_norm_s": "s",
    "numerics.expm_s": "s",
    "numerics.trace_distance_s": "s",
    "parity.bit_queries": "count",
    "parity.h_queries": "count",
    "parity.lower_bound_ratio": "1",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
    "trace.spans_per_solve": "count",
}


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def build() -> None:
    """Build hamsim's extensions in place, once per state of their sources.

    setup.py builds nothing when Cython is absent; the kernel then falls
    back to numpy, and the run records which backend it used.
    """
    sources = [ROOT / "setup.py"] + [
        p for p in (ROOT / "src").rglob("*")
        if p.suffix in (".pyx", ".pxd", ".c", ".h")]
    stamp = BUILD_DIR / "build.stamp"
    digest = _digest(sources)
    if stamp.is_file() and stamp.read_text() == digest:
        return
    BUILD_DIR.mkdir(exist_ok=True)
    with open(BUILD_DIR / "build.log", "w", encoding="utf-8") as log:
        subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace",
             "--build-temp", str(BUILD_DIR / "temp")],
            cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, check=True,
            timeout=840)
    stamp.write_text(digest)


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def metadata(seed: int, workload: str, trace: bool) -> dict:
    import numpy as np

    from hamsim import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": _git_sha(),
        "source_sha256": _digest(p for p in (ROOT / "src").rglob("*")
                                 if p.suffix in (".py", ".pyx")),
        "kernel_backend": _kernels.BACKEND,
        "kernel_backends_built": _kernels.available_backends(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


@dataclass
class Solve:
    seconds: float
    wall: float
    cpu: float
    traced: bool
    root: int | None
    costs: object | None
    failures: list[str] = field(default_factory=list)
    warmup: bool = False


@contextmanager
def _timed(gauge):
    """Time the body against the gauge, or by wall clock without one."""
    from reference import Region

    if gauge is not None:
        with gauge.region() as reg:
            yield reg
        return
    reg = Region()
    w0, p0 = time.perf_counter(), time.process_time()
    yield reg
    reg.cpu = time.process_time() - p0
    reg.wall = reg.seconds = time.perf_counter() - w0


def _setup(wl, seed, tracer, gauge, times):
    """Build the inputs from the seed, adding a set-up's time to ``times``.

    With a gauge, set-up repeats for SETUP_BATCH_S of CPU and ``times``
    gets the mean over the batch.
    """
    with tracer.span("bench.setup") if tracer else nullcontext():
        with _timed(gauge) as reg:
            end = time.process_time() + (SETUP_BATCH_S if gauge else 0.0)
            count = 0
            while count == 0 or time.process_time() < end:
                with tracer.span("oracle.build") if tracer else nullcontext():
                    source = wl.build(seed)
                inputs = wl.prepare(source, seed)
                count += 1
    times.append(reg.seconds / count)
    return inputs


def _solve_loop(wl, seed, inputs, deadline, tracer, gauge, setup_times):
    """Solve until the next solve would end after ``deadline``.

    The first solve is a warm-up (imports, lazy caches): it is checked but
    its time is not reported.  A traced run alternates untraced and traced
    solves after it.  After each solve, set-up is timed again (see
    SETUP_SHARE); every solve uses the first inputs.
    """
    from hamsim.config import HamsimError

    solves: list[Solve] = []
    cycles: list[float] = []
    first = None
    setup_credit = 0.0
    # the warm-up, then one untraced and (traced run) one traced solve
    least = 3 if tracer else 2
    while (len(solves) < least
           or time.perf_counter() + statistics.median(cycles[1:]) <= deadline):
        cycle_start = time.perf_counter()
        traced = tracer is not None and len(solves) > 0 and len(solves) % 2 == 0
        out = err = None
        with tracer.span("bench.solve") if traced else nullcontext() as sp:
            with _timed(gauge) as reg:
                try:
                    out = wl.solve(inputs)
                except HamsimError as exc:
                    err = exc
        solve = Solve(reg.seconds, reg.wall, reg.cpu, traced,
                      sp.id if traced else None, None, warmup=not solves)
        if err is not None:
            solve.failures.append(f"{type(err).__name__}: {err}")
        else:
            solve.costs = wl.costs(inputs, out)
            solve.failures += wl.check(inputs, out)
            if first is None:
                first = solve.costs
            elif solve.costs.exact() != first.exact():
                solve.failures.append(
                    f"counts changed between solves: {solve.costs.exact()} "
                    f"after {first.exact()}")
        solves.append(solve)
        setup_credit += SETUP_SHARE * reg.wall
        for _ in range(SETUP_MAX_PER_SOLVE):
            if setup_credit <= 0:
                break
            t0 = time.perf_counter()
            _setup(wl, seed, tracer, gauge, setup_times)
            setup_credit -= time.perf_counter() - t0
        else:
            setup_credit = 0.0
        cycles.append(time.perf_counter() - cycle_start)
    return solves


def layer_metrics(tracer, solves: list[Solve], costs) -> dict[str, float]:
    """Per-layer figures of the median traced solve.

    Times named after a function are inclusive of what that function calls;
    ``<layer>.self_s`` are exclusive and add up to ``trace.solve_s``.  A
    layer the solve never enters but set-up does (kernel-wide packs in
    set-up) is reported per set-up, as the median over set-ups.
    """
    from spans import by_root, layer_self_times

    spans = tracer.spans
    traced = sorted((s for s in solves if s.traced), key=lambda s: s.seconds)
    plain = [s.seconds for s in solves if not (s.traced or s.warmup)]
    rep = traced[(len(traced) - 1) // 2]
    trees = by_root(spans)
    tree = trees[rep.root]
    setups = [root for root in trees if spans[root].name == "bench.setup"]

    def timed(name, attr="duration"):
        in_solve = sum(getattr(sp, attr) for sp in tree if sp.name == name)
        if in_solve or not setups:
            return in_solve
        return statistics.median(
            sum(getattr(sp, attr) for sp in trees[root] if sp.name == name)
            for root in setups)

    def count(key):
        in_solve = tracer.counts[rep.root].get(key, 0)
        if in_solve or not setups:
            return in_solve
        return statistics.median(tracer.counts[root].get(key, 0)
                                 for root in setups)

    lookups = count("coloring.lookups")
    extract_queries = timed("one_sparse.extract_table", "queries")
    apply_s = timed("kernels.apply_plan")
    bound = costs.bound or 0.0
    own = layer_self_times(tree)
    out = {
        "oracle.build_s": timed("oracle.build"),
        "oracle.to_dense_s": timed("oracle.to_dense"),
        "oracle.queries_total": spans[rep.root].queries,
        "oracle.base_queries": costs.base_queries,
        "coloring.verify_s": timed("coloring.verify_coloring"),
        "coloring.verify_queries": timed("coloring.verify_coloring",
                                         "queries"),
        "coloring.verify_max_queries_per_lookup":
            costs.max_queries_per_lookup,
        "coloring.lookups": lookups,
        "coloring.useful_ratio": (count("coloring.useful_lookups") / lookups
                                  if lookups else 0.0),
        "coloring.queries_per_lookup": (extract_queries / lookups
                                        if lookups else 0.0),
        "one_sparse.extract_s": timed("one_sparse.extract_table"),
        "one_sparse.pack_s": timed("one_sparse.pack_tables"),
        "one_sparse.packed_bytes": count("one_sparse.packed_bytes"),
        "kernels.apply_s": apply_s,
        "kernels.sweeps_per_s": (count("kernels.sweeps") / apply_s
                                 if apply_s else 0.0),
        "kernels.entry_updates_per_s": (count("kernels.entry_updates")
                                        / apply_s if apply_s else 0.0),
        "kernels.bytes_moved_computed":
            count("kernels.bytes_moved_computed"),
        "suzuki.k": costs.k,
        "suzuki.r": costs.r,
        "suzuki.plan_length": costs.plan_length,
        "suzuki.bound": bound,
        "suzuki.bound_slack": (costs.measured / bound
                               if bound and costs.measured is not None
                               else 0.0),
        "numerics.spectral_norm_s": timed("numerics.spectral_norm"),
        "numerics.expm_s": timed("numerics.hermitian_expm"),
        "numerics.trace_distance_s": timed("numerics.trace_distance"),
        "parity.bit_queries": costs.bit_queries,
        "parity.h_queries": costs.h_queries,
        "parity.lower_bound_ratio": costs.lower_bound_ratio,
        **{f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS},
        "trace.solve_s": spans[rep.root].duration,
        "trace.overhead_s": (spans[rep.root].duration
                             - statistics.median(plain)),
        "trace.spans_per_solve": len(tree),
    }
    return out


def run_workload(wl, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result object, lines for people, tracer).

    An untraced run times against a reference process on its CPU (see
    reference.py); a traced run reports wall times as measured.
    """
    from reference import Gauge
    from spans import Tracer

    tracer = Tracer() if trace else None
    start = time.perf_counter()
    gauge = None if trace else Gauge(wl.reference)
    if tracer is not None:
        tracer.instrument()
    setup_times: list[float] = []
    try:
        inputs = _setup(wl, seed, tracer, gauge, setup_times)
        if tracer is not None and wl.query_counter is not None:
            tracer.query_count = wl.query_counter(inputs)
        solves = _solve_loop(wl, seed, inputs, start + seconds, tracer, gauge,
                             setup_times)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
        if gauge is not None:
            gauge.close()

    failed = [s for s in solves if s.failures]
    good = [s.costs for s in solves if s.costs is not None]
    costs = good[0] if good else None
    timed = [s for s in solves if not (s.traced or s.warmup)]
    plain = [s.seconds for s in timed]
    lines = [f"{wl.name} seed={seed}: {len(solves)} solves in {wall:.1f} s, "
             f"{len(failed)} failed (fail_rate {len(failed) / len(solves):g})"]
    for s in failed[:5]:
        lines.append("  FAILED: " + "; ".join(s.failures))
    if costs is None:
        metrics = {}
    elif trace:
        metrics = layer_metrics(tracer, solves, costs)
    else:
        metrics = {
            "solve_s": statistics.median(plain),
            "setup_s": statistics.median(setup_times),
            "n_exp": costs.n_exp,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        lines += [
            f"  solve_s       {metrics['solve_s']:.4f} s  median of "
            f"{len(plain)} solves after a warm-up (min {min(plain):.4f}, "
            f"max {max(plain):.4f}); as measured, CPU "
            f"{statistics.median(s.cpu for s in timed):.4f} s and wall "
            f"{statistics.median(s.wall for s in timed):.4f} s beside the "
            f"reference",
            f"  setup_s       {metrics['setup_s']:.6f} s  median of "
            f"{len(setup_times)} batches of set-ups",
            f"  n_exp         {costs.n_exp}  exponentials per solve",
            f"  base_queries  {costs.base_queries}  base-oracle queries "
            f"per solve",
            f"  peak_rss_mb   {metrics['peak_rss_mb']:.1f} MiB",
            f"  fail_rate     {len(failed) / len(solves):g}  "
            f"({len(failed)} of {len(solves)})",
        ]
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": bool(solves) and not failed and costs is not None,
        "attempted": len(solves),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    return result, lines, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not ((ROOT / "setup.py").is_file() and (ROOT / "src" / "hamsim").is_dir()):
        print(f"error: no hamsim source tree under {ROOT}", file=sys.stderr)
        return 2
    # fixed before numpy loads, so every run uses the same BLAS threads
    threads = str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    try:
        build()
    except (OSError, subprocess.SubprocessError) as exc:
        print(f"error: building hamsim failed ({exc}); see "
              f"{BUILD_DIR / 'build.log'}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    meta = metadata(args.seed, args.workload, bool(args.trace))
    result, lines, tracer = run_workload(WORKLOADS[args.workload], args.seed,
                                         args.seconds, bool(args.trace))
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(str(path), meta)
        lines.append(f"  spans written to {path.relative_to(ROOT)}")
        lines += [f"  {name:40s} {m['value']:.6g} {m['unit']}"
                  for name, m in result["metrics"].items()]
    print("\n".join(lines))
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
