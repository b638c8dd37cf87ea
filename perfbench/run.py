"""Benchmark for flipflow: one named workload, closed loop, one process.

    python3 perfbench/run.py --workload transference --seed 1 --seconds 30 --trace 0

Runs from the root of a flipflow checkout and imports the package from
its `src` directory.  Set-up (importing flipflow, building the rules and
their pair coefficients, and the first round's start graphons) is timed
several times and `setup_s` is the median.  Then whole rounds of
the workload run back to back, one call at a time, until `--seconds`
have passed and at least MIN_OPS operations were made, so that the 90th
percentile of their latencies has ten samples beyond it.  Every output
is checked after its round; a failed check fails its operation.

With `--trace 0` the end-to-end metrics are printed.  With `--trace 1`
every round runs twice on the same inputs, once plain and once with the
layer boundaries wrapped (see spans.py), in alternating order; the
per-layer metrics come from the wrapped runs and `trace.overhead_pct`
compares the two.  The last line of standard output is the result as
JSON; a record of the run and any spans go to perfbench/out/.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark starts no threads of its own, and peak
# memory depends on the thread count.  Must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 3  # at least; cheap set-ups repeat up to 15 times or SETUP_SECONDS
SETUP_SECONDS = 1.0
MIN_OPS = 100


def _run_round(ops, tracer=None):
    """Run every operation in order; return (elapsed, [(latency, output, error)])."""
    results = []
    start = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            if tracer is None:
                out = op.call()
            else:
                out = tracer.call("op", op.label, op.call)
            err = None
        except Exception:  # an operation that raises is a failed operation
            out, err = None, traceback.format_exc()
        results.append((perf_counter() - t0, out, err))
    return perf_counter() - start, results


def _check_round(ops, results) -> tuple[int, int]:
    """Return (failed operations, failed checks) and report each to stderr."""
    failed = bad = 0
    for op, (_, out, err) in zip(ops, results):
        if err is None:
            try:
                op.check(out)
                continue
            except checks.CheckError as exc:
                bad += 1
                err = f"check failed: {exc}"
        failed += 1
        print(f"{op.label}: {err}", file=sys.stderr)
    return failed, bad


def _blas() -> dict:
    info = {"threads_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    # the thread count OpenBLAS itself reports, if it is loaded
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _record(args, attempted, failed, rounds, metrics, setup_timings) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "setup_timings_ms": setup_timings,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "flipflow" / "__init__.py").is_file():
        print(f"error: no flipflow sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return _measure(args, workload, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, workdir: str) -> int:
    setup_times, timings, ctx = [], [], None
    while len(setup_times) < SETUP_REPEATS or (
            sum(setup_times) < SETUP_SECONDS and len(setup_times) < 5 * SETUP_REPEATS):
        ctx = ops = None  # let the previous set-up's rules go first
        t0 = perf_counter()
        ctx = workloads.setup(workload.rules, workdir)
        ops = workload.make_round(ctx, args.seed, 0)
        setup_times.append(perf_counter() - t0)
        timings.append(ctx.timings)
    setup_timings = {key: statistics.median(t[key] for t in timings) for key in timings[0]}
    workloads.prepare_checks(ctx)

    tracer = spans.Tracer() if args.trace else None
    walls, plain_walls, latencies = [], [], []
    attempted = failed = bad = rounds = 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < args.seconds or attempted < MIN_OPS:
        if rounds > 0:
            ops = workload.make_round(ctx, args.seed, rounds)
        passes = [False] if tracer is None else ([False, True] if rounds % 2 == 0 else [True, False])
        for traced in passes:
            if traced:
                tracer.install(ctx.ff, ctx.cli)
            try:
                elapsed, results = _run_round(ops, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            (walls if traced or tracer is None else plain_walls).append(elapsed)
            latencies.extend(lat for lat, _, _ in results)
            f, b = _check_round(ops, results)
            attempted += len(ops)
            failed += f
            bad += b
        rounds += 1

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.fmean(walls), "s"),
            "op_ms_p50": (1e3 * float(np.percentile(latencies, 50)), "ms"),
            "op_ms_p90": (1e3 * float(np.percentile(latencies, 90)), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        overhead = 100.0 * (sum(walls) / sum(plain_walls) - 1.0)
        op_labels = {i: s[spans.TAG] for i, s in enumerate(tracer.spans) if s[spans.NAME] == "op"}
        metrics = spans.layer_metrics(tracer.spans, op_labels, rounds, setup_timings, overhead)
        spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "tag", "start", "end", "parent", "root", "count", "extra"],
                       "spans": tracer.spans}, fh)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    record = _record(args, attempted, failed, rounds, metrics, setup_timings)
    with open(OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": bad == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
