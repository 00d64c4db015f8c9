"""Benchmark of loccxform: one workload per run, checked outputs, one JSON
result line.

    python3 bench/run.py --workload pairs-small --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  With ``--trace 0`` the run measures the end-to-end
metrics with tracing off; with ``--trace 1`` it records spans around each
call into the package, writes them to ``bench/out/`` and reports the
per-layer metrics.  The last line of standard output is the result object.
See ``bench/README.md`` for the workloads and what each metric should move.
"""

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

# One BLAS thread: the load is one closed-loop client, and the machine the
# benchmark was defined on has two cores.  Set before numpy is first
# imported; child processes inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

from check import Tally  # noqa: E402
from spans import Tracer, median_or_zero, no_span  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

# Set-up is repeated in this many processes in all (this one included) and
# the median is reported.
SETUP_REPEATS = 3

# Op times are CPU time: of this process for in-process workloads, plus the
# child's for the CLI workload.  The ops are single-threaded computations
# with no I/O wait, so on an idle machine CPU time equals wall time.  Unlike
# wall time it leaves out time the hypervisor gives to other guests: on the
# machine the benchmark was defined on they took 5-38% of the processors,
# and over five seeds of the CLI workload the interquartile range of the
# wall-time p50 reached 45% of its median, against under 4% for CPU time.
END_TO_END = {
    "ops_per_cpu_s": "1/s",
    "op_cpu_p50_ms": "ms",
    "op_cpu_p90_ms": "ms",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics read from span self times (median per call, µs).
SPAN_METRICS = {
    "spectra.decode_us": "spectra.decode",
    "spectra.svd_us": "spectra.svd",
    "spectra.construct_us": "spectra.construct",
    "spectra.tensor_us": "spectra.tensor",
    "majorization.majorizes_us": "majorization.majorizes",
    "majorization.conclusive_us": "majorization.conclusive",
    "faithful.staircase_us": "faithful.staircase",
    "faithful.optimal_state_us": "faithful.optimal_state",
    "faithful.report_us": "faithful.report",
    "applications.nonlocal_us": "applications.nonlocal",
    "applications.catalysis_us": "applications.catalysis",
    "applications.teleport_us": "applications.teleport",
    "oracle.grid_us": "oracle.grid",
    "oracle.mc_us": "oracle.mc",
    "oracle.ensemble_us": "oracle.ensemble",
    "op.self_us": "op",
}

PER_LAYER = {
    **{name: "us" for name in SPAN_METRICS},
    "faithful.residual_us": "us",
    "faithful.levels": "count",
    "faithful.blocks": "count",
    "faithful.worst_levels": "count",
    "faithful.worst_blocks": "count",
    "applications.reports_per_op": "count",
    "oracle.grid_points": "count",
    "oracle.grid_cache_hit_ratio": "ratio",
    "oracle.mc_trials_per_s": "1/s",
    "oracle.ensembles_per_s": "1/s",
    "cli.interpreter_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.import_ms": "ms",
    "cli.process_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="set up, print the set-up time and exit"
    )
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def nearest_rank(sorted_values: list, q: float):
    """The q-quantile by nearest rank, and how many samples lie beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def cycle_throughput(times_ns: list, cycle: int) -> float:
    """Median over complete op cycles of ops / time spent inside them.

    A cycle holds every kind of op once, so each cycle is the workload's
    exact mix; the median keeps one slow cycle from swinging the result the
    way a mean over the run would.
    """
    rates = [
        cycle / (sum(times_ns[i : i + cycle]) / 1e9)
        for i in range(0, len(times_ns) - cycle + 1, cycle)
    ]
    return statistics.median(rates) if rates else len(times_ns) / (sum(times_ns) / 1e9)


def attempt(fn):
    """Run one op: (output or None, errors or None)."""
    try:
        return fn(), None
    except Exception as exc:  # a failed op is counted, the loop goes on
        return None, [f"{type(exc).__name__}: {exc}"]


@contextlib.contextmanager
def counting_application_reports(calls: list):
    """Count the reports ``loccxform.applications`` makes, by wrapping the
    name it calls them through; restored on exit."""
    import loccxform.applications as apps

    real = apps.optimal_fidelity

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    apps.optimal_fidelity = counted
    try:
        yield
    finally:
        apps.optimal_fidelity = real


def cpu_ns(children: bool) -> int:
    """CPU time used so far by this process, plus its waited-for children's
    when ``children`` is true."""
    if not children:
        return time.process_time_ns()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + round((usage.ru_utime + usage.ru_stime) * 1e9)


def measure(wl, seconds: float, tally):
    """Closed loop, tracing off: per-op CPU and wall times in ns."""
    cpu, wall = [], []
    ops = wl.ops()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        op = next(ops)
        w0, c0 = time.perf_counter_ns(), cpu_ns(wl.CHILDREN)
        out, errors = attempt(lambda: wl.run(op, no_span))
        cpu.append(cpu_ns(wl.CHILDREN) - c0)
        wall.append(time.perf_counter_ns() - w0)
        tally.add(errors if errors is not None else wl.check(op, out))
    return cpu, wall


def measure_traced(wl, seconds: float, tally, tracer):
    """Closed loop with spans.  Each op also runs once untraced, first on
    every other op, for the tracing overhead; probes follow the op."""
    counts = defaultdict(list)
    plain_ns = traced_ns = 0
    ops = wl.ops()
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline:
        op = next(ops)
        tracer.op_id = k
        reports = [0]
        for traced in (k % 2 == 1, k % 2 == 0):
            t0 = tracer.clock()
            if traced:
                with counting_application_reports(reports), tracer.span("op"):
                    out, errors = attempt(lambda: wl.run(op, tracer.span))
                traced_ns += tracer.clock() - t0
            else:
                attempt(lambda: wl.run(op, no_span))
                plain_ns += tracer.clock() - t0
        if errors is None:
            errors = wl.check(op, out)
            with tracer.span("probe"):
                _, probe_errors = attempt(lambda: wl.probe(op, out, tracer.span, counts))
            errors = probe_errors or errors
        counts["applications.reports_per_op"].append(reports[0])
        tally.add(errors)
        k += 1
    return counts, traced_ns / plain_ns if plain_ns else 0.0


def per_layer_metrics(tracer, counts, overhead: float) -> dict:
    selfs = tracer.self_times_us()
    m = {name: median_or_zero(selfs.get(span, [])) for name, span in SPAN_METRICS.items()}
    if m["faithful.report_us"] and m["faithful.staircase_us"]:
        # Derived: what the report spends outside the scan and the two
        # convertibility tests (padding, validation, assembly).
        m["faithful.residual_us"] = (
            m["faithful.report_us"]
            - m["faithful.staircase_us"]
            - m["majorization.majorizes_us"]
            - m["majorization.conclusive_us"]
        )
    else:
        m["faithful.residual_us"] = 0.0
    for name in (
        "faithful.levels",
        "faithful.blocks",
        "faithful.worst_levels",
        "faithful.worst_blocks",
        "oracle.grid_points",
    ):
        m[name] = statistics.median_low(counts[name]) if counts.get(name) else 0
    for name in ("cli.import_numpy_ms", "cli.import_ms"):
        m[name] = median_or_zero(counts.get(name, []))
    reports = counts.get("applications.reports_per_op", [])
    m["applications.reports_per_op"] = statistics.fmean(reports) if reports else 0.0
    hits = counts.get("oracle.grid_hit", [])
    m["oracle.grid_cache_hit_ratio"] = statistics.fmean(hits) if hits else 0.0

    import workloads

    trials, ensembles = workloads.VerifyOracles.TRIALS, workloads.VerifyOracles.ENSEMBLES
    mc_us, ens_us = m["oracle.mc_us"], m["oracle.ensemble_us"]
    m["oracle.mc_trials_per_s"] = trials / (mc_us / 1e6) if mc_us else 0.0
    m["oracle.ensembles_per_s"] = ensembles / (ens_us / 1e6) if ens_us else 0.0
    m["cli.interpreter_ms"] = median_or_zero(selfs.get("cli.interpreter", [])) / 1e3
    m["cli.process_ms"] = median_or_zero(selfs.get("cli.process", [])) / 1e3
    m["trace.overhead_ratio"] = overhead
    return m


def setup_in_children(args) -> list[float]:
    """Set-up times of fresh processes doing only this workload's set-up."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--setup-only",
            ],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=120,
            check=True,
        )
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def machine_line() -> str:
    import numpy

    nproc = len(os.sched_getaffinity(0))
    threads = len(os.listdir("/proc/self/task"))
    return (
        f"machine: nproc={nproc} python={platform.python_version()}"
        f" numpy={numpy.__version__} blas_threads={BLAS_THREADS}"
        f" process_threads={threads} ({platform.machine()}, {platform.system()})"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not (SRC / "loccxform" / "__init__.py").is_file():
        return fail(f"no package source at {SRC / 'loccxform'}; run from a source checkout")
    if BLAS_THREADS > len(os.sched_getaffinity(0)):
        return fail("more BLAS threads than processors")
    sys.path.insert(0, str(SRC))
    import loccxform

    if Path(loccxform.__file__).resolve().parent != SRC / "loccxform":
        return fail(f"imported loccxform from {loccxform.__file__}, not from {SRC}")

    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    wl.warm_up()
    # CPU time since the process started, interpreter start-up included.
    setup_s = cpu_ns(children=True) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(machine_line())
    tally = Tally()
    gc.collect()
    if args.trace:
        tracer = Tracer(lambda: cpu_ns(wl.CHILDREN))
        counts, overhead = measure_traced(wl, args.seconds, tally, tracer)
        values = per_layer_metrics(tracer, counts, overhead)
        units = PER_LAYER
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(path)
        print(f"trace: {len(tracer.name)} spans written to {path.relative_to(ROOT)}")
    else:
        cpu, wall = measure(wl, args.seconds, tally)
        # Read before the set-up children run, so that RUSAGE_CHILDREN
        # covers only the processes the workload itself started.
        usage = resource.RUSAGE_CHILDREN if wl.CHILDREN else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
        p90, beyond = nearest_rank(sorted(cpu), 0.9)
        values = {
            "ops_per_cpu_s": cycle_throughput(cpu, len(wl.KINDS)),
            "op_cpu_p50_ms": statistics.median(cpu) / 1e6,
            "op_cpu_p90_ms": p90 / 1e6,
            "success_rate": 1.0 - tally.error_rate,
            "setup_s": statistics.median([setup_s] + setup_in_children(args)),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        print(
            f"{args.workload} seed {args.seed}: {len(cpu)} ops"
            f" in {len(cpu) // len(wl.KINDS)} complete cycles,"
            f" error_rate {tally.error_rate:g} ({tally.failed}/{tally.attempted}),"
            f" p90 with {beyond} samples beyond it;"
            f" wall p50 {statistics.median(wall) / 1e6:.4g} ms,"
            f" p90 {nearest_rank(sorted(wall), 0.9)[0] / 1e6:.4g} ms"
        )
    for error in tally.first_errors:
        print(f"failed op: {error}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
