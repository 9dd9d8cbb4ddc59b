"""One workload process of the benchmark; ``run.py`` starts it.

It imports the package and builds the workload's inputs (set-up), runs one
unmeasured warm-up operation on the first measured seed, then runs
operations until ``--seconds`` would be exceeded. With ``--trace 1`` every
operation runs twice, untraced and traced, on the same seed. While it sets
up and while each untraced operation runs, it samples the host's speed
(``host_probe``). The last line of stdout is one JSON object with the raw
measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext

import tracing

# Self times of a traced op's spans, its own unwrapped remainder included,
# must add up to its wall time; only float rounding may separate them.
_ACCOUNTING_TOLERANCE_S = 1e-6
#: Thread-pool sizes of BLAS and OpenMP runtimes; run.py caps them at nproc.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


#: How often the host's speed is sampled while the worker sets up or runs an op.
PROBE_EVERY_S = 0.03
#: One probe pass's time at the host's nominal speed, about its median on a
#: 2-vCPU x86-64 cloud sandbox under Python 3.11. Measured times are scaled to it.
PROBE_NOMINAL_S = 0.0002


def _probe_pass() -> float:
    """Time one pass of a fixed integer loop that uses no package code."""
    start = time.perf_counter()
    total = 0
    for i in range(3_000):
        total += i * i
    return time.perf_counter() - start


@contextmanager
def host_probe(samples: list[float]):
    """Append a probe pass's time to ``samples`` every PROBE_EVERY_S while inside.

    A shared host runs this process faster or slower by tens of percent for
    seconds to minutes at a time. A timer signal interrupts the work inside
    and times one probe pass, so the samples say how fast the host ran the
    process during that work. The passes cost under 1% of the time.
    """

    def on_alarm(signum, frame):
        samples.append(_probe_pass())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if not samples:  # the work ended before the first sample
            samples.append(_probe_pass())


def probe_time_s(samples: list[float]) -> float:
    """The probe pass time that matches the host's mean speed over the sampled work.

    The samples come at even intervals of time, and the work done in an
    interval is proportional to the speed, 1 / pass time. So the mean
    speed is the mean of 1 / pass time, and its pass time the harmonic
    mean. A pass stretched by a preemption counts for little.
    """
    return statistics.harmonic_mean(samples)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--break-warmup", action="store_true")
    return parser.parse_args(argv)


def _run_op(workload, seed: int, tracer=None, probes=None):
    """Run and inspect one operation: (wall_s, OpResult or None, failures).

    With ``probes`` (a list), the host's speed is sampled into it while the
    op runs; a traced op is not sampled.
    """
    start = time.perf_counter()
    try:
        if tracer is None:
            with host_probe(probes) if probes is not None else nullcontext():
                output = workload.run(seed)
        else:
            with tracer.installed(), tracer.span(tracing.OP_SPAN):
                output = workload.run(seed)
    except Exception as exc:  # an op that raises is a failed op, not a dead run
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, None, [f"raised {type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - start
    try:
        result = workload.inspect(output)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return wall, None, [f"inspecting the output raised {type(exc).__name__}: {exc}"]
    return wall, result, list(result.failures)


def _measured_op(workload, index: int, seed: int, tracer, warm) -> dict:
    """Measure op ``index``; a traced run also runs it traced on the same seed."""
    # A traced run alternates which pass goes first, so that order effects
    # cancel in trace.overhead_s.
    first_span = len(tracer.spans) if tracer else 0
    traced_first = tracer is not None and index % 2 == 1
    if traced_first:
        traced_pass = _run_op(workload, seed, tracer)
    probes: list[float] = []
    wall, result, failures = _run_op(workload, seed, probes=None if tracer else probes)
    op = {"index": index, "seed": seed, "wall_s": wall}
    if tracer is None:
        op.update(probe_s=probe_time_s(probes), probes=len(probes), probe_samples_s=probes)
    if index == 0 and (warm is None or result is None or warm.artifacts != result.artifacts):
        failures.append("the warm-up op on the same seed produced different artifacts")
    if tracer is not None:
        if not traced_first:
            traced_pass = _run_op(workload, seed, tracer)
        traced_wall, traced, traced_failures = traced_pass
        failures += [f"traced: {f}" for f in traced_failures]
        if result is not None and traced is not None and traced.artifacts != result.artifacts:
            failures.append("the traced op produced different artifacts")
        gap = tracing.unaccounted_s(tracer.spans[first_span:])
        if gap > _ACCOUNTING_TOLERANCE_S:
            failures.append(f"span self times miss the op's wall time by {gap!r} s")
        op["traced_wall_s"] = traced_wall
    op.update(
        ticks=result.ticks if result else 0,
        artifacts=result.artifacts if result else None,
        failures=failures,
    )
    return op


def _provenance() -> dict:
    import numpy
    import skilltransfer

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except Exception:  # show_config's layout differs across numpy versions
        blas = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "package_file": os.path.relpath(skilltransfer.__file__),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv: list[str]) -> int:
    args = _parse(argv)
    setup_probes: list[float] = []
    with host_probe(setup_probes):
        try:
            import workloads
        except ImportError as exc:
            print(f"error: cannot import the package: {exc}", file=sys.stderr)
            return 3
        if args.workload not in workloads.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        workload = workloads.WORKLOADS[args.workload](args.smoke)
    ready = time.monotonic()
    setup = {"ready": ready, "setup_probe_s": probe_time_s(setup_probes)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    def seed_of(index: int) -> int:
        return workloads.op_seed(args.workload, args.seed, index)

    warmup_seed = seed_of(-1) if args.break_warmup else seed_of(0)
    wall, warm, warm_failures = _run_op(workload, warmup_seed)
    warmup = {
        "seed": warmup_seed,
        "wall_s": wall,
        "artifacts": warm.artifacts if warm else None,
        "failures": warm_failures,
    }

    tracer = tracing.Tracer() if args.trace else None
    ops: list[dict] = []
    phase_start = time.perf_counter()
    while True:
        index = len(ops)
        ops.append(_measured_op(workload, index, seed_of(index), tracer, warm))
        elapsed = time.perf_counter() - phase_start
        if elapsed + elapsed / len(ops) > args.seconds:
            break
    phase_s = time.perf_counter() - phase_start

    report = {
        **setup,
        "phase_s": phase_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "warmup": warmup,
        "ops": ops,
        "provenance": _provenance(),
    }
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(
            tracer.spans, [op["traced_wall_s"] - op["wall_s"] for op in ops]
        )
        report["spans"] = [vars(span) for span in tracer.spans]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
