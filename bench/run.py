"""Benchmark of the skilltransfer pipeline: one workload per invocation.

    python3 bench/run.py --workload identify-100k --seed 1 --seconds 30 --trace 0

Run from the repository root. Each workload runs in fresh worker processes
started one after another, never in parallel: several set-up-only launches
give ``setup_s``, then one worker warms up and measures. ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run. The full record (provenance, every op's seed, wall time,
artifact hashes and failed checks, and the spans of a traced run) goes to
``.bench_results/``. The last line of stdout is the JSON summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER_METRICS
from worker import PROBE_NOMINAL_S, THREAD_VARS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("identify-100k", "transfer-search", "cli-20k")
#: Set-up-only launches per measured run; the measuring worker adds one more sample.
SETUP_LAUNCHES = 8
#: The whole command must finish well inside three minutes.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and two set-up launches, for the benchmark's tests")
    parser.add_argument("--break-warmup", action="store_true",
                        help="smoke only: warm up on another seed so the warm-up check fails")
    args = parser.parse_args(argv)
    if args.break_warmup and not args.smoke:
        parser.error("--break-warmup needs --smoke")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _worker_env(cpus: int) -> dict[str, str]:
    """The worker's environment: the checkout's package, capped thread pools, local temp."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        try:
            wanted = int(env[var])
        except (KeyError, ValueError):
            wanted = cpus
        env[var] = str(min(max(wanted, 1), cpus))
    tmp = ROOT / ".bench_tmp"
    tmp.mkdir(exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def _launch(args: argparse.Namespace, env: dict[str, str], deadline: float, *extra: str) -> dict:
    """Start one worker, wait for it, and return its report with ``setup_s`` added."""
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, *extra]
    if args.smoke:
        command.append("--smoke")
    launched = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish before the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no report")
    report = json.loads(lines[-1])
    report["setup_wall_s"] = report["ready"] - launched
    report["setup_s"] = at_nominal_speed(report["setup_wall_s"], report["setup_probe_s"])
    return report


def _git_sha() -> str | None:
    """HEAD's commit read from the checkout's own ``.git``, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_sha256(top: Path) -> str:
    """One hash over every file's path and bytes, so a non-git checkout is identified too."""
    digest = hashlib.sha256()
    for path in sorted(p for p in top.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(top)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def at_nominal_speed(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while probe passes took ``probe_s``, at the host's nominal speed.

    A shared host runs the worker faster or slower by tens of percent for
    seconds to minutes at a time. The worker times a fixed probe loop while
    it sets up and while each op runs (``worker.host_probe``); scaling by it
    leaves the program's own speed.
    """
    return seconds * PROBE_NOMINAL_S / probe_s


def op_stats(ops: list[dict], wall_s) -> tuple[float, float]:
    """Median op time and median per-op player-ticks per second, timing each op by ``wall_s``."""
    # A failed op delivers nothing.
    rates = [0.0 if op["failures"] else op["ticks"] / wall_s(op) for op in ops]
    return statistics.median(wall_s(op) for op in ops), statistics.median(rates)


def _end_to_end(report: dict, launches: list[dict], attempted: int, failed: int) -> dict:
    op_p50_s, ticks_per_s = op_stats(
        report["ops"], lambda op: at_nominal_speed(op["wall_s"], op["probe_s"])
    )
    values = {
        "setup_s": (statistics.median(launch["setup_s"] for launch in launches), "s"),
        "op_p50_s": (op_p50_s, "s"),
        "ticks_per_s": (ticks_per_s, "1/s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        # The share of ops that passed; error_rate = 1 - success_rate.
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _wall_clock(report: dict, launches: list[dict]) -> dict:
    """The time metrics as the clock read them, before scaling to the nominal speed."""
    op_p50_s, ticks_per_s = op_stats(report["ops"], lambda op: op["wall_s"])
    values = {
        "setup_s": (statistics.median(launch["setup_wall_s"] for launch in launches), "s"),
        "op_p50_s": (op_p50_s, "s"),
        "ticks_per_s": (ticks_per_s, "1/s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _per_layer(report: dict) -> dict:
    return {
        name: {"value": report["layers"][name], "unit": unit} for name, unit in PER_LAYER_METRICS
    }


def _summary_lines(
    args, metrics: dict, wall_clock: dict, setup_n: int, attempted: int, failed: int
) -> list[str]:
    notes = {
        "setup_s": f"median of {setup_n} launches",
        "op_p50_s": f"median of {attempted} ops",
    }
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}"]
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name:<44} {metric['value']:<14.6g} {metric['unit']}{note}")
    for name, metric in wall_clock.items():
        lines.append(
            f"{'wall_clock.' + name:<44} {metric['value']:<14.6g} {metric['unit']}"
            "  (unscaled)"
        )
    lines.append(
        f"{'error_rate':<44} {failed / attempted:<14.6g} ratio"
        f"  ({failed} failed of {attempted} attempted)"
    )
    return lines


def run(args: argparse.Namespace) -> dict:
    if not (ROOT / "src" / "skilltransfer" / "__init__.py").is_file():
        raise BenchError(f"no package source under {ROOT / 'src'}; run from a full checkout")
    deadline = time.monotonic() + DEADLINE_S
    cpus = nproc()
    env = _worker_env(cpus)
    launches = []
    if not args.trace:
        for _ in range(2 if args.smoke else SETUP_LAUNCHES):
            launches.append(_launch(args, env, deadline, "--setup-only"))
    extra = ["--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.break_warmup:
        extra.append("--break-warmup")
    report = _launch(args, env, deadline, *extra)
    launches.append(report)

    attempted = len(report["ops"])
    failed = sum(1 for op in report["ops"] if op["failures"])
    if args.trace:
        metrics, wall_clock = _per_layer(report), {}
    else:
        metrics = _end_to_end(report, launches, attempted, failed)
        wall_clock = _wall_clock(report, launches)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "provenance": {
            **report["provenance"],
            "nproc": cpus,
            "platform": platform.platform(),
            "git_sha": _git_sha(),
            "src_sha256": _tree_sha256(ROOT / "src"),
            "bench_sha256": _tree_sha256(BENCH),
        },
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "wall_clock": wall_clock,
        "setup_samples_s": [launch["setup_s"] for launch in launches],
        "setup_wall_samples_s": [launch["setup_wall_s"] for launch in launches],
        "phase_s": report["phase_s"],
        "warmup": report["warmup"],
        "ops": report["ops"],
    }
    if args.trace:
        record["spans"] = report["spans"]
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for line in _summary_lines(args, metrics, wall_clock, len(launches), attempted, failed):
        print(line)
    for op in report["ops"]:
        for failure in op["failures"]:
            print(f"op {op['index']} (seed {op['seed']}) failed: {failure}")
    print(f"results {(results / name).relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str]) -> int:
    args = _parse(argv)
    # Turn SIGTERM into SystemExit so the running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        summary = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
