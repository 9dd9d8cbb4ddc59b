"""Smoke tests of the benchmark itself.

    python3 -m pytest bench -q

Each test runs ``run.py --smoke``: every workload once at tiny sizes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import WORKLOADS, at_nominal_speed  # noqa: E402
from tracing import PER_LAYER_METRICS  # noqa: E402
from worker import PROBE_EVERY_S, PROBE_NOMINAL_S, host_probe  # noqa: E402

#: The five end-to-end names the benchmark prints, with their units.
PRINTED = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ticks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _smoke(workload: str, trace: int, *extra: str) -> tuple[str, dict]:
    proc = _bench(
        "--workload", workload, "--seed", "5", "--seconds", "0.5",
        "--trace", str(trace), "--smoke", *extra,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
    assert _declared("per_layer") == dict(PER_LAYER_METRICS)


def test_host_probe_samples_while_work_runs_and_scales_to_nominal_speed():
    samples: list[float] = []
    with host_probe(samples):
        end = time.perf_counter() + 5 * PROBE_EVERY_S
        while time.perf_counter() < end:
            pass
    assert len(samples) >= 2 and all(s > 0 for s in samples)
    # A host running at half its nominal speed doubles both the op and the probe.
    assert at_nominal_speed(3.0, 2 * PROBE_NOMINAL_S) == pytest.approx(1.5)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    stdout, summary = _smoke(workload, 0)
    for name, unit in PRINTED.items():
        assert re.search(rf"^{name}\s+\S+\s+{re.escape(unit)}\b", stdout, re.M), name
    for name in ("setup_s", "op_p50_s", "ticks_per_s"):
        unit = re.escape(PRINTED[name])
        assert re.search(rf"^wall_clock\.{name}\s+\S+\s+{unit}\b", stdout, re.M), name
    assert {n: m["unit"] for n, m in summary["metrics"].items()} == _declared("end_to_end")
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    record = json.loads((ROOT / stdout.splitlines()[-2].split()[-1]).read_text(encoding="utf-8"))
    assert all(op["probes"] >= 1 and op["probe_s"] > 0 for op in record["ops"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_reports_every_per_layer_metric(workload):
    _, summary = _smoke(workload, 1)
    assert summary["correct"], summary
    assert {n: m["unit"] for n, m in summary["metrics"].items()} == dict(PER_LAYER_METRICS)
    assert summary["metrics"]["game_domain.run_session.calls"]["value"] >= 2


def test_a_failed_check_lands_in_error_rate():
    stdout, summary = _smoke("identify-100k", 0, "--break-warmup")
    assert not summary["correct"]
    assert summary["failed"] == summary["attempted"] == 1
    assert summary["metrics"]["success_rate"]["value"] == 0.0
    assert re.search(r"^error_rate\s+1\s+ratio", stdout, re.M)
    assert "warm-up op on the same seed produced different artifacts" in stdout


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "cli-20k", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
