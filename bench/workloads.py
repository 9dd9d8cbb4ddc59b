"""The benchmark's three workloads.

Each workload builds its inputs once (that is part of set-up), then runs
one operation per seed. ``run`` is the timed part; ``inspect`` turns the
operation's output into artifact hashes and check verdicts outside the
timed window. Package functions are always looked up through their module
at call time, so the tracer's wrappers see these calls too.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import skilltransfer
from skilltransfer import bayes, behavior_data, transfer_loop


@dataclass
class OpResult:
    """What one operation delivered and whether it is correct."""

    ticks: int  # player-ticks: 2 * ticks_per_session per simulated session pair
    artifacts: dict[str, str]  # artifact name -> SHA-256 of its bytes
    failures: list[str]  # one line per failed output check; empty when correct


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def op_seed(workload: str, seed: int, index: int) -> int:
    """Seed of operation ``index`` of a run with workload seed ``seed``."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


class IdentifyWorkload:
    """One identification round at 100k ticks per player, default config."""

    name = "identify-100k"
    min_accuracy = 0.80

    def __init__(self, smoke: bool) -> None:
        self.expert, self.learner = skilltransfer.table1_profiles()
        self.scenario = replace(
            skilltransfer.default_scenario(),
            ticks_per_session=10_000 if smoke else 100_000,
        )

    def run(self, seed: int):
        return skilltransfer.run_identification(
            self.expert, self.learner, self.scenario, seed=seed
        )

    def inspect(self, result) -> OpResult:
        failures = []
        if not result.accuracy >= self.min_accuracy:
            failures.append(
                f"held-out accuracy {result.accuracy!r} is below {self.min_accuracy}"
            )
        if not result.attributes:
            failures.append("the class node has an empty Markov blanket")
        return OpResult(
            ticks=2 * self.scenario.ticks_per_session,
            artifacts={"network.json": sha256(bayes.bayesnet_to_json(result.network))},
            failures=failures,
        )


class TransferWorkload:
    """The full transfer loop at 2k ticks with a 20-restart structure search."""

    name = "transfer-search"

    def __init__(self, smoke: bool) -> None:
        self.expert, self.learner = skilltransfer.table1_profiles()
        self.config = skilltransfer.TransferConfig(
            scenario=skilltransfer.default_scenario(),
            learn=skilltransfer.LearnConfig(restarts=2 if smoke else 20),
        )

    def run(self, seed: int):
        return skilltransfer.run_transfer(self.expert, self.learner, self.config, seed)

    def inspect(self, trace) -> OpResult:
        failures = []
        if trace.terminal_reason is not skilltransfer.TerminalReason.THRESHOLD_REACHED:
            failures.append(f"loop ended with {trace.terminal_reason.value}")
        for before, after in zip(trace.iterations, trace.iterations[1:]):
            if before.nudged_keys and not after.divergence < before.divergence:
                failures.append(
                    f"divergence did not fall after the nudge of iteration "
                    f"{before.iteration}: {before.divergence!r} -> {after.divergence!r}"
                )
        return OpResult(
            ticks=2 * self.config.scenario.ticks_per_session * len(trace.iterations),
            artifacts={"trace.json": sha256(transfer_loop.trace_to_json(trace))},
            failures=failures,
        )


#: The CLI commands one cli-20k operation runs, in order.
CLI_COMMANDS = ("simulate", "dataset", "identify")
_CONFIG_NAME = "bench-config.json"


@dataclass
class CliOutput:
    workdir: tempfile.TemporaryDirectory
    exit_codes: dict[str, int]
    run_dir: Path
    violations: list
    dataset: behavior_data.DataSet
    network: bayes.BayesNet
    rewindowed: behavior_data.DataSet


def _invoke(main, args: list[str]) -> int:
    """Run one CLI command in this process; return its exit code."""
    try:
        main.main(args=args, prog_name="skilltransfer", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


class CliWorkload:
    """simulate, dataset and identify at 20k ticks, then the run directory read back."""

    name = "cli-20k"

    def __init__(self, smoke: bool) -> None:
        # Imported here so that only this workload's set-up pays for click.
        from skilltransfer import cli

        self.main = cli.main
        ticks = 2_000 if smoke else 20_000
        self.config_text = json.dumps({"scenario": {"ticks_per_session": ticks}})
        self.config = skilltransfer.parse_config(self.config_text)

    def run(self, seed: int) -> CliOutput:
        # A relative --out inside a fresh directory keeps every output byte,
        # config.json and identify.txt included, independent of where it runs.
        workdir = tempfile.TemporaryDirectory(prefix="cli-op-")
        cwd = os.getcwd()
        try:
            os.chdir(workdir.name)
            Path(_CONFIG_NAME).write_text(self.config_text, encoding="utf-8")
            common = ["--config", _CONFIG_NAME, "--seed", str(seed), "--out", "runs", "--quiet"]
            codes = {command: _invoke(self.main, [command, *common]) for command in CLI_COMMANDS}
            (run_dir,) = Path("runs").iterdir()
            run_dir = run_dir.resolve()
            logs = [
                behavior_data.read_session_jsonl(run_dir / name)
                for name in ("expert.jsonl", "learner.jsonl")
            ]
            return CliOutput(
                workdir=workdir,
                exit_codes=codes,
                run_dir=run_dir,
                violations=[v for log in logs for v in behavior_data.validate_session(log)],
                dataset=behavior_data.read_dataset_csv(run_dir / "dataset.csv"),
                network=bayes.read_bayesnet(run_dir / "network.json"),
                rewindowed=skilltransfer.to_dataset(logs, self.config.dataset.window),
            )
        except BaseException:
            workdir.cleanup()
            raise
        finally:
            os.chdir(cwd)

    def inspect(self, out: CliOutput) -> OpResult:
        try:
            failures = [
                f"{command} exited {code}" for command, code in out.exit_codes.items() if code
            ]
            if out.violations:
                failures.append(f"read-back logs break {len(out.violations)} validation rule(s)")
            csv_bytes = (out.run_dir / "dataset.csv").read_bytes()
            if behavior_data.dataset_to_csv(out.rewindowed).encode("utf-8") != csv_bytes:
                failures.append("re-windowing the read-back logs does not reproduce dataset.csv")
            if out.dataset.rows != out.rewindowed.rows:
                failures.append("read_dataset_csv rows differ from the re-windowed rows")
            network_text = (out.run_dir / "network.json").read_text(encoding="utf-8")
            if bayes.bayesnet_to_json(out.network) != network_text:
                failures.append("network.json does not round-trip through read_bayesnet")
            artifacts = {
                path.name: sha256(path.read_bytes()) for path in sorted(out.run_dir.iterdir())
            }
        finally:
            out.workdir.cleanup()
        return OpResult(
            ticks=2 * self.config.scenario.ticks_per_session * len(CLI_COMMANDS),
            artifacts=artifacts,
            failures=failures,
        )


WORKLOADS = {w.name: w for w in (IdentifyWorkload, TransferWorkload, CliWorkload)}
