"""The byte contract and the README's claims, checked by the suite itself.

:data:`PINS` is the one table of pinned output bytes: each row runs one
command in-process on a config document and seed, and names the sha256
of one file of its run directory. A declared change to the random-stream
layout, or to a writer, updates the rows it moves here and nowhere else.

The other tests hold the README to the program (its example summary
lines, its one library example, its default document and its table of
the files each command writes), read the pinned 20k-tick logs and table
back through the package readers, and rerun commands under two string
hash seeds.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

import skilltransfer
from skilltransfer.behavior_data import (
    dataset_to_csv,
    read_dataset_csv,
    read_session_jsonl,
    to_dataset,
    validate_session,
)
from skilltransfer.cli import main
from skilltransfer.config import (
    ExperimentConfig,
    load_config,
    resolve_profiles,
    run_directory,
    serialize_config,
)
from skilltransfer.game_domain import profile_payload, simulate_pair, table1_profiles

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

COMMANDS = ("simulate", "dataset", "identify", "transfer", "report")

_100K = {"scenario": {"ticks_per_session": 100000}}
_20K = {"scenario": {"ticks_per_session": 20000}}
_RESTARTS = {"scenario": {"ticks_per_session": 2000}, "learning": {"restarts": 20}}

#: ``(config document, command, seed, file, sha256)``: the file that
#: ``command`` writes for the document at the seed has these bytes.
PINS = [
    (_100K, "identify", 1, "network.json",
     "4c2be37dc64767b40dd4555fc04c79f1896ea0888108bc7bb1e7e2d225bc2816"),
    (_100K, "identify", 2, "network.json",
     "f1f38fa09e8f0d7fb7eef0ab6b4c23bc629c9425bc30e807af7912bffa3b48eb"),
    (_100K, "identify", 3, "network.json",
     "b5f28a09e7730d96fcd24934081cbfa33a74621412289c353dc1cb879fc74347"),
    (_100K, "identify", 4, "network.json",
     "ef218548cf00d069b2e9a1a586a949920b968961414e2f13e722a00bda657543"),
    (_100K, "identify", 5, "network.json",
     "0d022c1d01b71b9893e9a54acc857d13f9b14f817e094a5182dce0abd183751b"),
    ({**_100K, "learning": {"max_parents": 6}}, "identify", 1, "network.json",
     "375f139c010ad8db05a0a25602aa84b97d26eec99313f136bfc12c2444baf53b"),
    # The smallest smoothing, 2**-1022.
    ({"scenario": {"ticks_per_session": 200}, "learning": {"smoothing": 2.2250738585072014e-308}},
     "identify", 0, "network.json",
     "bfbda2ec52c8f1c431f3d9b9597f5e6242341459495a6f43ca68f0a16b1135db"),
    (_RESTARTS, "transfer", 1, "trace.json",
     "e67820b7e0e4e02272f17c0fe440af8f1ab1edc07987102b67276e1f67375a6a"),
    (_RESTARTS, "transfer", 2, "trace.json",
     "bc652a69b1c7cfff6c5dd0af6f1d477bb17dca2072e24486733bc32c2bafdc5f"),
    (_RESTARTS, "transfer", 3, "trace.json",
     "c814a4ad4f7b3782eedeb7fe8d600cd5d608d94e87d4051bee9d22f1800a594f"),
    # Windows of 10 and up to 6 parents: families wider than the default.
    ({"scenario": {"ticks_per_session": 2000}, "dataset": {"window": 10},
      "learning": {"restarts": 20, "max_parents": 6}}, "transfer", 1, "trace.json",
     "57b91eb05c21de6efd68c2abdf862a9afe7d4dd58b480629616f4714a6281763"),
    (_20K, "simulate", 2, "expert.jsonl",
     "6177c940b83fb0a0c8d14ac246df8690b308541f076c846d4610d4dcf86a0922"),
    (_20K, "simulate", 2, "learner.jsonl",
     "bf8abd551dac34ec325a01eeb5434571f16a8d4ebb79e77a375f67907e4adec7"),
    (_20K, "dataset", 2, "dataset.csv",
     "31c50c68ce7a263bf6646e74fc28eb6568fde48c50d01bf7a7bfda659b53aa60"),
]


def _run(tmp_path: Path, document: dict, command: str, seed: int, *options,
         out: str | None = None) -> tuple[Path, str]:
    """Run ``command`` in-process on ``document``; its run directory and its stdout.

    The config file is written to ``tmp_path``; ``out`` defaults to
    ``tmp_path / "runs"``.
    """
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(document), encoding="utf-8")
    out = out or str(tmp_path / "runs")
    args = [command, "--config", config_path, "--seed", seed, "--out", out, *options]
    result = CliRunner().invoke(main, [str(a) for a in args])
    assert result.exit_code == 0, (args, result.stderr)
    config = replace(load_config(config_path), seed=seed, output_dir=out)
    return run_directory(config), result.stdout


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "document, command, seed, name, sha256", PINS,
    ids=[f"{command}-s{seed}-{name}-{sha256[:8]}" for _, command, seed, name, sha256 in PINS],
)
def test_the_pinned_output_files_keep_their_bytes(tmp_path, document, command, seed, name, sha256):
    run_dir, _ = _run(tmp_path, document, command, seed, "--quiet")
    assert _sha256(run_dir / name) == sha256


def test_the_built_in_pair_read_from_profile_files_writes_the_pinned_network(tmp_path):
    paths = {f"{role}_path": str(tmp_path / f"{role}.json") for role in ("expert", "learner")}
    for path, profile in zip(paths.values(), table1_profiles()):
        Path(path).write_text(json.dumps(profile_payload(profile)), encoding="utf-8")
    run_dir, _ = _run(tmp_path, {**_100K, "profiles": paths}, "identify", 1, "--quiet")
    (pinned,) = [row[4] for row in PINS if row[:4] == (_100K, "identify", 1, "network.json")]
    assert _sha256(run_dir / "network.json") == pinned


def test_the_pinned_20k_logs_and_dataset_read_back_through_the_package_readers(tmp_path):
    for command in ("simulate", "dataset"):
        run_dir, _ = _run(tmp_path, _20K, command, 2, "--quiet")
    logs = [read_session_jsonl(run_dir / name) for name in ("expert.jsonl", "learner.jsonl")]
    config = replace(load_config(tmp_path / "config.json"), seed=2)
    assert logs == list(simulate_pair(*resolve_profiles(config), config.scenario, config.seed, 0))
    assert not any(validate_session(log) for log in logs)
    rewindowed = to_dataset(logs, config.dataset.window)
    assert dataset_to_csv(rewindowed).encode() == (run_dir / "dataset.csv").read_bytes()
    assert read_dataset_csv(run_dir / "dataset.csv") == rewindowed


#: Runs the commands given as a JSON list of argument lists, in order.
_RUN_COMMANDS = """
import json, sys
from skilltransfer.cli import main
for args in json.loads(sys.argv[1]):
    main.main(args, standalone_mode=False)
"""


def test_run_directories_do_not_depend_on_the_string_hash_seed(tmp_path):
    runs = [(_100K, command) for command in ("simulate", "dataset", "identify")]
    runs.append(({"scenario": {"ticks_per_session": 2000}}, "transfer"))
    src = str(Path(skilltransfer.__file__).resolve().parents[1])
    processes = {}
    for hash_seed in (0, 1):
        cwd = tmp_path / f"hash-seed-{hash_seed}"
        cwd.mkdir()
        commands = []
        for index, (document, command) in enumerate(runs):
            (cwd / f"config-{index}.json").write_text(json.dumps(document), encoding="utf-8")
            commands.append([command, "--config", f"config-{index}.json", "--seed", "2",
                             "--out", "runs", "--quiet"])
        env = {**os.environ, "PYTHONHASHSEED": str(hash_seed),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        processes[hash_seed] = subprocess.Popen(
            [sys.executable, "-c", _RUN_COMMANDS, json.dumps(commands)],
            cwd=cwd, env=env, stderr=subprocess.PIPE, text=True,
        )
    trees = []
    for hash_seed, process in processes.items():
        _, stderr = process.communicate(timeout=300)
        assert process.returncode == 0, (hash_seed, stderr)
        root = tmp_path / f"hash-seed-{hash_seed}" / "runs"
        trees.append({p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()})
    # Six files of the 100k run directory, four of the transfer one.
    assert len(trees[0]) == 6 + 4

    assert trees[0] == trees[1]


# --- the README -----------------------------------------------------------------

def test_the_readme_example_lines_are_what_the_commands_print(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = README.splitlines()
    for command in ("simulate", "identify", "transfer"):
        _, stdout = _run(tmp_path, {"scenario": {"ticks_per_session": 300}}, command, 3,
                         out="runs")
        assert stdout.count("\n") == 1
        assert stdout.rstrip("\n") in lines, f"README.md lacks this {command} line: {stdout}"


def test_the_readme_library_example_runs(capsys):
    (example,) = re.findall(r"^```python\n(.*?)^```$", README, re.DOTALL | re.MULTILINE)
    exec(compile(example, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_the_readme_default_document_is_the_code_default():
    block = README.split("```json\n", 1)[1].split("\n```", 1)[0]
    assert json.loads(block) == json.loads(serialize_config(ExperimentConfig()))


def _readme_file_table() -> dict[str, set[str]]:
    """The files the README's table names for each command."""
    table = README.split("| file | producer | content |\n", 1)[1].split("\n\n", 1)[0]
    documented: dict[str, set[str]] = {command: set() for command in COMMANDS}
    for row in table.splitlines()[1:]:
        files, producer = row.split(" | ")[:2]
        for command in COMMANDS if producer == "every command" else [producer.strip("`")]:
            documented[command] |= set(re.findall("`([^`]+)`", files))
    return documented


def test_each_command_writes_exactly_the_files_the_readme_table_names(tmp_path):
    documented = _readme_file_table()
    for command in COMMANDS:
        options = ["--quiet"]
        if command == "report":
            options += ["--trace", *(tmp_path / "transfer").glob("*/trace.json")]
        run_dir, _ = _run(tmp_path, {"scenario": {"ticks_per_session": 300}}, command, 3,
                          *options, out=str(tmp_path / command))
        assert {p.name for p in run_dir.iterdir()} == documented[command], command
