"""Command-line interface.

Five subcommands cover the pipeline: ``simulate`` writes raw session
logs, ``dataset`` the aggregated classification table, ``identify`` the
learned network plus its held-out accuracy, ``transfer`` the full loop
trace and behavior curves, and ``report`` a human-readable summary of a
trace. Outputs land in one directory per run named by the config hash
and seed, so identical invocations overwrite themselves with identical
bytes.

Exit codes: 0 success, 2 configuration error, 3 malformed trace,
4 unexpected anomaly. Summary lines are stable ``key=value`` pairs on
stdout (``report`` prints its text instead); errors go to stderr with
stable one-line prefixes.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import replace
from functools import partial, wraps
from pathlib import Path

import click

from . import __version__
from .behavior_data import to_dataset, train_size, write_dataset_csv, write_session_jsonl
from .config import (
    ExperimentConfig,
    load_config,
    resolve_profiles,
    run_directory,
    serialize_config,
)
from .errors import MALFORMED_DOCUMENT, ConfigError, DataValidationError
from .game_domain import simulate_pair
from .transfer_loop import (
    TransferConfig,
    TransferTrace,
    curves_to_csv,
    run_identification,
    run_transfer,
    trace_from_json,
    trace_to_csv,
    trace_to_json,
)
from .bayes import write_bayesnet

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_ANOMALY = 4


def _fail(prefix: str, message: str, code: int) -> None:
    click.echo(f"error: {prefix}: {message}", err=True)
    sys.exit(code)


def _make_run_dir(run_dir: Path) -> None:
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # a ValueError: the path holds a NUL character
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ConfigError(f"output_dir: cannot create {run_dir}: {reason}") from exc


def _write(path: Path, content: str | Callable[[Path], None]) -> None:
    """Write ``content`` to ``path``: UTF-8 text, or a writer called with the path.

    An ``OSError``, such as a directory of that name, is a configuration error.
    """
    try:
        if isinstance(content, str):
            path.write_text(content, encoding="utf-8")
        else:
            content(path)
    except OSError as exc:
        raise ConfigError(f"output_dir: cannot write {path}: {exc.strerror or exc}") from exc


def _require_split_rows(config: ExperimentConfig) -> None:
    """Refuse a config whose sessions cannot fill a train/test split per player."""
    ticks = config.scenario.ticks_per_session
    window = config.dataset.window
    rows = ticks // window
    train = train_size(rows, config.dataset.split_ratio)
    if rows < 2 or train < 2 or rows - train < 1:
        raise ConfigError(
            "scenario.ticks_per_session, dataset.window, dataset.split_ratio: "
            f"{ticks} ticks in windows of {window} make {rows} row(s) per player, "
            f"split {train} train / {rows - train} test; at least 2 train rows "
            "and 1 test row per player are needed"
        )


def _simulate_sessions(config: ExperimentConfig):
    return simulate_pair(*resolve_profiles(config), config.scenario, config.seed, 0)


@click.group()
@click.version_option(version=__version__, prog_name="skilltransfer")
def main() -> None:
    """Behavior identification and transfer between two simulated players."""


#: What a command returns: its files by name, each text or a writer called
#: with the path, and the summary it prints, newline included.
Output = tuple[dict[str, str | Callable[[Path], None]], str]


def _command(fn: Callable[..., Output]):
    """Register ``fn(config, run_dir, **options)`` as a subcommand with the shared options.

    The runner reads the config with the ``--seed`` and ``--out`` overrides and
    calls ``fn``. Only then does it make the run directory and write
    ``config.json`` and the returned files, in order; it prints the summary
    unless ``--quiet``. Errors map to exit codes.
    """

    @wraps(fn)
    def guarded(config_path: str, seed: int | None, out: str | None, quiet: bool, **options):
        try:
            config = load_config(config_path)
            overrides = {"seed": seed, "output_dir": out}
            try:
                config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
            except ValueError as exc:  # ExperimentConfig checks the --seed override
                raise ConfigError(str(exc)) from exc
            run_dir = run_directory(config)
            files, summary = fn(config, run_dir, **options)
            _make_run_dir(run_dir)
            for name, content in {"config.json": serialize_config(config), **files}.items():
                _write(run_dir / name, content)
            if not quiet:
                click.echo(summary, nl=False)
        except ConfigError as exc:
            _fail("config", "; ".join(exc.violations), EXIT_CONFIG)
        except DataValidationError as exc:
            _fail("data", str(exc), EXIT_DATA)
        except MemoryError as exc:  # numpy refuses an array of one entry per tick
            _fail("config", f"scenario.ticks_per_session: too long to fit in memory ({exc})",
                  EXIT_CONFIG)
        except Exception as exc:  # never expected; defensive
            _fail("anomaly", f"{type(exc).__name__}: {exc}", EXIT_ANOMALY)

    guarded = click.option("--quiet", is_flag=True, help="Suppress the summary line.")(guarded)
    guarded = click.option("--out", type=click.Path(), default=None,
                           help="Override the configured output directory.")(guarded)
    guarded = click.option("--seed", type=int, default=None,
                           help="Override the configured master seed.")(guarded)
    guarded = click.option("--config", "config_path", required=True,
                           type=click.Path(), help="Path to the JSON config.")(guarded)
    return main.command()(guarded)


@_command
def simulate(config: ExperimentConfig, run_dir: Path) -> Output:
    """Write one session log per player."""
    logs = _simulate_sessions(config)
    files = {
        name: partial(write_session_jsonl, log)
        for name, log in zip(("expert.jsonl", "learner.jsonl"), logs)
    }
    ticks = config.scenario.ticks_per_session
    return files, f"simulate files=2 ticks_per_session={ticks} run_dir={run_dir}\n"


@_command
def dataset(config: ExperimentConfig, run_dir: Path) -> Output:
    """Write the aggregated classification table."""
    _require_split_rows(config)
    data = to_dataset(_simulate_sessions(config), config.dataset.window)
    summary = f"dataset rows={data.n_rows} window={config.dataset.window} run_dir={run_dir}\n"
    return {"dataset.csv": partial(write_dataset_csv, data)}, summary


@_command
def identify(config: ExperimentConfig, run_dir: Path) -> Output:
    """Learn the identity classifier and report held-out accuracy."""
    _require_split_rows(config)
    expert, learner = resolve_profiles(config)
    result = run_identification(
        expert, learner, config.scenario,
        dataset=config.dataset, learn=config.learning, seed=config.seed,
    )
    summary = (
        f"identify accuracy={result.accuracy!r} "
        f"attributes={'|'.join(a.column for a in result.attributes)} "
        f"train_rows={result.train_rows} test_rows={result.test_rows} "
        f"run_dir={run_dir}\n"
    )
    files = {"network.json": partial(write_bayesnet, result.network), "identify.txt": summary}
    return files, summary


@_command
def transfer(config: ExperimentConfig, run_dir: Path) -> Output:
    """Run the transfer loop; write its trace and behavior curves."""
    _require_split_rows(config)
    expert, learner = resolve_profiles(config)
    params = TransferConfig(config.scenario, config.transfer, config.dataset, config.learning)
    trace = run_transfer(expert, learner, params, config.seed)
    files = {
        "trace.csv": trace_to_csv(trace),
        "trace.json": trace_to_json(trace),
        "curves.csv": curves_to_csv(trace),
    }
    last = trace.iterations[-1]
    return files, (
        f"transfer iterations={len(trace.iterations)} "
        f"terminal_reason={trace.terminal_reason.value} "
        f"final_accuracy={last.accuracy!r} final_divergence={last.divergence!r} "
        f"run_dir={run_dir}\n"
    )


def _render_report(trace: TransferTrace) -> str:
    lines = [
        "transfer trace",
        f"  iterations:      {len(trace.iterations)}",
        f"  terminal reason: {trace.terminal_reason.value}",
        "",
        "  iter  accuracy  divergence  targeted",
    ]
    for record in trace.iterations:
        targeted = "|".join(a.column for a in record.targeted_attributes) or "-"
        lines.append(
            f"  {record.iteration:>4}  {record.accuracy:>8.4f}  "
            f"{record.divergence:>10.6f}  {targeted}"
        )
    first, last = trace.iterations[0], trace.iterations[-1]
    lines.extend(
        [
            "",
            f"  accuracy:   {first.accuracy:.4f} -> {last.accuracy:.4f}",
            f"  divergence: {first.divergence:.6f} -> {last.divergence:.6f}",
        ]
    )
    return "\n".join(lines) + "\n"


@_command
@click.option(
    "--trace", "trace_path", type=click.Path(), default=None,
    help="Trace JSON to summarize (default: the run directory's trace).",
)
def report(config: ExperimentConfig, run_dir: Path, trace_path: str | None) -> Output:
    """Summarize a transfer trace in plain text."""
    trace_file = Path(trace_path) if trace_path else run_dir / "trace.json"
    if not trace_file.is_file():
        raise ConfigError([f"trace: file not found: {trace_file} (run `transfer` first?)"])
    try:
        trace = trace_from_json(trace_file.read_text(encoding="utf-8"))
    except MALFORMED_DOCUMENT as exc:
        raise DataValidationError(f"trace {trace_file}: {type(exc).__name__}: {exc}") from exc
    text = _render_report(trace)
    return {"report.txt": text}, text


if __name__ == "__main__":
    main()
