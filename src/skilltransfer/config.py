"""Experiment configuration: parsing, validation, canonical serialization.

Configs are JSON documents. Every field has a documented default, so the
empty document is a valid config. Validation is exhaustive: all problems
are collected and reported together, each prefixed with the offending
field's path, and unknown keys anywhere are rejected.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .bayes import LearnConfig
from .behavior_data import CONTEXT_FIELDS, DOMAINS
from .errors import ConfigError
from .game_domain import (
    PlayerProfile,
    Scenario,
    default_scenario,
    read_profile,
    table1_profiles,
)

#: Documented defaults, also applied field by field to partial documents.
DEFAULT_LINKAGE_STRENGTH = 0.7
DEFAULT_WINDOW = 5
DEFAULT_SPLIT_RATIO = 0.5
DEFAULT_LEARNING_RATE = 0.5
DEFAULT_STOP_THRESHOLD = 0.55
DEFAULT_MAX_ITERATIONS = 50
DEFAULT_SEED = 0
DEFAULT_OUTPUT_DIR = "runs"

#: Largest learning.smoothing whose CPT rows still sum to a finite value:
#: a row holds at most one cell per value of the widest domain, each cell
#: the smoothing plus a count, so half the float range per cell is safe.
MAX_SMOOTHING = sys.float_info.max / (2 * max(len(d) for d in DOMAINS.values()))

BUILTIN_PROFILES = "table1"
FILE_PROFILES = "file"


@dataclass(frozen=True)
class ProfilesConfig:
    """Where the expert/learner pair comes from."""

    source: str = BUILTIN_PROFILES
    linkage_strength: float = DEFAULT_LINKAGE_STRENGTH
    expert_path: str | None = None
    learner_path: str | None = None


@dataclass(frozen=True)
class DatasetConfig:
    window: int = DEFAULT_WINDOW
    split_ratio: float = DEFAULT_SPLIT_RATIO


@dataclass(frozen=True)
class TransferParams:
    learning_rate: float = DEFAULT_LEARNING_RATE
    stop_threshold: float = DEFAULT_STOP_THRESHOLD
    max_iterations: int = DEFAULT_MAX_ITERATIONS


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = DEFAULT_SEED
    output_dir: str = DEFAULT_OUTPUT_DIR
    scenario: Scenario = field(default_factory=default_scenario)
    profiles: ProfilesConfig = field(default_factory=ProfilesConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    learning: LearnConfig = field(default_factory=LearnConfig)
    transfer: TransferParams = field(default_factory=TransferParams)


class _Reader:
    """Walks a JSON object tree collecting violations instead of raising."""

    def __init__(self) -> None:
        self.violations: list[str] = []

    def complain(self, path: str, message: str) -> None:
        self.violations.append(f"{path}: {message}")

    def section(self, parent: dict, key: str, path: str) -> dict:
        value = parent.get(key)
        if value is None:
            return {}
        if not isinstance(value, dict):
            self.complain(path, f"expected an object, got {type(value).__name__}")
            return {}
        return value

    def reject_unknown(self, obj: dict, known: tuple[str, ...], path: str) -> None:
        for key in sorted(set(obj) - set(known)):
            self.complain(f"{path}{key}" if path else key, "unknown key")

    def number(
        self,
        obj: dict,
        key: str,
        path: str,
        default: float,
        low: float,
        high: float,
        *,
        low_open: bool = False,
        high_open: bool = False,
    ) -> float:
        value = obj.get(key, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.complain(f"{path}{key}", f"expected a number, got {value!r}")
            return default
        value = float(value)
        low_ok = value > low if low_open else value >= low
        high_ok = value < high if high_open else value <= high
        if not (low_ok and high_ok):
            left = "(" if low_open else "["
            right = ")" if high_open else "]"
            self.complain(
                f"{path}{key}", f"{value} outside {left}{low}, {high}{right}"
            )
            return default
        return value

    def integer(
        self, obj: dict, key: str, path: str, default: int, low: int
    ) -> int:
        value = obj.get(key, default)
        if isinstance(value, bool) or not isinstance(value, int):
            self.complain(f"{path}{key}", f"expected an integer, got {value!r}")
            return default
        if value < low:
            self.complain(f"{path}{key}", f"{value} is below the minimum {low}")
            return default
        return value

    def string(self, obj: dict, key: str, path: str, default: str) -> str:
        value = obj.get(key, default)
        if not isinstance(value, str):
            self.complain(f"{path}{key}", f"expected a string, got {value!r}")
            return default
        return value


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config document.

    Raises :class:`ConfigError` carrying one line per violation. The
    empty document yields the documented defaults.
    """
    if not text.strip():
        text = "{}"
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"document: not valid JSON ({exc})"]) from exc
    if not isinstance(document, dict):
        raise ConfigError(["document: top level must be a JSON object"])

    r = _Reader()
    r.reject_unknown(
        document,
        ("seed", "output_dir", "scenario", "profiles", "dataset", "learning", "transfer"),
        "",
    )

    seed = r.integer(document, "seed", "", DEFAULT_SEED, low=0)
    output_dir = r.string(document, "output_dir", "", DEFAULT_OUTPUT_DIR)

    scenario_obj = r.section(document, "scenario", "scenario")
    r.reject_unknown(
        scenario_obj,
        ("scenario_id", "ticks_per_session") + CONTEXT_FIELDS,
        "scenario.",
    )
    base = default_scenario()
    scenario = Scenario(
        scenario_id=r.string(scenario_obj, "scenario_id", "scenario.", base.scenario_id),
        ticks_per_session=r.integer(
            scenario_obj, "ticks_per_session", "scenario.", base.ticks_per_session, low=0
        ),
        **{
            f: r.number(scenario_obj, f, "scenario.", getattr(base, f), 0.0, 1.0)
            for f in CONTEXT_FIELDS
        },
    )

    profiles_obj = r.section(document, "profiles", "profiles")
    r.reject_unknown(
        profiles_obj,
        ("source", "linkage_strength", "expert_path", "learner_path"),
        "profiles.",
    )
    source = r.string(profiles_obj, "source", "profiles.", BUILTIN_PROFILES)
    if source not in (BUILTIN_PROFILES, FILE_PROFILES):
        r.complain(
            "profiles.source",
            f"must be {BUILTIN_PROFILES!r} or {FILE_PROFILES!r}, got {source!r}",
        )
        source = BUILTIN_PROFILES
    linkage = r.number(
        profiles_obj, "linkage_strength", "profiles.",
        DEFAULT_LINKAGE_STRENGTH, 0.0, 1.0, low_open=True,
    )
    expert_path = profiles_obj.get("expert_path")
    learner_path = profiles_obj.get("learner_path")
    if source == FILE_PROFILES:
        for name, value in (("expert_path", expert_path), ("learner_path", learner_path)):
            if not isinstance(value, str) or not value:
                r.complain(f"profiles.{name}", "required when source is 'file'")
            elif not Path(value).is_file():
                r.complain(f"profiles.{name}", f"file not found: {value}")
    else:
        for name, value in (("expert_path", expert_path), ("learner_path", learner_path)):
            if value is not None:
                r.complain(f"profiles.{name}", "only allowed when source is 'file'")
    profiles = ProfilesConfig(
        source=source,
        linkage_strength=linkage,
        expert_path=expert_path if isinstance(expert_path, str) else None,
        learner_path=learner_path if isinstance(learner_path, str) else None,
    )

    dataset_obj = r.section(document, "dataset", "dataset")
    r.reject_unknown(dataset_obj, ("window", "split_ratio"), "dataset.")
    dataset = DatasetConfig(
        window=r.integer(dataset_obj, "window", "dataset.", DEFAULT_WINDOW, low=1),
        split_ratio=r.number(
            dataset_obj, "split_ratio", "dataset.",
            DEFAULT_SPLIT_RATIO, 0.0, 1.0, low_open=True, high_open=True,
        ),
    )

    learning_obj = r.section(document, "learning", "learning")
    r.reject_unknown(learning_obj, ("max_parents", "smoothing", "restarts"), "learning.")
    default = LearnConfig()
    learning = LearnConfig(
        max_parents=r.integer(
            learning_obj, "max_parents", "learning.", default.max_parents, low=1
        ),
        smoothing=r.number(
            learning_obj, "smoothing", "learning.",
            default.smoothing, 0.0, MAX_SMOOTHING, low_open=True,
        ),
        restarts=r.integer(learning_obj, "restarts", "learning.", default.restarts, low=0),
    )

    transfer_obj = r.section(document, "transfer", "transfer")
    r.reject_unknown(
        transfer_obj, ("learning_rate", "stop_threshold", "max_iterations"), "transfer."
    )
    transfer = TransferParams(
        learning_rate=r.number(
            transfer_obj, "learning_rate", "transfer.",
            DEFAULT_LEARNING_RATE, 0.0, 1.0, low_open=True,
        ),
        stop_threshold=r.number(
            transfer_obj, "stop_threshold", "transfer.",
            DEFAULT_STOP_THRESHOLD, 0.5, 1.0, high_open=True,
        ),
        max_iterations=r.integer(
            transfer_obj, "max_iterations", "transfer.", DEFAULT_MAX_ITERATIONS, low=1
        ),
    )

    if r.violations:
        raise ConfigError(r.violations)
    return ExperimentConfig(
        seed=seed,
        output_dir=output_dir,
        scenario=scenario,
        profiles=profiles,
        dataset=dataset,
        learning=learning,
        transfer=transfer,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"document: cannot read {path} ({exc})"]) from exc
    return parse_config(text)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical JSON with all fields explicit; parse round-trips equal.

    Every field but ``learning.seed``, which the pipeline derives from the
    run seed; the profile paths appear only when profiles come from files.
    """
    payload = asdict(config)
    del payload["learning"]["seed"]
    if config.profiles.source != FILE_PROFILES:
        del payload["profiles"]["expert_path"], payload["profiles"]["learner_path"]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def resolve_profiles(config: ExperimentConfig) -> tuple[PlayerProfile, PlayerProfile]:
    """Materialize the expert/learner pair the config names."""
    if config.profiles.source == BUILTIN_PROFILES:
        return table1_profiles(config.profiles.linkage_strength)
    assert config.profiles.expert_path and config.profiles.learner_path
    return (
        read_profile(config.profiles.expert_path),
        read_profile(config.profiles.learner_path),
    )


def run_directory(config: ExperimentConfig) -> Path:
    """Output directory for this config: content hash plus seed."""
    digest = hashlib.sha256(serialize_config(config).encode("utf-8")).hexdigest()[:12]
    return Path(config.output_dir) / f"{digest}-s{config.seed}"
