"""Experiment configuration: parsing, validation, canonical serialization.

Configs are JSON documents. Every field has a documented default, so the
empty document is a valid config. Validation is exhaustive: all problems
are collected and reported together, each prefixed with the offending
field's path, and unknown keys anywhere are rejected. Each value meets
:func:`errors.checked`, the rule every section's own check applies, and
every section but ``profiles`` is the library's own dataclass, defaults included.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .bayes import LearnConfig
from .errors import BOUNDS, ConfigError, check_fields, checked
from .game_domain import LINKAGE_STRENGTH, PlayerProfile, Scenario, read_profile, table1_profiles
from .transfer_loop import DatasetConfig, TransferParams


@dataclass(frozen=True)
class ProfilesConfig:
    """Where the expert/learner pair comes from.

    Profiles are read from files exactly when both paths are given;
    otherwise the built-in pair is built with ``linkage_strength``.
    """

    linkage_strength: float = LINKAGE_STRENGTH
    expert_path: str | None = None
    learner_path: str | None = None

    __post_init__ = check_fields


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    output_dir: str = "runs"
    scenario: Scenario = field(default_factory=Scenario)
    profiles: ProfilesConfig = field(default_factory=ProfilesConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    learning: LearnConfig = field(default_factory=LearnConfig)
    transfer: TransferParams = field(default_factory=TransferParams)

    __post_init__ = check_fields


_PROFILE_PATHS = ("profiles.expert_path", "profiles.learner_path")


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

    def read(self, obj: dict, default, path: str):
        """``default`` with each field read from ``obj``, in declaration order.

        Every field of ``default`` is a config key, and sections recurse. A
        value that :func:`errors.checked` rejects is a violation and keeps the default.
        """
        names = [f.name for f in fields(default)]
        for key in sorted(set(obj) - set(names)):
            self.complain(f"{path}{key}", "unknown key")
        values: dict[str, object] = {}
        for name in names:
            key = path + name
            base = getattr(default, name)
            if is_dataclass(base):
                value = self.read(self.section(obj, name, key), base, key + ".")
            elif key in _PROFILE_PATHS:
                value = self.profile_path(obj, name, key)
            else:
                value, violation = checked(BOUNDS.get(name), obj.get(name, base))
                if violation is not None:
                    self.complain(key, violation)
                    value = base
            values[name] = value
        return replace(default, **values)

    def profile_path(self, obj: dict, name: str, path: str) -> str | None:
        """``obj[name]``, an existing file, or None when both profile paths are absent."""
        value = obj.get(name)
        (other,) = {"expert_path", "learner_path"} - {name}
        if value is None:
            if obj.get(other) is not None:
                self.complain(path, f"required when profiles.{other} is given")
        elif not isinstance(value, str) or not value:
            self.complain(path, f"expected a file path, got {value!r}")
        elif not Path(value).is_file():
            self.complain(path, f"file not found: {value}")
        return value if isinstance(value, str) else None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config document.

    Raises :class:`ConfigError` carrying one line per violation. The
    empty document yields the documented defaults.
    """
    if not text.strip():
        text = "{}"
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as exc:  # nested too deep, or an integer too long
        raise ConfigError([f"document: not valid JSON ({exc})"]) from exc
    if not isinstance(document, dict):
        raise ConfigError(["document: top level must be a JSON object"])
    r = _Reader()
    config = r.read(document, ExperimentConfig(), "")
    if r.violations:
        raise ConfigError(r.violations)
    return config


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"document: cannot read {path} ({exc})"]) from exc
    return parse_config(text)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical JSON with all fields explicit; parse round-trips equal.

    The profile paths appear only when they are given.
    """
    payload = asdict(config)
    payload["profiles"] = {k: v for k, v in payload["profiles"].items() if v is not None}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def resolve_profiles(config: ExperimentConfig) -> tuple[PlayerProfile, PlayerProfile]:
    """The expert/learner pair the config names: its profile files, or the built-in pair."""
    profiles = config.profiles
    if profiles.expert_path is None:
        return table1_profiles(profiles.linkage_strength)
    return read_profile(profiles.expert_path), read_profile(profiles.learner_path)


def run_directory(config: ExperimentConfig) -> Path:
    """Output directory for this config: content hash plus seed."""
    digest = hashlib.sha256(serialize_config(config).encode("utf-8")).hexdigest()[:12]
    return Path(config.output_dir) / f"{digest}-s{config.seed}"
