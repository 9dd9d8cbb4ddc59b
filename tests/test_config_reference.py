"""The config reader against the earlier field-by-field reader it replaced."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skilltransfer.bayes import LearnConfig
from skilltransfer.behavior_data import CONTEXT_FIELDS
from skilltransfer.config import ExperimentConfig, ProfilesConfig, parse_config, serialize_config
from skilltransfer.errors import MAX_SMOOTHING, MIN_SMOOTHING, ConfigError
from skilltransfer.game_domain import Scenario, default_scenario, profile_payload, table1_profiles
from skilltransfer.transfer_loop import DatasetConfig, TransferParams


class _ReferenceReader:
    """The earlier reader: one call per field, defaults passed in by hand."""

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

    def number(self, obj, key, path, default, low, high, *, low_open=False, high_open=False):
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
            self.complain(f"{path}{key}", f"{value} outside {left}{low}, {high}{right}")
            return default
        return value

    def integer(self, obj, key, path, default, low, high=None):
        value = obj.get(key, default)
        if isinstance(value, bool) or not isinstance(value, int):
            self.complain(f"{path}{key}", f"expected an integer, got {value!r}")
            return default
        if value < low:
            self.complain(f"{path}{key}", f"{value} is below the minimum {low}")
            return default
        if high is not None and value > high:
            self.complain(f"{path}{key}", f"{value} is above the maximum {high}")
            return default
        return value

    def string(self, obj, key, path, default):
        value = obj.get(key, default)
        if not isinstance(value, str):
            self.complain(f"{path}{key}", f"expected a string, got {value!r}")
            return default
        return value


def _reference_parse_config(text: str) -> ExperimentConfig:
    """``parse_config`` as it was before the bounds table and the recursive walk."""
    if not text.strip():
        text = "{}"
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"document: not valid JSON ({exc})"]) from exc
    if not isinstance(document, dict):
        raise ConfigError(["document: top level must be a JSON object"])

    r = _ReferenceReader()
    r.reject_unknown(
        document,
        ("seed", "output_dir", "scenario", "profiles", "dataset", "learning", "transfer"),
        "",
    )
    seed = r.integer(document, "seed", "", 0, low=0)
    output_dir = r.string(document, "output_dir", "", "runs")

    scenario_obj = r.section(document, "scenario", "scenario")
    r.reject_unknown(scenario_obj, ("ticks_per_session",) + CONTEXT_FIELDS, "scenario.")
    base = default_scenario()
    scenario = Scenario(
        ticks_per_session=r.integer(
            scenario_obj, "ticks_per_session", "scenario.", base.ticks_per_session,
            low=0, high=10**18,
        ),
        **{
            f: r.number(scenario_obj, f, "scenario.", getattr(base, f), 0.0, 1.0)
            for f in CONTEXT_FIELDS
        },
    )

    profiles_obj = r.section(document, "profiles", "profiles")
    r.reject_unknown(profiles_obj, ("linkage_strength", "expert_path", "learner_path"), "profiles.")
    linkage = r.number(
        profiles_obj, "linkage_strength", "profiles.", 0.7, 0.0, 1.0, low_open=True
    )
    expert_path = profiles_obj.get("expert_path")
    learner_path = profiles_obj.get("learner_path")
    for name, value, other, other_value in (
        ("expert_path", expert_path, "learner_path", learner_path),
        ("learner_path", learner_path, "expert_path", expert_path),
    ):
        if value is None:
            if other_value is not None:
                r.complain(f"profiles.{name}", f"required when profiles.{other} is given")
        elif not isinstance(value, str) or not value:
            r.complain(f"profiles.{name}", f"expected a file path, got {value!r}")
        elif not Path(value).is_file():
            r.complain(f"profiles.{name}", f"file not found: {value}")
    profiles = ProfilesConfig(
        linkage_strength=linkage,
        expert_path=expert_path if isinstance(expert_path, str) else None,
        learner_path=learner_path if isinstance(learner_path, str) else None,
    )

    dataset_obj = r.section(document, "dataset", "dataset")
    r.reject_unknown(dataset_obj, ("window", "split_ratio"), "dataset.")
    dataset = DatasetConfig(
        window=r.integer(dataset_obj, "window", "dataset.", 5, low=1),
        split_ratio=r.number(
            dataset_obj, "split_ratio", "dataset.", 0.5, 0.0, 1.0,
            low_open=True, high_open=True,
        ),
    )

    learning_obj = r.section(document, "learning", "learning")
    r.reject_unknown(learning_obj, ("max_parents", "smoothing", "restarts"), "learning.")
    learning = LearnConfig(
        max_parents=r.integer(learning_obj, "max_parents", "learning.", 3, low=1),
        smoothing=r.number(
            learning_obj, "smoothing", "learning.", 1.0, MIN_SMOOTHING, MAX_SMOOTHING
        ),
        restarts=r.integer(learning_obj, "restarts", "learning.", 5, low=0, high=10**4),
    )

    transfer_obj = r.section(document, "transfer", "transfer")
    r.reject_unknown(
        transfer_obj, ("learning_rate", "stop_threshold", "max_iterations"), "transfer."
    )
    transfer = TransferParams(
        learning_rate=r.number(
            transfer_obj, "learning_rate", "transfer.", 0.5, 0.0, 1.0, low_open=True
        ),
        stop_threshold=r.number(
            transfer_obj, "stop_threshold", "transfer.", 0.55, 0.5, 1.0, high_open=True
        ),
        max_iterations=r.integer(transfer_obj, "max_iterations", "transfer.", 50, low=1),
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


# --- documents -------------------------------------------------------------------

_GOOD_PATH = "<an existing profile file>"

#: Values of each field inside its range, by section ("" is the top level).
_VALID = {
    "": {
        "seed": st.integers(0, 2**64),
        "output_dir": st.text(max_size=4),
    },
    "scenario": {
        "ticks_per_session": st.integers(0, 10**6),
        **{f: st.floats(0.0, 1.0) for f in CONTEXT_FIELDS},
    },
    "profiles": {
        "linkage_strength": st.floats(0.0, 1.0, exclude_min=True),
    },
    "dataset": {
        "window": st.integers(1, 1000),
        "split_ratio": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    },
    "learning": {
        "max_parents": st.integers(1, 10),
        "smoothing": st.floats(MIN_SMOOTHING, MAX_SMOOTHING),
        "restarts": st.integers(0, 10),
    },
    "transfer": {
        "learning_rate": st.floats(0.0, 1.0, exclude_min=True),
        "stop_threshold": st.floats(0.5, 1.0, exclude_max=True),
        "max_iterations": st.integers(1, 100),
    },
}

#: Wrong types, non-objects and values at or beyond the edges of the ranges.
_JUNK = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["a", "window"]), st.integers(0, 3), max_size=1),
    st.integers(-3, 60),
    st.floats(-0.5, 1.5),
    st.sampled_from(
        [0.0, -0.0, 0.5, 0.55, 1.0, 2.0, 1e308, MAX_SMOOTHING, MIN_SMOOTHING, 5e-324,
         float("inf"), float("nan")]
    ),
)
_UNKNOWN_KEYS = st.lists(
    st.sampled_from(["mystery", "seed", "Window", "z", "scenario_id", "source"]), max_size=2
)


@st.composite
def _reference_documents(draw):
    """A config document; ``clean`` ones hold only in-range values and known keys.

    Fields and sections are present three times in four, and each field of
    a document that is not clean is junk with a per-document chance, so
    several fields of one section are often wrong at once.
    """
    clean = draw(st.booleans())
    junk_level = draw(st.integers(1, 3))

    def fields(section: str) -> dict:
        obj = {}
        for key, valid in _VALID[section].items():
            if draw(st.integers(0, 3)):
                junk = not clean and draw(st.integers(0, 3)) < junk_level
                obj[key] = draw(_JUNK if junk else valid)
        if section == "profiles":
            obj.update(draw(_profile_sources(clean)))
        if not clean:
            obj.update({key: draw(_JUNK) for key in draw(_UNKNOWN_KEYS)})
        return dict(draw(st.permutations(list(obj.items()))))

    document = fields("")
    for section in ("scenario", "profiles", "dataset", "learning", "transfer"):
        if draw(st.integers(0, 3)):
            if clean or draw(st.integers(0, 5)):
                document[section] = fields(section)
            else:
                document[section] = draw(_JUNK)
    return document


def _profile_sources(clean: bool):
    paths = st.sampled_from([_GOOD_PATH, "", "nowhere/absent.json"])
    if clean:
        files = {"expert_path": _GOOD_PATH, "learner_path": _GOOD_PATH}
        return st.sampled_from([{}, files])
    return st.fixed_dictionaries(
        {},
        optional={
            "expert_path": st.one_of(paths, _JUNK),
            "learner_path": st.one_of(paths, _JUNK),
        },
    )


def _outcome(parse, text: str):
    try:
        config = parse(text)
    except ConfigError as exc:
        return exc.violations
    return config, serialize_config(config)


@pytest.fixture(scope="module")
def profile_file(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("profiles") / "expert.json"
    path.write_text(json.dumps(profile_payload(table1_profiles()[0])), encoding="utf-8")
    return str(path)


@settings(max_examples=400, deadline=None)
@given(document=_reference_documents())
def test_config_reader_matches_the_field_by_field_reference(profile_file, document):
    text = json.dumps(document).replace(json.dumps(_GOOD_PATH), json.dumps(profile_file))
    assert _outcome(parse_config, text) == _outcome(_reference_parse_config, text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "{}",
        '{"learning": {"seed": 3}}',
        '{"scenario": [], "dataset": {"window": 0, "split_ratio": 0}, "zz": 1}',
        '{"transfer": {"max_iterations": 0, "stop_threshold": 1, "learning_rate": 0}}',
        '{"profiles": {"expert_path": "", "learner_path": 3}}',
        '{"profiles": {"source": "x", "learner_path": "a.json", "linkage_strength": 0}}',
        '{"profiles": {"expert_path": null, "learner_path": "a.json"}}',
        '{"scenario": {"scenario_id": "default", "ticks_per_session": -1}}',
        '{"scenario": {"ticks_per_session": 1000000000000000001}}',
    ],
)
def test_config_reader_matches_the_reference_on_hand_picked_documents(text):
    assert _outcome(parse_config, text) == _outcome(_reference_parse_config, text)
