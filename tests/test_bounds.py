"""The one table of parameter ranges, as the config reader and the library read it."""

from __future__ import annotations

import json
import math
import re
from dataclasses import fields, is_dataclass, replace
from functools import reduce

import numpy as np
import pytest

from skilltransfer.bayes import Dag, LearnConfig, fit_cpts, learn_structure
from skilltransfer.behavior_data import DataSet
from skilltransfer.config import ExperimentConfig, ProfilesConfig, parse_config, serialize_config
from skilltransfer.errors import BOUNDS, MAX_SMOOTHING, MIN_SMOOTHING, ConfigError, is_integer
from skilltransfer.game_domain import ConditionKey, Scenario, default_scenario, table1_profiles
from skilltransfer.transfer_loop import DatasetConfig, TransferParams, nudge_profile


def _config_paths(config, prefix: str = "") -> dict[str, str]:
    """Document path of every config field, by field name."""
    paths = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            paths.update(_config_paths(value, f"{prefix}{f.name}."))
        else:
            paths[f.name] = prefix + f.name
    return paths


_PATHS = _config_paths(ExperimentConfig())


def _owner(name: str):
    """The library dataclass or function that owns field ``name``, as a one-value call."""
    if name == "linkage_strength":
        return table1_profiles
    if name == "seed":
        data = DataSet(columns=("a",), domains={"a": ("x", "y")}, codes=np.array([[0], [1]]))
        return lambda value: learn_structure(data, LearnConfig(), seed=value)
    for instance in (Scenario(), DatasetConfig(), LearnConfig(), TransferParams()):
        if name in {f.name for f in fields(instance)}:
            return lambda value: replace(instance, **{name: value})
    raise AssertionError(f"no library owner for {name}")


def _edges(bound) -> tuple[list, list[tuple[float, str]]]:
    """Closed boundary values, and values just outside with the reader's text."""
    if is_integer(bound):
        low, high = (bound, None) if isinstance(bound, int) else bound
        outside = [(low - 1, f"{low - 1} is below the minimum {low}")]
        if high is None:
            return [low], outside
        return [low, high], [*outside, (high + 1, f"{high + 1} is above the maximum {high}")]
    low, high, low_open, high_open = bound
    text = f"outside {'(' if low_open else '['}{low}, {high}{')' if high_open else ']'}"
    inside, outside = [], []
    for edge, is_open, away in ((low, low_open, -math.inf), (high, high_open, math.inf)):
        if is_open:
            outside.append(edge)
        else:
            inside.append(edge)
            outside.append(math.nextafter(edge, away))
    return inside, [(value, f"{value} {text}") for value in outside]


def _document(path: str, value) -> str:
    *sections, key = path.split(".")
    document = {key: value}
    for section in reversed(sections):
        document = {section: document}
    return json.dumps(document)


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_reader_and_library_agree_on_every_range(name):
    path, owner = _PATHS[name], _owner(name)
    inside, outside = _edges(BOUNDS[name])
    for value in inside:
        owner(value)
        section = reduce(getattr, path.split(".")[:-1], parse_config(_document(path, value)))
        assert getattr(section, name) == value
    for value, text in outside:
        with pytest.raises(ValueError, match=f"^{name}: "):
            owner(value)
        with pytest.raises(ConfigError) as err:
            parse_config(_document(path, value))
        assert err.value.violations == [f"{path}: {text}"]


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_reader_and_library_reject_the_same_wrong_kinds(name):
    path, owner = _PATHS[name], _owner(name)
    kind = "an integer" if is_integer(BOUNDS[name]) else "a number"
    wrong = [True, "1", None] + ([1.5] if kind == "an integer" else [])
    for value in wrong:
        text = f"expected {kind}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name}: {text}')}$"):
            owner(value)
        with pytest.raises(ConfigError) as err:
            parse_config(_document(path, value))
        assert err.value.violations == [f"{path}: {text}"]


def test_every_section_but_profiles_is_the_library_dataclass():
    config = ExperimentConfig()
    sections = {f.name: type(getattr(config, f.name)) for f in fields(config)}
    assert sections == {
        "seed": int, "output_dir": str, "scenario": Scenario, "profiles": ProfilesConfig,
        "dataset": DatasetConfig, "learning": LearnConfig, "transfer": TransferParams,
    }


def test_the_learning_section_is_exactly_the_learn_config():
    learning = json.loads(serialize_config(ExperimentConfig()))["learning"]
    assert sorted(learning) == sorted(f.name for f in fields(LearnConfig))


def test_smoothing_too_large_for_finite_cpt_rows_is_rejected_by_the_library():
    data = DataSet(
        columns=("a",), domains={"a": ("x", "y")}, codes=np.array([[0], [1]])
    )
    dag = Dag(nodes=("a",), edges=frozenset())
    for smoothing in (1e308, 0.0):
        with pytest.raises(ValueError, match="^smoothing: "):
            LearnConfig(smoothing=smoothing)
        with pytest.raises(ValueError, match="^smoothing: "):
            fit_cpts(dag, data, alpha=smoothing)
    assert fit_cpts(dag, data, alpha=MAX_SMOOTHING).cpts["a"].table.tolist() == [[0.5, 0.5]]


def test_smoothing_too_small_for_positive_cpt_entries_is_rejected_by_the_library():
    # 5e-324 over a row total of 1000 underflowed to a zero CPT entry.
    data = DataSet(columns=("a",), domains={"a": ("x", "y")}, codes=np.zeros((1000, 1), int))
    dag = Dag(nodes=("a",), edges=frozenset())
    for smoothing in (5e-324, math.nextafter(MIN_SMOOTHING, 0.0)):
        with pytest.raises(ValueError, match="^smoothing: "):
            LearnConfig(smoothing=smoothing)
        with pytest.raises(ValueError, match="^smoothing: "):
            fit_cpts(dag, data, alpha=smoothing)
    table = fit_cpts(dag, data, alpha=MIN_SMOOTHING).cpts["a"].table
    assert table[0, 0] == 1.0 and 0.0 < table[0, 1] < MIN_SMOOTHING


def test_the_largest_smoothing_fits_the_widest_domain_a_table_accepts():
    # A DataSet accepts domains of up to 128 values, the int8 code range.
    values = tuple(f"v{k}" for k in range(128))
    data = DataSet(columns=("a",), domains={"a": values}, codes=np.array([[0], [127]]))
    dag = Dag(nodes=("a",), edges=frozenset())
    table = fit_cpts(dag, data, alpha=MAX_SMOOTHING).cpts["a"].table
    assert table.shape == (1, 128)
    assert table.sum(axis=1).tolist() == [1.0]


def test_function_arguments_are_named_in_their_range_errors():
    expert, learner = table1_profiles()
    with pytest.raises(ValueError, match=r"^eta: 1\.5 outside \(0\.0, 1\.0\]$"):
        nudge_profile(learner, expert, [ConditionKey.OBSTACLE], 1.5)
    with pytest.raises(ValueError, match=r"^linkage_strength: 0\.0 outside \(0\.0, 1\.0\]$"):
        table1_profiles(0.0)
    with pytest.raises(ValueError, match=r"^location_indoor: nan outside \[0\.0, 1\.0\]$"):
        replace(default_scenario(), location_indoor=math.nan)
