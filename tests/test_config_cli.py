"""Config parsing and the command-line pipeline end to end."""

from __future__ import annotations

import functools
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from skilltransfer.bayes import read_bayesnet
from skilltransfer.behavior_data import (
    ATTRIBUTE_COLUMNS,
    CONTEXT_FIELDS,
    PlayerId,
    read_dataset_csv,
    read_session_jsonl,
    validate_session,
)
from skilltransfer.cli import main
from skilltransfer.config import (
    ExperimentConfig,
    load_config,
    parse_config,
    run_directory,
    serialize_config,
)
from skilltransfer.errors import MAX_SMOOTHING, MIN_SMOOTHING, ConfigError
from skilltransfer.game_domain import (
    default_scenario,
    profile_payload,
    table1_profiles,
)
from skilltransfer.transfer_loop import TransferConfig, run_transfer, trace_from_json, trace_to_json


def _write_profile(path: Path, payload: dict) -> Path:
    """A profile file as ``read_profile`` reads it."""
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


# --- parsing ------------------------------------------------------------------

def test_empty_document_yields_the_documented_defaults():
    config = parse_config("")
    assert config == ExperimentConfig()
    assert config.profiles.linkage_strength == 0.7
    assert config.dataset.window == 5
    assert config.dataset.split_ratio == 0.5
    assert config.transfer.learning_rate == 0.5
    assert config.transfer.stop_threshold == 0.55
    assert config.scenario == default_scenario()


def test_out_of_range_learning_rate_is_named():
    with pytest.raises(ConfigError) as err:
        parse_config('{"transfer": {"learning_rate": 1.5}}')
    assert any("learning_rate" in line for line in err.value.violations)


def test_all_violations_are_collected_at_once():
    document = json.dumps(
        {
            "seed": -1,
            "mystery": True,
            "dataset": {"window": 0, "split_ratio": 1.0},
            "transfer": {"stop_threshold": 0.3},
        }
    )
    with pytest.raises(ConfigError) as err:
        parse_config(document)
    text = "\n".join(err.value.violations)
    for needle in ("seed", "mystery", "dataset.window", "dataset.split_ratio",
                   "transfer.stop_threshold"):
        assert needle in text
    assert len(err.value.violations) == 5


def test_document_must_be_a_json_object():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{nope")
    with pytest.raises(ConfigError, match="top level"):
        parse_config("[1, 2]")


def test_file_profiles_demand_existing_paths(tmp_path):
    missing = str(tmp_path / "missing.json")
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"profiles": {"expert_path": missing, "learner_path": missing}}))
    assert err.value.violations == [
        f"profiles.expert_path: file not found: {missing}",
        f"profiles.learner_path: file not found: {missing}",
    ]
    with pytest.raises(ConfigError) as err:
        parse_config('{"profiles": {"expert_path": "", "learner_path": 3}}')
    assert err.value.violations == [
        "profiles.expert_path: expected a file path, got ''",
        "profiles.learner_path: expected a file path, got 3",
    ]


def _simulate_with(tmp_path, document: dict, *flags):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(document), encoding="utf-8")
    return _invoke(["simulate", "--config", config_path, "--out", tmp_path / "runs", *flags])


@pytest.mark.parametrize(
    "document, path",
    [
        ({"scenario": {"scenario_id": "x"}}, "scenario.scenario_id"),
        ({"profiles": {"source": "table1"}}, "profiles.source"),
    ],
)
def test_a_removed_key_exits_two_as_unknown(tmp_path, document, path):
    result = _simulate_with(tmp_path, document)
    assert result.exit_code == 2
    assert result.stderr == f"error: config: {path}: unknown key\n"


@pytest.mark.parametrize("given, missing", [("expert_path", "learner_path"),
                                            ("learner_path", "expert_path")])
def test_one_profile_path_alone_exits_two_naming_the_other(tmp_path, given, missing):
    path = _write_profile(tmp_path / "profile.json", profile_payload(table1_profiles()[0]))
    result = _simulate_with(tmp_path, {"profiles": {given: str(path)}})
    assert result.exit_code == 2
    assert result.stderr == (
        f"error: config: profiles.{missing}: required when profiles.{given} is given\n"
    )


def test_load_config_reports_unreadable_files(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")


_PROBABILITY = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
)


@st.composite
def _config_documents(draw, max_ticks=500, max_iterations=60, max_restarts=8):
    """Valid documents, at the edges of the ranges as well as inside them."""
    document = {}
    if draw(st.booleans()):
        document["seed"] = draw(st.integers(min_value=0, max_value=2**64))
    if draw(st.booleans()):
        document["output_dir"] = draw(st.sampled_from(["runs", "out", "results/x"]))
    if draw(st.booleans()):
        document["scenario"] = {
            "ticks_per_session": draw(st.integers(min_value=0, max_value=max_ticks)),
            **{f: draw(_PROBABILITY) for f in CONTEXT_FIELDS if draw(st.booleans())},
        }
    if draw(st.booleans()):
        document["profiles"] = {
            "linkage_strength": draw(st.floats(min_value=0.05, max_value=1.0)),
        }
    if draw(st.booleans()):
        document["dataset"] = {
            "window": draw(st.integers(min_value=1, max_value=1000)),
            "split_ratio": draw(
                st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
            ),
        }
    if draw(st.booleans()):
        document["learning"] = {
            "max_parents": draw(st.integers(min_value=1, max_value=5)),
            "smoothing": draw(st.floats(min_value=MIN_SMOOTHING, max_value=1e300)),
            "restarts": draw(st.integers(min_value=0, max_value=max_restarts)),
        }
    if draw(st.booleans()):
        document["transfer"] = {
            "learning_rate": draw(st.floats(min_value=0.05, max_value=1.0)),
            "stop_threshold": draw(st.floats(min_value=0.5, max_value=0.95)),
            "max_iterations": draw(st.integers(min_value=1, max_value=max_iterations)),
        }
    return json.dumps(document)


@settings(max_examples=100, deadline=None)
@given(text=_config_documents())
def test_serialize_parse_round_trip(text):
    config = parse_config(text)
    serialized = serialize_config(config)
    assert parse_config(serialized) == config
    assert serialize_config(parse_config(serialized)) == serialized


def test_serialized_config_names_profile_paths_only_for_file_profiles(tmp_path):
    builtin = json.loads(serialize_config(parse_config("{}")))
    assert set(builtin["profiles"]) == {"linkage_strength"}
    assert set(builtin["learning"]) == {"max_parents", "smoothing", "restarts"}
    path = _write_profile(tmp_path / "profile.json", profile_payload(table1_profiles()[0]))
    document = {"expert_path": str(path), "learner_path": str(path)}
    text = serialize_config(parse_config(json.dumps({"profiles": document})))
    assert json.loads(text)["profiles"] == {**document, "linkage_strength": 0.7}
    assert serialize_config(parse_config(text)) == text


def test_run_directory_is_keyed_by_content_and_seed():
    base = parse_config("{}")
    same = parse_config('{"seed": 0}')
    assert run_directory(base) == run_directory(same)
    assert run_directory(base).name.endswith("-s0")
    reseeded = parse_config('{"seed": 7}')
    assert run_directory(reseeded) != run_directory(base)
    retuned = parse_config('{"dataset": {"window": 4}}')
    assert run_directory(retuned) != run_directory(base)


# --- commands -------------------------------------------------------------------

@pytest.fixture()
def quick_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "scenario": {"ticks_per_session": 100},
                "output_dir": str(tmp_path / "runs"),
            }
        ),
        encoding="utf-8",
    )
    return path


def _invoke(args):
    return CliRunner().invoke(main, [str(a) for a in args])


def _run_dir(config_path) -> Path:
    return run_directory(load_config(config_path))


def test_simulate_writes_replayable_logs(quick_config):
    result = _invoke(["simulate", "--config", quick_config])
    assert result.exit_code == 0
    assert result.stdout.startswith("simulate files=2 ticks_per_session=100 run_dir=")
    run_dir = _run_dir(quick_config)
    assert (run_dir / "config.json").is_file()
    expert_log = read_session_jsonl(run_dir / "expert.jsonl")
    learner_log = read_session_jsonl(run_dir / "learner.jsonl")
    assert expert_log.player is PlayerId.ID1
    assert learner_log.player is PlayerId.ID2
    for log in (expert_log, learner_log):
        assert len(log.records) == 100
        assert validate_session(log) == []


def test_simulate_twice_is_byte_identical(quick_config):
    assert _invoke(["simulate", "--config", quick_config]).exit_code == 0
    run_dir = _run_dir(quick_config)
    before = {
        p.name: p.read_bytes() for p in sorted(run_dir.iterdir()) if p.is_file()
    }
    assert _invoke(["simulate", "--config", quick_config]).exit_code == 0
    after = {
        p.name: p.read_bytes() for p in sorted(run_dir.iterdir()) if p.is_file()
    }
    assert before == after
    assert set(before) == {"config.json", "expert.jsonl", "learner.jsonl"}


def test_dataset_command_writes_the_window_table(quick_config):
    result = _invoke(["dataset", "--config", quick_config])
    assert result.exit_code == 0
    assert result.stdout.startswith("dataset rows=40 window=5 ")
    data = read_dataset_csv(_run_dir(quick_config) / "dataset.csv")
    assert data.n_rows == 40  # 20 windows per player at 100 ticks, W=5


def test_identify_reports_accuracy_and_attributes(quick_config):
    result = _invoke(["identify", "--config", quick_config])
    assert result.exit_code == 0
    fields = dict(
        pair.split("=", 1) for pair in result.stdout.split() if "=" in pair
    )
    assert 0.0 <= float(fields["accuracy"]) <= 1.0
    named = [a for a in fields["attributes"].split("|") if a]
    assert all(a in ATTRIBUTE_COLUMNS for a in named)
    assert (int(fields["train_rows"]), int(fields["test_rows"])) == (20, 20)
    run_dir = _run_dir(quick_config)
    read_bayesnet(run_dir / "network.json")  # parses and validates
    assert (run_dir / "identify.txt").read_text(encoding="utf-8") == result.stdout


def test_transfer_from_the_expert_stops_at_iteration_one(tmp_path):
    expert, _ = table1_profiles()
    profile_path = _write_profile(tmp_path / "expert.json", profile_payload(expert))
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "output_dir": str(tmp_path / "runs"),
                "profiles": {
                    "expert_path": str(profile_path),
                    "learner_path": str(profile_path),
                },
            }
        ),
        encoding="utf-8",
    )
    result = _invoke(["transfer", "--config", config_path])
    assert result.exit_code == 0
    assert "iterations=1 " in result.stdout
    assert "terminal_reason=threshold_reached" in result.stdout
    run_dir = _run_dir(config_path)
    trace = trace_from_json((run_dir / "trace.json").read_text(encoding="utf-8"))
    assert len(trace.iterations) == 1
    assert (run_dir / "trace.csv").is_file()
    assert (run_dir / "curves.csv").is_file()

    report = _invoke(["report", "--config", config_path])
    assert report.exit_code == 0
    assert "terminal reason: threshold_reached" in report.stdout
    assert (run_dir / "report.txt").read_text(encoding="utf-8") == report.stdout


def test_the_built_in_pair_read_from_files_gives_the_built_in_run(tmp_path):
    files = {
        name: str(_write_profile(tmp_path / f"{name}.json", profile_payload(profile)))
        for name, profile in zip(("expert_path", "learner_path"), table1_profiles())
    }
    outputs = []
    for profiles in ({}, files):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"output_dir": str(tmp_path / "runs"), "profiles": profiles}),
            encoding="utf-8",
        )
        for command in ("identify", "transfer"):
            assert _invoke([command, "--config", config_path, "--quiet"]).exit_code == 0
        run_dir = _run_dir(config_path)
        names = ("network.json", "trace.json")
        outputs.append({name: (run_dir / name).read_bytes() for name in names})
    assert load_config(config_path).scenario.ticks_per_session == 2000
    assert outputs[0] == outputs[1]


def test_quiet_and_seed_flags(quick_config):
    result = _invoke(["simulate", "--config", quick_config, "--quiet"])
    assert result.exit_code == 0
    assert result.stdout == ""
    result = _invoke(["simulate", "--config", quick_config, "--seed", 5])
    assert result.exit_code == 0
    assert "-s5" in result.stdout


@pytest.mark.parametrize("command", ["simulate", "dataset", "identify", "transfer", "report"])
def test_negative_seed_flag_exits_two_like_a_negative_seed_in_the_document(
    quick_config, tmp_path, command
):
    flagged = _invoke([command, "--config", quick_config, "--seed", -1])
    assert flagged.exit_code == 2, flagged.stderr
    document = tmp_path / "negative-seed.json"
    document.write_text(
        json.dumps({**json.loads(quick_config.read_text(encoding="utf-8")), "seed": -1}),
        encoding="utf-8",
    )
    in_document = _invoke([command, "--config", document])
    assert in_document.exit_code == 2, in_document.stderr
    assert flagged.stderr == in_document.stderr == "error: config: seed: -1 is below the minimum 0\n"


def test_invalid_config_exits_two(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"transfer": {"learning_rate": 1.5}}', encoding="utf-8")
    result = _invoke(["simulate", "--config", path])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: config:")
    assert "learning_rate" in result.stderr

    result = _invoke(["simulate", "--config", tmp_path / "nowhere.json"])
    assert result.exit_code == 2
    assert "cannot read" in result.stderr


@pytest.mark.parametrize(
    "document",
    [
        {"scenario": {"ticks_per_session": 0}},
        {"scenario": {"ticks_per_session": 7}},
        {"dataset": {"window": 5000}},
    ],
)
def test_too_few_rows_to_split_exits_two(tmp_path, document):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({**document, "output_dir": str(tmp_path / "runs")}), encoding="utf-8"
    )
    for command in ("dataset", "identify", "transfer"):
        result = _invoke([command, "--config", path])
        assert result.exit_code == 2, (command, result.stderr)
        assert result.stderr.startswith("error: config:")
        assert "scenario.ticks_per_session" in result.stderr
        assert "dataset.window" in result.stderr
    assert not (tmp_path / "runs").exists()


def test_smoothing_too_large_for_finite_cpt_rows_exits_two(tmp_path):
    # 1e308 once overflowed the CPT row sums and exited 4; the largest
    # accepted value still fits a finite, normalized table.
    results = {}
    for smoothing in (1e308, MAX_SMOOTHING):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "scenario": {"ticks_per_session": 100},
                    "learning": {"smoothing": smoothing},
                    "output_dir": str(tmp_path / "runs"),
                }
            ),
            encoding="utf-8",
        )
        results[smoothing] = _invoke(["identify", "--config", path])
    rejected, largest = results[1e308], results[MAX_SMOOTHING]
    assert rejected.exit_code == 2
    assert rejected.stderr.startswith("error: config: learning.smoothing:")
    assert largest.exit_code == 0, largest.stderr


def test_smoothing_too_small_for_positive_cpt_entries_exits_two(tmp_path):
    # 5e-324 once underflowed a CPT entry to zero, so a test row had zero
    # probability under every class and identify exited 4.
    results = {}
    for smoothing in (5e-324, MIN_SMOOTHING):
        path = tmp_path / "config.json"
        document = {
            "scenario": {"ticks_per_session": 200},
            "learning": {"smoothing": smoothing},
            "output_dir": str(tmp_path / "runs"),
        }
        path.write_text(json.dumps(document), encoding="utf-8")
        results[smoothing] = _invoke(["identify", "--config", path, "--seed", "0"])
    rejected, smallest = results[5e-324], results[MIN_SMOOTHING]
    assert rejected.exit_code == 2
    assert rejected.stderr.startswith("error: config: learning.smoothing:")
    assert len(rejected.stderr.splitlines()) == 1
    assert smallest.exit_code == 0, smallest.stderr


def test_report_without_a_trace_exits_two(quick_config):
    result = _invoke(["report", "--config", quick_config])
    assert result.exit_code == 2
    assert "trace" in result.stderr


def test_report_on_an_empty_trace_exits_three(quick_config, tmp_path):
    expert, _ = table1_profiles()
    payload = {
        "terminal_reason": "max_iterations",
        "expert_profile": {
            "profile_id": expert.profile_id,
            "distributions": {
                key.value: {b.column: p for b, p in dist.items()}
                for key, dist in expert.distributions.items()
            },
        },
        "iterations": [],
    }
    trace_path = tmp_path / "hollow.json"
    trace_path.write_text(json.dumps(payload), encoding="utf-8")
    result = _invoke(["report", "--config", quick_config, "--trace", trace_path])
    assert result.exit_code == 3
    assert result.stderr.startswith("error: data:")
    assert "no iterations" in result.stderr


def _report_on(quick_config, tmp_path, text):
    trace_path = tmp_path / "bad.json"
    trace_path.write_text(text, encoding="utf-8")
    result = _invoke(["report", "--config", quick_config, "--trace", trace_path])
    assert result.exit_code == 3, result.stderr
    assert result.stderr.startswith(f"error: data: trace {trace_path}: ")
    assert result.stderr.count("\n") == 1
    return result.stderr


def test_report_on_a_trace_that_is_not_json_exits_three(quick_config, tmp_path):
    assert "JSONDecodeError" in _report_on(quick_config, tmp_path, "not json")


def test_report_on_a_trace_with_scalar_iterations_exits_three(quick_config, tmp_path):
    stderr = _report_on(quick_config, tmp_path, json.dumps({"iterations": 5}))
    assert "TypeError" in stderr


def test_report_on_a_trace_without_iterations_exits_three(quick_config, tmp_path):
    assert "KeyError: 'iterations'" in _report_on(quick_config, tmp_path, "{}")


def _trace_text(expert_profile: dict, learner_profile: dict) -> str:
    iteration = {
        "iteration": 1, "accuracy": 0.9, "divergence": 0.1,
        "targeted_attributes": [], "nudged_keys": [], "learner_profile": learner_profile,
    }
    return json.dumps(
        {
            "terminal_reason": "max_iterations",
            "expert_profile": expert_profile,
            "iterations": [iteration],
        }
    )


def test_report_on_a_trace_with_a_malformed_expert_profile_exits_three(quick_config, tmp_path):
    learner = profile_payload(table1_profiles()[1])
    text = _trace_text({"profile_id": "x"}, learner)
    assert "KeyError: 'distributions'" in _report_on(quick_config, tmp_path, text)


def test_report_on_a_trace_with_an_unknown_learner_condition_exits_three(quick_config, tmp_path):
    expert = profile_payload(table1_profiles()[0])
    text = _trace_text(expert, {"profile_id": "l", "distributions": {"weather": {}}})
    stderr = _report_on(quick_config, tmp_path, text)
    assert "ValueError: 'weather' is not a valid ConditionKey" in stderr


def test_the_smallest_linkage_strength_identifies(tmp_path):
    # Its learner shares of the watched key underflow to zero and are left out.
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "scenario": {"ticks_per_session": 100},
                "output_dir": str(tmp_path / "runs"),
                "profiles": {"linkage_strength": 5e-324},
            }
        ),
        encoding="utf-8",
    )
    result = _invoke(["identify", "--config", config_path])
    assert result.exit_code == 0, result.stderr


def test_an_output_directory_that_cannot_be_created_exits_two(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("in the way", encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"scenario": {"ticks_per_session": 100}}), encoding="utf-8")
    nested = tmp_path / "nested.json"
    nested.write_text(
        json.dumps({"scenario": {"ticks_per_session": 100}, "output_dir": str(blocker / "sub")}),
        encoding="utf-8",
    )
    written = _invoke(["transfer", "--config", config_path, "--out", tmp_path / "runs"])
    assert written.exit_code == 0, written.stderr
    (trace,) = (tmp_path / "runs").glob("*/trace.json")
    for args in (
        ["simulate", "--config", config_path, "--out", blocker],
        ["identify", "--config", config_path, "--out", blocker],
        ["simulate", "--config", nested],
        ["report", "--config", config_path, "--out", blocker, "--trace", trace],
    ):
        result = _invoke(args)
        assert result.exit_code == 2, (args, result.stderr)
        assert result.stderr.startswith("error: config: output_dir: cannot create "), args
        assert result.stderr.count("\n") == 1, args


@pytest.mark.parametrize(
    "command, name",
    [
        ("simulate", "config.json"),
        ("simulate", "expert.jsonl"),
        ("simulate", "learner.jsonl"),
        ("dataset", "dataset.csv"),
        ("identify", "network.json"),
        ("identify", "identify.txt"),
        ("transfer", "trace.csv"),
        ("transfer", "trace.json"),
        ("transfer", "curves.csv"),
        ("report", "report.txt"),
    ],
)
def test_an_output_file_whose_name_is_a_directory_exits_two(quick_config, command, name):
    if command == "report":
        assert _invoke(["transfer", "--config", quick_config]).exit_code == 0
    blocked = _run_dir(quick_config) / name
    blocked.mkdir(parents=True)
    result = _invoke([command, "--config", quick_config])
    assert result.exit_code == 2, result.stderr
    assert result.stderr == f"error: config: output_dir: cannot write {blocked}: Is a directory\n"


_COMMANDS = ("simulate", "dataset", "identify", "transfer", "report")


@pytest.mark.parametrize("ticks", [2**70, 2**63 - 1])
@pytest.mark.parametrize("command", _COMMANDS)
def test_more_ticks_than_the_bound_exit_two(tmp_path, command, ticks):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"scenario": {"ticks_per_session": ticks}}), encoding="utf-8")
    result = _invoke([command, "--config", config_path, "--out", tmp_path / "runs"])
    assert result.exit_code == 2, result.stderr
    assert result.stderr == (
        f"error: config: scenario.ticks_per_session: {ticks} is above the maximum {10**18}\n"
    )


#: The integer settings with a minimum and no maximum, by config path.
_UNBOUNDED_INTEGERS = ("seed", "dataset.window", "learning.max_parents", "transfer.max_iterations")


def _nested(path: str, value) -> dict:
    *sections, key = path.split(".")
    document = {key: value}
    for section in reversed(sections):
        document = {section: document}
    return document


@pytest.mark.parametrize("command", ["identify", "transfer"])
@pytest.mark.parametrize("path", _UNBOUNDED_INTEGERS)
def test_an_unbounded_integer_setting_of_two_to_the_63_never_exits_four(tmp_path, command, path):
    config_path = tmp_path / "config.json"
    document = {**_nested(path, 2**63), "scenario": {"ticks_per_session": 300}}
    config_path.write_text(json.dumps(document), encoding="utf-8")
    result = _invoke([command, "--config", config_path, "--out", tmp_path / "runs"])
    assert result.exit_code in (0, 2), result.stderr
    assert result.stderr.count("\n") == (result.exit_code == 2)


@pytest.mark.parametrize("seed", [0, 3])
def test_a_parent_cap_beyond_the_columns_learns_what_a_cap_of_eleven_learns(tmp_path, seed):
    networks = []
    for max_parents in (11, 2**63):
        config_path = tmp_path / f"config-{max_parents}.json"
        document = {"scenario": {"ticks_per_session": 300}, "seed": seed,
                    "learning": {"max_parents": max_parents}, "output_dir": str(tmp_path)}
        config_path.write_text(json.dumps(document), encoding="utf-8")
        result = _invoke(["identify", "--config", config_path])
        assert result.exit_code == 0, result.stderr
        networks.append((_run_dir(config_path) / "network.json").read_bytes())
    assert networks[0] == networks[1]


def test_a_session_too_long_to_fit_in_memory_exits_two(tmp_path):
    # 10**18 ticks ask for 8e18 bytes of uniforms at once, more than any
    # address space holds, so the request fails before memory is touched.
    config_path = tmp_path / "config.json"
    document = {"scenario": {"ticks_per_session": 10**18}}
    config_path.write_text(json.dumps(document), encoding="utf-8")
    result = _invoke(["simulate", "--config", config_path, "--out", tmp_path / "runs"])
    assert result.exit_code == 2, result.stderr
    assert result.stderr.startswith(
        "error: config: scenario.ticks_per_session: too long to fit in memory ("
    )
    assert result.stderr.count("\n") == 1
    assert not (tmp_path / "runs").exists()


def test_a_config_file_that_is_not_utf8_exits_two(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(b"\xff\xfe")
    result = _invoke(["simulate", "--config", config_path, "--out", tmp_path / "runs"])
    assert result.exit_code == 2, result.stderr
    assert result.stderr.startswith(f"error: config: document: cannot read {config_path} (")


def test_a_profile_file_that_is_not_utf8_exits_two(tmp_path):
    expert = _write_profile(tmp_path / "expert.json", profile_payload(table1_profiles()[0]))
    learner = tmp_path / "learner.json"
    learner.write_bytes(b"\xff\xfe")
    result = _simulate_with(
        tmp_path, {"profiles": {"expert_path": str(expert), "learner_path": str(learner)}}
    )
    assert result.exit_code == 2, result.stderr
    assert result.stderr.startswith("error: config: invalid profile document: ")


def test_a_profile_probability_beyond_the_float_range_exits_two(tmp_path):
    payload = profile_payload(table1_profiles()[0])
    payload["distributions"]["indoor"]["fighting"] = 10**400
    path = _write_profile(tmp_path / "huge.json", payload)
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "scenario": {"ticks_per_session": 10},
                "output_dir": str(tmp_path / "runs"),
                "profiles": {"expert_path": str(path), "learner_path": str(path)},
            }
        ),
        encoding="utf-8",
    )
    result = _invoke(["simulate", "--config", config_path])
    assert result.exit_code == 2, result.stderr
    assert result.stderr.startswith("error: config: invalid profile document:")



#: JSON text nested deeper than ``json.loads`` can decode: it raises ``RecursionError``.
_DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "text, reason",
    [
        pytest.param(_DEEP_JSON, "maximum recursion", id="nested-too-deep"),
        pytest.param('{"seed": ' + "9" * 5000 + "}", "Exceeds the limit", id="integer-too-long"),
    ],
)
def test_a_config_json_loads_cannot_decode_exits_two(tmp_path, text, reason):
    config_path = tmp_path / "config.json"
    config_path.write_text(text, encoding="utf-8")
    result = _invoke(["simulate", "--config", config_path, "--out", tmp_path / "runs"])
    assert result.exit_code == 2, result.stderr
    assert result.stderr.startswith(f"error: config: document: not valid JSON ({reason}")
    assert result.stderr.count("\n") == 1


def test_a_profile_nested_too_deep_to_parse_exits_two(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(
        '{"profile_id": "deep", "distributions": ' + _DEEP_JSON + "}", encoding="utf-8"
    )
    profiles = {"expert_path": str(path), "learner_path": str(path)}
    result = _simulate_with(tmp_path, {"profiles": profiles})
    assert result.exit_code == 2, result.stderr
    assert result.stderr.startswith("error: config: invalid profile document: maximum recursion")
    assert result.stderr.count("\n") == 1


def test_report_on_a_trace_nested_too_deep_to_parse_exits_three(quick_config, tmp_path):
    assert "RecursionError: maximum recursion" in _report_on(quick_config, tmp_path, _DEEP_JSON)


def test_an_output_directory_holding_a_nul_character_exits_two(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"scenario": {"ticks_per_session": 100}, "output_dir": "a\u0000b"}),
        encoding="utf-8",
    )
    result = _invoke(["simulate", "--config", config_path])
    assert result.exit_code == 2, result.stderr
    assert result.stderr.startswith("error: config: output_dir: cannot create a\0b")
    assert result.stderr.endswith(": embedded null byte\n")
    assert result.stderr.count("\n") == 1

_NOT_QUITE_JSON_PROFILES = [
    pytest.param(("distributions", "indoor"), {"fighting": True},
                 "indoor/fighting: expected a number, got True", id="bool-probability"),
    pytest.param(("distributions", "indoor"), {"fighting": "1e0"},
                 "indoor/fighting: expected a number, got '1e0'", id="string-probability"),
    pytest.param(("profile_id",), 12, "profile_id: expected a string, got 12",
                 id="integer-profile-id"),
]


def _learner_payload_with(path: tuple, value) -> dict:
    """The built-in learner's payload with the entry at ``path`` replaced by ``value``."""
    payload = profile_payload(table1_profiles()[1])
    *parents, last = path
    parent = payload
    for key in parents:
        parent = parent[key]
    parent[last] = value
    return payload


@pytest.mark.parametrize("path, value, needle", _NOT_QUITE_JSON_PROFILES)
def test_a_profile_file_is_read_as_strictly_as_a_trace(tmp_path, path, value, needle):
    expert = _write_profile(tmp_path / "expert.json", profile_payload(table1_profiles()[0]))
    learner = _write_profile(tmp_path / "learner.json", _learner_payload_with(path, value))
    result = _simulate_with(
        tmp_path, {"profiles": {"expert_path": str(expert), "learner_path": str(learner)}}
    )
    assert result.exit_code == 2, result.stderr
    assert result.stderr == f"error: config: invalid profile document: {needle}\n"


@pytest.mark.parametrize("path, value, needle", _NOT_QUITE_JSON_PROFILES)
def test_a_trace_learner_profile_is_read_strictly(quick_config, tmp_path, path, value, needle):
    expert = profile_payload(table1_profiles()[0])
    text = _trace_text(expert, _learner_payload_with(path, value))
    assert f"ValueError: {needle}" in _report_on(quick_config, tmp_path, text)


def _dead_fallback_files(tmp_path) -> dict:
    """Profile paths whose learner watched by a person faces soldiers, else rides.

    Without a soldier the watched key has no feasible behavior, and without
    a horse neither has the default key it falls back on.
    """
    learner = profile_payload(table1_profiles()[1])
    learner["distributions"]["person_facing"] = {"facing_sol": 1.0}
    learner["distributions"]["default"] = {"riding_hrs": 1.0}
    expert = profile_payload(table1_profiles()[0])
    return {
        "expert_path": str(_write_profile(tmp_path / "expert.json", expert)),
        "learner_path": str(_write_profile(tmp_path / "learner.json", learner)),
    }


@pytest.mark.parametrize("ticks", [0, 20])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_dead_fallback_row_fails_whatever_the_seed_and_length(tmp_path, seed, ticks):
    document = {
        "scenario": {"ticks_per_session": ticks},
        "profiles": _dead_fallback_files(tmp_path),
    }
    result = _simulate_with(tmp_path, document, "--seed", seed)
    assert result.exit_code == 2, result.stderr
    assert result.stderr == (
        "error: config: profile 'learner-table1': default condition has no feasible "
        "behavior for a context the scenario can produce\n"
    )


def test_report_on_a_trace_with_an_accuracy_beyond_the_float_range_exits_three(
    quick_config, tmp_path
):
    expert, learner = (profile_payload(p) for p in table1_profiles())
    text = _trace_text(expert, learner).replace('"accuracy": 0.9', f'"accuracy": {10**400}')
    assert "OverflowError" in _report_on(quick_config, tmp_path, text)


def _impossible_trace(**changes) -> str:
    """A two-iteration trace with ``changes`` applied to its iteration entries."""
    expert, learner = (profile_payload(p) for p in table1_profiles())
    document = json.loads(_trace_text(expert, learner))
    first = document["iterations"][0]
    document["iterations"].append({**first, "iteration": 2})
    for name, values in changes.items():
        for entry, value in zip(document["iterations"], values):
            entry[name] = value
    return json.dumps(document)


@pytest.mark.parametrize(
    "changes, needle",
    [
        pytest.param({"accuracy": [-0.5]}, "iteration 1 accuracy: -0.5 outside [0.0, 1.0]",
                     id="negative-accuracy"),
        pytest.param({"accuracy": [0.9, 7.0]}, "iteration 2 accuracy: 7.0 outside [0.0, 1.0]",
                     id="accuracy-above-one"),
        pytest.param({"accuracy": [float("nan")]}, "iteration 1 accuracy: nan outside [0.0, 1.0]",
                     id="nan-accuracy"),
        pytest.param({"divergence": [-1]}, "iteration 1 divergence: -1.0 outside [0.0, inf)",
                     id="negative-divergence"),
        pytest.param({"iteration": [-4]}, "iteration -4 recorded at position 1",
                     id="negative-iteration"),
        pytest.param({"iteration": [2, 1]}, "iteration 2 recorded at position 1",
                     id="reversed-iterations"),
        pytest.param({"iteration": [1.9]},
                     "iteration at position 1: expected an integer, got 1.9",
                     id="fractional-iteration"),
        pytest.param({"accuracy": ["0.5"]},
                     "accuracy at position 1: expected a number, got '0.5'",
                     id="string-accuracy"),
        pytest.param({"divergence": [0.1, True]},
                     "divergence at position 2: expected a number, got True",
                     id="bool-divergence"),
        pytest.param({"nudged_keys": [{"obstacle": 1}]},
                     "nudged_keys at position 1: expected a list of strings, got {'obstacle': 1}",
                     id="object-nudged-keys"),
        pytest.param({"targeted_attributes": [""]},
                     "targeted_attributes at position 1: expected a list of strings, got ''",
                     id="string-targeted-attributes"),
        pytest.param({"targeted_attributes": [[], {}]},
                     "targeted_attributes at position 2: expected a list of strings, got {}",
                     id="object-targeted-attributes"),
    ],
)
def test_report_on_an_impossible_trace_exits_three(quick_config, tmp_path, changes, needle):
    stderr = _report_on(quick_config, tmp_path, _impossible_trace(**changes))
    assert f"ValueError: {needle}" in stderr


def test_a_config_integer_beyond_the_float_range_is_out_of_range():
    huge = 10**400
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"transfer": {"learning_rate": huge, "stop_threshold": -huge}}))
    assert err.value.violations == [
        "transfer.learning_rate: inf outside (0.0, 1.0]",
        "transfer.stop_threshold: -inf outside [0.5, 1.0)",
    ]


@settings(max_examples=60, deadline=None)
@given(text=_config_documents(max_ticks=300, max_iterations=5, max_restarts=3))
def test_a_document_that_parses_never_exits_four(text):
    parse_config(text)
    with tempfile.TemporaryDirectory() as out:
        config_path = Path(out) / "config.json"
        config_path.write_text(text, encoding="utf-8")
        for command in ("simulate", "dataset", "identify", "transfer", "report"):
            result = _invoke([command, "--config", config_path, "--out", Path(out) / "runs"])
            assert result.exit_code in (0, 2, 3), (command, result.stderr)


_MUTANTS = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([10**400, -(10**400), 2**64, float("nan"), float("inf"), float("-inf")]),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.sampled_from(["a", "iteration"]), st.integers(-2, 2), max_size=1),
)
_DELETE = object()


@functools.cache
def _real_trace() -> str:
    expert, learner = table1_profiles()
    config = TransferConfig(scenario=replace(default_scenario(), ticks_per_session=200))
    return trace_to_json(run_transfer(expert, learner, config, seed=3))


def _mutate(document, data, mutants) -> None:
    """Delete 1-3 leaves of a JSON tree, or replace them by a drawn mutant."""
    for _ in range(data.draw(st.integers(1, 3))):
        *parents, last = data.draw(st.sampled_from([p for p in _leaves(document) if p]))
        parent = document
        for key in parents:
            parent = parent[key]
        mutant = data.draw(st.one_of(st.just(_DELETE), mutants))
        if mutant is _DELETE:
            del parent[last]
        else:
            parent[last] = mutant


def _leaves(node, path=()):
    """Paths to the scalar and empty-container leaves of a JSON tree."""
    if isinstance(node, (dict, list)) and node:
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(child, path + (key,))
    else:
        yield path


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_mutated_trace_never_exits_four(data):
    document = json.loads(_real_trace())
    _mutate(document, data, _MUTANTS)
    with tempfile.TemporaryDirectory() as out:
        trace_path = Path(out) / "trace.json"
        trace_path.write_text(json.dumps(document), encoding="utf-8")
        config_path = Path(out) / "config.json"
        config_path.write_text("{}", encoding="utf-8")
        result = _invoke(
            ["report", "--config", config_path, "--out", Path(out) / "runs", "--trace", trace_path]
        )
    assert result.exit_code in (0, 3), result.stderr


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_mutated_profile_file_never_exits_four(data):
    subnormals = st.sampled_from([5e-324, 1e-310, -5e-324])
    which = data.draw(st.sampled_from(["expert", "learner"]))
    with tempfile.TemporaryDirectory() as out:
        paths = {}
        for name, profile in zip(("expert", "learner"), table1_profiles()):
            document = profile_payload(profile)
            if name == which:
                _mutate(document, data, st.one_of(_MUTANTS, subnormals))
            paths[name] = _write_profile(Path(out) / f"{name}.json", document)
        config_path = Path(out) / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "scenario": {"ticks_per_session": 50},
                    "profiles": {
                        "expert_path": str(paths["expert"]),
                        "learner_path": str(paths["learner"]),
                    },
                }
            ),
            encoding="utf-8",
        )
        result = _invoke(["simulate", "--config", config_path, "--out", Path(out) / "runs"])
    assert result.exit_code in (0, 2), result.stderr
