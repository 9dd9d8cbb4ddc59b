"""The columnar session log: its records view, validation, and the JSONL codec."""

from __future__ import annotations

import copy
import json
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skilltransfer import behavior_data
from skilltransfer.behavior_data import (
    CONTEXT_FIELDS,
    CONTEXTS,
    FEASIBILITY,
    FEASIBILITY_REQUIREMENTS,
    PLAYERS,
    AttributeId,
    BehaviorRecord,
    PlayerId,
    SessionLog,
    Violation,
    is_feasible,
    read_session_jsonl,
    record_from_json,
    record_to_json,
    validate_session,
    write_session_jsonl,
)
from skilltransfer.game_domain import run_session


def _reference_violations(player: PlayerId, records) -> list[Violation]:
    """validate_session as the per-record loop the column masks replaced."""
    violations: list[Violation] = []
    previous_tick: int | None = None
    for record in records:
        if previous_tick is not None and record.tick <= previous_tick:
            violations.append(
                Violation(
                    tick=record.tick,
                    rule="tick_order",
                    message=f"tick {record.tick} does not increase past {previous_tick}",
                )
            )
        previous_tick = record.tick
        if record.player is not player:
            violations.append(
                Violation(
                    tick=record.tick,
                    rule="player_mismatch",
                    message=(
                        f"record belongs to {record.player.value}, "
                        f"log belongs to {player.value}"
                    ),
                )
            )
        if not is_feasible(record.behavior, record.context):
            needs = FEASIBILITY_REQUIREMENTS.get(record.behavior, ())
            violations.append(
                Violation(
                    tick=record.tick,
                    rule="infeasible_behavior",
                    message=(
                        f"{record.behavior.column} requires "
                        f"{', '.join(needs) if needs else 'an event attribute'}"
                    ),
                )
            )
    return violations


def _reference_line(record: BehaviorRecord) -> str:
    payload = {
        "tick": record.tick,
        "player": record.player.value,
        "context": {f: getattr(record.context, f) for f in CONTEXT_FIELDS},
        "behavior": record.behavior.column,
    }
    return json.dumps(payload, separators=(", ", ": "))


# Tick steps from -2 to 3 give repeated and falling ticks as well as rising
# ones; any player, context and behavior (LOCATION included) can turn up.
_streams = st.lists(
    st.tuples(
        st.integers(min_value=-2, max_value=3),
        st.sampled_from(PLAYERS),
        st.sampled_from(CONTEXTS),
        st.sampled_from(list(AttributeId)),
    ),
    max_size=30,
)


def _records(stream, first_tick: int) -> list[BehaviorRecord]:
    records, tick = [], first_tick
    for step, player, context, behavior in stream:
        tick += step
        records.append(BehaviorRecord(player, tick, context, behavior))
    return records


@settings(max_examples=200, deadline=None)
@given(
    player=st.sampled_from(PLAYERS),
    stream=_streams,
    first_tick=st.integers(min_value=-5, max_value=5),
    data=st.data(),
)
def test_columnar_log_agrees_with_its_record_stream(
    tmp_path_factory, player, stream, first_tick, data
):
    records = _records(stream, first_tick)
    log = SessionLog(player=player, seed=4, scenario_id="prop", records=records)
    view = log.records

    assert view == tuple(records)
    assert tuple(records) == view
    assert list(view) == records
    assert len(view) == len(records)
    n = len(records)
    start, stop = (data.draw(st.integers(min_value=-n - 2, max_value=n + 2)) for _ in "ab")
    step = data.draw(st.sampled_from([None, 1, 2, -1, -3]))
    assert view[start:stop:step] == tuple(records[start:stop:step])
    assert len(view[start:stop:step]) == len(records[start:stop:step])
    if records:
        index = data.draw(st.integers(min_value=-n, max_value=n - 1))
        assert view[index] == records[index]

    assert validate_session(log) == _reference_violations(player, records)

    path = tmp_path_factory.getbasetemp() / "property-log.jsonl"
    write_session_jsonl(log, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == [record_to_json(r) for r in records]
    assert lines == [_reference_line(r) for r in records]
    assert [record_from_json(line) for line in lines] == records
    assert read_session_jsonl(path, player=player, seed=4, scenario_id="prop") == log


def test_logs_compare_by_value():
    records = _records([(1, PlayerId.ID1, CONTEXTS[5], AttributeId.FIGHTING)] * 3, 0)
    log = SessionLog(player=PlayerId.ID1, seed=1, scenario_id="s", records=records)
    assert log == SessionLog(player=PlayerId.ID1, seed=1, scenario_id="s", records=records)
    assert log != SessionLog(player=PlayerId.ID2, seed=1, scenario_id="s", records=records)
    assert log != SessionLog(player=PlayerId.ID1, seed=2, scenario_id="s", records=records)
    assert log != SessionLog(player=PlayerId.ID1, seed=1, scenario_id="s", records=records[1:])
    assert log.records != tuple(records[:2])
    assert log.records != list(records)


def test_simulated_log_columns(base_scenario, table1_pair):
    expert, _ = table1_pair
    log = run_session(replace(base_scenario, ticks_per_session=300), expert, PlayerId.ID1, 8)
    columns = (log.ticks, log.players, log.contexts, log.behaviors)
    assert [c.dtype for c in columns] == [np.int64, np.int8, np.uint8, np.int8]
    assert not any(c.flags.writeable for c in columns)
    assert log.ticks.tolist() == list(range(300))
    assert set(log.players.tolist()) == {PLAYERS.index(PlayerId.ID1)}
    assert (log.contexts & 1).astype(bool).tolist() == [
        r.context.location_indoor for r in log.records
    ]
    rebuilt = SessionLog(
        player=log.player, seed=log.seed, scenario_id=log.scenario_id, records=tuple(log.records)
    )
    assert rebuilt == log
    for column in columns:
        with pytest.raises(ValueError):
            column[0] = 1


def _columns(n: int = 3, **overrides) -> dict[str, np.ndarray]:
    columns = {
        "ticks": np.arange(n),
        "players": np.zeros(n, dtype=np.int64),
        "contexts": np.zeros(n, dtype=np.int64),
        "behaviors": np.full(n, AttributeId.MOVEMENT.value),
    }
    columns.update(overrides)
    return columns


@pytest.mark.parametrize(
    "name, bad",
    [
        ("players", -1),
        ("players", len(PLAYERS)),
        ("contexts", -1),
        ("contexts", len(CONTEXTS)),
        ("behaviors", 0),
        ("behaviors", max(a.value for a in AttributeId) + 1),
    ],
)
def test_log_columns_reject_out_of_range_codes(name, bad):
    column = _columns()[name].copy()
    column[-1] = bad
    with pytest.raises(ValueError, match=f"{name} codes outside"):
        SessionLog(PlayerId.ID1, 0, "t", **_columns(**{name: column}))


def test_log_columns_must_be_one_length_of_integers():
    with pytest.raises(ValueError, match="unequal lengths"):
        SessionLog(PlayerId.ID1, 0, "t", **_columns(contexts=np.zeros(2, dtype=np.int64)))
    with pytest.raises(ValueError, match="integers"):
        SessionLog(PlayerId.ID1, 0, "t", **_columns(ticks=np.arange(3.0)))
    with pytest.raises(ValueError, match="one-dimensional"):
        SessionLog(PlayerId.ID1, 0, "t", **_columns(players=np.zeros((3, 1), dtype=int)))
    with pytest.raises(ValueError, match="either records or all four columns"):
        SessionLog(PlayerId.ID1, 0, "t")
    with pytest.raises(ValueError, match="either records or all four columns"):
        SessionLog(PlayerId.ID1, 0, "t", records=(), **_columns(0))
    partial = _columns()
    del partial["behaviors"]
    with pytest.raises(ValueError, match="either records or all four columns"):
        SessionLog(PlayerId.ID1, 0, "t", **partial)
    log = SessionLog(PlayerId.ID1, 0, "t", **_columns())
    assert validate_session(log) == []


def test_len_and_slices_of_the_records_view_decode_nothing(
    monkeypatch, base_scenario, table1_pair
):
    expert, _ = table1_pair
    scenario = replace(base_scenario, ticks_per_session=100_000)
    log = run_session(scenario, expert, PlayerId.ID1, seed=3)

    def no_decoding(*args, **kwargs):
        raise AssertionError("a record was decoded")

    monkeypatch.setattr(behavior_data, "BehaviorRecord", no_decoding)
    assert len(log.records) == 100_000
    assert len(log.records[10:-10]) == 99_980
    # The patched builder is the one indexing goes through.
    with pytest.raises(AssertionError, match="decoded"):
        log.records[0]


def test_feasibility_table_agrees_with_is_feasible():
    assert not FEASIBILITY[0].any()
    assert not FEASIBILITY.flags.writeable
    for behavior in AttributeId:
        assert FEASIBILITY[behavior.value].tolist() == [
            is_feasible(behavior, context) for context in CONTEXTS
        ]


def test_logs_survive_pickling_and_copying(base_scenario, table1_pair):
    expert, _ = table1_pair
    log = run_session(replace(base_scenario, ticks_per_session=50), expert, PlayerId.ID1, 2)
    for clone in (pickle.loads(pickle.dumps(log)), copy.copy(log), copy.deepcopy(log)):
        assert clone == log
        assert not clone.behaviors.flags.writeable
