"""The session log: its packed record array, validation, and the JSONL codec."""

from __future__ import annotations

import copy
import json
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from record_logs import Record, feasible, log_of, records_of
from skilltransfer import behavior_data
from skilltransfer.behavior_data import (
    CONTEXT_FIELDS,
    CONTEXTS,
    FEASIBILITY,
    FEASIBILITY_REQUIREMENTS,
    PLAYERS,
    RECORD_DTYPE,
    AttributeId,
    PlayerId,
    SessionLog,
    Violation,
    read_session_jsonl,
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
        if not feasible(record.behavior, record.context):
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


def _reference_line(record: Record) -> str:
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


def _records(stream, first_tick: int) -> list[Record]:
    records, tick = [], first_tick
    for step, player, context, behavior in stream:
        tick += step
        records.append(Record(player, tick, context, behavior))
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
    log = log_of(records, player)

    assert records_of(log) == tuple(records)
    assert len(log.records) == len(records)
    n = len(records)
    start, stop = (data.draw(st.integers(min_value=-n - 2, max_value=n + 2)) for _ in "ab")
    step = data.draw(st.sampled_from([None, 1, 2, -1, -3]))
    sliced = log_of(records[start:stop:step], player)
    assert np.array_equal(log.records[start:stop:step], sliced.records)
    if records:
        index = data.draw(st.integers(min_value=-n, max_value=n - 1))
        assert log.records[index] == log_of([records[index]], player).records[0]

    assert validate_session(log) == _reference_violations(player, records)

    path = tmp_path_factory.getbasetemp() / "property-log.jsonl"
    write_session_jsonl(log, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == [_reference_line(r) for r in records]
    parsed = [behavior_data._parse_line(line) for line in lines]
    assert [
        Record(PLAYERS[p], tick, CONTEXTS[c], AttributeId(b)) for tick, p, c, b in parsed
    ] == records
    assert read_session_jsonl(path, player=player) == log


def test_logs_compare_by_value():
    records = _records([(1, PlayerId.ID1, CONTEXTS[5], AttributeId.FIGHTING)] * 3, 0)
    log = log_of(records, PlayerId.ID1)
    assert log == log_of(records, PlayerId.ID1)
    assert log != log_of(records, PlayerId.ID2)
    assert log != log_of(records[1:], PlayerId.ID1)


def test_simulated_log_columns(base_scenario, table1_pair):
    expert, _ = table1_pair
    log = run_session(replace(base_scenario, ticks_per_session=300), expert, PlayerId.ID1, 8)
    columns = (log.ticks, log.players, log.contexts, log.behaviors)
    assert [c.dtype for c in columns] == [np.int64, np.int8, np.uint8, np.int8]
    assert not any(c.flags.writeable for c in columns)
    assert log.ticks.tolist() == list(range(300))
    assert set(log.players.tolist()) == {PLAYERS.index(PlayerId.ID1)}
    assert (log.contexts & 1).astype(bool).tolist() == [
        r.context.location_indoor for r in records_of(log)
    ]
    rebuilt = log_of(records_of(log), log.player)
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
        SessionLog(PlayerId.ID1, **_columns(**{name: column}))


def test_log_columns_must_be_one_length_of_integers():
    with pytest.raises(ValueError, match="unequal lengths"):
        SessionLog(PlayerId.ID1, **_columns(contexts=np.zeros(2, dtype=np.int64)))
    with pytest.raises(ValueError, match="integers"):
        SessionLog(PlayerId.ID1, **_columns(ticks=np.arange(3.0)))
    with pytest.raises(ValueError, match="one-dimensional"):
        SessionLog(PlayerId.ID1, **_columns(players=np.zeros((3, 1), dtype=int)))
    with pytest.raises(TypeError, match="ticks"):
        SessionLog(PlayerId.ID1)
    with pytest.raises(TypeError, match="records"):
        SessionLog(PlayerId.ID1, records=(), **_columns(0))
    partial = _columns()
    del partial["behaviors"]
    with pytest.raises(TypeError, match="behaviors"):
        SessionLog(PlayerId.ID1, **partial)
    log = SessionLog(PlayerId.ID1, **_columns())
    assert validate_session(log) == []


def test_a_log_is_one_read_only_record_array(base_scenario, table1_pair):
    expert, _ = table1_pair
    log = run_session(replace(base_scenario, ticks_per_session=1000), expert, PlayerId.ID1, 3)
    records = log.records
    assert isinstance(records, np.ndarray)
    assert records.dtype == RECORD_DTYPE
    assert records.dtype.itemsize == 11
    assert records.dtype.names == ("ticks", "players", "contexts", "behaviors")
    assert not records.flags.writeable
    with pytest.raises(ValueError):
        records[0] = records[1]
    for name in records.dtype.names:
        column = getattr(log, name)
        assert np.shares_memory(column, records)
        assert np.array_equal(column, records[name])
    part = records[10:-10]
    assert np.shares_memory(part, records)
    assert len(part) == 980
    assert not part.flags.writeable

    columns = {name: records[name] for name in records.dtype.names}
    assert SessionLog(PlayerId.ID1, **columns) == log
    assert SessionLog(PlayerId.ID2, **columns) != log
    assert SessionLog(PlayerId.ID1, **{**columns, "ticks": records["ticks"] + 1}) != log

    empty = run_session(replace(base_scenario, ticks_per_session=0), expert, PlayerId.ID1, 3)
    assert empty.records.dtype == RECORD_DTYPE
    assert len(empty.records) == 0
    assert empty == SessionLog(PlayerId.ID1, **{n: c[:0] for n, c in columns.items()})
    assert empty != SessionLog(PlayerId.ID2, **{n: c[:0] for n, c in columns.items()})
    assert empty != log


def test_feasibility_table_agrees_with_the_requirements():
    assert not FEASIBILITY[0].any()
    assert not FEASIBILITY.flags.writeable
    for behavior in AttributeId:
        assert FEASIBILITY[behavior.value].tolist() == [
            feasible(behavior, context) for context in CONTEXTS
        ]


def test_logs_survive_pickling_and_copying(base_scenario, table1_pair):
    expert, _ = table1_pair
    log = run_session(replace(base_scenario, ticks_per_session=50), expert, PlayerId.ID1, 2)
    for clone in (pickle.loads(pickle.dumps(log)), copy.copy(log), copy.deepcopy(log)):
        assert clone == log
        assert not clone.behaviors.flags.writeable


def _reference_read(path, *, player=None):
    """read_session_jsonl as it was before canonical lines decoded by lookup."""
    with open(path, encoding="utf-8") as handle:
        rows = [behavior_data._parse_line(line) for line in handle if line.strip()]
    if player is None:
        if not rows:
            raise ValueError(f"{path}: empty session file and no player given")
        player = PLAYERS[rows[0][1]]
    columns = np.array(rows, dtype=np.int64).reshape(len(rows), 4).T
    names = ("ticks", "players", "contexts", "behaviors")
    return SessionLog(player, **dict(zip(names, columns)))


_INT64_MAX = 2**63 - 1

#: Tick texts: the JSON integer grammar's canonical form at the int64
#: edges, and what ``json.loads`` or ``int`` reads otherwise or rejects.
_tick_texts = st.one_of(
    st.integers(min_value=-(10**18), max_value=10**18).map(str),
    st.sampled_from(
        [
            "0", "-0", "007", "-01", "1.0", "1e3", "2E1", " 5", "5 ", "true", "null", '"5"',
            "+5", "1_000", "\u0663", "999999999999999999", "-999999999999999999",
            "1000000000000000000", str(_INT64_MAX), str(_INT64_MAX + 1), str(2**64),
            str(-_INT64_MAX - 1), str(-_INT64_MAX - 2), "9" * 30,
        ]
    ),
)

#: Context flag values, JSON booleans or not; the readers accept only booleans.
_flag_values = st.sampled_from([True, False, 1, 0, "x", "", None, [], [0], 0.0, 2.5])


@st.composite
def _near_canonical_line(draw) -> str:
    """One JSONL line without its terminator: canonical, or close to it."""
    tick = draw(_tick_texts)
    player = draw(st.integers(0, len(PLAYERS) - 1))
    context = draw(st.integers(0, len(CONTEXTS) - 1))
    behavior = draw(st.sampled_from(list(AttributeId))).value
    canonical = behavior_data._json_line(0, player, context, behavior)
    suffix = canonical[canonical.index(",") :]
    line = '{"tick": ' + tick + suffix
    variants = ["spaces", "reordered", "duplicate", "flags", "case", "player", "junk"]
    kind = draw(st.sampled_from(["canonical"] * len(variants) + variants))
    if kind == "spaces":
        at = draw(st.sampled_from(["{", ":", ",", "}"]))
        spaced = line.replace(at, at + " ", 1) if at != "}" else line + " "
        line = draw(st.sampled_from([spaced, " " + line, line.replace(": ", ":")]))
    elif kind == "reordered":
        payload = json.loads(canonical)
        order = draw(st.permutations(["tick", "player", "context", "behavior"]))
        reordered = json.dumps({key: payload[key] for key in order})
        line = reordered.replace('"tick": 0', '"tick": ' + tick)
    elif kind == "duplicate":
        other = draw(_tick_texts)
        line = draw(
            st.sampled_from(
                [
                    '{"tick": ' + other + ", " + line[1:],
                    line[:-1] + ', "tick": ' + other + "}",
                    line[:-1] + ', "player": "ID' + str(2 - player) + '"}',
                ]
            )
        )
    elif kind == "flags":
        payload = json.loads(canonical)
        for field in CONTEXT_FIELDS:
            if draw(st.booleans()):
                payload["context"][field] = draw(_flag_values)
        line = '{"tick": ' + tick + json.dumps(payload)[len('{"tick": 0') :]
    elif kind == "case":
        name = AttributeId(behavior).column
        cased = draw(st.sampled_from([name.upper(), name.title()]))
        line = line.replace(f'"{name}"}}', f'"{cased}"}}')
    elif kind == "player":
        other = draw(st.sampled_from(['"ID3"', '"id1"', "1", "null"]))
        line = line.replace(f'"player": "{PLAYERS[player].value}"', f'"player": {other}')
    elif kind == "junk":
        line = draw(st.sampled_from(["not json", "{}", '{"tick": 5}', "[]", line[:-1], line + "x"]))
    return line


_session_files = st.lists(
    st.tuples(
        st.one_of(_near_canonical_line(), st.sampled_from(["", "   ", "\t"])),
        st.sampled_from(["\n", "\r\n", "\r"]),
    ),
    max_size=8,
)


def _outcome(read, path, **kwargs):
    try:
        return read(path, **kwargs)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(
    lines=_session_files,
    drop_last_terminator=st.booleans(),
    player=st.sampled_from([None, *PLAYERS]),
)
def test_jsonl_reader_agrees_with_the_json_loads_reader(
    tmp_path_factory, lines, drop_last_terminator, player
):
    text = "".join(line + end for line, end in lines)
    if drop_last_terminator and lines:
        text = text[: -len(lines[-1][1])]
    path = tmp_path_factory.getbasetemp() / "near-canonical.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    assert _outcome(read_session_jsonl, path, player=player) == _outcome(
        _reference_read, path, player=player
    )


def test_jsonl_decoding_table_covers_every_parsed_triple():
    suffixes, triples, table = behavior_data._line_table()
    assert len(suffixes) == len(triples) == table.shape[1] == 2 * 128 * 10
    assert not table.flags.writeable
    for suffix, key in suffixes.items():
        assert behavior_data._parse_line('{"tick": 0,' + suffix)[1:] == tuple(table[:, key])
    for triple, key in triples.items():
        assert triple == tuple(table[:, key])


@pytest.mark.parametrize(
    "tick, soldier, message",
    [
        (5.7, True, "tick: expected an integer, got 5.7"),
        (True, True, "tick: expected an integer, got True"),
        (5, "no", "context.soldier_present: expected true or false, got 'no'"),
    ],
)
def test_jsonl_reader_rejects_non_integer_ticks_and_non_boolean_flags(
    tmp_path, tick, soldier, message
):
    # These read as tick 5, tick 1 and a present soldier, so the facing_sol
    # line passed validation with no soldier in sight.
    context = next(code for code, c in enumerate(CONTEXTS) if c.soldier_present)
    payload = json.loads(behavior_data._json_line(5, 0, context, AttributeId.FACING_SOL.value))
    payload["tick"] = tick
    payload["context"]["soldier_present"] = soldier
    path = tmp_path / "session.jsonl"
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_session_jsonl(path)
    assert str(err.value) == message


def _one_line_log(tmp_path, tick: int):
    path = tmp_path / "session.jsonl"
    line = behavior_data._json_line(tick, 0, 0, AttributeId.MOVEMENT.value)
    path.write_text(line + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("tick", [_INT64_MAX, -_INT64_MAX - 1])
def test_jsonl_ticks_at_the_int64_edges_read_back(tmp_path, tick):
    assert read_session_jsonl(_one_line_log(tmp_path, tick)).ticks.tolist() == [tick]


@pytest.mark.parametrize("tick", [_INT64_MAX + 1, -_INT64_MAX - 2, 10**30])
def test_jsonl_reader_rejects_ticks_outside_int64(tmp_path, tick):
    # These raised OverflowError when the tick column was built.
    with pytest.raises(ValueError) as err:
        read_session_jsonl(_one_line_log(tmp_path, tick))
    assert str(err.value) == f"tick: {tick} does not fit int64"
