"""The session log: its packed record array, validation, and the JSONL codec."""

from __future__ import annotations

import copy
import io
import json
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
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
from skilltransfer.cli import main
from skilltransfer.config import parse_config, resolve_profiles
from skilltransfer.game_domain import run_session, simulate_pair


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


def test_log_ticks_must_fit_int64():
    top = np.array([2**63 - 1], dtype=np.uint64)
    log = SessionLog(PlayerId.ID1, **_columns(1, ticks=top))
    assert log.ticks.dtype == np.int64
    assert log.ticks.tolist() == [2**63 - 1]
    with pytest.raises(ValueError, match="ticks codes outside the int64 range"):
        SessionLog(PlayerId.ID1, **_columns(1, ticks=top + 1))


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


@pytest.mark.parametrize("ticks", [0, 1, 7, 2000])
def test_a_simulated_log_equals_the_checked_log_of_its_columns(base_scenario, table1_pair, ticks):
    # run_session adopts its records unchecked; the checked constructor must
    # accept their columns and give back the same log.
    scenario = replace(base_scenario, ticks_per_session=ticks)
    for player, profile in zip(PLAYERS, table1_pair):
        for seed in (0, 1, 17, 2**32 - 1):
            log = run_session(scenario, profile, player, seed)
            columns = {name: log.records[name].copy() for name in RECORD_DTYPE.names}
            assert log == SessionLog(player, **columns)
            assert log.ticks.tolist() == list(range(ticks))
            assert (log.players == PLAYERS.index(player)).all()
            assert log.records.dtype == RECORD_DTYPE
            assert not log.records.flags.writeable
            for name in RECORD_DTYPE.names:
                assert not getattr(log, name).flags.writeable


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
    record = Record(PLAYERS[player], 0, CONTEXTS[context], AttributeId(behavior))
    canonical = _reference_line(record)
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
        # Cut after its first comma, a line leaves an empty tail.
        cut = line[: line.index(",") + 1]
        junk = ["not json", "{}", '{"tick": 5}', "[]", line[:-1], line + "x", cut]
        line = draw(st.sampled_from(junk))
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
@example(lines=[('{"tick": 5,', "\n")], drop_last_terminator=True, player=None)
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


@settings(max_examples=400, deadline=None)
@example(lines=[('{"tick": 5,', "\n")], drop_last_terminator=True, player=None)
@given(
    lines=_session_files,
    drop_last_terminator=st.booleans(),
    player=st.sampled_from([None, *PLAYERS]),
)
def test_jsonl_reader_agrees_with_the_json_loads_reader_in_64_byte_blocks(
    tmp_path_factory, lines, drop_last_terminator, player
):
    # Shorter than any canonical line, so every line straddles a block edge.
    agree = test_jsonl_reader_agrees_with_the_json_loads_reader.hypothesis.inner_test
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(behavior_data, "_READ_BYTES", 64)
        agree(tmp_path_factory, lines, drop_last_terminator, player)


def test_jsonl_line_table_holds_every_triple_once(tmp_path, monkeypatch):
    grids = np.meshgrid(
        np.arange(len(PLAYERS)),
        np.arange(len(CONTEXTS)),
        [a.value for a in AttributeId],
        indexing="ij",
    )
    players, contexts, behaviors = (grid.ravel() for grid in grids)
    log = SessionLog(
        PlayerId.ID1,
        ticks=np.arange(len(players)),
        players=players,
        contexts=contexts,
        behaviors=behaviors,
    )
    assert len(log.ticks) == 2 * 128 * 10
    path = tmp_path / "session.jsonl"
    write_session_jsonl(log, path)
    want = "".join(_reference_line(record) + "\n" for record in records_of(log))
    assert path.read_bytes().decode("utf-8") == want

    texts = behavior_data._line_table()
    assert len(texts) == 2 * 128 * 11
    nonempty = {text: i for i, text in enumerate(texts) if text}
    assert len(nonempty) == len(log.ticks)
    triples = {}
    for text, i in nonempty.items():
        triples[i] = tuple(int(k) for k in np.unravel_index(i, (2, 128, 11)))
        assert behavior_data._parse_line('{"tick": 0,' + text.decode())[1:] == triples[i]
    # Every line decodes by blocks, without the general parser: the whole
    # log at once, and each slot's line as a file of its own.
    monkeypatch.setattr(behavior_data, "_parse_line", None)
    assert read_session_jsonl(path) == log
    one = tmp_path / "one.jsonl"
    for text, i in nonempty.items():
        one.write_bytes(b'{"tick": %d,%b' % (i, text))
        read = read_session_jsonl(one)
        assert read.ticks.tolist() == [i]
        assert (read.players[0], read.contexts[0], read.behaviors[0]) == triples[i]


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
    record = Record(PLAYERS[0], 5, CONTEXTS[context], AttributeId.FACING_SOL)
    payload = json.loads(_reference_line(record))
    payload["tick"] = tick
    payload["context"]["soldier_present"] = soldier
    path = tmp_path / "session.jsonl"
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_session_jsonl(path)
    assert str(err.value) == message


def _one_line_log(tmp_path, tick: int):
    path = tmp_path / "session.jsonl"
    line = _reference_line(Record(PLAYERS[0], tick, CONTEXTS[0], AttributeId.MOVEMENT))
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


def _writer_edge_log(n_lines: int) -> SessionLog:
    """A log of ``n_lines`` seeded rows.

    Its ticks take both int64 edges and negative values, and its rows take
    both players, every context code and every behavior value, as far as
    ``n_lines`` leaves room.
    """
    rng = np.random.default_rng(n_lines)
    ticks = rng.integers(-_INT64_MAX - 1, _INT64_MAX, n_lines, endpoint=True, dtype=np.int64)
    edges = np.array([-_INT64_MAX - 1, _INT64_MAX, -1, 0], dtype=np.int64)
    ticks[: len(edges)] = edges[:n_lines]
    spread = lambda values: rng.permutation(np.resize(values, n_lines))
    return SessionLog(
        PlayerId.ID2,
        ticks=rng.permutation(ticks),
        players=spread(np.arange(len(PLAYERS))),
        contexts=spread(np.arange(len(CONTEXTS))),
        behaviors=spread([a.value for a in AttributeId]),
    )


@pytest.mark.parametrize("n_lines", [0, 1, 1023, 1024, 1025, 2049])
def test_jsonl_writer_matches_json_dumps_across_block_edges(tmp_path, n_lines):
    log = _writer_edge_log(n_lines)
    if n_lines > len(CONTEXTS):
        assert set(log.players.tolist()) == {0, 1}
        assert set(log.contexts.tolist()) == set(range(len(CONTEXTS)))
        assert set(log.behaviors.tolist()) == {a.value for a in AttributeId}
        assert {-_INT64_MAX - 1, _INT64_MAX, -1} <= set(log.ticks.tolist())
    path = tmp_path / "session.jsonl"
    write_session_jsonl(log, path)
    want = "".join(_reference_line(record) + "\n" for record in records_of(log))
    assert path.read_bytes().decode("utf-8") == want
    assert read_session_jsonl(path, player=log.player) == log


def _log_of_size(size: int) -> SessionLog:
    """A log whose JSONL file is exactly ``size`` bytes; ``size`` is 64 KB or more.

    Its rows cycle through every line slot in a seeded order. Its ticks, of
    both signs, take from 1 to 19 digits to make up the length.
    """
    texts = behavior_data._line_table()
    rng = np.random.default_rng(size)
    choice = random.Random(size)
    n = size // 256
    flat = rng.permutation(np.resize([i for i, text in enumerate(texts) if text], n))
    extra = size - sum(len('{"tick": 0,') + len(texts[i]) for i in flat)
    assert 0 <= extra <= 18 * n
    ticks = []
    for chars in 1 + extra // n + (np.arange(n) < extra % n):
        negative = chars > 1 and choice.random() < 0.5
        digits = chars - negative
        low, high = (10 ** (digits - 1) if digits > 1 else 0), 10**digits
        tick = choice.randrange(low, min(high, 2**63 + negative))
        ticks.append(-tick if negative else tick)
    players, contexts, behaviors = np.unravel_index(flat, (2, 128, 11))
    return SessionLog(
        PLAYERS[players[0]],
        ticks=np.array(ticks, dtype=np.int64),
        players=players,
        contexts=contexts,
        behaviors=behaviors,
    )


def _with_tick(line: str, tick: str) -> str:
    return '{"tick": ' + tick + line[line.index(",") :]


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_jsonl_reader_across_read_block_edges(tmp_path, blocks, offset):
    size = blocks * behavior_data._READ_BYTES + offset
    log = _log_of_size(size)
    path = tmp_path / "session.jsonl"
    write_session_jsonl(log, path)
    assert path.stat().st_size == size
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(behavior_data, "_parse_line", None)
        assert read_session_jsonl(path) == log

    text = path.read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    ends = np.cumsum([len(line) for line in lines])
    middle = int(np.searchsorted(ends, size // 2, side="right"))
    spaced = lambda line: "{ " + line[1:]
    edits = {
        "space in the first block": (0, spaced),
        "space in a middle block": (middle, spaced),
        "space in the last block": (len(lines) - 1, spaced),
        "19-digit tick": (middle, lambda line: _with_tick(line, str(_INT64_MAX))),
        "tick past int64": (middle, lambda line: _with_tick(line, str(_INT64_MAX + 1))),
    }
    edited = {"crlf": text.replace("\n", "\r\n"), "no final newline": text[:-1]}
    for name, (at, change) in edits.items():
        edited[name] = "".join([*lines[:at], change(lines[at]), *lines[at + 1 :]])
    outcomes = {}
    for name, content in edited.items():
        path.write_text(content, encoding="utf-8", newline="")
        outcomes[name] = _outcome(read_session_jsonl, path)
        assert outcomes[name] == _outcome(_reference_read, path), name
    assert outcomes["tick past int64"] == (ValueError, f"tick: {_INT64_MAX + 1} does not fit int64")
    # A 19-digit tick is canonical, so its file still decodes by blocks alone.
    path.write_text(edited["19-digit tick"], encoding="utf-8")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(behavior_data, "_parse_line", None)
        assert read_session_jsonl(path).ticks[middle] == _INT64_MAX


def _block_firsts(lines: list[str]) -> list[int]:
    """The first line of each block read_session_jsonl reads, and the line count last.

    A block ends at the first line end at least ``_READ_BYTES`` past its start.
    """
    ends = np.cumsum([len(line.encode()) for line in lines])
    firsts = [0]
    while firsts[-1] < len(lines):
        start = ends[firsts[-1] - 1] if firsts[-1] else 0
        last = int(np.searchsorted(ends, start + behavior_data._READ_BYTES))
        firsts.append(min(last + 1, len(lines)))
    return firsts


def test_jsonl_reader_parses_lines_only_in_the_blocks_that_fail(
    tmp_path, base_scenario, table1_pair, monkeypatch
):
    expert, _ = table1_pair
    log = run_session(replace(base_scenario, ticks_per_session=20_000), expert, PlayerId.ID1, 6)
    path = tmp_path / "session.jsonl"
    write_session_jsonl(log, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    parsed = []
    parse_line = behavior_data._parse_line

    def counted(line):
        parsed.append(line)
        return parse_line(line)

    spaced = lambda line: "{ " + line[1:]
    for at in (0, len(lines) // 2, len(lines) - 1):
        edited = [*lines[:at], spaced(lines[at]), *lines[at + 1 :]]
        path.write_text("".join(edited), encoding="utf-8")
        want = _reference_read(path)
        parsed.clear()
        with monkeypatch.context() as patch:
            patch.setattr(behavior_data, "_parse_line", counted)
            assert read_session_jsonl(path) == want == log
        firsts = _block_firsts(edited)
        block = int(np.searchsorted(firsts, at, side="right")) - 1
        assert parsed == edited[firsts[block] : firsts[block + 1]], at

    # A later bad line or byte gives the error the text reader meets first.
    middle, later = len(lines) // 2, len(lines) * 3 // 4
    edited = [*lines[:middle], spaced(lines[middle]), *lines[middle + 1 :]]
    bad_ticks = [*edited[:later], _with_tick(edited[later], "1.5"), *edited[later + 1 :]]
    path.write_text("".join(bad_ticks), encoding="utf-8")
    outcome = _outcome(read_session_jsonl, path)
    assert outcome[0] is ValueError and outcome == _outcome(_reference_read, path)
    data = "".join(edited).encode()
    cut = len(data) * 3 // 4
    path.write_bytes(data[:cut] + b"\xff" + data[cut + 1 :])
    outcome = _outcome(read_session_jsonl, path)
    assert outcome[0] is UnicodeDecodeError and outcome == _outcome(_reference_read, path)


def test_the_block_decoder_never_disagrees_with_the_line_parser(
    tmp_path, base_scenario, table1_pair
):
    expert, _ = table1_pair
    log = run_session(replace(base_scenario, ticks_per_session=40), expert, PlayerId.ID1, 4)
    path = tmp_path / "session.jsonl"
    write_session_jsonl(log, path)
    text = path.read_bytes()
    want = np.stack([log.ticks, log.players, log.contexts, log.behaviors])
    assert np.array_equal(np.stack(behavior_data._decode_block(text)), want)
    # Each byte becomes another, mostly one the log holds, so that some edits
    # (a tick's digits, the player's) still give a canonical block.
    alphabet = sorted(set(text) | set(b"-\r\t\xff"))
    steps = np.random.default_rng(40).integers(1, len(alphabet), len(text)).tolist()
    accepted = 0
    for at, (byte, step) in enumerate(zip(text, steps)):
        other = alphabet[(alphabet.index(byte) + step) % len(alphabet)]
        block = text[:at] + bytes([other]) + text[at + 1 :]
        columns = behavior_data._decode_block(block)
        if columns is not None:
            lines = io.StringIO(block.decode("utf-8"), newline=None)
            assert np.array_equal(np.stack(columns), behavior_data._parse_lines(lines)), at
            accepted += 1
    assert accepted


def test_a_100k_tick_run_reads_back_by_blocks_in_bounded_memory(tmp_path, monkeypatch):
    text = json.dumps({"scenario": {"ticks_per_session": 100_000}})
    config_path = tmp_path / "config.json"
    config_path.write_text(text, encoding="utf-8")
    command = ["simulate", "--config", str(config_path), "--seed", "3", "--out", str(tmp_path)]
    assert CliRunner().invoke(main, command).exit_code == 0
    (run_dir,) = (path for path in tmp_path.iterdir() if path.is_dir())
    names = ("expert.jsonl", "learner.jsonl")
    with monkeypatch.context() as patch:
        # Without the line parser, only the block decoder can read them.
        patch.setattr(behavior_data, "_parse_line", None)
        tracemalloc.start()
        try:
            logs = [read_session_jsonl(run_dir / names[0])]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        logs.append(read_session_jsonl(run_dir / names[1]))
    # A reader that held the whole file would peak above its size.
    assert peak < (run_dir / names[0]).stat().st_size / 2
    config = parse_config(text)
    assert logs == list(simulate_pair(*resolve_profiles(config), config.scenario, 3, 0))

    # With one line edited, only the lines of its block go through the parser.
    lines = (run_dir / names[0]).read_text(encoding="utf-8").splitlines(keepends=True)
    middle = len(lines) // 2
    lines[middle] = "{ " + lines[middle][1:]
    edited = tmp_path / "edited.jsonl"
    edited.write_text("".join(lines), encoding="utf-8")
    parsed = []
    parse_line = behavior_data._parse_line
    monkeypatch.setattr(
        behavior_data, "_parse_line", lambda line: parsed.append(line) or parse_line(line)
    )
    assert read_session_jsonl(edited) == logs[0]
    assert 0 < len(parsed) < len(lines) / 2


def test_jsonl_line_table_is_built_on_first_use_not_at_import():
    src = str(Path(behavior_data.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = (
        "import skilltransfer\n"
        "from skilltransfer import behavior_data\n"
        "print(behavior_data._line_table.cache_info().currsize)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"
