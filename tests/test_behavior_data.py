"""Session validation, window aggregation, splitting, and persistence."""

from __future__ import annotations

import copy
import csv
import io
import json
import pickle
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from record_logs import Record, log_of, records_of
from skilltransfer import behavior_data
from skilltransfer.behavior_data import (
    ABSENT,
    ATTRIBUTE_COLUMNS,
    CLASS_COLUMN,
    CONTEXT_FIELDS,
    DATASET_COLUMNS,
    DOMAINS,
    OCCURRED,
    AttributeId,
    DataSet,
    PlayerId,
    SessionLog,
    StimulusContext,
    dataset_to_csv,
    read_dataset_csv,
    read_session_jsonl,
    split,
    to_dataset,
    validate_session,
    write_dataset_csv,
    write_session_jsonl,
)
from skilltransfer.game_domain import ConditionKey, PlayerProfile, Scenario, run_session


def _context(**overrides) -> StimulusContext:
    fields = {f: False for f in CONTEXT_FIELDS}
    fields.update(overrides)
    return StimulusContext(**fields)


def _record(tick, behavior, player=PlayerId.ID1, **ctx) -> Record:
    return Record(player=player, tick=tick, context=_context(**ctx), behavior=behavior)


def _log(records, player=PlayerId.ID1) -> SessionLog:
    return log_of(records, player)


def _row(data: DataSet, index: int) -> dict[str, str]:
    return dict(zip(data.columns, data.rows[index]))


def _column(data: DataSet, name: str) -> tuple[str, ...]:
    return tuple(row[data.column_index(name)] for row in data.rows)


MOVE = AttributeId.MOVEMENT
BINARY_DOMAIN = (OCCURRED, ABSENT)


# --- validate_session -------------------------------------------------------

def test_empty_log_validates_clean():
    assert validate_session(_log([])) == []


def test_infeasible_riding_is_reported_with_its_tick():
    log = _log([_record(7, AttributeId.RIDING_HRS, horse_available=False)])
    violations = validate_session(log)
    assert len(violations) == 1
    assert violations[0].tick == 7
    assert violations[0].rule == "infeasible_behavior"
    assert "horse_available" in violations[0].message


def test_non_increasing_ticks_and_wrong_player_are_reported():
    log = _log(
        [
            _record(3, MOVE),
            _record(3, MOVE),
            _record(4, MOVE, player=PlayerId.ID2),
        ]
    )
    rules = [v.rule for v in validate_session(log)]
    assert rules == ["tick_order", "player_mismatch"]


def test_simulated_session_validates_clean(base_scenario, table1_pair):
    expert, _ = table1_pair
    scenario = replace(base_scenario, ticks_per_session=1000)
    log = run_session(scenario, expert, PlayerId.ID1, seed=11)
    assert len(log.records) == 1000
    assert validate_session(log) == []


# --- to_dataset -------------------------------------------------------------

def test_single_window_marks_seen_and_unseen_behaviors():
    records = [_record(t, MOVE) for t in range(4)]
    records.insert(2, _record(9, AttributeId.FIGHTING))
    data = to_dataset([_log(records)], window=5)
    assert data.n_rows == 1
    row = _row(data, 0)
    assert row["fighting"] == OCCURRED
    for column in ATTRIBUTE_COLUMNS:
        if column in ("fighting", "location", "movement"):
            continue
        assert row[column] == ABSENT
    # All five contexts are outdoor and four ticks moved, so the window
    # reads as an outdoor run.
    assert row["location"] == "outdoor"
    assert row["movement"] == "run"
    assert row[CLASS_COLUMN] == PlayerId.ID1.value


def test_two_logs_make_rows_for_both_players(base_scenario, table1_pair):
    expert, learner = table1_pair
    scenario = replace(base_scenario, ticks_per_session=50)
    logs = [
        run_session(scenario, expert, PlayerId.ID1, seed=1),
        run_session(scenario, learner, PlayerId.ID2, seed=2),
    ]
    data = to_dataset(logs, window=5)
    assert data.n_rows == 20
    labels = set(_column(data, CLASS_COLUMN))
    assert labels == {PlayerId.ID1.value, PlayerId.ID2.value}


def test_window_must_be_positive_and_logs_nonempty():
    with pytest.raises(ValueError, match=r"^window: 0 is below the minimum 1$"):
        to_dataset([_log([])], window=0)
    with pytest.raises(ValueError, match=r"^window: expected an integer, got 2\.5$"):
        to_dataset([_log([])], window=2.5)
    with pytest.raises(ValueError, match="no session logs"):
        to_dataset([], window=5)


def test_location_majority_breaks_ties_indoor():
    records = [
        _record(0, MOVE, location_indoor=True),
        _record(1, MOVE, location_indoor=False),
    ]
    data = to_dataset([_log(records)], window=2)
    assert _row(data, 0)["location"] == "indoor"
    # One indoor walk tick against one outdoor run tick: walk wins the tie.
    assert _row(data, 0)["movement"] == "walk"


def test_fighting_occurrence_rate_matches_the_analytic_product():
    # Fighting happens only while an obstacle governs the tick, with
    # probability 0.7 there; the obstacle shows up half the time. At
    # window width 1 the occurred rate is their product, 0.35.
    profile = PlayerProfile(
        profile_id="obstacle-fighter",
        distributions={
            **{k: {MOVE: 1.0} for k in ConditionKey},
            ConditionKey.OBSTACLE: {AttributeId.FIGHTING: 0.7, MOVE: 0.3},
        },
    )
    scenario = Scenario(
        ticks_per_session=10_000,
        location_indoor=0.5,
        obstacle_present=0.5,
        soldier_present=0.0,
        civilian_present=0.0,
        horse_available=0.0,
        climbable_present=0.0,
        person_facing=0.0,
    )
    log = run_session(scenario, profile, PlayerId.ID1, seed=2024)
    data = to_dataset([log], window=1)
    rate = _column(data, "fighting").count(OCCURRED) / data.n_rows
    assert rate == pytest.approx(0.35, abs=0.03)


@settings(max_examples=40, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=4),
    window=st.integers(min_value=1, max_value=7),
)
def test_row_count_is_full_windows_summed_over_logs(lengths, window):
    logs = [
        _log([_record(t, MOVE) for t in range(length)], player=PlayerId.ID1)
        for length in lengths
    ]
    data = to_dataset(logs, window)
    assert data.n_rows == sum(length // window for length in lengths)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), ticks=st.integers(min_value=0, max_value=60))
def test_simulated_windows_always_pass_domain_validation(seed, ticks):
    # DataSet construction rejects out-of-domain cells, so building the
    # table is itself the assertion.
    scenario = Scenario(
        ticks_per_session=ticks,
        location_indoor=0.5,
        obstacle_present=0.4,
        soldier_present=0.3,
        civilian_present=0.3,
        horse_available=0.4,
        climbable_present=0.4,
        person_facing=0.5,
    )
    from skilltransfer.game_domain import table1_profiles

    expert, learner = table1_profiles()
    logs = [
        run_session(scenario, expert, PlayerId.ID1, seed),
        run_session(scenario, learner, PlayerId.ID2, seed + 1),
    ]
    data = to_dataset(logs, window=3)
    assert data.columns == DATASET_COLUMNS


def _reference_row(window, player) -> tuple[str, ...]:
    """One window as value strings, by the per-record rules to_dataset documents."""
    seen = {record.behavior for record in window}
    indoor_ticks = sum(1 for record in window if record.context.location_indoor)
    location = "indoor" if indoor_ticks * 2 >= len(window) else "outdoor"
    flavor_counts = {"walk": 0, "run": 0, "none": 0}
    for record in window:
        if record.behavior is not MOVE:
            flavor_counts["none"] += 1
        else:
            flavor_counts["walk" if record.context.location_indoor else "run"] += 1
    top = max(flavor_counts.values())
    movement = next(f for f in ("walk", "run", "none") if flavor_counts[f] == top)
    cells = []
    for attribute in sorted(AttributeId, key=lambda a: a.value):
        if attribute is AttributeId.LOCATION:
            cells.append(location)
        elif attribute is MOVE:
            cells.append(movement)
        else:
            cells.append(OCCURRED if attribute in seen else ABSENT)
    return tuple(cells) + (player.value,)


# Movement is drawn half the time so walk/run/none ties come up often;
# LOCATION and infeasible pairs are ones validate_session would reject.
_behaviors = st.one_of(st.just(MOVE), st.sampled_from(list(AttributeId)))
_records = st.lists(
    st.tuples(_behaviors, st.booleans(), st.booleans()), min_size=0, max_size=40
)


@settings(max_examples=150, deadline=None)
@given(
    streams=st.lists(
        st.tuples(st.sampled_from(list(PlayerId)), _records), min_size=1, max_size=3
    ),
    window=st.integers(min_value=1, max_value=8),
)
def test_to_dataset_matches_the_per_window_reference(streams, window):
    logs = [
        _log(
            [
                _record(t, behavior, player, location_indoor=indoor, person_facing=facing)
                for t, (behavior, indoor, facing) in enumerate(stream)
            ],
            player=player,
        )
        for player, stream in streams
    ]
    want = tuple(
        _reference_row(records_of(log)[start : start + window], log.player)
        for log in logs
        for start in range(0, len(log.records) - window + 1, window)
    )
    assert to_dataset(logs, window).rows == want


@pytest.mark.parametrize("seed", range(12))
def test_to_dataset_matches_the_per_window_reference_on_long_windows(seed):
    # Windows up to 64 ticks, one as long as the log and one past its end.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 301))
    p_move = rng.choice([0.0, 0.5, 0.9])
    behaviors = np.where(rng.random(n) < p_move, MOVE.value, rng.integers(1, 11, n))
    records = [
        _record(t, AttributeId(int(b)), location_indoor=bool(indoor), person_facing=True)
        for t, (b, indoor) in enumerate(zip(behaviors, rng.random(n) < rng.random()))
    ]
    log = _log(records, player=list(PlayerId)[seed % 2])
    for window in (int(rng.integers(9, 65)), n, n + int(rng.integers(1, 65))):
        want = tuple(
            _reference_row(records[start : start + window], log.player)
            for start in range(0, n - window + 1, window)
        )
        assert to_dataset([log], window).rows == want, window
    assert to_dataset([log], window).n_rows == 0  # the last window is past the log's end


@pytest.mark.parametrize("window", range(1, 9))
def test_row_codes_follow_the_window_rules_for_every_window_statistic(window):
    # Every 10-bit behavior mask with every feasible (indoor, walk, run):
    # walk <= indoor and run <= window - indoor.
    stats = [
        (indoor, walk, run)
        for indoor in range(window + 1)
        for walk in range(indoor + 1)
        for run in range(window - indoor + 1)
    ]
    masks = np.arange(1 << len(ATTRIBUTE_COLUMNS))
    mask = np.repeat(masks, len(stats))
    indoor, walk, run = np.tile(np.array(stats).T, len(masks))
    # The rules, restated: bit v - 1 of a mask is the behavior of value v; a
    # window is indoor when at least half its ticks are; movement is the first
    # of walk, run and none with the largest count.
    want = {
        a.column: np.where(mask >> (a.value - 1) & 1 == 1, OCCURRED, ABSENT) for a in AttributeId
    }
    want["location"] = np.where(indoor * 2 >= window, "indoor", "outdoor")
    counts = np.stack([walk, run, window - walk - run])
    want["movement"] = np.array(["walk", "run", "none"])[counts.argmax(axis=0)]
    # Statistics come as the float64 counts windowing takes, or as integers.
    for dtype in (np.float64, np.intp):
        codes = behavior_data._row_codes(
            mask << 1, *(np.asarray(a, dtype=dtype) for a in (indoor, walk, run)), window
        )
        assert codes.shape == (len(mask), len(DATASET_COLUMNS)) and codes.dtype == np.int8
        for j, column in enumerate(ATTRIBUTE_COLUMNS):
            got = np.array(DOMAINS[column])[codes[:, j]]
            assert np.array_equal(got, want[column]), (column, dtype)


# --- DataSet ----------------------------------------------------------------

def test_dataset_from_rows_equals_the_one_from_codes():
    rows = _synthetic_rows(3)
    from_rows = DataSet(columns=DATASET_COLUMNS, domains=dict(DOMAINS), rows=rows)
    codes = [[DOMAINS[c].index(v) for c, v in zip(DATASET_COLUMNS, row)] for row in rows]
    from_codes = DataSet(
        columns=DATASET_COLUMNS, domains=dict(DOMAINS), codes=np.array(codes)
    )
    assert from_rows == from_codes
    assert from_codes.rows == rows
    assert from_codes.codes.dtype == np.int8
    assert not from_codes.codes.flags.writeable
    assert from_rows != DataSet(
        columns=DATASET_COLUMNS, domains=dict(DOMAINS), codes=from_codes.codes[1:]
    )


def test_dataset_survives_pickling_and_copying():
    data = _synthetic_dataset(3)
    for clone in (pickle.loads(pickle.dumps(data)), copy.copy(data), copy.deepcopy(data)):
        assert clone == data
        assert not clone.codes.flags.writeable


@pytest.mark.parametrize("bad", [-1, 2, 127])
def test_dataset_rejects_out_of_range_codes(bad):
    codes = np.zeros((4, 2), dtype=np.int64)
    codes[3, 1] = bad
    domains = {"a": BINARY_DOMAIN, "b": BINARY_DOMAIN}
    with pytest.raises(ValueError, match="column 'b' outside"):
        DataSet(columns=("a", "b"), domains=domains, codes=codes)


def test_dataset_rejects_bad_code_shapes_and_oversized_domains():
    domains = {"a": BINARY_DOMAIN, "b": BINARY_DOMAIN}
    with pytest.raises(ValueError, match="shape"):
        DataSet(columns=("a", "b"), domains=domains, codes=np.zeros((3, 3), dtype=int))
    with pytest.raises(ValueError, match="integers"):
        DataSet(columns=("a", "b"), domains=domains, codes=np.zeros((3, 2)))
    with pytest.raises(ValueError, match="exactly one"):
        DataSet(columns=("a", "b"), domains=domains)
    wide = {"a": tuple(str(i) for i in range(200))}
    with pytest.raises(ValueError, match="int8"):
        DataSet(columns=("a",), domains=wide, rows=(("0",),))


def test_dataset_rejects_a_domain_that_lists_a_value_twice():
    # Encoding took a repeated value's last position, while the networks
    # read its first, so such a table counted and classified it apart.
    domains = {"a": BINARY_DOMAIN, "b": ("x", "y", "x")}
    for given in ({"rows": ((BINARY_DOMAIN[0], "x"),)}, {"codes": np.zeros((1, 2), dtype=int)}):
        with pytest.raises(ValueError, match="domain of 'b' lists 'x' twice"):
            DataSet(columns=("a", "b"), domains=domains, **given)


@pytest.mark.parametrize("n_rows, want_rows, want_counts", [(0, 0, []), (3, 1, [3])])
def test_a_table_without_columns_has_one_distinct_empty_row_per_nonempty_table(
    n_rows, want_rows, want_counts
):
    data = DataSet(columns=(), domains={}, codes=np.zeros((n_rows, 0), dtype=int))
    rows, counts = data._distinct_rows()
    assert rows.shape == (want_rows, 0) and rows.dtype == np.int8
    assert counts.tolist() == want_counts and counts.dtype == np.int64
    assert not rows.flags.writeable and not counts.flags.writeable


#: Column domain sizes whose packed codes end exactly at a 16-bit key edge or
#: just past it, and the standard schema's.
_KEY_EDGE_SIZES = {
    "16 binary": [2] * 16,
    "17 binary": [2] * 17,
    "two 128-value and two binary": [128, 128, 2, 2],
    "two 128-value and three binary": [128, 128, 2, 2, 2],
    "70 binary": [2] * 70,
    "standard": [len(DOMAINS[name]) for name in DATASET_COLUMNS],
}


@pytest.mark.parametrize("n_rows", [0, 1, 600])
@pytest.mark.parametrize("sizes", _KEY_EDGE_SIZES.values(), ids=_KEY_EDGE_SIZES.keys())
def test_distinct_rows_are_numpy_unique_rows_and_counts(sizes, n_rows):
    rng = np.random.default_rng([len(sizes), n_rows])
    base = np.array([rng.integers(size) for size in sizes])
    # Rows that differ from one base row in each single column, so every key's
    # every column tells some rows apart; the all-largest and all-zero rows too.
    changed = np.repeat(base[None], len(sizes), axis=0)
    changed[np.arange(len(sizes)), np.arange(len(sizes))] = (base + 1) % sizes
    pool = np.concatenate(
        [[base], changed, [np.subtract(sizes, 1)], [np.zeros(len(sizes), dtype=int)]]
    )
    codes = pool[rng.integers(len(pool), size=n_rows)]
    columns = tuple(f"c{j}" for j in range(len(sizes)))
    domains = {name: tuple(map(str, range(size))) for name, size in zip(columns, sizes)}
    data = DataSet(columns=columns, domains=domains, codes=codes)
    rows, counts = data._distinct_rows()
    # For non-negative int8 codes, numpy's row order is lexicographic.
    want_rows, want_counts = np.unique(data.codes, axis=0, return_counts=True)
    assert rows.dtype == np.int8 and counts.dtype == np.int64
    assert rows.shape == want_rows.shape and counts.shape == want_counts.shape
    assert np.array_equal(rows, want_rows) and np.array_equal(counts, want_counts)
    assert not rows.flags.writeable and not counts.flags.writeable
    assert data._distinct_rows()[0] is rows


# --- split ------------------------------------------------------------------

def _synthetic_rows(n_per_class: int):
    rows = []
    for label in (PlayerId.ID1.value, PlayerId.ID2.value):
        for i in range(n_per_class):
            cells = []
            for column in ATTRIBUTE_COLUMNS:
                if column == "location":
                    cells.append("indoor" if i % 2 else "outdoor")
                elif column == "movement":
                    cells.append("none")
                elif column == "fighting":
                    cells.append(OCCURRED if i % 4 < 2 else ABSENT)
                else:
                    cells.append(ABSENT)
            rows.append(tuple(cells) + (label,))
    return tuple(rows)


def _synthetic_dataset(n_per_class: int) -> DataSet:
    return DataSet(
        columns=DATASET_COLUMNS, domains=dict(DOMAINS), rows=_synthetic_rows(n_per_class)
    )


def test_even_split_balances_both_classes():
    train, test = split(_synthetic_dataset(10), ratio=0.5, seed=3)
    assert (train.n_rows, test.n_rows) == (10, 10)
    for side in (train, test):
        counts = Counter(_column(side, CLASS_COLUMN))
        assert counts == {"ID1": 5, "ID2": 5}


def test_split_is_seed_deterministic():
    data = _synthetic_dataset(10)
    assert split(data, 0.5, seed=9) == split(data, 0.5, seed=9)


def test_a_negative_seed_is_named_in_its_range_error(base_scenario, table1_pair):
    with pytest.raises(ValueError, match=r"^seed: -1 is below the minimum 0$"):
        split(_synthetic_dataset(10), seed=-1)
    with pytest.raises(ValueError, match=r"^seed: -1 is below the minimum 0$"):
        run_session(base_scenario, table1_pair[0], PlayerId.ID1, seed=-1)


def test_split_partitions_400_rows_exactly():
    data = _synthetic_dataset(200)
    train, test = split(data, ratio=0.5, seed=0)
    assert train.n_rows + test.n_rows == 400
    assert Counter(train.rows) + Counter(test.rows) == Counter(data.rows)


def test_split_rejects_bad_ratio_and_tiny_classes():
    data = _synthetic_dataset(10)
    for ratio in (0.0, 1.0, -0.2):
        text = f"split_ratio: {ratio} outside (0.0, 1.0)"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            split(data, ratio)
    lopsided = DataSet(
        columns=DATASET_COLUMNS,
        domains=dict(DOMAINS),
        rows=_synthetic_rows(1),
    )
    with pytest.raises(ValueError, match="at least 2"):
        split(lopsided, 0.5)


@settings(max_examples=60, deadline=None)
@given(
    n1=st.integers(min_value=2, max_value=25),
    n2=st.integers(min_value=2, max_value=25),
    ratio=st.floats(min_value=0.1, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_split_partition_and_per_class_counts(n1, n2, ratio, seed):
    rows = _synthetic_rows(max(n1, n2))
    id1 = [r for r in rows if r[-1] == "ID1"][:n1]
    id2 = [r for r in rows if r[-1] == "ID2"][:n2]
    data = DataSet(columns=DATASET_COLUMNS, domains=dict(DOMAINS), rows=tuple(id1 + id2))
    train, test = split(data, ratio, seed)
    assert Counter(train.rows) + Counter(test.rows) == Counter(data.rows)
    train_counts = Counter(_column(train, CLASS_COLUMN))
    assert train_counts["ID1"] == int(ratio * n1 + 0.5)
    assert train_counts["ID2"] == int(ratio * n2 + 0.5)


@pytest.mark.parametrize("seed, ratio", [(0, 0.5), (1, 0.3), (2, 0.8), (3, 0.5)])
def test_each_split_side_keeps_the_table_order(seed, ratio):
    # Two 128-value columns give every row its own position in the table, so
    # each side is an order-preserving subsequence when its positions increase.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(50, 2000))
    position = np.arange(n)
    domains = {"high": tuple(map(str, range(128))), "low": tuple(map(str, range(128)))}
    domains[CLASS_COLUMN] = DOMAINS[CLASS_COLUMN]
    codes = np.column_stack([position // 128, position % 128, rng.random(n) < 0.4])
    data = DataSet(columns=("high", "low", CLASS_COLUMN), domains=domains, codes=codes)
    sides = [
        side.codes[:, 0].astype(int) * 128 + side.codes[:, 1] for side in split(data, ratio, seed)
    ]
    for side in sides:
        assert (np.diff(side) > 0).all()
    assert np.array_equal(np.sort(np.concatenate(sides)), position)


# --- persistence ------------------------------------------------------------

def test_record_json_line_has_the_documented_shape(tmp_path):
    log = _log([_record(5, AttributeId.FIGHTING, obstacle_present=True)])
    row = (5, 0, int(log.contexts[0]), AttributeId.FIGHTING.value)
    path = tmp_path / "session.jsonl"
    write_session_jsonl(log, path)
    (line,) = path.read_text(encoding="utf-8").splitlines()
    payload = json.loads(line)
    assert set(payload) == {"tick", "player", "context", "behavior"}
    assert set(payload["context"]) == set(CONTEXT_FIELDS)
    assert payload["context"]["obstacle_present"] is True
    assert payload["behavior"] == "fighting"
    assert behavior_data._parse_line(line) == row


def test_session_jsonl_round_trip(tmp_path, base_scenario, table1_pair):
    expert, _ = table1_pair
    scenario = replace(base_scenario, ticks_per_session=40)
    log = run_session(scenario, expert, PlayerId.ID1, seed=5)
    path = tmp_path / "expert.jsonl"
    write_session_jsonl(log, path)
    loaded = read_session_jsonl(path)
    assert loaded == log


def test_empty_session_file_needs_an_explicit_player(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="no player"):
        read_session_jsonl(path)
    loaded = read_session_jsonl(path, player=PlayerId.ID2)
    assert loaded.player is PlayerId.ID2
    assert records_of(loaded) == ()


def test_dataset_csv_round_trip(tmp_path):
    data = _synthetic_dataset(4)
    path = tmp_path / "dataset.csv"
    write_dataset_csv(data, path)
    assert dataset_to_csv(data).splitlines()[0] == ",".join(DATASET_COLUMNS)
    assert read_dataset_csv(path) == data


def test_dataset_csv_rejects_unknown_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("who,what\na,b\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no domain"):
        read_dataset_csv(path)
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        read_dataset_csv(path)


def test_dataset_rejects_out_of_domain_cells():
    rows = _synthetic_rows(2)
    bad = rows[:1] + (("nonsense",) + rows[1][1:],)
    with pytest.raises(ValueError, match="not in domain"):
        DataSet(columns=DATASET_COLUMNS, domains=dict(DOMAINS), rows=bad)


def _reference_csv(data: DataSet) -> str:
    """dataset_to_csv as it was: ``csv.writer`` over every decoded row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(data.columns)
    writer.writerows(data.rows)
    return buffer.getvalue()


def _reference_read_csv(path, domains) -> DataSet:
    """read_dataset_csv as it was: ``csv.reader`` over the whole file, then ``rows=``."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        rows = tuple(tuple(row) for row in reader)
    missing = [name for name in header if name not in domains]
    if missing:
        raise ValueError(f"{path}: no domain known for columns {missing}")
    return DataSet(
        columns=tuple(header),
        domains={name: tuple(domains[name]) for name in header},
        rows=rows,
    )


#: Cell values that ``csv.reader`` reads back from a bare cell, and ones
#: it does not, which the writer must quote.
_PLAIN_VALUES = ("x", "y", OCCURRED, ABSENT, "", " lead")
_QUOTED_VALUES = ("a,b", 'say "hi"', '"hi" there', "two\nlines", "cr\rhere")


@st.composite
def _generic_tables(draw) -> DataSet:
    pool = _PLAIN_VALUES + draw(st.sampled_from([(), *((v,) for v in _QUOTED_VALUES)]))
    columns = tuple(f"c{j}" for j in range(draw(st.integers(1, 6))))
    domains = {
        name: tuple(draw(st.lists(st.sampled_from(pool), min_size=2, max_size=4, unique=True)))
        for name in columns
    }
    n_rows = draw(st.integers(0, 12))
    codes = [
        [draw(st.integers(0, len(domains[name]) - 1)) for name in columns] for _ in range(n_rows)
    ]
    return DataSet(
        columns=columns,
        domains=domains,
        codes=np.array(codes, dtype=np.int8).reshape(n_rows, len(columns)),
    )


def _corrupted(text: str, corruption: str, where: int) -> str:
    lines = text.split("\n")
    # A body line, or the empty string after the last newline if there is none.
    i = 1 + where % max(len(lines) - 2, 1)
    if corruption == "blank line":
        lines.insert(i, "")
    elif corruption == "short row":
        lines[i] = lines[i].rpartition(",")[0]
    elif corruption == "unknown value":
        lines[i] = "nonsense" + lines[i][lines[i].find(",") :] if "," in lines[i] else "nonsense"
    elif corruption == "quoted cell":
        cells = lines[i].split(",")
        lines[i] = ",".join([f'"{cells[0]}"', *cells[1:]])
    elif corruption == "crlf":
        return "\r\n".join(lines)
    elif corruption == "no final newline":
        return "\n".join(lines)[:-1]
    return "\n".join(lines)


def _bare_csv(data: DataSet) -> str:
    """The table's cells joined by commas, nothing quoted."""
    return "".join(",".join(row) + "\n" for row in (data.columns, *data.rows))


def _outcome(read, *args):
    try:
        return read(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(data=_generic_tables())
def test_csv_writer_matches_the_csv_writer_reference(data):
    text = dataset_to_csv(data)
    assert list(csv.reader(io.StringIO(text, newline=""))) == [
        list(data.columns), *map(list, data.rows)
    ]
    # The reference leaves a bare carriage return unquoted, so only a table
    # without one keeps the reference's bytes.
    if not any("\r" in v for d in data.domains.values() for v in d):
        assert text == _reference_csv(data)


@settings(max_examples=300, deadline=None)
@given(
    data=_generic_tables(),
    corruption=st.sampled_from(
        [
            "none", "blank line", "short row", "unknown value", "quoted cell", "crlf",
            "no final newline", "bare cells",
        ]
    ),
    where=st.integers(min_value=0, max_value=100),
)
def test_csv_reader_matches_the_csv_reader_reference(tmp_path_factory, data, corruption, where):
    path = tmp_path_factory.getbasetemp() / "generic.csv"
    if corruption == "bare cells":
        text = _bare_csv(data)
    else:
        text = _corrupted(dataset_to_csv(data), corruption, where)
    path.write_text(text, encoding="utf-8", newline="")
    outcome = _outcome(read_dataset_csv, path, data.domains)
    assert outcome == _outcome(_reference_read_csv, path, data.domains)
    if corruption == "none":
        assert outcome == data


def test_standard_table_csv_matches_the_references(tmp_path, base_scenario, table1_pair):
    scenario = replace(base_scenario, ticks_per_session=2000)
    logs = [
        run_session(scenario, profile, player, seed=4)
        for profile, player in zip(table1_pair, PlayerId)
    ]
    data = to_dataset(logs, window=5)
    path = tmp_path / "dataset.csv"
    write_dataset_csv(data, path)
    assert path.read_text(encoding="utf-8") == _reference_csv(data)
    assert read_dataset_csv(path) == _reference_read_csv(path, DOMAINS) == data


@pytest.mark.parametrize("value", _QUOTED_VALUES)
def test_bare_cells_read_as_the_csv_reader_reads_them(tmp_path, value):
    data = DataSet(
        columns=("c0", "c1"),
        domains={"c0": (value, "x"), "c1": ("x", "y")},
        codes=np.array([[0, 1], [1, 0]], dtype=np.int8),
    )
    path = tmp_path / "bare.csv"
    path.write_text(_bare_csv(data), encoding="utf-8", newline="")
    outcome = _outcome(read_dataset_csv, path, data.domains)
    assert outcome == _outcome(_reference_read_csv, path, data.domains)
