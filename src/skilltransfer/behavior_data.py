"""Behavior vocabulary, session logs, and dataset construction.

Raw play is a stream of (stimulus context, chosen behavior) records, one
per game tick. This module defines that vocabulary, validates record
streams, and aggregates them into the categorical table that the network
classifier consumes: fixed-width windows of ticks become one row each,
with the player identity in the class column.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .seeds import derive_rng


class AttributeId(Enum):
    """The ten behavior attributes; values are their fixed column positions."""

    FIGHTING = 1
    OBSTACLE = 2
    RIDING_HRS = 3
    FACING_SOL = 4
    CLIMBING = 5
    LOCATION = 6
    FACING_PRS = 7
    MOVEMENT = 8
    LISTENING = 9
    ATTACK_CIV = 10

    @property
    def column(self) -> str:
        """Dataset column name for this attribute."""
        return self.name.lower()

    @classmethod
    def from_column(cls, column: str) -> AttributeId:
        try:
            return cls[column.upper()]
        except KeyError:
            raise ValueError(f"unknown attribute column: {column!r}") from None


class PlayerId(Enum):
    ID1 = "ID1"  # expert
    ID2 = "ID2"  # learner


#: Dataset columns in fixed order: the ten attributes by position, then class.
ATTRIBUTE_COLUMNS: tuple[str, ...] = tuple(
    a.column for a in sorted(AttributeId, key=lambda a: a.value)
)
CLASS_COLUMN = "ID"
DATASET_COLUMNS: tuple[str, ...] = ATTRIBUTE_COLUMNS + (CLASS_COLUMN,)

OCCURRED = "occurred"
ABSENT = "absent"

#: Value domains for the standard dataset schema.
DOMAINS: dict[str, tuple[str, ...]] = {
    **{a.column: (OCCURRED, ABSENT) for a in AttributeId},
    AttributeId.LOCATION.column: ("indoor", "outdoor"),
    AttributeId.MOVEMENT.column: ("none", "walk", "run"),
    CLASS_COLUMN: (PlayerId.ID1.value, PlayerId.ID2.value),
}


@dataclass(frozen=True, slots=True)
class StimulusContext:
    """Game-world stimuli visible to a player at one tick."""

    location_indoor: bool
    obstacle_present: bool
    soldier_present: bool
    civilian_present: bool
    horse_available: bool
    climbable_present: bool
    person_facing: bool


CONTEXT_FIELDS: tuple[str, ...] = (
    "location_indoor",
    "obstacle_present",
    "soldier_present",
    "civilian_present",
    "horse_available",
    "climbable_present",
    "person_facing",
)

#: Every possible context, interned and indexed by its code: bit ``i`` of
#: the code is the field ``CONTEXT_FIELDS[i]``.
CONTEXTS: tuple[StimulusContext, ...] = tuple(
    StimulusContext(**{f: bool(code >> i & 1) for i, f in enumerate(CONTEXT_FIELDS)})
    for code in range(1 << len(CONTEXT_FIELDS))
)


def context_code(context: StimulusContext) -> int:
    """Index of ``context`` in :data:`CONTEXTS`."""
    return sum(getattr(context, f) << i for i, f in enumerate(CONTEXT_FIELDS))


#: Stimulus fields a behavior needs before it can occur. Behaviors not
#: listed are possible in any context. LOCATION never appears as an event;
#: it is read off the context when windows are aggregated.
FEASIBILITY_REQUIREMENTS: dict[AttributeId, tuple[str, ...]] = {
    AttributeId.RIDING_HRS: ("horse_available",),
    AttributeId.FACING_SOL: ("soldier_present",),
    AttributeId.ATTACK_CIV: ("civilian_present",),
    AttributeId.CLIMBING: ("climbable_present",),
    AttributeId.LISTENING: ("person_facing",),
    AttributeId.FACING_PRS: ("person_facing",),
}

#: Attributes that can be emitted as behavior events.
EVENT_ATTRIBUTES: tuple[AttributeId, ...] = tuple(
    a for a in sorted(AttributeId, key=lambda a: a.value) if a is not AttributeId.LOCATION
)

#: Event behaviors feasible in every context.
UNCONDITIONAL_BEHAVIORS: tuple[AttributeId, ...] = tuple(
    a for a in EVENT_ATTRIBUTES if a not in FEASIBILITY_REQUIREMENTS
)


def is_feasible(behavior: AttributeId, context: StimulusContext) -> bool:
    """Whether ``behavior`` can occur under ``context``."""
    if behavior is AttributeId.LOCATION:
        return False
    return all(getattr(context, f) for f in FEASIBILITY_REQUIREMENTS.get(behavior, ()))


@dataclass(frozen=True, slots=True)
class BehaviorRecord:
    """One tick of play: who did what under which stimuli."""

    player: PlayerId
    tick: int
    context: StimulusContext
    behavior: AttributeId


@dataclass(frozen=True, slots=True)
class SessionLog:
    """An ordered record stream from a single session of one player."""

    player: PlayerId
    seed: int
    scenario_id: str
    records: tuple[BehaviorRecord, ...]


@dataclass(frozen=True, slots=True)
class Violation:
    """One broken rule found while validating a session log."""

    tick: int
    rule: str
    message: str


def validate_session(log: SessionLog) -> list[Violation]:
    """Check a session log against its structural and feasibility rules.

    Violations are data, not exceptions: the caller decides whether a
    dirty log is fatal. Each violation names the offending tick and the
    rule it broke (``tick_order``, ``player_mismatch``,
    ``infeasible_behavior``).
    """
    violations: list[Violation] = []
    previous_tick: int | None = None
    for record in log.records:
        if previous_tick is not None and record.tick <= previous_tick:
            violations.append(
                Violation(
                    tick=record.tick,
                    rule="tick_order",
                    message=f"tick {record.tick} does not increase past {previous_tick}",
                )
            )
        previous_tick = record.tick
        if record.player is not log.player:
            violations.append(
                Violation(
                    tick=record.tick,
                    rule="player_mismatch",
                    message=(
                        f"record belongs to {record.player.value}, "
                        f"log belongs to {log.player.value}"
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


@dataclass(frozen=True)
class DataSet:
    """Immutable categorical table.

    Cells are value strings; every cell must belong to its column's
    declared domain. The standard classification table uses
    ``DATASET_COLUMNS`` and ``DOMAINS``, but the type itself is generic
    so that small synthetic tables can be built in tests.
    """

    columns: tuple[str, ...]
    domains: Mapping[str, tuple[str, ...]]
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate column names")
        for name in self.columns:
            if name not in self.domains:
                raise ValueError(f"no domain declared for column {name!r}")
            if len(self.domains[name]) < 2:
                raise ValueError(f"domain of {name!r} needs at least two values")
        allowed = {name: frozenset(self.domains[name]) for name in self.columns}
        for i, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise ValueError(f"row {i} has {len(row)} cells, expected {len(self.columns)}")
            for name, value in zip(self.columns, row):
                if value not in allowed[name]:
                    raise ValueError(f"row {i}: {value!r} not in domain of {name!r}")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise ValueError(f"no such column: {name!r}") from None

    def column_values(self, name: str) -> tuple[str, ...]:
        i = self.column_index(name)
        return tuple(row[i] for row in self.rows)

    def row_mapping(self, index: int) -> dict[str, str]:
        """Row as a column -> value mapping."""
        return dict(zip(self.columns, self.rows[index]))


def _movement_flavor(record: BehaviorRecord) -> str:
    # A movement event indoors reads as walking, outdoors as running.
    if record.behavior is not AttributeId.MOVEMENT:
        return "none"
    return "walk" if record.context.location_indoor else "run"


def _window_row(window: Sequence[BehaviorRecord], player: PlayerId) -> tuple[str, ...]:
    seen = {record.behavior for record in window}
    indoor_ticks = sum(1 for record in window if record.context.location_indoor)
    location = "indoor" if indoor_ticks * 2 >= len(window) else "outdoor"
    flavor_counts = {"walk": 0, "run": 0, "none": 0}
    for record in window:
        flavor_counts[_movement_flavor(record)] += 1
    # Ties break in listed order: walk beats run beats none.
    top = max(flavor_counts.values())
    movement = next(f for f in ("walk", "run", "none") if flavor_counts[f] == top)

    cells: list[str] = []
    for attribute in sorted(AttributeId, key=lambda a: a.value):
        if attribute is AttributeId.LOCATION:
            cells.append(location)
        elif attribute is AttributeId.MOVEMENT:
            cells.append(movement)
        else:
            cells.append(OCCURRED if attribute in seen else ABSENT)
    cells.append(player.value)
    return tuple(cells)


def to_dataset(logs: Sequence[SessionLog], window: int) -> DataSet:
    """Aggregate session logs into one classification row per tick window.

    Windows are consecutive, non-overlapping runs of ``window`` records
    within each log; a trailing partial window is dropped. A behavior
    column reads ``occurred`` when that behavior appears at least once in
    the window. Location is the modal location over the window (ties go
    to indoor). Movement is the most frequent of walk, run, and none,
    with ties broken in that order.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    logs = list(logs)
    if not logs:
        raise ValueError("no session logs given")
    rows: list[tuple[str, ...]] = []
    for log in logs:
        for start in range(0, len(log.records) - window + 1, window):
            rows.append(_window_row(log.records[start : start + window], log.player))
    return DataSet(columns=DATASET_COLUMNS, domains=dict(DOMAINS), rows=tuple(rows))


def train_size(n: int, ratio: float) -> int:
    """Rows of an ``n``-row class that :func:`split` puts on the train side."""
    return int(ratio * n + 0.5)


def split(
    data: DataSet, ratio: float = 0.5, seed: int = 0
) -> tuple[DataSet, DataSet]:
    """Stratified train/test split, deterministic in ``seed``.

    Each class contributes ``round(ratio * class_size)`` rows to the
    train side (half-up rounding). Within each side the original row
    order is preserved.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must be inside (0, 1), got {ratio}")
    class_index = data.column_index(CLASS_COLUMN)
    by_class: dict[str, list[int]] = {}
    for i, row in enumerate(data.rows):
        by_class.setdefault(row[class_index], []).append(i)
    for label, indices in sorted(by_class.items()):
        if len(indices) < 2:
            raise ValueError(f"class {label!r} has {len(indices)} rows, need at least 2")

    rng = derive_rng(seed)
    train_indices: list[int] = []
    for label in sorted(by_class):
        indices = by_class[label]
        take = train_size(len(indices), ratio)
        shuffled = rng.permutation(len(indices))
        train_indices.extend(indices[j] for j in shuffled[:take])
    chosen = frozenset(train_indices)
    train_rows = tuple(row for i, row in enumerate(data.rows) if i in chosen)
    test_rows = tuple(row for i, row in enumerate(data.rows) if i not in chosen)
    make = lambda rows: DataSet(columns=data.columns, domains=dict(data.domains), rows=rows)
    return make(train_rows), make(test_rows)


# --- persistence ---------------------------------------------------------

def record_to_json(record: BehaviorRecord) -> str:
    """One session record as a single JSON line (no trailing newline)."""
    payload = {
        "tick": record.tick,
        "player": record.player.value,
        "context": {f: getattr(record.context, f) for f in CONTEXT_FIELDS},
        "behavior": record.behavior.column,
    }
    return json.dumps(payload, separators=(", ", ": "))


def record_from_json(line: str) -> BehaviorRecord:
    """Parse one JSONL line; the context is the shared instance from :data:`CONTEXTS`."""
    payload = json.loads(line)
    flags = payload["context"]
    code = sum(bool(flags[f]) << i for i, f in enumerate(CONTEXT_FIELDS))
    return BehaviorRecord(
        player=PlayerId(payload["player"]),
        tick=int(payload["tick"]),
        context=CONTEXTS[code],
        behavior=AttributeId.from_column(payload["behavior"]),
    )


def write_session_jsonl(log: SessionLog, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in log.records:
            handle.write(record_to_json(record) + "\n")


def read_session_jsonl(
    path: str | Path,
    *,
    player: PlayerId | None = None,
    seed: int = 0,
    scenario_id: str = "",
) -> SessionLog:
    """Load a session log from a JSONL file.

    The line format carries only records, so seed and scenario id must be
    supplied if they matter downstream. Player is inferred from the first
    record unless given explicitly.
    """
    with open(path, encoding="utf-8") as handle:
        records = tuple(record_from_json(line) for line in handle if line.strip())
    if player is None:
        if not records:
            raise ValueError(f"{path}: empty session file and no player given")
        player = records[0].player
    return SessionLog(player=player, seed=seed, scenario_id=scenario_id, records=records)


def dataset_to_csv(data: DataSet) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(data.columns)
    writer.writerows(data.rows)
    return buffer.getvalue()


def write_dataset_csv(data: DataSet, path: str | Path) -> None:
    Path(path).write_text(dataset_to_csv(data), encoding="utf-8")


def read_dataset_csv(
    path: str | Path, domains: Mapping[str, tuple[str, ...]] | None = None
) -> DataSet:
    """Load a dataset written by :func:`write_dataset_csv`.

    Domains default to the standard schema; pass them explicitly for
    non-standard tables (CSV does not carry domain declarations).
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        rows = tuple(tuple(row) for row in reader)
    if domains is None:
        domains = DOMAINS
    missing = [name for name in header if name not in domains]
    if missing:
        raise ValueError(f"{path}: no domain known for columns {missing}")
    return DataSet(
        columns=tuple(header),
        domains={name: tuple(domains[name]) for name in header},
        rows=rows,
    )
