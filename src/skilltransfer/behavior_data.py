"""Behavior vocabulary, session logs, and dataset construction.

Raw play is a stream of (stimulus context, chosen behavior) events, one
per game tick. A :class:`SessionLog` is built from four integer columns
(tick, player index, context code, behavior value) and stores them as
one packed record array; no per-tick object is ever built. This module
defines the vocabulary and the one feasibility table,
:data:`FEASIBILITY`, validates logs, and aggregates them into the
categorical table that the network classifier consumes: fixed-width
windows of ticks become one row each, with the player identity in the
class column.

The JSONL and CSV readers accept whatever their general parsers
(``json.loads`` per line, ``csv.reader``) accept, except that a JSONL
tick must be a JSON integer and a context flag a JSON boolean. A line in
the form the writers emit decodes by table lookup; any other line goes
through the general parser, so both paths give the same values and the
same errors.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass, fields
from enum import Enum
from functools import cache, partial
from itertools import product
from operator import itemgetter
from pathlib import Path

import numpy as np

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


#: Players by index: a session log's ``players`` column holds these positions.
PLAYERS: tuple[PlayerId, ...] = tuple(PlayerId)


#: Dataset columns in fixed order: the ten attributes by position, then class.
ATTRIBUTE_COLUMNS: tuple[str, ...] = tuple(
    a.column for a in sorted(AttributeId, key=lambda a: a.value)
)
CLASS_COLUMN = "ID"
DATASET_COLUMNS: tuple[str, ...] = ATTRIBUTE_COLUMNS + (CLASS_COLUMN,)

OCCURRED = "occurred"
ABSENT = "absent"

#: Value domains for the standard dataset schema; a class code is a player index.
DOMAINS: dict[str, tuple[str, ...]] = {
    **{a.column: (OCCURRED, ABSENT) for a in AttributeId},
    AttributeId.LOCATION.column: ("indoor", "outdoor"),
    AttributeId.MOVEMENT.column: ("none", "walk", "run"),
    CLASS_COLUMN: tuple(p.value for p in PLAYERS),
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


CONTEXT_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(StimulusContext))

#: Entry ``[code, i]`` is bit ``i`` of a context code: the field ``CONTEXT_FIELDS[i]``.
CONTEXT_BITS: np.ndarray = (
    np.arange(1 << len(CONTEXT_FIELDS))[:, None] >> np.arange(len(CONTEXT_FIELDS)) & 1 == 1
)
CONTEXT_BITS.flags.writeable = False

#: Every possible context, interned and indexed by its code.
CONTEXTS: tuple[StimulusContext, ...] = tuple(
    StimulusContext(*bits) for bits in CONTEXT_BITS.tolist()
)


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


def _feasibility_table() -> np.ndarray:
    table = np.zeros((max(a.value for a in AttributeId) + 1, len(CONTEXTS)), dtype=bool)
    for behavior in EVENT_ATTRIBUTES:
        needed = [CONTEXT_FIELDS.index(f) for f in FEASIBILITY_REQUIREMENTS.get(behavior, ())]
        table[behavior.value] = CONTEXT_BITS[:, needed].all(axis=1)
    table.flags.writeable = False
    return table


#: Entry ``[v, code]``: whether the behavior whose ``AttributeId`` value is
#: ``v`` can occur under context ``CONTEXTS[code]``: it is an event behavior
#: and every field ``FEASIBILITY_REQUIREMENTS`` names for it is present. The
#: unused row 0 and the LOCATION row are all False.
FEASIBILITY: np.ndarray = _feasibility_table()


_PLAYER_INDEX = {p: i for i, p in enumerate(PLAYERS)}

#: Name, stored dtype and valid codes of each column, in constructor order.
_COLUMNS: tuple[tuple[str, type, range | None], ...] = (
    ("ticks", np.int64, None),
    ("players", np.int8, range(len(PLAYERS))),
    ("contexts", np.uint8, range(len(CONTEXTS))),
    ("behaviors", np.int8, range(1, max(a.value for a in AttributeId) + 1)),
)

#: One packed tick record of a :class:`SessionLog`: the columns as fields,
#: 11 bytes a tick.
RECORD_DTYPE = np.dtype([(name, dtype) for name, dtype, _ in _COLUMNS])


def _check_codes(what: str, raw: np.ndarray, valid: range | None) -> None:
    """Raise ``ValueError`` unless ``raw`` holds integers, each in ``valid`` if given.

    Compared in intp, the dtype later stages use: kernels for a narrower
    dtype would be one more set of numpy code pages resident all run.
    """
    if raw.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {raw.dtype}")
    if valid is not None:
        wide = raw.astype(np.intp)
        if (wide < valid.start).any() or (wide >= valid.stop).any():
            raise ValueError(f"{what} outside [{valid.start}, {valid.stop})")


def _packed_records(columns: Sequence[np.ndarray]) -> np.ndarray:
    """The checked columns packed into one read-only ``RECORD_DTYPE`` array."""
    raws = []
    for (name, _, valid), column in zip(_COLUMNS, columns):
        raw = np.asarray(column)
        if raw.ndim != 1:
            raise ValueError(f"{name} must be one-dimensional, got shape {raw.shape}")
        _check_codes(f"{name} codes", raw, valid)
        raws.append(raw)
    lengths = [len(raw) for raw in raws]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns {[c[0] for c in _COLUMNS]} have unequal lengths {lengths}")
    records = np.empty(lengths[0], dtype=RECORD_DTYPE)
    for (name, _, _), raw in zip(_COLUMNS, raws):
        records[name] = raw
    records.flags.writeable = False
    return records


class SessionLog:
    """One session of one player, stored as one packed record array.

    A log holds its ``player`` and its records, as the JSONL format does;
    the seed and scenario that made it are the caller's to keep.
    ``records`` is a read-only array of :data:`RECORD_DTYPE`, one record
    per tick in stream order, and each of its fields is also a read-only
    view of the same name:

    - ``ticks`` (``int64``): the tick number;
    - ``players`` (``int8``): the record's player, an index into
      :data:`PLAYERS`;
    - ``contexts`` (``uint8``): the stimulus context, a code into
      :data:`CONTEXTS` (bit 0 is ``location_indoor``);
    - ``behaviors`` (``int8``): the behavior's ``AttributeId`` value.

    The columns are passed by keyword and checked for equal lengths and
    in-range codes. They may hold what a clean session would not
    (repeated ticks, another player's records, infeasible behaviors);
    :func:`validate_session` reports those. Equality compares the player
    and the records.
    """

    __slots__ = ("player", "records", "ticks", "players", "contexts", "behaviors")

    def __init__(
        self,
        player: PlayerId,
        *,
        ticks: np.ndarray,
        players: np.ndarray,
        contexts: np.ndarray,
        behaviors: np.ndarray,
    ) -> None:
        records = _packed_records((ticks, players, contexts, behaviors))
        object.__setattr__(self, "player", player)
        object.__setattr__(self, "records", records)
        for name, _, _ in _COLUMNS:
            object.__setattr__(self, name, records[name])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"SessionLog is immutable; cannot set {name!r}")

    def __reduce__(self):
        # Pickle and copy through the constructor, which re-checks the
        # columns and makes them read-only again.
        columns = {name: getattr(self, name) for name, _, _ in _COLUMNS}
        return partial(SessionLog, self.player, **columns), ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SessionLog):
            return NotImplemented
        return self.player == other.player and np.array_equal(self.records, other.records)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SessionLog(player={self.player!r}, n_ticks={len(self.ticks)})"


@dataclass(frozen=True, slots=True)
class Violation:
    """One broken rule found while validating a session log."""

    tick: int
    rule: str
    message: str


#: ``infeasible_behavior`` message of each behavior value.
_INFEASIBLE_MESSAGE = {
    a.value: f"{a.column} requires "
    f"{', '.join(FEASIBILITY_REQUIREMENTS.get(a, ())) or 'an event attribute'}"
    for a in AttributeId
}


def validate_session(log: SessionLog) -> list[Violation]:
    """Check a session log against its structural and feasibility rules.

    Violations are data, not exceptions: the caller decides whether a
    dirty log is fatal. Each violation names the offending tick and the
    rule it broke (``tick_order``, ``player_mismatch``,
    ``infeasible_behavior``), in tick-stream order and, within one
    record, in that rule order.
    """
    ticks = log.ticks
    unordered = np.zeros(len(ticks), dtype=bool)
    unordered[1:] = ticks[1:] <= ticks[:-1]
    mismatched = log.players != _PLAYER_INDEX[log.player]
    infeasible = ~FEASIBILITY[log.behaviors, log.contexts]
    violations: list[Violation] = []
    for i in np.flatnonzero(unordered | mismatched | infeasible).tolist():
        tick = int(ticks[i])
        if unordered[i]:
            message = f"tick {tick} does not increase past {int(ticks[i - 1])}"
            violations.append(Violation(tick=tick, rule="tick_order", message=message))
        if mismatched[i]:
            message = (
                f"record belongs to {PLAYERS[int(log.players[i])].value}, "
                f"log belongs to {log.player.value}"
            )
            violations.append(Violation(tick=tick, rule="player_mismatch", message=message))
        if infeasible[i]:
            message = _INFEASIBLE_MESSAGE[int(log.behaviors[i])]
            violations.append(Violation(tick=tick, rule="infeasible_behavior", message=message))
    return violations


def check_distinct_values(name: str, domain: Sequence[str]) -> None:
    """Raise ``ValueError`` when ``domain`` lists a value twice.

    A value's code is its one position in the domain.
    """
    repeated = [v for k, v in enumerate(domain) if v in domain[:k]]
    if repeated:
        raise ValueError(f"domain of {name!r} lists {repeated[0]!r} twice")


class DataSet:
    """Immutable categorical table stored as one integer code matrix.

    ``codes`` is a read-only ``int8`` array of shape ``(n_rows,
    len(columns))``; entry ``[i, j]`` is the position of row ``i``'s
    value in ``domains[columns[j]]``. Value strings exist only at the
    edges: ``rows=`` encodes string rows once (rejecting out-of-domain
    cells), and :attr:`rows` decodes them back on demand. Internal
    callers that already hold codes pass ``codes=`` instead. The
    standard classification table uses ``DATASET_COLUMNS`` and
    ``DOMAINS``, but the type itself is generic so that small synthetic
    tables can be built in tests. Equality compares by value.
    """

    __slots__ = ("columns", "domains", "codes", "_rows", "_distinct")

    def __init__(
        self,
        columns: Sequence[str],
        domains: Mapping[str, tuple[str, ...]],
        rows: Sequence[Sequence[str]] | None = None,
        *,
        codes: np.ndarray | None = None,
    ) -> None:
        columns = tuple(columns)
        if len(set(columns)) != len(columns):
            raise ValueError("duplicate column names")
        for name in columns:
            if name not in domains:
                raise ValueError(f"no domain declared for column {name!r}")
            if len(domains[name]) < 2:
                raise ValueError(f"domain of {name!r} needs at least two values")
            if len(domains[name]) > MAX_DOMAIN:
                raise ValueError(
                    f"domain of {name!r} has {len(domains[name])} values, "
                    f"at most {MAX_DOMAIN} fit the int8 codes"
                )
            check_distinct_values(name, domains[name])
        if (rows is None) == (codes is None):
            raise ValueError("give exactly one of rows and codes")
        if rows is not None:
            matrix = _encode_rows(columns, domains, rows)
        else:
            matrix = np.asarray(codes)
            if matrix.ndim != 2 or matrix.shape[1] != len(columns):
                raise ValueError(
                    f"codes must have shape (n_rows, {len(columns)}), got {matrix.shape}"
                )
            for j, name in enumerate(columns):
                _check_codes(f"codes of column {name!r}", matrix[:, j], range(len(domains[name])))
            matrix = matrix.astype(np.int8)
        matrix.flags.writeable = False
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "domains", domains)
        object.__setattr__(self, "codes", matrix)
        object.__setattr__(self, "_rows", None)
        object.__setattr__(self, "_distinct", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"DataSet is immutable; cannot set {name!r}")

    def __reduce__(self):
        # Pickle and copy through the constructor, which re-checks the
        # codes and makes them read-only again.
        return partial(DataSet, codes=self.codes), (self.columns, self.domains)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataSet):
            return NotImplemented
        return (
            self.columns == other.columns
            and self.domains == other.domains
            and np.array_equal(self.codes, other.codes)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"DataSet(columns={self.columns!r}, n_rows={self.n_rows})"

    @property
    def rows(self) -> tuple[tuple[str, ...], ...]:
        """Decoded value-string rows, built on first use and cached."""
        if self._rows is None:
            cells = np.empty(self.codes.shape, dtype=object)
            for j, name in enumerate(self.columns):
                cells[:, j] = np.array(self.domains[name], dtype=object)[self.codes[:, j]]
            object.__setattr__(self, "_rows", tuple(map(tuple, cells.tolist())))
        return self._rows

    @property
    def n_rows(self) -> int:
        return self.codes.shape[0]

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise ValueError(f"no such column: {name!r}") from None

    def _distinct_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct code rows in lexicographic order and their counts, cached.

        One sort orders the rows, the first column most significant, and each
        row that differs from the one before it starts a group of copies.
        """
        if self._distinct is None:
            # A constant last key, the most significant, lets a table without columns sort.
            keys = [*self.codes.T[::-1], np.zeros(self.n_rows, dtype=bool)]
            ordered = self.codes[np.lexsort(keys)]
            changed = (ordered[1:] != ordered[:-1]).any(axis=1)
            starts = np.flatnonzero(np.r_[self.n_rows > 0, changed])
            rows, counts = ordered[starts], np.diff(starts, append=self.n_rows)
            rows.flags.writeable = counts.flags.writeable = False
            object.__setattr__(self, "_distinct", (rows, counts))
        return self._distinct


#: Largest domain an ``int8`` code column can index.
MAX_DOMAIN = int(np.iinfo(np.int8).max) + 1


def _encode_rows(
    columns: tuple[str, ...],
    domains: Mapping[str, tuple[str, ...]],
    rows: Sequence[Sequence[str]],
) -> np.ndarray:
    lookups = [{value: k for k, value in enumerate(domains[name])} for name in columns]
    flat: list[int] = []
    for i, row in enumerate(rows):
        if len(row) != len(columns):
            raise ValueError(f"row {i} has {len(row)} cells, expected {len(columns)}")
        for name, lookup, value in zip(columns, lookups, row):
            code = lookup.get(value)
            if code is None:
                raise ValueError(f"row {i}: {value!r} not in domain of {name!r}")
            flat.append(code)
    return np.array(flat, dtype=np.int8).reshape(len(rows), len(columns))


#: Column positions of the attributes ``to_dataset`` does not read off as
#: occurred/absent, and the codes it writes into them.
_LOCATION = AttributeId.LOCATION.value - 1
_MOVEMENT = AttributeId.MOVEMENT.value - 1
_INDOOR, _OUTDOOR = map(DOMAINS[AttributeId.LOCATION.column].index, ("indoor", "outdoor"))
_NONE, _WALK, _RUN = map(DOMAINS[AttributeId.MOVEMENT.column].index, ("none", "walk", "run"))
_OCCURRED_CODE = DOMAINS[AttributeId.FIGHTING.column].index(OCCURRED)
_INDOOR_BIT = 1 << CONTEXT_FIELDS.index("location_indoor")


def _window_codes(log: SessionLog, window: int) -> np.ndarray:
    """Code rows for the full windows of one log."""
    n_windows = len(log.ticks) // window
    n = n_windows * window
    indoor = (log.contexts[:n] & _INDOOR_BIT).astype(bool)
    # AttributeId values are 1-based column positions.
    position = log.behaviors[:n].astype(np.intp) - 1
    occurred = np.zeros((n_windows, len(ATTRIBUTE_COLUMNS)), dtype=bool)
    occurred[np.repeat(np.arange(n_windows), window), position] = True

    codes = np.empty((n_windows, len(DATASET_COLUMNS)), dtype=np.int8)
    codes[:, : len(ATTRIBUTE_COLUMNS)] = np.where(occurred, _OCCURRED_CODE, 1 - _OCCURRED_CODE)
    indoor_ticks = indoor.reshape(n_windows, window).sum(axis=1)
    codes[:, _LOCATION] = np.where(indoor_ticks * 2 >= window, _INDOOR, _OUTDOOR)
    # A movement event indoors reads as walking, outdoors as running.
    moved = (position == _MOVEMENT).reshape(n_windows, window)
    walk = (moved & indoor.reshape(n_windows, window)).sum(axis=1)
    run = moved.sum(axis=1) - walk
    still = window - walk - run
    # Ties break in listed order: walk beats run beats none.
    codes[:, _MOVEMENT] = np.where(
        (walk >= run) & (walk >= still), _WALK, np.where(run >= still, _RUN, _NONE)
    )
    codes[:, -1] = _PLAYER_INDEX[log.player]
    return codes


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
    codes = np.concatenate([_window_codes(log, window) for log in logs])
    return DataSet(columns=DATASET_COLUMNS, domains=dict(DOMAINS), codes=codes)


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
    labels = data.codes[:, data.column_index(CLASS_COLUMN)].astype(np.intp)
    domain = data.domains[CLASS_COLUMN]
    sizes = np.bincount(labels, minlength=len(domain))
    present = sorted((domain[code], code) for code in np.flatnonzero(sizes).tolist())
    for label, code in present:
        if sizes[code] < 2:
            raise ValueError(f"class {label!r} has {sizes[code]} rows, need at least 2")

    rng = derive_rng(seed)
    train = np.zeros(data.n_rows, dtype=bool)
    for _, code in present:
        indices = np.flatnonzero(labels == code)
        shuffled = rng.permutation(len(indices))
        train[indices[shuffled[: train_size(len(indices), ratio)]]] = True
    make = lambda mask: DataSet(
        columns=data.columns, domains=dict(data.domains), codes=data.codes[mask]
    )
    return make(train), make(~train)


# --- persistence ---------------------------------------------------------

def _json_fragment(value: object) -> str:
    return json.dumps(value, separators=(", ", ": "))


#: A record line's text up to its tick, and pre-rendered JSON for every value
#: it can hold but its tick, indexed by player index, context code and behavior value.
_TICK_HEAD = '{"tick": '
_PLAYER_JSON = tuple(_json_fragment(p.value) for p in PLAYERS)
_CONTEXT_JSON = tuple(_json_fragment(asdict(c)) for c in CONTEXTS)
_BEHAVIOR_JSON = {a.value: _json_fragment(a.column) for a in AttributeId}


def _json_line(tick: int, player: int, context: int, behavior: int) -> str:
    """The JSONL line of one row of a log's columns (no trailing newline).

    Same text as ``json.dumps`` of the ``tick``/``player``/``context``/
    ``behavior`` object with ``", "`` and ``": "`` separators, assembled
    from pre-rendered parts.
    """
    return (
        f'{_TICK_HEAD}{tick:d}, "player": {_PLAYER_JSON[player]}, '
        f'"context": {_CONTEXT_JSON[context]}, "behavior": {_BEHAVIOR_JSON[behavior]}}}'
    )


#: The context code of the seven ``bool`` flags, in ``CONTEXT_FIELDS`` order.
_read_flags = itemgetter(*CONTEXT_FIELDS)
_CODE_OF_FLAGS = {tuple(bits): code for code, bits in enumerate(CONTEXT_BITS.tolist())}


def _parse_line(line: str) -> tuple[int, int, int, int]:
    """Tick, player index, context code and behavior value of one JSONL line.

    The tick must be a JSON integer that fits ``int64`` and each context
    flag a JSON boolean. A malformed line raises ``ValueError``,
    ``KeyError``, ``TypeError`` or ``AttributeError``.
    """
    from .errors import json_number  # errors imports this module

    payload = json.loads(line)
    flags = _read_flags(payload["context"])
    for name, flag in zip(CONTEXT_FIELDS, flags):
        if not isinstance(flag, bool):
            raise ValueError(f"context.{name}: expected true or false, got {flag!r}")
    context = _CODE_OF_FLAGS[flags]
    player = _PLAYER_INDEX[PlayerId(payload["player"])]
    tick = json_number(payload["tick"], "tick", integer=True)
    if not -(1 << 63) <= tick < 1 << 63:
        raise ValueError(f"tick: {tick} does not fit int64")
    return tick, player, context, AttributeId.from_column(payload["behavior"]).value


def write_session_jsonl(log: SessionLog, path: str | Path) -> None:
    columns = (log.ticks, log.players, log.contexts, log.behaviors)
    with open(path, "w", encoding="utf-8") as handle:
        for line in map(_json_line, *(column.tolist() for column in columns)):
            handle.write(line + "\n")


#: A canonical line up to its first comma, its tick the group. A tick of
#: at most eighteen digits fits ``int64``; a longer one takes the general path.
_CANONICAL_HEAD = re.compile(re.escape(_TICK_HEAD) + "(0|-?[1-9][0-9]{0,17})")


@cache
def _line_table() -> tuple[dict[str, int], dict[tuple[int, int, int], int], np.ndarray]:
    """Key indices of every (player index, context code, behavior value) triple.

    Returns the key of each canonical line's text after its first comma
    (newline included), the key of each triple, and the ``(3, n_keys)``
    array whose column ``k`` is key ``k``'s triple. Built on first use.
    """
    triples = list(product(range(len(PLAYERS)), range(len(CONTEXTS)), sorted(_BEHAVIOR_JSON)))
    lines = (_json_line(0, *triple) for triple in triples)
    suffixes = {line[line.index(",") + 1 :] + "\n": key for key, line in enumerate(lines)}
    table = np.array(triples).T
    table.flags.writeable = False
    return suffixes, {triple: key for key, triple in enumerate(triples)}, table


def read_session_jsonl(path: str | Path, *, player: PlayerId | None = None) -> SessionLog:
    """Load a session log from a JSONL file.

    Blank lines are skipped, and any other line that :func:`_parse_line`
    accepts is read: a line exactly as :func:`write_session_jsonl` writes
    it decodes by table lookup, any other through ``json.loads``. Player
    is inferred from the first record unless given explicitly; an empty
    file, such as a 0-tick session, can only be read with it.
    """
    suffix_keys, triple_keys, table = _line_table()
    ticks: list[int] = []
    keys: list[int] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            head, _, tail = line.partition(",")
            key = suffix_keys.get(tail)
            if key is not None and (canonical := _CANONICAL_HEAD.fullmatch(head)):
                tick = int(canonical[1])
            elif line.strip():
                tick, *triple = _parse_line(line)
                key = triple_keys[tuple(triple)]
            else:
                continue
            ticks.append(tick)
            keys.append(key)
    if player is None:
        if not keys:
            raise ValueError(f"{path}: empty session file and no player given")
        player = PLAYERS[table[0, keys[0]]]
    stacked = (np.array(ticks, dtype=np.int64), *table[:, keys])
    columns = {name: column for (name, _, _), column in zip(_COLUMNS, stacked)}
    return SessionLog(player, **columns)


def dataset_to_csv(data: DataSet) -> str:
    """The table as CSV text; ``csv.writer`` renders each distinct row once.

    Lines end in ``"\\n"``. The writer's terminator is ``"\\r\\n"``, so it
    quotes a cell holding either character, and each ending is rewritten.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")

    def render(cells: Sequence[str]) -> str:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(cells)
        return buffer.getvalue()[:-2] + "\n"

    # Codes are below 128, so each byte of a row's int8 codes is one code.
    width, raw = len(data.columns), data.codes.tobytes()
    rows = [raw[i * width : (i + 1) * width] for i in range(data.n_rows)]
    values = [data.domains[name] for name in data.columns]
    lines = {row: render([d[k] for d, k in zip(values, row)]) for row in dict.fromkeys(rows)}
    return render(data.columns) + "".join(map(lines.__getitem__, rows))


def write_dataset_csv(data: DataSet, path: str | Path) -> None:
    Path(path).write_text(dataset_to_csv(data), encoding="utf-8")


def _plain_csv_codes(
    body: str, columns: Sequence[str], domains: Mapping[str, Sequence[str]]
) -> np.ndarray | None:
    """Codes of a CSV body that ``csv.reader`` would split on commas alone.

    ``None`` when a line needs the reader or its cells do not encode. Each
    distinct line is encoded once.
    """
    if '"' in body or "\r" in body or "\0" in body:
        return None
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    lookups = [{value: k for k, value in enumerate(domains[name])} for name in columns]
    limit = csv.field_size_limit()
    distinct: dict[str, int] = dict.fromkeys(lines)
    table = []
    for line in distinct:
        cells = line.split(",")
        codes = [lookup.get(cell) for lookup, cell in zip(lookups, cells)]
        # A blank line reads as a row of no cells; the size limit is csv.reader's.
        if not line or len(line) >= limit or len(cells) != len(columns) or None in codes:
            return None
        distinct[line] = len(table)
        table.append(codes)
    matrix = np.array(table, dtype=np.intp).reshape(len(table), len(columns))
    return matrix[list(map(distinct.__getitem__, lines))]


def read_dataset_csv(
    path: str | Path, domains: Mapping[str, tuple[str, ...]] | None = None
) -> DataSet:
    """Load a dataset written by :func:`write_dataset_csv`.

    Domains default to the standard schema; pass them explicitly for
    non-standard tables (CSV does not carry domain declarations). A body
    of plain lines, as :func:`dataset_to_csv` writes for the standard
    schema, is encoded one distinct line at a time; any other body is
    read whole by ``csv.reader``, which gives the same table or error.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        try:
            header = next(csv.reader(handle))
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        body = handle.read()
    if domains is None:
        domains = DOMAINS
    missing = [name for name in header if name not in domains]
    codes = None if missing else _plain_csv_codes(body, header, domains)
    rows = None
    if codes is None:
        # Parsed before the header check, so a malformed body raises first.
        rows = tuple(tuple(row) for row in csv.reader(io.StringIO(body, newline="")))
        if missing:
            raise ValueError(f"{path}: no domain known for columns {missing}")
    domains = {name: tuple(domains[name]) for name in header}
    return DataSet(columns=tuple(header), domains=domains, rows=rows, codes=codes)
