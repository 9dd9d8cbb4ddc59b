"""Behavior vocabulary, session logs, and dataset construction.

Raw play is a stream of (stimulus context, chosen behavior) events, one
per game tick. A :class:`SessionLog` is built from four integer columns
(tick, player index, context code, behavior value) and stores them as
one packed record array; no per-tick object is ever built. This module
defines the vocabulary and the one feasibility table,
:data:`FEASIBILITY`, validates logs, and aggregates them into the
categorical table that the network classifier consumes: fixed-width
windows of ticks become one row each, with the player identity in the
class column. Each window is reduced to its behavior bits and its indoor,
walk and run counts, and ``_row_codes``, the one statement of the window
rules, turns those into the row.

The JSONL and CSV readers accept whatever their general parsers
(``json.loads`` per line, ``csv.reader``) accept, except that a JSONL
tick must be a JSON integer and a context flag a JSON boolean. A CSV
line in the form the writer emits decodes by table lookup. One renderer
writes JSONL lines and also checks what the reader decodes: a JSONL file
is decoded a block of lines at a time, each block accepted only if
rendering what was decoded gives its bytes back. Any other block is read
line by line through the general parser, and a file with an error is
read again whole that way, so both paths give the same values and errors.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, fields
from enum import Enum
from functools import cache, partial
from operator import itemgetter
from os.path import commonprefix
from pathlib import Path
from typing import NamedTuple

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
    """Raise ``ValueError`` unless ``raw`` holds integers within int64, each in ``valid`` if given.

    Compared in intp, the dtype later stages use: kernels for a narrower
    dtype would be one more set of numpy code pages resident all run.
    """
    if raw.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {raw.dtype}")
    # Only uint64 holds values past int64, which a cast would wrap.
    if not np.can_cast(raw.dtype, np.int64) and (raw >= np.uint64(1 << 63)).any():
        raise ValueError(f"{what} outside the int64 range")
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

        Each row is packed into 16-bit keys: a column takes the bits of its
        largest code, the first column the most significant, and a new key
        starts where the next column would pass 16 bits, so the standard
        table's 12 bits sort as one key. One sort orders the keys, and each
        row whose keys differ from the ones before it starts a group of copies.
        """
        if self._distinct is None:
            # A table without columns keeps one constant key, so it still sorts.
            keys, free = [np.zeros(self.n_rows, dtype=np.uint16)], 16
            for j, name in enumerate(self.columns):
                bits = (len(self.domains[name]) - 1).bit_length()
                if bits > free:
                    keys.append(np.zeros(self.n_rows, dtype=np.uint16))
                    free = 16
                free -= bits
                keys[-1] <<= bits
                # Codes are never negative, so their bytes read as uint8 are the codes.
                keys[-1] |= self.codes[:, j].view(np.uint8)
            order = np.lexsort(keys[::-1])
            ordered = np.stack(keys)[:, order]
            changed = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
            starts = np.flatnonzero(np.r_[self.n_rows > 0, changed])
            rows, counts = self.codes[order[starts]], np.diff(starts, append=self.n_rows)
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


#: Column positions of the attributes ``_row_codes`` does not read off as
#: occurred/absent, and the codes it writes into them.
_LOCATION = AttributeId.LOCATION.value - 1
_MOVEMENT = AttributeId.MOVEMENT.value - 1
_INDOOR, _OUTDOOR = map(DOMAINS[AttributeId.LOCATION.column].index, ("indoor", "outdoor"))
_NONE, _WALK, _RUN = map(DOMAINS[AttributeId.MOVEMENT.column].index, ("none", "walk", "run"))
_OCCURRED_CODE, _ABSENT_CODE = map(DOMAINS[AttributeId.FIGHTING.column].index, (OCCURRED, ABSENT))
_INDOOR_BIT = 1 << CONTEXT_FIELDS.index("location_indoor")

#: Row ``m`` is the code row of a window whose behavior bits are ``m``: column
#: ``j`` reads occurred when bit ``j`` is set, that is when the behavior of
#: ``AttributeId`` value ``j + 1`` occurred. The location, movement and class
#: cells are placeholders for ``_row_codes`` and its callers to write over.
_OCCURRED_ROWS = np.where(
    np.arange(1 << len(ATTRIBUTE_COLUMNS))[:, None] >> np.arange(len(DATASET_COLUMNS)) & 1,
    _OCCURRED_CODE,
    _ABSENT_CODE,
).astype(np.int8)
_OCCURRED_ROWS.flags.writeable = False


def _row_codes(
    seen: np.ndarray, indoor: np.ndarray, walk: np.ndarray, run: np.ndarray, window: int
) -> np.ndarray:
    """Code rows of windows of ``window`` ticks from their statistics, one row per window.

    Bit ``v`` of ``seen`` is set when the behavior of ``AttributeId`` value
    ``v`` occurs in the window; ``indoor`` counts its indoor ticks, ``walk``
    its movement events indoors and ``run`` those outdoors. No other code
    applies the window rules: a behavior column reads occurred when its
    bit is set; location is indoor when at least half the ticks are (ties
    go to indoor); movement is the most frequent of walk, run and none
    (the ticks without a movement event), with ties broken in that order.
    The rows are a fresh array whose class column is the caller's to fill.
    """
    codes = _OCCURRED_ROWS.take(seen >> 1, axis=0)
    codes[:, _LOCATION] = np.where(indoor * 2 >= window, _INDOOR, _OUTDOOR)
    still = window - walk - run
    codes[:, _MOVEMENT] = np.where(
        (walk >= run) & (walk >= still), _WALK, np.where(run >= still, _RUN, _NONE)
    )
    return codes


def _window_codes(log: SessionLog, window: int) -> np.ndarray:
    """Code rows for the full windows of one log: their statistics, through ``_row_codes``."""
    n_windows = len(log.ticks) // window
    n = n_windows * window
    behaviors = log.behaviors[:n].reshape(n_windows, window)
    indoor = (log.contexts[:n] & _INDOOR_BIT).astype(bool).reshape(n_windows, window)
    # Bit v of a window's mask is set when the behavior of value v occurs in it.
    # The bits are laid out tick position by window, so the OR runs over whole rows.
    bits = np.left_shift(1, behaviors.T, dtype=np.int16, order="C")
    seen = np.bitwise_or.reduce(bits, axis=0)
    # Each count is at most window, so its float64 product is exact.
    ones = np.ones(window)
    # A movement event indoors reads as walking, outdoors as running.
    moved = behaviors == AttributeId.MOVEMENT.value
    walk = (moved & indoor) @ ones
    codes = _row_codes(seen, indoor @ ones, walk, moved @ ones - walk, window)
    codes[:, -1] = _PLAYER_INDEX[log.player]
    return codes


def to_dataset(logs: Sequence[SessionLog], window: int) -> DataSet:
    """Aggregate session logs into one classification row per tick window.

    Windows are consecutive, non-overlapping runs of ``window`` records
    within each log; a trailing partial window is dropped. A behavior
    column reads ``occurred`` when that behavior appears at least once in
    the window. Location is the modal location over the window (ties go
    to indoor). Movement is the most frequent of walk, run, and none,
    with ties broken in that order. ``_row_codes`` is the one statement
    of these rules: each window is reduced to its behavior bits and its
    indoor, walk and run counts, and those go through it.
    """
    from .errors import check_range  # errors imports this module

    check_range("window", window)
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
    train side (half-up rounding). Each side takes its rows by index, in
    increasing order, so within each side the original row order is
    preserved.
    """
    from .errors import check_range  # errors imports this module

    check_range("split_ratio", ratio)
    check_range("seed", seed)
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
        columns=data.columns,
        domains=dict(data.domains),
        codes=data.codes.take(np.flatnonzero(mask), axis=0),
    )
    return make(train), make(~train)


# --- persistence ---------------------------------------------------------

#: A record line's text up to its tick.
_TICK_HEAD = b'{"tick": '

#: A line's flat index in :func:`_line_table`: the ``np.ravel_multi_index``
#: of its (player index, context code, behavior value) in this shape.
_LINE_SHAPE = tuple(valid.stop for _, _, valid in _COLUMNS[1:])


@cache
def _line_table() -> list[bytes]:
    """Each canonical JSONL line's text after its tick's comma, newline included.

    The texts are held by flat index, with ``b""`` where the behavior value
    names no attribute. Built on first use, not at import.
    """
    json_of = partial(json.dumps, separators=(", ", ": "))
    contexts = [json_of(dict(zip(CONTEXT_FIELDS, bits))) for bits in CONTEXT_BITS.tolist()]
    names = {a.value: json_of(a.column) for a in AttributeId}
    behaviors = [names.get(value) for value in range(_LINE_SHAPE[2])]
    return [
        f' "player": {player}, "context": {context}, "behavior": {behavior}}}\n'.encode()
        if behavior
        else b""
        for player in [json_of(p.value) for p in PLAYERS]
        for context in contexts
        for behavior in behaviors
    ]


def _render_block(ticks: np.ndarray, flat: np.ndarray) -> bytes:
    """The JSONL lines of these ticks and :func:`_line_table` flat indices."""
    texts, line = _line_table(), _TICK_HEAD + b"%d,%b"
    return b"".join([line % (t, texts[i]) for t, i in zip(ticks.tolist(), flat.tolist())])


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


class _LineLayout(NamedTuple):
    """Where a canonical line's fields sit, found by comparing :func:`_line_table` texts.

    Offsets count from the byte after the tick's comma and hold while every
    flag before them is ``false``; each ``true`` before a field moves it
    one byte back.
    """

    comma_at: np.ndarray  # each offset the tick's comma can have from the newline
    digit_weights: np.ndarray  # powers of ten for a tick's last 19 digits, units last
    player_at: int  # the byte that tells the players apart
    player_of: np.ndarray  # player index by that byte's value
    flag_at: tuple[int, ...]  # each flag's first letter, in CONTEXT_FIELDS order
    true_letter: int
    name_at: int  # the behavior name's first letter
    name_end: int  # bytes after the name's last letter, newline included
    name_keys: np.ndarray  # sorted keys: first letter << 8 | last letter
    name_values: np.ndarray  # the behavior value of each key
    shortest: int  # bytes in the shortest line, newline included


@cache
def _line_layout() -> _LineLayout:
    """The layout of :func:`_line_table`'s texts; built on first use, not at import."""
    texts = _line_table()
    values = [a.value for a in AttributeId]
    text = lambda player=0, context=0, value=values[0]: texts[
        np.ravel_multi_index((player, context, value), _LINE_SHAPE)
    ]
    differ = lambda a, b: len(commonprefix([a, b]))
    base = text()
    player_at = differ(base, text(player=1))
    player_of = np.zeros(1 << 8, dtype=np.intp)
    for index in range(len(PLAYERS)):
        player_of[text(player=index)[player_at]] = index
    flag_at = tuple(differ(base, text(context=1 << bit)) for bit in range(len(CONTEXT_FIELDS)))
    names = [text(value=value) for value in values]
    name_at = min(differ(base, name) for name in names[1:])
    name_end = len(commonprefix([name[::-1] for name in names]))
    keys = sorted((name[name_at] << 8 | name[-name_end - 1], v) for name, v in zip(names, values))
    tails = [len(t) for t in texts if t]
    head = len(_TICK_HEAD) + 1  # the tick's comma
    return _LineLayout(
        comma_at=np.arange(-max(tails), 1 - min(tails)),
        digit_weights=np.array([10**power for power in range(18, -1, -1)]),
        player_at=player_at,
        player_of=player_of,
        flag_at=flag_at,
        true_letter=text(context=1)[flag_at[0]],
        name_at=name_at,
        name_end=name_end,
        name_keys=np.array([key for key, _ in keys]),
        name_values=np.array([value for _, value in keys]),
        shortest=head + 1 + min(tails),
    )


def _guess_columns(data: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, ...]:
    """Tick, player, context and behavior columns of the lines ending at ``ends``.

    Each field is read at its :func:`_line_layout` offset as if the line
    were canonical; nothing is checked. Never raises: every gather index
    is clipped.
    """
    layout = _line_layout()
    gather = partial(data.take, mode="clip")
    # A tail's length leaves the tick's comma at one of a few places, and the
    # bytes at the others are the tick's or the tail's first, never a comma.
    window = gather(ends[:, None] + layout.comma_at)
    comma = ends + layout.comma_at[0] + (window == ord(",")).argmax(axis=1)
    digits_at = np.concatenate(([0], ends[:-1] + 1)) + len(_TICK_HEAD)
    negative = gather(digits_at) == ord("-")
    weights = layout.digit_weights
    width = min(max(int((comma - digits_at).max()), 0), len(weights))
    places = comma[:, None] + np.arange(-width, 0)
    digits = gather(places).astype(np.intp) - ord("0")
    digits[places < (digits_at + negative)[:, None]] = 0
    ticks = (digits * weights[len(weights) - width :]).sum(axis=1)
    ticks[negative] *= -1

    tail = comma + 1  # moved back below by each true flag
    players = layout.player_of[gather(tail + layout.player_at)]
    contexts = np.zeros(len(ends), dtype=np.intp)
    for bit, at in enumerate(layout.flag_at):
        true = gather(tail + at) == layout.true_letter
        tail -= true
        contexts |= true << bit
    keys = gather(tail + layout.name_at).astype(np.intp) << 8 | gather(ends - layout.name_end)
    found = np.minimum(np.searchsorted(layout.name_keys, keys), len(layout.name_keys) - 1)
    return ticks, players, contexts, layout.name_values[found]


def _decode_block(block: bytes) -> tuple[np.ndarray, ...] | None:
    """Tick, player, context and behavior columns of one block of JSONL lines, or ``None``.

    The columns :func:`_guess_columns` reads are accepted only if
    :func:`_render_block` renders them back to exactly ``block``; any block
    :func:`write_session_jsonl` could not have written gives ``None``, and
    no block raises.
    """
    data = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    # So that a block of blank lines cannot drive gathers many times its size.
    if not 0 < len(ends) <= len(block) // _line_layout().shortest:
        return None
    columns = _guess_columns(data, ends)
    if _render_block(columns[0], np.ravel_multi_index(columns[1:], _LINE_SHAPE)) != block:
        return None
    return columns


#: Lines of a session log that :func:`write_session_jsonl` joins into one write.
_WRITE_LINES = 1 << 10

#: Bytes of a session log that :func:`read_session_jsonl` reads at a time;
#: each block is cut after its last newline.
_READ_BYTES = 1 << 17


def write_session_jsonl(log: SessionLog, path: str | Path) -> None:
    """Write a session log as JSONL, one line per tick, in stream order.

    A line is ``{"tick": T, "player": P, "context": {...}, "behavior": B}``
    with the context's seven flags in ``CONTEXT_FIELDS`` order and a
    ``"\\n"`` ending: the text of ``json.dumps`` of that object with
    ``", "`` and ``": "`` separators. Each block of ``_WRITE_LINES`` lines
    is rendered by :func:`_render_block`, the renderer that also checks
    what :func:`read_session_jsonl` decodes, and handed to the file in one
    write.
    """
    flat = np.ravel_multi_index((log.players, log.contexts, log.behaviors), _LINE_SHAPE)
    with open(path, "wb") as handle:
        for start in range(0, len(flat), _WRITE_LINES):
            block = slice(start, start + _WRITE_LINES)
            handle.write(_render_block(log.ticks[block], flat[block]))


def _read_blocks(path: str | Path) -> list[np.ndarray] | None:
    """The four columns of a JSONL file read a block at a time, or ``None`` on a bad line.

    Each block is ``_READ_BYTES`` of the file and the rest of the line it
    cuts, so it ends where a line ends, or at the end of the file. A block
    exactly as the writer writes it is decoded by :func:`_decode_block`.
    Any other block is read line by line through :func:`_parse_lines`.
    Each block starts after a ``"\\n"``, which always ends a line, so these
    are the lines a text reader of the whole file finds there.
    """
    blocks = [np.empty((4, 0), dtype=np.int64)]
    with open(path, "rb") as handle:
        while block := handle.read(_READ_BYTES):
            if not block.endswith(b"\n"):
                block += handle.readline()
            if (columns := _decode_block(block)) is None:
                try:
                    columns = _parse_lines(io.StringIO(block.decode("utf-8"), newline=None))
                except (ValueError, KeyError, TypeError, AttributeError):
                    # The text reader decodes in chunks of its own, so it can meet a
                    # byte that is not UTF-8 before an earlier bad line: the caller
                    # reads the whole file again for its first error.
                    return None
            blocks.append(columns)
    return [np.concatenate(column) for column in zip(*blocks)]


def _parse_lines(lines: Iterable[str]) -> np.ndarray:
    """The four columns of JSONL lines; each line not blank goes through :func:`_parse_line`."""
    rows = [_parse_line(line) for line in lines if line.strip()]
    return np.array(rows, dtype=np.int64).reshape(len(rows), 4).T


def read_session_jsonl(path: str | Path, *, player: PlayerId | None = None) -> SessionLog:
    """Load a session log from a JSONL file.

    Blank lines are skipped, and any other line that :func:`_parse_line`
    accepts is read. The file is read ``_READ_BYTES`` at a time: a block
    exactly as :func:`write_session_jsonl` writes it is decoded with numpy
    and checked by rendering it again with the writer's
    :func:`_render_block`, and any other block is read line by line
    through ``json.loads``, with the same values. A file with a line that
    fails to parse is read again whole, line by line as text, so its first
    error is the one the text reader meets. Player is inferred from the
    first record unless given explicitly; an empty file, such as a 0-tick
    session, can only be read with it.
    """
    columns = _read_blocks(path)
    if columns is None:
        with open(path, encoding="utf-8") as handle:
            columns = _parse_lines(handle)
    if player is None:
        if not len(columns[0]):
            raise ValueError(f"{path}: empty session file and no player given")
        player = PLAYERS[columns[1][0]]
    return SessionLog(player, **{name: column for (name, _, _), column in zip(_COLUMNS, columns)})


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
