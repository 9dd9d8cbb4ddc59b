"""Session logs as decoded records, and feasibility as its rules state it.

The package builds a :class:`SessionLog` only from its four integer
columns, stores it as one packed array of code records, and reads
feasibility only from its ``FEASIBILITY`` table. Tests that write a log
record by record, read one back as values, or check the table use these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from skilltransfer.behavior_data import (
    CONTEXTS,
    FEASIBILITY_REQUIREMENTS,
    PLAYERS,
    AttributeId,
    PlayerId,
    SessionLog,
    StimulusContext,
)


@dataclass(frozen=True, slots=True)
class Record:
    """One tick of play as values: who did what under which stimuli."""

    player: PlayerId
    tick: int
    context: StimulusContext
    behavior: AttributeId


def records_of(log: SessionLog) -> tuple[Record, ...]:
    """The records of ``log``, decoded in stream order."""
    return tuple(
        Record(PLAYERS[player], tick, CONTEXTS[context], AttributeId(behavior))
        for tick, player, context, behavior in log.records.tolist()
    )


def log_of(records, player: PlayerId = PlayerId.ID1) -> SessionLog:
    """The log whose columns hold ``records``, in order."""
    rows = [
        (r.tick, PLAYERS.index(r.player), CONTEXTS.index(r.context), r.behavior.value)
        for r in records
    ]
    ticks, players, contexts, behaviors = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    return SessionLog(
        player, ticks=ticks, players=players, contexts=contexts, behaviors=behaviors
    )


def feasible(behavior: AttributeId, context: StimulusContext) -> bool:
    """Whether ``behavior`` can occur under ``context``; LOCATION never can."""
    needs = FEASIBILITY_REQUIREMENTS.get(behavior, ())
    return behavior is not AttributeId.LOCATION and all(getattr(context, f) for f in needs)
