"""Game scenarios, player behavior profiles, and the session simulator.

A scenario is a bundle of independent per-tick stimulus probabilities. A
player profile maps each condition key to a categorical distribution over
behaviors. The keys governing a tick's context share it equally; under each,
the behavior follows the key's distribution restricted to the behaviors the
context makes feasible and renormalized.

Condition precedence: stimulus-driven keys (obstacle, person facing,
climbable, horse, soldier, civilian) govern whenever any of their stimuli
is present. Only when no stimulus is active does the location key (indoor
or outdoor) govern the tick. The ``default`` key is never selected
directly; when a governing key puts no mass at all on a feasible behavior,
its share follows the default distribution restricted the same way. A
session refuses to start, whatever its length and seed, when some context
its scenario can produce falls back on a default with no feasible behavior.

No log records which key governed a tick, so the key pick is a mixture that
is summed out: each profile carries one behavior law per context code, built
once on first use. :func:`joint_law` weights it by the scenario's context
probabilities into one joint (context, behavior) law per session;
``run_session``, the one simulator, draws every tick from that law in one
call, one uniform per tick, into one context-code and one behavior-value
column, which the
:class:`~skilltransfer.behavior_data.SessionLog` packs into its record
array. A tick is the first pair whose cumulative mass exceeds its uniform;
``run_session`` finds that pair through an exact guide table, so the
stream layout does not depend on how the lookup is done. Feasibility is
read from the one table, :data:`~skilltransfer.behavior_data.FEASIBILITY`.
The random stream layout is documented in :mod:`skilltransfer.seeds`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .behavior_data import (
    CONTEXT_BITS,
    CONTEXT_FIELDS,
    CONTEXTS,
    EVENT_ATTRIBUTES,
    FEASIBILITY,
    FEASIBILITY_REQUIREMENTS,
    PLAYERS,
    UNCONDITIONAL_BEHAVIORS,
    AttributeId,
    PlayerId,
    SessionLog,
    StimulusContext,
)
from .errors import MALFORMED_DOCUMENT, ConfigError, check_fields, check_range, json_number
from .seeds import ROLE_EXPERT, ROLE_LEARNER, STREAM_SESSION, derive_rng, derive_seed


class ConditionKey(Enum):
    """Named conditions a profile can react to."""

    INDOOR = "indoor"
    OUTDOOR = "outdoor"
    PERSON_FACING = "person_facing"
    CLIMBING_OPPORTUNITY = "climbing_opportunity"
    OBSTACLE = "obstacle"
    HORSE_AVAILABLE = "horse_available"
    SOLDIER_PRESENT = "soldier_present"
    CIVILIAN_PRESENT = "civilian_present"
    DEFAULT = "default"


#: Context field that triggers each stimulus-driven key, in pick order.
STIMULUS_KEY_FIELDS: dict[ConditionKey, str] = {
    ConditionKey.PERSON_FACING: "person_facing",
    ConditionKey.CLIMBING_OPPORTUNITY: "climbable_present",
    ConditionKey.OBSTACLE: "obstacle_present",
    ConditionKey.HORSE_AVAILABLE: "horse_available",
    ConditionKey.SOLDIER_PRESENT: "soldier_present",
    ConditionKey.CIVILIAN_PRESENT: "civilian_present",
}


@dataclass(frozen=True, slots=True)
class Scenario:
    """Per-tick stimulus probabilities plus session length; the defaults are the default world.

    Stimuli are frequent (0.6 each) because several linked behaviors are only
    feasible when two stimuli coincide; rarer stimuli starve the classifier.
    """

    ticks_per_session: int = 2000
    location_indoor: float = 0.5
    obstacle_present: float = 0.6
    soldier_present: float = 0.6
    civilian_present: float = 0.6
    horse_available: float = 0.6
    climbable_present: float = 0.6
    person_facing: float = 0.6

    __post_init__ = check_fields


def default_scenario() -> Scenario:
    """The documented default world: ``Scenario()``."""
    return Scenario()


Distribution = dict[AttributeId, float]

_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PlayerProfile:
    """A categorical behavior distribution for every condition key."""

    profile_id: str
    distributions: dict[ConditionKey, Distribution]

    def __post_init__(self) -> None:
        missing = [k.value for k in ConditionKey if k not in self.distributions]
        if missing:
            raise ValueError(f"profile {self.profile_id!r} lacks conditions: {missing}")
        extra = [k for k in self.distributions if not isinstance(k, ConditionKey)]
        if extra:
            raise ValueError(f"profile {self.profile_id!r} has non-condition keys: {extra}")
        copied: dict[ConditionKey, Distribution] = {}
        for key, dist in self.distributions.items():
            if not dist:
                raise ValueError(f"{self.profile_id}/{key.value}: empty distribution")
            for behavior, p in dist.items():
                if behavior not in EVENT_ATTRIBUTES:
                    raise ValueError(
                        f"{self.profile_id}/{key.value}: {behavior} is not an event behavior"
                    )
                if not p > 0.0:
                    raise ValueError(
                        f"{self.profile_id}/{key.value}: probability of "
                        f"{behavior.column} must be positive, got {p}"
                    )
            if key in (ConditionKey.INDOOR, ConditionKey.OUTDOOR):
                # Location keys only ever govern stimulus-free ticks, where
                # stimulus-gated behaviors cannot happen.
                gated = [b.column for b in dist if b not in UNCONDITIONAL_BEHAVIORS]
                if gated:
                    raise ValueError(
                        f"{self.profile_id}/{key.value}: behaviors {gated} need a "
                        "stimulus and can never occur under a location key"
                    )
            total = sum(dist.values())
            if abs(total - 1.0) > _SUM_TOLERANCE:
                raise ValueError(
                    f"{self.profile_id}/{key.value}: probabilities sum to {total!r}"
                )
            copied[key] = dict(sorted(dist.items(), key=lambda kv: kv[0].value))
        object.__setattr__(self, "distributions", copied)

    @cached_property
    def _law(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-tick behavior law of this profile under each context, and its dead contexts.

        Row ``code`` of the law is the law over ``EVENT_ATTRIBUTES`` of a
        tick with context ``code``: the mean, over the keys governing that
        context, of each key's distribution restricted to the feasible
        behaviors and renormalized. A key with no feasible mass there uses
        the default key restricted the same way; where the default has none
        either the key's share is lost, and the second array marks that
        context dead.
        """
        probs = np.array(
            [
                [self.distributions[k].get(b, 0.0) for b in EVENT_ATTRIBUTES]
                for k in (*_GOVERNING, ConditionKey.DEFAULT)
            ]
        )
        masked = probs[:, None, :] * _FEASIBLE  # (key, code, behavior), the default last
        rows = np.where(masked[:-1].sum(axis=2, keepdims=True) > 0.0, masked[:-1], masked[-1])
        total = rows.sum(axis=2, keepdims=True)
        dead = total[:, :, 0].T == 0.0  # (code, key)
        rows = rows / np.where(total == 0.0, 1.0, total) * _GOVERNS.T[:, :, None]
        law = rows.sum(axis=0) / _GOVERNS.sum(axis=1, keepdims=True)
        return law, (dead & _GOVERNS).any(axis=1)


def active_keys(context: StimulusContext) -> tuple[ConditionKey, ...]:
    """Condition keys governing this context, in deterministic order.

    Stimulus keys dominate; the location key applies only to a
    stimulus-free tick. Never empty and never contains DEFAULT.
    """
    stimuli = tuple(
        key for key, field in STIMULUS_KEY_FIELDS.items() if getattr(context, field)
    )
    if stimuli:
        return stimuli
    return (ConditionKey.INDOOR if context.location_indoor else ConditionKey.OUTDOOR,)


#: Keys that can govern a tick, in behavior-table order.
_GOVERNING: tuple[ConditionKey, ...] = tuple(
    k for k in ConditionKey if k is not ConditionKey.DEFAULT
)
#: ``AttributeId`` value of each ``EVENT_ATTRIBUTES`` index.
_EVENT_VALUES = np.array([b.value for b in EVENT_ATTRIBUTES], dtype=np.int8)

#: ``_GOVERNS[code, k]``: key ``_GOVERNING[k]`` governs context ``CONTEXTS[code]``.
_GOVERNS = np.array([[k in keys for k in _GOVERNING] for keys in map(active_keys, CONTEXTS)])
#: Per context code, whether each event behavior (``EVENT_ATTRIBUTES`` order)
#: is feasible there: the event rows of ``FEASIBILITY``, transposed.
_FEASIBLE = FEASIBILITY[_EVENT_VALUES].T
#: Context code and ``AttributeId`` value of each pair of the joint law, code-major,
#: as one record per pair, so a tick's two columns come from one gather.
_PAIRS = np.empty(
    len(CONTEXTS) * len(EVENT_ATTRIBUTES), dtype=[("contexts", np.uint8), ("behaviors", np.int8)]
)
_PAIRS["contexts"] = np.arange(len(CONTEXTS)).repeat(len(EVENT_ATTRIBUTES))
_PAIRS["behaviors"] = np.tile(_EVENT_VALUES, len(CONTEXTS))
_PAIRS.flags.writeable = False


#: Equal buckets of [0, 1] in the guide table; a power of two, so a bucket
#: edge ``j / _GUIDE`` and a uniform's bucket ``floor(u * _GUIDE)`` are exact.
_GUIDE = 1 << 14


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf, arange(_GUIDE + 1) / _GUIDE, "right")``, as ``int16``.

    Entry ``j`` counts the CDF entries ``c <= j / _GUIDE``, that is those with
    ``ceil(c * _GUIDE) <= j``: a cumulative count of those ceilings.
    """
    edges = np.ceil(cdf * _GUIDE).astype(np.intp)
    return np.cumsum(np.bincount(edges, minlength=_GUIDE + 1), dtype=np.int16)


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf, u, "right")`` as ``int16``, exactly.

    ``cdf`` is nondecreasing in [0, 1] with fewer than 2**15 entries, and
    every ``u`` lies in [0, 1). A uniform in bucket ``j`` exceeds every entry
    the guide counts at ``j`` and no other, unless an entry falls inside its
    bucket; only those uniforms are searched (indexed search: Chen and Asau
    1974; Devroye 1986, section III.2). One gather reads a marked copy of
    the guide: entry ``j`` is the guide's count at ``j``, or -1, which no
    count is, where an entry falls inside bucket ``j`` and the uniform must
    be searched.
    """
    guide = _guide_table(cdf)
    marked = np.where(np.diff(guide) == 0, guide[:-1], np.int16(-1))
    pairs = marked.take((u * _GUIDE).astype(np.int32))
    split = np.flatnonzero(pairs < 0)
    pairs[split] = np.searchsorted(cdf, u[split], side="right")
    return pairs


def joint_law(scenario: Scenario, profile: PlayerProfile) -> np.ndarray:
    """The per-tick law of (context code, behavior) of a session, shape (128, 9).

    Entry ``[code, b]`` is the scenario's probability of context ``code``
    times the profile's probability of ``EVENT_ATTRIBUTES[b]`` there. Raises
    :class:`ConfigError` when the scenario can produce a context the
    profile has no feasible behavior for.
    """
    law, dead = profile._law
    p = np.array([getattr(scenario, f) for f in CONTEXT_FIELDS])
    # A context is reachable when its present fields have p > 0 and its absent ones p < 1.
    if dead[np.where(CONTEXT_BITS, p > 0.0, p < 1.0).all(axis=1)].any():
        raise ConfigError(
            f"profile {profile.profile_id!r}: default condition has no feasible "
            "behavior for a context the scenario can produce"
        )
    weights = np.where(CONTEXT_BITS, p, 1.0 - p).prod(axis=1)
    return weights[:, None] * law


def run_session(
    scenario: Scenario, profile: PlayerProfile, player: PlayerId, seed: int
) -> SessionLog:
    """Simulate one full session; bit-identical for identical arguments."""
    check_range("seed", seed)
    # Inverse CDF of the joint law, code-major. A tick is the first pair whose
    # cumulative mass exceeds its uniform; a pair without mass repeats the
    # entry before it, so it is never that pair, and dividing by the last entry
    # makes it exactly 1.0, past every uniform in [0, 1). ``_inverse_cdf`` finds
    # the pair through an exact guide table.
    cdf = np.cumsum(joint_law(scenario, profile))
    cdf /= cdf[-1]
    ticks = scenario.ticks_per_session
    drawn = _PAIRS.take(_inverse_cdf(cdf, derive_rng(seed).random(ticks)))
    return SessionLog(
        player,
        ticks=np.arange(ticks),
        players=np.full(ticks, PLAYERS.index(player), dtype=np.int8),
        contexts=drawn["contexts"],
        behaviors=drawn["behaviors"],
    )


def simulate_pair(
    expert: PlayerProfile,
    learner: PlayerProfile,
    scenario: Scenario,
    seed: int,
    iteration: int,
) -> tuple[SessionLog, SessionLog]:
    """One session per player on their ``(STREAM_SESSION, iteration, role)`` streams."""
    stream = partial(derive_seed, seed, STREAM_SESSION, iteration)
    return (
        run_session(scenario, expert, PlayerId.ID1, stream(ROLE_EXPERT)),
        run_session(scenario, learner, PlayerId.ID2, stream(ROLE_LEARNER)),
    )


# --- built-in profile pair ------------------------------------------------

_BASE_BEHAVIORS = UNCONDITIONAL_BEHAVIORS  # fighting, obstacle, movement

#: Behaviors guaranteed feasible whenever the key governs a tick: the three
#: unconditional ones plus those whose one requirement is the key's own
#: stimulus (none for the location and default keys).
_KEY_SUPPORT: dict[ConditionKey, tuple[AttributeId, ...]] = {
    key: _BASE_BEHAVIORS
    + tuple(
        b for b, needs in FEASIBILITY_REQUIREMENTS.items()
        if needs == (STIMULUS_KEY_FIELDS.get(key),)
    )
    for key in ConditionKey
}

#: The linkage strength of the built-in pair when a config names none.
LINKAGE_STRENGTH = 0.7

#: Table 1: per player, each linked condition key with its linked behaviors
#: and their shares of the linked mass.
_TABLE1: dict[str, dict[ConditionKey, Distribution]] = {
    "expert-table1": {
        ConditionKey.OBSTACLE: {AttributeId.FIGHTING: 1.0},
        ConditionKey.PERSON_FACING: {AttributeId.FACING_SOL: 1.0},
        ConditionKey.HORSE_AVAILABLE: {AttributeId.FACING_SOL: 1.0},
        ConditionKey.CLIMBING_OPPORTUNITY: {AttributeId.CLIMBING: 1.0},
    },
    "learner-table1": {
        ConditionKey.INDOOR: {AttributeId.MOVEMENT: 1.0},
        ConditionKey.OUTDOOR: {AttributeId.MOVEMENT: 1.0},
        ConditionKey.OBSTACLE: {AttributeId.LISTENING: 1.0},
        ConditionKey.PERSON_FACING: {
            AttributeId.RIDING_HRS: 1 / 3,
            AttributeId.CLIMBING: 1 / 3,
            AttributeId.ATTACK_CIV: 1 / 3,
        },
        ConditionKey.HORSE_AVAILABLE: {AttributeId.LISTENING: 1.0},
        ConditionKey.CLIMBING_OPPORTUNITY: {AttributeId.ATTACK_CIV: 1.0},
    },
}
#: The one linked key whose unlinked mass skips part of the key's support:
#: the expert shows no social behavior at climbing spots, so it stays on
#: plain movement.
_UNLINKED_SUPPORT = {("expert-table1", ConditionKey.CLIMBING_OPPORTUNITY): (AttributeId.MOVEMENT,)}


def _linked(linked: Distribution, support: tuple[AttributeId, ...], s: float) -> Distribution:
    """Mass ``s`` split over ``linked`` by its shares, the rest uniform over the other ``support``.

    A linked share that underflows to 0.0 is left out.
    """
    rest = [b for b in support if b not in linked]
    if s >= 1.0 or not rest:
        return dict(linked)
    dist: Distribution = {b: s * w for b, w in linked.items() if s * w > 0.0}
    dist.update(dict.fromkeys(rest, (1.0 - s) / len(rest)))
    return dist


def table1_profiles(
    linkage_strength: float = LINKAGE_STRENGTH,
) -> tuple[PlayerProfile, PlayerProfile]:
    """The built-in expert/learner profile pair, built from ``_TABLE1``.

    Each condition key with a behavioral linkage puts ``linkage_strength``
    of its mass on the linked behaviors, split by their shares, and spreads
    the rest uniformly over the key's other guaranteed-feasible behaviors;
    at full strength the linked behaviors take all of it. Keys without a
    linkage get the player's base mix, the same one the default key uses,
    so an unlinked stimulus changes nothing about how the player acts.

    Expert: fights at obstacles, attacks soldiers when watched or when a
    horse is about, climbs rather than socialize at climbing spots, and
    ignores location. Learner: walks indoors and runs outdoors, mixes
    riding, climbing and civilian attacks when watched, attacks civilians
    at climbing spots, and chats in front of obstacles or horses.
    """
    check_range("linkage_strength", linkage_strength)
    base = dict.fromkeys(_BASE_BEHAVIORS, 1.0 / len(_BASE_BEHAVIORS))
    expert, learner = (
        PlayerProfile(
            profile_id=profile_id,
            distributions={
                key: _linked(
                    linked[key],
                    _UNLINKED_SUPPORT.get((profile_id, key), _KEY_SUPPORT[key]),
                    linkage_strength,
                )
                if key in linked
                else base
                for key in ConditionKey
            },
        )
        for profile_id, linked in _TABLE1.items()
    )
    return expert, learner


# --- persistence ----------------------------------------------------------

def profile_payload(profile: PlayerProfile) -> dict:
    """The JSON object of a profile, as profile files and traces hold it."""
    return {
        "profile_id": profile.profile_id,
        "distributions": {
            key.value: {b.column: p for b, p in dist.items()}
            for key, dist in profile.distributions.items()
        },
    }


def profile_from_payload(payload: dict) -> PlayerProfile:
    """The profile of a :func:`profile_payload` object; raises ``MALFORMED_DOCUMENT`` errors."""
    distributions = {
        ConditionKey(key): {
            AttributeId.from_column(column): float(json_number(p, f"{key}/{column}"))
            for column, p in dist.items()
        }
        for key, dist in payload["distributions"].items()
    }
    profile_id = payload["profile_id"]
    if not isinstance(profile_id, str):
        raise ValueError(f"profile_id: expected a string, got {profile_id!r}")
    return PlayerProfile(profile_id=profile_id, distributions=distributions)


def profile_from_json(document: str | bytes) -> PlayerProfile:
    """The profile a JSON document holds; bytes are decoded as UTF-8."""
    try:
        if isinstance(document, bytes):
            document = document.decode("utf-8")
        return profile_from_payload(json.loads(document))
    except MALFORMED_DOCUMENT as exc:
        raise ConfigError(f"invalid profile document: {exc}") from exc


def read_profile(path: str | Path) -> PlayerProfile:
    return profile_from_json(Path(path).read_bytes())

