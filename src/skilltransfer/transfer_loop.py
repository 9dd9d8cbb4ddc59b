"""Closed-loop behavior transfer between the two players.

Each iteration simulates one fresh session per player under the current
stimulus schedule, relearns the identity classifier from scratch, and
checks whether it still tells the players apart. While it can, the
learner's distributions are pulled toward the expert's on exactly the
condition keys where they disagree about the discriminative behaviors,
and the schedule is rebuilt to keep eliciting those behaviors. The loop
stops when held-out accuracy drops to the configured threshold or the
class node loses its Markov blanket.

Divergence bookkeeping: the reported number is the mean over condition
keys of the Kullback-Leibler divergence from the learner's distribution
to the expert's. Expert-side zero probabilities are floored at 1e-300
inside the logarithm only, which keeps the number finite while
preserving the contraction property that a nudge with rate eta scales
the divergence of an affected key by at most (1 - eta).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from collections.abc import Sequence

from .bayes import (
    BayesNet,
    LearnConfig,
    accuracy,
    fit_cpts,
    learn_structure,
    markov_blanket,
)
from .behavior_data import (
    CLASS_COLUMN,
    FEASIBILITY_REQUIREMENTS,
    AttributeId,
    PlayerId,
    split,
    to_dataset,
)
from .errors import check_fields, check_range, json_number
from .game_domain import (
    ConditionKey,
    Distribution,
    PlayerProfile,
    Scenario,
    profile_from_payload,
    profile_payload,
    simulate_pair,
)
from .seeds import STREAM_LEARN, STREAM_SPLIT, derive_seed

_LOG_FLOOR = 1e-300
_DIFFERENCE_EPS = 1e-9
_SCHEDULE_FLOOR = 0.8
#: What a trace read back may hold, in the encoding of :data:`errors.BOUNDS`.
_ACCURACY_RANGE = (0.0, 1.0, False, False)
_DIVERGENCE_RANGE = (0.0, math.inf, False, True)


@dataclass(frozen=True)
class DatasetConfig:
    """How sessions become a table: ticks per window, and the share of rows trained on."""

    window: int = 5
    split_ratio: float = 0.5

    __post_init__ = check_fields


@dataclass(frozen=True)
class TransferParams:
    """How far each nudge moves the learner, and when the loop stops."""

    learning_rate: float = 0.5
    stop_threshold: float = 0.55
    max_iterations: int = 50

    __post_init__ = check_fields


@dataclass(frozen=True)
class TransferConfig:
    """The loop's sections. ``scenario`` is the unboosted base world."""

    scenario: Scenario = field(default_factory=Scenario)
    loop: TransferParams = field(default_factory=TransferParams)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    learn: LearnConfig = field(default_factory=LearnConfig)


class TerminalReason(Enum):
    THRESHOLD_REACHED = "threshold_reached"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class IterationRecord:
    """State of one loop iteration, snapshotted before any nudge."""

    iteration: int
    accuracy: float
    divergence: float
    targeted_attributes: tuple[AttributeId, ...]
    nudged_keys: tuple[ConditionKey, ...]
    learner_profile: PlayerProfile


@dataclass(frozen=True)
class TransferTrace:
    expert_profile: PlayerProfile
    iterations: tuple[IterationRecord, ...]
    terminal_reason: TerminalReason


@dataclass(frozen=True)
class IdentificationResult:
    """Outcome of one simulate/learn/evaluate round."""

    network: BayesNet
    accuracy: float
    attributes: tuple[AttributeId, ...]
    train_rows: int
    test_rows: int


def discriminative_attributes(net: BayesNet) -> frozenset[AttributeId]:
    """Attributes in the class node's Markov blanket."""
    blanket = markov_blanket(net.dag, CLASS_COLUMN)
    return frozenset(AttributeId.from_column(column) for column in blanket)


def run_identification(
    expert: PlayerProfile,
    learner: PlayerProfile,
    scenario: Scenario,
    *,
    dataset: DatasetConfig = DatasetConfig(),
    learn: LearnConfig = LearnConfig(),
    seed: int = 0,
    iteration: int = 0,
) -> IdentificationResult:
    """Simulate both players once, learn the classifier, and score it.

    All randomness derives from ``seed`` and ``iteration`` through the
    documented stream paths, so repeated calls are bit-identical.
    """
    data = to_dataset(simulate_pair(expert, learner, scenario, seed, iteration), dataset.window)
    train, test = split(data, dataset.split_ratio, derive_seed(seed, STREAM_SPLIT, iteration))
    dag = learn_structure(train, learn, derive_seed(seed, STREAM_LEARN, iteration))
    net = fit_cpts(dag, train, learn.smoothing)
    return IdentificationResult(
        network=net,
        accuracy=accuracy(net, test),
        attributes=tuple(sorted(discriminative_attributes(net), key=lambda a: a.value)),
        train_rows=train.n_rows,
        test_rows=test.n_rows,
    )


def _kl(learner_dist: Distribution, expert_dist: Distribution) -> float:
    total = 0.0
    for behavior, q in learner_dist.items():
        p = expert_dist.get(behavior, 0.0)
        total += q * (math.log(q) - math.log(max(p, _LOG_FLOOR)))
    return max(total, 0.0)


def divergence(learner: PlayerProfile, expert: PlayerProfile) -> float:
    """Mean per-key KL divergence from learner to expert."""
    return sum(
        _kl(learner.distributions[key], expert.distributions[key])
        for key in ConditionKey
    ) / len(ConditionKey)


def nudge_profile(
    learner: PlayerProfile,
    expert: PlayerProfile,
    keys: Sequence[ConditionKey],
    eta: float,
) -> PlayerProfile:
    """Blend the learner toward the expert on the given condition keys.

    Each affected distribution becomes (1 - eta) * learner + eta * expert.
    With eta = 1 the key copies the expert outright; a key whose two
    distributions already match is left untouched, so an expert learner
    is a fixed point.
    """
    check_range("eta", eta, "learning_rate")
    if set(learner.distributions) != set(expert.distributions):
        raise ValueError("profiles declare different condition keys")
    new_distributions = {k: dict(d) for k, d in learner.distributions.items()}
    for key in keys:
        q = learner.distributions[key]
        p = expert.distributions[key]
        if q == p:
            continue
        mixed: Distribution = {}
        for behavior in sorted(set(q) | set(p), key=lambda a: a.value):
            value = (1.0 - eta) * q.get(behavior, 0.0) + eta * p.get(behavior, 0.0)
            if value > 0.0:
                mixed[behavior] = value
        total = sum(mixed.values())
        if abs(total - 1.0) >= _DIFFERENCE_EPS:
            raise ValueError(
                f"nudged distribution for {key.value} sums to {total!r}; "
                "inputs were not normalized"
            )
        new_distributions[key] = {b: v / total for b, v in mixed.items()}
    return PlayerProfile(profile_id=learner.profile_id, distributions=new_distributions)


#: Stimulus fields raised for each targeted behavior: those its feasibility
#: needs, and ``obstacle_present`` for FIGHTING and OBSTACLE. No feasibility
#: rule names a stimulus for those two, but obstacles are what they answer
#: to (the built-in expert fights at obstacles), so more obstacles elicit
#: them. Location is absent: both of its values must stay reachable.
_RAISED_STIMULI: dict[AttributeId, tuple[str, ...]] = FEASIBILITY_REQUIREMENTS | {
    AttributeId.FIGHTING: ("obstacle_present",),
    AttributeId.OBSTACLE: ("obstacle_present",),
}


def build_schedule(
    targets: frozenset[AttributeId] | set[AttributeId], base: Scenario
) -> Scenario:
    """The base scenario with the stimuli of the targeted behaviors raised.

    Each targeted behavior's required stimulus probabilities are lifted
    to at least 0.8; untargeted stimuli are left alone and the location
    probability is never touched.
    """
    raised = {f for attribute in targets for f in _RAISED_STIMULI.get(attribute, ())}
    return replace(base, **{f: max(getattr(base, f), _SCHEDULE_FLOOR) for f in raised})


def _keys_to_nudge(
    learner: PlayerProfile,
    expert: PlayerProfile,
    targets: Sequence[AttributeId],
) -> tuple[ConditionKey, ...]:
    """Condition keys where the two profiles disagree on a targeted behavior."""
    keys = []
    for key in ConditionKey:
        q = learner.distributions[key]
        p = expert.distributions[key]
        for attribute in targets:
            if abs(q.get(attribute, 0.0) - p.get(attribute, 0.0)) > _DIFFERENCE_EPS:
                keys.append(key)
                break
    return tuple(keys)


def run_transfer(
    expert: PlayerProfile,
    learner: PlayerProfile,
    config: TransferConfig,
    seed: int = 0,
) -> TransferTrace:
    """Run the transfer loop to termination.

    Per iteration: simulate one session per player under the current
    schedule, relearn and score the classifier on the held-out half,
    record accuracy and divergence, and either stop (threshold reached or
    empty blanket) or nudge the learner and rebuild the schedule from the
    newly discriminative attributes. Fully deterministic given the seed.
    """
    scenario = config.scenario
    records: list[IterationRecord] = []
    reason = TerminalReason.MAX_ITERATIONS
    for iteration in range(1, config.loop.max_iterations + 1):
        result = run_identification(
            expert,
            learner,
            scenario,
            dataset=config.dataset,
            learn=config.learn,
            seed=seed,
            iteration=iteration,
        )
        gap = divergence(learner, expert)
        finished = result.accuracy <= config.loop.stop_threshold or not result.attributes
        nudged: tuple[ConditionKey, ...] = ()
        if not finished:
            nudged = _keys_to_nudge(learner, expert, result.attributes)
        records.append(
            IterationRecord(
                iteration=iteration,
                accuracy=result.accuracy,
                divergence=gap,
                targeted_attributes=result.attributes,
                nudged_keys=nudged,
                learner_profile=learner,
            )
        )
        if finished:
            reason = TerminalReason.THRESHOLD_REACHED
            break
        if nudged:
            learner = nudge_profile(learner, expert, nudged, config.loop.learning_rate)
        scenario = build_schedule(frozenset(result.attributes), config.scenario)
    return TransferTrace(
        expert_profile=expert, iterations=tuple(records), terminal_reason=reason
    )


# --- persistence ----------------------------------------------------------

def trace_to_csv(trace: TransferTrace) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["iteration", "accuracy", "divergence", "targeted_attributes", "terminal_reason"]
    )
    last = len(trace.iterations) - 1
    for i, record in enumerate(trace.iterations):
        writer.writerow(
            [
                record.iteration,
                repr(record.accuracy),
                repr(record.divergence),
                "|".join(a.column for a in record.targeted_attributes),
                trace.terminal_reason.value if i == last else "",
            ]
        )
    return buffer.getvalue()


def trace_to_json(trace: TransferTrace) -> str:
    payload = {
        "terminal_reason": trace.terminal_reason.value,
        "expert_profile": profile_payload(trace.expert_profile),
        "iterations": [
            {
                "iteration": r.iteration,
                "accuracy": r.accuracy,
                "divergence": r.divergence,
                "targeted_attributes": [a.column for a in r.targeted_attributes],
                "nudged_keys": [k.value for k in r.nudged_keys],
                "learner_profile": profile_payload(r.learner_profile),
            }
            for r in trace.iterations
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def trace_from_json(text: str) -> TransferTrace:
    """Read a trace back, rejecting one that no run could have written."""
    payload = json.loads(text)
    records = tuple(
        IterationRecord(
            iteration=json_number(entry["iteration"], f"iteration at position {position}", True),
            accuracy=float(json_number(entry["accuracy"], f"accuracy at position {position}")),
            divergence=float(
                json_number(entry["divergence"], f"divergence at position {position}")
            ),
            targeted_attributes=tuple(
                AttributeId.from_column(c) for c in entry["targeted_attributes"]
            ),
            nudged_keys=tuple(ConditionKey(k) for k in entry["nudged_keys"]),
            learner_profile=profile_from_payload(entry["learner_profile"]),
        )
        for position, entry in enumerate(payload["iterations"], 1)
    )
    if not records:
        raise ValueError("the trace records no iterations; every run records at least one")
    for position, record in enumerate(records, 1):
        if record.iteration != position:
            raise ValueError(
                f"iteration {record.iteration} recorded at position {position}; "
                "iterations must run 1, 2, ... in order"
            )
        check_range(f"iteration {position} accuracy", record.accuracy, _ACCURACY_RANGE)
        check_range(f"iteration {position} divergence", record.divergence, _DIVERGENCE_RANGE)
    return TransferTrace(
        expert_profile=profile_from_payload(payload["expert_profile"]),
        iterations=records,
        terminal_reason=TerminalReason(payload["terminal_reason"]),
    )


def curves_to_csv(trace: TransferTrace) -> str:
    """Condition keys as rows, one column per player per iteration.

    Each key tracks the mode of the expert's distribution there; profiles
    keep their distributions in attribute order, so ties go to the lowest
    attribute position. A cell is the player's probability of the tracked
    behavior: the expert's repeats each iteration, the learner's moves as
    nudges land.
    """
    expert = trace.expert_profile.distributions
    tracked = {key: max(dist, key=dist.__getitem__) for key, dist in expert.items()}
    learners = [r.learner_profile.distributions for r in trace.iterations]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = ["condition_key", "tracked_behavior"]
    for iteration in range(1, len(learners) + 1):
        header += [f"{PlayerId.ID1.value}_it{iteration}", f"{PlayerId.ID2.value}_it{iteration}"]
    writer.writerow(header)
    for key in ConditionKey:
        behavior = tracked[key]
        cells = [key.value, behavior.column]
        for learner in learners:
            cells += [repr(expert[key][behavior]), repr(learner[key].get(behavior, 0.0))]
        writer.writerow(cells)
    return buffer.getvalue()
