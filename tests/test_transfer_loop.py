"""The identification round, the nudge arithmetic, and the closed loop."""

from __future__ import annotations

import csv
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from skilltransfer.bayes import bayesnet_to_json
from skilltransfer.behavior_data import AttributeId, PlayerId
from skilltransfer.game_domain import ConditionKey, PlayerProfile, Scenario, table1_profiles
from skilltransfer.transfer_loop import (
    DatasetConfig,
    IterationRecord,
    TerminalReason,
    TransferConfig,
    TransferParams,
    TransferTrace,
    build_schedule,
    curves_to_csv,
    discriminative_attributes,
    divergence,
    nudge_profile,
    run_identification,
    run_transfer,
    trace_from_json,
    trace_to_csv,
    trace_to_json,
)
from test_bayes import _net

MOVE = AttributeId.MOVEMENT


def _scenario(**overrides) -> Scenario:
    fields = dict(
        ticks_per_session=200,
        location_indoor=0.5,
        obstacle_present=0.6,
        soldier_present=0.6,
        civilian_present=0.6,
        horse_available=0.6,
        climbable_present=0.6,
        person_facing=0.6,
    )
    fields.update(overrides)
    return Scenario(**fields)


def _pair_differing_on(key: ConditionKey, learner_dist, expert_profile) -> PlayerProfile:
    distributions = {k: dict(d) for k, d in expert_profile.distributions.items()}
    distributions[key] = dict(learner_dist)
    return PlayerProfile(profile_id="one-key-off", distributions=distributions)


@pytest.fixture(scope="module")
def default_trace(table1_pair, base_scenario):
    expert, learner = table1_pair
    return run_transfer(
        expert, learner, TransferConfig(scenario=base_scenario), seed=0
    )


# --- discriminative attributes ------------------------------------------------

def test_isolated_class_node_has_no_discriminative_attributes():
    net = _net(nodes=("ID", "fighting"), edges=set(),
               cpts={"ID": [[0.5, 0.5]], "fighting": [[0.5, 0.5]]})
    assert discriminative_attributes(net) == frozenset()


def test_single_edge_blanket_names_its_attribute():
    net = _net(
        nodes=("ID", "fighting"),
        edges={("ID", "fighting")},
        cpts={"ID": [[0.5, 0.5]], "fighting": [[0.8, 0.2], [0.3, 0.7]]},
    )
    assert discriminative_attributes(net) == {AttributeId.FIGHTING}


# --- schedules ------------------------------------------------------------------

def test_empty_targets_leave_the_scenario_alone(base_scenario):
    assert build_schedule(frozenset(), base_scenario) == base_scenario
    assert build_schedule(set(), base_scenario) == base_scenario


def test_riding_target_raises_the_horse_probability():
    base = _scenario(horse_available=0.2)
    scenario = build_schedule({AttributeId.RIDING_HRS}, base)
    assert scenario.horse_available == 0.8
    changed = {
        f for f in (
            "location_indoor", "obstacle_present", "soldier_present",
            "civilian_present", "climbable_present", "person_facing",
        )
        if getattr(scenario, f) != getattr(base, f)
    }
    assert changed == set()


def test_schedule_keeps_a_stimulus_already_above_the_floor():
    base = _scenario(horse_available=0.2, obstacle_present=0.9, soldier_present=0.0)
    scenario = build_schedule({AttributeId.RIDING_HRS, AttributeId.FIGHTING}, base)
    assert scenario.horse_available == 0.8
    assert scenario.obstacle_present == 0.9  # already above the floor
    assert scenario.soldier_present == 0.0
    assert scenario.ticks_per_session == 200


def test_schedule_never_touches_location():
    base = _scenario(location_indoor=0.5)
    for attribute in AttributeId:
        assert build_schedule({attribute}, base).location_indoor == 0.5


def test_targeting_everything_floors_every_stimulus_but_location():
    base = _scenario(
        location_indoor=0.5, obstacle_present=0.1, soldier_present=0.1,
        civilian_present=0.1, horse_available=0.1, climbable_present=0.1,
        person_facing=0.1,
    )
    scenario = build_schedule(set(AttributeId), base)
    for field in (
        "obstacle_present", "soldier_present", "civilian_present",
        "horse_available", "climbable_present", "person_facing",
    ):
        assert getattr(scenario, field) >= 0.8
    assert scenario.location_indoor == 0.5


# --- nudging ----------------------------------------------------------------------

def test_expert_learner_is_a_fixed_point(table1_pair):
    expert, _ = table1_pair
    nudged = nudge_profile(expert, expert, list(ConditionKey), eta=0.5)
    assert nudged == expert
    assert divergence(expert, expert) == 0.0


def test_half_rate_nudge_lands_on_the_midpoint(table1_pair):
    expert, _ = table1_pair
    him = _pair_differing_on(
        ConditionKey.OBSTACLE, {AttributeId.FIGHTING: 0.2, MOVE: 0.8}, expert
    )
    target = _pair_differing_on(
        ConditionKey.OBSTACLE, {AttributeId.FIGHTING: 0.8, MOVE: 0.2}, expert
    )
    nudged = nudge_profile(him, target, [ConditionKey.OBSTACLE], eta=0.5)
    assert nudged.distributions[ConditionKey.OBSTACLE][AttributeId.FIGHTING] == (
        pytest.approx(0.5, abs=1e-12)
    )


@pytest.mark.parametrize("strength", [0.1, 0.4, 0.7])
def test_full_rate_nudge_copies_the_expert(strength):
    # At 0.1 the expert's person_facing key sums to 1 - 2**-52, and
    # renormalizing moved every entry of the copy.
    expert, learner = table1_profiles(strength)
    copied = nudge_profile(learner, expert, list(ConditionKey), eta=1.0)
    assert copied.distributions == expert.distributions
    assert copied.profile_id == learner.profile_id
    assert divergence(copied, expert) == 0.0


def test_nudge_rejects_out_of_range_rates(table1_pair):
    expert, learner = table1_pair
    for eta in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="eta"):
            nudge_profile(learner, expert, [ConditionKey.OBSTACLE], eta)


def _summing_to_the_tolerance(profile: PlayerProfile) -> PlayerProfile:
    """``profile`` with each key's last probability raised until the key sums
    to the largest float within 1e-9 of 1, which ``PlayerProfile`` accepts."""
    distributions = {}
    for key, dist in profile.distributions.items():
        *head, (last, _) = dist.items()
        others = sum(p for _, p in head)
        p = 1.0 + 1e-9 - others
        while abs(others + p - 1.0) > 1e-9:
            p = math.nextafter(p, 0.0)
        while abs(others + math.nextafter(p, 2.0) - 1.0) <= 1e-9:
            p = math.nextafter(p, 2.0)
        distributions[key] = {**dict(head), last: p}
    return PlayerProfile(profile.profile_id, distributions)


def test_profiles_summing_to_the_tolerance_nudge_and_transfer(table1_pair):
    # At rate 0.5 the person_facing mixture summed to 1.000000001 and the
    # nudge raised "inputs were not normalized" where a division sufficed.
    expert, learner = map(_summing_to_the_tolerance, table1_pair)
    assert max(sum(d.values()) for d in learner.distributions.values()) > 1.0 + 9e-10
    for eta in (0.25, 0.3, 0.5):
        nudged = nudge_profile(learner, expert, list(ConditionKey), eta)
        for key, dist in nudged.distributions.items():
            if learner.distributions[key] != expert.distributions[key]:
                assert sum(dist.values()) == pytest.approx(1.0, abs=1e-15)
    config = TransferConfig(scenario=_scenario(ticks_per_session=2000))
    trace = run_transfer(expert, learner, config, seed=0)
    assert trace.terminal_reason is TerminalReason.THRESHOLD_REACHED


@settings(max_examples=100, deadline=None)
@given(
    learner_weights=st.lists(
        st.floats(min_value=0.05, max_value=1.0), min_size=3, max_size=3
    ),
    expert_weights=st.lists(
        st.floats(min_value=0.05, max_value=1.0), min_size=3, max_size=3
    ),
    eta=st.floats(min_value=0.01, max_value=1.0),
)
def test_nudges_contract_the_divergence(
    table1_pair, learner_weights, expert_weights, eta
):
    base, _ = table1_pair
    behaviors = (AttributeId.FIGHTING, AttributeId.OBSTACLE, MOVE)

    def dist(weights):
        total = sum(weights)
        return {b: w / total for b, w in zip(behaviors, weights)}

    learner = _pair_differing_on(ConditionKey.OBSTACLE, dist(learner_weights), base)
    expert = _pair_differing_on(ConditionKey.OBSTACLE, dist(expert_weights), base)
    before = divergence(learner, expert)
    nudged = nudge_profile(learner, expert, [ConditionKey.OBSTACLE], eta)
    after = divergence(nudged, expert)
    assert after <= (1.0 - eta) * before + 1e-12
    if before > 1e-9:
        assert after < before


def test_divergence_agrees_with_the_reference_formula(table1_pair):
    expert, learner = table1_pair
    assert divergence(learner, expert) == pytest.approx(
        oracles.mean_divergence(learner, expert), abs=1e-9
    )
    assert divergence(learner, expert) > 0.0


# --- one identification round -------------------------------------------------------

def test_identification_round_shapes_and_determinism(table1_pair):
    expert, learner = table1_pair
    scenario = _scenario(ticks_per_session=200)
    result = run_identification(expert, learner, scenario, seed=5)
    # 40 windows per player, half held out per class.
    assert (result.train_rows, result.test_rows) == (40, 40)
    assert 0.0 <= result.accuracy <= 1.0
    assert list(result.attributes) == sorted(result.attributes, key=lambda a: a.value)
    again = run_identification(expert, learner, scenario, seed=5)
    assert again.accuracy == result.accuracy
    assert again.attributes == result.attributes
    assert bayesnet_to_json(again.network) == bayesnet_to_json(result.network)


# --- the loop --------------------------------------------------------------------------

def test_expert_start_terminates_immediately(table1_pair, base_scenario):
    expert, _ = table1_pair
    trace = run_transfer(
        expert, expert, TransferConfig(scenario=base_scenario), seed=0
    )
    assert trace.terminal_reason is TerminalReason.THRESHOLD_REACHED
    assert len(trace.iterations) == 1
    only = trace.iterations[0]
    assert only.accuracy == pytest.approx(0.5, abs=0.075)
    assert only.divergence == 0.0
    assert only.nudged_keys == ()


def test_full_rate_transfer_zeroes_divergence_after_one_nudge(table1_pair, base_scenario):
    expert, _ = table1_pair
    learner = _pair_differing_on(
        ConditionKey.OBSTACLE,
        {
            AttributeId.LISTENING: 0.7,
            AttributeId.FIGHTING: 0.1,
            AttributeId.OBSTACLE: 0.1,
            MOVE: 0.1,
        },
        expert,
    )
    trace = run_transfer(
        expert, learner,
        TransferConfig(scenario=base_scenario, loop=TransferParams(learning_rate=1.0)),
        seed=0,
    )
    assert trace.terminal_reason is TerminalReason.THRESHOLD_REACHED
    assert len(trace.iterations) == 2
    assert trace.iterations[0].nudged_keys == (ConditionKey.OBSTACLE,)
    assert trace.iterations[1].divergence == 0.0
    assert trace.iterations[1].nudged_keys == ()


def test_transfer_is_deterministic(table1_pair):
    expert, learner = table1_pair
    config = TransferConfig(
        scenario=_scenario(ticks_per_session=500), loop=TransferParams(max_iterations=2)
    )
    first = run_transfer(expert, learner, config, seed=9)
    second = run_transfer(expert, learner, config, seed=9)
    assert first == second


def test_recorded_divergence_matches_the_snapshots(default_trace, table1_pair):
    expert, _ = table1_pair
    for record in default_trace.iterations:
        recomputed = oracles.mean_divergence(record.learner_profile, expert)
        assert record.divergence == pytest.approx(recomputed, abs=1e-9)


def test_divergence_strictly_decreases_after_every_nudge(default_trace):
    records = default_trace.iterations
    assert [r.iteration for r in records] == list(range(1, len(records) + 1))
    for before, after in zip(records, records[1:]):
        if before.nudged_keys:
            assert after.divergence < before.divergence


def test_transfer_config_validates_its_ranges():
    for section, field, bad in [
        (TransferParams, "learning_rate", 0.0),
        (TransferParams, "learning_rate", 1.5),
        (TransferParams, "stop_threshold", 0.4),
        (TransferParams, "stop_threshold", 1.0),
        (TransferParams, "max_iterations", 0),
        (DatasetConfig, "window", 0),
        (DatasetConfig, "split_ratio", 1.0),
    ]:
        with pytest.raises(ValueError, match=field):
            section(**{field: bad})


# --- curves ------------------------------------------------------------------------------

def _expert_trace(expert: PlayerProfile, iterations: int) -> TransferTrace:
    """A hand-built trace whose learner is the expert at every iteration."""
    records = tuple(
        IterationRecord(
            iteration=i, accuracy=0.5, divergence=0.0, targeted_attributes=(),
            nudged_keys=(), learner_profile=expert,
        )
        for i in range(1, iterations + 1)
    )
    return TransferTrace(expert, records, TerminalReason.THRESHOLD_REACHED)


def _curves(trace: TransferTrace):
    """curves.csv read back: the header, and per key its tracked behavior and
    the (expert, learner) cell pair of each iteration."""
    header, *rows = csv.reader(io.StringIO(curves_to_csv(trace)))
    curves = {}
    for key, tracked, *cells in rows:
        values = [float(c) for c in cells]
        curves[ConditionKey(key)] = (tracked, list(zip(values[::2], values[1::2])))
    return header, curves


def _reference_curves_csv(trace: TransferTrace) -> str:
    """The earlier curve writer: a ``CurveTable`` of the trace, then its CSV."""
    def mode(dist):
        return max(sorted(dist, key=lambda a: a.value), key=dist.__getitem__)

    expert = trace.expert_profile
    tracked = {key: mode(expert.distributions[key]) for key in ConditionKey}
    rows = []
    for iteration, record in enumerate(trace.iterations, start=1):
        for player, profile in ((PlayerId.ID1, expert), (PlayerId.ID2, record.learner_profile)):
            values = {
                key: profile.distributions[key].get(tracked[key], 0.0) for key in ConditionKey
            }
            rows.append((player, iteration, values))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = ["condition_key", "tracked_behavior"]
    header.extend(f"{player.value}_it{iteration}" for player, iteration, _ in rows)
    writer.writerow(header)
    for key in ConditionKey:
        cells = [key.value, tracked[key].column]
        cells.extend(repr(values[key]) for _, _, values in rows)
        writer.writerow(cells)
    return buffer.getvalue()


def test_curves_csv_matches_the_curve_table_reference(default_trace, table1_pair):
    expert, _ = table1_pair
    for trace in (default_trace, _expert_trace(expert, 3)):
        assert curves_to_csv(trace) == _reference_curves_csv(trace)


def test_expert_versus_expert_curves_coincide(table1_pair):
    expert, _ = table1_pair
    header, curves = _curves(_expert_trace(expert, 2))
    assert len(header) == 2 + 4
    for _, pairs in curves.values():
        assert len(pairs) == 2
        for expert_value, learner_value in pairs:
            assert expert_value == learner_value


def test_curve_table_shape_and_tracked_modes(default_trace, table1_pair):
    expert, _ = table1_pair
    header, curves = _curves(default_trace)
    iterations = len(default_trace.iterations)
    assert len(header) == 2 + 2 * iterations
    assert set(curves) == set(ConditionKey)
    for key, (tracked, pairs) in curves.items():
        assert len(pairs) == iterations
        dist = expert.distributions[key]
        behavior = AttributeId.from_column(tracked)
        assert dist[behavior] == max(dist.values())
        # Ties go to the lowest attribute position.
        assert behavior == min(
            (b for b, p in dist.items() if p == dist[behavior]), key=lambda a: a.value
        )


def test_final_curve_is_uniformly_closer_on_nudged_keys(default_trace):
    _, curves = _curves(default_trace)
    ever_nudged = {k for r in default_trace.iterations for k in r.nudged_keys}
    for key, (_, pairs) in curves.items():
        (expert_value, first), (_, last) = pairs[0], pairs[-1]
        assert all(e == expert_value for e, _ in pairs)
        gap_first = abs(first - expert_value)
        gap_last = abs(last - expert_value)
        assert gap_last <= gap_first + 1e-12
        if key in ever_nudged and gap_first > 1e-9:
            assert gap_last < gap_first


# --- persistence ----------------------------------------------------------------------------

def test_trace_json_round_trip(default_trace):
    assert trace_from_json(trace_to_json(default_trace)) == default_trace


def test_a_trace_without_iterations_is_rejected_by_the_reader(default_trace):
    payload = json.loads(trace_to_json(default_trace))
    payload["iterations"] = []
    with pytest.raises(ValueError, match="no iterations"):
        trace_from_json(json.dumps(payload))


def test_trace_csv_layout(default_trace):
    lines = trace_to_csv(default_trace).splitlines()
    assert lines[0] == "iteration,accuracy,divergence,targeted_attributes,terminal_reason"
    assert len(lines) == 1 + len(default_trace.iterations)
    # The terminal reason appears on the last row only.
    for line in lines[1:-1]:
        assert line.endswith(",")
    assert lines[-1].endswith(default_trace.terminal_reason.value)


def test_curves_csv_puts_keys_on_rows(default_trace):
    lines = curves_to_csv(default_trace).splitlines()
    assert len(lines) == 1 + len(ConditionKey)
    header = lines[0].split(",")
    assert header[:2] == ["condition_key", "tracked_behavior"]
    assert header[2:4] == ["ID1_it1", "ID2_it1"]
    assert len(header) == 2 + 2 * len(default_trace.iterations)
    assert {line.split(",")[0] for line in lines[1:]} == {
        k.value for k in ConditionKey
    }
