"""Context and behavior draws, the simulator, and built-in profiles."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from record_logs import Record, feasible, records_of
from skilltransfer.behavior_data import (
    CONTEXT_FIELDS,
    CONTEXTS,
    EVENT_ATTRIBUTES,
    AttributeId,
    PlayerId,
    StimulusContext,
    validate_session,
)
from skilltransfer.errors import ConfigError
from skilltransfer.game_domain import (
    _FEASIBLE,
    _GUIDE,
    _KEY_SUPPORT,
    ConditionKey,
    PlayerProfile,
    Scenario,
    _guide_table,
    _inverse_cdf,
    active_keys,
    joint_law,
    profile_from_json,
    profile_payload,
    run_session,
    table1_profiles,
)
from skilltransfer.seeds import derive_rng

MOVE = AttributeId.MOVEMENT


def _context(**overrides) -> StimulusContext:
    fields = {f: False for f in CONTEXT_FIELDS}
    fields.update(overrides)
    return StimulusContext(**fields)


def _scenario(**overrides) -> Scenario:
    fields = dict(
        ticks_per_session=10,
        location_indoor=0.0,
        obstacle_present=0.0,
        soldier_present=0.0,
        civilian_present=0.0,
        horse_available=0.0,
        climbable_present=0.0,
        person_facing=0.0,
    )
    fields.update(overrides)
    return Scenario(**fields)


def _flat_profile(**overrides) -> PlayerProfile:
    """A profile that always moves, with chosen keys overridden."""
    distributions = {k: {MOVE: 1.0} for k in ConditionKey}
    for key, dist in overrides.items():
        distributions[ConditionKey(key)] = dist
    return PlayerProfile(profile_id="flat", distributions=distributions)


def _drawn(profile: PlayerProfile, *present: str, ticks: int, seed: int) -> Counter:
    """Behavior counts of a session where the ``present`` stimuli always hold, no other ever."""
    scenario = _scenario(ticks_per_session=ticks, **{f: 1.0 for f in present})
    log = run_session(scenario, profile, PlayerId.ID1, seed)
    return Counter(AttributeId(v) for v in log.behaviors.tolist())


# --- scenario and context sampling ------------------------------------------

def test_degenerate_probabilities_pin_the_context():
    everything = _scenario(**{f: 1.0 for f in CONTEXT_FIELDS})
    log = run_session(everything, _flat_profile(), PlayerId.ID1, seed=0)
    assert all(getattr(CONTEXTS[c], f) for c in log.contexts.tolist() for f in CONTEXT_FIELDS)
    log = run_session(_scenario(), _flat_profile(), PlayerId.ID1, seed=0)
    assert not any(getattr(CONTEXTS[c], f) for c in log.contexts.tolist() for f in CONTEXT_FIELDS)


def test_obstacle_frequency_tracks_its_probability():
    scenario = _scenario(ticks_per_session=10_000, obstacle_present=0.5)
    log = run_session(scenario, _flat_profile(), PlayerId.ID1, seed=123)
    hits = sum(CONTEXTS[c].obstacle_present for c in log.contexts.tolist())
    assert hits / 10_000 == pytest.approx(0.5, abs=0.03)


def test_scenario_rejects_bad_fields():
    with pytest.raises(ValueError, match="ticks_per_session"):
        _scenario(ticks_per_session=-1)
    with pytest.raises(ValueError, match="obstacle_present"):
        _scenario(obstacle_present=1.5)


# --- condition precedence ----------------------------------------------------

def test_stimulus_keys_govern_over_location():
    keys = active_keys(_context(location_indoor=True, obstacle_present=True))
    assert keys == (ConditionKey.OBSTACLE,)
    keys = active_keys(_context(horse_available=True, soldier_present=True))
    assert set(keys) == {ConditionKey.HORSE_AVAILABLE, ConditionKey.SOLDIER_PRESENT}


def test_stimulus_free_tick_falls_to_the_location_key():
    assert active_keys(_context(location_indoor=True)) == (ConditionKey.INDOOR,)
    assert active_keys(_context()) == (ConditionKey.OUTDOOR,)


@given(bits=st.lists(st.booleans(), min_size=7, max_size=7))
def test_active_keys_never_empty_and_never_default(bits):
    context = StimulusContext(**dict(zip(CONTEXT_FIELDS, bits)))
    keys = active_keys(context)
    assert keys
    assert ConditionKey.DEFAULT not in keys


# --- behavior draws under pinned stimuli ----------------------------------------

def test_point_mass_obstacle_linkage_always_fires():
    profile = _flat_profile(obstacle={AttributeId.FIGHTING: 1.0})
    assert _drawn(profile, "obstacle_present", ticks=50, seed=1) == {AttributeId.FIGHTING: 50}


def test_stimulus_free_tick_draws_from_the_single_support():
    profile = _flat_profile()
    assert _drawn(profile, ticks=50, seed=2) == {MOVE: 50}
    assert _drawn(profile, "location_indoor", ticks=50, seed=2) == {MOVE: 50}


def test_expert_fights_obstacles_at_the_configured_rate(table1_pair):
    expert, _ = table1_pair
    linked = expert.distributions[ConditionKey.OBSTACLE][AttributeId.FIGHTING]
    draws = _drawn(expert, "obstacle_present", ticks=10_000, seed=77)
    assert draws[AttributeId.FIGHTING] / 10_000 == pytest.approx(linked, abs=0.03)


def test_coincident_stimuli_share_the_tick_evenly():
    profile = _flat_profile(
        obstacle={AttributeId.FIGHTING: 1.0},
        horse_available={MOVE: 1.0},
    )
    draws = _drawn(profile, "obstacle_present", "horse_available", ticks=10_000, seed=8)
    assert draws[AttributeId.FIGHTING] / 10_000 == pytest.approx(0.5, abs=0.03)


def test_exhausted_rejections_fall_back_to_the_default_key():
    # The obstacle key only offers riding, which needs a horse the context
    # lacks, so it has no feasible mass and the default key resolves the tick.
    profile = _flat_profile(obstacle={AttributeId.RIDING_HRS: 1.0})
    assert _drawn(profile, "obstacle_present", ticks=50, seed=3) == {MOVE: 50}


# --- run_session ---------------------------------------------------------------

def test_zero_ticks_make_an_empty_log(table1_pair):
    expert, _ = table1_pair
    log = run_session(_scenario(ticks_per_session=0), expert, PlayerId.ID1, seed=0)
    assert records_of(log) == ()


def test_same_seed_replays_the_same_session(base_scenario, table1_pair):
    _, learner = table1_pair
    scenario = replace(base_scenario, ticks_per_session=200)
    first = run_session(scenario, learner, PlayerId.ID2, seed=321)
    second = run_session(scenario, learner, PlayerId.ID2, seed=321)
    assert first == second
    different = run_session(scenario, learner, PlayerId.ID2, seed=322)
    assert first != different


def test_context_codes_and_the_feasibility_table_agree_with_the_context():
    for code, context in enumerate(CONTEXTS):
        assert [getattr(context, f) for f in CONTEXT_FIELDS] == [
            bool(code >> i & 1) for i in range(len(CONTEXT_FIELDS))
        ]
        assert _FEASIBLE[code].tolist() == [feasible(b, context) for b in EVENT_ATTRIBUTES]


def test_a_sole_feasible_behavior_is_drawn_however_small_its_mass():
    # Riding is infeasible without a horse, so fighting carries all of the
    # obstacle key's feasible mass; the default key (movement) never fires.
    profile = _flat_profile(
        obstacle={AttributeId.RIDING_HRS: 0.999, AttributeId.FIGHTING: 0.001}
    )
    scenario = _scenario(ticks_per_session=2000, obstacle_present=1.0)
    log = run_session(scenario, profile, PlayerId.ID1, seed=11)
    assert {r.behavior for r in records_of(log)} == {AttributeId.FIGHTING}


def test_a_short_session_is_a_prefix_of_a_longer_one(base_scenario, table1_pair):
    expert, _ = table1_pair
    ticks = 4103  # more than 4096, and no power of two
    short = run_session(
        replace(base_scenario, ticks_per_session=ticks), expert, PlayerId.ID1, seed=5
    )
    long = run_session(
        replace(base_scenario, ticks_per_session=2 * ticks), expert, PlayerId.ID1, seed=5
    )
    assert records_of(short) == records_of(long)[:ticks]


def _fallback_profile() -> PlayerProfile:
    """Its obstacle key has no feasible mass without a horse, so the default draws those ticks."""
    return _flat_profile(
        obstacle={AttributeId.RIDING_HRS: 1.0},
        default={AttributeId.FIGHTING: 0.3, AttributeId.OBSTACLE: 0.3, MOVE: 0.4},
    )


def _oracle_pairs(
    profile: PlayerProfile, scenario: Scenario
) -> list[tuple[StimulusContext, AttributeId, float]]:
    """The oracle's (context, behavior, cumulative mass), context code-major."""
    pairs = []
    total = 0.0
    weighted = oracles.context_weights(scenario)
    for context, weight in sorted(weighted, key=lambda cw: CONTEXTS.index(cw[0])):
        law = oracles.tick_distribution(profile, context)
        for behavior in EVENT_ATTRIBUTES:
            total += weight * law.get(behavior, 0.0)
            pairs.append((context, behavior, total))
    return pairs


def test_a_tick_by_tick_replay_of_the_stream_layout_matches_the_session(
    base_scenario, table1_pair
):
    # The session stream layout of skilltransfer.seeds, one tick at a time:
    # one double per tick, decoded through the inverse CDF of the oracle's
    # joint (context, behavior) law in context code-major order.
    _, learner = table1_pair
    scenario = replace(base_scenario, ticks_per_session=300)
    for profile in (learner, _fallback_profile()):
        log = run_session(scenario, profile, PlayerId.ID2, seed=9)
        pairs = _oracle_pairs(profile, scenario)
        total = pairs[-1][2]
        rng = derive_rng(9)
        replayed = []
        for tick in range(300):
            u = rng.random()
            context, behavior, _ = next(pair for pair in pairs if u < pair[2] / total)
            replayed.append(Record(PlayerId.ID2, tick, context, behavior))
        assert records_of(log) == tuple(replayed), profile.profile_id


@pytest.mark.parametrize("strength", [0.1, 0.4, 0.7, 1.0])
def test_the_behavior_law_of_each_context_is_the_oracle_mixture(strength):
    for profile in (*table1_profiles(strength), _fallback_profile()):
        law, _ = profile._law
        for code, context in enumerate(CONTEXTS):
            want = oracles.tick_distribution(profile, context)
            assert law[code].tolist() == pytest.approx(
                [want.get(b, 0.0) for b in EVENT_ATTRIBUTES], rel=0.0, abs=1e-15
            ), (profile.profile_id, context)


def test_the_joint_law_weights_each_behavior_law_by_its_context(base_scenario):
    for profile in (*table1_profiles(), _fallback_profile()):
        law = joint_law(base_scenario, profile)
        assert law.shape == (len(CONTEXTS), len(EVENT_ATTRIBUTES))
        want = np.zeros_like(law)
        for context, weight in oracles.context_weights(base_scenario):
            dist = oracles.tick_distribution(profile, context)
            want[CONTEXTS.index(context)] = [weight * dist.get(b, 0.0) for b in EVENT_ATTRIBUTES]
        assert law.ravel().tolist() == pytest.approx(want.ravel().tolist(), rel=0.0, abs=1e-15)
        assert law.sum() == pytest.approx(1.0, rel=0.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    probabilities=st.lists(
        st.sampled_from([0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0]),
        min_size=len(CONTEXT_FIELDS), max_size=len(CONTEXT_FIELDS),
    ),
    which=st.sampled_from([0, 1, 2]),
)
def test_degenerate_scenarios_never_draw_a_pair_without_mass(probabilities, which):
    profile = (*table1_profiles(), _fallback_profile())[which]
    scenario = _scenario(ticks_per_session=2000, **dict(zip(CONTEXT_FIELDS, probabilities)))
    log = run_session(scenario, profile, PlayerId.ID1, seed=4)
    assert validate_session(log) == []
    reachable = {CONTEXTS.index(context) for context, _ in oracles.context_weights(scenario)}
    assert set(log.contexts.tolist()) <= reachable


#: CDF entries and uniforms: any double in [0, 1), and those the guide table is
#: most likely to get wrong, zero, the bucket edges ``k / _GUIDE`` and the
#: largest double below 1.0.
_EDGE_VALUES = st.one_of(
    st.just(0.0),
    st.integers(0, _GUIDE - 1).map(lambda k: k / _GUIDE),
    st.just(np.nextafter(1.0, 0.0)),
    st.floats(0.0, 1.0, exclude_max=True),
)


@st.composite
def _cdfs(draw) -> np.ndarray:
    """Sorted entries in [0, 1]: leading zeros, repeated runs (pairs without
    mass), bucket edges, and often a last entry of 1.0."""
    entries = st.one_of(_EDGE_VALUES, st.just(1.0))
    runs = draw(st.lists(st.tuples(entries, st.integers(1, 4)), min_size=1, max_size=40))
    cdf = np.sort(np.repeat([v for v, _ in runs], [n for _, n in runs]))
    return np.append(cdf, 1.0) if draw(st.booleans()) else cdf


@settings(max_examples=300, deadline=None)
@given(cdf=_cdfs(), extra=st.lists(_EDGE_VALUES, max_size=40))
def test_the_guide_table_lookup_is_the_binary_search(cdf, extra):
    # Every uniform on or next to a CDF entry, plus 0.0, the bucket edges and
    # the largest double below 1.0.
    near = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)])
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], near, extra])
    u = u[u < 1.0]
    grid = np.arange(_GUIDE + 1) / _GUIDE
    assert np.array_equal(_guide_table(cdf), np.searchsorted(cdf, grid, side="right"))
    pairs = _inverse_cdf(cdf, u)
    assert pairs.dtype == np.int16
    assert np.array_equal(pairs, np.searchsorted(cdf, u, side="right"))


def test_a_drawn_dead_row_is_a_config_error():
    profile = _flat_profile(
        obstacle={AttributeId.RIDING_HRS: 1.0},
        default={AttributeId.RIDING_HRS: 1.0},
    )
    with pytest.raises(ConfigError, match="default"):
        run_session(
            _scenario(obstacle_present=1.0, horse_available=0.0),
            profile, PlayerId.ID1, seed=0,
        )
    with pytest.raises(ConfigError, match="default"):
        joint_law(_scenario(obstacle_present=1.0, horse_available=0.0), profile)
    # The same profile is usable where its dead rows are never drawn: indoor
    # and outdoor ticks move, and a horse makes riding feasible.
    for scenario in (_scenario(), _scenario(obstacle_present=1.0, horse_available=1.0)):
        assert len(run_session(scenario, profile, PlayerId.ID1, seed=0).records) == 10


@pytest.mark.parametrize("which", [0, 1])
def test_event_marginals_match_the_oracle(base_scenario, table1_pair, which):
    profile = table1_pair[which]
    ticks = 50_000
    scenario = replace(base_scenario, ticks_per_session=ticks)
    log = run_session(scenario, profile, PlayerId.ID1, seed=2024)
    counts = Counter(r.behavior for r in records_of(log))
    expected = oracles.event_tick_probability(profile, scenario)
    for behavior in EVENT_ATTRIBUTES:
        p = expected.get(behavior, 0.0)
        sigma = math.sqrt(p * (1.0 - p) / ticks)
        assert abs(counts[behavior] / ticks - p) <= 4.0 * sigma, behavior


# --- profile validation ----------------------------------------------------------

def test_profile_needs_every_condition_key():
    distributions = {k: {MOVE: 1.0} for k in ConditionKey if k is not ConditionKey.DEFAULT}
    with pytest.raises(ValueError, match="default"):
        PlayerProfile(profile_id="partial", distributions=distributions)


def test_profile_rejects_bad_probabilities():
    with pytest.raises(ValueError, match="sum"):
        _flat_profile(obstacle={AttributeId.FIGHTING: 0.5, MOVE: 0.6})
    with pytest.raises(ValueError, match="positive"):
        _flat_profile(obstacle={AttributeId.FIGHTING: 0.0, MOVE: 1.0})
    with pytest.raises(ValueError, match="not an event behavior"):
        _flat_profile(obstacle={AttributeId.LOCATION: 1.0})


def test_location_keys_cannot_hold_stimulus_gated_behaviors():
    # An indoor tick is by definition stimulus free, so a climbing entry
    # there could never be drawn.
    with pytest.raises(ValueError, match="indoor"):
        _flat_profile(indoor={AttributeId.CLIMBING: 1.0})


# --- built-in profile pair --------------------------------------------------------

def test_expert_linkages_have_the_documented_modes(table1_pair):
    expert, _ = table1_pair
    by_key = expert.distributions

    def mode(key):
        return max(by_key[key], key=by_key[key].get)

    assert mode(ConditionKey.OBSTACLE) is AttributeId.FIGHTING
    assert mode(ConditionKey.PERSON_FACING) is AttributeId.FACING_SOL
    assert mode(ConditionKey.HORSE_AVAILABLE) is AttributeId.FACING_SOL
    assert mode(ConditionKey.CLIMBING_OPPORTUNITY) is AttributeId.CLIMBING
    # Location leaves the expert cold; both keys match the default mix.
    assert by_key[ConditionKey.INDOOR] == by_key[ConditionKey.DEFAULT]
    assert by_key[ConditionKey.OUTDOOR] == by_key[ConditionKey.DEFAULT]
    # No social behavior at climbing spots: all mass on climbing and movement.
    assert set(by_key[ConditionKey.CLIMBING_OPPORTUNITY]) == {
        AttributeId.CLIMBING,
        MOVE,
    }


def test_learner_linkages_have_the_documented_modes(table1_pair):
    _, learner = table1_pair
    by_key = learner.distributions

    def mode(key):
        return max(by_key[key], key=by_key[key].get)

    assert mode(ConditionKey.INDOOR) is MOVE
    assert mode(ConditionKey.OUTDOOR) is MOVE
    assert mode(ConditionKey.OBSTACLE) is AttributeId.LISTENING
    assert mode(ConditionKey.HORSE_AVAILABLE) is AttributeId.LISTENING
    assert mode(ConditionKey.CLIMBING_OPPORTUNITY) is AttributeId.ATTACK_CIV
    watched = by_key[ConditionKey.PERSON_FACING]
    trio = (AttributeId.RIDING_HRS, AttributeId.CLIMBING, AttributeId.ATTACK_CIV)
    assert watched[trio[0]] == watched[trio[1]] == watched[trio[2]]
    assert sum(watched[b] for b in trio) == pytest.approx(0.7)


@pytest.mark.parametrize("strength", [0.4, 0.7, 1.0, 5e-324])
def test_linkage_strength_lands_on_the_linked_behavior(strength):
    expert, learner = table1_profiles(strength)
    assert expert.distributions[ConditionKey.OBSTACLE][
        AttributeId.FIGHTING
    ] == pytest.approx(strength)
    assert learner.distributions[ConditionKey.OBSTACLE][
        AttributeId.LISTENING
    ] == pytest.approx(strength)
    for profile in (expert, learner):
        for dist in profile.distributions.values():
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


def _reference_linked(key, linked, s):
    rest = [b for b in _KEY_SUPPORT[key] if b not in linked]
    if s >= 1.0 or not rest:
        return dict(linked)
    dist = {b: s * w for b, w in linked.items()}
    share = (1.0 - s) / len(rest)
    for b in rest:
        dist[b] = share
    return dist


def _reference_table1_profiles(s):
    """The built-in pair as it was written out by hand, one call per key."""
    base = (AttributeId.FIGHTING, AttributeId.OBSTACLE, MOVE)

    def uniform():
        return {b: 1.0 / len(base) for b in base}

    K = ConditionKey
    expert = PlayerProfile(
        profile_id="expert-table1",
        distributions={
            K.INDOOR: uniform(),
            K.OUTDOOR: uniform(),
            K.DEFAULT: uniform(),
            K.OBSTACLE: _reference_linked(K.OBSTACLE, {AttributeId.FIGHTING: 1.0}, s),
            K.PERSON_FACING: _reference_linked(K.PERSON_FACING, {AttributeId.FACING_SOL: 1.0}, s),
            K.HORSE_AVAILABLE: _reference_linked(
                K.HORSE_AVAILABLE, {AttributeId.FACING_SOL: 1.0}, s
            ),
            K.CLIMBING_OPPORTUNITY: (
                {AttributeId.CLIMBING: s, MOVE: 1.0 - s}
                if s < 1.0
                else {AttributeId.CLIMBING: 1.0}
            ),
            K.SOLDIER_PRESENT: uniform(),
            K.CIVILIAN_PRESENT: uniform(),
        },
    )
    third = 1.0 / 3.0
    learner = PlayerProfile(
        profile_id="learner-table1",
        distributions={
            K.INDOOR: _reference_linked(K.INDOOR, {MOVE: 1.0}, s),
            K.OUTDOOR: _reference_linked(K.OUTDOOR, {MOVE: 1.0}, s),
            K.DEFAULT: uniform(),
            K.OBSTACLE: _reference_linked(K.OBSTACLE, {AttributeId.LISTENING: 1.0}, s),
            K.PERSON_FACING: _reference_linked(
                K.PERSON_FACING,
                {
                    AttributeId.RIDING_HRS: third,
                    AttributeId.CLIMBING: third,
                    AttributeId.ATTACK_CIV: third,
                },
                s,
            ),
            K.HORSE_AVAILABLE: _reference_linked(
                K.HORSE_AVAILABLE, {AttributeId.LISTENING: 1.0}, s
            ),
            K.CLIMBING_OPPORTUNITY: _reference_linked(
                K.CLIMBING_OPPORTUNITY, {AttributeId.ATTACK_CIV: 1.0}, s
            ),
            K.SOLDIER_PRESENT: uniform(),
            K.CIVILIAN_PRESENT: uniform(),
        },
    )
    return expert, learner


@settings(max_examples=300, deadline=None)
@given(strength=st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
@example(strength=1.0)
@example(strength=0.7)
@example(strength=0.4)
@example(strength=1 / 3)
@example(strength=0.1)
@example(strength=1e-300)
@example(strength=1e-323)
@example(strength=5e-324)
def test_table1_profiles_equal_the_hand_written_reference(strength):
    expert, learner = table1_profiles(strength)
    if strength / 3 == 0.0:
        # The reference's learner shares of the watched key underflow to
        # zero, which no profile takes; the table leaves them out.
        with pytest.raises(ValueError, match="probability of riding_hrs must be positive"):
            _reference_table1_profiles(strength)
        watched = learner.distributions[ConditionKey.PERSON_FACING]
        trio = {AttributeId.RIDING_HRS, AttributeId.CLIMBING, AttributeId.ATTACK_CIV}
        assert set(watched) == set(_KEY_SUPPORT[ConditionKey.PERSON_FACING]) - trio
        return
    want = _reference_table1_profiles(strength)
    assert [profile_payload(p) for p in (expert, learner)] == [profile_payload(p) for p in want]


def test_linkage_strength_must_be_usable():
    for bad in (0.0, -0.1, 1.2):
        with pytest.raises(ValueError, match="linkage_strength"):
            table1_profiles(bad)


# --- persistence -------------------------------------------------------------------

def test_profile_json_round_trip_is_canonical(table1_pair):
    expert, _ = table1_pair
    payload = profile_payload(expert)
    again = profile_from_json(json.dumps(payload))
    assert again == expert
    assert profile_payload(again) == payload


def test_profile_from_json_rejects_garbage():
    with pytest.raises(ConfigError, match="invalid profile"):
        profile_from_json('{"profile_id": "x"}')
    with pytest.raises(ConfigError, match="invalid profile"):
        profile_from_json('{"profile_id": "x", "distributions": {"weather": {}}}')
    huge = {"profile_id": "x", "distributions": {"indoor": {"fighting": 10**400}}}
    with pytest.raises(ConfigError, match="invalid profile"):  # beyond the float range
        profile_from_json(json.dumps(huge))
