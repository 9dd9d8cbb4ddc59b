"""Structure search, scoring, CPT estimation, and exact class inference."""

from __future__ import annotations

import copy
import itertools
import json
import math
import pickle
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from skilltransfer.bayes import (
    BayesNet,
    Cpt,
    Dag,
    LearnConfig,
    accuracy,
    bayesnet_from_json,
    bayesnet_to_json,
    bic_score,
    class_posterior,
    classify,
    fit_cpts,
    learn_structure,
    markov_blanket,
    read_bayesnet,
    write_bayesnet,
)
from skilltransfer import bayes
from skilltransfer.behavior_data import ABSENT, OCCURRED, DataSet, to_dataset
from skilltransfer.game_domain import simulate_pair
from skilltransfer.seeds import derive_rng

BINARY = (OCCURRED, ABSENT)
CLASSES = ("ID1", "ID2")


def _table(named: dict[str, np.ndarray]) -> DataSet:
    """Binary columns from 0/1 arrays; the ID column maps onto class labels."""
    domains = {n: CLASSES if n == "ID" else BINARY for n in named}
    arrays = list(named.values())
    rows = tuple(
        tuple(domains[name][int(bit)] for name, bit in zip(named, row))
        for row in zip(*arrays)
    )
    return DataSet(columns=tuple(named), domains=domains, rows=rows)


def _net(nodes, edges, cpts, domains=None) -> BayesNet:
    domains = domains or {n: CLASSES if n == "ID" else BINARY for n in nodes}
    dag = Dag(nodes=tuple(nodes), edges=frozenset(edges))
    return BayesNet(
        dag=dag,
        cpts={
            node: Cpt(node=node, parents=dag.parents_of(node), table=np.asarray(table))
            for node, table in cpts.items()
        },
        domains=domains,
    )


# --- graphs ------------------------------------------------------------------

def test_dag_rejects_malformed_graphs():
    with pytest.raises(ValueError, match="duplicate"):
        Dag(nodes=("a", "a"), edges=frozenset())
    with pytest.raises(ValueError, match="unknown node"):
        Dag(nodes=("a",), edges=frozenset({("a", "b")}))
    with pytest.raises(ValueError, match="self loop"):
        Dag(nodes=("a",), edges=frozenset({("a", "a")}))
    with pytest.raises(ValueError, match="cycle"):
        Dag(nodes=("a", "b"), edges=frozenset({("a", "b"), ("b", "a")}))


def test_parents_and_children_come_back_sorted():
    dag = Dag(nodes=("c", "b", "a"), edges=frozenset({("c", "a"), ("b", "a")}))
    assert dag.parents_of("a") == ("b", "c")
    assert dag.children_of("b") == ("a",)
    with pytest.raises(ValueError, match="no such node"):
        dag.parents_of("z")


def test_markov_blanket_examples():
    isolated = Dag(nodes=("ID", "a"), edges=frozenset())
    assert markov_blanket(isolated, "ID") == frozenset()

    chain = Dag(nodes=("ID", "a", "b"), edges=frozenset({("ID", "a"), ("a", "b")}))
    assert markov_blanket(chain, "ID") == {"a"}

    collider = Dag(nodes=("ID", "a", "b"), edges=frozenset({("a", "b"), ("ID", "b")}))
    assert markov_blanket(collider, "ID") == {"a", "b"}


# --- BIC scoring ---------------------------------------------------------------

def test_empty_graph_score_is_the_sum_of_independent_terms():
    rng = np.random.default_rng(10)
    data = _table(
        {
            "a": rng.integers(0, 2, size=300),
            "b": rng.integers(0, 2, size=300),
            "c": rng.integers(0, 2, size=300),
        }
    )
    dag = Dag(nodes=data.columns, edges=frozenset())
    want = oracles.bic_by_hand(data, {n: () for n in data.columns})
    assert bic_score(dag, data) == pytest.approx(want, abs=1e-9)


def test_edge_from_independent_noise_lowers_the_score():
    rng = np.random.default_rng(11)
    data = _table(
        {
            "a": rng.integers(0, 2, size=10_000),
            "b": rng.integers(0, 2, size=10_000),
        }
    )
    loose = Dag(nodes=data.columns, edges=frozenset())
    wired = Dag(nodes=data.columns, edges=frozenset({("a", "b")}))
    assert bic_score(wired, data) < bic_score(loose, data)


@pytest.mark.parametrize("n", [16, 64, 1000])
def test_deterministic_copy_edge_gain_is_exact(n):
    # With a balanced source and a one-to-one copy, the likelihood gain is
    # n ln 2 and adding the edge doubles the penalty rows, for a net gain
    # of n ln 2 - 0.5 ln n.
    source = np.tile([0, 1], n // 2)
    data = _table({"a": source.copy(), "c": source})
    loose = Dag(nodes=data.columns, edges=frozenset())
    wired = Dag(nodes=data.columns, edges=frozenset({("c", "a")}))
    delta = bic_score(wired, data) - bic_score(loose, data)
    assert delta == pytest.approx(n * math.log(2) - 0.5 * math.log(n), abs=1e-9)
    assert delta > 0


def test_bic_matches_the_hand_formula_with_parents():
    rng = np.random.default_rng(12)
    c = rng.integers(0, 2, size=500)
    a = np.where(rng.random(500) < 0.8, c, 1 - c)
    data = _table({"a": a, "b": rng.integers(0, 2, size=500), "c": c})
    dag = Dag(nodes=data.columns, edges=frozenset({("c", "a"), ("b", "a")}))
    want = oracles.bic_by_hand(data, {n: dag.parents_of(n) for n in dag.nodes})
    assert bic_score(dag, data) == pytest.approx(want, abs=1e-9)


# --- structure search -------------------------------------------------------------

def test_independent_columns_learn_an_empty_graph():
    rng = np.random.default_rng(13)
    data = _table(
        {name: rng.integers(0, 2, size=10_000) for name in ("a", "b", "c", "d")}
    )
    dag = learn_structure(data, LearnConfig())
    assert dag.edges == frozenset()
    # No single edge can beat the empty graph either.
    empty_score = bic_score(dag, data)
    for parent in data.columns:
        for child in data.columns:
            if parent == child:
                continue
            wired = Dag(nodes=data.columns, edges=frozenset({(parent, child)}))
            assert bic_score(wired, data) < empty_score


def test_noisy_copy_of_the_class_gets_connected():
    rng = np.random.default_rng(14)
    n = 4_000
    label = np.tile([0, 1], n // 2)
    noisy = np.where(rng.random(n) < 0.9, label, 1 - label)
    data = _table(
        {
            "ID": label,
            "a": noisy,
            "b": rng.integers(0, 2, size=n),
            "c": rng.integers(0, 2, size=n),
        }
    )
    # The dependence is real before we ask the learner to find it: the
    # 2x2 contingency chi-square statistic is far beyond the 0.001
    # critical value for one degree of freedom (10.83).
    joint = np.zeros((2, 2))
    for x, y in zip(label, noisy):
        joint[x, y] += 1
    expected = joint.sum(axis=1, keepdims=True) * joint.sum(axis=0) / n
    chi_square = ((joint - expected) ** 2 / expected).sum()
    assert chi_square > 10.83

    dag = learn_structure(data, LearnConfig())
    assert ("ID", "a") in dag.edges or ("a", "ID") in dag.edges


def test_structure_search_is_deterministic_and_order_free():
    rng = np.random.default_rng(15)
    n = 400
    label = np.tile([0, 1], n // 2)
    data = _table(
        {
            "ID": label,
            "a": np.where(rng.random(n) < 0.85, label, 1 - label),
            "b": rng.integers(0, 2, size=n),
        }
    )
    first = learn_structure(data, LearnConfig(), seed=4)
    second = learn_structure(data, LearnConfig(), seed=4)
    assert first == second

    order = rng.permutation(data.n_rows)
    shuffled = DataSet(
        columns=data.columns,
        domains=dict(data.domains),
        rows=tuple(data.rows[i] for i in order),
    )
    assert learn_structure(shuffled, LearnConfig(), seed=4) == first


def _start_law(names: tuple[str, ...], max_parents: int) -> dict[frozenset, float]:
    """Each DAG's exact probability under a uniform order, a uniform parent
    count up to ``min(position, max_parents)`` and a uniform parent subset."""
    law: dict[frozenset, float] = {}
    orders = list(itertools.permutations(names))
    for order in orders:
        # Each position's choices: (probability, parents).
        choices = []
        for j in range(len(order)):
            counts = min(j, max_parents) + 1
            choices.append([
                (1 / counts / math.comb(j, k), subset)
                for k in range(counts)
                for subset in itertools.combinations(order[:j], k)
            ])
        for picks in itertools.product(*choices):
            edges = frozenset(
                (p, child) for child, (_, parents) in zip(order, picks) for p in parents
            )
            weight = math.prod(q for q, _ in picks) / len(orders)
            law[edges] = law.get(edges, 0.0) + weight
    return law


@pytest.mark.parametrize("max_parents", [1, 2, 3])
def test_random_starts_follow_the_exact_start_law(max_parents):
    names = ("d", "a", "c", "b")
    law = _start_law(names, max_parents)
    assert math.isclose(sum(law.values()), 1.0)
    draws = 40_000
    starts = bayes._random_starts(names, max_parents, derive_rng(max_parents), draws)
    assert len(starts) == draws
    seen = Counter(frozenset(start) for start in starts)
    # Every draw is a DAG the law gives mass to.
    assert set(seen) <= set(law)
    # Pearson's statistic over every DAG of the law; each expects 11 or
    # more draws. The bound is the mean plus six standard deviations.
    chi_square = sum(
        (seen[dag] - draws * q) ** 2 / (draws * q) for dag, q in law.items()
    )
    df = len(law) - 1
    assert chi_square < df + 6 * math.sqrt(2 * df), (chi_square, df)


@pytest.mark.parametrize("max_parents", [0, 1, 3, 6, 40])
def test_random_starts_are_dags_within_the_parent_bound(max_parents):
    names = tuple(f"x{i:02d}" for i in np.random.default_rng(3).permutation(16))
    most = 0
    for start in bayes._random_starts(names, max_parents, derive_rng(11), 500):
        dag = Dag(nodes=names, edges=frozenset(start))
        most = max(most, *(len(dag.parents_of(node)) for node in names))
    # The bound is reached; above 15, the last node in the order takes every other.
    assert most == min(max_parents, 15)


def test_random_starts_on_degenerate_inputs():
    rng = derive_rng(2)
    assert bayes._random_starts(("a", "b", "c"), 2, rng, 0) == []
    assert bayes._random_starts((), 2, rng, 3) == [set(), set(), set()]
    assert bayes._random_starts(("a",), 2, rng, 3) == [set(), set(), set()]
    assert bayes._random_starts(("a", "b", "c"), 0, rng, 3) == [set(), set(), set()]
    assert len(bayes._random_starts(("a", "b"), 5, rng, 3)) == 3
    assert bayes._random_start(("a",), 1, rng) == set()


def test_fewer_starts_are_the_first_of_more(base_scenario, table1_pair):
    names = tuple(f"c{i}" for i in range(11))
    five = bayes._random_starts(names, 3, derive_rng(8), 5)
    assert five == bayes._random_starts(names, 3, derive_rng(8), 20)[:5]
    assert bayes._random_start(names, 3, derive_rng(8)) == five[0]

    # So 20 restarts climb from the starts 5 restarts climb from, and more.
    scenario = replace(base_scenario, ticks_per_session=2000)
    data = to_dataset(simulate_pair(*table1_pair, scenario, 6, 0), 5)
    few = learn_structure(data, LearnConfig(restarts=5), seed=4)
    many = learn_structure(data, LearnConfig(restarts=20), seed=4)
    assert bic_score(many, data) >= bic_score(few, data)


def test_local_score_ignores_the_order_of_the_parents(base_scenario, table1_pair):
    # Structure search passes parent sets in set order, which follows the
    # string hash seed; a score that depended on it made the learned
    # network differ between processes.
    scenario = replace(base_scenario, ticks_per_session=20_000)
    data = to_dataset(simulate_pair(*table1_pair, scenario, 2, 0), 5)
    others = lambda node: [c for c in data.columns if c != node]
    for node in data.columns:
        for size in (2, 3):
            for parents in itertools.combinations(others(node), size):
                scores = {
                    bayes._FamilyScorer(data).local_score(node, list(order))
                    for order in itertools.permutations(parents)
                }
                assert len(scores) == 1, (node, parents, scores)


def _reference_local_score(scorer, node, parents) -> float:
    """The scorer's miss path as it was, with the row totals broadcast."""
    (counts,) = scorer.family_counts([(node, parents)])
    row_totals = counts.sum(axis=1, keepdims=True)
    mask = counts > 0
    log_likelihood = float(
        (counts[mask] * (np.log(counts[mask]) - np.log(np.broadcast_to(row_totals, counts.shape)[mask]))).sum()
    )
    q, r = counts.shape
    return log_likelihood - 0.5 * math.log(scorer.n) * q * (r - 1)


def test_local_score_is_bit_identical_to_the_broadcast_reference(base_scenario, table1_pair):
    scenario = replace(base_scenario, ticks_per_session=20_000)
    data = to_dataset(simulate_pair(*table1_pair, scenario, 3, 0), 5)
    scorer = bayes._FamilyScorer(data)
    for node in data.columns:
        others = [c for c in data.columns if c != node]
        for size in range(4):
            for parents in itertools.combinations(others, size):
                want = _reference_local_score(scorer, node, parents)
                assert scorer.local_score(node, parents) == want, (node, parents)


def _reference_family_counts(data, node, parents) -> np.ndarray:
    """Family counts from one ``np.bincount`` over every row of the table."""
    codes = data.codes.astype(np.int64)
    r = len(data.domains[node])
    idx = codes[:, data.column_index(node)].copy()
    stride = r
    for parent in reversed(parents):
        idx += codes[:, data.column_index(parent)] * stride
        stride *= len(data.domains[parent])
    return np.bincount(idx, minlength=stride).reshape(stride // r, r)


class _FullTableCounts:
    """What ``_reference_local_score`` reads of a scorer, counted over every row."""

    def __init__(self, data):
        self.data, self.n = data, data.n_rows

    def family_counts(self, families):
        return [_reference_family_counts(self.data, node, sorted(ps)) for node, ps in families]


@st.composite
def _summary_cases(draw):
    """A generic table with many duplicate rows, and one family of it.

    Most tables have 1-8 columns; a wide one has 10-12 columns of at
    least 90 values, so that its mixed-radix row keys would pass 2**63.
    """
    wide = draw(st.booleans())
    k = draw(st.integers(min_value=10, max_value=12) if wide else st.integers(1, 8))
    low = draw(st.sampled_from((90, 128))) if wide else 2
    sizes = [draw(st.integers(min_value=low, max_value=128)) for _ in range(k)]
    assert math.prod(sizes) > 2**63 or not wide
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pool_size = draw(st.integers(min_value=1, max_value=12))
    pool = np.stack([rng.integers(0, size, size=pool_size) for size in sizes], axis=1)
    # Near copies that differ in one column: with 128-value columns, rows
    # that differ only in the first column would share a key that wrapped
    # around int64.
    near = pool.copy()
    j = draw(st.integers(min_value=0, max_value=k - 1))
    near[:, j] = rng.integers(0, sizes[j], size=pool_size)
    pool = np.concatenate([pool, near])
    # Rows drawn with replacement from the pool, so most are copies.
    codes = pool[rng.integers(0, len(pool), size=draw(st.integers(min_value=1, max_value=300)))]
    names = [f"c{j}" for j in rng.permutation(k)]
    domains = {name: tuple(f"v{i}" for i in range(size)) for name, size in zip(names, sizes)}
    data = DataSet(columns=names, domains=domains, codes=codes)
    node = draw(st.sampled_from(names))
    others = [c for c in names if c != node]
    # At most two parents: a family of 128-value columns has 128**4 cells at three.
    parents = draw(st.lists(st.sampled_from(others), unique=True, max_size=2)) if others else []
    return data, node, parents


@settings(max_examples=200, deadline=None)
@given(case=_summary_cases())
def test_counts_over_distinct_rows_match_the_full_table(case):
    data, node, parents = case
    scorer = bayes._FamilyScorer(data)
    assert len(scorer.codes) == len(np.unique(data.codes, axis=0))
    (counts,) = scorer.family_counts([(node, parents)])
    assert counts.dtype == np.float64
    assert np.array_equal(counts, _reference_family_counts(data, node, sorted(parents)))
    want = _reference_local_score(_FullTableCounts(data), node, parents)
    assert scorer.local_score(node, parents) == want


@st.composite
def _dag_cases(draw):
    """A _summary_cases table and the families of a random DAG over its columns.

    Each node draws its parents, in random order, from the nodes before it
    in a random order: at most two, one in a wide table, dropped from the
    end until the family has at most 2**18 cells.
    """
    data, _, _ = draw(_summary_cases())
    order = draw(st.permutations(data.columns))
    most = 1 if len(data.columns) >= 10 else 2
    families = []
    for i, node in enumerate(order):
        earlier = st.lists(st.sampled_from(order[:i]), unique=True, max_size=most)
        parents = draw(earlier) if i else []
        while math.prod(len(data.domains[c]) for c in [node, *parents]) > 1 << 18:
            parents.pop()
        families.append((node, parents))
    return data, families


@settings(max_examples=200, deadline=None)
@given(case=_dag_cases())
def test_one_count_over_a_whole_dag_matches_the_full_table_per_family(case):
    data, families = case
    counts = bayes._FamilyScorer(data).family_counts(families)
    assert len(counts) == len(families)
    for (node, parents), got in zip(families, counts):
        assert got.dtype == np.float64
        assert np.array_equal(got, _reference_family_counts(data, node, sorted(parents)))


def test_fit_cpts_counts_a_whole_net_in_one_call(base_scenario, table1_pair):
    scenario = replace(base_scenario, ticks_per_session=2000)
    data = to_dataset(simulate_pair(*table1_pair, scenario, 5, 0), 5)
    dag = learn_structure(data, LearnConfig(), seed=5)
    count = bayes._FamilyScorer._count
    calls = []

    def counted(self, *args):
        calls.append(args)
        return count(self, *args)

    with mock.patch.object(bayes._FamilyScorer, "_count", counted):
        fit_cpts(dag, data)
    assert len(dag.nodes) == 11 and dag.edges
    # Counting one family per call would make one call per node.
    assert len(calls) == 1


def _has_path(children, source, target) -> bool:
    if source == target:
        return True
    stack = [source]
    seen = {source}
    while stack:
        node = stack.pop()
        for child in children[node]:
            if child == target:
                return True
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return False


def _reference_best_move(scorer, max_parents, parents, children):
    """One full rescan of every move, in the climber's tie order."""
    local = scorer.local_score
    best = None
    best_delta = bayes._IMPROVEMENT_EPS
    for u in scorer.variables:
        for v in scorer.variables:
            if u == v or u in parents[v] or v in parents[u]:
                continue
            if len(parents[v]) >= max_parents:
                continue
            if _has_path(children, v, u):
                continue
            delta = local(v, tuple(parents[v] | {u})) - local(v, tuple(parents[v]))
            if delta > best_delta:
                best, best_delta = ("add", (u, v), delta), delta
    for u, v in sorted((p, c) for c in parents for p in parents[c]):
        delta = local(v, tuple(parents[v] - {u})) - local(v, tuple(parents[v]))
        if delta > best_delta:
            best, best_delta = ("delete", (u, v), delta), delta
    for u, v in sorted((p, c) for c in parents for p in parents[c]):
        if len(parents[u]) >= max_parents:
            continue
        children[u].discard(v)
        reachable = _has_path(children, u, v)
        children[u].add(v)
        if reachable:
            continue
        delta = (
            local(v, tuple(parents[v] - {u}))
            - local(v, tuple(parents[v]))
            + local(u, tuple(parents[u] | {v}))
            - local(u, tuple(parents[u]))
        )
        if delta > best_delta:
            best, best_delta = ("reverse", (u, v), delta), delta
    return best


class _MemoScorer:
    """The full rescan's scorer: ``local_score`` memoized per (node, parent set).

    ``scores`` maps each family it has scored, as (node index, parent
    bitmask), to its score.
    """

    def __init__(self, data):
        self.scorer = bayes._FamilyScorer(data)
        self.variables = self.scorer.variables
        self.scores: dict[tuple[int, int], float] = {}

    def local_score(self, node, parents) -> float:
        index = self.scorer.index
        key = (index[node], sum(1 << index[p] for p in set(parents)))
        if key not in self.scores:
            self.scores[key] = self.scorer.local_score(node, parents)
        return self.scores[key]


def _scored_families(climber) -> set[tuple[int, int]]:
    """The (node index, parent bitmask) families in the climber's table."""
    return {(int(v), int(m)) for v, m in zip(*np.nonzero(~np.isnan(climber.family)))}


def _reference_climb(scorer, max_parents, edges):
    """The climber as a full rescan with a path search per candidate."""
    parents = {n: set() for n in scorer.variables}
    children = {n: set() for n in scorer.variables}
    for p, c in edges:
        parents[c].add(p)
        children[p].add(c)
    score = sum(scorer.local_score(n, tuple(parents[n])) for n in scorer.variables)
    while True:
        move = _reference_best_move(scorer, max_parents, parents, children)
        if move is None:
            return frozenset((p, c) for c in parents for p in parents[c]), score
        kind, (u, v), delta = move
        if kind == "add":
            parents[v].add(u)
            children[u].add(v)
        else:
            parents[v].discard(u)
            children[u].discard(v)
        if kind == "reverse":
            parents[u].add(v)
            children[v].add(u)
        score += delta


@st.composite
def _climb_cases(draw):
    """A small table, a parent bound, and a start from _random_start.

    Column order differs from name order, and some columns duplicate an
    earlier one, so that moves tie exactly and the tie order decides.
    """
    k = draw(st.integers(min_value=2, max_value=7))
    names = draw(
        st.permutations([f"x{i}" for i in range(k)]).filter(lambda p: list(p) != sorted(p))
    )
    n = draw(st.integers(min_value=20, max_value=150))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    columns: list[np.ndarray] = []
    for j in range(k):
        kind = draw(st.sampled_from(("noise", "copy", "noisy copy"))) if j else "noise"
        if kind == "noise":
            columns.append(rng.integers(0, draw(st.integers(min_value=2, max_value=3)), size=n))
            continue
        source = columns[draw(st.integers(min_value=0, max_value=j - 1))]
        if kind == "copy":
            columns.append(source.copy())
        else:
            flips = rng.random(n) < 0.2
            columns.append(np.where(flips, rng.integers(0, source.max() + 1, size=n), source))
    domains = {
        name: tuple(f"v{i}" for i in range(max(2, int(column.max()) + 1)))
        for name, column in zip(names, columns)
    }
    data = DataSet(columns=names, domains=domains, codes=np.stack(columns, axis=1))
    max_parents = draw(st.integers(min_value=1, max_value=4))
    start = set()
    if draw(st.booleans()):
        start_rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        start = bayes._random_start(data.columns, max_parents, start_rng)
    return data, max_parents, start


@settings(max_examples=300, deadline=None)
@given(case=_climb_cases())
def test_climb_matches_the_full_rescan_reference(case):
    data, max_parents, start = case
    reference = _MemoScorer(data)
    want_edges, want_score = _reference_climb(reference, max_parents, start)
    climber = bayes._Climber(bayes._FamilyScorer(data), max_parents)
    edges, score = climber.climb(set(start))
    assert edges == want_edges
    assert score == want_score
    # Every family the climber scores, the full rescan scores too.
    assert _scored_families(climber) <= set(reference.scores)


@st.composite
def _lockstep_cases(draw):
    """A _climb_cases table with several starts, in a drawn order.

    The starts are the empty one, the drawn one twice, and one to four
    more _random_start draws, so that the climbs end after different
    numbers of steps and drop out of the lockstep at different times.
    """
    data, max_parents, start = draw(_climb_cases())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    more = draw(st.integers(min_value=1, max_value=4))
    starts = [set(), start, start]
    starts += [bayes._random_start(data.columns, max_parents, rng) for _ in range(more)]
    return data, max_parents, draw(st.permutations(starts))


@settings(max_examples=150, deadline=None)
@given(case=_lockstep_cases(), data=st.data())
def test_lockstep_climbs_match_the_full_rescan_reference_per_start(case, data):
    table, max_parents, starts = case
    reference = _MemoScorer(table)
    want = [_reference_climb(reference, max_parents, start) for start in starts]
    climber = bayes._Climber(bayes._FamilyScorer(table), max_parents)
    assert climber.climb_all([set(start) for start in starts]) == want
    assert _scored_families(climber) <= set(reference.scores)

    # A start with a cycle through two or more nodes, among valid ones.
    ring = data.draw(st.permutations(table.columns))
    ring = ring[: data.draw(st.integers(min_value=2, max_value=len(ring)))]
    cyclic = set(zip(ring, ring[1:] + ring[:1]))
    at = data.draw(st.integers(min_value=0, max_value=len(starts)))
    with pytest.raises(ValueError, match="graph contains a cycle"):
        climber.climb_all([set(start) for start in starts[:at]] + [cyclic] + starts[at:])


def test_lockstep_climbs_on_the_standard_schema_match_the_reference(base_scenario, table1_pair):
    # Eleven columns: a start score summed pairwise, as ndarray.sum does
    # from eight terms on, differs from the reference's left-to-right sum.
    scenario = replace(base_scenario, ticks_per_session=2000)
    data = to_dataset(simulate_pair(*table1_pair, scenario, 4, 0), 5)
    starts = [set()] + bayes._random_starts(data.columns, 3, derive_rng(4), 20)
    reference = _MemoScorer(data)
    want = [_reference_climb(reference, 3, start) for start in starts]
    assert bayes._Climber(bayes._FamilyScorer(data), 3).climb_all(starts) == want


@pytest.mark.parametrize("seed, max_parents", [(0, 1), (1, 2), (2, 4), (3, 4)])
def test_lockstep_climbs_on_the_widest_table_match_the_reference(seed, max_parents):
    # The widest table a search takes: reachability takes four squarings,
    # and the chain start holds a path of 15 edges.
    k = bayes._MAX_SEARCH_COLUMNS
    rng = np.random.default_rng(seed)
    names = tuple(f"x{i:02d}" for i in rng.permutation(k))
    n = 60
    columns = [rng.integers(0, 2, size=n)]
    for j in range(1, k):
        source = columns[int(rng.integers(0, j))]
        if j % 3 == 0:
            columns.append(rng.integers(0, 3, size=n))
        elif j % 3 == 1:
            columns.append(source.copy())
        else:
            flips = rng.random(n) < 0.2
            columns.append(np.where(flips, rng.integers(0, source.max() + 1, size=n), source))
    domains = {
        name: tuple(f"v{i}" for i in range(max(2, int(column.max()) + 1)))
        for name, column in zip(names, columns)
    }
    data = DataSet(columns=names, domains=domains, codes=np.stack(columns, axis=1))
    chain = set(zip(names, names[1:]))
    starts = [set(), chain]
    starts += [bayes._random_start(names, max_parents, rng) for _ in range(4)]
    reference = _MemoScorer(data)
    want = [_reference_climb(reference, max_parents, start) for start in starts]
    climber = bayes._Climber(bayes._FamilyScorer(data), max_parents)
    assert climber.climb_all(starts) == want
    assert _scored_families(climber) <= set(reference.scores)

    ring = [names[i] for i in rng.permutation(k)]
    cyclic = set(zip(ring, ring[1:] + ring[:1]))
    with pytest.raises(ValueError, match="graph contains a cycle"):
        climber.climb_all(starts[:3] + [cyclic] + starts[3:])


def _member_rows(masks, k: int) -> np.ndarray:
    """Each parent bitmask as the 0/1 row over k columns that score_families takes."""
    return np.array(masks, dtype=np.int64)[:, None] >> np.arange(k) & 1


@st.composite
def _batch_cases(draw):
    """A _summary_cases table, one child, and parent masks with repeats.

    A mask has at most two parents, and one in a wide table: families of
    128-value columns have 128**3 cells at two parents.
    """
    data, node, _ = draw(_summary_cases())
    child = data.columns.index(node)
    others = [j for j in range(len(data.columns)) if j != child]
    most = 1 if len(data.columns) >= 10 else 2
    parent_sets = (
        st.lists(st.sampled_from(others), unique=True, max_size=most) if others else st.just([])
    )
    families = draw(st.lists(parent_sets, min_size=1, max_size=8))
    masks = [sum(1 << j for j in parents) for parents in families]
    masks += draw(st.lists(st.sampled_from(masks), max_size=4))
    return data, child, draw(st.permutations(masks))


@settings(max_examples=200, deadline=None)
@given(case=_batch_cases())
def test_batch_scores_equal_the_reference_for_any_masks(case):
    data, child, masks = case
    member = _member_rows(masks, len(data.columns))
    scores = bayes._FamilyScorer(data).score_families(np.full(len(masks), child), member)
    assert len(scores) == len(masks)
    for mask, score in zip(masks, scores.tolist()):
        parents = [data.columns[j] for j in range(len(data.columns)) if mask >> j & 1]
        want = _reference_local_score(_FullTableCounts(data), data.columns[child], parents)
        assert score == want, (mask, parents)


@st.composite
def _mixed_batch_cases(draw):
    """A _summary_cases table, families of several children, and a pass bound.

    The families come interleaved by child, some repeated, the empty mask
    among them; parents are bounded as in _batch_cases. The pass bound
    lies between one row index and the whole batch, so that passes end
    inside a child's families and between children.
    """
    data, _, _ = draw(_summary_cases())
    k = len(data.columns)
    most = 1 if k >= 10 else 2
    families = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        child = draw(st.integers(min_value=0, max_value=k - 1))
        others = [j for j in range(k) if j != child]
        parent_sets = st.lists(st.sampled_from(others), unique=True, max_size=most)
        parents = draw(parent_sets) if others else []
        families.append((child, sum(1 << j for j in parents)))
    families.append((draw(st.integers(min_value=0, max_value=k - 1)), 0))
    families += draw(st.lists(st.sampled_from(families), max_size=6))
    families = draw(st.permutations(families))
    cards = [len(data.domains[c]) for c in data.columns]
    rows = len(np.unique(data.codes, axis=0))
    batch = sum(
        rows + cards[child] * math.prod(cards[j] for j in range(k) if mask >> j & 1)
        for child, mask in families
    )
    return data, families, draw(st.integers(min_value=1, max_value=batch))


@settings(max_examples=200, deadline=None)
@given(case=_mixed_batch_cases())
def test_one_call_over_many_children_scores_each_family_as_alone(case):
    data, families, pass_cells = case
    children, masks = (np.array(column) for column in zip(*families))
    with mock.patch.object(bayes, "_PASS_CELLS", pass_cells):
        member = _member_rows(masks, len(data.columns))
        scores = bayes._FamilyScorer(data).score_families(children, member)
    assert len(scores) == len(families)
    for (child, mask), score in zip(families, scores.tolist()):
        parents = [data.columns[j] for j in range(len(data.columns)) if mask >> j & 1]
        want = _reference_local_score(_FullTableCounts(data), data.columns[child], parents)
        assert score == want, (child, mask)


def test_each_lockstep_step_scores_its_missing_families_in_one_call(base_scenario, table1_pair):
    scenario = replace(base_scenario, ticks_per_session=2000)
    data = to_dataset(simulate_pair(*table1_pair, scenario, 5, 0), 5)
    calls_per_step = []
    score_families, scores = bayes._FamilyScorer.score_families, bayes._Climber._scores

    def counted_score_families(self, *args):
        calls_per_step[-1] += 1
        return score_families(self, *args)

    def counted_scores(self, *args):
        calls_per_step.append(0)
        return scores(self, *args)

    with (
        mock.patch.object(bayes._FamilyScorer, "score_families", counted_score_families),
        mock.patch.object(bayes._Climber, "_scores", counted_scores),
    ):
        learn_structure(data, LearnConfig(restarts=20), seed=5)
    assert len(data.columns) == 11
    # Scoring one child at a time would make several calls in one step.
    assert max(calls_per_step) == 1
    assert sum(calls_per_step) > 1


def test_a_one_row_table_scores_every_family_zero():
    # One row: every count is 1 of 1, and the penalty is scaled by ln 1.
    domains = {name: ("x", "y", "z") for name in "abc"}
    data = DataSet(columns=("b", "a", "c"), domains=domains, rows=(("y", "z", "x"),))
    scorer = bayes._FamilyScorer(data)
    for child in range(3):
        masks = [mask for mask in range(8) if not mask >> child & 1]
        scores = scorer.score_families(np.full(8, child), _member_rows(masks[::-1] + masks, 3))
        for mask, score in zip(masks[::-1] + masks, scores.tolist()):
            parents = [data.columns[j] for j in range(3) if mask >> j & 1]
            want = _reference_local_score(_FullTableCounts(data), data.columns[child], parents)
            assert score == want == 0.0


def test_segment_sums_add_each_run_bit_for_bit_as_its_own_sum():
    # numpy's pairwise summation unrolls by 8 and recurses past 128 values,
    # so runs of 7-9, 127-129 and 256-257 sit on its edges. A numpy whose
    # reduction order differs fails here, not in a moved pin.
    rng = np.random.default_rng(27)
    edges = [1, 7, 8, 9, 127, 128, 129, 256, 257, 1100]
    lengths = rng.permutation(np.concatenate([edges, rng.integers(1, 1101, size=150)]))
    n = int(lengths.sum())
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, size=n)
    values[rng.random(n) < 0.1] = 0.0
    starts = np.cumsum(lengths) - lengths
    values[starts[0] : starts[0] + lengths[0]] = 0.0
    segment = np.repeat(np.arange(len(lengths)), lengths)
    got = bayes._segment_sums(values, segment, len(lengths))
    want = np.array([values[a : a + m].sum() for a, m in zip(starts, lengths)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("pass_cells", [bayes._PASS_CELLS, 1 << 20])
def test_families_with_over_1024_nonzero_cells_score_as_the_reference(pass_cells):
    # 12-value columns over 3,000 random rows: each one-parent family has
    # more than 128 nonzero cells and each two-parent one more than 1,024,
    # so their sums recurse in numpy's pairwise summation. The larger pass
    # bound puts every family in one pass.
    rng = np.random.default_rng(12)
    names = ("a", "b", "c", "d")
    domains = {name: tuple(f"v{i}" for i in range(12)) for name in names}
    data = DataSet(columns=names, domains=domains, codes=rng.integers(0, 12, size=(3000, 4)))
    families = [
        (child, parents)
        for child in range(4)
        for size in (1, 2)
        for parents in itertools.combinations([j for j in range(4) if j != child], size)
    ]
    children = np.array([child for child, _ in families])
    member = _member_rows([sum(1 << j for j in parents) for _, parents in families], 4)
    with mock.patch.object(bayes, "_PASS_CELLS", pass_cells):
        scores = bayes._FamilyScorer(data).score_families(children, member)
    reference = _FullTableCounts(data)
    for (child, parents), score in zip(families, scores.tolist()):
        named = [names[j] for j in parents]
        (counts,) = reference.family_counts([(names[child], named)])
        assert np.count_nonzero(counts) > (128 if len(parents) == 1 else 1024)
        assert score == _reference_local_score(reference, names[child], named), (child, parents)


def test_structure_search_rejects_more_columns_than_its_family_table_takes():
    limit = bayes._MAX_SEARCH_COLUMNS
    columns = [f"c{j:02d}" for j in range(limit + 1)]
    domains = {name: BINARY for name in columns}
    wide = DataSet(columns=columns, domains=domains, codes=np.zeros((2, limit + 1), int))
    with pytest.raises(ValueError, match=f"at most {limit} columns, got {limit + 1}"):
        learn_structure(wide, LearnConfig())
    widest = DataSet(columns=columns[:-1], domains=domains, codes=np.zeros((2, limit), int))
    assert learn_structure(widest, LearnConfig(restarts=1)).edges == frozenset()


def test_fit_cpts_and_bic_score_take_parents_past_column_63():
    # A parent at column 65 has no bit in an int64 mask.
    columns = [f"c{j:02d}" for j in range(70)]
    codes = np.random.default_rng(0).integers(0, 2, size=(40, 70))
    data = DataSet(columns=columns, domains={name: BINARY for name in columns}, codes=codes)
    dag = Dag(nodes=tuple(columns), edges=frozenset({("c65", "c00")}))
    net = fit_cpts(dag, data)
    pairs = codes[:, 65] * 2 + codes[:, 0]
    want = np.bincount(pairs, minlength=4).reshape(2, 2) + 1.0
    assert np.array_equal(net.cpts["c00"].table, want / want.sum(axis=1, keepdims=True))
    reference = _FullTableCounts(data)
    want_score = sum(_reference_local_score(reference, n, dag.parents_of(n)) for n in dag.nodes)
    assert bic_score(dag, data) == want_score


def test_climb_rejects_a_cyclic_start():
    data = _table({"a": np.array([0, 1, 1]), "b": np.array([1, 0, 1])})
    climber = bayes._Climber(bayes._FamilyScorer(data), 2)
    with pytest.raises(ValueError, match="cycle"):
        climber.climb({("a", "b"), ("b", "a")})


def test_class_column_needs_rows_for_both_labels():
    data = _table({"ID": np.zeros(10, dtype=int), "a": np.zeros(10, dtype=int)})
    with pytest.raises(ValueError, match="ID2"):
        learn_structure(data, LearnConfig())


def test_learn_config_validates_its_knobs():
    with pytest.raises(ValueError, match="max_parents"):
        LearnConfig(max_parents=0)
    with pytest.raises(ValueError, match="smoothing"):
        LearnConfig(smoothing=0.0)
    with pytest.raises(ValueError, match="restarts"):
        LearnConfig(restarts=-1)


def test_structure_search_rejects_a_negative_seed():
    data = _table({"ID": np.tile([0, 1], 4), "a": np.tile([0, 1], 4)})
    with pytest.raises(ValueError, match="^seed: -1 is below the minimum 0$"):
        learn_structure(data, LearnConfig(), seed=-1)


# --- CPT estimation -----------------------------------------------------------------

def test_laplace_smoothing_examples():
    # 30 occurred against 70 absent with alpha 1 smooths to 31/102.
    bits = np.array([0] * 30 + [1] * 70)
    data = _table({"a": bits})
    net = fit_cpts(Dag(nodes=("a",), edges=frozenset()), data, alpha=1.0)
    assert net.cpts["a"].table[0, 0] == pytest.approx(31 / 102)

    # A parent assignment never seen in the data gets the uniform row.
    tiny = _table({"a": np.array([0, 0]), "c": np.array([0, 0])})
    net = fit_cpts(
        Dag(nodes=("a", "c"), edges=frozenset({("c", "a")})), tiny, alpha=1.0
    )
    unseen = net.cpts["a"].table[1]  # row for c = absent
    assert unseen == pytest.approx([0.5, 0.5])


def test_smoothing_must_be_positive():
    data = _table({"a": np.array([0, 1])})
    with pytest.raises(ValueError, match="smoothing"):
        fit_cpts(Dag(nodes=("a",), edges=frozenset()), data, alpha=0.0)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=4, max_value=60),
    alpha=st.floats(min_value=0.1, max_value=5.0),
)
def test_fitted_rows_normalize_and_stay_positive(seed, n, alpha):
    rng = np.random.default_rng(seed)
    data = _table(
        {
            "a": rng.integers(0, 2, size=n),
            "b": rng.integers(0, 2, size=n),
            "c": rng.integers(0, 2, size=n),
        }
    )
    net = fit_cpts(
        Dag(nodes=data.columns, edges=frozenset({("a", "b"), ("c", "b")})),
        data,
        alpha=alpha,
    )
    for cpt in net.cpts.values():
        sums = cpt.table.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-9)
        assert np.all(cpt.table > 0.0)


def test_cpt_and_net_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        Cpt(node="a", parents=(), table=np.array([[0.5, 0.6]]))
    with pytest.raises(ValueError, match="2-dimensional"):
        Cpt(node="a", parents=(), table=np.array([0.5, 0.5]))
    dag = Dag(nodes=("a", "b"), edges=frozenset({("a", "b")}))
    good_a = Cpt(node="a", parents=(), table=np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError, match="disagree"):
        BayesNet(
            dag=dag,
            cpts={"a": good_a, "b": Cpt(node="b", parents=(), table=np.array([[1.0, 0.0]]))},
            domains={"a": BINARY, "b": BINARY},
        )
    with pytest.raises(ValueError, match="shape"):
        BayesNet(
            dag=dag,
            cpts={
                "a": good_a,
                "b": Cpt(node="b", parents=("a",), table=np.array([[1.0, 0.0]])),
            },
            domains={"a": BINARY, "b": BINARY},
        )


def test_a_cpt_keeps_a_read_only_copy_of_its_table():
    source = np.array([[0.5, 0.5], [0.25, 0.75]])
    cpt = Cpt(node="a", parents=("b",), table=source)
    source[0, 0] = 7.0  # a write to the caller's array does not reach the CPT
    assert cpt.table.tolist() == [[0.5, 0.5], [0.25, 0.75]]
    with pytest.raises(ValueError, match="read-only"):
        cpt.table[0, 0] = 7.0
    assert cpt.table.sum(axis=1).tolist() == [1.0, 1.0]
    for clone in (pickle.loads(pickle.dumps(cpt)), copy.copy(cpt), copy.deepcopy(cpt)):
        assert clone == cpt
        assert not clone.table.flags.writeable


# --- inference -----------------------------------------------------------------------

def test_isolated_class_node_keeps_its_prior():
    net = _net(
        nodes=("ID", "a"),
        edges=set(),
        cpts={"ID": [[0.5, 0.5]], "a": [[0.3, 0.7]]},
    )
    posterior = class_posterior(net, {"a": OCCURRED})
    assert posterior == {"ID1": 0.5, "ID2": 0.5}
    # An exact tie classifies as the earlier class value.
    assert classify(net, {"a": ABSENT}) == "ID1"


def test_single_informative_attribute_follows_bayes_rule():
    net = _net(
        nodes=("ID", "a"),
        edges={("ID", "a")},
        cpts={"ID": [[0.5, 0.5]], "a": [[0.9, 0.1], [0.1, 0.9]]},
    )
    posterior = class_posterior(net, {"a": OCCURRED})
    assert posterior["ID1"] == pytest.approx(0.9, abs=1e-12)
    assert posterior["ID2"] == pytest.approx(0.1, abs=1e-12)
    assert classify(net, {"a": OCCURRED}) == "ID1"
    assert classify(net, {"a": ABSENT}) == "ID2"


def test_posterior_rejects_malformed_evidence():
    net = _net(
        nodes=("ID", "a", "b"),
        edges={("ID", "a")},
        cpts={
            "ID": [[0.5, 0.5]],
            "a": [[0.9, 0.1], [0.1, 0.9]],
            "b": [[0.5, 0.5]],
        },
    )
    with pytest.raises(ValueError, match="missing"):
        class_posterior(net, {"a": OCCURRED})
    with pytest.raises(ValueError, match="extra"):
        class_posterior(net, {"a": OCCURRED, "b": ABSENT, "z": OCCURRED})
    with pytest.raises(ValueError, match="not in domain"):
        class_posterior(net, {"a": "sideways", "b": ABSENT})
    headless = _net(nodes=("a", "b"), edges=set(), cpts={"a": [[0.9, 0.1]], "b": [[0.5, 0.5]]})
    with pytest.raises(ValueError, match="no class node 'ID'"):
        class_posterior(headless, {"a": OCCURRED, "b": ABSENT})


def test_impossible_evidence_is_an_error():
    net = _net(
        nodes=("ID", "a"),
        edges={("ID", "a")},
        cpts={"ID": [[0.5, 0.5]], "a": [[0.0, 1.0], [0.0, 1.0]]},
    )
    with pytest.raises(ValueError, match="zero probability"):
        class_posterior(net, {"a": OCCURRED})


def test_posterior_matches_enumeration_on_a_small_handmade_net():
    rng = np.random.default_rng(16)
    payload = oracles.random_net_payload(rng, 5)
    net = bayesnet_from_json(__import__("json").dumps(payload))
    row = oracles.random_evidence(rng, payload)
    want = oracles.posterior_by_enumeration(payload, row)
    got = class_posterior(net, row)
    for value in want:
        assert got[value] == pytest.approx(want[value], abs=1e-9)


def _row_index(net, cpt, assignment) -> int:
    index = 0
    for parent in cpt.parents:
        domain = net.domains[parent]
        index = index * len(domain) + domain.index(assignment[parent])
    return index


def _log_joint(net, assignment) -> float:
    """The string-keyed log joint ``class_posterior`` used before it read codes."""
    total = 0.0
    for node in net.dag.nodes:
        cpt = net.cpts[node]
        row = _row_index(net, cpt, assignment)
        p = cpt.table[row, net.domains[node].index(assignment[node])]
        if p == 0.0:
            return -math.inf
        total += math.log(p)
    return total


def _reference_posterior(net, row, class_node="ID") -> dict[str, float]:
    log_scores = [_log_joint(net, {**row, class_node: v}) for v in net.domains[class_node]]
    peak = max(log_scores)
    if peak == -math.inf:
        raise ValueError("row has zero probability under every class value")
    weights = [math.exp(s - peak) for s in log_scores]
    total = sum(weights)
    return {value: w / total for value, w in zip(net.domains[class_node], weights)}


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_class_posterior_equals_the_string_log_joint_reference(seed):
    rng = np.random.default_rng(seed)
    payload = oracles.random_net_payload(rng, int(rng.integers(2, 9)))
    # Some CPT rows put all their mass on one value, so that zero entries
    # make -inf terms and some rows have zero probability under every class.
    for entry in payload["cpts"].values():
        for key in entry["rows"]:
            if rng.random() < 0.2:
                entry["rows"][key] = [1.0, 0.0] if rng.random() < 0.5 else [0.0, 1.0]
    net = bayesnet_from_json(json.dumps(payload))
    for _ in range(8):
        row = oracles.random_evidence(rng, payload)
        try:
            want = _reference_posterior(net, row)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                class_posterior(net, row)
            continue
        assert class_posterior(net, row) == want


# --- accuracy ---------------------------------------------------------------------------

def test_identical_conditionals_score_chance_on_a_balanced_set():
    rng = np.random.default_rng(17)
    n = 1_000
    data = _table(
        {
            "ID": np.tile([0, 1], n // 2),
            "a": rng.integers(0, 2, size=n),
            "b": rng.integers(0, 2, size=n),
        }
    )
    net = _net(
        nodes=("ID", "a", "b"),
        edges=set(),
        cpts={"ID": [[0.5, 0.5]], "a": [[0.4, 0.6]], "b": [[0.7, 0.3]]},
    )
    # Every row ties and ties go to ID1, so a balanced set scores exactly
    # 0.5; the 3-sigma band is the documented bound.
    acc = accuracy(net, data)
    assert abs(acc - 0.5) <= 3 * 0.5 / math.sqrt(n)
    assert acc == 0.5


def test_perfectly_informative_attribute_scores_one():
    rng = np.random.default_rng(18)
    n = 200
    label = np.tile([0, 1], n // 2)
    data = _table(
        {"ID": label, "a": label.copy(), "b": rng.integers(0, 2, size=n)}
    )
    dag = learn_structure(data, LearnConfig())
    net = fit_cpts(dag, data)
    assert accuracy(net, data) == 1.0


@pytest.mark.parametrize("uniform", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_accuracy_is_the_per_row_classify_hit_fraction(seed, uniform):
    rng = np.random.default_rng(500 + seed)
    payload = oracles.random_net_payload(rng, int(rng.integers(2, 8)))
    if uniform:
        # Every row is an exact tie between the two classes.
        for entry in payload["cpts"].values():
            entry["rows"] = {key: [0.5, 0.5] for key in entry["rows"]}
    net = bayesnet_from_json(json.dumps(payload))
    # A small pool drawn with replacement gives many duplicate rows, some
    # with both labels; columns come in an order other than the net's.
    pool = [oracles.random_evidence(rng, payload) for _ in range(6)]
    columns = tuple(payload["nodes"][i] for i in rng.permutation(len(payload["nodes"])))
    rows = []
    for _ in range(int(rng.integers(1, 60))):
        row = dict(pool[int(rng.integers(len(pool)))], ID=CLASSES[int(rng.integers(2))])
        rows.append(tuple(row[c] for c in columns))
    test = DataSet(columns=columns, domains=net.domains, rows=tuple(rows))
    assert accuracy(net, test) == _per_row_hit_fraction(net, test)


def _per_row_hit_fraction(net, test) -> float:
    hits = 0
    for cells in test.rows:
        row = dict(zip(test.columns, cells))
        label = row.pop("ID")
        hits += classify(net, row) == label
    return hits / test.n_rows


@pytest.mark.parametrize("seed", range(6))
def test_accuracy_maps_codes_through_the_value_strings(seed):
    rng = np.random.default_rng(600 + seed)
    payload = oracles.random_net_payload(rng, int(rng.integers(2, 8)))
    net = bayesnet_from_json(json.dumps(payload))
    # The test table lists every domain, the class domain included, in
    # another order than the net does. One attribute domain also declares
    # a value no row holds, and some rows carry a label the net lacks.
    labels = ("ID3",) + CLASSES[::-1]
    domains = {n: labels if n == "ID" else values[::-1] for n, values in net.domains.items()}
    spare = payload["nodes"][-1]
    domains[spare] += ("unused",)
    pool = [oracles.random_evidence(rng, payload) for _ in range(6)]
    columns = tuple(payload["nodes"][i] for i in rng.permutation(len(payload["nodes"])))
    rows = []
    for _ in range(int(rng.integers(1, 60))):
        row = dict(pool[int(rng.integers(len(pool)))], ID=labels[int(rng.integers(3))])
        rows.append(tuple(row[c] for c in columns))
    test = DataSet(columns=columns, domains=domains, rows=tuple(rows))
    assert accuracy(net, test) == _per_row_hit_fraction(net, test)


def test_accuracy_raises_what_classify_raises():
    net = _net(
        nodes=("ID", "a", "b"),
        edges={("ID", "a")},
        cpts={"ID": [[0.5, 0.5]], "a": [[1.0, 0.0], [1.0, 0.0]], "b": [[0.5, 0.5]]},
    )
    wide = {"ID": CLASSES, "a": BINARY + ("sideways",), "b": BINARY, "z": BINARY}
    cases = [
        # A value outside the net's domain.
        (("a", "b", "ID"), [(OCCURRED, ABSENT, "ID1"), ("sideways", ABSENT, "ID2")]),
        # A row with zero probability under every class value.
        (("a", "b", "ID"), [(OCCURRED, ABSENT, "ID1"), (ABSENT, ABSENT, "ID2")]),
        # A column the net does not have, and one it has but the table lacks.
        (("a", "z", "ID"), [(OCCURRED, ABSENT, "ID1")]),
    ]
    for columns, rows in cases:
        test = DataSet(columns=columns, domains=wide, rows=rows)
        with pytest.raises(ValueError) as want:
            _per_row_hit_fraction(net, test)
        with pytest.raises(ValueError) as got:
            accuracy(net, test)
        assert str(got.value) == str(want.value), columns


def test_accuracy_needs_rows_and_a_class_column():
    net = _net(nodes=("ID",), edges=set(), cpts={"ID": [[0.5, 0.5]]})
    empty = DataSet(columns=("ID",), domains={"ID": CLASSES}, rows=())
    with pytest.raises(ValueError, match="empty"):
        accuracy(net, empty)
    unlabeled = DataSet(
        columns=("a",), domains={"a": BINARY}, rows=((OCCURRED,), (ABSENT,))
    )
    with pytest.raises(ValueError, match="no such column"):
        accuracy(net, unlabeled)


# --- persistence --------------------------------------------------------------------------

def test_bayesnet_json_round_trip_is_canonical(tmp_path):
    rng = np.random.default_rng(19)
    data = _table(
        {
            "ID": np.tile([0, 1], 50),
            "a": rng.integers(0, 2, size=100),
            "b": rng.integers(0, 2, size=100),
        }
    )
    net = fit_cpts(
        Dag(nodes=data.columns, edges=frozenset({("ID", "a"), ("b", "a")})), data
    )
    text = bayesnet_to_json(net)
    again = bayesnet_from_json(text)
    assert bayesnet_to_json(again) == text
    assert again.dag == net.dag
    assert again.domains == net.domains
    for node in net.dag.nodes:
        assert np.allclose(again.cpts[node].table, net.cpts[node].table, atol=0)

    path = tmp_path / "network.json"
    write_bayesnet(net, path)
    assert bayesnet_to_json(read_bayesnet(path)) == text


def test_bayesnet_json_round_trip_keeps_parent_values_holding_commas():
    rng = np.random.default_rng(23)
    data = DataSet(
        columns=("p", "q", "c"),
        domains={"p": ("x,y", "z"), "q": ("u", "v,w"), "c": BINARY},
        codes=rng.integers(0, 2, size=(60, 3)),
    )
    net = fit_cpts(Dag(nodes=data.columns, edges=frozenset({("p", "c"), ("q", "c")})), data)
    again = bayesnet_from_json(bayesnet_to_json(net))
    assert again.domains == net.domains
    for node in net.dag.nodes:
        assert again.cpts[node].table.tolist() == net.cpts[node].table.tolist()


def test_bayesnet_json_rejects_parent_values_whose_joined_keys_collide():
    # ("a,b", "c") and ("a", "b,c") both join to "a,b,c": 4 rows, 3 keys.
    data = DataSet(
        columns=("p", "q", "c"),
        domains={"p": ("a,b", "a"), "q": ("c", "b,c"), "c": BINARY},
        codes=np.random.default_rng(5).integers(0, 2, size=(40, 3)),
    )
    net = fit_cpts(Dag(nodes=data.columns, edges=frozenset({("p", "c"), ("q", "c")})), data)
    with pytest.raises(ValueError, match="^c: "):
        bayesnet_to_json(net)


def _small_net_payload() -> dict:
    data = DataSet(
        columns=("a", "c"),
        domains={"a": ("x", "y"), "c": BINARY},
        codes=np.random.default_rng(3).integers(0, 2, size=(40, 2)),
    )
    net = fit_cpts(Dag(nodes=data.columns, edges=frozenset({("a", "c")})), data)
    return json.loads(bayesnet_to_json(net))


def _set(payload: dict, path: tuple, value) -> dict:
    *sections, key = path
    target = payload
    for section in sections:
        target = target[section]
    target[key] = value
    return payload


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("cpts", "a", "rows", "", 0), "0.5", "a: CPT entry: expected a number, got '0.5'"),
        (("cpts", "c", "rows", "y", 1), True, "c: CPT entry: expected a number, got True"),
        (("domains", "a"), "xy", "a: domain: expected a list of strings, got 'xy'"),
        (("cpts", "c", "parents"), "a", "c: parents: expected a list of strings, got 'a'"),
        (("nodes",), ["a", 3], "nodes: expected a list of strings, got ['a', 3]"),
        (("edges", 0), "ac", "edge: expected a list of strings, got 'ac'"),
        (
            ("edges", 0),
            ["a", "c", "x"],
            "edge: expected a [parent, child] pair, got ['a', 'c', 'x']",
        ),
        (("edges", 0), ["a"], "edge: expected a [parent, child] pair, got ['a']"),
        (("edges", 0), [], "edge: expected a [parent, child] pair, got []"),
        (("domains", "c"), ["0", "0"], "domain of 'c' lists '0' twice"),
    ],
)
def test_bayesnet_json_reads_only_numbers_and_lists_of_strings(path, value, message):
    # "0.5" and true read as 0.5 and 1.0, the domain "xy" as ("x", "y") and
    # the edge "ac" as a -> c.
    text = json.dumps(_set(_small_net_payload(), path, value))
    with pytest.raises(ValueError) as err:
        bayesnet_from_json(text)
    assert str(err.value) == message


def test_family_counts_over_many_passes_match_a_direct_count_per_family():
    # 2,000 distinct rows put about four families in a pass, and each pass
    # multiplies only the columns its own families use.
    rng = np.random.default_rng(11)
    columns = tuple(f"c{i:02d}" for i in range(70))
    domains = {c: BINARY for c in columns}
    data = DataSet(columns=columns, domains=domains, codes=rng.integers(0, 2, (2000, 70)))
    families = [(columns[0], ())] + [(columns[i], (columns[i - 1],)) for i in range(1, 70)]
    for node in rng.choice(columns, 10).tolist():
        others = [c for c in columns if c != node]
        families.append((node, rng.choice(others, 3, replace=False).tolist()))
    scorer = bayes._FamilyScorer(data)
    widths = []
    count = scorer._count

    def spy(strides, cells, codes):
        widths.append(codes.shape[1])
        return count(strides, cells, codes)

    with mock.patch.object(scorer, "_count", spy):
        got = scorer.family_counts(families)
    assert len(widths) > 1 and max(widths) < len(columns)
    assert len(got) == len(families)
    for (node, parents), counts in zip(families, got):
        assert np.array_equal(counts, _reference_family_counts(data, node, sorted(parents)))
