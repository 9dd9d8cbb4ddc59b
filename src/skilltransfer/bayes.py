"""Discrete Bayesian network learning and exact class inference.

Structure search is greedy hill climbing over single-edge moves (add,
delete, reverse) scored by the decomposable BIC criterion, with random
restarts. BIC is a sum of per-family local scores, so a move's score
delta reads only the families it touches: the scorer caches local
scores per (node, parent set), and the climber caches each move's delta
until a step changes one of the families it reads. A step changes one
family (add, delete) or two (reverse), so only those are scored again.
Acyclicity is tested against one descendant bitmask per node, recomputed
once per step, instead of a graph search per candidate move. Moves are
scanned in a fixed order, adds by column then deletes and reverses by
edge name, and an exact tie goes to the first, so the learned graph does
not depend on how the deltas were cached. Inference is exact: a
classification query instantiates every attribute, so the class
posterior is the factorized joint evaluated once per class value and
normalized in log space.

Learning, scoring and :func:`accuracy` read a table's distinct integer
code rows, each with its count: family counts are the exact integers of
the full table, and each distinct test row is classified once, on codes.
Variables are named by strings; :func:`class_posterior`, :func:`classify`
and the JSON form take value strings, the edges where rows come and go.
"""

from __future__ import annotations

import json
import math
from bisect import insort
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from itertools import product
from pathlib import Path

import numpy as np

from .behavior_data import CLASS_COLUMN, DataSet
from .seeds import derive_rng

_IMPROVEMENT_EPS = 1e-9


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph over named nodes.

    Edges are (parent, child) pairs. Construction fails on unknown
    endpoints, self loops, duplicate nodes, or cycles.
    """

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node names")
        known = set(self.nodes)
        for parent, child in self.edges:
            if parent not in known or child not in known:
                raise ValueError(f"edge ({parent}, {child}) references unknown node")
            if parent == child:
                raise ValueError(f"self loop on {child}")
        try:
            TopologicalSorter({n: self.parents_of(n) for n in self.nodes}).prepare()
        except CycleError:
            raise ValueError("graph contains a cycle") from None

    def parents_of(self, node: str) -> tuple[str, ...]:
        self._check(node)
        return tuple(sorted(p for p, c in self.edges if c == node))

    def children_of(self, node: str) -> tuple[str, ...]:
        self._check(node)
        return tuple(sorted(c for p, c in self.edges if p == node))

    def _check(self, node: str) -> None:
        if node not in self.nodes:
            raise ValueError(f"no such node: {node!r}")


def markov_blanket(dag: Dag, node: str) -> frozenset[str]:
    """Parents, children, and the children's other parents of ``node``."""
    dag._check(node)
    blanket = set(dag.parents_of(node)) | set(dag.children_of(node))
    for child in dag.children_of(node):
        blanket.update(dag.parents_of(child))
    blanket.discard(node)
    return frozenset(blanket)


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table for one node.

    ``table`` has one row per parent assignment (mixed-radix order, first
    parent most significant) and one column per node value. Every row
    sums to one.
    """

    node: str
    parents: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=float)
        object.__setattr__(self, "table", table)
        if table.ndim != 2:
            raise ValueError(f"{self.node}: CPT must be 2-dimensional")
        sums = table.sum(axis=1)
        if not np.all(np.abs(sums - 1.0) <= 1e-9):
            raise ValueError(f"{self.node}: CPT rows must sum to 1")
        if np.any(table < 0):
            raise ValueError(f"{self.node}: negative probability")


@dataclass(frozen=True)
class BayesNet:
    """A Dag plus one CPT per node over declared value domains."""

    dag: Dag
    cpts: dict[str, Cpt]
    domains: dict[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        for node in self.dag.nodes:
            if node not in self.domains:
                raise ValueError(f"no domain for node {node!r}")
            if node not in self.cpts:
                raise ValueError(f"no CPT for node {node!r}")
            cpt = self.cpts[node]
            if cpt.parents != self.dag.parents_of(node):
                raise ValueError(f"{node}: CPT parents disagree with graph")
            expected_rows = 1
            for parent in cpt.parents:
                expected_rows *= len(self.domains[parent])
            if cpt.table.shape != (expected_rows, len(self.domains[node])):
                raise ValueError(
                    f"{node}: CPT shape {cpt.table.shape}, expected "
                    f"({expected_rows}, {len(self.domains[node])})"
                )


@dataclass(frozen=True)
class LearnConfig:
    """Knobs for structure search and CPT estimation."""

    max_parents: int = 3
    smoothing: float = 1.0
    restarts: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_parents < 1:
            raise ValueError(f"max_parents must be >= 1, got {self.max_parents}")
        if not self.smoothing > 0.0:
            raise ValueError(f"smoothing must be > 0, got {self.smoothing}")
        if self.restarts < 0:
            raise ValueError(f"restarts must be >= 0, got {self.restarts}")


class _FamilyScorer:
    """Cached per-family BIC scores over one dataset.

    The BIC local score of node X with parents U is the maximized
    multinomial log likelihood of X given U minus
    0.5 * ln(N) * |U configurations| * (|X| - 1).

    Nodes are indices into :attr:`variables` and a parent set is a bitmask
    over them; the one cache is keyed by ``(node index, parent mask)``.
    Counts sum the table's distinct code rows weighted by their copies.
    """

    def __init__(self, data: DataSet, nodes: Sequence[str] = ()):
        if data.n_rows == 0:
            raise ValueError("cannot score an empty dataset")
        missing = [n for n in nodes if n not in data.columns]
        if missing:
            raise ValueError(f"dataset lacks columns for nodes: {missing}")
        self.variables = data.columns
        self.index = {name: i for i, name in enumerate(data.columns)}
        self.cards = np.array([len(data.domains[c]) for c in data.columns], dtype=np.int64)
        rows, self.copies = data._distinct_rows()
        # Widened once, because family indices overflow int8 arithmetic,
        # and stored column by column, because a family reads whole columns.
        self.codes = rows.astype(np.int64, order="F")
        self.n = data.n_rows
        self._log_n = math.log(self.n)
        self._name_order = sorted(range(len(self.variables)), key=self.variables.__getitem__)
        self._cache: dict[tuple[int, int], float] = {}

    def family_counts(self, node: str, parents: Sequence[str]) -> np.ndarray:
        """Count matrix with one row per parent assignment."""
        return self._counts(self.index[node], [self.index[p] for p in parents])

    def _counts(self, child: int, parents: Sequence[int]) -> np.ndarray:
        r = int(self.cards[child])
        idx = self.codes[:, child].copy()
        stride = r
        for j in reversed(parents):
            idx += self.codes[:, j] * stride
            stride *= int(self.cards[j])
        # The sums are integers below 2**53, so the float cells are exact.
        counts = np.bincount(idx, weights=self.copies, minlength=stride).astype(np.int64)
        return counts.reshape(stride // r, r)

    def local_score(self, node: str, parents: Sequence[str]) -> float:
        mask = 0
        for parent in parents:
            mask |= 1 << self.index[parent]
        return self.family_score(self.index[node], mask)

    def family_score(self, child: int, parents: int) -> float:
        """Local score of node ``child`` with the parent bitmask ``parents``."""
        key = (child, parents)
        score = self._cache.get(key)
        if score is not None:
            return score
        # Parents in name order fix the count layout, and with it the
        # float summation order, so that a family has one score whatever
        # the order in which a caller names its parents.
        counts = self._counts(child, [j for j in self._name_order if parents >> j & 1])
        q, r = counts.shape
        # The nonzero cells and their row totals, in row-major order.
        at = np.flatnonzero(counts)
        seen = counts.ravel()[at]
        totals = counts.sum(axis=1)[at // r]
        log_likelihood = float((seen * (np.log(seen) - np.log(totals))).sum())
        penalty = 0.5 * self._log_n * q * (r - 1)
        score = log_likelihood - penalty
        self._cache[key] = score
        return score


def bic_score(dag: Dag, data: DataSet) -> float:
    """Network BIC score; higher is better. Decomposes over families."""
    scorer = _FamilyScorer(data, dag.nodes)
    return sum(scorer.local_score(n, dag.parents_of(n)) for n in dag.nodes)


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _descendants(children: list[int]) -> list[int]:
    """Descendant bitmask of each node of a DAG given by child bitmasks."""
    desc = [0] * len(children)
    pending = (1 << len(children)) - 1
    # A node's mask is final once its children's are; on a DAG each pass
    # over the pending nodes settles at least one of them.
    while pending:
        before = pending
        for x in _bits(pending):
            if not children[x] & pending:
                reach = children[x]
                for c in _bits(children[x]):
                    reach |= desc[c]
                desc[x] = reach
                pending ^= 1 << x
        if pending == before:
            raise ValueError("graph contains a cycle")
    return desc


class _Climber:
    """One greedy ascent from a starting edge set.

    Nodes are indices into ``scorer.variables`` and ``parents[v]`` is the
    bitmask of v's parents. Each step takes the best legal move if its
    score delta beats ``_IMPROVEMENT_EPS``. Exact ties go to the first
    move in a fixed order: adds u -> v by (u, v) in variable order, then
    deletes, then reverses, both over the edges sorted by name.

    Deltas are cached per family. ``toggle[v][u]`` is the delta of adding
    or deleting u -> v and lives until ``parents[v]`` changes;
    ``flip[(u, v)]`` is the delta of reversing u -> v and lives until
    ``parents[u]`` or ``parents[v]`` changes. A delta is computed the
    first time a scan finds its move legal, so the scorer sees only the
    families a full rescan would score, and after a step only the one or
    two families the step changed are scored again.

    The cycle test reads one descendant bitmask per node, recomputed once
    per step: adding u -> v is legal unless u is v or a descendant of v,
    and reversing u -> v is legal unless v is a descendant of another
    child of u.
    """

    def __init__(self, scorer: _FamilyScorer, max_parents: int):
        self.scorer = scorer
        self.max_parents = max_parents
        self.nodes = scorer.variables

    def _edge_name(self, edge: tuple[int, int]) -> tuple[str, str]:
        return self.nodes[edge[0]], self.nodes[edge[1]]

    def climb(self, edges: set[tuple[str, str]]) -> tuple[frozenset[tuple[str, str]], float]:
        family = self.scorer.family_score
        index = self.scorer.index
        n = len(self.nodes)
        parents = [0] * n
        children = [0] * n
        for p, c in edges:
            parents[index[c]] |= 1 << index[p]
            children[index[p]] |= 1 << index[c]
        current = [family(v, parents[v]) for v in range(n)]
        score = sum(current)
        listed = sorted(((index[p], index[c]) for p, c in edges), key=self._edge_name)
        toggle: list[dict[int, float]] = [{} for _ in range(n)]
        flip: dict[tuple[int, int], float] = {}
        while True:
            move = self._best_move(parents, children, current, listed, toggle, flip)
            if move is None:
                return frozenset(map(self._edge_name, listed)), score
            reverse, u, v, delta = move
            if parents[v] >> u & 1:
                listed.remove((u, v))
            else:
                insort(listed, (u, v), key=self._edge_name)
            parents[v] ^= 1 << u
            children[u] ^= 1 << v
            changed = (u, v) if reverse else (v,)
            if reverse:
                insort(listed, (v, u), key=self._edge_name)
                parents[u] |= 1 << v
                children[v] |= 1 << u
            for x in changed:
                current[x] = family(x, parents[x])
                toggle[x] = {}
            flip = {e: d for e, d in flip.items() if e[0] not in changed and e[1] not in changed}
            score += delta

    def _best_move(
        self,
        parents: list[int],
        children: list[int],
        current: list[float],
        listed: list[tuple[int, int]],
        toggle: list[dict[int, float]],
        flip: dict[tuple[int, int], float],
    ) -> tuple[bool, int, int, float] | None:
        """The best move as (is a reverse, u, v, delta), or None."""
        family = self.scorer.family_score
        n = len(parents)
        desc = _descendants(children)
        full = (1 << n) - 1
        # closed[v]: the u for which adding u -> v is not legal.
        closed = [
            parents[v] | desc[v] | 1 << v if parents[v].bit_count() < self.max_parents else full
            for v in range(n)
        ]
        best: tuple[bool, int, int, float] | None = None
        best_delta = _IMPROVEMENT_EPS

        for u in range(n):
            for v in range(n):
                if closed[v] >> u & 1:
                    continue
                delta = toggle[v].get(u)
                if delta is None:
                    delta = toggle[v][u] = family(v, parents[v] | 1 << u) - current[v]
                if delta > best_delta:
                    best, best_delta = (False, u, v, delta), delta

        for u, v in listed:
            delta = toggle[v].get(u)
            if delta is None:
                delta = toggle[v][u] = family(v, parents[v] ^ 1 << u) - current[v]
            if delta > best_delta:
                best, best_delta = (False, u, v, delta), delta

        for u, v in listed:
            if parents[u].bit_count() >= self.max_parents:
                continue
            if any(desc[c] >> v & 1 for c in _bits(children[u] & ~(1 << v))):
                continue
            delta = flip.get((u, v))
            if delta is None:
                # The delete delta of u -> v, already cached by the scan
                # above; the sum keeps the order (a - b) + c - d.
                delta = flip[(u, v)] = (
                    toggle[v][u] + family(u, parents[u] | 1 << v) - current[u]
                )
            if delta > best_delta:
                best, best_delta = (True, u, v, delta), delta

        return best


def _random_start(
    nodes: tuple[str, ...], max_parents: int, rng: np.random.Generator
) -> set[tuple[str, str]]:
    """A random DAG: random topological order, random sparse parent sets."""
    order = [nodes[i] for i in rng.permutation(len(nodes))]
    edges: set[tuple[str, str]] = set()
    for position, child in enumerate(order):
        if position == 0:
            continue
        k = int(rng.integers(0, min(position, max_parents) + 1))
        if k == 0:
            continue
        picks = rng.choice(position, size=k, replace=False)
        edges.update((order[int(p)], child) for p in picks)
    return edges


def learn_structure(data: DataSet, config: LearnConfig) -> Dag:
    """Greedy BIC hill climbing with random restarts.

    Restart 0 starts from the empty graph; each further restart starts
    from a random DAG drawn from a stream derived from ``config.seed``.
    The best-scoring result wins; exact ties go to the lexicographically
    smallest edge set. Deterministic for identical inputs.
    """
    scorer = _FamilyScorer(data)
    if CLASS_COLUMN in scorer.index:
        sizes = scorer.family_counts(CLASS_COLUMN, ())[0]
        for label, size in zip(data.domains[CLASS_COLUMN], sizes):
            if size < 2:
                raise ValueError(f"class {label!r} has fewer than 2 rows")
    climber = _Climber(scorer, config.max_parents)

    best_edges: frozenset[tuple[str, str]] | None = None
    best_key: tuple[float, tuple[tuple[str, str], ...]] | None = None
    for restart in range(config.restarts + 1):
        if restart == 0:
            start: set[tuple[str, str]] = set()
        else:
            start = _random_start(
                scorer.variables, config.max_parents, derive_rng(config.seed, restart)
            )
        edges, score = climber.climb(start)
        key = (-score, tuple(sorted(edges)))
        if best_key is None or key < best_key:
            best_key = key
            best_edges = edges
    assert best_edges is not None
    return Dag(nodes=scorer.variables, edges=best_edges)


def fit_cpts(dag: Dag, data: DataSet, alpha: float = 1.0) -> BayesNet:
    """Estimate all CPTs with additive (Laplace) smoothing ``alpha``."""
    if not alpha > 0.0:
        raise ValueError(f"smoothing must be > 0, got {alpha}")
    scorer = _FamilyScorer(data, dag.nodes)
    cpts: dict[str, Cpt] = {}
    for node in dag.nodes:
        parents = dag.parents_of(node)
        counts = scorer.family_counts(node, parents).astype(float)
        counts += alpha
        table = counts / counts.sum(axis=1, keepdims=True)
        cpts[node] = Cpt(node=node, parents=parents, table=table)
    domains = {n: tuple(data.domains[n]) for n in dag.nodes}
    return BayesNet(dag=dag, cpts=cpts, domains=domains)


def _class_posteriors(net: BayesNet, codes: np.ndarray, class_node: str) -> Iterator[list[float]]:
    """Class posterior of each row of domain positions, one column per ``net.dag.nodes``.

    Log joints add ``math.log`` of one CPT entry per node in node order
    (``-inf`` on a zero entry); a row's own class code is ignored.
    """
    k = len(net.domains[class_node])
    full = np.repeat(codes, k, axis=0)
    full[:, net.dag.nodes.index(class_node)] = np.tile(np.arange(k), len(codes))
    log_joint = np.zeros(len(full))
    for j, node in enumerate(net.dag.nodes):
        cpt = net.cpts[node]
        row = 0
        for parent in cpt.parents:
            row = row * len(net.domains[parent]) + full[:, net.dag.nodes.index(parent)]
        logs = [math.log(p) if p else -math.inf for p in cpt.table.ravel().tolist()]
        log_joint += np.reshape(logs, cpt.table.shape)[row, full[:, j]]
    for log_scores in log_joint.reshape(len(codes), k).tolist():
        peak = max(log_scores)
        if peak == -math.inf:
            raise ValueError("row has zero probability under every class value")
        weights = [math.exp(s - peak) for s in log_scores]
        total = sum(weights)
        yield [w / total for w in weights]


def _check_evidence(net: BayesNet, given: Iterable[str], class_node: str) -> None:
    if class_node not in net.dag.nodes:
        raise ValueError(f"network has no class node {class_node!r}")
    expected, given = set(net.dag.nodes) - {class_node}, set(given)
    if given != expected:
        missing, extra = sorted(expected - given), sorted(given - expected)
        raise ValueError(
            f"row must assign exactly the non-class nodes; missing {missing}, extra {extra}"
        )


def class_posterior(
    net: BayesNet, row: Mapping[str, str], class_node: str = CLASS_COLUMN
) -> dict[str, float]:
    """Exact posterior over the class node given a fully observed row.

    ``row`` must assign every non-class node a value from its domain.
    Joint terms are accumulated in log space and normalized at the end;
    the result sums to one.
    """
    _check_evidence(net, row, class_node)
    for node in row:
        if row[node] not in net.domains[node]:
            raise ValueError(f"{node}: value {row[node]!r} not in domain")
    codes = [0 if n == class_node else net.domains[n].index(row[n]) for n in net.dag.nodes]
    (posterior,) = _class_posteriors(net, np.array([codes]), class_node)
    return dict(zip(net.domains[class_node], posterior))


def classify(
    net: BayesNet, row: Mapping[str, str], class_node: str = CLASS_COLUMN
) -> str:
    """Most probable class value; exact ties go to the earlier domain value."""
    posterior = class_posterior(net, row, class_node)
    # max keeps the first of equal maxima.
    return max(net.domains[class_node], key=posterior.__getitem__)


def accuracy(net: BayesNet, test: DataSet, class_node: str = CLASS_COLUMN) -> float:
    """Fraction of test rows whose class is predicted correctly.

    Each distinct code row is classified once as :func:`classify` would,
    on the net's codes (mapped per column through the value strings), and
    counts one hit per copy when the prediction is its label.
    """
    if test.n_rows == 0:
        raise ValueError("empty test set")
    test.column_index(class_node)  # rejects datasets without the label column
    _check_evidence(net, (c for c in test.columns if c != class_node), class_node)
    rows, copies = test._distinct_rows()
    codes = np.empty((len(rows), len(net.dag.nodes)), dtype=np.int64)
    for j, node in enumerate(net.dag.nodes):
        domain, values = net.domains[node], test.domains[node]
        column = rows[:, test.column_index(node)]
        codes[:, j] = np.array([domain.index(v) if v in domain else -1 for v in values])[column]
        outside = codes[:, j] < 0
        if node != class_node and outside.any():
            raise ValueError(f"{node}: value {values[column[outside.argmax()]]!r} not in domain")
    # index finds the first of equal maxima, as classify's max does.
    predicted = [p.index(max(p)) for p in _class_posteriors(net, codes, class_node)]
    hits = copies[np.array(predicted) == codes[:, net.dag.nodes.index(class_node)]].sum()
    return int(hits) / test.n_rows


# --- persistence ----------------------------------------------------------

def bayesnet_to_json(net: BayesNet) -> str:
    """Canonical JSON text with a lossless round trip."""
    cpts = {}
    for node in net.dag.nodes:
        cpt = net.cpts[node]
        # Parent assignments in row order: the first parent varies slowest.
        assignments = product(*(net.domains[p] for p in cpt.parents))
        rows = {",".join(key): [float(p) for p in row] for key, row in zip(assignments, cpt.table)}
        cpts[node] = {"parents": list(cpt.parents), "rows": rows}
    payload = {
        "nodes": list(net.dag.nodes),
        "edges": sorted([p, c] for p, c in net.dag.edges),
        "domains": {n: list(v) for n, v in net.domains.items()},
        "cpts": cpts,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def bayesnet_from_json(text: str) -> BayesNet:
    payload = json.loads(text)
    nodes = tuple(payload["nodes"])
    dag = Dag(nodes=nodes, edges=frozenset((p, c) for p, c in payload["edges"]))
    domains = {n: tuple(v) for n, v in payload["domains"].items()}
    cpts: dict[str, Cpt] = {}
    for node in nodes:
        entry = payload["cpts"][node]
        parents = tuple(entry["parents"])
        parent_domains = [domains[p] for p in parents]
        table = np.zeros((math.prod(map(len, parent_domains)), len(domains[node])))
        for key, row in entry["rows"].items():
            values = key.split(",") if key else []
            index = 0
            for domain, value in zip(parent_domains, values):
                index = index * len(domain) + domain.index(value)
            table[index] = row
        cpts[node] = Cpt(node=node, parents=parents, table=table)
    return BayesNet(dag=dag, cpts=cpts, domains=domains)


def write_bayesnet(net: BayesNet, path: str | Path) -> None:
    Path(path).write_text(bayesnet_to_json(net), encoding="utf-8")


def read_bayesnet(path: str | Path) -> BayesNet:
    return bayesnet_from_json(Path(path).read_text(encoding="utf-8"))
