"""Discrete Bayesian network learning and exact class inference.

Structure search is greedy hill climbing over single-edge moves (add,
delete, reverse) scored by the decomposable BIC criterion, with random
restarts. The restarts climb in lockstep: each iteration moves every
unfinished one a step, over a stack of boolean adjacency matrices, with
legality from boolean masks and reachability, and deltas read from one
table of family scores, the only store of them. BIC is a sum of
per-family local scores, so a move's delta reads only the families it
touches. Those the table lacks at a step are counted together, across
all children, in one call whose bounded passes each take one float64
product and one ``bincount`` to count and one ``reduceat`` to sum: a
0.0 led before each family's log-likelihood terms makes it add them in
the order of the family's own ``.sum()``, bit for bit. Moves are ranked
in a fixed order, adds by column then deletes and reverses by edge name,
and an exact tie goes to the first, so the learned graph is that of a
sequential scan. Inference is exact: a classification query
instantiates every attribute, so the class posterior is the factorized
joint evaluated once per class value and normalized in log space.

Learning, scoring and :func:`accuracy` read a table's distinct integer
code rows, each with its count: family counts are the exact integers of
the full table, and each distinct test row is classified once, on codes.
Variables are named by strings; :func:`class_posterior`, :func:`classify`
and the JSON form take value strings, the edges where rows come and go.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from itertools import product
from pathlib import Path

import numpy as np

from .behavior_data import CLASS_COLUMN, DataSet, check_distinct_values
from .errors import check_fields, check_range, json_number, json_strings
from .seeds import derive_rng

_IMPROVEMENT_EPS = 1e-9
#: Largest table a structure search takes: its family table has n * 2**n entries.
_MAX_SEARCH_COLUMNS = 16
#: Bound on the row indices plus count cells of one family-counting pass.
_PASS_CELLS = 1 << 13


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
            check_distinct_values(node, self.domains[node])
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

    __post_init__ = check_fields


class _FamilyScorer:
    """Per-family BIC scores over one dataset.

    The BIC local score of node X with parents U is the maximized
    multinomial log likelihood of X given U minus
    0.5 * ln(N) * |U configurations| * (|X| - 1).

    Nodes are indices into :attr:`variables` and a parent set is a 0/1 row
    over them. Counts sum the table's distinct code rows weighted by their copies.
    """

    def __init__(self, data: DataSet, nodes: Sequence[str] = ()):
        if data.n_rows == 0:
            raise ValueError("cannot score an empty dataset")
        missing = [n for n in nodes if n not in data.columns]
        if missing:
            raise ValueError(f"dataset lacks columns for nodes: {missing}")
        self.variables = data.columns
        self.index = {name: i for i, name in enumerate(data.columns)}
        self._cards = np.array([len(data.domains[c]) for c in data.columns], dtype=np.int64)
        # Node indices in name order, and each node's position in that order.
        order = sorted(range(len(data.columns)), key=data.columns.__getitem__)
        self._name_order = np.array(order, dtype=np.int64)
        self._rank = np.argsort(self._name_order)
        self._named_cards = self._cards[self._name_order]
        rows, self.copies = data._distinct_rows()
        # As float64 once, with the columns in name order, the order of a
        # family's strides: :meth:`_count` multiplies them through BLAS.
        self.codes = rows[:, self._name_order].astype(np.float64)
        self.n = data.n_rows
        self._log_n = math.log(self.n)

    def family_counts(self, families: Sequence[tuple[str, Sequence[str]]]) -> list[np.ndarray]:
        """Each (node, parents) family's count matrix, as exact floats.

        A matrix has one row per parent assignment, the parents in name
        order and the first most significant, and one column per node value.
        The families are counted together, in the passes of :meth:`_passes`,
        each over only the columns its families use: a net spans every
        column, and on a wide table one product over all of them would
        pass BLAS's threading cutoff and run slower on two threads than on one.
        """
        children = np.array([self.index[node] for node, _ in families], dtype=np.int64)
        strides, cells = self._layout(children, self._members([ps for _, ps in families]))
        blocks: list[np.ndarray] = []
        for p in self._passes(cells):
            used = strides[p].any(axis=0)
            # A slice where every column is used, as in the one pass of a
            # narrow table's net, so that nothing is copied.
            cols = slice(None) if used.all() else used
            counts = self._count(strides[p][:, cols], cells[p], self.codes[:, cols])
            blocks += np.split(counts, np.cumsum(cells[p])[:-1])
        return [block.reshape(-1, r) for block, r in zip(blocks, self._cards[children].tolist())]

    def _passes(self, cells: np.ndarray) -> Iterator[slice]:
        """Runs of consecutive families to count together, given their count cells.

        A run takes at most ``_PASS_CELLS`` row indices plus count cells,
        unless one family alone needs more.
        """
        start, size = 0, 0
        for f, need in enumerate((cells + len(self.copies)).tolist()):
            if f > start and size + need > _PASS_CELLS:
                yield slice(start, f)
                start, size = f, 0
            size += need
        if len(cells):
            yield slice(start, len(cells))

    def _members(self, parent_sets: Sequence[Sequence[str]]) -> np.ndarray:
        """Each parent set as a 0/1 row over :attr:`variables`."""
        member = np.zeros((len(parent_sets), len(self.variables)), dtype=np.int64)
        for f, parents in enumerate(parent_sets):
            member[f, [self.index[p] for p in parents]] = 1
        return member

    def _layout(self, children: np.ndarray, member: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each family's stride per column of :attr:`codes`, and its count cells.

        A family's cells list its parents in name order, row-major, and the
        child value last: a parent's stride is the child's cardinality times
        the cardinalities of the parents after it, the child's is 1 and every
        other column's 0.
        """
        bits = member[:, self._name_order]
        factors = self._named_cards ** bits
        # suffix[f, k]: the product of family f's factors from column k on.
        suffix = np.multiply.accumulate(factors[:, ::-1], axis=1)[:, ::-1]
        r = self._cards[children]
        strides = bits * (r[:, None] * suffix // factors)
        strides[np.arange(len(children)), self._rank[children]] = 1
        return strides, r * suffix[:, 0]

    def _count(self, strides: np.ndarray, cells: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """The families' count cells, one block after another, as exact floats.

        ``codes`` holds the columns of :attr:`codes` that ``strides`` spans.
        """
        # A float64 product, which numpy hands to BLAS, is exact in any
        # order of addition: the operands are small integers and every cell
        # index is below cells.sum(), the length bincount allocates anyway,
        # so far below 2**53.
        idx = (strides.astype(np.float64) @ codes.T).astype(np.intp)
        idx += (np.cumsum(cells) - cells)[:, None]
        weights = self.copies[None].repeat(len(cells), axis=0).ravel()
        # The sums are integers below 2**53, so the float cells are exact.
        return np.bincount(idx.ravel(), weights=weights, minlength=int(cells.sum()))

    def local_score(self, node: str, parents: Sequence[str]) -> float:
        children = np.array([self.index[node]])
        return float(self.score_families(children, self._members([parents]))[0])

    def score_families(self, children: np.ndarray, member: np.ndarray) -> np.ndarray:
        """Local scores of each family: ``children[f]`` with the parents ``member[f]`` marks.

        All the families are counted together, in passes of at most
        ``_PASS_CELLS`` row indices plus count cells, whichever children
        they belong to. Parents in name order fix a family's count layout,
        and with it the float summation order, so that a family has one
        score whatever the order in which a caller names its parents and
        whatever pass it lands in: its terms, over its own nonzero cells in
        row-major order, add up as their own ``.sum()`` would, in the pass's
        one ``reduceat`` of :func:`_segment_sums`.
        """
        strides, cells = self._layout(children, member)
        r = self._cards[children]
        scores = np.empty(len(children))
        for p in self._passes(cells):
            scores[p] = self._score_pass(strides[p], cells[p], r[p])
        return scores

    def _score_pass(self, strides: np.ndarray, cells: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The scores of the families of one pass, with child cardinalities ``r``."""
        counts = self._count(strides, cells, self.codes)
        ends = np.cumsum(cells)
        # The nonzero cells in row-major order, and the row total of each,
        # found by its (family, parent row) id.
        at = np.flatnonzero(counts)
        seen = counts[at]
        family = np.searchsorted(ends, at, side="right")
        q = cells // r
        row = (np.cumsum(q) - q)[family] + (at - (ends - cells)[family]) // r[family]
        totals = np.bincount(row, weights=seen)[row]
        terms = seen * (np.log(seen) - np.log(totals))
        # No family's run of terms is empty: its counts sum to N > 0.
        log_likelihood = _segment_sums(terms, family, len(cells))
        penalty = 0.5 * self._log_n * q * (r - 1)
        return log_likelihood - penalty


def _segment_sums(values: np.ndarray, segment: np.ndarray, n: int) -> np.ndarray:
    """Each of ``n`` runs of ``values`` summed exactly as its own ``.sum()`` would.

    ``segment`` gives each value's run, nondecreasing, and no run is empty.
    One ``np.add.reduceat`` sums them all: ``.sum()`` adds the run's
    pairwise sum to 0.0, while ``reduceat`` adds the pairwise sum of all but
    the first value to the first, so a 0.0 led before each run makes the two
    the same float operations in the same order.
    """
    runs = np.arange(n)
    led = np.zeros(len(values) + n)
    led[np.arange(len(values)) + segment + 1] = values
    return np.add.reduceat(led, np.searchsorted(segment, runs) + runs)


def bic_score(dag: Dag, data: DataSet) -> float:
    """Network BIC score; higher is better. Decomposes over families."""
    scorer = _FamilyScorer(data, dag.nodes)
    return sum(scorer.local_score(n, dag.parents_of(n)) for n in dag.nodes)


class _Climber:
    """Greedy ascents from many starting edge sets, moved forward in lockstep.

    Nodes are indices into ``scorer.variables``. :meth:`climb_all` keeps
    the unfinished restarts in one ``(restarts, n, n)`` boolean adjacency
    array, ``adj[r, u, v]`` for u -> v, and moves each one step per
    iteration: to its best legal move if the delta beats
    ``_IMPROVEMENT_EPS``, else it is done. Exact ties go to the first move
    in a fixed order: adds u -> v by (u, v) in variable order, then
    deletes, then reverses, both over the edges sorted by name.

    Adding u -> v is legal unless u is v or reachable from v, and
    reversing it unless a path of two or more edges leads from u to v.
    Deltas are read from :attr:`family`, a table of local scores indexed
    by (child, parent bitmask); the families a legal move needs and the
    table lacks are scored in one :meth:`_FamilyScorer.score_families` call
    per step, across all children, so the scorer sees only the families a
    full rescan would score. A toggle delta is ``family - current`` and a
    reverse delta ``(toggle + family) - current``.
    """

    def __init__(self, scorer: _FamilyScorer, max_parents: int):
        n = len(scorer.variables)
        if n > _MAX_SEARCH_COLUMNS:
            raise ValueError(
                f"structure search takes at most {_MAX_SEARCH_COLUMNS} columns, got {n}")
        self.scorer = scorer
        self.max_parents = max_parents
        self.nodes = scorer.variables
        #: Local score of each (child, parent bitmask); NaN until scored.
        self.family = np.full((n, 1 << n), np.nan)
        # The flat (u, v) pair indices, sorted by edge name.
        self._by_name = np.array(
            sorted(range(n * n), key=lambda e: (self.nodes[e // n], self.nodes[e % n]))
        )

    def climb(self, edges: set[tuple[str, str]]) -> tuple[frozenset[tuple[str, str]], float]:
        return self.climb_all([edges])[0]

    def climb_all(
        self, starts: Sequence[set[tuple[str, str]]]
    ) -> list[tuple[frozenset[tuple[str, str]], float]]:
        """The final edges and score of the climb from each start, in start order."""
        n = len(self.nodes)
        index = self.scorer.index
        adj = np.zeros((len(starts), n, n), dtype=bool)
        for r, edges in enumerate(starts):
            for p, c in edges:
                adj[r, index[p], index[c]] = True
        nodes, by_name = np.arange(n), self._by_name
        bit = np.left_shift(1, nodes, dtype=np.int64)
        masks = bit @ adj
        # Added left to right, as sum() over a list does.
        scores = [sum(row) for row in self._scores(masks, np.ones(masks.shape, bool)).tolist()]
        results: list = [None] * len(starts)
        live = np.arange(len(starts))
        while live.size:
            step = adj[live]
            # Repeated squaring: after k squarings ``reach`` holds the paths
            # of 1 to 2**k edges. The last product holds those of 2 to
            # 2**k >= n edges, so it is every path of two or more edges.
            # Each product counts two-hop paths as a float64 product, which
            # numpy hands to BLAS; a count is at most n, so it is exact in
            # any order of addition, and nonzero exactly where a path is.
            reach = step
            for _ in range(max(1, (n - 1).bit_length())):
                hops = reach.astype(np.float64)
                longer = hops @ hops > 0
                reach = step | longer
            if reach[:, nodes, nodes].any():
                raise ValueError("graph contains a cycle")
            masks = bit @ step
            full = step.sum(axis=1) >= self.max_parents
            adds = ~(step | reach.transpose(0, 2, 1) | full[:, None, :])
            adds[:, nodes, nodes] = False
            reverses = step & ~full[:, :, None] & ~longer
            # toggled[r, u, v]: v's parent mask with u added or removed.
            toggled = masks[:, None, :] ^ bit[:, None]
            flipped = self._scores(toggled, adds | step | reverses.transpose(0, 2, 1))
            current = self.family[nodes, masks]
            toggle = flipped - current[:, None, :]
            reverse = (toggle + flipped.transpose(0, 2, 1)) - current[:, :, None]
            # Every move's delta, -inf where it is not legal, in the tie order.
            ranked = [np.where(adds, toggle, -np.inf).reshape(len(live), -1)]
            for legal, gain in ((step, toggle), (reverses, reverse)):
                ranked.append(np.where(legal, gain, -np.inf).reshape(len(live), -1)[:, by_name])
            moves = np.concatenate(ranked, axis=1)
            best = moves.argmax(axis=1)
            delta = moves[np.arange(len(live)), best]
            done = ~(delta > _IMPROVEMENT_EPS)
            for r in live[done].tolist():
                edges = zip(*np.nonzero(adj[r]))
                results[r] = frozenset((self.nodes[u], self.nodes[v]) for u, v in edges), scores[r]
            kind, pair = np.divmod(best[~done], n * n)
            u, v = np.divmod(np.where(kind > 0, by_name[pair], pair), n)
            moved, flip = live[~done], kind == 2
            adj[moved, u, v] ^= True
            adj[moved[flip], v[flip], u[flip]] = True
            for r, d in zip(moved.tolist(), delta[~done].tolist()):
                scores[r] += d
            live = moved
        return results

    def _scores(self, masks: np.ndarray, need: np.ndarray) -> np.ndarray:
        """``family[v, masks[..., v]]``, scoring first the ``need``ed ones it lacks."""
        nodes = np.arange(masks.shape[-1])
        got = self.family[nodes, masks]
        lacking = need & np.isnan(got)
        if lacking.any():
            width = self.family.shape[1]
            # return_index keeps numpy.ma unimported.
            keys = np.unique((nodes * width + masks)[lacking], return_index=True)[0]
            children, group = np.divmod(keys, width)
            member = group[:, None] >> nodes & 1
            self.family[children, group] = self.scorer.score_families(children, member)
            got = self.family[nodes, masks]
        return got


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


def learn_structure(data: DataSet, config: LearnConfig, seed: int = 0) -> Dag:
    """Greedy BIC hill climbing with random restarts.

    Restart 0 starts from the empty graph; each further restart starts
    from a random DAG drawn from a stream derived from ``seed``. The
    best-scoring result wins; exact ties go to the lexicographically
    smallest edge set. Deterministic for identical inputs.
    """
    check_range("seed", seed)
    scorer = _FamilyScorer(data)
    if CLASS_COLUMN in scorer.index:
        (sizes,) = scorer.family_counts([(CLASS_COLUMN, ())])
        for label, size in zip(data.domains[CLASS_COLUMN], sizes[0]):
            if size < 2:
                raise ValueError(f"class {label!r} has fewer than 2 rows")
    starts = [set()] + [
        _random_start(scorer.variables, config.max_parents, derive_rng(seed, restart))
        for restart in range(1, config.restarts + 1)
    ]
    climbs = _Climber(scorer, config.max_parents).climb_all(starts)
    best_edges, _ = min(climbs, key=lambda climb: (-climb[1], tuple(sorted(climb[0]))))
    return Dag(nodes=scorer.variables, edges=best_edges)


def fit_cpts(dag: Dag, data: DataSet, alpha: float = 1.0) -> BayesNet:
    """Estimate all CPTs with additive (Laplace) smoothing ``alpha``.

    One ``family_counts`` call counts every family, its parents in name
    order as ``Dag.parents_of`` lists them: the CPT's row layout.
    """
    check_range("smoothing", alpha)
    families = [(node, dag.parents_of(node)) for node in dag.nodes]
    counts = _FamilyScorer(data, dag.nodes).family_counts(families)
    cpts: dict[str, Cpt] = {}
    for (node, parents), c in zip(families, counts):
        c += alpha
        cpts[node] = Cpt(node=node, parents=parents, table=c / c.sum(axis=1, keepdims=True))
    domains = {n: tuple(data.domains[n]) for n in dag.nodes}
    return BayesNet(dag=dag, cpts=cpts, domains=domains)


def _class_posteriors(net: BayesNet, codes: np.ndarray) -> Iterator[list[float]]:
    """Class posterior of each row of domain positions, one column per ``net.dag.nodes``.

    Log joints add ``math.log`` of one CPT entry per node in node order
    (``-inf`` on a zero entry); a row's own class code is ignored.
    """
    k = len(net.domains[CLASS_COLUMN])
    full = np.repeat(codes, k, axis=0)
    full[:, net.dag.nodes.index(CLASS_COLUMN)] = np.tile(np.arange(k), len(codes))
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


def _check_evidence(net: BayesNet, given: Iterable[str]) -> None:
    if CLASS_COLUMN not in net.dag.nodes:
        raise ValueError(f"network has no class node {CLASS_COLUMN!r}")
    expected, given = set(net.dag.nodes) - {CLASS_COLUMN}, set(given)
    if given != expected:
        missing, extra = sorted(expected - given), sorted(given - expected)
        raise ValueError(
            f"row must assign exactly the non-class nodes; missing {missing}, extra {extra}"
        )


def class_posterior(net: BayesNet, row: Mapping[str, str]) -> dict[str, float]:
    """Exact posterior over the class node ``CLASS_COLUMN`` given a fully observed row.

    ``row`` must assign every non-class node a value from its domain.
    Joint terms are accumulated in log space and normalized at the end;
    the result sums to one.
    """
    _check_evidence(net, row)
    for node in row:
        if row[node] not in net.domains[node]:
            raise ValueError(f"{node}: value {row[node]!r} not in domain")
    codes = [0 if n == CLASS_COLUMN else net.domains[n].index(row[n]) for n in net.dag.nodes]
    (posterior,) = _class_posteriors(net, np.array([codes]))
    return dict(zip(net.domains[CLASS_COLUMN], posterior))


def classify(net: BayesNet, row: Mapping[str, str]) -> str:
    """Most probable class value; exact ties go to the earlier domain value."""
    posterior = class_posterior(net, row)
    # max keeps the first of equal maxima.
    return max(net.domains[CLASS_COLUMN], key=posterior.__getitem__)


def accuracy(net: BayesNet, test: DataSet) -> float:
    """Fraction of test rows whose class is predicted correctly.

    Each distinct code row is classified once as :func:`classify` would,
    on the net's codes (mapped per column through the value strings), and
    counts one hit per copy when the prediction is its label.
    """
    if test.n_rows == 0:
        raise ValueError("empty test set")
    test.column_index(CLASS_COLUMN)  # rejects datasets without the label column
    _check_evidence(net, (c for c in test.columns if c != CLASS_COLUMN))
    rows, copies = test._distinct_rows()
    codes = np.empty((len(rows), len(net.dag.nodes)), dtype=np.int64)
    for j, node in enumerate(net.dag.nodes):
        domain, values = net.domains[node], test.domains[node]
        column = rows[:, test.column_index(node)]
        codes[:, j] = np.array([domain.index(v) if v in domain else -1 for v in values])[column]
        outside = codes[:, j] < 0
        if node != CLASS_COLUMN and outside.any():
            raise ValueError(f"{node}: value {values[column[outside.argmax()]]!r} not in domain")
    # index finds the first of equal maxima, as classify's max does.
    predicted = [p.index(max(p)) for p in _class_posteriors(net, codes)]
    hits = copies[np.array(predicted) == codes[:, net.dag.nodes.index(CLASS_COLUMN)]].sum()
    return int(hits) / test.n_rows


# --- persistence ----------------------------------------------------------

def _row_keys(domains: Mapping[str, Sequence[str]], parents: Sequence[str]) -> list[str]:
    """CPT row keys in row order: parent assignments, the first varying slowest, joined."""
    return [",".join(a) for a in product(*(domains[p] for p in parents))]


def bayesnet_to_json(net: BayesNet) -> str:
    """Canonical JSON text with a lossless round trip."""
    cpts = {}
    for node in net.dag.nodes:
        cpt = net.cpts[node]
        keys = _row_keys(net.domains, cpt.parents)
        rows = {key: [float(p) for p in row] for key, row in zip(keys, cpt.table)}
        if len(rows) < len(keys):
            raise ValueError(f"{node}: two parent value tuples join to one CPT row key")
        cpts[node] = {"parents": list(cpt.parents), "rows": rows}
    payload = {
        "nodes": list(net.dag.nodes),
        "edges": sorted([p, c] for p, c in net.dag.edges),
        "domains": {n: list(v) for n, v in net.domains.items()},
        "cpts": cpts,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _edge(value: object) -> tuple[str, ...]:
    """``value``, a JSON ``[parent, child]`` pair of strings, as a tuple."""
    edge = json_strings(value, "edge")
    if len(edge) != 2:
        raise ValueError(f"edge: expected a [parent, child] pair, got {value!r}")
    return edge


def bayesnet_from_json(text: str) -> BayesNet:
    """The network of :func:`bayesnet_to_json` text.

    Nodes, parents and domains must be JSON lists of strings, edges
    ``[parent, child]`` pairs of strings, and CPT entries JSON numbers.
    """
    payload = json.loads(text)
    nodes = json_strings(payload["nodes"], "nodes")
    dag = Dag(nodes=nodes, edges=frozenset(_edge(e) for e in payload["edges"]))
    domains = {n: json_strings(v, f"{n}: domain") for n, v in payload["domains"].items()}
    cpts: dict[str, Cpt] = {}
    for node in nodes:
        entry = payload["cpts"][node]
        parents = json_strings(entry["parents"], f"{node}: parents")
        keys = _row_keys(domains, parents)
        rows = entry["rows"]
        if sorted(rows) != sorted(keys):
            raise ValueError(f"{node}: CPT rows must be keyed by the parents' value tuples")
        what = f"{node}: CPT entry"
        table = np.array([[json_number(p, what) for p in rows[key]] for key in keys], dtype=float)
        cpts[node] = Cpt(node=node, parents=parents, table=table)
    return BayesNet(dag=dag, cpts=cpts, domains=domains)


def write_bayesnet(net: BayesNet, path: str | Path) -> None:
    Path(path).write_text(bayesnet_to_json(net), encoding="utf-8")


def read_bayesnet(path: str | Path) -> BayesNet:
    return bayesnet_from_json(Path(path).read_text(encoding="utf-8"))
