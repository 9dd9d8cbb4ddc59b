"""Spans around the package's public functions, recorded from outside ``src/``.

``Tracer.installed()`` replaces each traced function at every module
attribute that holds it (the defining module, the package namespace and
every ``from .x import f`` binding), so callers inside the package reach
the wrapper through the name they already look up. The CLI commands are
wrapped at their click callbacks. Everything is restored on exit.

Spans stay in memory. A span's self time is its duration minus the time
its child spans cover; the children of one span run one after another on
one thread, so that is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Traced functions, by the ``src/skilltransfer`` module that defines them.
TRACED = {
    "game_domain": ("run_session",),
    "behavior_data": (
        "to_dataset", "split", "validate_session",
        "write_session_jsonl", "read_session_jsonl",
        "write_dataset_csv", "read_dataset_csv",
    ),
    "bayes": ("learn_structure", "fit_cpts", "accuracy", "write_bayesnet", "read_bayesnet"),
    "transfer_loop": (
        "run_identification", "run_transfer", "divergence", "nudge_profile", "build_schedule",
    ),
    "config": ("load_config",),
}


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


#: Counts read off a call's arguments and result once its span has closed.
COUNTERS = {
    "game_domain.run_session": lambda a, k, out: {"ticks": len(out.records)},
    "behavior_data.to_dataset": lambda a, k, out: {"rows": out.n_rows},
    "bayes.accuracy": lambda a, k, out: {"test_rows": _arg(a, k, 1, "test").n_rows},
    "bayes.learn_structure": lambda a, k, out: {
        "train_rows": _arg(a, k, 0, "data").n_rows, "edges": len(out.edges),
    },
    "transfer_loop.run_transfer": lambda a, k, out: {"iterations": len(out.iterations)},
    "behavior_data.write_session_jsonl": lambda a, k, out: {
        "bytes": os.path.getsize(_arg(a, k, 1, "path")),
    },
    "behavior_data.read_session_jsonl": lambda a, k, out: {
        "bytes": os.path.getsize(_arg(a, k, 0, "path")),
    },
}

#: The traced run's metrics, all per measured operation, and their units.
PER_LAYER_METRICS = (
    ("game_domain.run_session.calls", "count/op"),
    ("game_domain.run_session.self_s", "s/op"),
    ("game_domain.run_session.us_per_tick", "us/tick"),
    ("behavior_data.to_dataset.self_s", "s/op"),
    ("behavior_data.to_dataset.rows", "count/op"),
    ("behavior_data.split.self_s", "s/op"),
    ("bayes.accuracy.self_s", "s/op"),
    ("bayes.accuracy.test_rows", "count/op"),
    ("bayes.accuracy.us_per_row", "us/row"),
    ("bayes.learn_structure.calls", "count/op"),
    ("bayes.learn_structure.self_s", "s/op"),
    ("bayes.learn_structure.train_rows", "count/op"),
    ("bayes.learn_structure.edges", "count/op"),
    ("bayes.fit_cpts.self_s", "s/op"),
    ("transfer_loop.run_transfer.iterations", "count/op"),
    ("transfer_loop.run_transfer.self_s", "s/op"),
    ("transfer_loop.run_identification.self_s", "s/op"),
    ("transfer_loop.divergence.self_s", "s/op"),
    ("transfer_loop.nudge_profile.self_s", "s/op"),
    ("transfer_loop.build_schedule.self_s", "s/op"),
    ("behavior_data.write_session_jsonl.self_s", "s/op"),
    ("behavior_data.write_session_jsonl.bytes", "B/op"),
    ("behavior_data.read_session_jsonl.self_s", "s/op"),
    ("behavior_data.read_session_jsonl.bytes", "B/op"),
    ("behavior_data.validate_session.self_s", "s/op"),
    ("behavior_data.write_dataset_csv.self_s", "s/op"),
    ("behavior_data.read_dataset_csv.self_s", "s/op"),
    ("bayes.write_bayesnet.self_s", "s/op"),
    ("bayes.read_bayesnet.self_s", "s/op"),
    ("config.load_config.self_s", "s/op"),
    ("cli.simulate.s", "s/op"),
    ("cli.simulate.self_s", "s/op"),
    ("cli.dataset.s", "s/op"),
    ("cli.dataset.self_s", "s/op"),
    ("cli.identify.s", "s/op"),
    ("cli.identify.self_s", "s/op"),
    ("trace.op_s", "s/op"),
    ("trace.unwrapped_self_s", "s/op"),
    ("trace.overhead_s", "s/op"),
)

#: The benchmark's own root span around one operation.
OP_SPAN = "op"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=len(self.spans), parent=parent, name=name, start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                out = fn(*args, **kwargs)
            if counter is not None:
                span.counts.update(counter(args, kwargs, out))
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        patches = []
        modules = [
            module for name, module in list(sys.modules.items())
            if name == "skilltransfer" or name.startswith("skilltransfer.")
        ]
        for module_name, names in TRACED.items():
            home = importlib.import_module(f"skilltransfer.{module_name}")
            for fn_name in names:
                original = getattr(home, fn_name)
                traced = self.wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, attr, original))
                            setattr(module, attr, traced)
        cli = sys.modules.get("skilltransfer.cli")
        if cli is not None:
            for command in cli.main.commands.values():
                patches.append((command, "callback", command.callback))
                command.callback = self.wrap(f"cli.{command.name}", command.callback)
        try:
            yield
        finally:
            for target, attr, original in reversed(patches):
                setattr(target, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return {span.id: (span.end - span.start) - covered[span.id] for span in spans}


def layer_metrics(spans: list[Span], overheads: list[float]) -> dict[str, float]:
    """Per-operation means of each traced function's calls, times and counts."""
    own = self_times(spans)
    n_ops = sum(1 for span in spans if span.name == OP_SPAN)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        prefix = "trace.op" if span.name == OP_SPAN else span.name
        totals[f"{prefix}.calls"] += 1
        totals[f"{prefix}.s"] += span.end - span.start
        totals[f"{prefix}.self_s"] += own[span.id]
        for key, value in span.counts.items():
            totals[f"{prefix}.{key}"] += value
    per_op = {key: value / n_ops for key, value in totals.items()}
    per_op["trace.op_s"] = per_op["trace.op.s"]
    per_op["trace.unwrapped_self_s"] = per_op["trace.op.self_s"]
    per_op["trace.overhead_s"] = statistics.median(overheads)

    def per_unit(time_key: str, count_key: str) -> float:
        count = per_op.get(count_key, 0)
        return per_op[time_key] / count * 1e6 if count else 0.0

    per_op["game_domain.run_session.us_per_tick"] = per_unit(
        "game_domain.run_session.self_s", "game_domain.run_session.ticks"
    )
    per_op["bayes.accuracy.us_per_row"] = per_unit(
        "bayes.accuracy.self_s", "bayes.accuracy.test_rows"
    )
    return {name: per_op.get(name, 0.0) for name, _ in PER_LAYER_METRICS}


def unaccounted_s(spans: list[Span]) -> float:
    """Largest gap between an operation's wall time and the self times it holds."""
    own = self_times(spans)
    root_of: dict[int, int] = {}
    for span in spans:  # parents precede their children
        root_of[span.id] = span.id if span.parent is None else root_of[span.parent]
    held: dict[int, float] = defaultdict(float)
    for span in spans:
        held[root_of[span.id]] += own[span.id]
    return max(
        (abs(held[s.id] - (s.end - s.start)) for s in spans if s.parent is None), default=0.0
    )
